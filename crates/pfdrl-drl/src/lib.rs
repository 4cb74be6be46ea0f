//! # pfdrl-drl
//!
//! The deep-reinforcement-learning half of PFDRL: a DQN agent with
//! experience replay, a target network and ε-greedy exploration,
//! configured with the paper's hyperparameters (lr 0.001, κ = 0.9,
//! replay 2000, target replace 100, Huber loss, 8×100 ReLU Q-network).
//!
//! Agents implement `pfdrl_nn::Layered`, so `pfdrl-fl` can broadcast
//! any prefix of the Q-network's layers — the base/personalization split
//! at the heart of the paper's §3.3.2.
//!
//! ## Example
//!
//! ```
//! use pfdrl_drl::{DqnAgent, DqnConfig, Transition};
//!
//! let mut agent = DqnAgent::new(4, DqnConfig::slim(0));
//! let state = vec![0.0, 0.1, 0.0, 1.0];
//! let action = agent.act(&state);
//! agent.observe(Transition {
//!     state,
//!     action: action.index(),
//!     reward: 10.0,
//!     next_state: None,
//! });
//! ```

pub mod dqn;
pub mod policy;
pub mod replay;

pub use dqn::{DqnAgent, DqnConfig, DqnState};
pub use policy::EpsilonSchedule;
pub use replay::{ReplayBuffer, ReplayError, ReplayState, Transition, TransitionRef};
