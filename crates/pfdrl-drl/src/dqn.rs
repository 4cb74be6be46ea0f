//! Deep Q-Network agent (§3.3.1 and Algorithm 2).
//!
//! Paper hyperparameters (§4, Experiment Settings): learning rate 0.001,
//! discount κ = 0.9, replay capacity 2000, target-replace iteration 100,
//! Huber loss; the Q-network has 8 hidden layers of 100 ReLU neurons and
//! a 3-unit linear output (one Q-value per device mode).

use crate::policy::EpsilonSchedule;
use crate::replay::{ReplayBuffer, ReplayState, Transition};
use pfdrl_data::Mode;
use pfdrl_nn::optimizer::{Adam, AdamState};
use pfdrl_nn::{loss, Activation, Layered, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// DQN hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Learning rate (paper: 0.001).
    pub lr: f64,
    /// Discount factor κ (paper: 0.9).
    pub gamma: f64,
    /// Replay memory capacity (paper: 2000).
    pub replay_capacity: usize,
    /// Gradient steps between target-network syncs (paper: 100).
    pub target_sync: u64,
    /// Minibatch size per gradient step.
    pub batch: usize,
    /// Minimum buffered transitions before learning starts.
    pub warmup: usize,
    /// Huber loss threshold.
    pub huber_delta: f64,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Number of hidden layers (paper: 8).
    pub hidden_layers: usize,
    /// Width of each hidden layer (paper: 100).
    pub hidden_width: usize,
    /// Use Double-DQN target computation (van Hasselt et al.): the
    /// online network picks the argmax action, the target network
    /// evaluates it. Off by default — the paper uses vanilla DQN — but
    /// available as an extension/ablation.
    pub double: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            lr: 1e-3,
            gamma: 0.9,
            replay_capacity: 2000,
            target_sync: 100,
            batch: 32,
            warmup: 64,
            huber_delta: 1.0,
            epsilon: EpsilonSchedule::default(),
            hidden_layers: 8,
            hidden_width: 100,
            double: false,
            seed: 0,
        }
    }
}

impl DqnConfig {
    /// Exact paper configuration.
    pub fn paper(seed: u64) -> Self {
        DqnConfig {
            seed,
            ..Default::default()
        }
    }

    /// A slimmer Q-network (same depth, narrower layers) for experiments
    /// that train hundreds of agents; keeps the 8-layer structure that
    /// the α split is defined over.
    pub fn slim(seed: u64) -> Self {
        DqnConfig {
            hidden_width: 24,
            ..DqnConfig::paper(seed)
        }
    }
}

/// Reusable minibatch buffers for [`DqnAgent::train_step`] and the
/// ε-greedy act path. Sized on the first step and reused forever after,
/// so the steady-state training loop performs zero heap allocations.
/// Pure scratch — never checkpointed.
#[derive(Debug, Clone, Default)]
struct DqnScratch {
    indices: Vec<usize>,
    states: Matrix,
    next_states: Matrix,
    targets: Matrix,
    mask: Matrix,
    grad: Matrix,
    one_state: Matrix,
}

/// A DQN agent controlling one device.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    qnet: Mlp,
    target: Mlp,
    opt: Adam,
    replay: ReplayBuffer,
    cfg: DqnConfig,
    rng: StdRng,
    /// Environment steps observed (drives ε decay).
    env_steps: u64,
    /// Gradient steps taken (drives target sync).
    grad_steps: u64,
    scratch: DqnScratch,
}

impl DqnAgent {
    pub fn new(state_dim: usize, cfg: DqnConfig) -> Self {
        assert!(state_dim > 0, "state_dim must be positive");
        assert!((0.0..1.0).contains(&cfg.gamma), "gamma must be in [0,1)");
        assert!(cfg.hidden_layers >= 1, "need at least one hidden layer");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![state_dim];
        dims.extend(std::iter::repeat_n(cfg.hidden_width, cfg.hidden_layers));
        dims.push(3);
        let qnet = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let target = qnet.clone();
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let opt = Adam::new(cfg.lr);
        DqnAgent {
            qnet,
            target,
            opt,
            replay,
            cfg,
            rng,
            env_steps: 0,
            grad_steps: 0,
            scratch: DqnScratch::default(),
        }
    }

    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Q-values for one state.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.qnet.infer_one(state)
    }

    /// Q-values of every row of `states` in one inference through the
    /// online network's workspace, one output row per state. Row `r` is
    /// bit-identical to [`DqnAgent::q_values`] of row `r`: the kernels
    /// sum every output row on its own. Weights change only in
    /// [`DqnAgent::train_step`] (and federation imports), so rows taken
    /// before it stay valid for [`DqnAgent::act_with_q`] until then.
    pub fn q_batch(&mut self, states: &Matrix) -> &Matrix {
        self.qnet.infer_ws(states)
    }

    /// Greedy action.
    pub fn act_greedy(&self, state: &[f64]) -> Mode {
        Mode::from_index(argmax(&self.q_values(state)))
    }

    /// ε-greedy action; advances the exploration schedule.
    pub fn act(&mut self, state: &[f64]) -> Mode {
        match self.explore() {
            Some(action) => action,
            None => self.act_greedy_ws(state),
        }
    }

    /// [`DqnAgent::act`] for a state whose Q-values `q` the caller
    /// already holds (a row of [`DqnAgent::q_batch`]): the same ε draw,
    /// then the same argmax, so actions, RNG stream and schedule match
    /// `act` bit for bit.
    pub fn act_with_q(&mut self, q: &[f64]) -> Mode {
        self.explore()
            .unwrap_or_else(|| Mode::from_index(argmax(q)))
    }

    /// The ε-greedy rule's draw, for every act path: advances the
    /// exploration schedule and returns a uniformly random action with
    /// probability ε, or `None` for the greedy one.
    fn explore(&mut self) -> Option<Mode> {
        let eps = self.cfg.epsilon.value(self.env_steps);
        self.env_steps += 1;
        (self.rng.gen::<f64>() < eps).then(|| Mode::from_index(self.rng.gen_range(0..3)))
    }

    /// Allocation-free greedy action: inference runs through the
    /// network's reusable workspace. Bit-identical to
    /// [`DqnAgent::act_greedy`] — needs `&mut self` only for the buffers.
    pub fn act_greedy_ws(&mut self, state: &[f64]) -> Mode {
        let DqnAgent { qnet, scratch, .. } = self;
        scratch.one_state.resize(1, state.len());
        scratch.one_state.as_mut_slice().copy_from_slice(state);
        Mode::from_index(argmax(qnet.infer_ws(&scratch.one_state).as_slice()))
    }

    /// Records a transition and, once warm, performs one gradient step.
    /// Returns the TD loss if a step was taken.
    pub fn observe(&mut self, t: Transition) -> Option<f64> {
        self.remember(t);
        if !self.ready() {
            return None;
        }
        Some(self.train_step())
    }

    /// Stores a transition without training (callers that train every
    /// k-th step use `remember` + [`DqnAgent::train_step`]).
    pub fn remember(&mut self, t: Transition) {
        self.remember_step(&t.state, t.action, t.reward, t.next_state.as_deref());
    }

    /// Stores `(state, action, reward, next_state)` by copying the
    /// slices into the replay ring; `None` marks a terminal step. An
    /// episode that passes each step's `next_state` as the following
    /// step's `state` stores every state once and never allocates
    /// after its first push (see [`crate::replay`]).
    pub fn remember_step(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        next_state: Option<&[f64]>,
    ) {
        self.replay.push(state, action, reward, next_state);
    }

    /// Entry point for callers that build owned [`Transition`]s, such as
    /// the benchmark's traced mirror of the day loop: stores `t` exactly
    /// as [`DqnAgent::remember_step`] would and hands `t` itself back,
    /// so the caller can reuse its heap buffers for the next step.
    pub fn remember_evict(&mut self, t: Transition) -> Option<Transition> {
        self.remember_step(&t.state, t.action, t.reward, t.next_state.as_deref());
        Some(t)
    }

    /// Whether enough experience is buffered to start learning.
    pub fn ready(&self) -> bool {
        self.warmup_remaining() == 0
    }

    /// Transitions still to store before [`DqnAgent::ready`] holds; 0
    /// once it does.
    pub fn warmup_remaining(&self) -> usize {
        self.cfg
            .warmup
            .max(self.cfg.batch)
            .saturating_sub(self.replay.len())
    }

    /// One minibatch TD update: `y = r + κ max_a' Q_target(s', a')`,
    /// Huber loss on the taken action's Q-value only (Algorithm 2).
    ///
    /// Runs entirely on reusable workspace buffers: in steady state no
    /// heap allocation happens anywhere in this method. The RNG draws,
    /// FP accumulation orders and optimizer math are unchanged, so the
    /// trajectory is bit-identical to the original allocating
    /// implementation (checkpoint resume tests rely on this).
    pub fn train_step(&mut self) -> f64 {
        let DqnAgent {
            qnet,
            target,
            opt,
            replay,
            cfg,
            rng,
            grad_steps,
            scratch,
            ..
        } = self;
        replay.sample_indices_into(cfg.batch, rng, &mut scratch.indices);
        let n = scratch.indices.len();
        scratch.states.resize(n, replay.dim());
        scratch.next_states.resize(n, replay.dim());
        // Terminal rows must read all-zero, as with a freshly zeroed
        // matrix.
        scratch.next_states.fill_zero();
        for (r, &idx) in scratch.indices.iter().enumerate() {
            let t = replay.get(idx);
            scratch.states.row_mut(r).copy_from_slice(t.state);
            if let Some(ns) = t.next_state {
                scratch.next_states.row_mut(r).copy_from_slice(ns);
            }
        }
        // Bootstrap targets from the frozen network; with Double-DQN the
        // online network selects the action and the target evaluates it.
        let next_q = target.infer_ws(&scratch.next_states);
        let next_q_online = if cfg.double {
            Some(qnet.infer_ws(&scratch.next_states))
        } else {
            None
        };
        scratch.targets.resize(n, 3);
        scratch.targets.fill_zero();
        scratch.mask.resize(n, 3);
        scratch.mask.fill_zero();
        for (r, &idx) in scratch.indices.iter().enumerate() {
            let t = replay.get(idx);
            let y = match t.next_state {
                Some(_) => {
                    let row = next_q.row(r);
                    let bootstrap = match &next_q_online {
                        Some(online) => row[argmax(online.row(r))],
                        None => row.iter().copied().fold(f64::MIN, f64::max),
                    };
                    t.reward + cfg.gamma * bootstrap
                }
                None => t.reward,
            };
            scratch.targets.set(r, t.action, y);
            scratch.mask.set(r, t.action, 1.0);
        }
        qnet.zero_grad();
        let q = qnet.forward_ws(&scratch.states);
        let l = loss::huber_masked_into(
            q,
            &scratch.targets,
            &scratch.mask,
            cfg.huber_delta,
            &mut scratch.grad,
        );
        // Non-finite loss guard: a NaN/Inf loss means the gradient is
        // garbage — applying it would poison the weights, the Adam
        // moments and (through federation) every peer. Skip the
        // optimizer step and the target sync, return the loss for the
        // caller to count, and leave the weights untouched. The
        // batch's RNG draws are already consumed, so skipping keeps the
        // agent's stream position deterministic either way.
        if !l.is_finite() {
            return l;
        }
        qnet.backward_ws(&scratch.states, &scratch.grad);
        opt.step_fused(qnet.param_tensor_count(), |f| qnet.for_each_param_grad(f));
        *grad_steps += 1;
        if grad_steps.is_multiple_of(cfg.target_sync) {
            target.copy_params_from(qnet);
        }
        l
    }

    /// Number of gradient steps taken so far.
    pub fn grad_steps(&self) -> u64 {
        self.grad_steps
    }

    /// Number of environment steps observed so far.
    pub fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Captures everything that evolves during training: both networks,
    /// optimizer moments, replay contents, the RNG stream position and
    /// the step counters. Restoring this state resumes the agent
    /// bit-identically.
    pub fn export_state(&self) -> DqnState {
        DqnState {
            qnet: self.qnet.export_all(),
            target: self.target.export_all(),
            opt: self.opt.export_state(),
            replay: self.replay.export_state(),
            rng: self.rng.state(),
            env_steps: self.env_steps,
            grad_steps: self.grad_steps,
        }
    }

    /// Restores state captured with [`DqnAgent::export_state`].
    ///
    /// # Errors
    /// Rejects states whose network, optimizer, or replay shapes do not
    /// match this agent's architecture — a typed error, never a panic,
    /// so corrupt or mismatched checkpoints surface cleanly.
    pub fn restore_state(&mut self, state: &DqnState) -> Result<(), String> {
        let check_net = |name: &str, layers: &[Vec<f64>]| -> Result<(), String> {
            if layers.len() != self.qnet.layer_count() {
                return Err(format!(
                    "agent state: {name} has {} layers, expected {}",
                    layers.len(),
                    self.qnet.layer_count()
                ));
            }
            for (i, l) in layers.iter().enumerate() {
                if l.len() != self.qnet.layer_param_count(i) {
                    return Err(format!(
                        "agent state: {name} layer {i} has {} params, expected {}",
                        l.len(),
                        self.qnet.layer_param_count(i)
                    ));
                }
            }
            Ok(())
        };
        check_net("qnet", &state.qnet)?;
        check_net("target", &state.target)?;
        if state.replay.capacity != self.cfg.replay_capacity {
            return Err(format!(
                "agent state: replay capacity {} vs configured {}",
                state.replay.capacity, self.cfg.replay_capacity
            ));
        }
        let state_dim = self.qnet.in_dim();
        let actions = self.qnet.out_dim();
        let replay_dim = state.replay.dim;
        if replay_dim != 0 && replay_dim != state_dim {
            return Err(format!(
                "agent state: replay states are {replay_dim} wide, network takes {state_dim}"
            ));
        }
        for (i, slot) in state.replay.slots.iter().enumerate() {
            if slot.action as usize >= actions {
                return Err(format!(
                    "agent state: transition {i} has action {}, network has {actions}",
                    slot.action
                ));
            }
        }
        if !state.opt.m.is_empty() {
            let shapes: Vec<usize> = self
                .qnet
                .param_grad_pairs()
                .iter()
                .map(|(w, _)| w.len())
                .collect();
            if state.opt.m.len() != shapes.len() {
                return Err(format!(
                    "agent state: optimizer tracks {} tensors, network has {}",
                    state.opt.m.len(),
                    shapes.len()
                ));
            }
            for (i, (m, expect)) in state.opt.m.iter().zip(shapes.iter()).enumerate() {
                if m.len() != *expect {
                    return Err(format!(
                        "agent state: optimizer tensor {i} has {} entries, expected {expect}",
                        m.len()
                    ));
                }
            }
        }
        let replay = ReplayBuffer::from_state(&state.replay).map_err(|e| e.to_string())?;
        self.opt.import_state(state.opt.clone())?;
        for (i, l) in state.qnet.iter().enumerate() {
            self.qnet.import_layer(i, l);
        }
        for (i, l) in state.target.iter().enumerate() {
            self.target.import_layer(i, l);
        }
        self.replay = replay;
        self.rng = StdRng::from_state(state.rng);
        self.env_steps = state.env_steps;
        self.grad_steps = state.grad_steps;
        Ok(())
    }
}

/// Index of the largest of the three Q-values in `q`, the lowest index
/// on ties.
fn argmax(q: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..3 {
        if q[i] > q[best] {
            best = i;
        }
    }
    best
}

/// Serializable snapshot of one agent, captured with
/// [`DqnAgent::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct DqnState {
    /// Online Q-network, one flat parameter vector per layer.
    pub qnet: Vec<Vec<f64>>,
    /// Target network layers.
    pub target: Vec<Vec<f64>>,
    /// Adam moment estimates and step counter.
    pub opt: AdamState,
    /// Replay-buffer contents and ring position.
    pub replay: ReplayState,
    /// xoshiro256++ stream position.
    pub rng: [u64; 4],
    /// Environment steps observed (drives ε decay).
    pub env_steps: u64,
    /// Gradient steps taken (drives target sync).
    pub grad_steps: u64,
}

/// Federation accesses the online Q-network layer-by-layer; importing
/// parameters re-syncs the target network so bootstrap targets follow the
/// aggregated model.
impl Layered for DqnAgent {
    fn layer_count(&self) -> usize {
        self.qnet.layer_count()
    }
    fn layer_param_count(&self, i: usize) -> usize {
        self.qnet.layer_param_count(i)
    }
    fn export_layer(&self, i: usize) -> Vec<f64> {
        self.qnet.export_layer(i)
    }
    fn export_layer_into(&self, i: usize, out: &mut Vec<f64>) {
        self.qnet.export_layer_into(i, out);
    }
    fn import_layer(&mut self, i: usize, data: &[f64]) {
        self.qnet.import_layer(i, data);
        self.target.import_layer(i, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> DqnConfig {
        DqnConfig {
            hidden_layers: 2,
            hidden_width: 16,
            warmup: 16,
            batch: 16,
            epsilon: EpsilonSchedule {
                start: 1.0,
                end: 0.02,
                decay_steps: 400,
            },
            ..DqnConfig::paper(seed)
        }
    }

    #[test]
    fn paper_config_matches_section_4() {
        let c = DqnConfig::paper(0);
        assert_eq!(c.lr, 1e-3);
        assert_eq!(c.gamma, 0.9);
        assert_eq!(c.replay_capacity, 2000);
        assert_eq!(c.target_sync, 100);
        assert_eq!(c.hidden_layers, 8);
        assert_eq!(c.hidden_width, 100);
        let agent = DqnAgent::new(14, c);
        assert_eq!(agent.layer_count(), 9); // 8 hidden + output
    }

    #[test]
    fn greedy_action_maximizes_q() {
        let agent = DqnAgent::new(4, tiny_cfg(1));
        let s = [0.3, -0.2, 0.5, 0.9];
        let q = agent.q_values(&s);
        let a = agent.act_greedy(&s);
        let best = q.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(q[a.index()], best);
    }

    #[test]
    fn batched_greedy_acts_match_act_bitwise() {
        // ε falls from 1.0 to 0.0 over the first 40 of 64 acts: the draw
        // `gen::<f64>() < ε` always explores at the start and never at
        // the end, so both branches run.
        let cfg = DqnConfig {
            epsilon: EpsilonSchedule {
                start: 1.0,
                end: 0.0,
                decay_steps: 40,
            },
            ..tiny_cfg(21)
        };
        let mut one = DqnAgent::new(4, cfg.clone());
        let mut batched = DqnAgent::new(4, cfg);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..4 {
            // Half-zero states, like the EMS's one-hots.
            let states = Matrix::from_fn(16, 4, |_, _| {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen::<f64>()
                }
            });
            let q = batched.q_batch(&states).clone();
            for r in 0..16 {
                let action = one.act(states.row(r));
                assert_eq!(batched.act_with_q(q.row(r)), action, "row {r}");
                let t = Transition {
                    state: states.row(r).to_vec(),
                    action: action.index(),
                    reward: rng.gen::<f64>() - 0.5,
                    next_state: Some(states.row((r + 1) % 16).to_vec()),
                };
                one.remember(t.clone());
                batched.remember(t);
            }
            // Weights move between batches, as at the kernel's cadence.
            if one.ready() {
                assert_eq!(one.train_step().to_bits(), batched.train_step().to_bits());
            }
        }
        assert_eq!(one.grad_steps(), 4);
        assert_eq!(one.export_state(), batched.export_state());
    }

    #[test]
    fn non_finite_loss_skips_the_optimizer_step() {
        let mut agent = DqnAgent::new(4, tiny_cfg(9));
        // Poison every transition: a NaN reward makes every TD target —
        // and therefore the batch loss — NaN.
        for i in 0..16 {
            agent.remember(Transition {
                state: vec![i as f64 * 0.1; 4],
                action: 0,
                reward: f64::NAN,
                next_state: Some(vec![0.0; 4]),
            });
        }
        assert!(agent.ready());
        let before = agent.export_state();
        let loss = agent.train_step();
        assert!(!loss.is_finite(), "poisoned batch must report its loss");
        let after = agent.export_state();
        // Weights, moments, target net and step counters are untouched;
        // only the RNG stream advanced (the batch was already sampled).
        assert_eq!(after.qnet, before.qnet);
        assert_eq!(after.target, before.target);
        assert_eq!(after.opt.m, before.opt.m);
        assert_eq!(after.opt.t, before.opt.t);
        assert_eq!(after.grad_steps, before.grad_steps);
        assert_ne!(after.rng, before.rng, "batch sampling consumes the RNG");
    }

    #[test]
    fn observe_defers_learning_until_warm() {
        let mut agent = DqnAgent::new(4, tiny_cfg(2));
        for i in 0..15 {
            let r = agent.observe(Transition {
                state: vec![i as f64; 4],
                action: 0,
                reward: 1.0,
                next_state: Some(vec![0.0; 4]),
            });
            assert!(r.is_none(), "learned before warmup at {i}");
        }
        let r = agent.observe(Transition {
            state: vec![0.5; 4],
            action: 0,
            reward: 1.0,
            next_state: Some(vec![0.0; 4]),
        });
        assert!(r.is_some());
        assert_eq!(agent.grad_steps(), 1);
    }

    #[test]
    fn learns_a_contextual_bandit() {
        // State in {[1,0], [0,1]}: action 0 is right for the first,
        // action 2 for the second; terminal transitions (pure bandit).
        let mut agent = DqnAgent::new(2, tiny_cfg(3));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1500 {
            let which = rng.gen_bool(0.5);
            let state = if which {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            let action = agent.act(&state).index();
            let good = if which { 0 } else { 2 };
            let reward = if action == good { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state,
                action,
                reward,
                next_state: None,
            });
        }
        assert_eq!(agent.act_greedy(&[1.0, 0.0]), Mode::Off);
        assert_eq!(agent.act_greedy(&[0.0, 1.0]), Mode::On);
    }

    #[test]
    fn target_sync_happens_on_schedule() {
        let cfg = DqnConfig {
            target_sync: 5,
            ..tiny_cfg(4)
        };
        let mut agent = DqnAgent::new(2, cfg);
        for _ in 0..40 {
            agent.observe(Transition {
                state: vec![1.0, 0.0],
                action: 1,
                reward: 0.5,
                next_state: Some(vec![0.0, 1.0]),
            });
        }
        // After warmup (16), 24 gradient steps happened; syncs at 5, 10, 15, 20.
        assert!(agent.grad_steps() >= 20);
    }

    #[test]
    fn import_propagates_to_target() {
        let mut a = DqnAgent::new(3, tiny_cfg(5));
        let b = DqnAgent::new(3, tiny_cfg(6));
        for i in 0..b.layer_count() {
            a.import_layer(i, &b.export_layer(i));
        }
        let s = [0.1, 0.2, 0.3];
        // Online and target nets agree with b's online net.
        assert_eq!(a.q_values(&s), b.q_values(&s));
        assert_eq!(a.target.infer_one(&s), b.qnet.infer_one(&s));
    }

    #[test]
    fn double_dqn_learns_the_bandit_too() {
        let cfg = DqnConfig {
            double: true,
            ..tiny_cfg(8)
        };
        let mut agent = DqnAgent::new(2, cfg);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..1500 {
            let which = rng.gen_bool(0.5);
            let state = if which {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            let action = agent.act(&state).index();
            let good = if which { 0 } else { 2 };
            let reward = if action == good { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state,
                action,
                reward,
                next_state: None,
            });
        }
        assert_eq!(agent.act_greedy(&[1.0, 0.0]), Mode::Off);
        assert_eq!(agent.act_greedy(&[0.0, 1.0]), Mode::On);
    }

    #[test]
    fn double_dqn_bootstraps_from_target_at_online_argmax() {
        // With non-terminal transitions, double and vanilla targets can
        // differ; both must remain finite and trainable.
        let mut vanilla = DqnAgent::new(2, tiny_cfg(9));
        let mut double = DqnAgent::new(
            2,
            DqnConfig {
                double: true,
                ..tiny_cfg(9)
            },
        );
        for _ in 0..64 {
            let t = Transition {
                state: vec![0.2, 0.8],
                action: 1,
                reward: 1.0,
                next_state: Some(vec![0.8, 0.2]),
            };
            vanilla.remember(t.clone());
            double.remember(t);
        }
        let lv = vanilla.train_step();
        let ld = double.train_step();
        assert!(lv.is_finite() && ld.is_finite());
    }

    fn drive(agent: &mut DqnAgent, rounds: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let state = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let action = agent.act(&state).index();
            agent.observe(Transition {
                state,
                action,
                reward: rng.gen::<f64>() - 0.5,
                next_state: Some(vec![rng.gen::<f64>(), rng.gen::<f64>()]),
            });
        }
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        let mut original = DqnAgent::new(2, tiny_cfg(12));
        drive(&mut original, 60, 100);
        let snapshot = original.export_state();

        let mut resumed = DqnAgent::new(2, tiny_cfg(12));
        // Desynchronize the clone first so the restore does real work.
        drive(&mut resumed, 10, 101);
        resumed.restore_state(&snapshot).expect("restore");

        // Same stimuli from here on must produce identical actions,
        // identical gradient trajectories and identical parameters.
        drive(&mut original, 40, 200);
        drive(&mut resumed, 40, 200);
        assert_eq!(original.grad_steps(), resumed.grad_steps());
        assert_eq!(original.export_state(), resumed.export_state());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut agent = DqnAgent::new(2, tiny_cfg(13));
        let other = DqnAgent::new(3, tiny_cfg(13));
        assert!(agent.restore_state(&other.export_state()).is_err());

        let mut wrong_capacity = agent.export_state();
        wrong_capacity.replay.capacity += 1;
        assert!(agent.restore_state(&wrong_capacity).is_err());

        // A one-transition ring of the given state width and action.
        let capacity = agent.config().replay_capacity;
        let ring = |state_width: usize, action: usize| {
            let mut rb = ReplayBuffer::new(capacity);
            rb.push(&vec![0.0; state_width], action, 0.0, None);
            rb.export_state()
        };
        let mut bad_transition = agent.export_state();
        bad_transition.replay = ring(5, 0);
        assert!(agent.restore_state(&bad_transition).is_err());

        // An action the network has no output for would index past its
        // Q-value row in `train_step`.
        let mut bad_action = agent.export_state();
        bad_action.replay = ring(2, 3);
        assert!(agent.restore_state(&bad_action).is_err());
    }

    #[test]
    fn epsilon_decay_reduces_randomness() {
        let mut agent = DqnAgent::new(2, tiny_cfg(7));
        let s = [1.0, 0.0];
        // Early: with eps 1.0 the 3 actions all appear.
        let early: std::collections::HashSet<usize> =
            (0..60).map(|_| agent.act(&s).index()).collect();
        assert_eq!(early.len(), 3);
        // Late: after decay, actions concentrate on the greedy choice.
        for _ in 0..500 {
            let _ = agent.act(&s);
        }
        let greedy = agent.act_greedy(&s);
        let late_matches = (0..100).filter(|_| agent.act(&s) == greedy).count();
        assert!(
            late_matches > 80,
            "only {late_matches}/100 greedy after decay"
        );
    }
}
