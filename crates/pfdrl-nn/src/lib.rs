//! # pfdrl-nn
//!
//! A from-scratch dense neural-network library used by the PFDRL
//! reproduction: matrices, fully-connected and LSTM layers with
//! hand-written backpropagation, MSE/Huber losses, and the Adam
//! optimizer.
//!
//! The paper trains small models (an 8x100 ReLU Q-network and one-layer
//! LSTM forecasters) on commodity hardware, so this crate favours
//! simplicity and determinism over raw throughput: all randomness comes
//! from caller-supplied RNGs, and every network exposes its parameters
//! layer-by-layer (the [`params::Layered`] trait) so the federated layer
//! split of PFDRL (base vs. personalization layers) can move individual
//! layers between residences.
//!
//! ## Example
//!
//! ```
//! use pfdrl_nn::{Mlp, Activation, loss, optimizer::Adam, Matrix};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(0.01);
//! // Fit y = 2x on a tiny batch, on the allocation-free training path.
//! let x = Matrix::from_vec(4, 1, vec![-1.0, -0.5, 0.5, 1.0]);
//! let t = x.map(|v| 2.0 * v);
//! let mut grad = Matrix::default();
//! for _ in 0..200 {
//!     net.zero_grad();
//!     let y = net.forward_ws(&x);
//!     loss::mse_into(y, &t, &mut grad);
//!     net.backward_ws(&x, &grad);
//!     opt.step_fused(net.param_tensor_count(), |f| net.for_each_param_grad(f));
//! }
//! let (err, _) = loss::mse(&net.infer(&x), &t);
//! assert!(err < 1e-2);
//! ```

pub mod activation;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod params;

pub use activation::Activation;
pub use init::Init;
pub use layer::Dense;
pub use lstm::{Lstm, LstmScratch};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use params::{average_params, Layered};
