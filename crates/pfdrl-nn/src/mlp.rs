//! Multi-layer perceptron: the network family used both by the BP
//! forecaster and by the DQN agent (8 hidden layers x 100 neurons in the
//! paper's configuration).

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::params::Layered;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable activation / gradient buffers for the workspace
/// (allocation-free) forward/backward API. `acts[i]` holds layer `i`'s
/// output; `d_a`/`d_b` ping-pong the backward signal and `inf_a`/`inf_b`
/// the inference activations. Sized lazily, never serialized.
#[derive(Debug, Clone, Default)]
struct MlpWs {
    acts: Vec<Matrix>,
    d_a: Matrix,
    d_b: Matrix,
    inf_a: Matrix,
    inf_b: Matrix,
}

/// A stack of [`Dense`] layers.
///
/// Two API families coexist: the original allocating
/// `forward`/`infer`/`backward`, and the workspace variants
/// ([`Mlp::forward_ws`], [`Mlp::infer_ws`], [`Mlp::backward_ws`]) that
/// reuse buffers owned by the network and allocate nothing in steady
/// state. Both produce bit-identical outputs and gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    #[serde(skip)]
    ws: MlpWs,
}

impl Mlp {
    /// Builds an MLP from a list of layer widths and a hidden activation.
    ///
    /// `dims = [in, h1, ..., out]` produces `dims.len() - 1` layers; all
    /// but the last use `hidden_act`, the last uses `out_act`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new needs at least [in, out] dims");
        assert!(
            dims.iter().all(|&d| d > 0),
            "Mlp::new dims must be positive"
        );
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last { out_act } else { hidden_act };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp {
            layers,
            ws: MlpWs::default(),
        }
    }

    /// The paper's Q-network: 8 hidden ReLU layers of 100 neurons and a
    /// linear 3-unit output (one Q-value per device mode).
    pub fn paper_qnet(state_dim: usize, rng: &mut impl Rng) -> Self {
        let mut dims = vec![state_dim];
        dims.extend(std::iter::repeat_n(100, 8));
        dims.push(3);
        Mlp::new(&dims, Activation::Relu, Activation::Identity, rng)
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Training forward pass over a `batch x in_dim` matrix (caches
    /// activations for [`Mlp::backward`]).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Inference-only forward pass (no caching, usable with `&self`).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.infer(&cur);
        }
        cur
    }

    /// Convenience: inference on a single input vector.
    pub fn infer_one(&self, x: &[f64]) -> Vec<f64> {
        self.infer(&Matrix::row_vector(x.to_vec()))
            .as_slice()
            .to_vec()
    }

    /// Backpropagates `dout = dL/d(output)`, accumulating gradients in
    /// every layer; returns `dL/d(input)`.
    pub fn backward(&mut self, dout: &Matrix) -> Matrix {
        let mut cur = dout.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Allocation-free training forward pass: activations land in the
    /// network's workspace and a reference to the final output is
    /// returned. Pair with [`Mlp::backward_ws`], passing the same `x`.
    /// Bit-identical to [`Mlp::forward`].
    pub fn forward_ws(&mut self, x: &Matrix) -> &Matrix {
        let Mlp { layers, ws } = self;
        if ws.acts.len() != layers.len() {
            ws.acts.resize(layers.len(), Matrix::default());
        }
        for (i, layer) in layers.iter_mut().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            let input = if i == 0 { x } else { &done[i - 1] };
            layer.forward_into(input, &mut rest[0]);
        }
        ws.acts.last().expect("non-empty")
    }

    /// Allocation-free inference: ping-pongs two workspace buffers.
    /// Bit-identical to [`Mlp::infer`] (which stays `&self`; this variant
    /// needs `&mut self` only for buffer reuse — parameters are
    /// untouched).
    pub fn infer_ws(&mut self, x: &Matrix) -> &Matrix {
        let Mlp { layers, ws } = self;
        let (first, others) = layers.split_first().expect("non-empty");
        first.infer_into(x, &mut ws.inf_a);
        let mut cur = &mut ws.inf_a;
        let mut next = &mut ws.inf_b;
        for layer in others {
            layer.infer_into(cur, next);
            std::mem::swap(&mut cur, &mut next);
        }
        &*cur
    }

    /// Allocation-free inference into caller-owned ping-pong buffers,
    /// usable with `&self` (unlike [`Mlp::infer_ws`], which borrows the
    /// network's own workspace). Returns a reference to whichever buffer
    /// holds the final activation. Bit-identical to [`Mlp::infer`].
    pub fn infer_scratch<'s>(
        &self,
        x: &Matrix,
        a: &'s mut Matrix,
        b: &'s mut Matrix,
    ) -> &'s Matrix {
        let (first, others) = self.layers.split_first().expect("non-empty");
        first.infer_into(x, a);
        let mut cur = a;
        let mut next = b;
        for layer in others {
            layer.infer_into(cur, next);
            std::mem::swap(&mut cur, &mut next);
        }
        &*cur
    }

    /// Allocation-free backward pass paired with [`Mlp::forward_ws`]:
    /// `x` must be the same input that forward pass consumed. Gradients
    /// accumulate exactly as in [`Mlp::backward`]. Unlike `backward` it
    /// does not compute dL/d(input): no caller reads it, and it costs the
    /// first layer a weight transpose and a `batch x in x out` product.
    pub fn backward_ws(&mut self, x: &Matrix, dout: &Matrix) {
        let Mlp { layers, ws } = self;
        let MlpWs { acts, d_a, d_b, .. } = ws;
        let n = layers.len();
        assert_eq!(acts.len(), n, "Mlp::backward_ws before forward_ws");
        // `cur` holds dL/d(output) of the layer being visited, `next`
        // receives its dL/d(input).
        let mut cur = d_a;
        let mut next = d_b;
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let input = if i == 0 { x } else { &acts[i - 1] };
            // acts[i] is layer i's forward activation — handing it back
            // lets the layer derive act' from the output it already
            // computed instead of re-running sigmoid/tanh on the
            // pre-activation (bit-identical, half the transcendentals).
            let output = &acts[i];
            let upstream = if i == n - 1 { dout } else { &*cur };
            let d_in = if i == 0 { None } else { Some(&mut *next) };
            layer.backward_into(input, output, upstream, d_in);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Visits every (parameter, gradient) slice pair in the stable
    /// [`Mlp::param_grad_pairs`] order without allocating, passing the
    /// pair's index. Drives [`crate::optimizer::Adam::step_fused`].
    pub fn for_each_param_grad(&mut self, f: &mut crate::optimizer::ParamGradVisitor<'_>) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let [(w, gw), (b, gb)] = layer.param_grad_pairs();
            f(2 * i, w, gw);
            f(2 * i + 1, b, gb);
        }
    }

    /// Number of (parameter, gradient) pairs [`Mlp::for_each_param_grad`]
    /// visits.
    pub fn param_tensor_count(&self) -> usize {
        2 * self.layers.len()
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Stable-ordered (parameter, gradient) slice pairs for optimizers.
    pub fn param_grad_pairs(&mut self) -> Vec<(&mut [f64], &[f64])> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.param_grad_pairs())
            .collect()
    }

    /// Copies all parameters from `other` (used for DQN target-network
    /// sync).
    ///
    /// # Panics
    /// Panics if architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layer_count(),
            other.layer_count(),
            "copy_params_from arch mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.copy_weights_from(src);
        }
    }
}

impl Layered for Mlp {
    fn layer_count(&self) -> usize {
        self.layers.len()
    }

    fn layer_param_count(&self, i: usize) -> usize {
        self.layers[i].param_count()
    }

    fn export_layer(&self, i: usize) -> Vec<f64> {
        self.layers[i].export_flat()
    }

    fn export_layer_into(&self, i: usize, out: &mut Vec<f64>) {
        self.layers[i].export_flat_into(out);
    }

    fn import_layer(&mut self, i: usize, data: &[f64]) {
        self.layers[i].import_flat(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(dims: &[usize]) -> Mlp {
        Mlp::new(
            dims,
            Activation::Relu,
            Activation::Identity,
            &mut StdRng::seed_from_u64(5),
        )
    }

    #[test]
    fn shapes_flow_through() {
        let mut net = mlp(&[4, 8, 8, 2]);
        let x = Matrix::zeros(5, 4);
        let y = net.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.out_dim(), 2);
    }

    #[test]
    fn paper_qnet_architecture() {
        let net = Mlp::paper_qnet(8, &mut StdRng::seed_from_u64(1));
        assert_eq!(net.layer_count(), 9); // 8 hidden + output
        assert_eq!(net.in_dim(), 8);
        assert_eq!(net.out_dim(), 3);
        // 8*100 + 100 for first layer, 100*100+100 for middle, 100*3+3 out.
        let expected = (8 * 100 + 100) + 7 * (100 * 100 + 100) + (100 * 3 + 3);
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_dim_rejected() {
        let _ = mlp(&[4]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut net = mlp(&[3, 6, 2]);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.5, 0.3, 1.2, 0.0, -0.8]);
        assert_eq!(net.forward(&x), net.infer(&x));
    }

    #[test]
    fn infer_scratch_bitwise_matches_infer() {
        let net = mlp(&[3, 6, 6, 2]);
        let mut a = Matrix::default();
        let mut b = Matrix::default();
        for rows in [1usize, 5, 2] {
            let x = Matrix::from_fn(rows, 3, |r, c| (r as f64 - 1.3) * (c as f64 + 0.7));
            let want = net.infer(&x);
            let got = net.infer_scratch(&x, &mut a, &mut b);
            assert_eq!((want.rows(), want.cols()), (got.rows(), got.cols()));
            for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn infer_one_matches_batch() {
        let net = mlp(&[3, 6, 2]);
        let x = [0.1, -0.5, 0.3];
        let one = net.infer_one(&x);
        let batch = net.infer(&Matrix::row_vector(x.to_vec()));
        assert_eq!(one, batch.as_slice());
    }

    #[test]
    fn end_to_end_gradient_matches_numeric() {
        // L = sum of outputs; check d L / d(param) for sampled params.
        let mut net = Mlp::new(
            &[3, 5, 4, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut StdRng::seed_from_u64(11),
        );
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.6, -0.1, 0.8, 0.5]);
        let y = net.forward(&x);
        let dout = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        net.zero_grad();
        let _ = net.forward(&x);
        let _ = net.backward(&dout);

        let flat_grads: Vec<f64> = {
            let pairs = net.param_grad_pairs();
            pairs
                .iter()
                .flat_map(|(_, g)| g.iter().copied())
                .collect::<Vec<_>>()
        };
        let flat_params: Vec<f64> = (0..net.layer_count())
            .flat_map(|i| net.export_layer(i))
            .collect();
        let eps = 1e-6;
        let eval = |params: &[f64], net: &Mlp, x: &Matrix| {
            let mut n = net.clone();
            let mut off = 0;
            for i in 0..n.layer_count() {
                let c = n.layer_param_count(i);
                n.import_layer(i, &params[off..off + c]);
                off += c;
            }
            n.infer(x).as_slice().iter().sum::<f64>()
        };
        for idx in (0..flat_params.len()).step_by(7) {
            let mut p = flat_params.clone();
            p[idx] += eps;
            let fp = eval(&p, &net, &x);
            p[idx] -= 2.0 * eps;
            let fm = eval(&p, &net, &x);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - flat_grads[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_grads[idx]
            );
        }
    }

    #[test]
    fn copy_params_from_makes_outputs_identical() {
        let mut a = mlp(&[4, 8, 3]);
        let b = Mlp::new(
            &[4, 8, 3],
            Activation::Relu,
            Activation::Identity,
            &mut StdRng::seed_from_u64(99),
        );
        let x = Matrix::from_vec(1, 4, vec![0.3, 0.1, -0.2, 0.9]);
        assert_ne!(a.infer(&x), b.infer(&x));
        a.copy_params_from(&b);
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn layered_round_trip_preserves_output() {
        let net = mlp(&[4, 8, 8, 3]);
        let mut other = mlp(&[4, 8, 8, 3]);
        for i in 0..net.layer_count() {
            other.import_layer(i, &net.export_layer(i));
        }
        let x = Matrix::from_vec(1, 4, vec![1.0, -1.0, 0.5, 0.25]);
        assert_eq!(net.infer(&x), other.infer(&x));
    }
}
