//! Fully-connected layer with cached forward pass and hand-written backprop.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable scratch owned by a [`Dense`] layer: the forward
/// pre-activation, the backward `dPre`, gradient temporaries, and a
/// cached transpose of the weight matrix (`w_t`), which is refreshed
/// lazily and invalidated whenever the weights mutate. All buffers are
/// sized on first use and reused thereafter, so the `_into` paths make
/// zero heap allocations in steady state. Never serialized — a
/// deserialized layer simply re-sizes on its next pass.
#[derive(Debug, Clone, Default)]
struct DenseWs {
    pre: Matrix,
    dpre: Matrix,
    gw_tmp: Matrix,
    gb_tmp: Vec<f64>,
    w_t: Matrix,
    w_t_valid: bool,
}

/// A dense layer computing `act(x * W + b)` over a batch of row vectors.
///
/// The layer caches its last input and pre-activation so that
/// [`Dense::backward`] can be called immediately after [`Dense::forward`].
/// Gradients accumulate into `gw`/`gb` until [`Dense::zero_grad`].
///
/// The `_into` variants ([`Dense::forward_into`], [`Dense::infer_into`],
/// [`Dense::backward_into`]) are the allocation-free hot path used by
/// [`crate::Mlp`]'s workspace API; they produce bit-identical results to
/// the allocating methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f64>,
    act: Activation,
    #[serde(skip)]
    cached_input: Option<Matrix>,
    #[serde(skip)]
    cached_pre: Option<Matrix>,
    gw: Matrix,
    gb: Vec<f64>,
    #[serde(skip)]
    ws: DenseWs,
}

impl Dense {
    /// Creates a layer with `in_dim` inputs and `out_dim` outputs.
    ///
    /// Weights use He initialization for ReLU and Xavier otherwise;
    /// biases start at zero.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut impl Rng) -> Self {
        let init = match act {
            Activation::Relu => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        Dense {
            w: init.sample(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            act,
            cached_input: None,
            cached_pre: None,
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            ws: DenseWs::default(),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass over a `batch x in_dim` matrix, caching for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "Dense::forward input width mismatch"
        );
        let mut pre = x.matmul(&self.w);
        pre.add_row_broadcast(&self.b);
        let out = pre.map(|v| self.act.apply(v));
        self.cached_input = Some(x.clone());
        self.cached_pre = Some(pre);
        out
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out);
        out
    }

    /// Allocation-free [`Dense::infer`]: writes the activations into
    /// `out`, reusing its buffer. Bit-identical to `infer`.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "Dense::infer input width mismatch");
        x.matmul_into(&self.w, out);
        out.add_row_broadcast_map(&self.b, |v| self.act.apply(v));
    }

    /// Allocation-free training forward pass: the pre-activation is kept
    /// in the layer's workspace (for [`Dense::backward_into`]) and the
    /// activated output written into `out`. Unlike [`Dense::forward`] the
    /// input is *not* cached — the caller re-supplies it to
    /// `backward_into`. Bit-identical to `forward`.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "Dense::forward input width mismatch"
        );
        let Dense { w, b, act, ws, .. } = self;
        x.matmul_into(w, &mut ws.pre);
        out.resize(ws.pre.rows(), ws.pre.cols());
        // Bias add and activation in one traversal: the pre-activation
        // sum is rounded once before `act` either way, so this is
        // bit-identical to broadcasting the bias then mapping.
        for r in 0..ws.pre.rows() {
            let prow = ws.pre.row_mut(r);
            let orow = out.row_mut(r);
            for ((p, o), bv) in prow.iter_mut().zip(orow.iter_mut()).zip(b.iter()) {
                *p += bv;
                *o = act.apply(*p);
            }
        }
    }

    /// Allocation-free backward pass paired with [`Dense::forward_into`]:
    /// `input` and `output` must be the same matrices that forward pass
    /// consumed and produced, `dout` is dL/d(output), and dL/d(input) is
    /// written into `d_in` — or skipped, weight transpose included, when
    /// `d_in` is `None` (a first layer's, which nothing reads). The
    /// activation derivative is evaluated from the already-activated
    /// `output` ([`Activation::derivative_from_output`]), halving the backward
    /// transcendental work while keeping every bit: `output` holds
    /// exactly the values `act(pre)` produced. Gradients accumulate into
    /// `gw`/`gb` exactly as in [`Dense::backward`] (temporaries first,
    /// then one `+=`, so the FP accumulation order — and therefore every
    /// bit — matches).
    pub fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        dout: &Matrix,
        d_in: Option<&mut Matrix>,
    ) {
        let Dense {
            w, act, gw, gb, ws, ..
        } = self;
        assert_eq!(
            (dout.rows(), dout.cols()),
            (ws.pre.rows(), ws.pre.cols()),
            "Dense::backward_into dout shape mismatch"
        );
        debug_assert_eq!(
            (output.rows(), output.cols()),
            (ws.pre.rows(), ws.pre.cols()),
            "Dense::backward_into output shape mismatch"
        );
        // dPre = dOut ⊙ act'(output)
        ws.dpre.resize(dout.rows(), dout.cols());
        for ((d, &dov), &ov) in ws
            .dpre
            .as_mut_slice()
            .iter_mut()
            .zip(dout.as_slice())
            .zip(output.as_slice())
        {
            *d = dov * act.derivative_from_output(ov);
        }
        // Accumulate gradients: gW += Xᵀ dPre, gb += colsum(dPre).
        input.t_matmul_into(&ws.dpre, &mut ws.gw_tmp);
        gw.add_assign(&ws.gw_tmp);
        ws.gb_tmp.resize(ws.dpre.cols(), 0.0);
        ws.dpre.col_sums_into(&mut ws.gb_tmp);
        for (g, d) in gb.iter_mut().zip(ws.gb_tmp.iter()) {
            *g += d;
        }
        // dX = dPre Wᵀ, through the cached transpose.
        let Some(d_in) = d_in else {
            return;
        };
        if !ws.w_t_valid {
            w.transpose_into(&mut ws.w_t);
            ws.w_t_valid = true;
        }
        ws.dpre.matmul_cached_t_into(&ws.w_t, d_in);
    }

    /// Copies weights and biases from `other` without allocating
    /// (DQN target-network sync).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn copy_weights_from(&mut self, other: &Dense) {
        assert_eq!(
            (self.w.rows(), self.w.cols()),
            (other.w.rows(), other.w.cols()),
            "Dense::copy_weights_from shape mismatch"
        );
        self.w.as_mut_slice().copy_from_slice(other.w.as_slice());
        self.b.copy_from_slice(&other.b);
        self.ws.w_t_valid = false;
    }

    /// Backward pass. `dout` is dL/d(output); returns dL/d(input) and
    /// accumulates weight/bias gradients.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dout: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward before forward");
        let pre = self
            .cached_pre
            .as_ref()
            .expect("Dense::backward before forward");
        assert_eq!(
            (dout.rows(), dout.cols()),
            (pre.rows(), pre.cols()),
            "Dense::backward dout shape mismatch"
        );
        // dPre = dOut ⊙ act'(pre)
        let mut dpre = dout.clone();
        for (d, p) in dpre.as_mut_slice().iter_mut().zip(pre.as_slice()) {
            *d *= self.act.derivative(*p);
        }
        // Accumulate gradients: gW += Xᵀ dPre, gb += colsum(dPre).
        self.gw.add_assign(&input.t_matmul(&dpre));
        for (g, d) in self.gb.iter_mut().zip(dpre.col_sums()) {
            *g += d;
        }
        // dX = dPre Wᵀ
        dpre.matmul_t(&self.w)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gb.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Mutable parameter slices paired with their gradient slices,
    /// in a stable order (weights then biases).
    ///
    /// Handing out `&mut w` may mutate weights, so the cached transpose
    /// is invalidated here.
    pub fn param_grad_pairs(&mut self) -> [(&mut [f64], &[f64]); 2] {
        let Dense {
            w, b, gw, gb, ws, ..
        } = self;
        ws.w_t_valid = false;
        [
            (w.as_mut_slice(), gw.as_slice()),
            (b.as_mut_slice(), gb.as_slice()),
        ]
    }

    /// Flattens weights then biases into one vector (federation codec).
    pub fn export_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        self.export_flat_into(&mut out);
        out
    }

    /// Allocation-free [`Dense::export_flat`]: appends onto `out`
    /// (cleared first, capacity reused).
    pub fn export_flat_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Restores parameters from [`Dense::export_flat`] layout.
    ///
    /// # Panics
    /// Panics if `data` length does not match `param_count`.
    pub fn import_flat(&mut self, data: &[f64]) {
        assert_eq!(
            data.len(),
            self.param_count(),
            "Dense::import_flat length mismatch"
        );
        let (wp, bp) = data.split_at(self.w.len());
        self.w.as_mut_slice().copy_from_slice(wp);
        self.b.copy_from_slice(bp);
        self.ws.w_t_valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(act: Activation) -> Dense {
        Dense::new(3, 2, act, &mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn forward_shape_and_linearity() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (2, 2));
        // Identity layer is linear in its input: doubling x doubles (y - b).
        let x2 = x.map(|v| 2.0 * v);
        let y2 = l.infer(&x2);
        for r in 0..2 {
            for c in 0..2 {
                let without_bias = y.get(r, c) - l.export_flat()[6 + c];
                let without_bias2 = y2.get(r, c) - l.export_flat()[6 + c];
                assert!((without_bias2 - 2.0 * without_bias).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut l = layer(Activation::Relu);
        let x = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        let y1 = l.forward(&x);
        let y2 = l.infer(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut l = layer(Activation::Relu);
        let dout = Matrix::zeros(1, 2);
        let _ = l.backward(&dout);
    }

    #[test]
    fn backward_gradient_matches_numeric() {
        // Finite-difference check of dL/dW for L = sum(y).
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.9, 0.2, -0.4]);
        let y = l.forward(&x);
        let dout = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        l.zero_grad();
        let _ = l.forward(&x);
        let dx = l.backward(&dout);

        let eps = 1e-6;
        let base_params = l.export_flat();
        // Check a scattering of weight entries.
        for idx in [0usize, 2, 5, 6, 7] {
            let mut plus = base_params.clone();
            plus[idx] += eps;
            let mut minus = base_params.clone();
            minus[idx] -= eps;
            let mut lp = l.clone();
            lp.import_flat(&plus);
            let mut lm = l.clone();
            lm.import_flat(&minus);
            let f = |m: &Dense| m.infer(&x).as_slice().iter().sum::<f64>();
            let numeric = (f(&lp) - f(&lm)) / (2.0 * eps);
            let analytic = {
                // gw/gb are in the same flat order as export_flat.
                let l = &mut l;
                let pairs = l.param_grad_pairs();
                let mut grads = Vec::new();
                grads.extend_from_slice(pairs[0].1);
                grads.extend_from_slice(pairs[1].1);
                grads[idx]
            };
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And dL/dx numerically for one input entry.
        let mut xp = x.clone();
        xp.set(0, 1, x.get(0, 1) + eps);
        let mut xm = x.clone();
        xm.set(0, 1, x.get(0, 1) - eps);
        let numeric = (l.infer(&xp).as_slice().iter().sum::<f64>()
            - l.infer(&xm).as_slice().iter().sum::<f64>())
            / (2.0 * eps);
        assert!((numeric - dx.get(0, 1)).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let dout = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let _ = l.forward(&x);
        let _ = l.backward(&dout);
        let g1: Vec<f64> = l.param_grad_pairs()[0].1.to_vec();
        let _ = l.forward(&x);
        let _ = l.backward(&dout);
        let g2: Vec<f64> = l.param_grad_pairs()[0].1.to_vec();
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
        l.zero_grad();
        assert!(l.param_grad_pairs()[0].1.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn export_import_round_trip() {
        let mut a = layer(Activation::Relu);
        let b = Dense::new(3, 2, Activation::Relu, &mut StdRng::seed_from_u64(7));
        let before = b.export_flat();
        a.import_flat(&before);
        assert_eq!(a.export_flat(), before);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn import_flat_rejects_bad_length() {
        let mut l = layer(Activation::Relu);
        l.import_flat(&[0.0; 3]);
    }
}
