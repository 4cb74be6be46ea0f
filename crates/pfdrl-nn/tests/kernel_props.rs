//! Property tests pinning the zero-allocation kernel family to the
//! naive reference kernels — *bitwise*, via `f64::to_bits`, not within
//! a tolerance. The optimized `_into` kernels claim the exact same
//! floating-point accumulation order as the `*_reference` loops; any
//! reassociation (or a dropped/added zero-skip) shows up here as a flipped
//! bit. Shapes deliberately include dimensions that are not multiples of
//! the accumulator widths, and payloads include NaN, ±0.0, infinities
//! and subnormals.
//!
//! One deliberate carve-out: when *both* sides produce a NaN at the same
//! element, the NaN payload bits are not compared. IEEE 754 leaves NaN
//! payload propagation unspecified, and LLVM commutes `fadd`/`fmul`
//! operands freely, so which of two NaN inputs survives an addition is a
//! codegen artifact, not a property of the accumulation order. NaN
//! *placement* is still exact, as are the sign of zeros, infinities,
//! subnormals and every finite bit pattern — which is the contract the
//! bit-identical checkpoint-resume guarantee actually needs (a run that
//! hits NaN has already diverged and is not resumable).

use pfdrl_nn::optimizer::Adam;
use pfdrl_nn::{Activation, Layered, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64: derives arbitrarily many deterministic values from one
/// sampled seed (the vendored proptest shim only supports simple
/// range/tuple strategies, so all structure is derived here).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Mostly well-scaled finite values, with a deliberate sprinkle of
    /// exact zeros (they trigger the kernels' zero-skip branch), -0.0,
    /// NaN and infinities.
    fn value(&mut self) -> f64 {
        match self.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MIN_POSITIVE / 2.0, // subnormal
            _ => {
                let u = self.next();
                // Uniform in [-8, 8): enough dynamic range to exercise
                // rounding without everything overflowing.
                (u as f64 / u64::MAX as f64) * 16.0 - 8.0
            }
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.value())
    }

    /// [`Gen::value`] with NaN and infinities thinned to about one draw
    /// in `4 * len` (zeros, -0.0 and subnormals keep their rate), so that
    /// most `len`-term sums stay finite and their rounding is compared
    /// bit for bit, not just their NaN placement.
    fn summand(&mut self, len: usize) -> f64 {
        loop {
            let v = self.value();
            if v.is_finite() || self.below(len as u64) == 0 {
                return v;
            }
        }
    }

    fn summand_matrix(&mut self, rows: usize, cols: usize, len: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.summand(len))
    }
}

/// Bitwise equality, except that two NaNs match regardless of payload
/// (see the module docs for why payloads are a codegen artifact).
fn bits_match(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            bits_match(x, y),
            "{what}: element {i} differs: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Trains `dims` for `steps` minibatches of `batch` rows through the
/// allocating path (`forward`/`backward`/`step`) and the workspace path
/// (`forward_ws`/`backward_ws`/`step_fused`) on twin networks and asserts
/// bit-identical weights. The two backward passes multiply by `Wᵀ`
/// through different kernels (`matmul_t_into` against
/// `matmul_cached_t_into` over the cached transpose).
fn assert_training_paths_match(dims: &[usize], batch: usize, steps: usize, seed: u64) {
    let g = &mut Gen(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let (n_in, n_out) = (dims[0], dims[dims.len() - 1]);
    let mut net_a = Mlp::new(dims, Activation::Relu, Activation::Identity, &mut rng);
    let mut net_b = net_a.clone();
    let mut opt_a = Adam::new(1e-2);
    let mut opt_b = Adam::new(1e-2);
    let mut grad_buf = Matrix::default();
    for _ in 0..steps {
        // Finite inputs/upstream grads: ReLU on NaN would make both
        // paths NaN anyway, which proves nothing extra here.
        let x = Matrix::from_fn(batch, n_in, |_, _| (g.below(2000) as f64 - 1000.0) / 250.0);
        let dout = Matrix::from_fn(batch, n_out, |_, _| (g.below(2000) as f64 - 1000.0) / 250.0);

        net_a.zero_grad();
        let _ = net_a.forward(&x);
        let _ = net_a.backward(&dout);
        opt_a.step(&mut net_a.param_grad_pairs());

        net_b.zero_grad();
        let _ = net_b.forward_ws(&x);
        grad_buf.resize(dout.rows(), dout.cols());
        grad_buf.as_mut_slice().copy_from_slice(dout.as_slice());
        net_b.backward_ws(&x, &grad_buf);
        opt_b.step_fused(net_b.param_tensor_count(), |f| net_b.for_each_param_grad(f));
    }
    for (la, lb) in net_a.export_all().iter().zip(net_b.export_all().iter()) {
        for (x, y) in la.iter().zip(lb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{dims:?} at batch {batch}");
        }
    }
}

/// Every output width from 1 to 130 — each contiguous kernel, the
/// strided column tiles and every remainder tile width — on all three
/// register-accumulator kernels, against the reference oracles. The
/// reduction lengths include the networks' own (12, 14, 27), the row
/// counts odd ones, so the row-pairing tails run too, and both include
/// the empty dimension. The three largest `m x k` pairs are left out to
/// keep the debug-profile run short; every `m` and every `k` still
/// meets every width.
#[test]
fn every_kernel_width_matches_reference_bitwise() {
    let g = &mut Gen(0x5EED_1D75);
    let mut out = Matrix::default();
    for n in 1..=130 {
        for m in [0, 1, 2, 3, 16, 17, 24, 33] {
            for k in [0, 1, 2, 3, 12, 14, 27, 41] {
                if m * k > 720 {
                    continue;
                }
                let a = g.summand_matrix(m, k, k);
                let b = g.summand_matrix(k, n, k);
                a.matmul_into(&b, &mut out);
                let what = format!("matmul_into {m}x{k} * {k}x{n}");
                assert_bits_eq(&out, &a.matmul_reference(&b), &what);

                let a = g.summand_matrix(m, k, m);
                let b = g.summand_matrix(m, n, m);
                a.t_matmul_into(&b, &mut out);
                let what = format!("t_matmul_into ({m}x{k})ᵀ * {m}x{n}");
                assert_bits_eq(&out, &a.t_matmul_reference(&b), &what);

                let a = g.summand_matrix(m, k, k);
                let b = g.summand_matrix(n, k, k);
                a.matmul_cached_t_into(&b.transpose(), &mut out);
                let what = format!("matmul_cached_t_into {m}x{k} * ({n}x{k})ᵀ");
                assert_bits_eq(&out, &a.matmul_t_reference(&b), &what);
            }
        }
    }
}

/// The shipped DQN shapes, through both training paths: the fleet and
/// `SimConfig::tiny` Q-network (3 hidden layers of 12 over a 12-wide
/// state, batch 16) and the paper_day / canary one (8 hidden layers of
/// 16 over a 14-wide state, batch 24).
#[test]
fn shipped_dqn_shapes_train_bitwise_through_both_paths() {
    for seed in [1, 2] {
        assert_training_paths_match(&[12, 12, 12, 12, 3], 16, 4, seed);
        let mut paper = vec![14];
        paper.extend([16; 8]);
        paper.push(3);
        assert_training_paths_match(&paper, 24, 4, seed);
    }
}

proptest! {
    /// `matmul_into` (register-accumulator kernel) is bit-identical to the
    /// naive `matmul_reference` for every shape, including dims not
    /// divisible by 4 and degenerate 1-wide cases.
    #[test]
    fn matmul_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(k, n);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &a.matmul_reference(&b), "matmul_into");
        // The allocating wrapper delegates to the same kernel.
        assert_bits_eq(&a.matmul(&b), &a.matmul_reference(&b), "matmul");
    }

    /// `t_matmul_into` (Aᵀ·B) is bit-identical to `t_matmul_reference`.
    #[test]
    fn t_matmul_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(m, n);
        let mut out = Matrix::default();
        a.t_matmul_into(&b, &mut out);
        assert_bits_eq(&out, &a.t_matmul_reference(&b), "t_matmul_into");
        let _ = k;
    }

    /// `matmul_t_into` (A·Bᵀ) is bit-identical to `matmul_t_reference`,
    /// and so is `matmul_cached_t_into` over a pre-transposed `rhs` —
    /// the cached-transpose path the backward passes use.
    #[test]
    fn matmul_t_variants_match_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(n, k);
        let reference = a.matmul_t_reference(&b);
        let mut out = Matrix::default();
        a.matmul_t_into(&b, &mut out);
        assert_bits_eq(&out, &reference, "matmul_t_into");
        let b_t = b.transpose();
        a.matmul_cached_t_into(&b_t, &mut out);
        assert_bits_eq(&out, &reference, "matmul_cached_t_into");
    }

    /// `Adam::step_fused` applies the exact per-element update of the
    /// pair-based `Adam::step`, bit for bit, across multiple steps
    /// (so the first-moment history and bias correction agree too).
    #[test]
    fn adam_step_fused_matches_step_bitwise(
        seed in 0u64..u64::MAX,
        tensors in 1usize..5,
        steps in 1usize..5,
    ) {
        let g = &mut Gen(seed);
        let lens: Vec<usize> = (0..tensors).map(|_| 1 + g.below(9) as usize).collect();
        let mut w_a: Vec<Vec<f64>> =
            lens.iter().map(|&l| (0..l).map(|_| g.value()).collect()).collect();
        let mut w_b = w_a.clone();
        let mut opt_a = Adam::new(1e-2);
        let mut opt_b = Adam::new(1e-2);
        for _ in 0..steps {
            let grads: Vec<Vec<f64>> =
                lens.iter().map(|&l| (0..l).map(|_| g.value()).collect()).collect();
            let mut pairs: Vec<(&mut [f64], &[f64])> = w_a
                .iter_mut()
                .zip(&grads)
                .map(|(w, g)| (&mut w[..], &g[..]))
                .collect();
            opt_a.step(&mut pairs);
            opt_b.step_fused(tensors, |f| {
                for (i, (w, g)) in w_b.iter_mut().zip(&grads).enumerate() {
                    f(i, w, g);
                }
            });
        }
        for (a, b) in w_a.iter().zip(&w_b) {
            for (&x, &y) in a.iter().zip(b) {
                prop_assert!(bits_match(x, y));
            }
        }
        let (sa, sb) = (opt_a.export_state(), opt_b.export_state());
        prop_assert_eq!(sa.t, sb.t);
        for (ma, mb) in sa.m.iter().zip(&sb.m).chain(sa.v.iter().zip(&sb.v)) {
            for (&x, &y) in ma.iter().zip(mb) {
                prop_assert!(bits_match(x, y));
            }
        }
    }

    /// End to end: training an MLP through the workspace path
    /// (`forward_ws`/`backward_ws`/`step_fused`) yields bit-identical
    /// weights to the allocating path (`forward`/`backward`/`step`) on
    /// the twin network.
    #[test]
    fn ws_training_path_matches_allocating_path_bitwise(
        seed in 0u64..u64::MAX,
        steps in 1usize..4,
        batch in 1usize..5,
    ) {
        assert_training_paths_match(&[3, 5, 2], batch, steps, seed);
    }
}
