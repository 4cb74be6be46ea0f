//! Adam, the one optimizer every trainer uses.
//!
//! Trainers update through [`Adam::step_fused`], driven by a network's
//! `for_each_param_grad` visitor, which walks the (parameter, gradient)
//! tensors in the stable `param_grad_pairs` order so the per-tensor
//! moment state stays aligned across steps. [`Adam::step`] takes the
//! same tensors as a collected pair list; it is the oracle the kernel
//! property tests pin `step_fused` to.

/// Visitor driven by [`Adam::step_fused`]: called once per tensor with
/// `(stable index, parameters, gradients)`.
pub type ParamGradVisitor<'a> = dyn FnMut(usize, &mut [f64], &[f64]) + 'a;

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    pub fn new(lr: f64) -> Self {
        Adam::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "Adam learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update to a collected pair list. `pairs[i] =
    /// (params, grads)` must keep the same shape and order across calls.
    /// The reference [`Adam::step_fused`] is pinned to bit for bit.
    pub fn step(&mut self, pairs: &mut [(&mut [f64], &[f64])]) {
        if self.m.is_empty() {
            self.m = pairs.iter().map(|(w, _)| vec![0.0; w.len()]).collect();
            self.v = pairs.iter().map(|(w, _)| vec![0.0; w.len()]).collect();
        }
        assert_eq!(
            self.m.len(),
            pairs.len(),
            "Adam: parameter set changed shape"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (w, g)) in pairs.iter_mut().enumerate() {
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            assert_eq!(w.len(), m.len(), "Adam: tensor changed size");
            for (((w, g), m), v) in w
                .iter_mut()
                .zip(g.iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Allocation-free Adam step driven by a visitor instead of a
    /// collected pair list: `for_each` must invoke its callback exactly
    /// once per tensor with `(index, params, grads)` in the same stable
    /// order [`Adam::step`] would see (e.g.
    /// `Mlp::for_each_param_grad`). The per-element update is the same
    /// expression sequence as `step`, so the resulting weights are
    /// bit-identical; [`AdamState`] layout is unchanged. The one
    /// difference is exact: once `1 − β₁ᵗ` rounds to 1.0 (t ≳ 355 at
    /// β₁ = 0.9), `m / bc1` is an identity and is skipped.
    ///
    /// # Panics
    /// Panics if `tensor_count` or any tensor size disagrees with the
    /// state from earlier steps.
    pub fn step_fused(
        &mut self,
        tensor_count: usize,
        for_each: impl FnOnce(&mut ParamGradVisitor<'_>),
    ) {
        if self.m.is_empty() {
            // Lazy init mirrors `step`: sized on first visit below.
            self.m = vec![Vec::new(); tensor_count];
            self.v = vec![Vec::new(); tensor_count];
        }
        assert_eq!(
            self.m.len(),
            tensor_count,
            "Adam: parameter set changed shape"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let Adam {
            lr,
            beta1,
            beta2,
            eps,
            m,
            v,
            ..
        } = self;
        let update = Update {
            lr: *lr,
            beta1: *beta1,
            beta2: *beta2,
            eps: *eps,
            bc1,
            bc2,
        };
        for_each(&mut |i, w, g| {
            let (m, v) = (&mut m[i], &mut v[i]);
            if m.is_empty() && !w.is_empty() {
                m.resize(w.len(), 0.0);
                v.resize(w.len(), 0.0);
            }
            assert_eq!(w.len(), m.len(), "Adam: tensor changed size");
            if bc1 == 1.0 {
                update.apply::<true>(w, g, m, v);
            } else {
                update.apply::<false>(w, g, m, v);
            }
        });
    }
}

/// One step's constants for [`Adam::step_fused`].
#[derive(Clone, Copy)]
struct Update {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

impl Update {
    /// Updates one tensor with [`Adam::step`]'s expression sequence.
    /// `UNIT_BC1` (for `bc1 == 1.0` only) drops `m / bc1`, an exact
    /// identity there, leaving `v / bc2`, the square root and the update
    /// division as the step's divider work.
    #[inline(always)]
    fn apply<const UNIT_BC1: bool>(self, w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
        let Update {
            lr,
            beta1,
            beta2,
            eps,
            bc1,
            bc2,
        } = self;
        for (((w, g), m), v) in w
            .iter_mut()
            .zip(g.iter())
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = if UNIT_BC1 { *m } else { *m / bc1 };
            let vhat = *v / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Snapshot of Adam's internal moment estimates, for checkpointing.
///
/// `m`/`v` are empty until the first step (Adam
/// initializes them lazily); an empty snapshot restores that
/// not-yet-stepped state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Bias-correction step counter.
    pub t: u64,
    /// First-moment estimate per parameter tensor.
    pub m: Vec<Vec<f64>>,
    /// Second-moment estimate per parameter tensor.
    pub v: Vec<Vec<f64>>,
}

impl Adam {
    /// Captures the optimizer's mutable state (the hyperparameters are
    /// the caller's to persist; they live in public fields).
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured with [`Adam::export_state`].
    ///
    /// # Errors
    /// Rejects internally inconsistent snapshots (`m`/`v` disagreeing
    /// in tensor count or sizes). Consistency with the *network* shape
    /// is the caller's to check — the next `step` asserts it.
    pub fn import_state(&mut self, state: AdamState) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "Adam state: {} first-moment tensors vs {} second-moment",
                state.m.len(),
                state.v.len()
            ));
        }
        for (i, (m, v)) in state.m.iter().zip(state.v.iter()).enumerate() {
            if m.len() != v.len() {
                return Err(format!(
                    "Adam state: tensor {i} has {} m entries vs {} v",
                    m.len(),
                    v.len()
                ));
            }
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = (w - 3)^2 from w = 0.
    fn converges(mut opt: Adam, iters: usize) -> f64 {
        let mut w = [0.0f64];
        for _ in 0..iters {
            let g = [2.0 * (w[0] - 3.0)];
            let mut pairs = [(&mut w[..], &g[..])];
            opt.step(&mut pairs);
        }
        w[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = converges(Adam::new(0.1), 600);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr * sign(g).
        let mut opt = Adam::new(0.01);
        let mut w = [0.0];
        let g = [5.0];
        let mut pairs = [(&mut w[..], &g[..])];
        opt.step(&mut pairs);
        assert!((w[0] + 0.01).abs() < 1e-6, "w = {}", w[0]);
    }

    #[test]
    #[should_panic(expected = "parameter set changed shape")]
    fn adam_rejects_changing_shapes() {
        let mut opt = Adam::new(0.01);
        let mut w = [0.0];
        let g = [1.0];
        let mut pairs = [(&mut w[..], &g[..])];
        opt.step(&mut pairs);
        let mut w2 = [0.0, 0.0];
        let g2 = [1.0, 1.0];
        let mut pairs2 = [(&mut w2[..], &g2[..]), (&mut w[..], &g[..])];
        opt.step(&mut pairs2);
    }
}
