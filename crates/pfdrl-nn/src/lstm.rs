//! Single-layer LSTM with a dense head, trained by full backpropagation
//! through time. This is the paper's best-performing load forecaster
//! (Figures 5–8: LR < SVM < BP < LSTM).

use crate::activation::{sigmoid, Activation};
use crate::init::Init;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::params::Layered;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-timestep values cached by the forward pass for BPTT. Caches are
/// reused across forward calls (resized in place), so steady-state
/// training allocates nothing per sequence.
#[derive(Debug, Clone, Default)]
struct StepCache {
    /// Concatenated `[x_t, h_{t-1}]`, `batch x (in+h)`.
    z: Matrix,
    i: Matrix,
    f: Matrix,
    o: Matrix,
    g: Matrix,
    c: Matrix,
    tanh_c: Matrix,
}

/// Reusable forward/backward buffers for the workspace API: the running
/// hidden/cell state, the head output, ping-pong buffers for the
/// backward `dh`/`dc` signals, per-gate temporaries, and cached gate
/// weight transposes (invalidated whenever gate weights mutate). Never
/// serialized.
#[derive(Debug, Clone, Default)]
struct LstmWs {
    h: Matrix,
    c0: Matrix,
    out: Matrix,
    dh_a: Matrix,
    dh_b: Matrix,
    dc_a: Matrix,
    dc_b: Matrix,
    dai: Matrix,
    daf: Matrix,
    dao: Matrix,
    dag: Matrix,
    gw_tmp: Matrix,
    gb_tmp: Vec<f64>,
    dz: Matrix,
    dz_tmp: Matrix,
    wi_t: Matrix,
    wf_t: Matrix,
    wo_t: Matrix,
    wg_t: Matrix,
    gates_t_valid: bool,
}

/// Reusable buffers for [`Lstm::infer_windows`]: gate/state matrices,
/// the `[x, h]` concat buffer, and the head output. One scratch can be
/// shared across any models whose shapes match (buffers resize in
/// place), so repeated inference allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    z: Matrix,
    i: Matrix,
    f: Matrix,
    o: Matrix,
    g: Matrix,
    h: Matrix,
    c: Matrix,
    c_next: Matrix,
    tanh_c: Matrix,
    out: Matrix,
}

/// A single-layer LSTM followed by a dense output head applied to the
/// final hidden state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    /// Gate weights, each `(in+h) x hidden`.
    wi: Matrix,
    wf: Matrix,
    wo: Matrix,
    wg: Matrix,
    bi: Vec<f64>,
    bf: Vec<f64>,
    bo: Vec<f64>,
    bg: Vec<f64>,
    head: Dense,
    // Gradients.
    gwi: Matrix,
    gwf: Matrix,
    gwo: Matrix,
    gwg: Matrix,
    gbi: Vec<f64>,
    gbf: Vec<f64>,
    gbo: Vec<f64>,
    gbg: Vec<f64>,
    #[serde(skip)]
    caches: Vec<StepCache>,
    #[serde(skip)]
    last_batch: usize,
    /// How many leading entries of `caches` the last forward pass wrote
    /// (the rest are stale capacity kept for reuse).
    #[serde(skip)]
    active_steps: usize,
    #[serde(skip)]
    ws: LstmWs,
}

impl Lstm {
    /// Creates an LSTM with `in_dim` inputs per step, `hidden` units, and
    /// an `out_dim`-wide linear head. The forget-gate bias starts at 1.0
    /// (standard trick to ease gradient flow early in training).
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(
            in_dim > 0 && hidden > 0 && out_dim > 0,
            "Lstm dims must be positive"
        );
        let zdim = in_dim + hidden;
        let sample = |rng: &mut _| Init::XavierUniform.sample(zdim, hidden, rng);
        Lstm {
            in_dim,
            hidden,
            wi: sample(rng),
            wf: sample(rng),
            wo: sample(rng),
            wg: sample(rng),
            bi: vec![0.0; hidden],
            bf: vec![1.0; hidden],
            bo: vec![0.0; hidden],
            bg: vec![0.0; hidden],
            head: Dense::new(hidden, out_dim, Activation::Identity, rng),
            gwi: Matrix::zeros(zdim, hidden),
            gwf: Matrix::zeros(zdim, hidden),
            gwo: Matrix::zeros(zdim, hidden),
            gwg: Matrix::zeros(zdim, hidden),
            gbi: vec![0.0; hidden],
            gbf: vec![0.0; hidden],
            gbo: vec![0.0; hidden],
            gbg: vec![0.0; hidden],
            caches: Vec::new(),
            last_batch: 0,
            active_steps: 0,
            ws: LstmWs::default(),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.head.out_dim()
    }

    fn gate_param_count(&self) -> usize {
        4 * (self.wi.len() + self.hidden)
    }

    /// Total trainable parameter count (gates + head).
    pub fn param_count(&self) -> usize {
        self.gate_param_count() + self.head.param_count()
    }

    /// Concatenates `[x, h]` row-wise into a `batch x (in+h)` matrix.
    fn concat(x: &Matrix, h: &Matrix) -> Matrix {
        let mut z = Matrix::default();
        Self::concat_into(x, h, &mut z);
        z
    }

    /// Non-allocating [`Lstm::concat`] into a reused buffer.
    fn concat_into(x: &Matrix, h: &Matrix, z: &mut Matrix) {
        debug_assert_eq!(x.rows(), h.rows());
        z.resize(x.rows(), x.cols() + h.cols());
        for r in 0..x.rows() {
            let row = z.row_mut(r);
            row[..x.cols()].copy_from_slice(x.row(r));
            row[x.cols()..].copy_from_slice(h.row(r));
        }
    }

    /// Forward over a sequence. `seq[t]` is the `batch x in_dim` input at
    /// step `t`. Returns the head output on the final hidden state
    /// (`batch x out_dim`) and caches everything for [`Lstm::backward`].
    ///
    /// # Panics
    /// Panics on an empty sequence or mismatched widths.
    pub fn forward(&mut self, seq: &[Matrix]) -> Matrix {
        self.forward_ws(seq).clone()
    }

    /// Allocation-free [`Lstm::forward`]: all step caches and state
    /// buffers are reused across calls; returns a reference to the head
    /// output held in the workspace. The per-element arithmetic — the
    /// fused `f ⊙ c_prev + i ⊙ g` cell update included — performs the
    /// same multiply/add sequence as the allocating version, so outputs
    /// are bit-identical.
    pub fn forward_ws(&mut self, seq: &[Matrix]) -> &Matrix {
        assert!(!seq.is_empty(), "Lstm::forward: empty sequence");
        let batch = seq[0].rows();
        for (t, x) in seq.iter().enumerate() {
            assert_eq!(
                x.cols(),
                self.in_dim,
                "Lstm::forward step {t} width mismatch"
            );
            assert_eq!(x.rows(), batch, "Lstm::forward step {t} batch mismatch");
        }
        if self.caches.len() < seq.len() {
            self.caches.resize_with(seq.len(), StepCache::default);
        }
        self.last_batch = batch;
        self.active_steps = seq.len();
        let Lstm {
            hidden,
            wi,
            wf,
            wo,
            wg,
            bi,
            bf,
            bo,
            bg,
            head,
            caches,
            ws,
            ..
        } = self;
        ws.h.resize(batch, *hidden);
        ws.h.fill_zero();
        // Zero cell state for step 0; also serves as `c_{-1}` in backward.
        ws.c0.resize(batch, *hidden);
        ws.c0.fill_zero();
        for (t, x) in seq.iter().enumerate() {
            let (prev, rest) = caches.split_at_mut(t);
            let cache = &mut rest[0];
            let c_prev: &Matrix = if t == 0 { &ws.c0 } else { &prev[t - 1].c };
            Self::concat_into(x, &ws.h, &mut cache.z);
            cache.z.matmul_into(wi, &mut cache.i);
            cache.i.add_row_broadcast_map(bi, sigmoid);
            cache.z.matmul_into(wf, &mut cache.f);
            cache.f.add_row_broadcast_map(bf, sigmoid);
            cache.z.matmul_into(wo, &mut cache.o);
            cache.o.add_row_broadcast_map(bo, sigmoid);
            cache.z.matmul_into(wg, &mut cache.g);
            cache.g.add_row_broadcast_map(bg, f64::tanh);

            // c = f ⊙ c_prev + i ⊙ g, tanh(c) and h = o ⊙ tanh(c),
            // fused into one pass; each element's expression tree is
            // unchanged, so all three outputs keep their bits.
            cache.c.resize(batch, *hidden);
            cache.tanh_c.resize(batch, *hidden);
            let StepCache {
                i,
                f,
                o,
                g,
                c,
                tanh_c,
                ..
            } = cache;
            let (fs, cps, is, gs, os) = (
                f.as_slice(),
                c_prev.as_slice(),
                i.as_slice(),
                g.as_slice(),
                o.as_slice(),
            );
            let (cs, tcs, hs) = (c.as_mut_slice(), tanh_c.as_mut_slice(), ws.h.as_mut_slice());
            for e in 0..cs.len() {
                let cn = fs[e] * cps[e] + is[e] * gs[e];
                cs[e] = cn;
                let tc = cn.tanh();
                tcs[e] = tc;
                hs[e] = os[e] * tc;
            }
        }
        head.forward_into(&ws.h, &mut ws.out);
        &ws.out
    }

    /// Inference-only forward pass (no caching).
    pub fn infer(&self, seq: &[Matrix]) -> Matrix {
        assert!(!seq.is_empty(), "Lstm::infer: empty sequence");
        let batch = seq[0].rows();
        let mut h = Matrix::zeros(batch, self.hidden);
        let mut c = Matrix::zeros(batch, self.hidden);
        for x in seq {
            let z = Self::concat(x, &h);
            let mut i = z.matmul(&self.wi);
            i.add_row_broadcast(&self.bi);
            i.map_inplace(sigmoid);
            let mut f = z.matmul(&self.wf);
            f.add_row_broadcast(&self.bf);
            f.map_inplace(sigmoid);
            let mut o = z.matmul(&self.wo);
            o.add_row_broadcast(&self.bo);
            o.map_inplace(sigmoid);
            let mut g = z.matmul(&self.wg);
            g.add_row_broadcast(&self.bg);
            g.map_inplace(f64::tanh);
            let mut new_c = f.hadamard(&c);
            new_c.add_assign(&i.hadamard(&g));
            h = o.hadamard(&new_c.map(f64::tanh));
            c = new_c;
        }
        self.head.infer(&h)
    }

    /// Allocation-free inference over the day-pipeline window layout,
    /// without materializing the per-step sequence: row `r` of `inputs`
    /// is `[w_0 .. w_{window-1}, s0, s1]` and step `t` feeds
    /// `[w_t, s0, s1]`. It performs the exact per-element operation
    /// sequence of [`Lstm::infer`] on that unroll (each product —
    /// `f·c_prev`, `i·g`, `o·tanh(c)` — is evaluated before its sum,
    /// matching the hadamard/add order of the allocating path), so
    /// outputs are bit-identical. The returned reference points at the
    /// head output held in `s`. The trailing features are written into
    /// `z` once; each step only refreshes the leading column. Requires
    /// `in_dim == window-invariant layout`, i.e. `inputs.cols() - window`
    /// trailing features plus the one windowed column.
    ///
    /// # Panics
    /// Panics if `window` is zero or the widths are inconsistent with
    /// `in_dim`.
    pub fn infer_windows<'s>(
        &self,
        inputs: &Matrix,
        window: usize,
        s: &'s mut LstmScratch,
    ) -> &'s Matrix {
        let batch = inputs.rows();
        let in_dim = self.in_dim;
        assert!(window > 0, "Lstm::infer_windows: empty window");
        assert_eq!(
            inputs.cols(),
            window + in_dim - 1,
            "Lstm::infer_windows: {} cols can't hold window {} + {} trailing features",
            inputs.cols(),
            window,
            in_dim - 1
        );
        let (xs, width) = (inputs.as_slice(), inputs.cols());
        self.infer_steps(batch, window, s, |t, z| {
            let zdim = z.cols();
            let zs = z.as_mut_slice();
            if t == 0 {
                // Trailing features are step-invariant: write them once.
                for r in 0..batch {
                    let xrow = &xs[r * width + window..(r + 1) * width];
                    zs[r * zdim + 1..r * zdim + in_dim].copy_from_slice(xrow);
                }
            }
            for r in 0..batch {
                zs[r * zdim] = xs[r * width + t];
            }
        })
    }

    /// Recurrence driver of [`Lstm::infer_windows`]: `fill_x(t, z)`
    /// must overwrite the leading `in_dim` columns of every `z` row with
    /// the step-`t` input (columns it knows to be unchanged may be left
    /// alone — `z` is persistent across steps).
    fn infer_steps<'s>(
        &self,
        batch: usize,
        steps: usize,
        s: &'s mut LstmScratch,
        mut fill_x: impl FnMut(usize, &mut Matrix),
    ) -> &'s Matrix {
        let (in_dim, hidden) = (self.in_dim, self.hidden);
        let zdim = in_dim + hidden;
        let LstmScratch {
            z,
            i,
            f,
            o,
            g,
            h,
            c,
            c_next,
            tanh_c,
            out,
        } = s;
        // `z` holds `[x | h]` persistently across steps: each step
        // overwrites the `x` columns via `fill_x`, and the fused cell
        // pass stores the new `h` straight into the hidden columns — the
        // per-step `[x, h]` concat copy of [`Lstm::infer`] disappears,
        // but `z`'s contents (and thus every matmul) are bit-identical.
        z.resize(batch, zdim);
        z.fill_zero(); // hidden columns start at the zero initial state
        c.resize(batch, hidden);
        c.fill_zero();
        c_next.resize(batch, hidden);
        tanh_c.resize(batch, hidden);
        for t in 0..steps {
            fill_x(t, z);
            z.matmul_into(&self.wi, i);
            i.add_row_broadcast_map(&self.bi, sigmoid);
            z.matmul_into(&self.wf, f);
            f.add_row_broadcast_map(&self.bf, sigmoid);
            z.matmul_into(&self.wo, o);
            o.add_row_broadcast_map(&self.bo, sigmoid);
            z.matmul_into(&self.wg, g);
            g.add_row_broadcast_map(&self.bg, f64::tanh);
            // new_c = f ⊙ c + i ⊙ g, tanh(new_c) and h = o ⊙ tanh(new_c)
            // in one pass; every product is evaluated before its sum,
            // exactly as the hadamard/add order of the allocating path,
            // so outputs are bit-identical.
            let (fs, cps, is, gs, os) = (
                f.as_slice(),
                c.as_slice(),
                i.as_slice(),
                g.as_slice(),
                o.as_slice(),
            );
            let (cns, tcs) = (c_next.as_mut_slice(), tanh_c.as_mut_slice());
            let zs = z.as_mut_slice();
            for r in 0..batch {
                let hrow = &mut zs[r * zdim + in_dim..(r + 1) * zdim];
                for (col, hv) in hrow.iter_mut().enumerate() {
                    let e = r * hidden + col;
                    let cn = fs[e] * cps[e] + is[e] * gs[e];
                    cns[e] = cn;
                    let tc = cn.tanh();
                    tcs[e] = tc;
                    *hv = os[e] * tc;
                }
            }
            std::mem::swap(c, c_next);
        }
        // The head wants the final hidden state contiguous: one copy out
        // of `z`'s hidden columns per call (not per step).
        h.resize(batch, hidden);
        for r in 0..batch {
            h.row_mut(r).copy_from_slice(&z.row(r)[in_dim..]);
        }
        self.head.infer_into(h, out);
        out
    }

    /// Backpropagation through time. `dout` is dL/d(head output).
    /// Gradients accumulate; call [`Lstm::zero_grad`] between batches.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dout: &Matrix) {
        assert!(self.active_steps > 0, "Lstm::backward before forward");
        let batch = self.last_batch;
        let Lstm {
            in_dim,
            hidden,
            wi,
            wf,
            wo,
            wg,
            head,
            gwi,
            gwf,
            gwo,
            gwg,
            gbi,
            gbf,
            gbo,
            gbg,
            caches,
            active_steps,
            ws,
            ..
        } = self;
        // Refresh the cached gate-weight transposes if weights changed.
        if !ws.gates_t_valid {
            wi.transpose_into(&mut ws.wi_t);
            wf.transpose_into(&mut ws.wf_t);
            wo.transpose_into(&mut ws.wo_t);
            wg.transpose_into(&mut ws.wg_t);
            ws.gates_t_valid = true;
        }
        let LstmWs {
            h,
            c0,
            out,
            dh_a,
            dh_b,
            dc_a,
            dc_b,
            dai,
            daf,
            dao,
            dag,
            gw_tmp,
            gb_tmp,
            dz,
            dz_tmp,
            wi_t,
            wf_t,
            wo_t,
            wg_t,
            ..
        } = ws;
        // Head backward gives dL/d(h_T); `h` still holds the final
        // hidden state the head consumed, `out` the activation it
        // produced (for the output-based derivative).
        head.backward_into(&*h, &*out, dout, Some(&mut *dh_a));
        let mut dh = &mut *dh_a;
        let mut dh_next = &mut *dh_b;
        dc_a.resize(batch, *hidden);
        dc_a.fill_zero();
        let mut dc = &mut *dc_a;
        let mut dc_next = &mut *dc_b;
        gb_tmp.resize(*hidden, 0.0);
        for t in (0..*active_steps).rev() {
            // `c0` is all-zero from the forward pass: the c_{-1} state.
            let prev_c: &Matrix = if t == 0 { &*c0 } else { &caches[t - 1].c };
            let cache = &caches[t];
            // The whole elementwise backward chain through the cell —
            //   do  = dh ⊙ tanh_c
            //   dc' = dc + dh ⊙ o ⊙ (1 - tanh_c²)
            //   df/di/dg/dc_next = dc' ⊙ {c_prev, g, i, f}
            //   da* = d* ⊙ σ'(·) or tanh'(·)
            // — fused into one traversal. Each output element's
            // expression tree (every product before its sum, every
            // parenthesization) is exactly what the separate hadamard
            // passes built, so all bits are unchanged.
            dai.resize(batch, *hidden);
            daf.resize(batch, *hidden);
            dao.resize(batch, *hidden);
            dag.resize(batch, *hidden);
            dc_next.resize(batch, *hidden);
            {
                let (dhs, tcs, os, dcs, cps, gs, is, fs) = (
                    dh.as_slice(),
                    cache.tanh_c.as_slice(),
                    cache.o.as_slice(),
                    dc.as_slice(),
                    prev_c.as_slice(),
                    cache.g.as_slice(),
                    cache.i.as_slice(),
                    cache.f.as_slice(),
                );
                let n = dcs.len();
                let (dais, dafs, daos) =
                    (dai.as_mut_slice(), daf.as_mut_slice(), dao.as_mut_slice());
                let (dags, dcns) = (dag.as_mut_slice(), dc_next.as_mut_slice());
                for e in 0..n {
                    let (dhv, tc, ov) = (dhs[e], tcs[e], os[e]);
                    let do_v = dhv * tc;
                    let dtc = (dhv * ov) * (1.0 - tc * tc);
                    let dcv = dcs[e] + dtc;
                    let (iv, fv, gv) = (is[e], fs[e], gs[e]);
                    let dfv = dcv * cps[e];
                    let div = dcv * gs[e];
                    let dgv = dcv * is[e];
                    dcns[e] = dcv * fv;
                    dais[e] = div * (iv * (1.0 - iv));
                    dafs[e] = dfv * (fv * (1.0 - fv));
                    daos[e] = do_v * (ov * (1.0 - ov));
                    dags[e] = dgv * (1.0 - gv * gv);
                }
            }
            // Accumulate weight gradients: gW += zᵀ da (temp-then-add
            // keeps the FP accumulation order of the allocating version).
            for (gw, da) in [(&mut *gwi, &*dai), (gwf, &*daf), (gwo, &*dao), (gwg, &*dag)] {
                cache.z.t_matmul_into(da, gw_tmp);
                gw.add_assign(gw_tmp);
            }
            for (gb, da) in [(&mut *gbi, &*dai), (gbf, &*daf), (gbo, &*dao), (gbg, &*dag)] {
                da.col_sums_into(gb_tmp);
                for (g, s) in gb.iter_mut().zip(gb_tmp.iter()) {
                    *g += s;
                }
            }
            // dz = Σ da Wᵀ via the cached transposes; the recurrent part
            // flows to dh of step t-1.
            dai.matmul_cached_t_into(wi_t, dz);
            for (da, w_t) in [(&*daf, &*wf_t), (dao, wo_t), (dag, wg_t)] {
                da.matmul_cached_t_into(w_t, dz_tmp);
                dz.add_assign(dz_tmp);
            }
            dh_next.resize(batch, *hidden);
            for r in 0..batch {
                dh_next.row_mut(r).copy_from_slice(&dz.row(r)[*in_dim..]);
            }
            std::mem::swap(&mut dh, &mut dh_next);
            std::mem::swap(&mut dc, &mut dc_next);
        }
    }

    /// Clears accumulated gradients (gates and head).
    pub fn zero_grad(&mut self) {
        for g in [&mut self.gwi, &mut self.gwf, &mut self.gwo, &mut self.gwg] {
            g.fill_zero();
        }
        for g in [&mut self.gbi, &mut self.gbf, &mut self.gbo, &mut self.gbg] {
            g.iter_mut().for_each(|v| *v = 0.0);
        }
        self.head.zero_grad();
    }

    /// Stable-ordered (parameter, gradient) pairs for optimizers:
    /// gate weights, gate biases, then the head.
    pub fn param_grad_pairs(&mut self) -> Vec<(&mut [f64], &[f64])> {
        let Lstm {
            wi,
            wf,
            wo,
            wg,
            bi,
            bf,
            bo,
            bg,
            head,
            gwi,
            gwf,
            gwo,
            gwg,
            gbi,
            gbf,
            gbo,
            gbg,
            ws,
            ..
        } = self;
        // Handing out `&mut` weight slices may mutate them.
        ws.gates_t_valid = false;
        let mut pairs: Vec<(&mut [f64], &[f64])> = vec![
            (wi.as_mut_slice(), gwi.as_slice()),
            (wf.as_mut_slice(), gwf.as_slice()),
            (wo.as_mut_slice(), gwo.as_slice()),
            (wg.as_mut_slice(), gwg.as_slice()),
            (&mut bi[..], &gbi[..]),
            (&mut bf[..], &gbf[..]),
            (&mut bo[..], &gbo[..]),
            (&mut bg[..], &gbg[..]),
        ];
        pairs.extend(head.param_grad_pairs());
        pairs
    }

    /// Visits every (parameter, gradient) tensor in the
    /// [`Lstm::param_grad_pairs`] order with a stable index, without
    /// allocating the pair vector. For [`crate::optimizer::Adam::step_fused`].
    pub fn for_each_param_grad(&mut self, f: &mut crate::optimizer::ParamGradVisitor<'_>) {
        let Lstm {
            wi,
            wf,
            wo,
            wg,
            bi,
            bf,
            bo,
            bg,
            head,
            gwi,
            gwf,
            gwo,
            gwg,
            gbi,
            gbf,
            gbo,
            gbg,
            ws,
            ..
        } = self;
        ws.gates_t_valid = false;
        f(0, wi.as_mut_slice(), gwi.as_slice());
        f(1, wf.as_mut_slice(), gwf.as_slice());
        f(2, wo.as_mut_slice(), gwo.as_slice());
        f(3, wg.as_mut_slice(), gwg.as_slice());
        f(4, &mut bi[..], &gbi[..]);
        f(5, &mut bf[..], &gbf[..]);
        f(6, &mut bo[..], &gbo[..]);
        f(7, &mut bg[..], &gbg[..]);
        let [(hw, hgw), (hb, hgb)] = head.param_grad_pairs();
        f(8, hw, hgw);
        f(9, hb, hgb);
    }

    /// Number of tensors [`Lstm::for_each_param_grad`] visits.
    pub fn param_tensor_count(&self) -> usize {
        10
    }
}

impl Layered for Lstm {
    /// Two layers for federation purposes: the recurrent gate block and
    /// the dense head.
    fn layer_count(&self) -> usize {
        2
    }

    fn layer_param_count(&self, i: usize) -> usize {
        match i {
            0 => self.gate_param_count(),
            1 => self.head.param_count(),
            _ => panic!("Lstm has 2 layers, index {i} out of range"),
        }
    }

    fn export_layer(&self, i: usize) -> Vec<f64> {
        match i {
            0 => {
                let mut out = Vec::with_capacity(self.gate_param_count());
                for w in [&self.wi, &self.wf, &self.wo, &self.wg] {
                    out.extend_from_slice(w.as_slice());
                }
                for b in [&self.bi, &self.bf, &self.bo, &self.bg] {
                    out.extend_from_slice(b);
                }
                out
            }
            1 => self.head.export_flat(),
            _ => panic!("Lstm has 2 layers, index {i} out of range"),
        }
    }

    fn export_layer_into(&self, i: usize, out: &mut Vec<f64>) {
        match i {
            0 => {
                out.clear();
                out.reserve(self.gate_param_count());
                for w in [&self.wi, &self.wf, &self.wo, &self.wg] {
                    out.extend_from_slice(w.as_slice());
                }
                for b in [&self.bi, &self.bf, &self.bo, &self.bg] {
                    out.extend_from_slice(b);
                }
            }
            1 => self.head.export_flat_into(out),
            _ => panic!("Lstm has 2 layers, index {i} out of range"),
        }
    }

    fn import_layer(&mut self, i: usize, data: &[f64]) {
        match i {
            0 => {
                assert_eq!(
                    data.len(),
                    self.gate_param_count(),
                    "Lstm::import_layer gate block length mismatch"
                );
                let wlen = self.wi.len();
                let mut off = 0;
                for w in [&mut self.wi, &mut self.wf, &mut self.wo, &mut self.wg] {
                    w.as_mut_slice().copy_from_slice(&data[off..off + wlen]);
                    off += wlen;
                }
                for b in [&mut self.bi, &mut self.bf, &mut self.bo, &mut self.bg] {
                    b.copy_from_slice(&data[off..off + self.hidden]);
                    off += self.hidden;
                }
                self.ws.gates_t_valid = false;
            }
            1 => self.head.import_flat(data),
            _ => panic!("Lstm has 2 layers, index {i} out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(data: &[&[f64]]) -> Vec<Matrix> {
        data.iter()
            .map(|row| Matrix::row_vector(row.to_vec()))
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let mut net = Lstm::new(2, 5, 3, &mut StdRng::seed_from_u64(1));
        let s = seq(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]);
        let y = net.forward(&s);
        assert_eq!((y.rows(), y.cols()), (1, 3));
    }

    #[test]
    fn infer_matches_forward() {
        let mut net = Lstm::new(1, 4, 1, &mut StdRng::seed_from_u64(2));
        let s = seq(&[&[0.5], &[0.25], &[-0.5]]);
        let a = net.forward(&s);
        let b = net.infer(&s);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn infer_windows_bitwise_matches_infer() {
        let net = Lstm::new(3, 24, 1, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        use rand::Rng;
        let window = 16;
        let mut scratch = LstmScratch::default();
        // Reuse one scratch across varying batch sizes to exercise the
        // resize paths.
        for &batch in &[1usize, 7, 64, 3] {
            // Row r: `[w_0 .. w_15, s0, s1]`; step t feeds `[w_t, s0, s1]`.
            let inputs = Matrix::from_fn(batch, window + 2, |_, _| rng.gen_range(-2.0..2.0));
            let s: Vec<Matrix> = (0..window)
                .map(|t| {
                    Matrix::from_fn(batch, 3, |r, c| {
                        inputs.get(r, if c == 0 { t } else { window + c - 1 })
                    })
                })
                .collect();
            let a = net.infer(&s);
            let b = net.infer_windows(&inputs, window, &mut scratch);
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn forward_rejects_empty_sequence() {
        let mut net = Lstm::new(1, 4, 1, &mut StdRng::seed_from_u64(2));
        let _ = net.forward(&[]);
    }

    #[test]
    fn bptt_gradient_matches_numeric() {
        let mut net = Lstm::new(2, 3, 2, &mut StdRng::seed_from_u64(3));
        let s = seq(&[&[0.3, -0.2], &[0.1, 0.4], &[-0.5, 0.2]]);
        let y = net.forward(&s);
        let dout = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        net.zero_grad();
        let _ = net.forward(&s);
        net.backward(&dout);
        let analytic: Vec<f64> = net
            .param_grad_pairs()
            .iter()
            .flat_map(|(_, g)| g.iter().copied())
            .collect();
        // Flat parameter order in param_grad_pairs matches export order
        // gate-block-then-head only if we walk them the same way; rebuild
        // by the same pairs API instead.
        let flat_params: Vec<f64> = {
            let mut n = net.clone();
            n.param_grad_pairs()
                .iter()
                .flat_map(|(p, _)| p.iter().copied())
                .collect()
        };
        let eval = |params: &[f64]| {
            let mut n = net.clone();
            {
                let mut pairs = n.param_grad_pairs();
                let mut off = 0;
                for (p, _) in pairs.iter_mut() {
                    p.copy_from_slice(&params[off..off + p.len()]);
                    off += p.len();
                }
            }
            n.infer(&s).as_slice().iter().sum::<f64>()
        };
        let eps = 1e-6;
        for idx in (0..flat_params.len()).step_by(11) {
            let mut p = flat_params.clone();
            p[idx] += eps;
            let fp = eval(&p);
            p[idx] -= 2.0 * eps;
            let fm = eval(&p);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn learns_to_echo_last_input() {
        // Trivial memorization task: output the final input value.
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Lstm::new(1, 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        use rand::Rng;
        let mut last_loss = f64::MAX;
        for _ in 0..300 {
            let vals: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let s: Vec<Matrix> = vals.iter().map(|&v| Matrix::row_vector(vec![v])).collect();
            let target = Matrix::row_vector(vec![vals[3]]);
            net.zero_grad();
            let y = net.forward(&s);
            let (loss, grad) = mse(&y, &target);
            net.backward(&grad);
            let mut pairs = net.param_grad_pairs();
            opt.step(&mut pairs);
            last_loss = loss;
        }
        assert!(
            last_loss < 0.05,
            "LSTM failed to learn echo task, loss {last_loss}"
        );
    }

    #[test]
    fn layered_export_import_round_trip() {
        let a = Lstm::new(2, 4, 1, &mut StdRng::seed_from_u64(10));
        let mut b = Lstm::new(2, 4, 1, &mut StdRng::seed_from_u64(11));
        let s = seq(&[&[0.5, -0.5], &[1.0, 0.0]]);
        assert!(a.infer(&s).max_abs_diff(&b.infer(&s)) > 0.0);
        b.import_all(&a.export_all());
        assert!(a.infer(&s).max_abs_diff(&b.infer(&s)) < 1e-12);
    }

    #[test]
    fn layer_param_counts_are_consistent() {
        let net = Lstm::new(3, 5, 2, &mut StdRng::seed_from_u64(1));
        assert_eq!(net.layer_count(), 2);
        assert_eq!(
            net.layer_param_count(0) + net.layer_param_count(1),
            net.param_count()
        );
        assert_eq!(net.export_layer(0).len(), net.layer_param_count(0));
        assert_eq!(net.export_layer(1).len(), net.layer_param_count(1));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let net = Lstm::new(1, 3, 1, &mut StdRng::seed_from_u64(1));
        let gates = net.export_layer(0);
        let wlen = 4 * (1 + 3) * 3;
        // Layout: 4 weight blocks then bi, bf, bo, bg.
        let bf = &gates[wlen + 3..wlen + 6];
        assert!(bf.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn batch_forward_matches_per_sample() {
        let net = Lstm::new(1, 4, 2, &mut StdRng::seed_from_u64(21));
        let y1 = net.infer(&seq(&[&[0.1], &[0.9]]));
        let y2 = net.infer(&seq(&[&[-0.4], &[0.2]]));
        let batch = vec![
            Matrix::from_vec(2, 1, vec![0.1, -0.4]),
            Matrix::from_vec(2, 1, vec![0.9, 0.2]),
        ];
        let yb = net.infer(&batch);
        for c in 0..2 {
            assert!((yb.get(0, c) - y1.get(0, c)).abs() < 1e-12);
            assert!((yb.get(1, c) - y2.get(0, c)).abs() < 1e-12);
        }
    }
}
