//! The common forecaster interface shared by LR, SVR, BP and LSTM.

use pfdrl_data::SupervisedSet;
use pfdrl_nn::{F32LstmScratch, Layered, LstmScratch, Matrix};
use serde::{Deserialize, Serialize};

/// Numeric precision of the forecast *inference* path.
///
/// Training, snapshots and federation payloads are always f64 — this
/// knob only selects what arithmetic `predict`/`predict_into` run.
/// `F32Fast` is strictly opt-in: it changes result bits, so (like
/// hierarchical aggregation) it is part of the run identity and carries
/// its own canary trajectory; the default stays bit-identical to every
/// recorded f64 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision scalar inference — the bitwise-pinned default.
    #[default]
    F64,
    /// Reduced-precision inference through an f32 weight mirror and the
    /// vectorized polynomial transcendentals in `pfdrl_nn::fastmath`.
    /// Deterministic (same bits every run), just different bits than
    /// `F64`.
    F32Fast,
}

/// Reusable buffers for [`Forecaster::predict_into`]. One workspace can
/// serve forecasters of any backend and shape: each backend resizes the
/// buffers it needs in place, so repeated prediction through the same
/// workspace allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct PredictWorkspace {
    /// Ping-pong activation buffers (MLP backends) / the RFF projection
    /// matrix (SVR).
    pub(crate) a: Matrix,
    pub(crate) b: Matrix,
    /// LSTM gate/state scratch (the sequence unroll itself is consumed
    /// straight from the flat window rows by `Lstm::infer_windows`).
    pub(crate) lstm: LstmScratch,
    /// f32 twin of `lstm` for the `Precision::F32Fast` mirror path.
    pub(crate) lstm_f32: F32LstmScratch,
}

/// Training hyperparameters shared by the iterative forecasters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate (paper: 0.001 for the DRL; forecasters default
    /// higher since they train with Adam on normalized targets).
    pub lr: f64,
    /// Maximum epochs per `fit` call.
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Relative-improvement convergence tolerance ("until convergence"
    /// in Algorithm 1).
    pub tol: f64,
    /// Consecutive below-tolerance epochs before stopping.
    pub patience: usize,
    /// Seed for shuffling and initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.01,
            max_epochs: 30,
            batch: 64,
            tol: 1e-4,
            patience: 3,
            seed: 0,
        }
    }
}

impl TrainConfig {
    pub fn with_seed(seed: u64) -> Self {
        TrainConfig {
            seed,
            ..Default::default()
        }
    }

    /// Budget-limited variant for quick federated rounds.
    pub fn quick(seed: u64) -> Self {
        TrainConfig {
            max_epochs: 8,
            ..TrainConfig::with_seed(seed)
        }
    }
}

/// Summary of one `fit` call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Final epoch's mean training loss.
    pub final_loss: f64,
    /// Whether the convergence criterion (rather than the epoch budget)
    /// stopped training.
    pub converged: bool,
}

/// A per-device load forecaster.
///
/// All forecasters also implement [`Layered`] so the decentralized
/// federation can broadcast and average their parameters (Algorithm 1).
pub trait Forecaster: Layered + Send + Sync {
    /// Trains on a supervised set until convergence or budget exhaustion.
    fn fit(&mut self, set: &SupervisedSet) -> FitReport;

    /// Trains with an explicit epoch budget, overriding the configured
    /// maximum — the knob federated rounds use so that the total epoch
    /// budget stays constant across broadcast frequencies.
    fn fit_budget(&mut self, set: &SupervisedSet, max_epochs: usize) -> FitReport;

    /// Predicts normalized consumption for a batch of feature vectors.
    fn predict(&self, inputs: &[Vec<f64>]) -> Vec<f64>;

    /// Predicts a single sample.
    fn predict_one(&self, input: &[f64]) -> f64 {
        self.predict(std::slice::from_ref(&input.to_vec()))[0]
    }

    /// Batched prediction over the rows of a flat `n x feature_dim`
    /// matrix, written into a caller-owned buffer (`out` is cleared and
    /// refilled). Bit-identical to [`Forecaster::predict`] on the same
    /// rows; backends override this with allocation-free paths through
    /// `ws`, and the default falls back to the allocating oracle.
    fn predict_into(&self, inputs: &Matrix, ws: &mut PredictWorkspace, out: &mut Vec<f64>) {
        let _ = ws;
        let rows: Vec<Vec<f64>> = (0..inputs.rows()).map(|r| inputs.row(r).to_vec()).collect();
        let preds = self.predict(&rows);
        out.clear();
        out.extend_from_slice(&preds);
    }

    /// Selects the inference precision. The default implementation
    /// ignores the request (most backends have no reduced-precision
    /// path and stay f64); backends that honour it (LSTM) rebuild
    /// their reduced-precision mirror immediately, so the change takes
    /// effect on the next predict call.
    fn set_precision(&mut self, precision: Precision) {
        let _ = precision;
    }

    /// The precision the *next* predict call will run at. `F64` unless
    /// the backend honours [`Forecaster::set_precision`].
    fn precision(&self) -> Precision {
        Precision::F64
    }

    /// Human-readable method name ("LR", "SVM", "BP", "LSTM").
    fn method_name(&self) -> &'static str;
}

/// Deterministic index shuffle (Fisher–Yates) used by every fit loop.
pub(crate) fn shuffled_indices(n: usize, rng: &mut impl rand::Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Epoch-loop early-stopping state machine shared by all fit loops.
#[derive(Debug)]
pub(crate) struct Convergence {
    tol: f64,
    patience: usize,
    strikes: usize,
    prev_loss: Option<f64>,
}

impl Convergence {
    pub fn new(tol: f64, patience: usize) -> Self {
        Convergence {
            tol,
            patience,
            strikes: 0,
            prev_loss: None,
        }
    }

    /// Feeds one epoch's loss; returns `true` when training should stop.
    ///
    /// A non-finite loss stops immediately: the epoch's gradients are
    /// garbage and every further epoch would train on garbage. Since
    /// all four fit loops (LR/BP/SVR/LSTM) route their epoch losses
    /// through here, this single guard covers forecaster fit.
    pub fn update(&mut self, loss: f64) -> bool {
        if !loss.is_finite() {
            return true;
        }
        let stop = match self.prev_loss {
            Some(prev) => {
                let denom = prev.abs().max(1e-12);
                let improvement = (prev - loss) / denom;
                if improvement < self.tol {
                    self.strikes += 1;
                } else {
                    self.strikes = 0;
                }
                self.strikes >= self.patience
            }
            None => false,
        };
        self.prev_loss = Some(loss);
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = shuffled_indices(100, &mut rng);
        idx.sort_unstable();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_changes_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = shuffled_indices(100, &mut rng);
        assert_ne!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn convergence_stops_after_patience_flat_epochs() {
        let mut c = Convergence::new(1e-3, 2);
        assert!(!c.update(1.0));
        assert!(!c.update(0.5)); // big improvement, reset
        assert!(!c.update(0.4999)); // strike 1
        assert!(c.update(0.4999)); // strike 2 -> stop
    }

    #[test]
    fn convergence_resets_on_improvement() {
        let mut c = Convergence::new(1e-3, 2);
        assert!(!c.update(1.0));
        assert!(!c.update(0.9999)); // strike 1
        assert!(!c.update(0.5)); // improvement resets
        assert!(!c.update(0.4999)); // strike 1 again
        assert!(c.update(0.4999)); // strike 2
    }

    #[test]
    fn worsening_loss_counts_as_strike() {
        let mut c = Convergence::new(1e-3, 1);
        assert!(!c.update(1.0));
        assert!(c.update(2.0));
    }

    #[test]
    fn non_finite_loss_stops_immediately() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = Convergence::new(1e-3, 5);
            assert!(!c.update(1.0));
            assert!(c.update(bad), "{bad} must stop the fit loop");
        }
    }
}
