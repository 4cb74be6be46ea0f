//! Phase 1 of every pipeline: training the per-device load forecasters
//! under each method's architecture (Table 2, "Load Forecasting" column).
//!
//! * **Local** — every home trains alone on its own data.
//! * **Cloud** — raw data is pooled on a central server, one global model
//!   per device type is trained there and pushed to every home.
//! * **FL / FRL** — FedAvg rounds through a central parameter server.
//! * **PFDRL** — the same FedAvg math, but decentralized: snapshots are
//!   broadcast between residences over the LAN bus (Algorithm 1).

use crate::config::SimConfig;
use crate::method::EmsMethod;
use pfdrl_data::dataset::build_windows_transformed;
use pfdrl_data::{SupervisedSet, TraceGenerator};
use pfdrl_fl::{BroadcastBus, CloudRound, DflRound, LatencyModel, RoundParams};
use pfdrl_forecast::{Forecaster, TrainConfig};
use rayon::prelude::*;
use std::time::Instant;

/// Result of the forecaster-training phase.
pub struct ForecastPhase {
    /// Trained forecasters, `[home][device]`.
    pub models: Vec<Vec<Box<dyn Forecaster>>>,
    /// Wall-clock compute time, seconds.
    pub train_wall_s: f64,
    /// Simulated communication time, seconds.
    pub comm_s: f64,
    /// Bytes moved over the (simulated) network (wire size, i.e. after
    /// any payload compression).
    pub comm_bytes: u64,
    /// Bytes the same traffic would occupy uncompressed. Equal to
    /// `comm_bytes` under the default `Raw` codec.
    pub comm_logical_bytes: u64,
}

impl ForecastPhase {
    /// Captures the trained weights and phase costs for a snapshot.
    pub fn export_state(&self) -> pfdrl_store::ForecastState {
        pfdrl_store::ForecastState {
            train_wall_s: self.train_wall_s,
            comm_s: self.comm_s,
            comm_bytes: self.comm_bytes,
            comm_logical_bytes: self.comm_logical_bytes,
            weights: self
                .models
                .iter()
                .map(|home| home.iter().map(|m| m.export_all()).collect())
                .collect(),
        }
    }

    /// Rebuilds the phase from snapshotted weights: fresh models are
    /// constructed with the run's deterministic seeds, every layer
    /// shape is validated against the snapshot, then the trained
    /// weights are imported. Restoring (instead of retraining) keeps
    /// the resumed run bit-identical to the uninterrupted one.
    pub fn from_state(
        cfg: &SimConfig,
        state: &pfdrl_store::ForecastState,
    ) -> Result<Self, pfdrl_store::StoreError> {
        use pfdrl_store::StoreError;

        let mut models = fresh_models(cfg);
        if state.weights.len() != models.len()
            || state
                .weights
                .iter()
                .zip(&models)
                .any(|(sw, mw)| sw.len() != mw.len())
        {
            return Err(StoreError::State(format!(
                "snapshot has forecasters for {} homes, config wants {}",
                state.weights.len(),
                models.len()
            )));
        }
        for (home, (home_weights, home_models)) in
            state.weights.iter().zip(models.iter_mut()).enumerate()
        {
            for (device, (weights, model)) in
                home_weights.iter().zip(home_models.iter_mut()).enumerate()
            {
                let ok = weights.len() == model.layer_count()
                    && weights
                        .iter()
                        .enumerate()
                        .all(|(i, l)| l.len() == model.layer_param_count(i));
                if !ok {
                    return Err(StoreError::State(format!(
                        "forecaster [{home}][{device}] weight shapes do not match the \
                         configured {:?} architecture",
                        cfg.forecast_method
                    )));
                }
                model.import_all(weights);
            }
        }
        Ok(ForecastPhase {
            models,
            train_wall_s: state.train_wall_s,
            comm_s: state.comm_s,
            comm_bytes: state.comm_bytes,
            comm_logical_bytes: state.comm_logical_bytes,
        })
    }
}

/// Builds the supervised training set for one home-device pair over the
/// configured training span.
pub fn training_set(
    cfg: &SimConfig,
    gen: &TraceGenerator,
    home: u64,
    device: usize,
) -> SupervisedSet {
    let start = cfg.eval_start_day - cfg.train_days;
    let watts = gen.multi_day_watts(home, device, start..cfg.eval_start_day);
    let scale = gen.household(home).devices[device].on_watts;
    // The span starts at a day boundary: its first minute is minute 0
    // of the day.
    build_windows_transformed(&watts, scale, cfg.window, cfg.horizon, 0, cfg.transform)
        .strided(cfg.stride)
}

fn fresh_models(cfg: &SimConfig) -> Vec<Vec<Box<dyn Forecaster>>> {
    (0..cfg.n_residences)
        .map(|home| {
            (0..cfg.devices_per_home())
                .map(|device| {
                    let seed = cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((home as u64) << 17)
                        .wrapping_add(device as u64);
                    let train = TrainConfig {
                        seed,
                        ..cfg.train.clone()
                    };
                    cfg.forecast_method.build(cfg.feature_dim(), train)
                })
                .collect()
        })
        .collect()
}

/// Number of federation rounds implied by the broadcast period β over the
/// training span, and the per-round epoch budget: one round per β of
/// training hours, capped at `2 × max_epochs` rounds, and
/// `max_epochs / rounds` epochs per round, floored and at least 1. The
/// total budget `rounds × epochs_per_round` therefore varies with β: it
/// is `max_epochs` only where `rounds` divides it, less where the floor
/// drops a remainder, and up to twice `max_epochs` once rounds exceed
/// `max_epochs` and every round still trains one epoch. Very small β
/// means averaging after every epoch (cold-start optimizers,
/// half-trained models), large β means few aggregations.
pub fn rounds_for_beta(cfg: &SimConfig) -> (usize, usize) {
    let train_hours = cfg.train_days as f64 * 24.0;
    let raw_rounds = (train_hours / cfg.beta_hours).floor().max(1.0) as usize;
    let rounds = raw_rounds.clamp(1, cfg.train.max_epochs.max(1) * 2);
    let epochs_per_round = (cfg.train.max_epochs / rounds).max(1);
    (rounds, epochs_per_round)
}

/// Trains the forecasters for `method`. See the module docs for the
/// per-method architecture.
pub fn train_forecasters(cfg: &SimConfig, method: EmsMethod) -> ForecastPhase {
    cfg.validate();
    let gen = TraceGenerator::new(cfg.generator());
    // Build all training sets up front (shared across architectures).
    let started = Instant::now();
    let sets: Vec<Vec<SupervisedSet>> = (0..cfg.n_residences as u64)
        .into_par_iter()
        .map(|home| {
            (0..cfg.devices_per_home())
                .map(|device| training_set(cfg, &gen, home, device))
                .collect()
        })
        .collect();
    let mut models = fresh_models(cfg);

    let (comm_s, comm_bytes, comm_logical_bytes) = match method {
        EmsMethod::Local => {
            // Solo training: each home must converge on its own; give it
            // the full epoch budget in one uninterrupted fit.
            models
                .par_iter_mut()
                .zip(sets.par_iter())
                .for_each(|(home_models, home_sets)| {
                    for (m, s) in home_models.iter_mut().zip(home_sets.iter()) {
                        m.fit(s);
                    }
                });
            (0.0, 0, 0)
        }
        EmsMethod::Cloud => train_cloud(cfg, &sets, &mut models),
        EmsMethod::Fl | EmsMethod::Frl => train_fedavg_cloud(cfg, &sets, &mut models),
        EmsMethod::Pfdrl => train_dfl_lan(cfg, &sets, &mut models),
    };

    let train_wall_s = started.elapsed().as_secs_f64();
    ForecastPhase {
        models,
        train_wall_s,
        comm_s,
        comm_bytes,
        comm_logical_bytes,
    }
}

/// Cloud baseline: raw data pooled per device type, one global model
/// trained centrally, pushed to every home.
fn train_cloud(
    cfg: &SimConfig,
    sets: &[Vec<SupervisedSet>],
    models: &mut [Vec<Box<dyn Forecaster>>],
) -> (f64, u64, u64) {
    let latency = LatencyModel::cloud();
    // Raw-data upload: every sample (features + target) leaves the home.
    let mut upload_bytes: u64 = 0;
    for home_sets in sets {
        for s in home_sets {
            upload_bytes += (s.len() * (s.feature_dim() + 1) * 8) as u64;
        }
    }
    let uploads = (sets.len() * cfg.devices_per_home()) as u64;

    // One pooled model per device slot, trained on the concatenation.
    let pooled: Vec<SupervisedSet> = (0..cfg.devices_per_home())
        .map(|device| {
            let template = &sets[0][device];
            let mut inputs = Vec::new();
            let mut targets = Vec::new();
            for home_sets in sets {
                inputs.extend_from_slice(&home_sets[device].inputs);
                targets.extend_from_slice(&home_sets[device].targets);
            }
            SupervisedSet {
                inputs,
                targets,
                window: template.window,
                horizon: template.horizon,
                scale: template.scale,
                transform: template.transform,
            }
        })
        .collect();

    let global: Vec<Vec<Vec<f64>>> = pooled
        .par_iter()
        .enumerate()
        .map(|(device, set)| {
            let train = TrainConfig {
                seed: cfg.seed.wrapping_add(device as u64),
                ..cfg.train.clone()
            };
            let mut model = cfg.forecast_method.build(cfg.feature_dim(), train);
            model.fit(set);
            model.export_all()
        })
        .collect();

    // Every home downloads every device's global model.
    let mut download_bytes: u64 = 0;
    for home_models in models.iter_mut() {
        for (device, m) in home_models.iter_mut().enumerate() {
            m.import_all(&global[device]);
            download_bytes += global[device]
                .iter()
                .map(|l| 8 * l.len() as u64 + 16)
                .sum::<u64>()
                + 32;
        }
    }
    let downloads = (models.len() * cfg.devices_per_home()) as u64;
    let secs = latency.seconds(uploads + downloads, upload_bytes + download_bytes);
    // Raw-data pooling moves samples, not model payloads — the codec
    // never applies, so wire and logical bytes coincide.
    let total = upload_bytes + download_bytes;
    (secs, total, total)
}

/// The β rounds of a federated forecast phase: every home refits its
/// models on its own data for the round's epoch budget, then
/// `federate` runs one round over each device's column, in device
/// order.
fn federated_rounds(
    cfg: &SimConfig,
    sets: &[Vec<SupervisedSet>],
    models: &mut [Vec<Box<dyn Forecaster>>],
    mut federate: impl FnMut(&mut [&mut (dyn Forecaster + 'static)], &RoundParams<'_>),
) {
    let (rounds, epochs_per_round) = rounds_for_beta(cfg);
    for round in 0..rounds {
        models
            .par_iter_mut()
            .zip(sets.par_iter())
            .for_each(|(home_models, home_sets)| {
                for (m, s) in home_models.iter_mut().zip(home_sets.iter()) {
                    let _ = m.fit_budget(s, epochs_per_round);
                }
            });
        for device in 0..cfg.devices_per_home() {
            let mut col: Vec<_> = models
                .iter_mut()
                .map(|home_models| home_models[device].as_mut())
                .collect();
            let p = RoundParams {
                round: round as u64,
                model_id: device as u64,
                alpha: None,
                participants: None,
            };
            federate(&mut col, &p);
        }
    }
}

/// FL baseline: FedAvg rounds through a central parameter server. Each
/// device has its own server engine, and the phase's seconds are their
/// sum in device order.
fn train_fedavg_cloud(
    cfg: &SimConfig,
    sets: &[Vec<SupervisedSet>],
    models: &mut [Vec<Box<dyn Forecaster>>],
) -> (f64, u64, u64) {
    let mut clouds: Vec<CloudRound> = (0..cfg.devices_per_home())
        .map(|_| CloudRound::new(LatencyModel::cloud(), &cfg.fault, cfg.compression))
        .collect();
    federated_rounds(cfg, sets, models, |col, p| {
        let _ = clouds[p.model_id as usize].run(col, p);
    });
    let secs: f64 = clouds.iter().map(|c| c.simulated_seconds()).sum();
    let bytes: u64 = clouds
        .iter()
        .map(|c| c.stats().upload_bytes + c.stats().download_bytes)
        .sum();
    let logical: u64 = clouds
        .iter()
        .map(|c| c.stats().logical_upload_bytes + c.stats().download_bytes)
        .sum();
    (secs, bytes, logical)
}

/// PFDRL's DFL: the same FedAvg math, but over the LAN broadcast bus —
/// no cloud party ever holds the model (Algorithm 1).
fn train_dfl_lan(
    cfg: &SimConfig,
    sets: &[Vec<SupervisedSet>],
    models: &mut [Vec<Box<dyn Forecaster>>],
) -> (f64, u64, u64) {
    // Hierarchical mode carries its own per-shard buses, shared by
    // every device column; the flat bus set stays empty so traffic is
    // not double-counted.
    let mut hier = crate::ems::EmsState::build_hier(cfg);
    let mut buses: Vec<BroadcastBus> = if hier.is_some() {
        Vec::new()
    } else {
        (0..cfg.devices_per_home())
            .map(|_| {
                BroadcastBus::with_codec(
                    cfg.n_residences,
                    LatencyModel::lan(),
                    &cfg.fault,
                    cfg.compression,
                )
            })
            .collect()
    };
    let mut engine = DflRound::new();
    // One engine round per device: exports in home order, delivered in
    // one call on the device's bus (so each bus sees the exact event
    // sequence of the sequential reference), then per-home merges — or,
    // under Hierarchical, the shard buses and the O(N) shared sum for
    // every home whose round was fault-free. Corrupted updates are
    // rejected inside the validated merge.
    federated_rounds(cfg, sets, models, |col, p| match hier.as_mut() {
        Some(h) => {
            let _ = h.run(col, p);
        }
        None => engine.run(col, &mut buses[p.model_id as usize], p),
    });
    match &hier {
        Some(h) => {
            let s = h.total_stats();
            (h.simulated_seconds(), s.bytes, s.logical_bytes)
        }
        None => (
            buses.iter().map(|b| b.simulated_seconds()).sum(),
            buses.iter().map(|b| b.stats().bytes).sum(),
            buses.iter().map(|b| b.stats().logical_bytes).sum(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_forecast::metrics::paper_accuracy;

    fn tiny() -> SimConfig {
        SimConfig::tiny(11)
    }

    #[test]
    fn rounds_for_beta_tracks_frequency() {
        let mut cfg = tiny(); // 2 train days = 48 h, max_epochs 4
        cfg.beta_hours = 12.0;
        let (r12, _) = rounds_for_beta(&cfg);
        cfg.beta_hours = 24.0;
        let (r24, _) = rounds_for_beta(&cfg);
        cfg.beta_hours = 0.5;
        let (r05, e05) = rounds_for_beta(&cfg);
        assert!(r12 > r24);
        assert!(r05 >= r12);
        assert_eq!(e05, 1, "tiny beta must leave only single-epoch rounds");
    }

    #[test]
    fn local_training_produces_distinct_models() {
        let phase = train_forecasters(&tiny(), EmsMethod::Local);
        assert_eq!(phase.comm_bytes, 0);
        assert_eq!(phase.comm_s, 0.0);
        let a = phase.models[0][0].export_all();
        let b = phase.models[1][0].export_all();
        assert_ne!(a, b, "local models must stay personal");
    }

    #[test]
    fn cloud_training_produces_identical_models() {
        let phase = train_forecasters(&tiny(), EmsMethod::Cloud);
        assert!(phase.comm_bytes > 0);
        let a = phase.models[0][0].export_all();
        let b = phase.models[2][0].export_all();
        assert_eq!(a, b, "cloud pushes one global model to every home");
    }

    #[test]
    fn fedavg_ends_in_consensus() {
        let phase = train_forecasters(&tiny(), EmsMethod::Fl);
        let a = phase.models[0][1].export_all();
        let b = phase.models[1][1].export_all();
        assert_eq!(
            a, b,
            "a FedAvg round ends with everyone on the global model"
        );
    }

    #[test]
    fn dfl_ends_in_consensus_without_cloud() {
        let phase = train_forecasters(&tiny(), EmsMethod::Pfdrl);
        let a = phase.models[0][0].export_all();
        let b = phase.models[2][0].export_all();
        // merge_updates averages own + received, so after a synchronous
        // round every home holds the same average.
        for (la, lb) in a.iter().zip(b.iter()) {
            for (x, y) in la.iter().zip(lb.iter()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        assert!(phase.comm_bytes > 0);
    }

    #[test]
    fn raw_data_upload_dwarfs_model_upload() {
        let cloud = train_forecasters(&tiny(), EmsMethod::Cloud);
        let fl = train_forecasters(&tiny(), EmsMethod::Fl);
        assert!(
            cloud.comm_bytes > fl.comm_bytes / 4,
            "cloud {} vs fl {}",
            cloud.comm_bytes,
            fl.comm_bytes
        );
    }

    #[test]
    fn trained_models_beat_untrained_on_accuracy() {
        let cfg = tiny();
        let gen = TraceGenerator::new(cfg.generator());
        let phase = train_forecasters(&cfg, EmsMethod::Pfdrl);
        let set = training_set(&cfg, &gen, 0, 0);
        let trained_preds: Vec<f64> = phase.models[0][0]
            .predict(&set.inputs)
            .iter()
            .map(|p| set.to_watts(*p))
            .collect();
        let real: Vec<f64> = set.targets.iter().map(|t| set.to_watts(*t)).collect();
        let fresh = cfg
            .forecast_method
            .build(cfg.feature_dim(), cfg.train.clone());
        let fresh_preds: Vec<f64> = fresh
            .predict(&set.inputs)
            .iter()
            .map(|p| set.to_watts(*p))
            .collect();
        let trained_acc = paper_accuracy(&trained_preds, &real, 1.0).unwrap();
        let fresh_acc = paper_accuracy(&fresh_preds, &real, 1.0).unwrap();
        assert!(
            trained_acc > fresh_acc,
            "training did not help: {trained_acc} vs untrained {fresh_acc}"
        );
    }
}
