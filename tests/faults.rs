//! Robustness integration tests: deterministic chaos runs and
//! fuzz-style no-panic guarantees for the federation substrate under
//! malformed traffic.

use pfdrl::core::{runner::run_method, EmsMethod, EmsState, SimConfig};
use pfdrl::fl::{
    aggregate, BroadcastBus, CloudRound, Delivery, FaultConfig, LatencyModel, LayerSplit,
    LayerUpdate, ModelUpdate, PayloadCodec, RoundParams,
};
use pfdrl::nn::Layered;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The acceptance scenario: 30% message loss, enough dropout that some
/// residences sit out whole windows. Two runs from the same fault seed
/// must be bit-identical.
#[test]
fn chaos_runs_are_bit_identical_per_seed() {
    let mut cfg = SimConfig::tiny(17);
    cfg.fault = FaultConfig {
        seed: 0xC0FFEE,
        loss_rate: 0.3,
        dropout_rate: 0.4,
        straggler_rate: 0.1,
        corrupt_rate: 0.1,
    };
    let run_once = || {
        let run = run_method(&cfg, EmsMethod::Pfdrl);
        // Wall-clock fields are the only nondeterministic outputs; mask
        // them so the comparison covers every simulated quantity.
        let mut ems = run.ems.clone();
        ems.train_wall_s = 0.0;
        serde_json::to_string(&ems).expect("serializable phase")
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "same fault seed must replay bit-identically");
}

/// A different fault seed must actually change the outcome (otherwise
/// the chaos plan is not wired through).
#[test]
fn chaos_outcome_depends_on_fault_seed() {
    let base = SimConfig::tiny(17);
    let savings = |fault_seed: u64| {
        let mut cfg = base.clone();
        cfg.fault = FaultConfig {
            seed: fault_seed,
            loss_rate: 0.5,
            dropout_rate: 0.5,
            ..FaultConfig::default()
        };
        let run = run_method(&cfg, EmsMethod::Pfdrl);
        serde_json::to_string(&run.ems.daily_saved_fraction).unwrap()
    };
    // Not guaranteed for every pair of seeds in principle, but with 50%
    // loss and churn the delivery patterns diverge immediately.
    assert_ne!(savings(1), savings(2));
}

/// A tiny Layered model for direct merge fuzzing.
#[derive(Clone)]
struct Toy {
    layers: Vec<Vec<f64>>,
}

impl Toy {
    fn new() -> Self {
        Toy {
            layers: vec![vec![0.5; 6], vec![0.5; 4], vec![0.5; 2]],
        }
    }
}

impl Layered for Toy {
    fn layer_count(&self) -> usize {
        self.layers.len()
    }
    fn layer_param_count(&self, i: usize) -> usize {
        self.layers[i].len()
    }
    fn export_layer(&self, i: usize) -> Vec<f64> {
        self.layers[i].clone()
    }
    fn import_layer(&mut self, i: usize, data: &[f64]) {
        self.layers[i] = data.to_vec();
    }
}

/// Generates an adversarial update: random layer indices (possibly out
/// of range), random sizes (possibly wrong), NaN/infinity injection.
fn hostile_update(rng: &mut StdRng, n_senders: usize) -> ModelUpdate {
    let n_layers = rng.gen_range(0..5usize);
    let layers = (0..n_layers)
        .map(|_| {
            let index = rng.gen_range(0..20usize);
            let len = rng.gen_range(0..10usize);
            let params = (0..len)
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => rng.gen_range(-10.0..10.0),
                })
                .collect();
            LayerUpdate { index, params }
        })
        .collect();
    ModelUpdate {
        sender: rng.gen_range(0..n_senders),
        round: rng.gen_range(0..100u64),
        model_id: rng.gen_range(0..4u64),
        layers,
    }
}

/// No panic is reachable from the merge path on corrupted, truncated or
/// mis-sized updates: every malformed layer surfaces as a typed
/// rejection and the local model stays finite.
#[test]
fn merges_never_panic_on_hostile_updates() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..500 {
        let updates: Vec<ModelUpdate> = (0..rng.gen_range(0..6usize))
            .map(|_| hostile_update(&mut rng, 4))
            .collect();
        let refs: Vec<&ModelUpdate> = updates.iter().collect();

        let mut model = Toy::new();
        let report = aggregate::merge_updates(&mut model, &refs);
        assert!(report.accepted_updates <= refs.len());
        for layer in &model.layers {
            assert!(
                layer.iter().all(|p| p.is_finite()),
                "merge let non-finite params in"
            );
        }

        let mut split_model = Toy::new();
        let split = LayerSplit::for_model(2, &split_model);
        let _ = split.merge_base(&mut split_model, &refs);
        for (i, layer) in split_model.layers.iter().enumerate() {
            assert!(layer.iter().all(|p| p.is_finite()));
            if i >= 2 {
                assert_eq!(layer, &vec![0.5; layer.len()], "personal layer moved");
            }
        }
    }
}

/// The bus and the cloud accept arbitrary hostile traffic without
/// panicking, and the validating aggregation downstream stays clean.
#[test]
fn transports_never_panic_on_hostile_traffic() {
    let mut rng = StdRng::seed_from_u64(7);
    let chaos = FaultConfig::chaos(3, 0.5);
    let mut bus = BroadcastBus::with_faults(4, LatencyModel::lan(), &chaos);
    for _ in 0..300 {
        bus.broadcast(hostile_update(&mut rng, 4));
    }
    for id in 0..4 {
        let updates = bus.drain(id);
        let refs: Vec<&ModelUpdate> = updates.iter().map(|u| u.as_ref()).collect();
        let mut model = Toy::new();
        let _ = aggregate::merge_updates(&mut model, &refs);
        for layer in &model.layers {
            assert!(layer.iter().all(|p| p.is_finite()));
        }
    }
    // Counters observed something (50% chaos over 300 hostile sends).
    let s = bus.stats();
    assert!(s.dropped_total() + s.corrupted + s.delayed > 0);

    // The cloud server takes uploads from a column of models whose
    // parameters are laced with NaN and infinity, in transit under the
    // same chaos. Whatever the round does, a home never imports a
    // non-finite mean.
    let mut cloud = CloudRound::new(LatencyModel::cloud(), &chaos, PayloadCodec::Raw);
    let mut merged_rounds = 0;
    for round in 0..100 {
        let mut models: Vec<Toy> = (0..4)
            .map(|_| {
                let mut m = Toy::new();
                for p in m.layers.iter_mut().flatten() {
                    *p = match rng.gen_range(0..40u32) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => rng.gen_range(-10.0..10.0),
                    };
                }
                m
            })
            .collect();
        let bits =
            |m: &Toy| -> Vec<u64> { m.layers.iter().flatten().map(|p| p.to_bits()).collect() };
        let before: Vec<Vec<u64>> = models.iter().map(bits).collect();
        let mut col: Vec<&mut Toy> = models.iter_mut().collect();
        let merged = cloud.run(
            &mut col,
            &RoundParams {
                round,
                model_id: 0,
                alpha: None,
                participants: None,
            },
        );
        // A home either kept its model or imported a finite mean.
        for (m, before) in models.iter().zip(&before) {
            let finite = m.layers.iter().flatten().all(|p| p.is_finite());
            assert!(
                finite || bits(m) == *before,
                "round {round}: non-finite import"
            );
        }
        merged_rounds += usize::from(merged > 0);
    }
    let s = cloud.stats();
    assert!(merged_rounds > 0 && s.rejected > 0 && s.corrupted > 0 && s.empty_rounds > 0);
}

/// FL and FRL federate through the cloud server, whose validator once
/// took the first in-order finite upload as the reference shape: a
/// truncated upload arriving first made every correct one "mismatched"
/// and then panicked in the import. Under chaos and under heavy
/// corruption both methods must finish and replay bit for bit.
#[test]
fn cloud_methods_finish_under_corruption_and_replay_per_seed() {
    let faults = [
        FaultConfig::chaos(11, 0.3),
        FaultConfig {
            corrupt_rate: 0.5,
            ..FaultConfig::default()
        },
    ];
    for fault in faults {
        for method in [EmsMethod::Fl, EmsMethod::Frl] {
            let mut cfg = SimConfig::tiny(3);
            cfg.fault = fault;
            let run_once = || serde_json::to_string(&run_method(&cfg, method).result()).unwrap();
            assert_eq!(
                run_once(),
                run_once(),
                "{method:?} under {fault:?} must replay bit-identically"
            );
        }
    }
}

/// A failed FRL round keeps every local agent. The server once served
/// its last global model instead — the previous device's mean — so a
/// device whose uploads were all lost had another device's Q-network
/// loaded into its agents.
#[test]
fn frl_round_with_every_upload_lost_keeps_the_device_agents() {
    let mut cfg = SimConfig::tiny(3);
    cfg.fault = FaultConfig {
        seed: 5,
        loss_rate: 0.5,
        ..FaultConfig::default()
    };
    let plan = cfg.fault.plan();
    let (n, d) = (cfg.n_residences, cfg.devices_per_home());
    let mut state = EmsState::fresh(&cfg);
    let bits = |state: &EmsState, device: usize| -> Vec<Vec<u64>> {
        state
            .agents
            .iter()
            .map(|home| {
                let all = pfdrl::nn::Layered::export_all(&home[device]);
                all.into_iter().flatten().map(f64::to_bits).collect()
            })
            .collect()
    };
    let mut checked = 0;
    for _ in 0..30 {
        // `federate_now` advances the round clock, then federates.
        let round = state.fed_round + 1;
        let before: Vec<_> = (0..d).map(|device| bits(&state, device)).collect();
        state.federate_now(&cfg, EmsMethod::Frl);
        for (device, before) in before.iter().enumerate() {
            let all_lost = (0..n)
                .all(|home| matches!(plan.upload(home, round, device as u64), Delivery::Drop(_)));
            if all_lost {
                assert_eq!(
                    &bits(&state, device),
                    before,
                    "round {round}: device {device} lost every upload but its agents moved"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no round lost every upload of a device");
}

/// The degradation guarantee of the acceptance criteria, at test scale:
/// a fault-free PFDRL run and a 20%-loss run both complete, and the
/// lossy run still achieves positive savings.
#[test]
fn moderate_loss_keeps_the_pipeline_productive() {
    let clean_cfg = SimConfig::tiny(23);
    let clean = run_method(&clean_cfg, EmsMethod::Pfdrl);
    let mut lossy_cfg = clean_cfg.clone();
    lossy_cfg.fault.loss_rate = 0.2;
    lossy_cfg.fault.dropout_rate = 0.2;
    let lossy = run_method(&lossy_cfg, EmsMethod::Pfdrl);
    assert!(clean.ems.account.minutes > 0);
    assert_eq!(lossy.ems.account.minutes, clean.ems.account.minutes);
    assert!(
        lossy.ems.account.standby_saved_kwh > 0.0,
        "20% faults must not collapse savings to zero"
    );
}
