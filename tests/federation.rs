//! Cross-crate federation tests: forecasters and DQN agents exchanged
//! over the bus, α-split privacy, and cloud-vs-LAN equivalence of the
//! FedAvg math.

use pfdrl::data::{build_windows, GeneratorConfig, TraceGenerator};
use pfdrl::drl::{DqnAgent, DqnConfig};
use pfdrl::fl::{
    aggregate, BroadcastBus, CloudRound, FaultConfig, LatencyModel, LayerSplit, ModelUpdate,
    PayloadCodec, RoundParams,
};
use pfdrl::forecast::{ForecastMethod, Forecaster, TrainConfig};
use pfdrl::nn::Layered;

fn trained_forecasters(n: usize) -> Vec<Box<dyn Forecaster>> {
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(50));
    (0..n)
        .map(|home| {
            let watts = gen.multi_day_watts(home as u64, 0, 0..2);
            let scale = gen.household(home as u64).devices[0].on_watts;
            let set = build_windows(&watts, scale, 8, 5, 0).strided(7);
            let mut m = ForecastMethod::Lr.build(
                set.feature_dim(),
                TrainConfig {
                    max_epochs: 3,
                    ..TrainConfig::with_seed(home as u64)
                },
            );
            m.fit(&set);
            m
        })
        .collect()
}

/// One fault-free LAN round of `sent` (one update per home, in home
/// order): calls `merge(home, received)` with what each home received,
/// in arrival order.
fn deliver(sent: &[ModelUpdate], mut merge: impl FnMut(usize, &[&ModelUpdate])) {
    let mut bus = BroadcastBus::new(sent.len(), LatencyModel::lan());
    let mut inboxes = Vec::new();
    bus.deliver(sent, 0, &mut inboxes);
    for (home, inbox) in inboxes.iter().enumerate() {
        let received: Vec<&ModelUpdate> = inbox.iter().map(|mail| mail.get(sent)).collect();
        merge(home, &received);
    }
}

/// A full-model LAN round: every home merges its own model with what
/// it received.
fn lan_round(models: &mut [Box<dyn Forecaster>]) {
    let sent: Vec<ModelUpdate> = models
        .iter()
        .enumerate()
        .map(|(i, m)| aggregate::snapshot_update(m.as_ref(), i, 0, 0))
        .collect();
    deliver(&sent, |home, received| {
        aggregate::merge_updates(models[home].as_mut(), received);
    });
}

#[test]
fn lan_fedavg_equals_cloud_fedavg() {
    // The decentralized broadcast (Algorithm 1) and the centralized
    // parameter server compute the same average.
    let models = trained_forecasters(3);

    // Cloud path: every home imports the server's mean.
    let mut cloud_models = models;
    let mut cloud = CloudRound::new(
        LatencyModel::cloud(),
        &FaultConfig::default(),
        PayloadCodec::Raw,
    );
    let mut col: Vec<&mut dyn Forecaster> = cloud_models.iter_mut().map(|m| m.as_mut()).collect();
    let merged = cloud.run(
        &mut col,
        &RoundParams {
            round: 0,
            model_id: 0,
            alpha: None,
            participants: None,
        },
    );
    assert_eq!(merged, 3);
    let global = cloud_models[0].export_all();

    // LAN path: every home merges own + received.
    let mut lan_models = trained_forecasters(3);
    lan_round(&mut lan_models);

    for (layer, g) in global.iter().enumerate() {
        for m in &lan_models {
            let l = m.export_layer(layer);
            for (a, b) in g.iter().zip(l.iter()) {
                assert!((a - b).abs() < 1e-9, "LAN and cloud FedAvg disagree");
            }
        }
    }
}

#[test]
fn alpha_split_keeps_personal_layers_distinct_across_homes() {
    let mut agents: Vec<DqnAgent> = (0..3)
        .map(|i| {
            DqnAgent::new(
                10,
                DqnConfig {
                    seed: i,
                    ..DqnConfig::slim(i)
                },
            )
        })
        .collect();
    let alpha = 4;
    let split = LayerSplit::for_model(alpha, &agents[0]);
    let sent: Vec<ModelUpdate> = agents
        .iter()
        .enumerate()
        .map(|(i, a)| split.base_update(a, i, 0, 0))
        .collect();
    deliver(&sent, |home, received| {
        split.merge_base(&mut agents[home], received);
    });

    // Base layers identical everywhere...
    for layer in 0..alpha {
        let reference = agents[0].export_layer(layer);
        for a in &agents[1..] {
            let l = a.export_layer(layer);
            for (x, y) in reference.iter().zip(l.iter()) {
                assert!((x - y).abs() < 1e-9, "base layer {layer} diverged");
            }
        }
    }
    // ...personalization layers still distinct.
    for layer in alpha..agents[0].layer_count() {
        let reference = agents[0].export_layer(layer);
        assert_ne!(
            reference,
            agents[1].export_layer(layer),
            "personal layer {layer} was unexpectedly shared"
        );
    }
}

#[test]
fn base_updates_never_contain_personal_layers() {
    let agent = DqnAgent::new(10, DqnConfig::slim(9));
    for alpha in 1..=agent.layer_count() {
        let split = LayerSplit::for_model(alpha, &agent);
        let update = split.base_update(&agent, 0, 0, 0);
        assert_eq!(update.layers.len(), alpha);
        assert!(update.layers.iter().all(|l| l.index < alpha));
    }
}

#[test]
fn repeated_rounds_shrink_model_disagreement() {
    // FedAvg is a contraction toward consensus: inter-home parameter
    // spread decreases monotonically across synchronous rounds when no
    // local training happens between them (one round reaches consensus).
    let mut models = trained_forecasters(4);
    let spread = |models: &Vec<Box<dyn Forecaster>>| -> f64 {
        let a = models[0].export_layer(0);
        let b = models[2].export_layer(0);
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    };
    let before = spread(&models);
    assert!(before > 0.0, "independently trained models should differ");

    lan_round(&mut models);
    let after = spread(&models);
    assert!(
        after < 1e-9,
        "synchronous FedAvg round must reach consensus, spread {after}"
    );
}

#[test]
fn federated_agent_still_learns_after_import() {
    // Importing averaged parameters must not break the optimizer or the
    // target network: subsequent training still reduces TD loss.
    let mut a = DqnAgent::new(
        4,
        DqnConfig {
            warmup: 16,
            batch: 8,
            ..DqnConfig::slim(20)
        },
    );
    let b = DqnAgent::new(
        4,
        DqnConfig {
            warmup: 16,
            batch: 8,
            ..DqnConfig::slim(21)
        },
    );
    for i in 0..b.layer_count() {
        a.import_layer(i, &b.export_layer(i));
    }
    use pfdrl::drl::Transition;
    let mut losses = Vec::new();
    for k in 0..300 {
        let s = vec![(k % 2) as f64, 1.0 - (k % 2) as f64, 0.5, 0.0];
        if let Some(l) = a.observe(Transition {
            state: s,
            action: k % 3,
            reward: if k % 3 == 0 { 10.0 } else { -10.0 },
            next_state: None,
        }) {
            losses.push(l);
        }
    }
    let early: f64 = losses[..20].iter().sum::<f64>() / 20.0;
    let late: f64 = losses[losses.len() - 20..].iter().sum::<f64>() / 20.0;
    assert!(
        late < early,
        "TD loss did not decrease after import: {early} -> {late}"
    );
}
