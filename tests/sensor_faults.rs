//! Hostile-telemetry acceptance tests: seeded sensor-fault storms must
//! replay bit-identically (including across a kill-and-resume boundary
//! mid-quarantine), and the imputation path must never panic on
//! arbitrary garbage streams.

use pfdrl::core::{
    run_method_resumable, run_method_resume_from, train_forecasters, CheckpointPolicy, EmsMethod,
    EmsPhase, EmsState, SimConfig,
};
use pfdrl::data::{impute_forward_fill, SensorFaultConfig, MINUTES_PER_DAY, WATT_CEILING};
use pfdrl::store::{CheckpointStore, RunSnapshot, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfdrl-sensor-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny neighbourhood under a severe sensor-fault storm, run for
/// enough evaluation days that quarantine engages under the health
/// machine's thresholds (two dirty days in a row).
fn stormy_config(world_seed: u64, fault_seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tiny(world_seed);
    cfg.sensor_fault = SensorFaultConfig {
        seed: fault_seed,
        severity: 0.8,
    };
    cfg.eval_days = 4;
    cfg
}

/// Wall-clock is the only nondeterministic output; mask it so the
/// comparison covers every simulated quantity, health counters included.
fn canonical(ems: &EmsPhase) -> String {
    let mut ems = ems.clone();
    ems.train_wall_s = 0.0;
    serde_json::to_string(&ems).expect("serializable phase")
}

#[test]
fn seeded_sensor_storm_replays_bit_identically() {
    let cfg = stormy_config(17, 0xBADCAB);
    let run_once = || {
        let run = run_method_resumable(&cfg, EmsMethod::Pfdrl).unwrap().run;
        assert!(run.ems.imputed_minutes > 0, "storm imputed nothing");
        canonical(&run.ems)
    };
    assert_eq!(
        run_once(),
        run_once(),
        "same sensor-fault seed must replay bit-identically"
    );
}

#[test]
fn sensor_outcome_depends_on_fault_seed() {
    let phase = |fault_seed: u64| {
        let cfg = stormy_config(17, fault_seed);
        canonical(
            &run_method_resumable(&cfg, EmsMethod::Pfdrl)
                .unwrap()
                .run
                .ems,
        )
    };
    // Not guaranteed for every pair of seeds in principle, but an 80%
    // storm corrupts most device-days, so the plans diverge immediately.
    assert_ne!(phase(1), phase(2), "fault seed is not wired through");
}

/// Runs `cfg` uninterrupted (checkpointing disabled), then checkpointed
/// at day cadence, then resumes from every snapshot — every outcome,
/// including the health counters, must be bit-identical.
fn exercise_resume_matrix(cfg: &SimConfig, tag: &str) -> EmsPhase {
    let reference = run_method_resumable(cfg, EmsMethod::Pfdrl).unwrap().run.ems;

    let dir = tmp_dir(tag);
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.checkpoint = CheckpointPolicy {
        dir: Some(dir.to_string_lossy().into_owned()),
        every_days: 1,
        keep_last: 0, // keep every snapshot so we can resume from each
        abort_after_days: None,
    };
    let full = run_method_resumable(&ckpt_cfg, EmsMethod::Pfdrl).unwrap();
    assert_eq!(full.resumed_from_day, None, "{tag}: dir was not empty");
    assert_eq!(canonical(&reference), canonical(&full.run.ems), "{tag}");

    let store = CheckpointStore::open(&dir, 0).unwrap();
    for snap in &store.list().unwrap() {
        let resumed = run_method_resume_from(cfg, EmsMethod::Pfdrl, snap).unwrap();
        assert!(resumed.resumed_from_day.is_some());
        let ems = resumed.run.ems;
        assert_eq!(
            canonical(&reference),
            canonical(&ems),
            "{tag}: resume from {}",
            snap.display()
        );
        assert_eq!(ems.imputed_minutes, reference.imputed_minutes, "{tag}");
        assert_eq!(
            ems.health_transitions, reference.health_transitions,
            "{tag}"
        );
        assert_eq!(
            ems.quarantined_home_days, reference.quarantined_home_days,
            "{tag}"
        );
        assert_eq!(ems.daily_mean_loss, reference.daily_mean_loss, "{tag}");
    }
    fs::remove_dir_all(&dir).unwrap();
    reference
}

#[test]
fn kill_and_resume_mid_quarantine_is_bit_identical() {
    // Snapshots land both before and inside quarantine.
    let cfg = stormy_config(11, 0xBADCAB);
    let reference = exercise_resume_matrix(&cfg, "quarantine");
    assert!(
        reference.quarantined_home_days > 0,
        "the storm never drove a home into quarantine — the scenario \
         does not cover the mid-quarantine resume path"
    );
    assert!(reference.health_transitions > 0);
}

#[test]
fn hostile_streams_never_panic_and_impute_to_physical_watts() {
    let plan = SensorFaultConfig {
        seed: 0xFEED,
        severity: 1.0,
    }
    .plan();
    let mut rng = StdRng::seed_from_u64(5);
    for case in 0..200u64 {
        // Arbitrary garbage telemetry: NaNs, infinities, negatives,
        // physically impossible magnitudes.
        let mut watts: Vec<f64> = (0..MINUTES_PER_DAY)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -rng.gen_range(0.0..1e6),
                4 => rng.gen_range(WATT_CEILING..1e12),
                _ => rng.gen_range(0.0..500.0),
            })
            .collect();
        // Corrupting an already-hostile stream must not panic either.
        plan.corrupt_day(case, case % 3, case % 7, &mut watts);
        impute_forward_fill(&mut watts, WATT_CEILING, 0.0);
        for (i, &w) in watts.iter().enumerate() {
            assert!(
                w.is_finite() && (0.0..=WATT_CEILING).contains(&w),
                "case {case} minute {i}: imputation let {w} through"
            );
        }
    }
}

#[test]
fn corruption_is_order_free_and_idempotent_per_day() {
    // The plan is a pure function of (seed, home, device, day): applying
    // it to the same clean stream twice, in any order relative to other
    // days, yields bit-identical corruption.
    let plan = SensorFaultConfig {
        seed: 42,
        severity: 0.7,
    }
    .plan();
    let clean: Vec<f64> = (0..MINUTES_PER_DAY).map(|m| (m % 97) as f64).collect();
    let corrupt = |home: u64, device: u64, day: u64| {
        let mut w = clean.clone();
        plan.corrupt_day(home, device, day, &mut w);
        w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
    };
    let forward: Vec<_> = (0..5).map(|day| corrupt(1, 2, day)).collect();
    let mut backward: Vec<_> = (0..5).rev().map(|day| corrupt(1, 2, day)).collect();
    backward.reverse();
    assert_eq!(forward, backward, "corruption depends on call order");
}

#[test]
fn snapshot_without_health_section_is_rejected_when_health_is_active() {
    // A CRC-valid snapshot that lost its HEALTH section must not restore
    // zeroed health machines and an empty loss history.
    let mut cfg = SimConfig::tiny(13);
    cfg.sensor_fault = SensorFaultConfig {
        seed: 13,
        severity: 0.9,
    };
    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
    let mut state = EmsState::fresh(&cfg);
    for _ in 0..2 {
        state.advance_day(&cfg, EmsMethod::Pfdrl, &forecast);
    }
    assert!(state.imputed_minutes > 0, "the storm must impute");
    let mut snap = state.to_snapshot(&cfg, EmsMethod::Pfdrl, forecast.export_state());
    assert!(EmsState::from_snapshot(&cfg, &snap).is_ok());
    snap.health = None;
    let snap = RunSnapshot::decode(&snap.encode()).expect("still a valid file");
    match EmsState::from_snapshot(&cfg, &snap) {
        Err(StoreError::State(msg)) => assert!(msg.contains("health"), "{msg}"),
        Err(other) => panic!("wrong error: {other:?}"),
        Ok(_) => panic!("restored a health-active run without its health section"),
    }
}
