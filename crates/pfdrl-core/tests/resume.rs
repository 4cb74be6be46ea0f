//! Crash-recovery acceptance tests: a run resumed from any snapshot must
//! reproduce the uninterrupted run bit for bit — including under an
//! active deterministic fault plan with parked straggler queues in
//! flight at the checkpoint boundary — and must go on writing the
//! uninterrupted run's snapshots byte for byte.

use pfdrl_core::{
    run_method, run_method_resumable, run_method_resume_from, train_forecasters, CheckpointPolicy,
    EmsMethod, EmsState, RunResult, SimConfig,
};
use pfdrl_fl::FaultConfig;
use pfdrl_store::{CheckpointStore, StoreError};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfdrl-resume-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn checkpointed(cfg: &SimConfig, dir: &Path) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.checkpoint = CheckpointPolicy {
        dir: Some(dir.to_string_lossy().into_owned()),
        every_days: 1,
        keep_last: 0, // keep every snapshot so we can resume from each
        abort_after_days: None,
    };
    cfg
}

/// Canonical equality for run outcomes: the serialized form is what the
/// repro CLI emits, so JSON-string identity is the bar the paper
/// artifacts must meet.
fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a, b, "{what}: RunResult diverged");
    assert_eq!(
        serde_json::to_string(a).unwrap(),
        serde_json::to_string(b).unwrap(),
        "{what}: JSON forms diverged"
    );
}

/// Runs `cfg` uninterrupted, then checkpointed, then resumes from every
/// snapshot the checkpointed run left behind — all outcomes must be
/// bit-identical.
fn exercise_resume_matrix(cfg: &SimConfig, method: EmsMethod, tag: &str) {
    let reference = run_method(cfg, method).result();

    let dir = tmp_dir(tag);
    let ckpt_cfg = checkpointed(cfg, &dir);
    let full = run_method_resumable(&ckpt_cfg, method).unwrap();
    assert_eq!(full.resumed_from_day, None, "{tag}: dir was not empty");
    assert_bit_identical(&reference, &full.run.result(), tag);

    let store = CheckpointStore::open(&dir, 0).unwrap();
    let snaps = store.list().unwrap();
    assert_eq!(
        snaps.len(),
        cfg.eval_days as usize,
        "{tag}: expected one snapshot per eval day"
    );

    // Resume from every snapshot — intermediate and final alike — into a
    // config with checkpointing disabled (the run fingerprint ignores
    // checkpoint knobs, so the snapshot still matches).
    for snap in &snaps {
        let resumed = run_method_resume_from(cfg, method, snap).unwrap();
        assert!(resumed.resumed_from_day.is_some());
        assert_bit_identical(
            &reference,
            &resumed.run.result(),
            &format!("{tag}: resume from {}", snap.display()),
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Runs `f` with every parallel call it makes limited to `width`
/// threads.
fn at_width<R: Send>(width: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
        .install(f)
}

/// The resume matrix with the thread width varied: the reference runs
/// one thread wide, the checkpointed run four wide, and every resume
/// both ways. All outcomes must be bit-identical.
fn exercise_resume_matrix_across_widths(cfg: &SimConfig, method: EmsMethod, tag: &str) {
    let reference = at_width(1, || run_method(cfg, method).result());

    let dir = tmp_dir(tag);
    let ckpt_cfg = checkpointed(cfg, &dir);
    let full = at_width(4, || {
        run_method_resumable(&ckpt_cfg, method)
            .unwrap()
            .run
            .result()
    });
    assert_bit_identical(&reference, &full, &format!("{tag}: width 4"));

    let snaps = CheckpointStore::open(&dir, 0).unwrap().list().unwrap();
    assert_eq!(snaps.len(), cfg.eval_days as usize);
    for snap in &snaps {
        for width in [1, 4] {
            let resumed = at_width(width, || {
                let resumed = run_method_resume_from(cfg, method, snap).unwrap();
                assert!(resumed.resumed_from_day.is_some());
                resumed.run.result()
            });
            assert_bit_identical(
                &reference,
                &resumed,
                &format!("{tag}: width {width} resume from {}", snap.display()),
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Resumes from every snapshot of a checkpointed run into a fresh
/// checkpoint directory: each snapshot the resumed run writes must
/// equal the original run's snapshot of the same day byte for byte.
/// Both runs share this process, so even the forecast phase's wall-clock
/// field is the same.
fn exercise_resumed_snapshots(cfg: &SimConfig, method: EmsMethod, tag: &str) {
    let dir = tmp_dir(tag);
    run_method_resumable(&checkpointed(cfg, &dir), method).unwrap();
    let snaps = CheckpointStore::open(&dir, 0).unwrap().list().unwrap();
    assert_eq!(snaps.len(), cfg.eval_days as usize);
    for (k, snap) in snaps.iter().enumerate() {
        let resumed_dir = tmp_dir(&format!("{tag}-from-{k}"));
        run_method_resume_from(&checkpointed(cfg, &resumed_dir), method, snap).unwrap();
        let written = CheckpointStore::open(&resumed_dir, 0)
            .unwrap()
            .list()
            .unwrap();
        assert_eq!(
            written.len(),
            snaps.len() - k - 1,
            "{tag}: resumed from {k}"
        );
        for path in &written {
            let original = dir.join(path.file_name().unwrap());
            assert!(
                fs::read(path).unwrap() == fs::read(&original).unwrap(),
                "{tag}: resumed from {k}, {} differs from the original run's",
                original.display()
            );
        }
        fs::remove_dir_all(&resumed_dir).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resumed_runs_write_the_original_snapshots_byte_for_byte() {
    let mut cfg = SimConfig::tiny(11);
    cfg.eval_days = 4;
    exercise_resumed_snapshots(&cfg, EmsMethod::Pfdrl, "snapshots");

    // Shards, parked stragglers and compressed uplinks fill every
    // optional section of the snapshots.
    let mut cfg = SimConfig::tiny(53);
    cfg.n_residences = 7;
    cfg.eval_days = 3;
    cfg.aggregation = pfdrl_fl::AggregationMode::Hierarchical {
        shards: 3,
        assignment: pfdrl_fl::ShardAssignment::RoundRobin,
    };
    cfg.compression = pfdrl_fl::PayloadCodec::QuantizedI8 {
        per_layer_scale: true,
    };
    cfg.fault = FaultConfig::chaos(53, 0.5);
    cfg.fault.straggler_rate = 0.8;
    exercise_resumed_snapshots(&cfg, EmsMethod::Pfdrl, "snapshots-hier-chaos");
}

#[test]
fn resume_is_bit_identical_across_thread_widths() {
    let mut cfg = SimConfig::tiny(11);
    cfg.eval_days = 3;
    exercise_resume_matrix_across_widths(&cfg, EmsMethod::Pfdrl, "widths");

    // Shards in parallel, chaos with parked stragglers, compressed
    // uplinks: every parallel site of a round at once.
    let mut cfg = SimConfig::tiny(53);
    cfg.n_residences = 7;
    cfg.eval_days = 3;
    cfg.aggregation = pfdrl_fl::AggregationMode::Hierarchical {
        shards: 3,
        assignment: pfdrl_fl::ShardAssignment::RoundRobin,
    };
    cfg.compression = pfdrl_fl::PayloadCodec::QuantizedI8 {
        per_layer_scale: true,
    };
    cfg.fault = FaultConfig::chaos(53, 0.5);
    cfg.fault.straggler_rate = 0.8;
    exercise_resume_matrix_across_widths(&cfg, EmsMethod::Pfdrl, "widths-hier-chaos");
}

#[test]
fn resume_from_every_snapshot_is_bit_identical() {
    let mut cfg = SimConfig::tiny(11);
    cfg.eval_days = 3; // three snapshots: two mid-run, one final
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "pfdrl");
}

#[test]
fn resume_is_bit_identical_under_active_fault_plan() {
    let mut cfg = SimConfig::tiny(13);
    cfg.eval_days = 3;
    // Aggressive chaos with a high straggler rate so parked delivery
    // queues are in flight when the snapshot is taken.
    cfg.fault = FaultConfig::chaos(13, 0.5);
    cfg.fault.straggler_rate = 0.8;
    assert!(cfg.fault.is_active());
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "chaos");
}

/// The flat O(N) fast path: one shard covering every home.
const FLAT_FAST_PATH: pfdrl_fl::AggregationMode = pfdrl_fl::AggregationMode::Hierarchical {
    shards: 1,
    assignment: pfdrl_fl::ShardAssignment::RoundRobin,
};

#[test]
fn resume_is_bit_identical_under_shared_sum_fast_path() {
    // The O(N) shared-sum aggregation must be just as snapshot-stable
    // as the per-home default: its tree reduction is deterministic in
    // topology (never thread-count-derived), so a resumed run replays
    // the exact same float summation order.
    let mut cfg = SimConfig::tiny(31);
    cfg.eval_days = 3;
    cfg.aggregation = FLAT_FAST_PATH;
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "shared-sum");
}

#[test]
fn resume_is_bit_identical_under_hierarchical_sharding() {
    // The two-level sharded federation must be just as snapshot-stable
    // as the flat modes: the snapshot's optional shard section restores
    // every per-shard engine byte-exactly — round/fast-path/fallback
    // counters, bus statistics, and the parked straggler queues still
    // in flight at the checkpoint boundary — so a resumed run replays
    // the same per-shard reductions and the same fixed-shape
    // aggregate-of-aggregates merge. Chaos + a high straggler rate make
    // sure those queues are non-empty when the snapshot is cut.
    let mut cfg = SimConfig::tiny(41);
    cfg.n_residences = 7; // uneven split across 3 shards
    cfg.eval_days = 3;
    cfg.aggregation = pfdrl_fl::AggregationMode::Hierarchical {
        shards: 3,
        assignment: pfdrl_fl::ShardAssignment::RoundRobin,
    };
    cfg.fault = FaultConfig::chaos(41, 0.5);
    cfg.fault.straggler_rate = 0.8;
    assert!(cfg.fault.is_active());
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "hierarchical");

    // The archetype-keyed assignment is part of the run identity too.
    let mut cfg = SimConfig::tiny(43);
    cfg.n_residences = 6;
    cfg.eval_days = 3;
    cfg.aggregation = pfdrl_fl::AggregationMode::Hierarchical {
        shards: 2,
        assignment: pfdrl_fl::ShardAssignment::ArchetypeMix,
    };
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "hierarchical-archetype");
}

#[test]
fn resume_is_bit_identical_under_q8_compression() {
    // Quantized uplinks must be just as snapshot-stable as raw ones:
    // the codec is applied deterministically at export, the merged
    // (dequantized) values are plain f64s in the agent states, and the
    // snapshot carries both the wire and logical byte counters.
    let mut cfg = SimConfig::tiny(47);
    cfg.eval_days = 3;
    cfg.aggregation = FLAT_FAST_PATH;
    cfg.compression = pfdrl_fl::PayloadCodec::QuantizedI8 {
        per_layer_scale: true,
    };
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "q8");
}

#[test]
fn resume_is_bit_identical_under_q8_compression_with_chaos_and_shards() {
    // The hardest combination: update-global int8 payloads, hierarchical
    // sharding, and a chaos plan with stragglers parked mid-snapshot.
    // Corrupted compressed payloads must demote and replay exactly as
    // raw ones across the resume boundary.
    let mut cfg = SimConfig::tiny(53);
    cfg.n_residences = 7;
    cfg.eval_days = 3;
    cfg.aggregation = pfdrl_fl::AggregationMode::Hierarchical {
        shards: 3,
        assignment: pfdrl_fl::ShardAssignment::RoundRobin,
    };
    cfg.compression = pfdrl_fl::PayloadCodec::QuantizedI8 {
        per_layer_scale: false,
    };
    cfg.fault = FaultConfig::chaos(53, 0.5);
    cfg.fault.straggler_rate = 0.8;
    assert!(cfg.fault.is_active());
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "q8-chaos-hier");
}

#[test]
fn fl_method_resumes_bit_identically_under_q8_compression() {
    // The centralized FedAvg path compresses uploads inside the cloud
    // server; its counters must survive a resume.
    let mut cfg = SimConfig::tiny(59);
    cfg.eval_days = 3;
    cfg.compression = pfdrl_fl::PayloadCodec::QuantizedI8 {
        per_layer_scale: false,
    };
    exercise_resume_matrix(&cfg, EmsMethod::Fl, "fl-q8");
}

#[test]
fn resume_is_bit_identical_with_the_lstm_forecaster() {
    // The paper's forecaster restores from the snapshot's weights and
    // must replay the same predictions. `tiny` uses the LR forecaster,
    // and this is the one resume test on the LSTM.
    let mut cfg = SimConfig::tiny(37);
    cfg.eval_days = 3;
    cfg.forecast_method = pfdrl_forecast::ForecastMethod::Lstm;
    exercise_resume_matrix(&cfg, EmsMethod::Pfdrl, "lstm");
}

#[test]
fn frl_method_resumes_bit_identically_under_chaos_with_failed_rounds() {
    // FRL is the one method whose Q-networks federate through the cloud
    // server. Half the uploads churn, drop or arrive damaged, so some
    // rounds average nothing; those rounds keep every local agent, on
    // both sides of a snapshot.
    let mut cfg = SimConfig::tiny(4);
    cfg.eval_days = 3;
    cfg.fault = FaultConfig::chaos(4, 0.5);
    let forecast = train_forecasters(&cfg, EmsMethod::Frl);
    let mut state = EmsState::fresh(&cfg);
    let mut failures = Vec::new();
    while !state.done(&cfg) {
        state.advance_day(&cfg, EmsMethod::Frl, &forecast);
        failures.push(state.cloud.stats().empty_rounds);
    }
    assert!(
        failures[0] > 0 && failures[2] > failures[0],
        "failed rounds must fall before and after a snapshot: {failures:?}"
    );
    exercise_resume_matrix(&cfg, EmsMethod::Frl, "frl-chaos");
}

#[test]
fn cloud_method_resumes_bit_identically() {
    let cfg = SimConfig::tiny(17);
    exercise_resume_matrix(&cfg, EmsMethod::Cloud, "cloud");
}

#[test]
fn snapshot_from_different_config_is_rejected() {
    let dir = tmp_dir("config-mismatch");
    let cfg_a = checkpointed(&SimConfig::tiny(19), &dir);
    run_method_resumable(&cfg_a, EmsMethod::Local).unwrap();

    let cfg_b = checkpointed(&SimConfig::tiny(20), &dir);
    let err = run_method_resumable(&cfg_b, EmsMethod::Local).unwrap_err();
    assert!(
        matches!(err, StoreError::ConfigMismatch { .. }),
        "got {err:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_from_different_method_is_rejected() {
    let dir = tmp_dir("method-mismatch");
    let cfg = checkpointed(&SimConfig::tiny(21), &dir);
    run_method_resumable(&cfg, EmsMethod::Pfdrl).unwrap();

    let err = run_method_resumable(&cfg, EmsMethod::Frl).unwrap_err();
    match err {
        StoreError::MethodMismatch { expected, found } => {
            assert_eq!(expected, "FRL");
            assert_eq!(found, "PFDRL");
        }
        other => panic!("got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshot_is_a_typed_error_not_a_panic() {
    let dir = tmp_dir("corrupt");
    let cfg = checkpointed(&SimConfig::tiny(23), &dir);
    run_method_resumable(&cfg, EmsMethod::Local).unwrap();

    let store = CheckpointStore::open(&dir, 0).unwrap();
    let path = store.latest().unwrap().unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let err = run_method_resume_from(&cfg, EmsMethod::Local, &path).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::SectionCrc { .. } | StoreError::Malformed { .. }
        ),
        "got {err:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpointing_disabled_still_runs_to_completion() {
    let cfg = SimConfig::tiny(29);
    let plain = run_method(&cfg, EmsMethod::Local).result();
    let resumable = run_method_resumable(&cfg, EmsMethod::Local).unwrap();
    assert_eq!(resumable.resumed_from_day, None);
    assert_bit_identical(&plain, &resumable.run.result(), "disabled");
}
