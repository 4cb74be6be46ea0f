//! Service-mode integration tests: deterministic replay, bounded
//! ingress under backpressure, exact shed accounting, and
//! kill-mid-stream resume — all pinned at the byte level, because the
//! serve contract is that the same input stream produces bit-identical
//! decision logs and snapshots no matter how ingestion is scheduled
//! or how often the process dies.

use pfdrl_core::{train_forecasters, EmsMethod, SimConfig};
use pfdrl_serve::{
    generate_stream, FlakySink, ServeConfig, ServeEngine, ServeError, ServeReport, VecSink,
    VecSource,
};
use pfdrl_store::{CheckpointStore, RunSnapshot};
use std::path::PathBuf;

const MINUTES_PER_DAY: u64 = 1440;

/// Tiny serving fleet: 3 homes, 2 devices, 1 priming + 1 evaluated day.
fn short_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tiny(seed);
    cfg.eval_days = 1;
    cfg.validate();
    cfg
}

fn stream_for(cfg: &SimConfig) -> Vec<String> {
    let mut lines = Vec::new();
    generate_stream(cfg, cfg.eval_start_day - 1, cfg.eval_days + 1, &mut lines);
    lines
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfdrl-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a full serve session over `lines`, returning the decision log
/// and report. `store_dir` enables snapshotting into that directory.
fn run_serve(
    cfg: &SimConfig,
    scfg: ServeConfig,
    lines: Vec<String>,
    store_dir: Option<&PathBuf>,
) -> (Vec<String>, ServeReport) {
    let forecast = train_forecasters(cfg, EmsMethod::Pfdrl);
    let store = store_dir.map(|dir| CheckpointStore::open(dir, 0).expect("open checkpoint store"));
    let mut engine = ServeEngine::new(cfg.clone(), scfg, EmsMethod::Pfdrl, forecast, store);
    let mut source = VecSource::new(lines);
    let mut sink = VecSink::default();
    let report = engine.run(&mut source, &mut sink).expect("serve run");
    (sink.lines, report)
}

fn latest_snapshot_bytes(dir: &PathBuf) -> Vec<u8> {
    let store = CheckpointStore::open(dir, 0).expect("open store");
    let path = store
        .latest()
        .expect("scan store")
        .expect("a snapshot exists");
    std::fs::read(path).expect("read snapshot")
}

#[test]
fn two_runs_are_byte_identical_including_snapshots() {
    let cfg = short_cfg(42);
    let lines = stream_for(&cfg);
    let dir_a = temp_dir("replay-a");
    let dir_b = temp_dir("replay-b");
    let (log_a, rep_a) = run_serve(&cfg, ServeConfig::default(), lines.clone(), Some(&dir_a));
    let (log_b, rep_b) = run_serve(&cfg, ServeConfig::default(), lines, Some(&dir_b));
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b, "decision logs must be byte-identical");
    assert_eq!(rep_a.counters, rep_b.counters);
    assert_eq!(
        latest_snapshot_bytes(&dir_a),
        latest_snapshot_bytes(&dir_b),
        "final snapshots must be byte-identical"
    );
    // The whole span was served and every device-minute decided:
    // (1440 - state_window) minutes x homes x controllable devices.
    let expected = (MINUTES_PER_DAY - cfg.state_window as u64) * cfg.n_residences as u64 * 2;
    assert_eq!(rep_a.decisions, expected);
    assert_eq!(rep_a.completed_days, cfg.eval_days);
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn decision_log_invariant_to_shards_queue_and_slow_sink() {
    let cfg = short_cfg(7);
    let lines = stream_for(&cfg);
    let (reference, _) = run_serve(&cfg, ServeConfig::default(), lines.clone(), None);

    // One giant shard vs many tiny ones.
    for n_shards in [1usize, 7] {
        let scfg = ServeConfig {
            n_shards,
            ..ServeConfig::default()
        };
        let (log, _) = run_serve(&cfg, scfg, lines.clone(), None);
        assert_eq!(log, reference, "n_shards={n_shards} changed the log");
    }

    // A queue far smaller than a chunk's records: backpressure drains
    // must fire, ingress must stay bounded, and the log must not move.
    let scfg = ServeConfig {
        n_shards: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let (log, report) = run_serve(&cfg, scfg, lines.clone(), None);
    assert_eq!(log, reference, "backpressure changed the log");
    assert!(
        report.counters.rejected_backpressure > 0,
        "a 4-slot queue under a 60-minute chunk must hit backpressure"
    );
    assert!(
        report.max_queue_len <= 4,
        "ingress grew past its bound: {}",
        report.max_queue_len
    );

    // A sink that reports Busy twice per line: the engine retries
    // without reordering or dropping.
    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
    let mut engine = ServeEngine::new(
        cfg.clone(),
        ServeConfig::default(),
        EmsMethod::Pfdrl,
        forecast,
        None,
    );
    let mut source = VecSource::new(lines);
    let mut sink = FlakySink::new(VecSink::default(), 2);
    let report = engine.run(&mut source, &mut sink).expect("serve run");
    assert_eq!(sink.inner.lines, reference, "slow sink changed the log");
    assert_eq!(report.counters.sink_retries, 2 * report.decisions);
}

#[test]
fn chunk_size_preserves_the_decision_set() {
    let cfg = short_cfg(11);
    let lines = stream_for(&cfg);
    let (log_60, rep_60) = run_serve(&cfg, ServeConfig::default(), lines.clone(), None);
    let scfg_45 = ServeConfig {
        chunk_minutes: 45,
        ..ServeConfig::default()
    };
    let (log_45, rep_45) = run_serve(&cfg, scfg_45, lines, None);
    // Emission order is per-chunk, so the logs differ as sequences —
    // but the decisions themselves (and every counter) must match.
    assert_eq!(rep_60.decisions, rep_45.decisions);
    assert_eq!(rep_60.counters.gap_imputed, rep_45.counters.gap_imputed);
    let mut a = log_60;
    let mut b = log_45;
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "chunk size changed the decision set");
}

#[test]
fn shed_counters_are_exact_and_do_not_perturb_decisions() {
    let cfg = short_cfg(5);
    let clean = stream_for(&cfg);
    let (reference, clean_report) = run_serve(&cfg, ServeConfig::default(), clean.clone(), None);
    assert_eq!(clean_report.counters.shed_malformed, 0);

    // Inject one of each shed class at a point where the cursor has
    // provably advanced past the serve start (minute 1560 of the
    // stream => the [1440, 1500) chunk is closed).
    let mut noisy = clean.clone();
    let at = 120 * cfg.n_residences; // lines for minutes [1440, 1560)
    noisy.splice(
        at..at,
        [
            "this is not telemetry".to_string(),                 // malformed
            "{\"m\":1560,\"h\":0,\"w\":[1.0]}".to_string(),      // wrong device count
            "{\"m\":1560,\"h\":99,\"w\":[1.0,1.0]}".to_string(), // unknown home
            "{\"m\":100,\"h\":0,\"w\":[1.0,1.0]}".to_string(),   // out of span
            "{\"m\":1440,\"h\":0,\"w\":[1.0,1.0]}".to_string(),  // stale
        ],
    );
    let (log, report) = run_serve(&cfg, ServeConfig::default(), noisy, None);
    assert_eq!(report.counters.shed_malformed, 2);
    assert_eq!(report.counters.shed_unknown_home, 1);
    assert_eq!(report.counters.shed_out_of_span, 1);
    assert_eq!(report.counters.shed_stale, 1);
    assert_eq!(
        log, reference,
        "shed records must never change the decision log"
    );
}

#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    let cfg = SimConfig::tiny(42); // 2 evaluated days: die mid day 2
    let lines = stream_for(&cfg);
    let ref_dir = temp_dir("resume-ref");
    let (reference, _) = run_serve(&cfg, ServeConfig::default(), lines.clone(), Some(&ref_dir));

    // "Kill": the stream dries up mid-day at a chunk boundary; the
    // engine closes what it has and writes an epilogue snapshot —
    // exactly the state a --crash-after-minute abort leaves behind
    // (the engine snapshots before aborting).
    let kill_minute = 2 * MINUTES_PER_DAY + 300; // 300 minutes into eval day 2
    let serve_start = (cfg.eval_start_day - 1) * MINUTES_PER_DAY;
    let kill_line = ((kill_minute - serve_start) as usize) * cfg.n_residences;
    let truncated: Vec<String> = lines[..kill_line].to_vec();
    let crash_dir = temp_dir("resume-crash");
    let (crash_log, crash_report) =
        run_serve(&cfg, ServeConfig::default(), truncated, Some(&crash_dir));
    assert_eq!(crash_report.served_minutes, kill_minute - serve_start);

    // Resume from the newest snapshot against the full stream.
    let store = CheckpointStore::open(&crash_dir, 0).expect("open store");
    let snap_path = store.latest().expect("scan").expect("snapshot written");
    let snap = CheckpointStore::load(&snap_path).expect("load snapshot");
    let resume_dir = temp_dir("resume-cont");
    let resume_store = CheckpointStore::open(&resume_dir, 0).expect("open store");
    let mut engine = ServeEngine::resume(
        cfg.clone(),
        ServeConfig::default(),
        EmsMethod::Pfdrl,
        &snap,
        Some(resume_store),
    )
    .expect("resume from snapshot");
    let mut source = VecSource::new(lines);
    let mut sink = VecSink::default();
    let resumed_report = engine.run(&mut source, &mut sink).expect("resumed run");
    assert_eq!(resumed_report.resumed_from_minute, Some(kill_minute));

    // Crash log + resumed log == the uninterrupted log, byte for byte.
    let mut stitched = crash_log;
    stitched.extend(sink.lines);
    assert_eq!(
        stitched, reference,
        "kill + resume must replay into the uninterrupted decision log"
    );
    // And the final snapshots agree byte for byte too.
    assert_eq!(
        latest_snapshot_bytes(&ref_dir),
        latest_snapshot_bytes(&resume_dir),
        "resumed final snapshot diverged from the uninterrupted one"
    );
    for dir in [ref_dir, crash_dir, resume_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn serve_snapshot_without_health_section_is_rejected() {
    // Serve writes HEALTH whatever the config, so a serve snapshot
    // without it is damaged, even where batch would not need one.
    let cfg = short_cfg(3);
    let dir = temp_dir("no-health");
    run_serve(&cfg, ServeConfig::default(), stream_for(&cfg), Some(&dir));
    let store = CheckpointStore::open(&dir, 0).expect("open store");
    let path = store.latest().expect("scan").expect("snapshot written");
    let mut snap = CheckpointStore::load(&path).expect("load snapshot");
    let resume = |snap: &RunSnapshot| {
        ServeEngine::resume(
            cfg.clone(),
            ServeConfig::default(),
            EmsMethod::Pfdrl,
            snap,
            None,
        )
    };
    assert!(resume(&snap).is_ok());
    snap.health = None;
    let snap = RunSnapshot::decode(&snap.encode()).expect("still a valid file");
    match resume(&snap) {
        Err(ServeError::Config(msg)) => assert!(msg.contains("health"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("resumed a serve snapshot without its health section"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn quarantined_homes_are_shed_from_inference() {
    let mut cfg = SimConfig::tiny(13);
    cfg.eval_days = 4;
    cfg.sensor_fault = pfdrl_data::SensorFaultConfig {
        seed: 13,
        severity: 0.9,
    };
    cfg.validate();
    let lines = stream_for(&cfg); // corruption applied pre-emission
    let (log, report) = run_serve(&cfg, ServeConfig::default(), lines, None);
    assert!(
        report.counters.repaired_values > 0,
        "a 0.9-severity storm must trip value repair"
    );
    assert!(
        report.counters.quarantined_shed > 0,
        "two dirty days must quarantine homes and shed their inference"
    );
    // Shed decisions are really absent from the log, not just counted.
    let full_span =
        (MINUTES_PER_DAY - cfg.state_window as u64) * cfg.n_residences as u64 * 2 * cfg.eval_days;
    assert_eq!(
        report.decisions + report.counters.quarantined_shed,
        full_span,
        "every device-minute is either decided or accounted as shed"
    );
    assert_eq!(log.len() as u64, report.decisions);
}

#[test]
fn committed_fixture_matches_the_generator() {
    // tests/fixtures/serve_tiny.ndjson is the CI smoke stream: the
    // quick config's full serving span. If the generator or config
    // drifts, regenerate the fixture (see CI's serve-smoke job).
    let cfg = SimConfig::tiny(42);
    let mut lines = Vec::new();
    generate_stream(&cfg, cfg.eval_start_day - 1, cfg.eval_days + 1, &mut lines);
    let mut expected = lines.join("\n");
    expected.push('\n');
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_tiny.ndjson"
    ))
    .expect("fixture present");
    assert_eq!(fixture, expected, "committed fixture is stale");
}
