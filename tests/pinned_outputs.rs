//! Pins the deterministic outputs of both EMS entry points across
//! commits: the batch run that `repro run --quick` computes and the
//! serve decision log over the committed CI fixture. It also pins the
//! forecast phase of every forecasting backend under every training
//! architecture, the batch run under the fault plans that drive
//! stragglers, rejected payloads, per-home fallbacks and failed cloud
//! rounds, and the batch run under a sensor-fault storm that drives
//! imputation and quarantine. Each is folded into an FNV-1a-64 hash
//! over exact bit patterns, so a refactor that claims to move no bit
//! can be checked against the literals below instead of against a
//! second checkout. The config fingerprint is pinned too: it changes
//! exactly when the config's serialized shape does, and a changed
//! fingerprint is what stops older snapshots from resuming.
//!
//! Floats are hashed by `to_bits()`, not through JSON: the JSON writer
//! prints NaN and both infinities as `null`, so it would hide a change
//! between them.

use pfdrl_core::EmsMethod::{Cloud, Fl, Local, Pfdrl};
use pfdrl_core::{
    evaluate_forecast, run_method, train_forecasters, AggregationMode, EmsMethod, EmsState,
    RunResult, SimConfig,
};
use pfdrl_data::SensorFaultConfig;
use pfdrl_fl::{FaultConfig, ShardAssignment};
use pfdrl_forecast::ForecastMethod::{self, Bp, Lr, Lstm, Svm};
use pfdrl_serve::{NdjsonSource, ServeConfig, ServeEngine, VecSink};
use std::io::BufReader;

/// `run_method(&SimConfig::tiny(42), EmsMethod::Pfdrl).result()`.
const BATCH_RESULT_HASH: u64 = 0xe760_9054_de41_6b76;
/// The same run under [`faulty_config`]: stragglers, lost and
/// corrupted deliveries in both phases.
const FAULTY_PFDRL_HASH: u64 = 0xee3d_834e_c171_7857;
/// FRL on `SimConfig::tiny(42)` under `FaultConfig::chaos(7, 0.4)`.
const CHAOS_FRL_HASH: u64 = 0x0cc8_d621_91bd_b880;
/// [`faulty_config`] federating through two round-robin shards.
const FAULTY_HIER_PFDRL_HASH: u64 = 0x3693_b4fb_ca3d_2509;
/// `SimConfig::tiny(42)` federating through two round-robin shards with
/// no fault plan, and the EMS shard traffic of that run.
const HIER_PFDRL_HASH: u64 = 0x30f9_1924_77ed_667a;
const HIER_PFDRL_MESSAGES: u64 = 96;
const HIER_PFDRL_BYTES: u64 = 241_664;
/// PFDRL on `SimConfig::tiny(11)` over 4 evaluation days under a
/// severity-0.8 sensor storm (fault seed `0xBADCAB`), and that run's
/// imputed minutes, health transitions and quarantined home-days.
const STORM_PFDRL_HASH: u64 = 0x4b37_26f2_a17b_1c6a;
const STORM_HEALTH_COUNTERS: [u64; 3] = [2317, 6, 9];
/// `SimConfig::tiny(42).run_hash()`.
const TINY_RUN_HASH: u64 = 0x1f06_faf8_0acc_3a7e;
/// Every line of the serve decision log, newline-terminated.
const SERVE_LOG_HASH: u64 = 0x052d_7e01_3c49_47cd;
const SERVE_LOG_LINES: usize = 17_244;
const SERVE_FINAL_SAVED_FRACTION_BITS: u64 = 0x3fe0_7d31_08fb_ee7e;
/// `train_forecasters` + `evaluate_forecast` on the cut-down tiny
/// config of [`forecast_config`], per backend and training
/// architecture. FRL trains the same forecast phase as FL.
const FORECAST_PHASE_HASHES: [(ForecastMethod, EmsMethod, u64); 16] = [
    (Lr, Local, 0x9a09_feed_03b3_823a),
    (Lr, Cloud, 0x0f32_f33f_d819_22c9),
    (Lr, Fl, 0xb84a_3f2d_7f3d_f3fb),
    (Lr, Pfdrl, 0x7549_90e3_bc03_0d77),
    (Svm, Local, 0x97c5_ac76_6594_3f51),
    (Svm, Cloud, 0x24ec_08e4_7bbb_7355),
    (Svm, Fl, 0x589c_45ee_f50d_6a2b),
    (Svm, Pfdrl, 0xee22_6bb4_41ca_35ec),
    (Bp, Local, 0xb22a_8ab3_7cf3_c08e),
    (Bp, Cloud, 0xa790_5931_81d4_20f2),
    (Bp, Fl, 0x6153_ae41_6b07_0bf7),
    (Bp, Pfdrl, 0x91f6_ce8a_27c1_d475),
    (Lstm, Local, 0xaa59_8b72_d1d0_45fa),
    (Lstm, Cloud, 0xf1f6_5b28_37bf_e892),
    (Lstm, Fl, 0x41bf_e697_9cd9_d224),
    (Lstm, Pfdrl, 0x440a_b715_996f_0f9b),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.f64(x));
    }
}

fn hash_result(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.method.as_bytes());
    h.f64(r.forecast_comm_s);
    h.u64(r.forecast_bytes);
    h.u64(r.forecast_logical_bytes);
    h.f64(r.ems_comm_s);
    h.u64(r.ems_comm_bytes);
    h.u64(r.ems_comm_logical_bytes);
    let a = &r.account;
    h.f64(a.standby_total_kwh);
    h.f64(a.standby_saved_kwh);
    h.u64(a.comfort_violation_minutes);
    h.f64(a.interrupted_on_kwh);
    h.u64(a.minutes);
    h.f64(a.total_reward);
    for series in [
        &r.daily_saved_fraction,
        &r.daily_saved_kwh_per_client,
        &r.hourly_saved_kwh_per_client,
        &r.hourly_standby_kwh_per_client,
        &r.per_home_saved_fraction,
        &r.per_home_saved_kwh,
    ] {
        h.f64s(series);
    }
    h.0
}

#[test]
fn batch_quick_run_matches_pinned_hash() {
    let result = run_method(&SimConfig::tiny(42), EmsMethod::Pfdrl).result();
    let hash = hash_result(&result);
    assert_eq!(hash, BATCH_RESULT_HASH, "batch result hash {hash:#018x}");
}

/// `SimConfig::tiny(42)` with a fifth of deliveries lost, a quarter
/// straggling and a fifth corrupted (no churn, so every home stays in
/// every round).
fn faulty_config() -> SimConfig {
    let mut cfg = SimConfig::tiny(42);
    cfg.fault = FaultConfig {
        seed: 7,
        loss_rate: 0.2,
        straggler_rate: 0.25,
        corrupt_rate: 0.2,
        ..FaultConfig::default()
    };
    cfg
}

/// The hash of `run_method(cfg, method).result()`, and the EMS state
/// of the same run driven day by day, whose transports hold the
/// counters the fault paths raise.
fn faulty_run(cfg: &SimConfig, method: EmsMethod) -> (u64, EmsState) {
    let hash = hash_result(&run_method(cfg, method).result());
    let forecast = train_forecasters(cfg, method);
    let mut state = EmsState::fresh(cfg);
    while !state.done(cfg) {
        state.advance_day(cfg, method, &forecast);
    }
    (hash, state)
}

#[test]
fn fault_paths_match_pinned_hashes() {
    let (hash, state) = faulty_run(&faulty_config(), EmsMethod::Pfdrl);
    let bus = state.bus.stats();
    assert!(
        bus.delayed > 0 && bus.corrupted > 0 && bus.dropped_total() > 0,
        "{bus:?}"
    );
    assert_eq!(hash, FAULTY_PFDRL_HASH, "faulty PFDRL hash {hash:#018x}");

    let mut cfg = SimConfig::tiny(42);
    cfg.fault = FaultConfig::chaos(7, 0.4);
    let (hash, state) = faulty_run(&cfg, EmsMethod::Frl);
    let cloud = state.cloud.stats();
    assert!(cloud.empty_rounds > 0 && cloud.rejected > 0, "{cloud:?}");
    assert_eq!(hash, CHAOS_FRL_HASH, "chaos FRL hash {hash:#018x}");

    let mut cfg = faulty_config();
    cfg.aggregation = AggregationMode::Hierarchical {
        shards: 2,
        assignment: ShardAssignment::RoundRobin,
    };
    let (hash, state) = faulty_run(&cfg, EmsMethod::Pfdrl);
    let hier = state.hier.as_ref().expect("hierarchical engine");
    let (fast, fallback) = hier.export_state().shards.iter().fold((0, 0), |(f, b), s| {
        (
            f + s.counters.fast_path_homes,
            b + s.counters.fallback_homes,
        )
    });
    assert!(fast > 0 && fallback > 0, "fast {fast}, fallback {fallback}");
    let stats = hier.total_stats();
    assert!(stats.delayed > 0 && stats.corrupted > 0, "{stats:?}");
    assert_eq!(
        hash, FAULTY_HIER_PFDRL_HASH,
        "faulty hierarchical PFDRL hash {hash:#018x}"
    );
}

/// The fault-free twin of the hierarchical pin above: every home-round
/// of every shard takes the shared-sum fast path.
#[test]
fn fault_free_hierarchical_run_matches_pinned_hash() {
    let mut cfg = SimConfig::tiny(42);
    cfg.aggregation = AggregationMode::Hierarchical {
        shards: 2,
        assignment: ShardAssignment::RoundRobin,
    };
    let (hash, state) = faulty_run(&cfg, EmsMethod::Pfdrl);
    let hier = state.hier.as_ref().expect("hierarchical engine");
    let (fast, fallback) = hier.export_state().shards.iter().fold((0, 0), |(f, b), s| {
        (
            f + s.counters.fast_path_homes,
            b + s.counters.fallback_homes,
        )
    });
    assert!(
        fast > 0 && fallback == 0,
        "fast {fast}, fallback {fallback}"
    );
    let stats = hier.total_stats();
    assert_eq!(
        (stats.messages, stats.bytes),
        (HIER_PFDRL_MESSAGES, HIER_PFDRL_BYTES),
        "hierarchical PFDRL traffic {stats:?}"
    );
    assert_eq!(
        hash, HIER_PFDRL_HASH,
        "hierarchical PFDRL hash {hash:#018x}"
    );
}

/// Forward-fill imputation, the health machines and quarantined
/// uploads; the storm quarantines homes on some days.
#[test]
fn sensor_storm_run_matches_pinned_hash() {
    let mut cfg = SimConfig::tiny(11);
    cfg.sensor_fault = SensorFaultConfig {
        seed: 0xBADCAB,
        severity: 0.8,
    };
    cfg.eval_days = 4;
    let run = run_method(&cfg, EmsMethod::Pfdrl);
    let hash = hash_result(&run.result());
    let ems = &run.ems;
    let counters = [
        ems.imputed_minutes,
        ems.health_transitions,
        ems.quarantined_home_days,
    ];
    assert_eq!(counters, STORM_HEALTH_COUNTERS, "storm health counters");
    assert_eq!(hash, STORM_PFDRL_HASH, "storm PFDRL hash {hash:#018x}");
}

#[test]
fn config_fingerprint_matches_pinned_hash() {
    let hash = SimConfig::tiny(42).run_hash();
    assert_eq!(hash, TINY_RUN_HASH, "tiny run hash {hash:#018x}");
}

#[test]
fn serve_fixture_log_matches_pinned_hash() {
    let cfg = SimConfig::tiny(42);
    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
    let mut engine = ServeEngine::new(
        cfg,
        ServeConfig::default(),
        EmsMethod::Pfdrl,
        forecast,
        None,
    );
    let file = std::fs::File::open(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_tiny.ndjson"
    ))
    .expect("fixture present");
    let mut source = NdjsonSource::new(BufReader::new(file));
    let mut sink = VecSink::default();
    let report = engine.run(&mut source, &mut sink).expect("serve run");
    let mut h = Fnv::new();
    for line in &sink.lines {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    let final_bits = report.final_saved_fraction.to_bits();
    assert_eq!(sink.lines.len(), SERVE_LOG_LINES);
    assert_eq!(h.0, SERVE_LOG_HASH, "serve log hash {:#018x}", h.0);
    assert_eq!(
        final_bits, SERVE_FINAL_SAVED_FRACTION_BITS,
        "final saved fraction bits {final_bits:#018x}"
    );
}

/// `SimConfig::tiny(42)` cut to 2 homes, 1 eval day, stride 30 and 2
/// epochs, so all 16 phases train in seconds.
fn forecast_config(method: ForecastMethod) -> SimConfig {
    let mut cfg = SimConfig::tiny(42);
    cfg.n_residences = 2;
    cfg.eval_days = 1;
    cfg.stride = 30;
    cfg.train.max_epochs = 2;
    cfg.forecast_method = method;
    cfg
}

/// Every exported weight in home/device/layer order, the phase's
/// communication costs, then the mean evaluated accuracy.
fn hash_forecast_phase(method: ForecastMethod, ems: EmsMethod) -> u64 {
    let cfg = forecast_config(method);
    let phase = train_forecasters(&cfg, ems);
    let mut h = Fnv::new();
    for home in &phase.models {
        for model in home {
            model.export_all().iter().for_each(|l| h.f64s(l));
        }
    }
    h.f64(phase.comm_s);
    h.u64(phase.comm_bytes);
    h.u64(phase.comm_logical_bytes);
    h.f64(evaluate_forecast(&cfg, &phase).mean);
    h.0
}

#[test]
fn forecast_phase_of_every_backend_matches_pinned_hash() {
    let mismatches: Vec<String> = FORECAST_PHASE_HASHES
        .iter()
        .filter_map(|&(method, ems, want)| {
            let got = hash_forecast_phase(method, ems);
            (got != want).then(|| format!("{method} {ems:?}: {got:#018x} (pinned {want:#018x})"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
