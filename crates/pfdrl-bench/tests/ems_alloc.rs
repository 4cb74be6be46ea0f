//! Pins the zero-allocation day pipeline: once the per-home
//! [`DayWorkspace`] buffers are warm (two days fill the replay rings
//! and size every reusable buffer), a steady-state `advance_day` —
//! trace generation, streaming featurization, batched LSTM forecasting,
//! every DRL act/train step and the federation rounds — allocates a
//! small, minutes-independent amount: replay-ring bookkeeping and
//! federation merge scratch, not per-minute feature rows.
//!
//! Before the streaming pipeline a steady day allocated ~180k times /
//! ~1.27 GB at the full-scale canary config (`bench_ems_config()`, as
//! measured when the pipeline landed). This debug-mode test guards the
//! same property at a small config so it runs in the tier-1 suite.
//!
//! This test binary installs the counting allocator as its own global
//! allocator and must stay a single `#[test]`: the harness runs tests
//! on pool threads, and unrelated concurrent tests would pollute the
//! process-wide counters.

use pfdrl_bench::alloc::{count_allocations, CountingAlloc};
use pfdrl_bench::quick_config;
use pfdrl_core::{train_forecasters, EmsMethod, EmsState};
use pfdrl_data::SensorFaultConfig;
use pfdrl_forecast::ForecastMethod;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_day_allocations_are_bounded() {
    // Tiny neighbourhood, but through the real LSTM path (the backend
    // the paper settles on and the one with the deepest scratch reuse).
    let mut cfg = quick_config(11);
    cfg.forecast_method = ForecastMethod::Lstm;
    cfg.train.max_epochs = 1; // weights don't matter, only buffer traffic
    cfg.eval_days = 3;
    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
    let mut state = EmsState::fresh(&cfg);
    for _ in 0..2 {
        state.advance_day(&cfg, EmsMethod::Pfdrl, &forecast);
    }
    let ((), allocs, bytes) = count_allocations(|| {
        state.advance_day(&cfg, EmsMethod::Pfdrl, &forecast);
    });
    // 3 homes x 2 devices x ~1400 steps/day: a per-minute or per-step
    // leak (one feature row per minute was ~8640 allocations alone)
    // blows straight through these budgets.
    assert!(allocs <= 4000, "steady day allocated {allocs} times");
    assert!(bytes <= 2_000_000, "steady day allocated {bytes} bytes");

    // Hostile-telemetry rider: the corrupt-and-impute repair runs fully
    // in place on the day-trace buffers, the health fold mutates
    // pre-sized vectors, and a withheld upload exports nothing. So a
    // steady day with active imputation must not allocate more than
    // the clean day measured above.
    let mut storm_cfg = cfg.clone();
    storm_cfg.sensor_fault = SensorFaultConfig::storm(0xFA11, 0.8);
    let storm_forecast = train_forecasters(&storm_cfg, EmsMethod::Pfdrl);
    let mut storm_state = EmsState::fresh(&storm_cfg);
    for _ in 0..2 {
        storm_state.advance_day(&storm_cfg, EmsMethod::Pfdrl, &storm_forecast);
    }
    let ((), storm_allocs, storm_bytes) = count_allocations(|| {
        storm_state.advance_day(&storm_cfg, EmsMethod::Pfdrl, &storm_forecast);
    });
    assert!(
        storm_state.imputed_minutes > 0,
        "storm config never exercised the imputation path"
    );
    assert!(
        storm_allocs <= allocs,
        "imputation-active day allocated {storm_allocs} times vs {allocs} clean"
    );
    assert!(
        storm_bytes <= bytes,
        "imputation-active day allocated {storm_bytes} bytes vs {bytes} clean"
    );
}
