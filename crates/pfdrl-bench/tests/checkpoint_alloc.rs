//! Pins the checkpoint's copy of the replay rings. `to_snapshot` plus
//! `encode` of a warmed EMS state must allocate the same number of
//! blocks whether the rings hold 200 or 2,000 transitions: each ring is
//! copied as a few whole blocks (rows, slot records, side table), so
//! nothing is allocated per transition. (A per-transition snapshot
//! allocates about ten times more blocks at 2,000 than at 200.)
//!
//! This test binary installs the counting allocator as its own global
//! allocator and must stay a single `#[test]`: the harness runs tests
//! on pool threads, and unrelated concurrent tests would pollute the
//! process-wide counters.

use pfdrl_bench::alloc::{count_allocations, CountingAlloc};
use pfdrl_bench::quick_config;
use pfdrl_core::{train_forecasters, EmsMethod, EmsState};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes of one checkpoint encode after two days
/// with every ring at `capacity`, full.
fn checkpoint_allocations(capacity: usize) -> (u64, u64) {
    let mut cfg = quick_config(11);
    cfg.eval_days = 3;
    cfg.dqn.replay_capacity = capacity;
    let method = EmsMethod::Pfdrl;
    let forecast = train_forecasters(&cfg, method);
    let mut state = EmsState::fresh(&cfg);
    for _ in 0..2 {
        state.advance_day(&cfg, method, &forecast);
    }
    let warm = state.to_snapshot(&cfg, method, forecast.export_state());
    assert!(
        warm.agents
            .iter()
            .flatten()
            .all(|a| a.replay.len() == capacity),
        "two days fill every ring of {capacity}"
    );
    drop(warm);
    let (bytes, allocs, allocated) = count_allocations(|| {
        state
            .to_snapshot(&cfg, method, forecast.export_state())
            .encode()
    });
    assert!(!bytes.is_empty());
    (allocs, allocated)
}

#[test]
fn checkpoint_allocations_do_not_grow_with_replay_capacity() {
    let (small, small_bytes) = checkpoint_allocations(200);
    let (large, large_bytes) = checkpoint_allocations(2000);
    println!(
        "to_snapshot + encode: {small} blocks ({small_bytes} B) at capacity 200, \
         {large} blocks ({large_bytes} B) at capacity 2000"
    );
    assert!(large_bytes > small_bytes, "the larger rings were copied");
    assert_eq!(
        small, large,
        "a checkpoint allocated {small} blocks at capacity 200 but {large} at 2000"
    );
}
