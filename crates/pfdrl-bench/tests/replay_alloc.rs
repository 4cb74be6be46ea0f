//! Pins the flat replay ring's memory. A `DqnAgent` with the fleet's
//! state width (12) and the paper's replay capacity (2,000) is driven
//! through three days of a chained episode shaped like the EMS day
//! loop's: each step's next state becomes the following step's state,
//! the day's last step is terminal, and the next day starts from a
//! fresh state. The first push allocates one block of `capacity + 1`
//! state rows and one block of slot records; no push after it
//! allocates. A chained trajectory that ever spilled a next state would
//! allocate the side table and fail here.
//!
//! This test binary installs the counting allocator as its own global
//! allocator and must stay a single `#[test]`: the harness runs tests
//! on pool threads, and unrelated concurrent tests would pollute the
//! process-wide counters.

use pfdrl_bench::alloc::{count_allocations, CountingAlloc};
use pfdrl_drl::{DqnAgent, DqnConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DIM: usize = 12;
const CAPACITY: usize = 2000;
const MINUTES: usize = 1440;
const DAYS: usize = 3;
/// Bytes of one slot record: reward, row, action and next-state kind.
const SLOT_BYTES: usize = 16;

/// The episode's state at `(day, minute)`: distinct per step, with
/// signed zeros so that a chain test on `==` instead of bits would
/// show.
fn fill_state(day: usize, minute: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..DIM).map(|i| match (day * MINUTES + minute + i) % 5 {
        0 => 0.0,
        1 => -0.0,
        k => (day * MINUTES + minute) as f64 / (k * (i + 1)) as f64,
    }));
}

/// One day-loop step: remember `(cur, a, r, next)`, then `next`
/// becomes `cur`.
fn step(agent: &mut DqnAgent, day: usize, minute: usize, cur: &mut Vec<f64>, next: &mut Vec<f64>) {
    let done = minute + 1 == MINUTES;
    if !done {
        fill_state(day, minute + 1, next);
    }
    agent.remember_step(
        cur,
        minute % 3,
        minute as f64 * 0.25 - 3.0,
        (!done).then_some(next),
    );
    std::mem::swap(cur, next);
}

#[test]
fn chained_days_allocate_one_row_block_and_one_slot_block() {
    let cfg = DqnConfig {
        replay_capacity: CAPACITY,
        ..DqnConfig::slim(5)
    };
    let mut agent = DqnAgent::new(DIM, cfg);
    let mut cur = Vec::with_capacity(DIM);
    let mut next = Vec::with_capacity(DIM);
    fill_state(0, 0, &mut cur);
    // The harness's main thread allocates once when it first blocks
    // waiting for this test; let it get there before counting, since
    // this test reaches its first window within a millisecond.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let ((), first_allocs, first_bytes) =
        count_allocations(|| step(&mut agent, 0, 0, &mut cur, &mut next));
    let blocks = (CAPACITY + 1) * DIM * 8 + CAPACITY * SLOT_BYTES;
    assert!(
        first_allocs <= 2,
        "first push allocated {first_allocs} times"
    );
    assert!(
        first_bytes as usize <= blocks,
        "first push allocated {first_bytes} bytes, more than one row block and one slot block ({blocks})"
    );

    let ((), allocs, bytes) = count_allocations(|| {
        for day in 0..DAYS {
            if day > 0 {
                fill_state(day, 0, &mut cur);
            }
            let from = if day == 0 { 1 } else { 0 };
            for minute in from..MINUTES {
                step(&mut agent, day, minute, &mut cur, &mut next);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "pushes after the first allocated {allocs} times ({bytes} bytes)"
    );
    assert_eq!(
        agent.export_state().replay.len(),
        CAPACITY,
        "three days overfill the ring"
    );
}
