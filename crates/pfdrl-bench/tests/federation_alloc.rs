//! Pins the zero-copy claim of the federation round engine: once the
//! update pool and scratch buffers are warm, a `DflRound` allocates a
//! bounded amount per round — the `Arc` control blocks that carry each
//! home's pooled export (one per home; reclaimed via `Arc::try_unwrap`
//! at the end of the round) plus small merge bookkeeping — instead of
//! re-exporting and cloning every model for every receiver (O(N²)
//! payload clones before this engine existed).
//!
//! This test binary installs the counting allocator as its own global
//! allocator and must stay a single `#[test]`: the harness runs tests on
//! pool threads, and unrelated concurrent tests would pollute the
//! process-wide counters.

use pfdrl_bench::alloc::{count_allocations, CountingAlloc};
use pfdrl_fl::{
    BroadcastBus, DflRound, FaultConfig, HierarchicalRound, LatencyModel, MergePolicy, RoundParams,
    ShardPlan,
};
use pfdrl_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 16;
const ROUNDS: u64 = 8;

fn fleet() -> Vec<Mlp> {
    (0..N)
        .map(|home| {
            let mut rng = StdRng::seed_from_u64(3 + home as u64);
            Mlp::new(
                &[8, 16, 16, 3],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            )
        })
        .collect()
}

/// Allocations per steady-state round: four warmup rounds fill the
/// update pool, size mailbox queues, drain and merge scratch, and the
/// fast path's reduction accumulators; the next `ROUNDS` are counted.
fn steady_allocations_per_round(mut round: impl FnMut(&mut [Mlp], u64)) -> (f64, u64) {
    let mut models = fleet();
    for r in 1..=4u64 {
        round(&mut models, r);
    }
    let ((), allocs, _bytes) = count_allocations(|| {
        for r in 5..=(4 + ROUNDS) {
            round(&mut models, r);
        }
    });
    (allocs as f64 / ROUNDS as f64, allocs)
}

#[test]
fn steady_state_round_allocations_are_bounded() {
    let policy = MergePolicy::default();
    let params = |round| RoundParams {
        round,
        model_id: 0,
        alpha: None,
        policy: &policy,
        participants: None,
    };

    // The per-home engine replays one validate+merge per (home, peer)
    // pair to preserve the historical float order, and each of those
    // keeps a small bookkeeping footprint (an accepted-layers buffer
    // per validated update plus per-layer contribution buckets) —
    // O(N²) tiny allocations, measured ~465/round at N=16, but zero
    // payload clones. That is still far below the O(N²) *payload
    // clones* (one full model copy per (sender, receiver) pair) of the
    // pre-engine exchange.
    let bus = BroadcastBus::new(N, LatencyModel::lan());
    let mut engine = DflRound::new();
    let (per_round, allocs) = steady_allocations_per_round(|models, r| {
        let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
        engine.run(&mut col, &bus, &params(r));
    });
    let bound = (2 * N * N + 16 * N) as f64;
    assert!(
        per_round <= bound,
        "PerHome: {per_round:.1} allocations/round exceeds bound {bound} \
         ({allocs} over {ROUNDS} rounds)"
    );

    // The shared-sum fast path validates each update once for the
    // reduction, so a shard of n_k homes stays O(n_k): one shard over
    // the fleet (the flat topology) within 4·N, and K shards within
    // 4·N plus the top-level aggregate-of-aggregates bookkeeping,
    // O(K) partial buffers per round.
    for shards in [1, 4] {
        let mut engine = HierarchicalRound::new(
            ShardPlan::round_robin(N, shards),
            LatencyModel::lan(),
            &FaultConfig::default(),
        );
        let (per_round, allocs) = steady_allocations_per_round(|models, r| {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            let _ = engine.run(&mut col, &params(r));
        });
        let bound = if shards == 1 {
            (4 * N) as f64
        } else {
            (4 * N + 16 * shards) as f64
        };
        assert!(
            per_round <= bound,
            "Hierarchical({shards} shards): {per_round:.1} allocations/round exceeds \
             bound {bound} ({allocs} over {ROUNDS} rounds)"
        );
    }
}
