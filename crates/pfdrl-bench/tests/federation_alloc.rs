//! Pins the zero-copy claim of the federation round engines: once the
//! export buffers and scratch are warm, a round allocates no payload.
//! Each home exports into a buffer the engine keeps across rounds, and
//! on a bus without a fault plan every home reads its deliveries in
//! place from those buffers, so what a round allocates is small merge
//! and reduction bookkeeping, instead of re-exporting and cloning every
//! model for every receiver (O(N²) payload clones before this engine
//! existed).
//!
//! This test binary installs the counting allocator as its own global
//! allocator and must stay a single `#[test]`: the harness runs tests on
//! pool threads, and unrelated concurrent tests would pollute the
//! process-wide counters.

use pfdrl_bench::alloc::{count_allocations, CountingAlloc};
use pfdrl_fl::{
    BroadcastBus, DflRound, FaultConfig, HierarchicalRound, LatencyModel, RoundParams, ShardPlan,
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

/// Allocations per steady-state round: four warmup rounds size the
/// export buffers and the merge scratch; the next `ROUNDS` are counted.
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
    let params = |round| RoundParams {
        round,
        model_id: 0,
        alpha: None,
        participants: None,
    };

    // The per-home engine replays one validate+merge per (home, peer)
    // pair to preserve the historical float order. Each home's merge
    // keeps its bookkeeping per home, not per pair: per-layer buckets
    // of borrowed contributions, which grow as the N−1 updates arrive,
    // and one accumulator. Measured 209 allocations per round at
    // N = 16, and no payload clone, where the pre-engine exchange made
    // one full model copy per (sender, receiver) pair.
    let mut bus = BroadcastBus::new(N, LatencyModel::lan());
    let mut engine = DflRound::new();
    let (per_round, allocs) = steady_allocations_per_round(|models, r| {
        let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
        engine.run(&mut col, &mut bus, &params(r));
    });
    let bound = (16 * N) as f64;
    assert!(
        per_round <= bound,
        "PerHome: {per_round:.1} allocations/round exceeds bound {bound} \
         ({allocs} over {ROUNDS} rounds)"
    );

    // The shared-sum fast path sums each shard's payloads once, into
    // one accumulator per layer per tree leaf, and merges every home in
    // place. One shard over the fleet (the flat topology) measured 10
    // allocations per round. K shards add a partial sum per shard, the
    // per-shard columns and, on a multi-core host, the fork-join's
    // worker spawns for the two shard loops: measured 25, 35 and 49
    // allocations per round at K = 4 on 1, 2 and 4 threads.
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
            N as f64
        } else {
            (2 * N + 8 * shards) as f64
        };
        assert!(
            per_round <= bound,
            "Hierarchical({shards} shards): {per_round:.1} allocations/round exceeds \
             bound {bound} ({allocs} over {ROUNDS} rounds)"
        );
    }
}
