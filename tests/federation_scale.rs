//! Acceptance properties of the parallel federation round engine
//! (`DflRound`): under *any* adversarial fault plan the default
//! `PerHome` mode must stay byte-identical to the retained sequential
//! reference — same model bits, same bus statistics — and the O(N)
//! `SharedSum` fast path must be numerically equivalent on fault-free
//! rounds while remaining run-to-run byte-deterministic.

use pfdrl::fl::{
    dfl_round_reference, AggregationMode, BroadcastBus, DflRound, FaultConfig, HierParams,
    HierarchicalRound, LatencyModel, MergePolicy, PayloadCodec, RoundParams, ShardPlan,
};
use pfdrl::nn::{Activation, Layered, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet(n: usize, seed: u64) -> Vec<Mlp> {
    (0..n)
        .map(|home| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add((home as u64) << 8));
            Mlp::new(
                &[5, 9, 9, 3],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            )
        })
        .collect()
}

/// Every parameter of every model, as exact bit patterns.
fn bits(models: &[Mlp]) -> Vec<u64> {
    models
        .iter()
        .flat_map(|m| {
            (0..m.layer_count())
                .flat_map(|i| m.export_layer(i).into_iter().map(f64::to_bits))
                .collect::<Vec<u64>>()
        })
        .collect()
}

fn run_engine(
    models: &mut [Mlp],
    engine: &mut DflRound,
    bus: &BroadcastBus,
    round: u64,
    alpha: Option<usize>,
    policy: &MergePolicy,
    mode: AggregationMode,
) {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    let _ = engine.run(
        &mut col,
        &RoundParams {
            bus,
            round,
            model_id: 0,
            alpha,
            policy,
            mode,
            participants: None,
        },
    );
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

fn run_hier(
    models: &mut [Mlp],
    engine: &mut HierarchicalRound,
    round: u64,
    alpha: Option<usize>,
    policy: &MergePolicy,
) {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    let _ = engine.run(
        &mut col,
        &HierParams {
            round,
            model_id: 0,
            alpha,
            policy,
            participants: None,
        },
    );
}

proptest! {
    /// The parallel engine in `PerHome` mode is byte-identical to the
    /// sequential reference under arbitrary chaos: loss, corruption,
    /// stragglers (whose parked updates cross round boundaries), churn,
    /// full or base-layer (`alpha`) exchange.
    #[test]
    fn per_home_engine_matches_sequential_reference_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..7,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let policy = fault.merge_policy();

        let mut a = fleet(n, seed ^ 0x5EED);
        let mut b = fleet(n, seed ^ 0x5EED);
        prop_assert_eq!(bits(&a), bits(&b));

        let bus_a = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let bus_b = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut engine = DflRound::new();
        for round in 1..=4u64 {
            run_engine(&mut a, &mut engine, &bus_a, round, alpha, &policy,
                       AggregationMode::PerHome);
            let mut refs: Vec<&mut Mlp> = b.iter_mut().collect();
            dfl_round_reference(&mut refs, &bus_b, round, 0, alpha, &policy);
            prop_assert!(
                bits(&a) == bits(&b),
                "round {} diverged (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
        prop_assert_eq!(bus_a.stats(), bus_b.stats());
    }

    /// `SharedSum` on fault-free rounds lands within float-reassociation
    /// tolerance of `PerHome`, and two independent `SharedSum` runs of
    /// the same configuration are byte-identical (the reduction tree is
    /// fixed by fleet size, never by thread count).
    #[test]
    fn shared_sum_is_equivalent_and_deterministic(
        seed in 0u64..10_000,
        n in 2usize..10,
    ) {
        let policy = MergePolicy::default();
        let mut per_home = fleet(n, seed);
        let mut shared = fleet(n, seed);
        let mut shared2 = fleet(n, seed);
        let mut engine = DflRound::new();
        for round in 1..=2u64 {
            for (models, mode) in [
                (&mut per_home, AggregationMode::PerHome),
                (&mut shared, AggregationMode::SharedSum),
                (&mut shared2, AggregationMode::SharedSum),
            ] {
                let bus = BroadcastBus::new(n, LatencyModel::lan());
                run_engine(models, &mut engine, &bus, round, Some(2), &policy, mode);
            }
        }
        prop_assert_eq!(bits(&shared), bits(&shared2));
        for (x, y) in bits(&per_home).iter().zip(bits(&shared).iter()) {
            let (x, y) = (f64::from_bits(*x), f64::from_bits(*y));
            prop_assert!(
                (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                "per-home {} vs shared {} (seed {}, n {})",
                x, y, seed, n
            );
        }
    }

    /// The flat-oracle property of the hierarchy: a single-shard
    /// `HierarchicalRound` is byte-identical to the flat `SharedSum`
    /// engine under *any* chaos plan — same model bits after every
    /// round, same traffic statistics (the aggregate-of-aggregates
    /// merge is `mem::take` at K=1, zero re-association; the synthetic
    /// aggregator uplink is only charged when K>1).
    #[test]
    fn single_shard_hierarchical_is_bitwise_flat_shared_sum(
        seed in 0u64..10_000,
        n in 2usize..10,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let policy = fault.merge_policy();
        let mut flat = fleet(n, seed ^ 0xF1A7);
        let mut hier = fleet(n, seed ^ 0xF1A7);
        let bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut flat_engine = DflRound::new();
        let mut hier_engine = HierarchicalRound::new(
            ShardPlan::round_robin(n, 1), LatencyModel::lan(), &fault);
        for round in 1..=4u64 {
            run_engine(&mut flat, &mut flat_engine, &bus, round, alpha, &policy,
                       AggregationMode::SharedSum);
            run_hier(&mut hier, &mut hier_engine, round, alpha, &policy);
            prop_assert!(
                bits(&flat) == bits(&hier),
                "round {} diverged from the flat oracle (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
        prop_assert_eq!(hier_engine.total_stats(), bus.stats());
    }

    /// Multi-shard rounds are run-to-run byte-deterministic and
    /// invariant to the order shards are presented in: a plan built
    /// from scrambled member lists canonicalizes to the same partition
    /// and replays the same bits and the same exported engine state.
    #[test]
    fn multi_shard_hierarchical_is_deterministic_and_shard_order_invariant(
        seed in 0u64..10_000,
        n in 4usize..12,
        shards in 2usize..5,
        chaos in 0.0f64..0.5,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let policy = fault.merge_policy();
        let plan = ShardPlan::round_robin(n, shards);
        let mut scrambled: Vec<Vec<usize>> = plan.members().to_vec();
        let k = scrambled.len();
        scrambled.rotate_left(seed as usize % k);
        for members in &mut scrambled {
            members.reverse();
        }
        let scrambled_plan = ShardPlan::from_members(scrambled);
        prop_assert_eq!(&scrambled_plan, &plan);

        let mut a = fleet(n, seed ^ 0x0DE8);
        let mut b = fleet(n, seed ^ 0x0DE8);
        let mut ea = HierarchicalRound::new(plan, LatencyModel::lan(), &fault);
        let mut eb = HierarchicalRound::new(scrambled_plan, LatencyModel::lan(), &fault);
        for round in 1..=4u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
        }
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert_eq!(ea.export_state(), eb.export_state());
    }

    /// Chaos fault plans replay bit-identically per seed across
    /// independent multi-shard engines: after every round — including
    /// rounds where straggler deliveries are still parked in per-shard
    /// queues — both the model bits and the full exported engine state
    /// (per-shard counters, bus state, parked updates) are equal.
    #[test]
    fn chaos_fault_plans_replay_bit_identically_per_seed(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in 2usize..4,
    ) {
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let mut a = fleet(n, seed ^ 0xC4A0);
        let mut b = fleet(n, seed ^ 0xC4A0);
        let mut ea = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        let mut eb = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(ea.export_state(), eb.export_state());
        }
    }

    /// Compression × chaos: a seeded fault plan replays bit-identically
    /// in every codec mode — the compressed payloads, the fault fates
    /// acting on them, and the merged model bits are all pure functions
    /// of the seed. Covers single-shard and multi-shard topologies.
    #[test]
    fn compressed_chaos_replays_bit_identically_per_seed_in_every_codec(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in 1usize..4,
        codec_pick in 0usize..3,
    ) {
        let codec = [
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::QuantizedI8 { per_layer_scale: false },
            PayloadCodec::TopK { fraction: 0.2 },
        ][codec_pick];
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let mut a = fleet(n, seed ^ 0xC0DEC);
        let mut b = fleet(n, seed ^ 0xC0DEC);
        let mut ea = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        let mut eb = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
            prop_assert!(
                bits(&a) == bits(&b),
                "round {} diverged (seed {}, n {}, shards {}, codec {})",
                round, seed, n, shards, codec.label()
            );
            prop_assert_eq!(ea.export_state(), eb.export_state());
        }
        // Compression really happened: wire bytes strictly below the
        // logical (pre-compression) bytes whenever anything was sent.
        let stats = ea.total_stats();
        if stats.logical_bytes > 0 {
            prop_assert!(stats.bytes < stats.logical_bytes);
        }
    }

    /// Thread width never changes a flat round: under chaos, both
    /// flat modes give the same model bits and bus statistics one
    /// thread wide and four wide. Columns of 64 homes and more split
    /// their merge across threads.
    #[test]
    fn flat_rounds_are_bit_identical_at_widths_one_and_four_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..150,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
        shared in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let policy = fault.merge_policy();
        let mode = if shared == 1 { AggregationMode::SharedSum } else { AggregationMode::PerHome };
        let run = |width: usize| {
            at_width(width, || {
                let mut models = fleet(n, seed ^ 0x71D7);
                let bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
                let mut engine = DflRound::new();
                for round in 1..=4u64 {
                    run_engine(&mut models, &mut engine, &bus, round, alpha, &policy, mode);
                }
                (bits(&models), bus.stats())
            })
        };
        let (one, four) = (run(1), run(4));
        prop_assert!(
            one == four,
            "widths 1 and 4 diverged (seed {}, n {}, chaos {:.2}, alpha {:?}, {:?})",
            seed, n, chaos, alpha, mode
        );
    }

    /// Thread width never changes a hierarchical round: under chaos,
    /// with shards run in parallel, the model bits and the whole
    /// exported engine state match one thread wide and four wide.
    #[test]
    fn hierarchical_rounds_are_bit_identical_at_widths_one_and_four_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..40,
        shards in 1usize..6,
        chaos in 0.0f64..0.6,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let policy = fault.merge_policy();
        let run = |width: usize| {
            at_width(width, || {
                let mut models = fleet(n, seed ^ 0x41E2);
                let mut engine = HierarchicalRound::new(
                    ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
                for round in 1..=4u64 {
                    run_hier(&mut models, &mut engine, round, None, &policy);
                }
                (bits(&models), engine.export_state())
            })
        };
        let (one, four) = (run(1), run(4));
        prop_assert!(
            one == four,
            "widths 1 and 4 diverged (seed {}, n {}, shards {}, chaos {:.2})",
            seed, n, shards, chaos
        );
    }

    /// A corrupted *compressed* payload demotes the receiver to the
    /// validated per-home fallback exactly as a corrupted raw payload
    /// does: fault fates are pure per-edge hashes, independent of the
    /// payload bytes, so the fast-path/fallback split per round must
    /// be identical between Raw and every compressed codec on the same
    /// seed.
    #[test]
    fn corruption_demotes_compressed_payloads_exactly_as_raw(
        seed in 0u64..10_000,
        n in 3usize..8,
    ) {
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::TopK { fraction: 0.3 },
        ];
        let mut splits: Vec<Vec<(usize, usize)>> = Vec::new();
        for codec in codecs {
            let mut models = fleet(n, seed ^ 0xDE40);
            let bus = BroadcastBus::with_codec(n, LatencyModel::lan(), &fault, codec);
            let mut engine = DflRound::new();
            let mut per_round = Vec::new();
            for round in 1..=4u64 {
                let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
                let outcome = engine.run(
                    &mut col,
                    &RoundParams {
                        bus: &bus,
                        round,
                        model_id: 0,
                        alpha: None,
                        policy: &policy,
                        mode: AggregationMode::SharedSum,
                        participants: None,
                    },
                );
                per_round.push((outcome.fast_path_homes, outcome.fallback_homes));
            }
            splits.push(per_round);
        }
        prop_assert!(
            splits[1] == splits[0] && splits[2] == splits[0],
            "fast/fallback split diverged from raw (seed {}, n {}): raw {:?}, q8 {:?}, topk {:?}",
            seed, n, splits[0], splits[1], splits[2]
        );
    }
}
