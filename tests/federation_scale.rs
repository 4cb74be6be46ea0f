//! Acceptance properties of the parallel federation round engines:
//! under *any* adversarial fault plan the per-home `DflRound` must stay
//! byte-identical to the retained sequential reference — same model
//! bits, same bus statistics — and the O(N) shared-sum fast path of
//! `HierarchicalRound` must be numerically equivalent on fault-free
//! rounds, carry the reference's exact traffic with one shard, and stay
//! run-to-run byte-deterministic.

use pfdrl::fl::{
    dfl_round_reference, BroadcastBus, DflRound, FaultConfig, HierarchicalRound, LatencyModel,
    PayloadCodec, RoundOutcome, RoundParams, ShardPlan,
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

fn params(round: u64, alpha: Option<usize>) -> RoundParams<'static> {
    RoundParams {
        round,
        model_id: 0,
        alpha,
        participants: None,
    }
}

fn run_engine(
    models: &mut [Mlp],
    engine: &mut DflRound,
    bus: &mut BroadcastBus,
    round: u64,
    alpha: Option<usize>,
) {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    engine.run(&mut col, bus, &params(round, alpha));
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
) -> RoundOutcome {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    engine.run(&mut col, &params(round, alpha))
}

proptest! {
    /// The parallel engine in `PerHome` mode is byte-identical to the
    /// sequential reference under arbitrary chaos: loss, corruption,
    /// stragglers (whose parked updates cross round boundaries), churn,
    /// full or base-layer (`alpha`) exchange. A third of the cases run
    /// fault-free, where the engine reads complete rounds in place and
    /// the reference still delivers pair by pair.
    #[test]
    fn per_home_engine_matches_sequential_reference_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..7,
        chaos in 0.0f64..0.6,
        clean_pick in 0usize..3,
        alpha_pick in 0usize..2,
    ) {
        let chaos = if clean_pick == 0 { 0.0 } else { chaos };
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };

        let mut a = fleet(n, seed ^ 0x5EED);
        let mut b = fleet(n, seed ^ 0x5EED);
        prop_assert_eq!(bits(&a), bits(&b));

        let mut bus_a = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut bus_b = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut engine = DflRound::new();
        for round in 1..=4u64 {
            run_engine(&mut a, &mut engine, &mut bus_a, round, alpha);
            let mut refs: Vec<&mut Mlp> = b.iter_mut().collect();
            dfl_round_reference(&mut refs, &mut bus_b, round, 0, alpha);
            prop_assert!(
                bits(&a) == bits(&b),
                "round {} diverged (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
        prop_assert_eq!(bus_a.stats(), bus_b.stats());
    }

    /// The shared-sum fast path on fault-free rounds, one shard or
    /// several, lands within float-reassociation tolerance of the
    /// per-home engine, and two independent runs of the same
    /// configuration are byte-identical (the reduction trees are fixed
    /// by shard sizes, never by thread count).
    #[test]
    fn shared_sum_is_equivalent_and_deterministic(
        seed in 0u64..10_000,
        n in 2usize..10,
        shards in 1usize..4,
    ) {
        let mut per_home = fleet(n, seed);
        let mut shared = fleet(n, seed);
        let mut shared2 = fleet(n, seed);
        let mut engine = DflRound::new();
        let mut bus = BroadcastBus::new(n, LatencyModel::lan());
        let hier = || HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &FaultConfig::default());
        let (mut ea, mut eb) = (hier(), hier());
        for round in 1..=2u64 {
            run_engine(&mut per_home, &mut engine, &mut bus, round, Some(2));
            for (models, e) in [(&mut shared, &mut ea), (&mut shared2, &mut eb)] {
                let out = run_hier(models, e, round, Some(2));
                prop_assert_eq!(out.fast_path_homes, n);
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

    /// The fast path's traffic is independent of it: under *any*
    /// chaos plan a single-shard `HierarchicalRound` carries exactly the
    /// sequential reference's traffic on the same plan, round after
    /// round (one shard bus decides every delivery as the fleet bus
    /// does, and the synthetic aggregator uplink is only charged when
    /// K > 1). A third of the cases run fault-free, where the shard bus
    /// accounts complete rounds without queueing a handle.
    #[test]
    fn single_shard_hierarchical_traffic_matches_the_reference_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..10,
        chaos in 0.0f64..0.6,
        clean_pick in 0usize..3,
        alpha_pick in 0usize..2,
    ) {
        let chaos = if clean_pick == 0 { 0.0 } else { chaos };
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let mut reference = fleet(n, seed ^ 0xF1A7);
        let mut hier = fleet(n, seed ^ 0xF1A7);
        let mut bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut hier_engine = HierarchicalRound::new(
            ShardPlan::round_robin(n, 1), LatencyModel::lan(), &fault);
        for round in 1..=4u64 {
            let mut refs: Vec<&mut Mlp> = reference.iter_mut().collect();
            dfl_round_reference(&mut refs, &mut bus, round, 0, alpha);
            run_hier(&mut hier, &mut hier_engine, round, alpha);
            prop_assert!(
                hier_engine.total_stats() == bus.stats(),
                "round {} traffic diverged from the reference (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
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
            run_hier(&mut a, &mut ea, round, None);
            run_hier(&mut b, &mut eb, round, None);
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
        let mut a = fleet(n, seed ^ 0xC4A0);
        let mut b = fleet(n, seed ^ 0xC4A0);
        let mut ea = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        let mut eb = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None);
            run_hier(&mut b, &mut eb, round, None);
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
        codec_pick in 0usize..2,
    ) {
        let codec = [
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::QuantizedI8 { per_layer_scale: false },
        ][codec_pick];
        let fault = FaultConfig::chaos(seed, 0.5);
        let mut a = fleet(n, seed ^ 0xC0DEC);
        let mut b = fleet(n, seed ^ 0xC0DEC);
        let mut ea = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        let mut eb = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None);
            run_hier(&mut b, &mut eb, round, None);
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

    /// Thread width never changes a per-home round on one fleet bus:
    /// under chaos, the model bits and bus statistics match one thread
    /// wide and four wide. Columns of 64 homes and more split their
    /// merge across threads.
    #[test]
    fn flat_rounds_are_bit_identical_at_widths_one_and_four_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..150,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let run = |width: usize| {
            at_width(width, || {
                let mut models = fleet(n, seed ^ 0x71D7);
                let mut bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
                let mut engine = DflRound::new();
                for round in 1..=4u64 {
                    run_engine(&mut models, &mut engine, &mut bus, round, alpha);
                }
                (bits(&models), bus.stats())
            })
        };
        let (one, four) = (run(1), run(4));
        prop_assert!(
            one == four,
            "widths 1 and 4 diverged (seed {}, n {}, chaos {:.2}, alpha {:?})",
            seed, n, chaos, alpha
        );
    }

    /// Thread width never changes a hierarchical round: under chaos,
    /// with shards run in parallel, the model bits and the whole
    /// exported engine state match one thread wide and four wide.
    /// Shard columns of 64 homes and more (one shard reaches 149) split
    /// their merge across threads. A quarter of the cases draw a
    /// negative rate and run fault-free, because under any chaos a
    /// large shard almost never has a home eligible for the fast path.
    #[test]
    fn hierarchical_rounds_are_bit_identical_at_widths_one_and_four_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..150,
        shards in 1usize..6,
        chaos in -0.2f64..0.6,
    ) {
        let fault = FaultConfig::chaos(seed, chaos.max(0.0));
        let run = |width: usize| {
            at_width(width, || {
                let mut models = fleet(n, seed ^ 0x41E2);
                let mut engine = HierarchicalRound::new(
                    ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
                for round in 1..=4u64 {
                    run_hier(&mut models, &mut engine, round, None);
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
    /// payload bytes, so the fast-path/fallback split per round of the
    /// flat (one-shard) fast path must be identical between Raw and
    /// every compressed codec on the same seed.
    #[test]
    fn corruption_demotes_compressed_payloads_exactly_as_raw(
        seed in 0u64..10_000,
        n in 3usize..8,
    ) {
        let fault = FaultConfig::chaos(seed, 0.5);
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::QuantizedI8 { per_layer_scale: false },
        ];
        let mut splits: Vec<Vec<(usize, usize)>> = Vec::new();
        for codec in codecs {
            let mut models = fleet(n, seed ^ 0xDE40);
            let mut engine = HierarchicalRound::with_codec(
                ShardPlan::round_robin(n, 1), LatencyModel::lan(), &fault, codec);
            let mut per_round = Vec::new();
            for round in 1..=4u64 {
                let outcome = run_hier(&mut models, &mut engine, round, None);
                per_round.push((outcome.fast_path_homes, outcome.fallback_homes));
            }
            splits.push(per_round);
        }
        prop_assert!(
            splits[1] == splits[0] && splits[2] == splits[0],
            "fast/fallback split diverged from raw (seed {}, n {}): raw {:?}, q8 {:?}, q8-global {:?}",
            seed, n, splits[0], splits[1], splits[2]
        );
    }
}
