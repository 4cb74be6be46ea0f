//! Property tests for the `PFDS` snapshot format: round-trips over
//! randomized shapes and payloads (including NaN and -0.0 bit
//! patterns), truncation fuzzing, single-bit-flip fuzzing, the
//! content-hash dedup guarantee, and hostile replay-ring records behind
//! a valid checksum. Decoding hostile bytes must *always* return a
//! typed error — never panic, never mis-decode silently.

use pfdrl_drl::{DqnAgent, DqnConfig, DqnState, ReplayBuffer, ReplayError, ReplayState};
use pfdrl_env::EnergyAccount;
use pfdrl_fl::{
    BusState, BusStats, CloudStats, HierShardState, HierState, LayerUpdate, ModelUpdate,
    ShardCounters,
};
use pfdrl_nn::optimizer::AdamState;
use pfdrl_store::crc32::crc32;
use pfdrl_store::{
    ForecastState, HealthState, HomeHealthRecord, MetricsState, RunSnapshot, ServeDeviceState,
    ServeHomeState, ServeState, SnapshotMeta, StoreError, TransportState, FORMAT_VERSION, MAGIC,
};
use proptest::prelude::*;

/// splitmix64: derives arbitrarily many deterministic values from one
/// sampled seed, so strategies stay simple (the vendored proptest shim
/// only supports range/tuple/vec strategies).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fully arbitrary f64 bit pattern — NaN payloads, -0.0,
    /// infinities and subnormals included.
    fn chaos_f64(&mut self) -> f64 {
        f64::from_bits(self.next())
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn vec_f64(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.chaos_f64()).collect()
    }
}

fn account(g: &mut Gen) -> EnergyAccount {
    EnergyAccount {
        standby_total_kwh: g.chaos_f64(),
        standby_saved_kwh: g.chaos_f64(),
        comfort_violation_minutes: g.next(),
        interrupted_on_kwh: g.chaos_f64(),
        minutes: g.next(),
        total_reward: g.chaos_f64(),
    }
}

fn update(g: &mut Gen, n_layers: usize) -> ModelUpdate {
    ModelUpdate {
        sender: g.below(64) as usize,
        round: g.next(),
        model_id: g.below(8),
        layers: (0..n_layers)
            .map(|i| {
                let len = 1 + g.below(5) as usize;
                LayerUpdate {
                    index: i,
                    params: g.vec_f64(len),
                }
            })
            .collect(),
    }
}

/// A capacity-8 ring over 3-wide states, filled by up to 11 pushes of
/// arbitrary bits that chain, end episodes or break the chain (and so
/// spill) at random, as a real ring would be.
fn ring(g: &mut Gen) -> ReplayState {
    let mut rb = ReplayBuffer::new(8);
    let mut last_next: Option<Vec<f64>> = None;
    for _ in 0..g.below(12) {
        let state = match (&last_next, g.below(3)) {
            (Some(prev), 0 | 1) => prev.clone(),
            _ => g.vec_f64(3),
        };
        let next_state = (g.below(4) != 0).then(|| g.vec_f64(3));
        let action = g.below(3) as usize;
        rb.push(&state, action, g.chaos_f64(), next_state.as_deref());
        last_next = next_state;
    }
    rb.export_state()
}

fn dqn_state(g: &mut Gen, layers: &[Vec<f64>]) -> DqnState {
    let layers: Vec<Vec<f64>> = layers.to_vec();
    DqnState {
        qnet: layers.clone(),
        target: layers.clone(),
        opt: AdamState {
            t: g.next(),
            m: layers.clone(),
            v: layers.clone(),
        },
        replay: ring(g),
        rng: [g.next(), g.next(), g.next(), g.next()],
        env_steps: g.next(),
        grad_steps: g.next(),
    }
}

/// Builds a structurally valid snapshot of randomized shape and fully
/// randomized payload bits. With `shared_agents`, every agent carries
/// bit-identical tensors (exercising the dedup path); otherwise each
/// agent's tensors are independently random.
fn build_snapshot(seed: u64, n_homes: usize, n_devices: usize, shared_agents: bool) -> RunSnapshot {
    let g = &mut Gen(seed);
    let n_layers = 1 + g.below(3) as usize;
    let layer_len = 1 + g.below(6) as usize;
    let shared: Vec<Vec<f64>> = (0..n_layers).map(|_| g.vec_f64(layer_len)).collect();

    let agents = (0..n_homes)
        .map(|_| {
            (0..n_devices)
                .map(|_| {
                    // Always draw the per-agent tensors so the random
                    // stream (and thus every other field of the two
                    // compared snapshots) is identical in both modes.
                    let own: Vec<Vec<f64>> = (0..n_layers).map(|_| g.vec_f64(layer_len)).collect();
                    dqn_state(g, if shared_agents { &shared } else { &own })
                })
                .collect()
        })
        .collect();

    let eval_days = g.below(4) as usize;
    RunSnapshot {
        meta: SnapshotMeta {
            config_hash: g.next(),
            method: format!("M{}", g.below(1000)),
            next_day: g.next(),
            fed_round: g.next(),
            n_homes: n_homes as u64,
            n_devices: n_devices as u64,
        },
        forecast: ForecastState {
            train_wall_s: g.chaos_f64(),
            comm_s: g.chaos_f64(),
            comm_bytes: g.next(),
            comm_logical_bytes: g.next(),
            weights: (0..n_homes)
                .map(|_| {
                    (0..n_devices)
                        .map(|_| (0..n_layers).map(|_| g.vec_f64(layer_len)).collect())
                        .collect()
                })
                .collect(),
        },
        agents,
        transport: TransportState {
            bus: BusState {
                stats: BusStats {
                    messages: g.next(),
                    bytes: g.next(),
                    logical_bytes: g.next(),
                    dropped_offline: g.next(),
                    dropped_loss: g.next(),
                    corrupted: g.next(),
                    delayed: g.next(),
                    delay_seconds: g.chaos_f64(),
                },
                parked_ready: (0..n_homes)
                    .map(|_| (0..g.below(2)).map(|_| update(g, n_layers)).collect())
                    .collect(),
                parked_staged: (0..n_homes)
                    .map(|_| (0..g.below(2)).map(|_| update(g, n_layers)).collect())
                    .collect(),
            },
            cloud: CloudStats {
                uploads: g.next(),
                downloads: g.next(),
                upload_bytes: g.next(),
                logical_upload_bytes: g.next(),
                download_bytes: g.next(),
                dropped_offline: g.next(),
                dropped_loss: g.next(),
                corrupted: g.next(),
                delayed: g.next(),
                rejected: g.next(),
                empty_rounds: g.next(),
                missed_downloads: g.next(),
                delay_seconds: g.chaos_f64(),
            },
        },
        metrics: MetricsState {
            total: account(g),
            daily_saved_fraction: g.vec_f64(eval_days),
            daily_saved_kwh_per_client: g.vec_f64(eval_days),
            hourly_saved: g.vec_f64(24),
            hourly_standby: g.vec_f64(24),
            per_home_late: (0..n_homes).map(|_| account(g)).collect(),
        },
        health: if g.below(2) == 0 {
            None
        } else {
            Some(HealthState {
                per_home: (0..n_homes)
                    .map(|_| HomeHealthRecord {
                        state: g.below(3) as u8,
                        dirty_days: g.next() as u32,
                        clean_days: g.next() as u32,
                    })
                    .collect(),
                imputed_minutes: g.next(),
                health_transitions: g.next(),
                quarantined_home_days: g.next(),
                daily_mean_loss: g.vec_f64(eval_days),
            })
        },
        serve: if g.below(2) == 0 {
            None
        } else {
            Some(ServeState {
                cursor: g.next(),
                lines_consumed: g.next(),
                decisions: g.next(),
                shed_stale: g.next(),
                shed_out_of_span: g.next(),
                shed_unknown_home: g.next(),
                shed_malformed: g.next(),
                rejected_backpressure: g.next(),
                sink_retries: g.next(),
                gap_imputed: g.next(),
                repaired_values: g.next(),
                quarantined_shed: g.next(),
                homes: (0..n_homes)
                    .map(|_| ServeHomeState {
                        imputed_today: g.next() as u32,
                        loss_sum: g.chaos_f64(),
                        loss_steps: g.next(),
                        nonfinite_losses: g.next() as u32,
                        saved_hourly: g.vec_f64(24),
                        standby_hourly: g.vec_f64(24),
                        devices: (0..n_devices)
                            .map(|_| {
                                let prev_len = g.below(4) as usize;
                                let today_len = g.below(4) as usize;
                                ServeDeviceState {
                                    last_good_watt: g.chaos_f64(),
                                    steps_since_train: g.next(),
                                    account: account(g),
                                    prev_watts: g.vec_f64(prev_len),
                                    today_watts: g.vec_f64(today_len),
                                }
                            })
                            .collect(),
                    })
                    .collect(),
            })
        },
        shard: if g.below(2) == 0 {
            None
        } else {
            let n_shards = 1 + g.below(3) as usize;
            Some(HierState {
                home_shard: (0..n_homes)
                    .map(|_| g.below(n_shards as u64) as u32)
                    .collect(),
                agg_bytes: g.next(),
                agg_logical_bytes: g.next(),
                agg_messages: g.next(),
                peak_shard_bytes: g.next(),
                shards: (0..n_shards)
                    .map(|_| {
                        let pop = 1 + g.below(3) as usize;
                        HierShardState {
                            counters: ShardCounters {
                                rounds: g.next(),
                                fast_path_homes: g.next(),
                                fallback_homes: g.next(),
                                peak_payload_bytes: g.next(),
                            },
                            bus: BusState {
                                stats: BusStats {
                                    messages: g.next(),
                                    bytes: g.next(),
                                    logical_bytes: g.next(),
                                    dropped_offline: g.next(),
                                    dropped_loss: g.next(),
                                    corrupted: g.next(),
                                    delayed: g.next(),
                                    delay_seconds: g.chaos_f64(),
                                },
                                parked_ready: (0..pop)
                                    .map(|_| (0..g.below(2)).map(|_| update(g, n_layers)).collect())
                                    .collect(),
                                parked_staged: (0..pop)
                                    .map(|_| (0..g.below(2)).map(|_| update(g, n_layers)).collect())
                                    .collect(),
                            },
                        }
                    })
                    .collect(),
            })
        },
    }
}

proptest! {
    /// Encode → decode → re-encode is the identity on bytes, for any
    /// shape and any payload bits. (Byte-level equality is the canonical
    /// comparison: NaN != NaN under PartialEq, but the encoding of a
    /// NaN's exact bit pattern is deterministic.)
    #[test]
    fn round_trip_is_byte_identity(
        seed in 0u64..u64::MAX,
        n_homes in 1usize..4,
        n_devices in 1usize..3,
        shared in 0u8..2,
    ) {
        let snap = build_snapshot(seed, n_homes, n_devices, shared == 1);
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        // Integer-only substructures also compare directly.
        prop_assert_eq!(&back.meta, &snap.meta);
        prop_assert_eq!(back.transport.bus.stats.messages, snap.transport.bus.stats.messages);
    }

    /// Every truncation of a valid snapshot decodes to an error — never
    /// a panic, never a silent partial decode.
    #[test]
    fn truncation_always_errors(
        seed in 0u64..u64::MAX,
        cut_num in 0u64..997,
    ) {
        let snap = build_snapshot(seed, 2, 1, false);
        let bytes = snap.encode();
        let cut = (cut_num as usize * bytes.len()) / 997;
        prop_assert!(cut < bytes.len());
        prop_assert!(RunSnapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }

    /// Every single-bit flip anywhere in the file is detected: header
    /// flips hit the magic/version/section-table checks, payload flips
    /// hit the per-section CRC32.
    #[test]
    fn single_bit_flip_is_always_detected(
        seed in 0u64..u64::MAX,
        pos_num in 0u64..9973,
    ) {
        let snap = build_snapshot(seed, 2, 1, false);
        let mut bytes = snap.encode();
        let bit = (pos_num as usize * (bytes.len() * 8)) / 9973;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            RunSnapshot::decode(&bytes).is_err(),
            "flip of bit {} (byte {}) went undetected", bit, bit / 8
        );
    }

    /// Content-hash dedup: a snapshot where all agents share identical
    /// tensors encodes strictly smaller than one where every agent's
    /// tensors are independently random, at the same shape.
    #[test]
    fn dedup_shrinks_shared_tensors(seed in 0u64..u64::MAX) {
        let shared = build_snapshot(seed, 3, 2, true).encode().len();
        let distinct = build_snapshot(seed, 3, 2, false).encode().len();
        prop_assert!(
            shared < distinct,
            "shared {shared} bytes >= distinct {distinct} bytes"
        );
    }
}

/// The on-disk header layout is a stable public contract (documented in
/// DESIGN.md): 4 magic bytes, little-endian u32 version, little-endian
/// u32 section count — 6 mandatory sections plus the optional HEALTH
/// and SERVE sections when the corresponding state is present.
#[test]
fn header_layout_matches_documented_format() {
    let mut snap = build_snapshot(42, 1, 1, false);
    snap.serve = None;
    snap.shard = None;
    for (health, expected) in [
        (None, 6u32),
        (snap.health.take().or(Some(Default::default())), 7),
    ] {
        snap.health = health;
        let bytes = snap.encode();
        assert_eq!(&bytes[0..4], &MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            FORMAT_VERSION
        );
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            expected
        );
    }
    snap.serve = Some(Default::default());
    let bytes = snap.encode();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 8);
    snap.shard = Some(Default::default());
    let bytes = snap.encode();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 9);
}

/// Exhaustive truncation sweep on one small snapshot: every proper
/// prefix must fail cleanly.
#[test]
fn every_prefix_of_a_small_snapshot_errors() {
    let bytes = build_snapshot(7, 1, 1, false).encode();
    for cut in 0..bytes.len() {
        assert!(
            RunSnapshot::decode(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

/// Rebuilds `bytes` with `edit` applied to the `AGENTS` section payload
/// and that section's CRC recomputed, so that the checksum passes and
/// the payload parser has to catch the damage.
fn edit_agents(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    const AGENTS: u32 = 4;
    let n = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let mut out = bytes[..12].to_vec();
    let mut pos = 12;
    let mut edit = Some(edit);
    for _ in 0..n {
        let kind = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let mut payload = bytes[pos + 16..pos + 16 + len].to_vec();
        if kind == AGENTS {
            (edit.take().unwrap())(&mut payload);
        }
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        pos += 16 + len;
    }
    out
}

/// Byte offsets of the one ring in a one-agent snapshot's `AGENTS`
/// payload.
struct RingAt {
    /// Capacity; dim, len, write and head follow 8 bytes apart.
    fields: usize,
    /// Length prefix of the row block.
    rows: usize,
    /// First slot record.
    slots: usize,
    /// Length prefix of the side table.
    spill: usize,
}

impl RingAt {
    fn of(agent: &DqnState) -> Self {
        let ids = |layers: &[Vec<f64>]| 8 + 8 * layers.len();
        // Home and device counts, then the network and optimizer ids.
        let fields =
            16 + ids(&agent.qnet) + ids(&agent.target) + 8 + ids(&agent.opt.m) + ids(&agent.opt.v);
        let rows = fields + 40;
        let slots = rows + 8 + 8 * agent.replay.rows.len();
        RingAt {
            fields,
            rows,
            slots,
            spill: slots + 15 * agent.replay.len(),
        }
    }
}

fn put_u64(payload: &mut [u8], at: usize, v: u64) {
    payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn tiny_agent_config() -> DqnConfig {
    DqnConfig {
        replay_capacity: 8,
        hidden_layers: 1,
        hidden_width: 4,
        ..DqnConfig::slim(3)
    }
}

/// A one-agent snapshot whose agent is a real 3-wide DQN with a full
/// capacity-8 ring: chained throughout, or broken at every push so
/// that it spills.
fn ring_snapshot(spilled: bool) -> RunSnapshot {
    let mut agent = DqnAgent::new(3, tiny_agent_config());
    for i in 0..11 {
        let x = i as f64;
        let state = if spilled { [x, -x, 0.5] } else { [x, x, x] };
        let next = if spilled {
            [x + 0.25, 1.0, -0.0]
        } else {
            [x + 1.0, x + 1.0, x + 1.0]
        };
        agent.remember_step(&state, i % 3, x * 0.5, Some(&next));
    }
    let mut snap = build_snapshot(11, 1, 1, false);
    snap.agents[0][0] = agent.export_state();
    assert_eq!(snap.agents[0][0].replay.len(), 8);
    assert_eq!(!snap.agents[0][0].replay.spill.is_empty(), spilled);
    snap
}

/// Restores an agent from the one ring of a decoded snapshot.
fn restore(snap: &RunSnapshot) -> Result<(), String> {
    DqnAgent::new(3, tiny_agent_config()).restore_state(&snap.agents[0][0])
}

/// Every ring invariant the decoder and `restore_state` check, broken
/// one at a time in otherwise valid v3 bytes with a valid checksum:
/// each must surface as its typed error, and nothing may restore.
#[test]
fn hostile_ring_records_decode_to_typed_errors() {
    type Edit = Box<dyn Fn(&mut Vec<u8>, &RingAt)>;
    let replay = |e: ReplayError| Err(StoreError::Replay(e));
    let truncated = Err(StoreError::Truncated {
        context: "agents section",
    });
    let rows_block = |rows: usize| ReplayError::Block {
        block: "rows",
        len: rows,
        expected: 27,
    };
    // (ring, edit, decode result); `Ok(())` marks a ring the decoder
    // accepts and `restore_state` must turn away.
    let cases: Vec<(bool, Edit, Result<(), StoreError>)> = vec![
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields, 0)),
            replay(ReplayError::Capacity { capacity: 0 }),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields, 7)),
            replay(ReplayError::Overfull {
                len: 8,
                capacity: 7,
            }),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields + 24, 8)),
            replay(ReplayError::WriteCursor {
                write: 8,
                len: 8,
                capacity: 8,
            }),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields + 8, 0)),
            replay(ReplayError::Width { dim: 0, len: 8 }),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields + 8, 2)),
            replay(ReplayError::Block {
                block: "rows",
                len: 27,
                expected: 18,
            }),
        ),
        (
            false,
            // One row value short: prefix and block shrink together.
            Box::new(|p, at| {
                put_u64(p, at.rows, 26);
                p.drain(at.slots - 8..at.slots);
            }),
            replay(rows_block(26)),
        ),
        (
            false,
            Box::new(|p, at| {
                put_u64(p, at.rows, 28);
                p.splice(at.slots..at.slots, [0u8; 8]);
            }),
            replay(rows_block(28)),
        ),
        (
            true,
            Box::new(|p, at| {
                put_u64(p, at.spill, 25);
                p.splice(at.spill + 8..at.spill + 8, [0u8; 8]);
            }),
            replay(ReplayError::Block {
                block: "spill",
                len: 25,
                expected: 24,
            }),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields + 32, 0)),
            replay(ReplayError::Head {
                head: 0,
                expected: 2,
            }),
        ),
        (
            false,
            Box::new(|p, at| p[at.slots + 8..at.slots + 12].copy_from_slice(&9u32.to_le_bytes())),
            replay(ReplayError::Row { index: 0, row: 9 }),
        ),
        (
            false,
            Box::new(|p, at| p[at.slots + 15 + 14] = 2),
            replay(ReplayError::Spilled { index: 1 }),
        ),
        (
            false,
            Box::new(|p, at| p[at.slots + 14] = 3),
            Err(StoreError::Malformed {
                context: "replay slot kind",
            }),
        ),
        (
            false,
            Box::new(|p, at| p[at.slots + 12..at.slots + 14].copy_from_slice(&3u16.to_le_bytes())),
            Ok(()),
        ),
        (
            true,
            Box::new(|p, at| {
                p[at.slots + 12..at.slots + 14].copy_from_slice(&u16::MAX.to_le_bytes())
            }),
            Ok(()),
        ),
        (
            false,
            // A row block longer than the section: no allocation, no read.
            Box::new(|p, at| put_u64(p, at.rows, u64::MAX / 8)),
            truncated.clone(),
        ),
        (
            false,
            Box::new(|p, at| put_u64(p, at.fields + 16, u64::MAX)),
            truncated.clone(),
        ),
        (
            false,
            Box::new(|p, at| p.truncate(at.rows + 8 + 100)),
            truncated.clone(),
        ),
        (
            false,
            Box::new(|p, at| p.truncate(at.slots + 15 * 3 + 7)),
            truncated.clone(),
        ),
        (
            true,
            Box::new(|p, at| p.truncate(at.spill + 8 + 8 * 10 + 3)),
            truncated.clone(),
        ),
    ];
    for (i, (spilled, edit, expected)) in cases.into_iter().enumerate() {
        let snap = ring_snapshot(spilled);
        let at = RingAt::of(&snap.agents[0][0]);
        let bytes = snap.encode();
        let clean = RunSnapshot::decode(&bytes).unwrap();
        assert_eq!(restore(&clean), Ok(()), "case {i}: the clean ring restores");
        let hostile = edit_agents(&bytes, |p| edit(p, &at));
        let decoded = RunSnapshot::decode(&hostile);
        match expected {
            Ok(()) => {
                let snap = decoded.unwrap_or_else(|e| panic!("case {i}: {e}"));
                assert!(restore(&snap).is_err(), "case {i} restored");
            }
            Err(e) => assert_eq!(decoded.err(), Some(e), "case {i}"),
        }
    }
}
