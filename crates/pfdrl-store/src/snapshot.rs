//! The `PFDS` snapshot format and its encoder/decoder.
//!
//! A snapshot is everything needed to resume a federated EMS run at a
//! day boundary and reproduce the uninterrupted run bit for bit:
//! per-residence DQN agents (both networks, Adam moments, replay
//! buffer, RNG stream position, step counters), trained forecaster
//! weights, federation transport state (bus/cloud statistics — the
//! latency model is linear in them — plus any straggler-parked
//! updates from an active fault plan), the federation round counter,
//! and the metric accumulators built up over completed days.
//!
//! ## File layout
//!
//! ```text
//! magic "PFDS" | version u32 | section count u32
//! repeated:  kind u32 | payload len u64 | CRC-32 u32 | payload bytes
//! ```
//!
//! All integers little-endian; all floats stored by raw bit pattern so
//! NaN payloads and signed zeros survive the round trip. Each section
//! payload is independently checksummed; the decoder verifies every
//! CRC before parsing a single payload byte, rejects unknown versions,
//! unknown section kinds, duplicate sections and missing mandatory
//! sections, and never panics on hostile input (lengths are validated
//! against the bytes present before any allocation).
//!
//! ## Tensor dedup
//!
//! Network layers, Adam moments, forecaster weights and in-flight
//! update payloads are interned into one content-addressed
//! [`TensorPool`] (section `TENSORS`) and referenced by index
//! everywhere else. After a γ broadcast every residence carries
//! bit-identical base layers, and each DQN's target network mirrors its
//! Q-network between syncs; interning collapses that to one stored copy
//! each.
//!
//! ## Replay rings (version 3)
//!
//! Each agent's record in `AGENTS` carries its replay ring inline, as
//! the ring stores it: capacity, dim, len, write and head (`u64` each),
//! the `(capacity + 1) × dim` row block and the side table (each a
//! length-prefixed `f64` block, the side table empty or
//! `capacity × dim`) around `len` 15-byte slot records (reward bits,
//! row `u32`, action `u16`, next kind `u8`). Encoding and decoding a
//! ring are bulk copies, and the decoder checks every ring invariant
//! ([`ReplayState::validate`]) before a ring can be restored.
//!
//! ## Reserved slots
//!
//! Four slots of version 3 carry no field any more: in `TRANSPORT` and
//! in every `SHARD` bus, a bus counter (after `dropped_loss`) and the
//! mailbox queues (after the bus counters), and, at the end of
//! `TRANSPORT`, a cloud model flag and a cloud upload count. The
//! encoder writes each as every earlier build whose snapshots can still
//! resume did: zero, and for the mailboxes the receiver count followed
//! by that many zero lengths. The decoder rejects any other value as
//! [`StoreError::Malformed`] naming the slot. So the layout, and the
//! bytes of every snapshot, stay those of the builds before the fields
//! went.

use pfdrl_drl::replay::{Next, Slot};
use pfdrl_drl::{DqnState, ReplayState};
use pfdrl_env::account::EnergyAccount;
use pfdrl_fl::{
    BusState, BusStats, CloudStats, HierShardState, HierState, LayerUpdate, ModelUpdate,
    ShardCounters,
};
use pfdrl_nn::optimizer::AdamState;

use std::io::{self, Write};

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::tensor::TensorPool;
use crate::wire::{Reader, Writer};

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"PFDS";
/// The one format version this build writes and reads. Version 2 added
/// the logical (pre-compression) byte counters to the bus, cloud, shard
/// and forecast stats; version 3 writes each replay ring inline as one
/// block instead of one pooled tensor pair per transition.
pub const FORMAT_VERSION: u32 = 3;

/// Bytes of one replay slot record: reward bits, row, action and next
/// kind.
const SLOT_BYTES: usize = 15;

/// Section kinds. Values are part of the on-disk format.
pub mod section {
    /// Run identity: config fingerprint, method, progress counters.
    pub const META: u32 = 1;
    /// Deduplicated tensor pool backing every other section.
    pub const TENSORS: u32 = 2;
    /// Forecaster phase: weights and accumulated comm/wall costs.
    pub const FORECAST: u32 = 3;
    /// Per-residence, per-device DQN agent states.
    pub const AGENTS: u32 = 4;
    /// Bus + cloud state: stats and parked stragglers.
    pub const TRANSPORT: u32 = 5;
    /// Metric accumulators over completed evaluation days.
    pub const METRICS: u32 = 6;
    /// Per-home telemetry health machines + supervision history.
    /// Optional: only present when sensor-fault injection or training
    /// supervision is active, so fault-free snapshots stay byte-
    /// identical to the pre-health format.
    pub const HEALTH: u32 = 7;
    /// Mid-day service-loop state: stream cursor, shed/backpressure
    /// counters and per-device live buffers. Optional: only written by
    /// `pfdrl-serve`, so batch snapshots keep the existing format.
    pub const SERVE: u32 = 8;
    /// Hierarchical federation state: shard assignment, per-shard
    /// counters and buses, synthetic aggregator-link traffic.
    /// Optional: only written when `AggregationMode::Hierarchical` is
    /// active, so flat-mode snapshots stay byte-identical to the
    /// pre-shard format.
    pub const SHARD: u32 = 9;
}

const ALL_SECTIONS: [u32; 6] = [
    section::META,
    section::TENSORS,
    section::FORECAST,
    section::AGENTS,
    section::TRANSPORT,
    section::METRICS,
];

/// Run identity and progress. A resume refuses to proceed unless
/// `config_hash` and `method` match the resuming configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Fingerprint of the `SimConfig` (checkpoint policy excluded, so
    /// changing only checkpoint knobs does not invalidate snapshots).
    pub config_hash: u64,
    /// Training method name (`"pfdrl"`, `"fl"`, …).
    pub method: String,
    /// First evaluation day the resumed run still has to execute.
    pub next_day: u64,
    /// Federation round counter at the capture point.
    pub fed_round: u64,
    /// Residence count (shape check before touching agent data).
    pub n_homes: u64,
    /// Devices per residence.
    pub n_devices: u64,
}

/// Forecast phase output: per-home, per-device, per-layer weights plus
/// the accumulated costs that feed the headline overhead numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastState {
    /// Wall-clock seconds spent training forecasters (informational;
    /// replayed into the resumed run's totals unchanged).
    pub train_wall_s: f64,
    /// Simulated communication seconds of the forecast phase.
    pub comm_s: f64,
    /// Bytes exchanged during the forecast phase (wire size).
    pub comm_bytes: u64,
    /// Bytes the same traffic would occupy uncompressed.
    pub comm_logical_bytes: u64,
    /// `weights[home][device][layer]` — flattened layer parameters.
    pub weights: Vec<Vec<Vec<Vec<f64>>>>,
}

/// Federation transport at the capture point. The parked straggler
/// queues are not empty under an active fault plan and must survive
/// for bit-identical resume.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportState {
    /// LAN broadcast bus: stats and parked queues.
    pub bus: BusState,
    /// Cloud server counters, its only cross-round state.
    pub cloud: CloudStats,
}

/// Metric accumulators over the completed evaluation days.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsState {
    /// Fleet-wide energy account.
    pub total: EnergyAccount,
    /// Per-completed-day saved fraction.
    pub daily_saved_fraction: Vec<f64>,
    /// Per-completed-day saved kWh per client.
    pub daily_saved_kwh_per_client: Vec<f64>,
    /// Hour-of-day saved kWh accumulator (24 bins).
    pub hourly_saved: Vec<f64>,
    /// Hour-of-day standby kWh accumulator (24 bins).
    pub hourly_standby: Vec<f64>,
    /// Per-home accounts over the convergence window (late days).
    pub per_home_late: Vec<EnergyAccount>,
}

/// One home's telemetry health machine at the capture point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HomeHealthRecord {
    /// Health state: 0 = Healthy, 1 = Degraded, 2 = Quarantined.
    pub state: u8,
    /// Consecutive dirty (above-threshold imputation) days.
    pub dirty_days: u32,
    /// Consecutive clean days while quarantined (hysteresis counter).
    pub clean_days: u32,
}

/// Telemetry-health and training-supervision state (section `HEALTH`).
///
/// Absent from snapshots of fault-free, unsupervised runs — decoding
/// a snapshot without this section yields `None`, which keeps every
/// pre-health snapshot readable and every fault-free snapshot byte-
/// identical to the earlier format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthState {
    /// Per-home health machines.
    pub per_home: Vec<HomeHealthRecord>,
    /// Total imputed minutes across all homes/devices/days.
    pub imputed_minutes: u64,
    /// Total health state transitions.
    pub health_transitions: u64,
    /// Home-days spent quarantined.
    pub quarantined_home_days: u64,
    /// Checkpoint rollbacks triggered by the divergence supervisor.
    pub rollbacks: u64,
    /// Per-completed-day fleet mean train loss (supervision input; a
    /// pure function of this history decides rollbacks, so resume
    /// replays the exact same decisions).
    pub daily_mean_loss: Vec<f64>,
}

/// One live device inside a [`ServeState`] capture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeDeviceState {
    /// Forward-fill seed for the repair scan (last good watt today).
    pub last_good_watt: f64,
    /// Steps since the last gradient step (serve train cadence).
    pub steps_since_train: u64,
    /// In-progress day's energy account (folded at day close).
    pub account: EnergyAccount,
    /// Repaired watts of the last completed day (empty while priming).
    pub prev_watts: Vec<f64>,
    /// Repaired watts of the in-progress day, up to the cursor.
    pub today_watts: Vec<f64>,
}

/// One home's live serve-loop state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeHomeState {
    /// Repaired device-minutes so far today (health dirt input).
    pub imputed_today: u32,
    /// Sum of finite train losses so far today.
    pub loss_sum: f64,
    /// Count of finite train losses so far today.
    pub loss_steps: u64,
    /// Count of non-finite (skipped) train losses so far today.
    pub nonfinite_losses: u32,
    /// Hour-of-day saved kWh accumulated so far today (24 bins; folded
    /// into the metrics accumulators at day close).
    pub saved_hourly: Vec<f64>,
    /// Hour-of-day standby kWh accumulated so far today (24 bins).
    pub standby_hourly: Vec<f64>,
    /// Per-device live state.
    pub devices: Vec<ServeDeviceState>,
}

/// Service-loop state (section `SERVE`): everything the streaming
/// engine holds beyond [`RunSnapshot`]'s day-boundary fields, so a
/// mid-day kill resumes bit-exactly. Absent from batch snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeState {
    /// Next simulated minute the engine will ingest.
    pub cursor: u64,
    /// Source lines fully consumed (resume fast-forwards exactly this
    /// many lines, so shed counters replay identically).
    pub lines_consumed: u64,
    /// Decisions emitted so far.
    pub decisions: u64,
    /// Records shed: minute older than the ingest cursor.
    pub shed_stale: u64,
    /// Records shed: minute outside the serving span.
    pub shed_out_of_span: u64,
    /// Records shed: home id outside the fleet.
    pub shed_unknown_home: u64,
    /// Records shed: unparseable line or wrong device count.
    pub shed_malformed: u64,
    /// Chunk-early drains forced by a full ingress queue.
    pub rejected_backpressure: u64,
    /// Sink busy-retries absorbed by the emit loop.
    pub sink_retries: u64,
    /// Device-minutes synthesized for minutes that never arrived.
    pub gap_imputed: u64,
    /// Device-minutes whose delivered value failed validation.
    pub repaired_values: u64,
    /// Decisions suppressed because the home was quarantined.
    pub quarantined_shed: u64,
    /// Per-home live state.
    pub homes: Vec<ServeHomeState>,
}

/// One complete, self-contained capture of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Run identity and progress counters.
    pub meta: SnapshotMeta,
    /// Forecaster weights and phase costs.
    pub forecast: ForecastState,
    /// `agents[home][device]` DQN states.
    pub agents: Vec<Vec<DqnState>>,
    /// Bus and cloud state.
    pub transport: TransportState,
    /// Metric accumulators.
    pub metrics: MetricsState,
    /// Telemetry health + supervision state; `None` when inactive.
    pub health: Option<HealthState>,
    /// Service-loop state; `None` for batch snapshots.
    pub serve: Option<ServeState>,
    /// Hierarchical federation state; `None` for flat-mode runs.
    pub shard: Option<HierState>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_account(w: &mut Writer, a: &EnergyAccount) {
    w.put_f64(a.standby_total_kwh);
    w.put_f64(a.standby_saved_kwh);
    w.put_u64(a.comfort_violation_minutes);
    w.put_f64(a.interrupted_on_kwh);
    w.put_u64(a.minutes);
    w.put_f64(a.total_reward);
}

fn decode_account(r: &mut Reader<'_>) -> Result<EnergyAccount, StoreError> {
    Ok(EnergyAccount {
        standby_total_kwh: r.f64()?,
        standby_saved_kwh: r.f64()?,
        comfort_violation_minutes: r.u64()?,
        interrupted_on_kwh: r.f64()?,
        minutes: r.u64()?,
        total_reward: r.f64()?,
    })
}

fn encode_update(w: &mut Writer, pool: &mut TensorPool, u: &ModelUpdate) {
    w.put_usize(u.sender);
    w.put_u64(u.round);
    w.put_u64(u.model_id);
    w.put_usize(u.layers.len());
    for layer in &u.layers {
        w.put_usize(layer.index);
        w.put_u64(pool.intern(&layer.params) as u64);
    }
}

fn decode_update(r: &mut Reader<'_>, pool: &TensorPool) -> Result<ModelUpdate, StoreError> {
    let sender = r.usize()?;
    let round = r.u64()?;
    let model_id = r.u64()?;
    let n = r.count(16)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let index = r.usize()?;
        let params = pool.get(r.u64()?)?.clone();
        layers.push(LayerUpdate { index, params });
    }
    Ok(ModelUpdate {
        sender,
        round,
        model_id,
        layers,
    })
}

fn encode_update_queues(w: &mut Writer, pool: &mut TensorPool, queues: &[Vec<ModelUpdate>]) {
    w.put_usize(queues.len());
    for q in queues {
        w.put_usize(q.len());
        for u in q {
            encode_update(w, pool, u);
        }
    }
}

fn decode_update_queues(
    r: &mut Reader<'_>,
    pool: &TensorPool,
) -> Result<Vec<Vec<ModelUpdate>>, StoreError> {
    let n = r.count(8)?;
    let mut queues = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.count(32)?;
        let mut q = Vec::with_capacity(m);
        for _ in 0..m {
            q.push(decode_update(r, pool)?);
        }
        queues.push(q);
    }
    Ok(queues)
}

fn encode_layer_ids(w: &mut Writer, pool: &mut TensorPool, layers: &[Vec<f64>]) {
    w.put_usize(layers.len());
    for layer in layers {
        w.put_u64(pool.intern(layer) as u64);
    }
}

fn decode_layer_ids(r: &mut Reader<'_>, pool: &TensorPool) -> Result<Vec<Vec<f64>>, StoreError> {
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(pool.get(r.u64()?)?.clone());
    }
    Ok(out)
}

fn encode_dqn(w: &mut Writer, pool: &mut TensorPool, s: &DqnState) {
    encode_layer_ids(w, pool, &s.qnet);
    encode_layer_ids(w, pool, &s.target);
    w.put_u64(s.opt.t);
    encode_layer_ids(w, pool, &s.opt.m);
    encode_layer_ids(w, pool, &s.opt.v);
    encode_ring(w, &s.replay);
    for &word in &s.rng {
        w.put_u64(word);
    }
    w.put_u64(s.env_steps);
    w.put_u64(s.grad_steps);
}

/// Exact size of [`encode_dqn`]'s output, so the `AGENTS` section is
/// allocated once whatever the rings' size.
fn dqn_len(s: &DqnState) -> usize {
    let ids = |layers: &[Vec<f64>]| 8 + 8 * layers.len();
    ids(&s.qnet) + ids(&s.target) + 8 + ids(&s.opt.m) + ids(&s.opt.v) + ring_len(&s.replay) + 48
}

fn decode_dqn(r: &mut Reader<'_>, pool: &TensorPool) -> Result<DqnState, StoreError> {
    let qnet = decode_layer_ids(r, pool)?;
    let target = decode_layer_ids(r, pool)?;
    let t = r.u64()?;
    let m = decode_layer_ids(r, pool)?;
    let v = decode_layer_ids(r, pool)?;
    let replay = decode_ring(r)?;
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let env_steps = r.u64()?;
    let grad_steps = r.u64()?;
    Ok(DqnState {
        qnet,
        target,
        opt: AdamState { t, m, v },
        replay,
        rng,
        env_steps,
        grad_steps,
    })
}

/// A replay ring, inline: capacity, dim, len, write and head, the row
/// block, one [`SLOT_BYTES`] record per slot, then the side table.
fn encode_ring(w: &mut Writer, s: &ReplayState) {
    w.put_usize(s.capacity);
    w.put_usize(s.dim);
    w.put_usize(s.len());
    w.put_usize(s.write);
    w.put_usize(s.head);
    w.put_f64s(&s.rows);
    for slot in &s.slots {
        w.put_f64(slot.reward);
        w.put_u32(slot.row);
        w.put_u16(slot.action);
        w.put_u8(match slot.next {
            Next::Terminal => 0,
            Next::Row => 1,
            Next::Spilled => 2,
        });
    }
    w.put_f64s(&s.spill);
}

fn ring_len(s: &ReplayState) -> usize {
    5 * 8 + (8 + 8 * s.rows.len()) + SLOT_BYTES * s.len() + (8 + 8 * s.spill.len())
}

/// Reads a ring written by [`encode_ring`] and validates it before it
/// can reach a [`ReplayBuffer`](pfdrl_drl::ReplayBuffer). Every block
/// is backed by bytes of the section, so the allocations are bounded by
/// the input.
fn decode_ring(r: &mut Reader<'_>) -> Result<ReplayState, StoreError> {
    let capacity = r.usize()?;
    let dim = r.usize()?;
    let len = r.count(SLOT_BYTES)?;
    let write = r.usize()?;
    let head = r.usize()?;
    let rows = r.f64s()?;
    let mut slots = Vec::with_capacity(len);
    for _ in 0..len {
        let reward = r.f64()?;
        let row = r.u32()?;
        let action = r.u16()?;
        let next = match r.u8()? {
            0 => Next::Terminal,
            1 => Next::Row,
            2 => Next::Spilled,
            _ => {
                return Err(StoreError::Malformed {
                    context: "replay slot kind",
                })
            }
        };
        slots.push(Slot {
            reward,
            row,
            action,
            next,
        });
    }
    let spill = r.f64s()?;
    let state = ReplayState {
        capacity,
        dim,
        write,
        head,
        rows,
        slots,
        spill,
    };
    state.validate().map_err(StoreError::Replay)?;
    Ok(state)
}

/// Checks a reserved slot (see the module docs): zero, or `context`'s
/// [`StoreError::Malformed`].
fn reserved(value: u64, context: &'static str) -> Result<(), StoreError> {
    match value {
        0 => Ok(()),
        _ => Err(StoreError::Malformed { context }),
    }
}

/// A bus record, in `TRANSPORT` and in every `SHARD` bus: the
/// counters, the reserved mailbox slot (the receiver count, then a zero
/// length per receiver) and the parked-ready and parked-staged queues.
fn encode_bus(w: &mut Writer, pool: &mut TensorPool, bus: &BusState) {
    encode_bus_stats(w, &bus.stats);
    w.put_usize(bus.parked_ready.len());
    for _ in &bus.parked_ready {
        w.put_usize(0);
    }
    encode_update_queues(w, pool, &bus.parked_ready);
    encode_update_queues(w, pool, &bus.parked_staged);
}

fn decode_bus(r: &mut Reader<'_>, pool: &TensorPool) -> Result<BusState, StoreError> {
    let stats = decode_bus_stats(r)?;
    let receivers = r.count(8)?;
    for _ in 0..receivers {
        reserved(r.u64()?, "reserved mailbox slot")?;
    }
    let parked_ready = decode_update_queues(r, pool)?;
    let parked_staged = decode_update_queues(r, pool)?;
    if parked_ready.len() != receivers || parked_staged.len() != receivers {
        return Err(StoreError::Malformed {
            context: "reserved mailbox slot",
        });
    }
    Ok(BusState {
        stats,
        parked_ready,
        parked_staged,
    })
}

fn encode_bus_stats(w: &mut Writer, s: &BusStats) {
    w.put_u64(s.messages);
    w.put_u64(s.bytes);
    w.put_u64(s.logical_bytes);
    w.put_u64(s.dropped_offline);
    w.put_u64(s.dropped_loss);
    w.put_u64(0); // reserved bus counter
    w.put_u64(s.corrupted);
    w.put_u64(s.delayed);
    w.put_f64(s.delay_seconds);
}

fn decode_bus_stats(r: &mut Reader<'_>) -> Result<BusStats, StoreError> {
    let messages = r.u64()?;
    let bytes = r.u64()?;
    let logical_bytes = r.u64()?;
    let dropped_offline = r.u64()?;
    let dropped_loss = r.u64()?;
    reserved(r.u64()?, "reserved bus counter")?;
    Ok(BusStats {
        messages,
        bytes,
        logical_bytes,
        dropped_offline,
        dropped_loss,
        corrupted: r.u64()?,
        delayed: r.u64()?,
        delay_seconds: r.f64()?,
    })
}

fn encode_cloud_stats(w: &mut Writer, s: &CloudStats) {
    w.put_u64(s.uploads);
    w.put_u64(s.downloads);
    w.put_u64(s.upload_bytes);
    w.put_u64(s.logical_upload_bytes);
    w.put_u64(s.download_bytes);
    w.put_u64(s.dropped_offline);
    w.put_u64(s.dropped_loss);
    w.put_u64(s.corrupted);
    w.put_u64(s.delayed);
    w.put_u64(s.rejected);
    w.put_u64(s.empty_rounds);
    w.put_u64(s.missed_downloads);
    w.put_f64(s.delay_seconds);
}

fn decode_cloud_stats(r: &mut Reader<'_>) -> Result<CloudStats, StoreError> {
    Ok(CloudStats {
        uploads: r.u64()?,
        downloads: r.u64()?,
        upload_bytes: r.u64()?,
        logical_upload_bytes: r.u64()?,
        download_bytes: r.u64()?,
        dropped_offline: r.u64()?,
        dropped_loss: r.u64()?,
        corrupted: r.u64()?,
        delayed: r.u64()?,
        rejected: r.u64()?,
        empty_rounds: r.u64()?,
        missed_downloads: r.u64()?,
        delay_seconds: r.f64()?,
    })
}

/// Writes the file header, then each section's header and payload.
fn write_sections(out: &mut impl Write, sections: &[(u32, Vec<u8>)]) -> io::Result<()> {
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[8..].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    out.write_all(&header)?;
    for (kind, payload) in sections {
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&kind.to_le_bytes());
        header[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[12..].copy_from_slice(&crc32(payload).to_le_bytes());
        out.write_all(&header)?;
        out.write_all(payload)?;
    }
    Ok(())
}

impl RunSnapshot {
    /// Serialize to the `PFDS` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let sections = self.encode_sections();
        let len = 12 + sections.iter().map(|(_, p)| 16 + p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        write_sections(&mut out, &sections).expect("writing to memory cannot fail");
        out
    }

    /// Writes the bytes of [`RunSnapshot::encode`] to `out` section by
    /// section, without assembling the whole file in memory.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        write_sections(out, &self.encode_sections())
    }

    /// Every section's kind and payload, in file order.
    fn encode_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut pool = TensorPool::new();

        // Build every tensor-referencing payload first so the pool is
        // complete before it is itself serialized.
        let mut meta = Writer::new();
        meta.put_u64(self.meta.config_hash);
        meta.put_str(&self.meta.method);
        meta.put_u64(self.meta.next_day);
        meta.put_u64(self.meta.fed_round);
        meta.put_u64(self.meta.n_homes);
        meta.put_u64(self.meta.n_devices);

        let mut forecast = Writer::new();
        forecast.put_f64(self.forecast.train_wall_s);
        forecast.put_f64(self.forecast.comm_s);
        forecast.put_u64(self.forecast.comm_bytes);
        forecast.put_u64(self.forecast.comm_logical_bytes);
        forecast.put_usize(self.forecast.weights.len());
        for home in &self.forecast.weights {
            forecast.put_usize(home.len());
            for device in home {
                encode_layer_ids(&mut forecast, &mut pool, device);
            }
        }

        let agents_len = 8 + self
            .agents
            .iter()
            .map(|home| 8 + home.iter().map(dqn_len).sum::<usize>())
            .sum::<usize>();
        let mut agents = Writer::with_capacity(agents_len);
        agents.put_usize(self.agents.len());
        for home in &self.agents {
            agents.put_usize(home.len());
            for agent in home {
                encode_dqn(&mut agents, &mut pool, agent);
            }
        }
        debug_assert_eq!(agents.len(), agents_len);

        let mut transport = Writer::new();
        encode_bus(&mut transport, &mut pool, &self.transport.bus);
        encode_cloud_stats(&mut transport, &self.transport.cloud);
        transport.put_u8(0); // reserved cloud model flag
        transport.put_u64(0); // reserved cloud upload count

        let mut metrics = Writer::new();
        encode_account(&mut metrics, &self.metrics.total);
        metrics.put_f64s(&self.metrics.daily_saved_fraction);
        metrics.put_f64s(&self.metrics.daily_saved_kwh_per_client);
        metrics.put_f64s(&self.metrics.hourly_saved);
        metrics.put_f64s(&self.metrics.hourly_standby);
        metrics.put_usize(self.metrics.per_home_late.len());
        for a in &self.metrics.per_home_late {
            encode_account(&mut metrics, a);
        }

        // SHARD references the tensor pool (parked shard-bus updates),
        // so its payload must exist before the pool is serialized.
        let shard_payload = self.shard.as_ref().map(|s| {
            let mut shard = Writer::new();
            shard.put_usize(s.home_shard.len());
            for &sh in &s.home_shard {
                shard.put_u32(sh);
            }
            shard.put_u64(s.agg_bytes);
            shard.put_u64(s.agg_logical_bytes);
            shard.put_u64(s.agg_messages);
            shard.put_u64(s.peak_shard_bytes);
            shard.put_usize(s.shards.len());
            for sh in &s.shards {
                shard.put_u64(sh.counters.rounds);
                shard.put_u64(sh.counters.fast_path_homes);
                shard.put_u64(sh.counters.fallback_homes);
                shard.put_u64(sh.counters.peak_payload_bytes);
                encode_bus(&mut shard, &mut pool, &sh.bus);
            }
            shard.into_bytes()
        });

        let mut tensors = Writer::new();
        pool.encode(&mut tensors);

        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (section::META, meta.into_bytes()),
            (section::TENSORS, tensors.into_bytes()),
            (section::FORECAST, forecast.into_bytes()),
            (section::AGENTS, agents.into_bytes()),
            (section::TRANSPORT, transport.into_bytes()),
            (section::METRICS, metrics.into_bytes()),
        ];
        if let Some(h) = &self.health {
            let mut health = Writer::new();
            health.put_usize(h.per_home.len());
            for rec in &h.per_home {
                health.put_u8(rec.state);
                health.put_u32(rec.dirty_days);
                health.put_u32(rec.clean_days);
            }
            health.put_u64(h.imputed_minutes);
            health.put_u64(h.health_transitions);
            health.put_u64(h.quarantined_home_days);
            health.put_u64(h.rollbacks);
            health.put_f64s(&h.daily_mean_loss);
            sections.push((section::HEALTH, health.into_bytes()));
        }
        if let Some(s) = &self.serve {
            let mut serve = Writer::new();
            serve.put_u64(s.cursor);
            serve.put_u64(s.lines_consumed);
            serve.put_u64(s.decisions);
            serve.put_u64(s.shed_stale);
            serve.put_u64(s.shed_out_of_span);
            serve.put_u64(s.shed_unknown_home);
            serve.put_u64(s.shed_malformed);
            serve.put_u64(s.rejected_backpressure);
            serve.put_u64(s.sink_retries);
            serve.put_u64(s.gap_imputed);
            serve.put_u64(s.repaired_values);
            serve.put_u64(s.quarantined_shed);
            serve.put_usize(s.homes.len());
            for home in &s.homes {
                serve.put_u32(home.imputed_today);
                serve.put_f64(home.loss_sum);
                serve.put_u64(home.loss_steps);
                serve.put_u32(home.nonfinite_losses);
                serve.put_f64s(&home.saved_hourly);
                serve.put_f64s(&home.standby_hourly);
                serve.put_usize(home.devices.len());
                for dev in &home.devices {
                    serve.put_f64(dev.last_good_watt);
                    serve.put_u64(dev.steps_since_train);
                    encode_account(&mut serve, &dev.account);
                    serve.put_f64s(&dev.prev_watts);
                    serve.put_f64s(&dev.today_watts);
                }
            }
            sections.push((section::SERVE, serve.into_bytes()));
        }
        if let Some(payload) = shard_payload {
            sections.push((section::SHARD, payload));
        }
        sections
    }

    /// Parse and validate a `PFDS` byte stream of version
    /// [`FORMAT_VERSION`].
    ///
    /// Rejects: wrong magic, any other version, truncation anywhere,
    /// CRC mismatches, unknown, duplicate or missing sections, dangling
    /// tensor references, replay rings that break a ring invariant,
    /// nonzero reserved slots and structurally malformed payloads —
    /// each as a distinct [`StoreError`]. Never panics on arbitrary
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes, "file header");
        if r.take(4)? != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let n_sections = r.u32()?;

        let mut payloads: Vec<(u32, &[u8])> = Vec::new();
        for _ in 0..n_sections {
            let kind = r.u32()?;
            let len = r.usize()?;
            let stored_crc = r.u32()?;
            let payload = r.take(len)?;
            if crc32(payload) != stored_crc {
                return Err(StoreError::SectionCrc { kind });
            }
            // An unknown kind is corruption, not an absent optional
            // section: a flipped kind bit (SHARD 9 -> 11) must not decode
            // as a snapshot that silently lacks the section.
            if !(section::META..=section::SHARD).contains(&kind) {
                return Err(StoreError::Malformed {
                    context: "section kind",
                });
            }
            if payloads.iter().any(|&(k, _)| k == kind) {
                return Err(StoreError::DuplicateSection { kind });
            }
            payloads.push((kind, payload));
        }
        r.expect_end()?;

        let find = |kind: u32| -> Result<&[u8], StoreError> {
            payloads
                .iter()
                .find(|&&(k, _)| k == kind)
                .map(|&(_, p)| p)
                .ok_or(StoreError::MissingSection { kind })
        };
        for kind in ALL_SECTIONS {
            find(kind)?;
        }

        let mut tr = Reader::new(find(section::TENSORS)?, "tensor pool");
        let pool = TensorPool::decode(&mut tr)?;
        tr.expect_end()?;

        let mut mr = Reader::new(find(section::META)?, "meta section");
        let meta = SnapshotMeta {
            config_hash: mr.u64()?,
            method: mr.str()?,
            next_day: mr.u64()?,
            fed_round: mr.u64()?,
            n_homes: mr.u64()?,
            n_devices: mr.u64()?,
        };
        mr.expect_end()?;

        let mut fr = Reader::new(find(section::FORECAST)?, "forecast section");
        let train_wall_s = fr.f64()?;
        let comm_s = fr.f64()?;
        let comm_bytes = fr.u64()?;
        let comm_logical_bytes = fr.u64()?;
        let n_homes = fr.count(8)?;
        let mut weights = Vec::with_capacity(n_homes);
        for _ in 0..n_homes {
            let n_devices = fr.count(8)?;
            let mut home = Vec::with_capacity(n_devices);
            for _ in 0..n_devices {
                home.push(decode_layer_ids(&mut fr, &pool)?);
            }
            weights.push(home);
        }
        fr.expect_end()?;
        let forecast = ForecastState {
            train_wall_s,
            comm_s,
            comm_bytes,
            comm_logical_bytes,
            weights,
        };

        let mut ar = Reader::new(find(section::AGENTS)?, "agents section");
        let n_homes = ar.count(8)?;
        let mut agents = Vec::with_capacity(n_homes);
        for _ in 0..n_homes {
            let n_devices = ar.count(8)?;
            let mut home = Vec::with_capacity(n_devices);
            for _ in 0..n_devices {
                home.push(decode_dqn(&mut ar, &pool)?);
            }
            agents.push(home);
        }
        ar.expect_end()?;

        let mut tp = Reader::new(find(section::TRANSPORT)?, "transport section");
        let bus = decode_bus(&mut tp, &pool)?;
        let cloud = decode_cloud_stats(&mut tp)?;
        reserved(tp.u8()?.into(), "reserved cloud model flag")?;
        reserved(tp.u64()?, "reserved cloud upload count")?;
        tp.expect_end()?;
        let transport = TransportState { bus, cloud };

        let mut me = Reader::new(find(section::METRICS)?, "metrics section");
        let total = decode_account(&mut me)?;
        let daily_saved_fraction = me.f64s()?;
        let daily_saved_kwh_per_client = me.f64s()?;
        let hourly_saved = me.f64s()?;
        let hourly_standby = me.f64s()?;
        let n_late = me.count(48)?;
        let mut per_home_late = Vec::with_capacity(n_late);
        for _ in 0..n_late {
            per_home_late.push(decode_account(&mut me)?);
        }
        me.expect_end()?;
        let metrics = MetricsState {
            total,
            daily_saved_fraction,
            daily_saved_kwh_per_client,
            hourly_saved,
            hourly_standby,
            per_home_late,
        };

        // HEALTH is optional: absent in fault-free snapshots and in
        // every snapshot written before the section existed.
        let health = match payloads.iter().find(|&&(k, _)| k == section::HEALTH) {
            None => None,
            Some(&(_, payload)) => {
                let mut hr = Reader::new(payload, "health section");
                let n_homes = hr.count(9)?;
                let mut per_home = Vec::with_capacity(n_homes);
                for _ in 0..n_homes {
                    let state = hr.u8()?;
                    if state > 2 {
                        return Err(StoreError::Malformed {
                            context: "health state",
                        });
                    }
                    per_home.push(HomeHealthRecord {
                        state,
                        dirty_days: hr.u32()?,
                        clean_days: hr.u32()?,
                    });
                }
                let imputed_minutes = hr.u64()?;
                let health_transitions = hr.u64()?;
                let quarantined_home_days = hr.u64()?;
                let rollbacks = hr.u64()?;
                let daily_mean_loss = hr.f64s()?;
                hr.expect_end()?;
                Some(HealthState {
                    per_home,
                    imputed_minutes,
                    health_transitions,
                    quarantined_home_days,
                    rollbacks,
                    daily_mean_loss,
                })
            }
        };

        // SERVE is optional: only the streaming service writes it.
        let serve = match payloads.iter().find(|&&(k, _)| k == section::SERVE) {
            None => None,
            Some(&(_, payload)) => {
                let mut sr = Reader::new(payload, "serve section");
                let cursor = sr.u64()?;
                let lines_consumed = sr.u64()?;
                let decisions = sr.u64()?;
                let shed_stale = sr.u64()?;
                let shed_out_of_span = sr.u64()?;
                let shed_unknown_home = sr.u64()?;
                let shed_malformed = sr.u64()?;
                let rejected_backpressure = sr.u64()?;
                let sink_retries = sr.u64()?;
                let gap_imputed = sr.u64()?;
                let repaired_values = sr.u64()?;
                let quarantined_shed = sr.u64()?;
                let n_homes = sr.count(24)?;
                let mut homes = Vec::with_capacity(n_homes);
                for _ in 0..n_homes {
                    let imputed_today = sr.u32()?;
                    let loss_sum = sr.f64()?;
                    let loss_steps = sr.u64()?;
                    let nonfinite_losses = sr.u32()?;
                    let saved_hourly = sr.f64s()?;
                    let standby_hourly = sr.f64s()?;
                    let n_devices = sr.count(78)?;
                    let mut devices = Vec::with_capacity(n_devices);
                    for _ in 0..n_devices {
                        devices.push(ServeDeviceState {
                            last_good_watt: sr.f64()?,
                            steps_since_train: sr.u64()?,
                            account: decode_account(&mut sr)?,
                            prev_watts: sr.f64s()?,
                            today_watts: sr.f64s()?,
                        });
                    }
                    homes.push(ServeHomeState {
                        imputed_today,
                        loss_sum,
                        loss_steps,
                        nonfinite_losses,
                        saved_hourly,
                        standby_hourly,
                        devices,
                    });
                }
                sr.expect_end()?;
                Some(ServeState {
                    cursor,
                    lines_consumed,
                    decisions,
                    shed_stale,
                    shed_out_of_span,
                    shed_unknown_home,
                    shed_malformed,
                    rejected_backpressure,
                    sink_retries,
                    gap_imputed,
                    repaired_values,
                    quarantined_shed,
                    homes,
                })
            }
        };

        // SHARD is optional: only hierarchical runs write it.
        let shard = match payloads.iter().find(|&&(k, _)| k == section::SHARD) {
            None => None,
            Some(&(_, payload)) => {
                let mut shr = Reader::new(payload, "shard section");
                let n_homes = shr.count(4)?;
                let mut home_shard = Vec::with_capacity(n_homes);
                for _ in 0..n_homes {
                    home_shard.push(shr.u32()?);
                }
                let agg_bytes = shr.u64()?;
                let agg_logical_bytes = shr.u64()?;
                let agg_messages = shr.u64()?;
                let peak_shard_bytes = shr.u64()?;
                let n_shards = shr.count(8)?;
                let mut shards = Vec::with_capacity(n_shards);
                for _ in 0..n_shards {
                    let counters = ShardCounters {
                        rounds: shr.u64()?,
                        fast_path_homes: shr.u64()?,
                        fallback_homes: shr.u64()?,
                        peak_payload_bytes: shr.u64()?,
                    };
                    let bus = decode_bus(&mut shr, &pool)?;
                    shards.push(HierShardState { counters, bus });
                }
                shr.expect_end()?;
                Some(HierState {
                    home_shard,
                    agg_bytes,
                    agg_logical_bytes,
                    agg_messages,
                    peak_shard_bytes,
                    shards,
                })
            }
        };

        Ok(RunSnapshot {
            meta,
            forecast,
            agents,
            transport,
            metrics,
            health,
            serve,
            shard,
        })
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use pfdrl_drl::ReplayBuffer;

    /// A small but fully populated snapshot exercising every section,
    /// including deliberately shared tensors, NaN payloads and parked
    /// straggler queues.
    pub fn sample_snapshot() -> RunSnapshot {
        let nan = f64::from_bits(0x7FF8_0000_0000_002A);
        let base = vec![1.0, -0.0, nan, 3.5];
        let personal_a = vec![0.25, 0.5];
        let personal_b = vec![-0.25, 0.75];

        // One chained transition, then a terminal one.
        let mut ring = ReplayBuffer::new(8);
        ring.push(&[0.1, 0.2], 1, -1.0, Some(&[0.3, 0.4]));
        ring.push(&[0.3, 0.4], 0, 2.0, None);
        let replay = ring.export_state();

        let dqn = |personal: &Vec<f64>, seed: u64| DqnState {
            qnet: vec![base.clone(), personal.clone()],
            target: vec![base.clone(), personal.clone()],
            opt: AdamState {
                t: seed,
                m: vec![vec![0.0; 4], vec![0.0; 2]],
                v: vec![vec![0.0; 4], vec![0.0; 2]],
            },
            replay: replay.clone(),
            rng: [seed, seed ^ 7, seed.rotate_left(13), 1],
            env_steps: 10 * seed,
            grad_steps: 3 * seed,
        };

        let update = |sender: usize, round: u64| ModelUpdate {
            sender,
            round,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: base.clone(),
            }],
        };

        RunSnapshot {
            meta: SnapshotMeta {
                config_hash: 0xDEAD_BEEF_CAFE_F00D,
                method: "pfdrl".into(),
                next_day: 4,
                fed_round: 12,
                n_homes: 2,
                n_devices: 1,
            },
            forecast: ForecastState {
                train_wall_s: 1.25,
                comm_s: 0.5,
                comm_bytes: 4096,
                comm_logical_bytes: 4096,
                weights: vec![vec![vec![base.clone()]], vec![vec![base.clone()]]],
            },
            agents: vec![vec![dqn(&personal_a, 3)], vec![dqn(&personal_b, 5)]],
            transport: TransportState {
                bus: BusState {
                    stats: BusStats {
                        messages: 7,
                        bytes: 1234,
                        dropped_loss: 1,
                        delayed: 2,
                        delay_seconds: 0.75,
                        ..Default::default()
                    },
                    parked_ready: vec![vec![update(1, 10)], vec![]],
                    parked_staged: vec![vec![], vec![update(0, 12)]],
                },
                cloud: CloudStats {
                    uploads: 4,
                    upload_bytes: 2048,
                    empty_rounds: 1,
                    delay_seconds: 0.1,
                    ..Default::default()
                },
            },
            metrics: MetricsState {
                total: EnergyAccount {
                    standby_total_kwh: 10.0,
                    standby_saved_kwh: 6.5,
                    comfort_violation_minutes: 3,
                    interrupted_on_kwh: 0.2,
                    minutes: 5760,
                    total_reward: 123.5,
                },
                daily_saved_fraction: vec![0.6, 0.65],
                daily_saved_kwh_per_client: vec![1.5, 1.75],
                hourly_saved: vec![0.125; 24],
                hourly_standby: vec![0.25; 24],
                per_home_late: vec![
                    EnergyAccount {
                        standby_saved_kwh: 3.0,
                        ..Default::default()
                    },
                    EnergyAccount {
                        standby_saved_kwh: 3.5,
                        ..Default::default()
                    },
                ],
            },
            health: Some(HealthState {
                per_home: vec![
                    HomeHealthRecord {
                        state: 0,
                        dirty_days: 0,
                        clean_days: 0,
                    },
                    HomeHealthRecord {
                        state: 2,
                        dirty_days: 3,
                        clean_days: 1,
                    },
                ],
                imputed_minutes: 480,
                health_transitions: 2,
                quarantined_home_days: 2,
                rollbacks: 1,
                daily_mean_loss: vec![0.5, 0.45, f64::NAN, 0.0],
            }),
            serve: None,
            shard: None,
        }
    }

    /// `sample_snapshot` plus a populated serve section: a mid-day
    /// capture with live buffers, shed counters and a per-device
    /// account in flight.
    pub fn sample_serve_snapshot() -> RunSnapshot {
        let mut snap = sample_snapshot();
        let dev = |seed: f64| ServeDeviceState {
            last_good_watt: 87.5 + seed,
            steps_since_train: 5,
            account: EnergyAccount {
                standby_total_kwh: 0.5 + seed,
                standby_saved_kwh: 0.25,
                comfort_violation_minutes: 1,
                interrupted_on_kwh: 0.01,
                minutes: 300,
                total_reward: 42.0,
            },
            prev_watts: vec![3.5, -0.0, 120.0, f64::from_bits(0x7FF8_0000_0000_0007)],
            today_watts: vec![2.5 + seed, 0.0],
        };
        snap.serve = Some(ServeState {
            cursor: 4620,
            lines_consumed: 9541,
            decisions: 1234,
            shed_stale: 3,
            shed_out_of_span: 2,
            shed_unknown_home: 1,
            shed_malformed: 4,
            rejected_backpressure: 7,
            sink_retries: 11,
            gap_imputed: 60,
            repaired_values: 9,
            quarantined_shed: 480,
            homes: vec![
                ServeHomeState {
                    imputed_today: 12,
                    loss_sum: 1.5,
                    loss_steps: 40,
                    nonfinite_losses: 1,
                    saved_hourly: vec![0.0625; 24],
                    standby_hourly: vec![0.125; 24],
                    devices: vec![dev(0.0)],
                },
                ServeHomeState {
                    imputed_today: 0,
                    loss_sum: 0.75,
                    loss_steps: 35,
                    nonfinite_losses: 0,
                    saved_hourly: vec![0.03125; 24],
                    standby_hourly: vec![0.25; 24],
                    devices: vec![dev(1.0)],
                },
            ],
        });
        snap
    }

    /// `sample_snapshot` plus a populated shard section: two uneven
    /// shards with live counters, a parked straggler and accumulated
    /// aggregator-link traffic.
    pub fn sample_hier_snapshot() -> RunSnapshot {
        let mut snap = sample_snapshot();
        let update = |sender: usize, round: u64| ModelUpdate {
            sender,
            round,
            model_id: 3,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![1.0, -0.0, f64::from_bits(0x7FF8_0000_0000_002A), 3.5],
            }],
        };
        snap.shard = Some(HierState {
            home_shard: vec![0, 0, 1],
            agg_bytes: 8192,
            agg_logical_bytes: 8192,
            agg_messages: 16,
            peak_shard_bytes: 4096,
            shards: vec![
                HierShardState {
                    counters: ShardCounters {
                        rounds: 4,
                        fast_path_homes: 6,
                        fallback_homes: 2,
                        peak_payload_bytes: 4096,
                    },
                    bus: BusState {
                        stats: BusStats {
                            messages: 12,
                            bytes: 2048,
                            dropped_loss: 1,
                            ..Default::default()
                        },
                        parked_ready: vec![vec![update(1, 2)], vec![]],
                        parked_staged: vec![vec![], vec![update(0, 3)]],
                    },
                },
                HierShardState {
                    counters: ShardCounters {
                        rounds: 4,
                        fast_path_homes: 4,
                        fallback_homes: 0,
                        peak_payload_bytes: 2048,
                    },
                    bus: BusState {
                        stats: BusStats {
                            messages: 4,
                            bytes: 512,
                            delayed: 1,
                            delay_seconds: 0.25,
                            ..Default::default()
                        },
                        parked_ready: vec![vec![]],
                        parked_staged: vec![vec![update(0, 4)]],
                    },
                },
            ],
        });
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::sample_snapshot;
    use super::*;

    #[test]
    fn round_trips_bit_exactly() {
        // The fixture contains NaN, so struct PartialEq (NaN != NaN)
        // cannot be used; instead compare via deterministic re-encoding,
        // which is bit-faithful by construction.
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        let nan = back.agents[0][0].qnet[0][2];
        assert_eq!(nan.to_bits(), 0x7FF8_0000_0000_002A);
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.metrics, snap.metrics);
    }

    #[test]
    fn dedup_collapses_shared_tensors() {
        // The sample shares its base layer across 2 homes × (qnet +
        // target + forecast) + bus traffic. The stored tensor pool must
        // hold far fewer parameters than the tensors referenced across
        // the snapshot.
        let snap = sample_snapshot();
        let bytes = snap.encode();

        // Replay rings are written inline, outside the pool.
        let mut naive = 0usize;
        for home in &snap.agents {
            for a in home {
                naive += a.qnet.iter().chain(&a.target).map(Vec::len).sum::<usize>();
                naive += a.opt.m.iter().chain(&a.opt.v).map(Vec::len).sum::<usize>();
            }
        }
        for home in &snap.forecast.weights {
            for dev in home {
                naive += dev.iter().map(Vec::len).sum::<usize>();
            }
        }

        let (_, sections) = split_sections(&bytes);
        let tensors = &sections
            .iter()
            .find(|&&(k, _)| k == section::TENSORS)
            .unwrap()
            .1;
        let mut r = Reader::new(tensors, "pool");
        let pool = TensorPool::decode(&mut r).unwrap();
        assert!(
            pool.total_params() * 2 < naive,
            "no dedup: pool stores {} params for {} referenced",
            pool.total_params(),
            naive
        );
    }

    #[test]
    fn rejects_bad_magic_and_unknown_version() {
        let bytes = sample_snapshot().encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(RunSnapshot::decode(&wrong_magic), Err(StoreError::BadMagic));

        // Version 2 is a real format, but its files predate the last
        // config-fingerprint change, so none can resume.
        for found in [0, 1, 2, FORMAT_VERSION + 1, 99] {
            let mut other = bytes.clone();
            other[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                RunSnapshot::decode(&other),
                Err(StoreError::UnsupportedVersion { found })
            );
        }

        assert_eq!(
            RunSnapshot::decode(b"PFD"),
            Err(StoreError::Truncated {
                context: "file header"
            })
        );
    }

    #[test]
    fn corrupt_payload_fails_its_section_crc() {
        let bytes = sample_snapshot().encode();
        // Flip a byte inside the first section's payload (header is
        // 12 bytes, each section header is 16 bytes).
        let mut corrupt = bytes.clone();
        corrupt[12 + 16 + 3] ^= 0x40;
        assert_eq!(
            RunSnapshot::decode(&corrupt),
            Err(StoreError::SectionCrc {
                kind: section::META
            })
        );
    }

    #[test]
    fn unknown_section_kind_is_malformed() {
        // Rewrite the optional SHARD section's kind to one no build
        // writes; the CRC covers only the payload, so it still passes.
        let bytes = super::test_fixtures::sample_hier_snapshot().encode();
        let (header, mut sections) = split_sections(&bytes);
        let shard = sections
            .iter_mut()
            .find(|(k, _)| *k == section::SHARD)
            .unwrap();
        shard.0 = 11;
        assert_eq!(
            RunSnapshot::decode(&join_sections(&header, &sections)),
            Err(StoreError::Malformed {
                context: "section kind"
            })
        );
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                RunSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn health_section_is_optional_in_both_directions() {
        // A pre-health snapshot (no HEALTH section) must still decode;
        // a health-free snapshot must not emit the section at all, so
        // fault-free runs keep the original byte format.
        let snap = sample_snapshot();
        let legacy = filter_sections(&snap.encode(), |kind| kind != section::HEALTH);
        let back = RunSnapshot::decode(&legacy).unwrap();
        assert_eq!(back.health, None);
        assert_eq!(back.encode(), legacy);

        let mut bare = sample_snapshot();
        bare.health = None;
        let (_, sections) = split_sections(&bare.encode());
        assert!(
            sections.iter().all(|&(k, _)| k != section::HEALTH),
            "inactive health state must not be serialized"
        );

        // A quarantined record survives the round trip exactly.
        let bytes = snap.encode();
        let again = RunSnapshot::decode(&bytes).unwrap();
        let h = again.health.as_ref().unwrap();
        assert_eq!(h.per_home[1].state, 2);
        assert_eq!(h.per_home[1].dirty_days, 3);
        assert_eq!(h.rollbacks, 1);
        assert!(h.daily_mean_loss[2].is_nan());

        // An out-of-range state byte is malformed, not a panic.
        let mut evil = snap.clone();
        evil.health.as_mut().unwrap().per_home[0].state = 9;
        assert_eq!(
            RunSnapshot::decode(&evil.encode()),
            Err(StoreError::Malformed {
                context: "health state"
            })
        );
    }

    #[test]
    fn shard_section_is_optional_in_both_directions() {
        use super::test_fixtures::sample_hier_snapshot;

        // A flat-mode snapshot must not emit the section, keeping the
        // existing byte format, and must decode with `shard: None`.
        let flat = sample_snapshot();
        let bytes = flat.encode();
        let (_, sections) = split_sections(&bytes);
        assert!(
            sections.iter().all(|&(k, _)| k != section::SHARD),
            "flat snapshot must not serialize a shard section"
        );
        assert_eq!(RunSnapshot::decode(&bytes).unwrap().shard, None);

        // A hierarchical capture survives the round trip exactly,
        // including parked shard-bus stragglers and counters.
        // (Struct equality would reject the NaN payload bits, so the
        // round trip is pinned at the byte level plus spot checks.)
        let hier = sample_hier_snapshot();
        let hier_bytes = hier.encode();
        let back = RunSnapshot::decode(&hier_bytes).unwrap();
        let s = back.shard.as_ref().unwrap();
        assert_eq!(s.home_shard, vec![0, 0, 1]);
        assert_eq!(s.agg_bytes, 8192);
        assert_eq!(s.peak_shard_bytes, 4096);
        assert_eq!(s.shards[0].counters.fallback_homes, 2);
        assert_eq!(s.shards[0].bus.parked_ready[0].len(), 1);
        assert_eq!(s.shards[1].bus.parked_staged[0][0].model_id, 3);
        assert!(s.shards[0].bus.parked_staged[1][0].layers[0].params[2].is_nan());
        assert_eq!(back.encode(), hier_bytes);

        // Stripping the section decodes as a flat snapshot whose
        // re-encoding is byte-identical to the stripped stream.
        let stripped = filter_sections(&hier_bytes, |kind| kind != section::SHARD);
        let degraded = RunSnapshot::decode(&stripped).unwrap();
        assert_eq!(degraded.shard, None);
        assert_eq!(degraded.encode(), stripped);
    }

    #[test]
    fn serve_section_is_optional_in_both_directions() {
        use super::test_fixtures::sample_serve_snapshot;

        // A batch snapshot (no SERVE section) must decode to None and
        // re-encode without the section, keeping the batch format
        // byte-identical to the pre-serve layout.
        let batch = sample_snapshot();
        let bytes = batch.encode();
        let (_, sections) = split_sections(&bytes);
        assert!(
            sections.iter().all(|&(k, _)| k != section::SERVE),
            "batch snapshot must not serialize a serve section"
        );
        assert_eq!(RunSnapshot::decode(&bytes).unwrap().serve, None);

        // A populated serve section survives the round trip bit-exactly
        // (NaN watt in the live buffer included).
        let live = sample_serve_snapshot();
        let live_bytes = live.encode();
        let back = RunSnapshot::decode(&live_bytes).unwrap();
        assert_eq!(back.encode(), live_bytes);
        let s = back.serve.as_ref().unwrap();
        assert_eq!(s.cursor, 4620);
        assert_eq!(s.lines_consumed, 9541);
        assert_eq!(s.rejected_backpressure, 7);
        assert_eq!(
            s.homes[0].devices[0].prev_watts[3].to_bits(),
            0x7FF8_0000_0000_0007
        );
        assert_eq!(s.homes[1].devices[0].account.minutes, 300);
        assert_eq!(s.homes[0].saved_hourly, vec![0.0625; 24]);
        assert_eq!(s.homes[1].standby_hourly, vec![0.25; 24]);

        // Stripping the section decodes as a plain batch snapshot.
        let stripped = filter_sections(&live_bytes, |kind| kind != section::SERVE);
        let plain = RunSnapshot::decode(&stripped).unwrap();
        assert_eq!(plain.serve, None);
        assert_eq!(plain.encode(), stripped);
    }

    #[test]
    fn missing_and_duplicate_sections_are_typed_errors() {
        // Re-assemble the file with the METRICS section dropped.
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let rebuilt = filter_sections(&bytes, |kind| kind != section::METRICS);
        assert_eq!(
            RunSnapshot::decode(&rebuilt),
            Err(StoreError::MissingSection {
                kind: section::METRICS
            })
        );

        // And with the META section doubled.
        let doubled = duplicate_section(&bytes, section::META);
        assert_eq!(
            RunSnapshot::decode(&doubled),
            Err(StoreError::DuplicateSection {
                kind: section::META
            })
        );
    }

    /// The committed sample fixture of format `version`, if there is one.
    fn sample_fixture(version: u32) -> Option<Vec<u8>> {
        let path = format!(
            "{}/tests/fixtures/sample_v{version}.pfds",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read(path).ok()
    }

    #[test]
    fn current_sample_fixture_pins_the_encoder() {
        // A format change that forgets to bump FORMAT_VERSION fails here.
        let fixture = sample_fixture(FORMAT_VERSION).expect("fixture of the current version");
        assert_eq!(fixture, sample_snapshot().encode());
    }

    #[test]
    fn every_readable_version_has_a_fixture() {
        // Probe the decoder itself, not a constant: any version it does
        // not turn away as unsupported must be pinned by a committed
        // fixture that decodes to the sample, so a format bump cannot
        // silently keep or drop old reads.
        let current = sample_snapshot().encode();
        let mut readable = Vec::new();
        for version in (0..=FORMAT_VERSION + 8).chain([u32::MAX]) {
            let mut probe = current.clone();
            probe[4..8].copy_from_slice(&version.to_le_bytes());
            if RunSnapshot::decode(&probe) == Err(StoreError::UnsupportedVersion { found: version })
            {
                continue;
            }
            readable.push(version);
            let fixture = sample_fixture(version)
                .unwrap_or_else(|| panic!("version {version} is readable but has no fixture"));
            assert_eq!(
                u32::from_le_bytes(fixture[4..8].try_into().unwrap()),
                version
            );
            let back = RunSnapshot::decode(&fixture).unwrap();
            assert_eq!(back.encode(), current, "fixture v{version}");
        }
        assert_eq!(readable, [FORMAT_VERSION]);
    }

    #[test]
    fn nonzero_reserved_slots_are_malformed() {
        use super::test_fixtures::sample_hier_snapshot;

        // Byte offset of the reserved bus counter in an encoded bus
        // record: after messages, bytes, logical bytes and the two drop
        // counters. The mailbox slot follows the nine counters and the
        // receiver count; this is its first receiver's length.
        const BUS_SLOT: usize = 5 * 8;
        const MAILBOX_SLOT: usize = 9 * 8 + 8;
        let hier = sample_hier_snapshot();
        let bytes = hier.encode();
        let (_, sections) = split_sections(&bytes);
        let transport_len = sections
            .iter()
            .find(|&&(k, _)| k == section::TRANSPORT)
            .unwrap()
            .1
            .len();
        // SHARD: the home assignment, four aggregate counters, the shard
        // count and the first shard's four counters come before its bus.
        let homes = hier.shard.as_ref().unwrap().home_shard.len();
        let shard_bus = 8 + 4 * homes + 4 * 8 + 8 + 4 * 8;
        let cases = [
            (section::TRANSPORT, BUS_SLOT, 8, "reserved bus counter"),
            (
                section::SHARD,
                shard_bus + BUS_SLOT,
                8,
                "reserved bus counter",
            ),
            (section::TRANSPORT, MAILBOX_SLOT, 8, "reserved mailbox slot"),
            (
                section::SHARD,
                shard_bus + MAILBOX_SLOT,
                8,
                "reserved mailbox slot",
            ),
            (
                section::TRANSPORT,
                transport_len - 9,
                1,
                "reserved cloud model flag",
            ),
            (
                section::TRANSPORT,
                transport_len - 8,
                8,
                "reserved cloud upload count",
            ),
        ];
        for (kind, at, width, context) in cases {
            let (header, mut sections) = split_sections(&bytes);
            let payload = &mut sections.iter_mut().find(|(k, _)| *k == kind).unwrap().1;
            assert!(
                payload[at..at + width].iter().all(|&b| b == 0),
                "{context}: the slot is written as zero"
            );
            payload[at] = 1;
            // `join_sections` recomputes the CRC, so the slot check
            // itself has to catch the value.
            assert_eq!(
                RunSnapshot::decode(&join_sections(&header, &sections)),
                Err(StoreError::Malformed { context }),
                "section {kind}, byte {at}"
            );
        }

        // The mailbox slot's receiver count must be the parked queues'.
        let mut uneven = hier.clone();
        uneven.transport.bus.parked_staged.push(Vec::new());
        let mut uneven_shard = hier;
        uneven_shard.shard.as_mut().unwrap().shards[1]
            .bus
            .parked_ready
            .push(Vec::new());
        for snap in [uneven, uneven_shard] {
            assert_eq!(
                RunSnapshot::decode(&snap.encode()),
                Err(StoreError::Malformed {
                    context: "reserved mailbox slot"
                })
            );
        }
    }

    /// Reparse `bytes` keeping only sections passing `keep`.
    fn filter_sections(bytes: &[u8], keep: impl Fn(u32) -> bool) -> Vec<u8> {
        let (header, sections) = split_sections(bytes);
        let kept: Vec<_> = sections.into_iter().filter(|&(k, _)| keep(k)).collect();
        join_sections(&header, &kept)
    }

    fn duplicate_section(bytes: &[u8], kind: u32) -> Vec<u8> {
        let (header, sections) = split_sections(bytes);
        let mut out = sections.clone();
        let dup = sections.iter().find(|&&(k, _)| k == kind).unwrap().clone();
        out.push(dup);
        join_sections(&header, &out)
    }

    #[allow(clippy::type_complexity)]
    fn split_sections(bytes: &[u8]) -> (Vec<u8>, Vec<(u32, Vec<u8>)>) {
        let header = bytes[..8].to_vec(); // magic + version
        let n = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let mut pos = 12;
        let mut sections = Vec::new();
        for _ in 0..n {
            let kind = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let payload = bytes[pos + 16..pos + 16 + len].to_vec();
            sections.push((kind, payload));
            pos += 16 + len;
        }
        (header, sections)
    }

    fn join_sections(header: &[u8], sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = header.to_vec();
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (kind, payload) in sections {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}
