//! In-process broadcast bus between residences.
//!
//! Replaces the paper's LAN broadcast between smart-home hubs: each
//! residence gets a mailbox (a mutex-guarded queue, so residences can
//! run on worker threads concurrently), and every broadcast is
//! delivered to all other residences. The bus keeps byte/message
//! statistics and converts them into simulated communication time via a
//! [`LatencyModel`], which is how the time-overhead comparison of
//! Figure 14 is reproduced without real network hardware.
//!
//! Updates travel as `Arc<ModelUpdate>` end-to-end: a broadcast to N−1
//! peers shares one payload instead of cloning it, and
//! [`BroadcastBus::broadcast_arc`] lets callers keep a handle to the
//! exact payload they sent (the hierarchical shared-sum fast path uses
//! pointer identity to prove a mailbox saw the full fault-free round).
//! Statistics live in relaxed atomics, so concurrent broadcasters never
//! serialize on a stats lock; totals are exact because every counter
//! update is a commutative add.
//!
//! A bus built with [`BroadcastBus::with_faults`] routes every delivery
//! through a [`FaultInjector`]: churned-out or lossy deliveries are
//! dropped (and counted per reason), straggling ones are parked until
//! the next drain and pay a latency penalty, and corrupted ones arrive
//! damaged for the aggregation layer to reject.

use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::{Delivery, DropReason, FaultConfig, FaultInjector};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Simple linear latency model: `per_message + bytes * per_byte`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per delivered message, seconds.
    pub per_message_s: f64,
    /// Cost per transmitted byte, seconds (1/bandwidth).
    pub per_byte_s: f64,
}

impl LatencyModel {
    /// Residential LAN: ~1 ms per message, ~100 MiB/s effective.
    pub fn lan() -> Self {
        LatencyModel {
            per_message_s: 1e-3,
            per_byte_s: 1.0 / (100.0 * 1024.0 * 1024.0),
        }
    }

    /// Cloud uplink: ~40 ms RTT per message, ~10 MiB/s effective.
    pub fn cloud() -> Self {
        LatencyModel {
            per_message_s: 40e-3,
            per_byte_s: 1.0 / (10.0 * 1024.0 * 1024.0),
        }
    }

    /// Simulated seconds to deliver `bytes` in `messages`.
    pub fn seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.per_message_s + bytes as f64 * self.per_byte_s
    }
}

/// Aggregate traffic statistics, including per-reason fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusStats {
    /// Point-to-point deliveries (one broadcast to N-1 peers counts N-1).
    pub messages: u64,
    /// Wire bytes across all deliveries — what actually travels after
    /// the bus's [`PayloadCodec`] shrinks each payload. Identical to
    /// `logical_bytes` under `PayloadCodec::Raw`.
    pub bytes: u64,
    /// Logical (pre-compression, raw-f64) bytes of the same
    /// deliveries. The Figures 13–14 comparison reports both so
    /// compressed and uncompressed runs stay apples-to-apples.
    pub logical_bytes: u64,
    /// Deliveries dropped because the sender was churned offline.
    pub dropped_offline: u64,
    /// Deliveries dropped by simulated message loss.
    pub dropped_loss: u64,
    /// Deliveries dropped because the receiver end was disconnected.
    pub dropped_disconnected: u64,
    /// Deliveries that arrived with a corrupted payload.
    pub corrupted: u64,
    /// Deliveries parked by straggler delay (arrive a drain cycle late).
    pub delayed: u64,
    /// Extra simulated seconds paid by straggling deliveries.
    pub delay_seconds: f64,
}

impl BusStats {
    /// Total deliveries that never reached a mailbox, for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_offline + self.dropped_loss + self.dropped_disconnected
    }
}

/// Adds `v` to an `f64` stored as its bit pattern in an [`AtomicU64`].
/// The CAS loop makes concurrent adds lossless; the *order* of adds (and
/// therefore the exact rounding) is whatever the callers' order is — on
/// the deterministic default path broadcasts are sequential, so the sum
/// order is fixed.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => cur = observed,
        }
    }
}

/// [`BusStats`] in relaxed atomics: contention-free accounting for
/// concurrent broadcasters. Every field is a commutative add, so totals
/// are exact regardless of interleaving. `delay_seconds` stores the
/// `f64` bit pattern (`0u64` is `0.0`, so zero-init works).
#[derive(Default)]
struct AtomicBusStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    logical_bytes: AtomicU64,
    dropped_offline: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_disconnected: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    delay_seconds_bits: AtomicU64,
}

impl AtomicBusStats {
    /// Folds one broadcast's locally accumulated delta in.
    fn add(&self, d: &BusStats) {
        let bump = |cell: &AtomicU64, v: u64| {
            if v != 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        };
        bump(&self.messages, d.messages);
        bump(&self.bytes, d.bytes);
        bump(&self.logical_bytes, d.logical_bytes);
        bump(&self.dropped_offline, d.dropped_offline);
        bump(&self.dropped_loss, d.dropped_loss);
        bump(&self.dropped_disconnected, d.dropped_disconnected);
        bump(&self.corrupted, d.corrupted);
        bump(&self.delayed, d.delayed);
        if d.delay_seconds != 0.0 {
            atomic_f64_add(&self.delay_seconds_bits, d.delay_seconds);
        }
    }

    fn load(&self) -> BusStats {
        BusStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            dropped_offline: self.dropped_offline.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            dropped_disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            delay_seconds: f64::from_bits(self.delay_seconds_bits.load(Ordering::Relaxed)),
        }
    }

    fn store(&self, s: &BusStats) {
        self.messages.store(s.messages, Ordering::Relaxed);
        self.bytes.store(s.bytes, Ordering::Relaxed);
        self.logical_bytes.store(s.logical_bytes, Ordering::Relaxed);
        self.dropped_offline
            .store(s.dropped_offline, Ordering::Relaxed);
        self.dropped_loss.store(s.dropped_loss, Ordering::Relaxed);
        self.dropped_disconnected
            .store(s.dropped_disconnected, Ordering::Relaxed);
        self.corrupted.store(s.corrupted, Ordering::Relaxed);
        self.delayed.store(s.delayed, Ordering::Relaxed);
        self.delay_seconds_bits
            .store(s.delay_seconds.to_bits(), Ordering::Relaxed);
    }
}

/// One residence's inbox. `closed` models a hub whose receiving end
/// died: deliveries to it count as `dropped_disconnected` instead of
/// panicking.
struct Mailbox {
    queue: Mutex<Vec<Arc<ModelUpdate>>>,
    closed: AtomicBool,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        }
    }

    /// Delivers `u`; false if the receiving end is disconnected.
    fn push(&self, u: Arc<ModelUpdate>) -> bool {
        if self.closed.load(Ordering::Relaxed) {
            return false;
        }
        self.queue.lock().push(u);
        true
    }
}

struct BusInner {
    mailboxes: Vec<Mailbox>,
    stats: AtomicBusStats,
    latency: LatencyModel,
    faults: Option<FaultInjector>,
    codec: PayloadCodec,
}

/// A broadcast bus connecting `n` residences.
#[derive(Clone)]
pub struct BroadcastBus {
    inner: Arc<BusInner>,
}

impl BroadcastBus {
    /// Creates a fault-free bus for `n` residences.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, latency: LatencyModel) -> Self {
        Self::build(n, latency, None)
    }

    /// Creates a bus whose deliveries are subject to `faults`. A
    /// fault-free config ([`FaultConfig::is_active`] == false) behaves
    /// exactly like [`BroadcastBus::new`].
    ///
    /// # Panics
    /// Panics if `n == 0` or the fault config is invalid.
    pub fn with_faults(n: usize, latency: LatencyModel, faults: &FaultConfig) -> Self {
        Self::with_codec(n, latency, faults, PayloadCodec::Raw)
    }

    /// [`with_faults`](Self::with_faults) plus an uplink
    /// [`PayloadCodec`]: broadcast payloads are accounted (and, at the
    /// round-engine layer, transformed) under `codec`. `Raw` keeps
    /// every byte counter bit-identical to [`BroadcastBus::new`].
    ///
    /// # Panics
    /// Panics if `n == 0` or the fault config is invalid.
    pub fn with_codec(
        n: usize,
        latency: LatencyModel,
        faults: &FaultConfig,
        codec: PayloadCodec,
    ) -> Self {
        let injector = faults
            .is_active()
            .then(|| FaultInjector::new(faults.plan(), n));
        Self::build_with(n, latency, injector, codec)
    }

    fn build(n: usize, latency: LatencyModel, faults: Option<FaultInjector>) -> Self {
        Self::build_with(n, latency, faults, PayloadCodec::Raw)
    }

    fn build_with(
        n: usize,
        latency: LatencyModel,
        faults: Option<FaultInjector>,
        codec: PayloadCodec,
    ) -> Self {
        assert!(n > 0, "bus needs at least one participant");
        BroadcastBus {
            inner: Arc::new(BusInner {
                mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
                stats: AtomicBusStats::default(),
                latency,
                faults,
                codec,
            }),
        }
    }

    /// The uplink payload codec this bus accounts under.
    pub fn codec(&self) -> PayloadCodec {
        self.inner.codec
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.inner.mailboxes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a bus always has >= 1 participant (checked at creation)
    }

    /// Broadcasts `update` from its sender to every *other* residence.
    /// Under an active fault plan each point-to-point delivery is
    /// independently dropped, delayed, corrupted, or delivered; the
    /// outcome for each `(sender, receiver, round, model_id)` tuple is
    /// deterministic in the fault seed.
    ///
    /// # Panics
    /// Panics if `update.sender` is out of range.
    pub fn broadcast(&self, update: ModelUpdate) {
        self.broadcast_arc(Arc::new(update));
    }

    /// [`broadcast`](Self::broadcast) of an already-shared payload. All
    /// clean deliveries alias `arc` — no payload clone per receiver —
    /// and the caller's retained handle is pointer-identical to what the
    /// mailboxes received.
    pub fn broadcast_arc(&self, arc: Arc<ModelUpdate>) {
        let n = self.len();
        assert!(arc.sender < n, "sender {} out of range", arc.sender);
        let wire = self.inner.codec.wire_update_bytes(&arc) as u64;
        let logical = arc.byte_size() as u64;
        let mut delta = BusStats::default();
        for (i, mailbox) in self.inner.mailboxes.iter().enumerate() {
            if i == arc.sender {
                continue;
            }
            self.deliver_one(&arc, i, &mut |u| mailbox.push(u), wire, logical, &mut delta);
        }
        self.inner.stats.add(&delta);
    }

    /// Broadcasts one update per sender as a single batched pass,
    /// visiting each mailbox exactly once (one lock per receiver per
    /// round instead of one per sender×receiver pair). Deliveries,
    /// fault fates, per-receiver arrival order (sender-ascending) and
    /// every statistics bit — including the `delay_seconds` float
    /// summation order — are identical to calling
    /// [`broadcast_arc`](Self::broadcast_arc) once per update in slice
    /// order: fault decisions are pure per-edge hashes, integer
    /// counters are commutative, and the delay fold below replays the
    /// sequential per-sender accumulation exactly.
    ///
    /// # Panics
    /// Panics if any `update.sender` is out of range.
    pub fn broadcast_all(&self, updates: &[Arc<ModelUpdate>]) {
        let n = self.len();
        let sizes: Vec<(u64, u64)> = updates
            .iter()
            .map(|arc| {
                assert!(arc.sender < n, "sender {} out of range", arc.sender);
                (
                    self.inner.codec.wire_update_bytes(arc) as u64,
                    arc.byte_size() as u64,
                )
            })
            .collect();
        let mut deltas = vec![BusStats::default(); updates.len()];
        for (i, mailbox) in self.inner.mailboxes.iter().enumerate() {
            // One lock (and one closed check) per receiver for the
            // whole round — the batching win over per-sender
            // broadcasts. Rounds are quiescent while this runs, so the
            // coarser closed check cannot observe a different value
            // than per-delivery checks would.
            let closed = mailbox.closed.load(Ordering::Relaxed);
            let mut guard = (!closed).then(|| mailbox.queue.lock());
            let mut push = |u: Arc<ModelUpdate>| match guard.as_mut() {
                Some(queue) => {
                    queue.push(u);
                    true
                }
                None => false,
            };
            for ((arc, &(wire, logical)), delta) in
                updates.iter().zip(&sizes).zip(deltas.iter_mut())
            {
                if arc.sender == i {
                    continue;
                }
                self.deliver_one(arc, i, &mut push, wire, logical, delta);
            }
        }
        // Fold per-sender deltas in sender order — the same sequence of
        // `AtomicBusStats::add` calls the per-sender path would issue.
        for delta in &deltas {
            self.inner.stats.add(delta);
        }
    }

    /// Routes one point-to-point delivery through the fault plan and
    /// into the receiver's queue via `push` (which reports false when
    /// the receiving end is disconnected), accumulating counters into
    /// `delta`. Shared by the per-sender and batched broadcast paths
    /// so their semantics cannot drift.
    fn deliver_one(
        &self,
        arc: &Arc<ModelUpdate>,
        receiver: usize,
        push: &mut dyn FnMut(Arc<ModelUpdate>) -> bool,
        wire: u64,
        logical: u64,
        delta: &mut BusStats,
    ) {
        let fate = match &self.inner.faults {
            Some(inj) => inj
                .plan()
                .delivery(arc.sender, receiver, arc.round, arc.model_id),
            None => Delivery::Deliver,
        };
        match fate {
            Delivery::Drop(reason) => match reason {
                DropReason::SenderOffline | DropReason::ReceiverOffline => {
                    delta.dropped_offline += 1
                }
                DropReason::Loss => delta.dropped_loss += 1,
            },
            Delivery::Corrupt(kind) => {
                let injector = self
                    .inner
                    .faults
                    .as_ref()
                    .expect("corrupt without injector");
                let damaged = injector.plan().corrupt(arc, receiver as u64, kind);
                let damaged_wire = self.inner.codec.wire_update_bytes(&damaged) as u64;
                let damaged_logical = damaged.byte_size() as u64;
                if !push(Arc::new(damaged)) {
                    delta.dropped_disconnected += 1;
                    return;
                }
                delta.corrupted += 1;
                delta.messages += 1;
                delta.bytes += damaged_wire;
                delta.logical_bytes += damaged_logical;
            }
            Delivery::Delay { extra_latency_mult } => {
                let injector = self.inner.faults.as_ref().expect("delay without injector");
                injector.park(receiver, Arc::clone(arc));
                delta.delayed += 1;
                delta.messages += 1;
                delta.bytes += wire;
                delta.logical_bytes += logical;
                delta.delay_seconds += extra_latency_mult * self.inner.latency.seconds(1, wire);
            }
            Delivery::Deliver => {
                // A dropped receiver is a fault, not a crash: count
                // the failed delivery and move on.
                if !push(Arc::clone(arc)) {
                    delta.dropped_disconnected += 1;
                    return;
                }
                delta.messages += 1;
                delta.bytes += wire;
                delta.logical_bytes += logical;
            }
        }
    }

    /// Drains all pending updates addressed to residence `id`,
    /// including any straggling deliveries whose delay has elapsed.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn drain(&self, id: usize) -> Vec<Arc<ModelUpdate>> {
        let mut out = Vec::new();
        self.drain_into(id, &mut out);
        out
    }

    /// [`drain`](Self::drain) into a reusable buffer (cleared first).
    pub fn drain_into(&self, id: usize, out: &mut Vec<Arc<ModelUpdate>>) {
        out.clear();
        out.append(&mut self.inner.mailboxes[id].queue.lock());
        if let Some(inj) = &self.inner.faults {
            out.extend(inj.take_ready(id));
        }
    }

    /// Drains residence `id`'s mailbox keeping only updates whose
    /// `model_id` matches, appended to `out` (cleared first) in arrival
    /// order; non-matching updates are *discarded*, exactly like the
    /// clone-then-filter the round loops used to do — without the
    /// allocation. Straggler clock still advances (one drain == one
    /// cycle).
    pub fn drain_model_into(&self, id: usize, model_id: u64, out: &mut Vec<Arc<ModelUpdate>>) {
        out.clear();
        {
            let mut queue = self.inner.mailboxes[id].queue.lock();
            for u in queue.drain(..) {
                if u.model_id == model_id {
                    out.push(u);
                }
            }
        }
        if let Some(inj) = &self.inner.faults {
            for u in inj.take_ready(id) {
                if u.model_id == model_id {
                    out.push(u);
                }
            }
        }
    }

    /// Closes residence `id`'s mailbox: subsequent deliveries to it are
    /// counted as `dropped_disconnected`. Models a hub process that died
    /// without unregistering (robustness tests use this).
    pub fn disconnect(&self, id: usize) {
        self.inner.mailboxes[id]
            .closed
            .store(true, Ordering::Relaxed);
    }

    /// Traffic so far.
    pub fn stats(&self) -> BusStats {
        self.inner.stats.load()
    }

    /// Simulated communication time spent so far, seconds, including
    /// straggler delay penalties.
    pub fn simulated_seconds(&self) -> f64 {
        let s = self.stats();
        self.inner.latency.seconds(s.messages, s.bytes) + s.delay_seconds
    }

    /// Resets traffic statistics (not mailboxes).
    pub fn reset_stats(&self) {
        self.inner.stats.store(&BusStats::default());
    }

    /// Captures the complete bus state — statistics, undrained mailbox
    /// contents, and any parked straggler queues — without disturbing
    /// it.
    ///
    /// Not safe to call concurrently with `broadcast`/`drain`; callers
    /// checkpoint between federation rounds, when the bus is quiescent.
    pub fn export_state(&self) -> BusState {
        let mailboxes = self
            .inner
            .mailboxes
            .iter()
            .map(|m| m.queue.lock().iter().map(|u| (**u).clone()).collect())
            .collect();
        let (parked_ready, parked_staged) = match &self.inner.faults {
            Some(inj) => inj.export_parked(),
            None => (vec![Vec::new(); self.len()], vec![Vec::new(); self.len()]),
        };
        BusState {
            stats: self.stats(),
            mailboxes,
            parked_ready,
            parked_staged,
        }
    }

    /// Restores state captured with [`BroadcastBus::export_state`] into
    /// a freshly built bus of the same shape.
    ///
    /// # Errors
    /// Rejects states whose participant count does not match, that
    /// target a disconnected mailbox, or that carry parked stragglers
    /// when this bus has no fault injector.
    pub fn restore_state(&self, state: &BusState) -> Result<(), String> {
        let n = self.len();
        if state.mailboxes.len() != n {
            return Err(format!(
                "bus state has {} mailboxes, bus has {n}",
                state.mailboxes.len()
            ));
        }
        for (mailbox, contents) in self.inner.mailboxes.iter().zip(&state.mailboxes) {
            for u in contents {
                if !mailbox.push(Arc::new(u.clone())) {
                    return Err("bus mailbox disconnected".to_string());
                }
            }
        }
        match &self.inner.faults {
            Some(inj) => {
                inj.restore_parked(state.parked_ready.clone(), state.parked_staged.clone())?
            }
            None => {
                let parked = state.parked_ready.iter().chain(&state.parked_staged);
                if parked.flatten().next().is_some() {
                    return Err(
                        "bus state carries parked stragglers but this bus has no fault injector"
                            .into(),
                    );
                }
            }
        }
        self.inner.stats.store(&state.stats);
        Ok(())
    }
}

/// Serializable snapshot of a [`BroadcastBus`], for checkpointing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BusState {
    /// Traffic counters (the latency model is linear in these, so
    /// restoring them reproduces final simulated-seconds exactly).
    pub stats: BusStats,
    /// Undrained mailbox contents per receiver, in delivery order.
    pub mailboxes: Vec<Vec<ModelUpdate>>,
    /// Parked stragglers surfacing on the next drain, per receiver.
    pub parked_ready: Vec<Vec<ModelUpdate>>,
    /// Parked stragglers surfacing one drain later, per receiver.
    pub parked_staged: Vec<Vec<ModelUpdate>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LayerUpdate;

    fn update(sender: usize, n_params: usize) -> ModelUpdate {
        update_round(sender, n_params, 0)
    }

    fn update_round(sender: usize, n_params: usize, round: u64) -> ModelUpdate {
        ModelUpdate {
            sender,
            round,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![1.0; n_params],
            }],
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let bus = BroadcastBus::new(3, LatencyModel::lan());
        bus.broadcast(update(0, 4));
        assert!(bus.drain(0).is_empty());
        assert_eq!(bus.drain(1).len(), 1);
        assert_eq!(bus.drain(2).len(), 1);
        // Draining again yields nothing.
        assert!(bus.drain(1).is_empty());
    }

    #[test]
    fn stats_count_per_delivery() {
        let bus = BroadcastBus::new(4, LatencyModel::lan());
        let u = update(1, 10);
        let size = u.byte_size() as u64;
        bus.broadcast(u);
        let s = bus.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 3 * size);
    }

    #[test]
    fn single_participant_broadcast_is_free() {
        let bus = BroadcastBus::new(1, LatencyModel::lan());
        bus.broadcast(update(0, 10));
        assert_eq!(bus.stats(), BusStats::default());
    }

    #[test]
    fn simulated_seconds_follow_latency_model() {
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let bus = BroadcastBus::new(3, latency);
        bus.broadcast(update(0, 1));
        assert!((bus.simulated_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cloud_latency_dominates_lan() {
        let msgs = 10;
        let bytes = 1_000_000;
        assert!(
            LatencyModel::cloud().seconds(msgs, bytes) > LatencyModel::lan().seconds(msgs, bytes)
        );
    }

    #[test]
    fn concurrent_broadcasts_are_all_delivered() {
        let bus = BroadcastBus::new(8, LatencyModel::lan());
        std::thread::scope(|scope| {
            for sender in 0..8 {
                let bus = bus.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        bus.broadcast(update(sender, 4));
                    }
                });
            }
        });
        // Each of 8 senders broadcast 50 updates to 7 peers.
        assert_eq!(bus.stats().messages, 8 * 50 * 7);
        for id in 0..8 {
            assert_eq!(bus.drain(id).len(), 7 * 50);
        }
    }

    #[test]
    fn broadcast_arc_delivers_pointer_identical_payloads() {
        let bus = BroadcastBus::new(3, LatencyModel::lan());
        let sent = Arc::new(update(0, 4));
        bus.broadcast_arc(Arc::clone(&sent));
        for id in 1..3 {
            let got = bus.drain(id);
            assert_eq!(got.len(), 1);
            assert!(
                Arc::ptr_eq(&got[0], &sent),
                "clean delivery must alias the sent payload"
            );
        }
    }

    #[test]
    fn keyed_drain_keeps_matching_and_discards_the_rest() {
        let bus = BroadcastBus::new(2, LatencyModel::lan());
        let mut a = update(0, 4);
        a.model_id = 7;
        let mut b = update(0, 4);
        b.model_id = 3;
        let mut c = update(0, 4);
        c.model_id = 7;
        bus.broadcast(a);
        bus.broadcast(b);
        bus.broadcast(c);
        let mut out = Vec::new();
        bus.drain_model_into(1, 7, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|u| u.model_id == 7));
        // The non-matching update was discarded, not left queued —
        // exactly the historical clone-then-filter semantics.
        assert!(bus.drain(1).is_empty());
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let bus = BroadcastBus::new(2, LatencyModel::lan());
        bus.broadcast(update(0, 4));
        bus.reset_stats();
        assert_eq!(bus.stats(), BusStats::default());
    }

    #[test]
    fn inactive_fault_config_changes_nothing() {
        let plain = BroadcastBus::new(3, LatencyModel::lan());
        let faulty = BroadcastBus::with_faults(3, LatencyModel::lan(), &FaultConfig::default());
        plain.broadcast(update(0, 4));
        faulty.broadcast(update(0, 4));
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(faulty.drain(1).len(), 1);
    }

    #[test]
    fn total_loss_drops_everything_with_counters() {
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        let bus = BroadcastBus::with_faults(4, LatencyModel::lan(), &cfg);
        bus.broadcast(update(0, 8));
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.dropped_loss, 3);
        for id in 1..4 {
            assert!(bus.drain(id).is_empty());
        }
    }

    #[test]
    fn lossy_bus_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 77,
            loss_rate: 0.5,
            ..FaultConfig::default()
        };
        let run = || {
            let bus = BroadcastBus::with_faults(5, LatencyModel::lan(), &cfg);
            for round in 0..20u64 {
                for sender in 0..5 {
                    bus.broadcast(update_round(sender, 4, round));
                }
            }
            let per_mailbox: Vec<usize> = (0..5).map(|id| bus.drain(id).len()).collect();
            (bus.stats(), per_mailbox)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stragglers_arrive_one_drain_late_and_pay_latency() {
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            straggler_delay: 3.0,
            ..FaultConfig::default()
        };
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let bus = BroadcastBus::with_faults(2, latency, &cfg);
        bus.broadcast(update(0, 4));
        // First drain: still parked.
        assert!(bus.drain(1).is_empty());
        // Second drain: surfaces.
        assert_eq!(bus.drain(1).len(), 1);
        let s = bus.stats();
        assert_eq!(s.delayed, 1);
        assert_eq!(s.messages, 1);
        // 1 message * 1 s nominal + 3x penalty on that delivery.
        assert!((bus.simulated_seconds() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn corrupted_deliveries_are_flagged_and_damaged() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let bus = BroadcastBus::with_faults(2, LatencyModel::lan(), &cfg);
        let clean = update(0, 8);
        bus.broadcast(clean.clone());
        let got = bus.drain(1);
        assert_eq!(got.len(), 1);
        let damaged = &got[0];
        let truncated = damaged.layers[0].params.len() < clean.layers[0].params.len();
        let has_nan = damaged.layers[0].params.iter().any(|p| p.is_nan());
        assert!(truncated || has_nan, "payload must be damaged");
        assert_eq!(bus.stats().corrupted, 1);
    }

    #[test]
    fn full_dropout_silences_the_bus() {
        let cfg = FaultConfig {
            dropout_rate: 1.0,
            ..FaultConfig::default()
        };
        let bus = BroadcastBus::with_faults(3, LatencyModel::lan(), &cfg);
        bus.broadcast(update(0, 4));
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.dropped_offline, 2);
    }

    #[test]
    fn raw_codec_reports_equal_wire_and_logical_bytes() {
        let bus = BroadcastBus::new(3, LatencyModel::lan());
        assert!(bus.codec().is_raw());
        bus.broadcast(update(0, 10));
        let s = bus.stats();
        assert_eq!(s.bytes, s.logical_bytes);
        assert_ne!(s.bytes, 0);
    }

    #[test]
    fn compressed_codec_shrinks_wire_but_not_logical_bytes() {
        use crate::codec::PayloadCodec;
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let bus = BroadcastBus::with_codec(3, LatencyModel::lan(), &FaultConfig::default(), codec);
        let u = update(0, 100);
        let logical = u.byte_size() as u64;
        let wire = codec.wire_update_bytes(&u) as u64;
        assert!(wire < logical);
        bus.broadcast(u);
        let s = bus.stats();
        assert_eq!(s.bytes, 2 * wire);
        assert_eq!(s.logical_bytes, 2 * logical);
        // Simulated latency is paid on wire bytes.
        let expected = bus.inner.latency.seconds(2, 2 * wire);
        assert!((bus.simulated_seconds() - expected).abs() < 1e-15);
    }

    #[test]
    fn batched_broadcast_is_bitwise_identical_to_sequential() {
        // Same fault plan, same senders: broadcast_all must reproduce
        // per-sender broadcast_arc exactly — mailbox contents, arrival
        // order, every counter, and the delay_seconds float bits.
        let cfg = FaultConfig {
            seed: 1234,
            loss_rate: 0.2,
            corrupt_rate: 0.15,
            straggler_rate: 0.25,
            straggler_delay: 2.5,
            ..FaultConfig::default()
        };
        let n = 7;
        let run = |batched: bool| {
            let bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &cfg);
            for round in 0..6u64 {
                let arcs: Vec<Arc<ModelUpdate>> = (0..n)
                    .map(|s| Arc::new(update_round(s, 16 + s, round)))
                    .collect();
                if batched {
                    bus.broadcast_all(&arcs);
                } else {
                    for arc in arcs {
                        bus.broadcast_arc(arc);
                    }
                }
            }
            // Compare parameter *bits*: corrupted payloads carry NaNs,
            // which derived f64 PartialEq would treat as never equal.
            type UpdateBits = (usize, u64, u64, Vec<(usize, Vec<u64>)>);
            let mailboxes: Vec<Vec<UpdateBits>> = (0..n)
                .map(|id| {
                    bus.drain(id)
                        .iter()
                        .map(|u| {
                            (
                                u.sender,
                                u.round,
                                u.model_id,
                                u.layers
                                    .iter()
                                    .map(|l| {
                                        (l.index, l.params.iter().map(|p| p.to_bits()).collect())
                                    })
                                    .collect(),
                            )
                        })
                        .collect()
                })
                .collect();
            (bus.stats(), bus.simulated_seconds().to_bits(), mailboxes)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn batched_broadcast_respects_disconnected_receivers() {
        let bus = BroadcastBus::new(3, LatencyModel::lan());
        bus.disconnect(2);
        let arcs: Vec<Arc<ModelUpdate>> = (0..3).map(|s| Arc::new(update(s, 4))).collect();
        bus.broadcast_all(&arcs);
        let s = bus.stats();
        assert_eq!(s.messages, 4); // 3 senders x 2 peers - 2 to the dead box
        assert_eq!(s.dropped_disconnected, 2);
        assert!(bus.drain(2).is_empty());
    }

    #[test]
    fn disconnected_receiver_counts_as_drop_not_panic() {
        let bus = BroadcastBus::new(2, LatencyModel::lan());
        bus.disconnect(1);
        bus.broadcast(update(0, 4));
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.dropped_disconnected, 1);
        assert!(bus.drain(1).is_empty());
    }
}
