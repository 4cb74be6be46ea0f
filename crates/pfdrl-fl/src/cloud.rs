//! Centralized cloud aggregator — the baseline architecture the paper
//! argues against (Cloud and FL comparison methods, Table 2).
//!
//! Clients upload full model snapshots; the server averages and every
//! client downloads the global model. Uplink and downlink both pay the
//! cloud latency model, which is what makes the centralized baselines
//! slower in the Figure 14 reproduction.
//!
//! An aggregator built with [`CloudAggregator::with_faults`] subjects
//! uplink traffic to the same deterministic fault plan as the LAN bus
//! (churned-out senders, loss, stragglers, payload corruption), and the
//! server-side aggregation validates every snapshot instead of
//! panicking: malformed uploads are rejected and counted, and an
//! optional quorum keeps the previous global model when too few valid
//! snapshots arrive.

use crate::bus::LatencyModel;
use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::{Delivery, DropReason, FaultConfig, FaultPlan};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Traffic statistics of the aggregator, including fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CloudStats {
    pub uploads: u64,
    pub downloads: u64,
    /// Uplink bytes as they would travel the wire (post-compression).
    pub upload_bytes: u64,
    /// Uplink bytes before compression (8 B/param). Equal to
    /// `upload_bytes` under the `Raw` codec.
    pub logical_upload_bytes: u64,
    pub download_bytes: u64,
    /// Uploads dropped because the sending residence was offline.
    pub dropped_offline: u64,
    /// Uploads dropped by simulated uplink loss.
    pub dropped_loss: u64,
    /// Uploads that arrived with a corrupted payload.
    pub corrupted: u64,
    /// Uploads that straggled (paid a latency penalty).
    pub delayed: u64,
    /// Snapshots rejected during aggregation (malformed structure,
    /// mis-sized or non-finite layers).
    pub rejected: u64,
    /// Aggregation rounds skipped because fewer valid snapshots than
    /// the quorum arrived (previous global model kept).
    pub quorum_failures: u64,
    /// Downloads skipped because the residence was offline.
    pub missed_downloads: u64,
    /// Extra simulated seconds paid by straggling uploads.
    pub delay_seconds: f64,
}

/// Adds `v` to an `f64` stored as its bit pattern in an [`AtomicU64`].
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

/// [`CloudStats`] in relaxed atomics so concurrent uploaders and
/// downloaders never serialize on a stats lock. All counter updates are
/// commutative adds, so totals are exact under any interleaving.
#[derive(Default)]
struct AtomicCloudStats {
    uploads: AtomicU64,
    downloads: AtomicU64,
    upload_bytes: AtomicU64,
    logical_upload_bytes: AtomicU64,
    download_bytes: AtomicU64,
    dropped_offline: AtomicU64,
    dropped_loss: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    rejected: AtomicU64,
    quorum_failures: AtomicU64,
    missed_downloads: AtomicU64,
    delay_seconds_bits: AtomicU64,
}

impl AtomicCloudStats {
    fn load(&self) -> CloudStats {
        CloudStats {
            uploads: self.uploads.load(Ordering::Relaxed),
            downloads: self.downloads.load(Ordering::Relaxed),
            upload_bytes: self.upload_bytes.load(Ordering::Relaxed),
            logical_upload_bytes: self.logical_upload_bytes.load(Ordering::Relaxed),
            download_bytes: self.download_bytes.load(Ordering::Relaxed),
            dropped_offline: self.dropped_offline.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            quorum_failures: self.quorum_failures.load(Ordering::Relaxed),
            missed_downloads: self.missed_downloads.load(Ordering::Relaxed),
            delay_seconds: f64::from_bits(self.delay_seconds_bits.load(Ordering::Relaxed)),
        }
    }

    fn store(&self, s: &CloudStats) {
        self.uploads.store(s.uploads, Ordering::Relaxed);
        self.downloads.store(s.downloads, Ordering::Relaxed);
        self.upload_bytes.store(s.upload_bytes, Ordering::Relaxed);
        self.logical_upload_bytes
            .store(s.logical_upload_bytes, Ordering::Relaxed);
        self.download_bytes
            .store(s.download_bytes, Ordering::Relaxed);
        self.dropped_offline
            .store(s.dropped_offline, Ordering::Relaxed);
        self.dropped_loss.store(s.dropped_loss, Ordering::Relaxed);
        self.corrupted.store(s.corrupted, Ordering::Relaxed);
        self.delayed.store(s.delayed, Ordering::Relaxed);
        self.rejected.store(s.rejected, Ordering::Relaxed);
        self.quorum_failures
            .store(s.quorum_failures, Ordering::Relaxed);
        self.missed_downloads
            .store(s.missed_downloads, Ordering::Relaxed);
        self.delay_seconds_bits
            .store(s.delay_seconds.to_bits(), Ordering::Relaxed);
    }
}

struct CloudInner {
    pending: Mutex<Vec<ModelUpdate>>,
    global: Mutex<Option<Arc<Vec<Vec<f64>>>>>,
    stats: AtomicCloudStats,
    latency: LatencyModel,
    faults: Option<FaultPlan>,
    codec: PayloadCodec,
}

/// A central parameter server.
#[derive(Clone)]
pub struct CloudAggregator {
    inner: Arc<CloudInner>,
}

impl CloudAggregator {
    pub fn new(latency: LatencyModel) -> Self {
        Self::build(latency, None, PayloadCodec::Raw)
    }

    /// An aggregator whose uplink is subject to `faults`. A fault-free
    /// config behaves exactly like [`CloudAggregator::new`].
    ///
    /// # Panics
    /// Panics if the fault config is invalid.
    pub fn with_faults(latency: LatencyModel, faults: &FaultConfig) -> Self {
        Self::with_codec(latency, faults, PayloadCodec::Raw)
    }

    /// An aggregator whose uplink is compressed with `codec` (and
    /// subject to `faults`). Snapshots are transformed at upload —
    /// the server aggregates exactly the values the wire carried —
    /// and `upload_bytes` accounts the compressed wire size while
    /// `logical_upload_bytes` keeps the raw-f64 size.
    ///
    /// # Panics
    /// Panics if the fault config is invalid.
    pub fn with_codec(latency: LatencyModel, faults: &FaultConfig, codec: PayloadCodec) -> Self {
        Self::build(latency, faults.is_active().then(|| faults.plan()), codec)
    }

    fn build(latency: LatencyModel, faults: Option<FaultPlan>, codec: PayloadCodec) -> Self {
        CloudAggregator {
            inner: Arc::new(CloudInner {
                pending: Mutex::new(Vec::new()),
                global: Mutex::new(None),
                stats: AtomicCloudStats::default(),
                latency,
                faults,
                codec,
            }),
        }
    }

    /// The uplink payload codec this aggregator was built with.
    pub fn codec(&self) -> PayloadCodec {
        self.inner.codec
    }

    /// Client uploads a full snapshot. Under an active fault plan the
    /// upload may be lost, corrupted in transit, or delayed (paying a
    /// latency penalty); the outcome is deterministic in the fault seed.
    pub fn upload(&self, mut update: ModelUpdate) {
        use crate::fault::CLOUD_PEER;
        // Compression happens at the client before the uplink: faults
        // (loss, corruption, straggling) act on the compressed payload,
        // and the server aggregates the decoded wire values.
        let codec = self.inner.codec;
        if !codec.is_raw() {
            codec.transform(&mut update);
        }
        let fate = match &self.inner.faults {
            Some(plan) => plan.upload(update.sender, update.round, update.model_id),
            None => Delivery::Deliver,
        };
        let stats = &self.inner.stats;
        let accepted = match fate {
            Delivery::Drop(reason) => {
                match reason {
                    DropReason::SenderOffline | DropReason::ReceiverOffline => {
                        stats.dropped_offline.fetch_add(1, Ordering::Relaxed);
                    }
                    DropReason::Loss => {
                        stats.dropped_loss.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None
            }
            Delivery::Corrupt(kind) => {
                let plan = self.inner.faults.as_ref().expect("corrupt without plan");
                stats.corrupted.fetch_add(1, Ordering::Relaxed);
                Some(plan.corrupt(&update, CLOUD_PEER, kind))
            }
            Delivery::Delay { extra_latency_mult } => {
                // Stragglers pay latency on the bytes that actually
                // travel: the compressed wire size.
                let bytes = codec.wire_update_bytes(&update) as u64;
                stats.delayed.fetch_add(1, Ordering::Relaxed);
                atomic_f64_add(
                    &stats.delay_seconds_bits,
                    extra_latency_mult * self.inner.latency.seconds(1, bytes),
                );
                Some(update)
            }
            Delivery::Deliver => Some(update),
        };
        if let Some(update) = accepted {
            stats.uploads.fetch_add(1, Ordering::Relaxed);
            stats
                .upload_bytes
                .fetch_add(codec.wire_update_bytes(&update) as u64, Ordering::Relaxed);
            stats
                .logical_upload_bytes
                .fetch_add(update.byte_size() as u64, Ordering::Relaxed);
            self.inner.pending.lock().push(update);
        }
    }

    /// True when `update` is a well-formed full snapshot matching the
    /// reference structure: one layer per index, in order, every
    /// parameter finite.
    fn snapshot_is_valid(update: &ModelUpdate, reference: &ModelUpdate) -> bool {
        update.layers.len() == reference.layers.len()
            && update.layers.iter().enumerate().all(|(i, lu)| {
                lu.index == i
                    && lu.params.len() == reference.layers[i].params.len()
                    && lu.params.iter().all(|p| p.is_finite())
            })
    }

    /// Server-side FedAvg over everything uploaded since the last
    /// aggregation, requiring at least `min_quorum` valid snapshots.
    ///
    /// Malformed snapshots (inconsistent layer structure, truncated or
    /// non-finite layers) are rejected and counted, never panicked on;
    /// the reference structure is the first internally-consistent
    /// snapshot of the batch. If fewer than `min_quorum` snapshots
    /// survive validation the previous global model is kept and 0 is
    /// returned.
    pub fn aggregate_with_quorum(&self, min_quorum: usize) -> usize {
        let pending = std::mem::take(&mut *self.inner.pending.lock());
        if pending.is_empty() {
            return 0;
        }
        // The reference snapshot: first one that is self-consistent
        // (layer i at position i, all params finite).
        let reference = pending.iter().find(|u| {
            u.layers
                .iter()
                .enumerate()
                .all(|(i, lu)| lu.index == i && lu.params.iter().all(|p| p.is_finite()))
        });
        let valid: Vec<&ModelUpdate> = match reference {
            Some(reference) => pending
                .iter()
                .filter(|u| Self::snapshot_is_valid(u, reference))
                .collect(),
            None => Vec::new(),
        };
        self.inner
            .stats
            .rejected
            .fetch_add((pending.len() - valid.len()) as u64, Ordering::Relaxed);
        if valid.len() < min_quorum.max(1) {
            self.inner
                .stats
                .quorum_failures
                .fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let layer_count = valid[0].layers.len();
        // Clone-free FedAvg, layer by layer. Summing the first
        // snapshot then the rest in upload order is bit-identical to
        // `pfdrl_nn::average_params` over per-layer clones (zero + s0 is
        // exact), which is what this loop replaced.
        let scale = 1.0 / valid.len() as f64;
        let global: Vec<Vec<f64>> = (0..layer_count)
            .map(|layer_idx| {
                let mut acc = valid[0].layers[layer_idx].params.clone();
                for u in &valid[1..] {
                    for (a, p) in acc.iter_mut().zip(u.layers[layer_idx].params.iter()) {
                        *a += p;
                    }
                }
                for a in acc.iter_mut() {
                    *a *= scale;
                }
                acc
            })
            .collect();
        *self.inner.global.lock() = Some(Arc::new(global));
        valid.len()
    }

    /// [`aggregate_with_quorum`](Self::aggregate_with_quorum) with a
    /// quorum of one: any valid snapshot is enough. Returns the number
    /// of snapshots merged (0 leaves any previous global model in
    /// place).
    pub fn aggregate(&self) -> usize {
        self.aggregate_with_quorum(1)
    }

    /// Client downloads the current global model (None before the first
    /// aggregation). The returned handle shares the server's copy —
    /// N concurrent downloaders clone a pointer, not the tensors.
    pub fn download(&self) -> Option<Arc<Vec<Vec<f64>>>> {
        let global = Arc::clone(self.inner.global.lock().as_ref()?);
        let bytes: u64 = global.iter().map(|l| 8 * l.len() as u64 + 16).sum::<u64>() + 32;
        self.inner.stats.downloads.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .download_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        Some(global)
    }

    /// Download on behalf of residence `receiver` during `round`: an
    /// offline residence misses the download (counted) and keeps its
    /// local model for the round.
    pub fn download_for(&self, receiver: usize, round: u64) -> Option<Arc<Vec<Vec<f64>>>> {
        if let Some(plan) = &self.inner.faults {
            if !plan.can_download(receiver, round) {
                self.inner
                    .stats
                    .missed_downloads
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        self.download()
    }

    pub fn stats(&self) -> CloudStats {
        self.inner.stats.load()
    }

    /// Simulated communication seconds spent on all traffic so far,
    /// including straggler delay penalties.
    pub fn simulated_seconds(&self) -> f64 {
        let s = self.stats();
        self.inner
            .latency
            .seconds(s.uploads + s.downloads, s.upload_bytes + s.download_bytes)
            + s.delay_seconds
    }

    /// Captures the aggregator's complete state — statistics, the
    /// current global model, and uploads pending aggregation — for
    /// checkpointing. The global model matters across rounds: a quorum
    /// failure keeps serving it, so resume must not lose it.
    pub fn export_state(&self) -> CloudState {
        CloudState {
            stats: self.stats(),
            global: self
                .inner
                .global
                .lock()
                .as_ref()
                .map(|g| g.as_ref().clone()),
            pending: self.inner.pending.lock().clone(),
        }
    }

    /// Restores state captured with [`CloudAggregator::export_state`].
    pub fn restore_state(&self, state: &CloudState) {
        self.inner.stats.store(&state.stats);
        *self.inner.global.lock() = state.global.clone().map(Arc::new);
        *self.inner.pending.lock() = state.pending.clone();
    }
}

/// Serializable snapshot of a [`CloudAggregator`], for checkpointing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CloudState {
    /// Traffic counters (the latency model is linear in these).
    pub stats: CloudStats,
    /// The global model, if any aggregation has succeeded yet.
    pub global: Option<Vec<Vec<f64>>>,
    /// Uploads received but not yet aggregated.
    pub pending: Vec<ModelUpdate>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LayerUpdate;

    fn snap(sender: usize, v: f64) -> ModelUpdate {
        snap_round(sender, v, 0)
    }

    fn snap_round(sender: usize, v: f64, round: u64) -> ModelUpdate {
        ModelUpdate {
            sender,
            round,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![v; 4],
            }],
        }
    }

    #[test]
    fn aggregate_averages_uploads() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 1.0));
        cloud.upload(snap(1, 3.0));
        assert_eq!(cloud.aggregate(), 2);
        let g = cloud.download().unwrap();
        assert_eq!(g[0], vec![2.0; 4]);
    }

    #[test]
    fn download_before_aggregate_is_none() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        assert!(cloud.download().is_none());
    }

    #[test]
    fn empty_aggregate_keeps_previous_global() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 5.0));
        cloud.aggregate();
        assert_eq!(cloud.aggregate(), 0);
        assert_eq!(cloud.download().unwrap()[0], vec![5.0; 4]);
    }

    #[test]
    fn stats_track_both_directions() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 1.0));
        cloud.aggregate();
        let _ = cloud.download();
        let _ = cloud.download();
        let s = cloud.stats();
        assert_eq!(s.uploads, 1);
        assert_eq!(s.downloads, 2);
        assert!(s.upload_bytes > 0 && s.download_bytes > 0);
    }

    #[test]
    fn cloud_time_exceeds_lan_time_for_same_traffic() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 1.0));
        cloud.aggregate();
        let _ = cloud.download();
        let s = cloud.stats();
        let lan =
            LatencyModel::lan().seconds(s.uploads + s.downloads, s.upload_bytes + s.download_bytes);
        assert!(cloud.simulated_seconds() > lan);
    }

    #[test]
    fn concurrent_uploads_all_counted() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        std::thread::scope(|scope| {
            for i in 0..8 {
                let c = cloud.clone();
                scope.spawn(move || c.upload(snap(i, i as f64)));
            }
        });
        assert_eq!(cloud.stats().uploads, 8);
        assert_eq!(cloud.aggregate(), 8);
        // Average of 0..8 = 3.5.
        assert_eq!(cloud.download().unwrap()[0], vec![3.5; 4]);
    }

    #[test]
    fn malformed_snapshots_are_rejected_not_panicked_on() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 1.0));
        cloud.upload(snap(1, 3.0));
        // Truncated layer.
        let mut truncated = snap(2, 9.0);
        truncated.layers[0].params.truncate(2);
        cloud.upload(truncated);
        // Non-finite layer.
        let mut nan = snap(3, 9.0);
        nan.layers[0].params[1] = f64::NAN;
        cloud.upload(nan);
        // Wrong layer count.
        let mut extra = snap(4, 9.0);
        extra.layers.push(LayerUpdate {
            index: 1,
            params: vec![9.0; 4],
        });
        cloud.upload(extra);
        assert_eq!(cloud.aggregate(), 2, "only well-formed snapshots merge");
        assert_eq!(cloud.stats().rejected, 3);
        assert_eq!(cloud.download().unwrap()[0], vec![2.0; 4]);
    }

    #[test]
    fn all_invalid_batch_keeps_previous_global() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 5.0));
        cloud.aggregate();
        let mut nan = snap(1, 9.0);
        nan.layers[0].params[0] = f64::NAN;
        cloud.upload(nan);
        assert_eq!(cloud.aggregate(), 0);
        assert_eq!(cloud.stats().rejected, 1);
        assert_eq!(cloud.download().unwrap()[0], vec![5.0; 4]);
    }

    #[test]
    fn quorum_failure_keeps_previous_global() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 2.0));
        cloud.upload(snap(1, 4.0));
        assert_eq!(cloud.aggregate_with_quorum(2), 2);
        cloud.upload(snap(0, 100.0));
        assert_eq!(
            cloud.aggregate_with_quorum(2),
            0,
            "one snapshot < quorum of 2"
        );
        assert_eq!(cloud.stats().quorum_failures, 1);
        assert_eq!(cloud.download().unwrap()[0], vec![3.0; 4]);
    }

    #[test]
    fn lossy_uplink_drops_uploads_deterministically() {
        let cfg = FaultConfig {
            seed: 5,
            loss_rate: 0.5,
            ..FaultConfig::default()
        };
        let run = || {
            let cloud = CloudAggregator::with_faults(LatencyModel::cloud(), &cfg);
            for round in 0..20u64 {
                for sender in 0..4 {
                    cloud.upload(snap_round(sender, 1.0, round));
                }
            }
            cloud.stats()
        };
        let s = run();
        assert_eq!(s, run());
        assert!(s.dropped_loss > 0, "some uploads must be lost at 50%");
        assert!(s.uploads < 80, "some uploads must be dropped");
        assert_eq!(s.uploads + s.dropped_loss, 80);
    }

    #[test]
    fn offline_residence_misses_upload_and_download() {
        let cfg = FaultConfig {
            dropout_rate: 1.0,
            ..FaultConfig::default()
        };
        let cloud = CloudAggregator::with_faults(LatencyModel::cloud(), &cfg);
        cloud.upload(snap(0, 1.0));
        assert_eq!(cloud.stats().dropped_offline, 1);
        assert_eq!(cloud.aggregate(), 0);
        assert!(cloud.download_for(0, 0).is_none());
        assert_eq!(cloud.stats().missed_downloads, 1);
    }

    #[test]
    fn corrupted_upload_is_flagged_and_rejected_at_aggregation() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let cloud = CloudAggregator::with_faults(LatencyModel::cloud(), &cfg);
        cloud.upload(snap(0, 1.0));
        assert_eq!(cloud.stats().corrupted, 1);
        // The damaged snapshot is either truncated or NaN-laden, so the
        // validating aggregation rejects it.
        assert_eq!(cloud.aggregate(), 0);
        assert_eq!(cloud.stats().rejected, 1);
    }

    #[test]
    fn compressed_uplink_accounts_wire_and_logical_bytes_separately() {
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let cloud =
            CloudAggregator::with_codec(LatencyModel::cloud(), &FaultConfig::default(), codec);
        let up = snap(0, 1.0);
        let wire = codec.wire_update_bytes(&up) as u64;
        let logical = up.byte_size() as u64;
        assert!(wire < logical);
        cloud.upload(up);
        let s = cloud.stats();
        assert_eq!(s.upload_bytes, wire);
        assert_eq!(s.logical_upload_bytes, logical);
        // The server aggregates the dequantized wire values, not the
        // raw snapshot: 1.0 survives q8 exactly (it is the layer max).
        assert_eq!(cloud.aggregate(), 1);
        assert_eq!(cloud.download().unwrap()[0], vec![1.0; 4]);
    }

    #[test]
    fn raw_uplink_reports_equal_wire_and_logical_bytes() {
        let cloud = CloudAggregator::new(LatencyModel::cloud());
        cloud.upload(snap(0, 2.0));
        let s = cloud.stats();
        assert_eq!(s.upload_bytes, s.logical_upload_bytes);
        assert!(s.upload_bytes > 0);
    }

    #[test]
    fn straggling_upload_still_arrives_but_pays_latency() {
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            straggler_delay: 2.0,
            ..FaultConfig::default()
        };
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let cloud = CloudAggregator::with_faults(latency, &cfg);
        cloud.upload(snap(0, 1.0));
        assert_eq!(cloud.aggregate(), 1);
        let s = cloud.stats();
        assert_eq!(s.delayed, 1);
        assert!((s.delay_seconds - 2.0).abs() < 1e-12);
    }
}
