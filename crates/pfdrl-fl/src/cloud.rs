//! The central parameter server — the baseline architecture the paper
//! argues against (Cloud, FL and FRL comparison methods, Table 2) — as
//! a column engine of the same shape as [`DflRound`](crate::DflRound)
//! and [`HierarchicalRound`](crate::HierarchicalRound).
//!
//! One [`CloudRound::run`] is a whole server round over a model column:
//! every participating home uploads a full snapshot in home order, the
//! server averages the uploads that match the column's own layer
//! shapes, and every home that can download imports the mean. Uplink
//! and downlink both pay the cloud latency model, which is what makes
//! the centralized baselines slower in the Figure 14 reproduction.
//!
//! Uploads go through the same deterministic fault plan as the LAN bus
//! (churned-out senders, loss, stragglers, payload corruption). A
//! malformed upload — truncated, mis-shaped or non-finite — is rejected
//! and counted, never panicked on. A round with no valid upload leaves
//! every local model as it is, which is the LAN engine's rule too; so
//! the server keeps no model between rounds, and the engine's only
//! cross-round state is its [`CloudStats`].

use crate::aggregate::fill_update;
use crate::bus::LatencyModel;
use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::{Delivery, DropReason, FaultConfig, FaultPlan, CLOUD_PEER};
use crate::round::RoundParams;
use pfdrl_nn::Layered;

/// Traffic statistics of the server, including fault counters.
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
    /// Uploads rejected by the server (layers missing, mis-sized or
    /// non-finite against the column's shapes).
    pub rejected: u64,
    /// Rounds that averaged nothing because no valid upload arrived
    /// (every local model kept).
    pub empty_rounds: u64,
    /// Downloads skipped because the residence was offline.
    pub missed_downloads: u64,
    /// Extra simulated seconds paid by straggling uploads.
    pub delay_seconds: f64,
}

/// The cloud column engine: one server round per [`CloudRound::run`].
/// Reusable across rounds and model columns; it keeps its upload
/// buffers and the mean between rounds only as scratch.
pub struct CloudRound {
    stats: CloudStats,
    latency: LatencyModel,
    faults: Option<FaultPlan>,
    codec: PayloadCodec,
    /// Upload buffers; the first `arrived` of a round reached the
    /// server, in home order.
    uploads: Vec<ModelUpdate>,
    /// The round's mean, one vector per averaged layer.
    mean: Vec<Vec<f64>>,
}

impl CloudRound {
    /// A server whose uplink is compressed with `codec` and subject to
    /// `faults` (an inactive config is fault-free). Snapshots are
    /// transformed at upload — the server averages exactly the values
    /// the wire carried — and `upload_bytes` accounts the compressed
    /// wire size while `logical_upload_bytes` keeps the raw-f64 size.
    ///
    /// # Panics
    /// Panics if the fault config is invalid.
    pub fn new(latency: LatencyModel, faults: &FaultConfig, codec: PayloadCodec) -> Self {
        CloudRound {
            stats: CloudStats::default(),
            latency,
            faults: faults.is_active().then(|| faults.plan()),
            codec,
            uploads: Vec::new(),
            mean: Vec::new(),
        }
    }

    /// Runs one server round over `models` (one model per home, same
    /// architecture): whole-model uploads in home order through the
    /// fault plan, the mean of the valid uploads, and downloads into
    /// every home that is online. `p.participants` withholds uploads (a
    /// withheld home still downloads). Returns the number of uploads
    /// averaged, 0 when the round failed and every model was left as it
    /// was.
    ///
    /// # Panics
    /// Panics if `models` is empty, the participation mask is
    /// mis-sized, or `p.alpha` is set: the cloud baselines federate
    /// whole models.
    pub fn run<M: Layered + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        p: &RoundParams<'_>,
    ) -> usize {
        let n = models.len();
        assert!(n > 0, "cloud round over no models");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        assert!(p.alpha.is_none(), "the cloud server averages whole models");
        let layer_end = models[0].layer_count();

        // Uploads and downloads are one model copy per home, too little
        // work to pay for a thread; home order fixes the mean's float
        // sum.
        let mut arrived = 0;
        for (home, model) in models.iter().enumerate() {
            if p.participants.is_some_and(|m| !m[home]) {
                continue;
            }
            if self.uploads.len() == arrived {
                self.uploads.push(ModelUpdate::default());
            }
            let buf = &mut self.uploads[arrived];
            buf.sender = home;
            buf.round = p.round;
            buf.model_id = p.model_id;
            fill_update(&**model, 0..layer_end, buf);
            if self.upload(arrived) {
                arrived += 1;
            }
        }

        // The server accepts an upload only if it carries exactly the
        // column's layers, in order, each of the column's size and
        // finite: a corrupted upload can never become the reference.
        // Valid uploads move to the front, keeping home order.
        let mut valid = 0;
        for i in 0..arrived {
            let u = &self.uploads[i];
            let ok = u.layers.len() == layer_end
                && u.layers.iter().enumerate().all(|(l, lu)| {
                    lu.index == l
                        && lu.params.len() == models[0].layer_param_count(l)
                        && lu.params.iter().all(|x| x.is_finite())
                });
            if ok {
                self.uploads.swap(valid, i);
                valid += 1;
            }
        }
        self.stats.rejected += (arrived - valid) as u64;
        if valid == 0 {
            self.stats.empty_rounds += 1;
            return 0;
        }

        // FedAvg layer by layer: copy the first valid upload, add the
        // rest in home order, then scale by 1 / valid.
        let scale = 1.0 / valid as f64;
        self.mean.resize_with(layer_end, Vec::new);
        for (l, acc) in self.mean.iter_mut().enumerate() {
            acc.clear();
            acc.extend_from_slice(&self.uploads[0].layers[l].params);
            for u in &self.uploads[1..valid] {
                for (a, x) in acc.iter_mut().zip(&u.layers[l].params) {
                    *a += x;
                }
            }
            for a in acc.iter_mut() {
                *a *= scale;
            }
        }

        // Downloads always travel raw: the server ships the dense mean.
        let bytes: u64 = self
            .mean
            .iter()
            .map(|l| 8 * l.len() as u64 + 16)
            .sum::<u64>()
            + 32;
        for (home, model) in models.iter_mut().enumerate() {
            if self.faults.is_some_and(|f| !f.can_download(home, p.round)) {
                self.stats.missed_downloads += 1;
                continue;
            }
            self.stats.downloads += 1;
            self.stats.download_bytes += bytes;
            for (l, layer) in self.mean.iter().enumerate() {
                model.import_layer(l, layer);
            }
        }
        valid
    }

    /// Sends `self.uploads[slot]` through the uplink: compression at
    /// the client, then the fault plan's fate (loss, corruption,
    /// straggling), counted. Returns whether the upload reached the
    /// server.
    fn upload(&mut self, slot: usize) -> bool {
        let codec = self.codec;
        let update = &mut self.uploads[slot];
        if !codec.is_raw() {
            codec.transform(update);
        }
        let fate = match &self.faults {
            Some(plan) => plan.upload(update.sender, update.round, update.model_id),
            None => Delivery::Deliver,
        };
        let stats = &mut self.stats;
        match fate {
            Delivery::Drop(DropReason::SenderOffline | DropReason::ReceiverOffline) => {
                stats.dropped_offline += 1;
                return false;
            }
            Delivery::Drop(DropReason::Loss) => {
                stats.dropped_loss += 1;
                return false;
            }
            Delivery::Corrupt(kind) => {
                let plan = self.faults.as_ref().expect("corrupt without plan");
                *update = plan.corrupt(update, CLOUD_PEER, kind);
                stats.corrupted += 1;
            }
            Delivery::Delay { extra_latency_mult } => {
                // Stragglers pay latency on the bytes that actually
                // travel: the compressed wire size.
                let bytes = codec.wire_update_bytes(update) as u64;
                stats.delayed += 1;
                stats.delay_seconds += extra_latency_mult * self.latency.seconds(1, bytes);
            }
            Delivery::Deliver => {}
        }
        stats.uploads += 1;
        stats.upload_bytes += codec.wire_update_bytes(update) as u64;
        stats.logical_upload_bytes += update.byte_size() as u64;
        true
    }

    /// Traffic so far: the engine's only cross-round state, which is
    /// what a checkpoint captures.
    pub fn stats(&self) -> CloudStats {
        self.stats
    }

    /// Restores counters captured with [`CloudRound::stats`] (the
    /// latency model is linear in them, so simulated seconds resume
    /// exactly).
    pub fn restore_stats(&mut self, stats: CloudStats) {
        self.stats = stats;
    }

    /// Simulated communication seconds spent on all traffic so far,
    /// including straggler delay penalties.
    pub fn simulated_seconds(&self) -> f64 {
        let s = &self.stats;
        self.latency
            .seconds(s.uploads + s.downloads, s.upload_bytes + s.download_bytes)
            + s.delay_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::STRAGGLER_DELAY;

    /// Minimal column model: its layers, exported as they are.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy(Vec<Vec<f64>>);

    impl Layered for Toy {
        fn layer_count(&self) -> usize {
            self.0.len()
        }
        fn layer_param_count(&self, i: usize) -> usize {
            self.0[i].len()
        }
        fn export_layer(&self, i: usize) -> Vec<f64> {
            self.0[i].clone()
        }
        fn import_layer(&mut self, i: usize, data: &[f64]) {
            assert_eq!(data.len(), self.0[i].len(), "import length mismatch");
            self.0[i].copy_from_slice(data);
        }
    }

    fn toy(v: f64) -> Toy {
        Toy(vec![vec![v; 8], vec![v; 2]])
    }

    fn fault_free() -> CloudRound {
        CloudRound::new(
            LatencyModel::cloud(),
            &FaultConfig::default(),
            PayloadCodec::Raw,
        )
    }

    /// One round at `round`; returns the count averaged.
    fn run_at(
        cloud: &mut CloudRound,
        models: &mut [Toy],
        round: u64,
        participants: Option<&[bool]>,
    ) -> usize {
        let mut col: Vec<&mut Toy> = models.iter_mut().collect();
        cloud.run(
            &mut col,
            &RoundParams {
                round,
                model_id: 0,
                alpha: None,
                participants,
            },
        )
    }

    fn run(cloud: &mut CloudRound, models: &mut [Toy]) -> usize {
        run_at(cloud, models, 0, None)
    }

    #[test]
    fn every_home_imports_the_mean() {
        let mut cloud = fault_free();
        let mut models = vec![toy(1.0), toy(3.0), toy(8.0)];
        assert_eq!(run(&mut cloud, &mut models), 3);
        assert!(models.iter().all(|m| *m == toy(4.0)));
        let s = cloud.stats();
        assert_eq!((s.uploads, s.downloads), (3, 3));
        assert!(s.upload_bytes > 0 && s.download_bytes > 0);
    }

    #[test]
    fn mean_copies_the_first_upload_then_adds_in_home_order() {
        // Float addition is not associative: the mean must be exactly
        // ((u0 + u1) + u2) * (1/3), the order the server always used.
        let vals = [0.1, 0.7, 1e16];
        let mut models: Vec<Toy> = vals.iter().map(|&v| toy(v)).collect();
        run(&mut fault_free(), &mut models);
        let want = ((vals[0] + vals[1]) + vals[2]) * (1.0 / 3.0);
        assert_eq!(models[0].0[0][0].to_bits(), want.to_bits());
    }

    #[test]
    fn cloud_time_exceeds_lan_time_for_same_traffic() {
        let mut cloud = fault_free();
        run(&mut cloud, &mut [toy(1.0), toy(2.0)]);
        let s = cloud.stats();
        let lan =
            LatencyModel::lan().seconds(s.uploads + s.downloads, s.upload_bytes + s.download_bytes);
        assert!(cloud.simulated_seconds() > lan);
    }

    #[test]
    fn truncated_first_upload_is_rejected_not_taken_as_reference() {
        // A fault plan in which home 0's upload arrives with layer 0 cut
        // to 4 of 8 parameters and homes 1 and 2 arrive whole.
        let truncate_home_0 = |seed| {
            let cfg = FaultConfig {
                seed,
                corrupt_rate: 0.5,
                ..FaultConfig::default()
            };
            let plan = cfg.plan();
            let fates: Vec<Delivery> = (0..3).map(|h| plan.upload(h, 0, 0)).collect();
            let kind = crate::fault::CorruptKind::Truncate;
            let cut = crate::aggregate::snapshot_update(&toy(0.0), 0, 0, 0);
            (fates
                == [
                    Delivery::Corrupt(kind),
                    Delivery::Deliver,
                    Delivery::Deliver,
                ]
                && plan.corrupt(&cut, CLOUD_PEER, kind).layers[0].params.len() == 4)
                .then_some(cfg)
        };
        let cfg = (0..10_000).find_map(truncate_home_0).expect("no such seed");
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &cfg, PayloadCodec::Raw);
        let mut models = vec![toy(1.0), toy(3.0), toy(5.0)];
        // The truncated upload is rejected; the whole ones average, and
        // every home imports a correctly sized mean.
        assert_eq!(run(&mut cloud, &mut models), 2);
        let s = cloud.stats();
        assert_eq!((s.corrupted, s.rejected), (1, 1));
        assert!(models.iter().all(|m| *m == toy(4.0)));
    }

    #[test]
    fn non_finite_uploads_are_rejected_not_panicked_on() {
        let mut cloud = fault_free();
        let mut nan = toy(9.0);
        nan.0[1][0] = f64::NAN;
        let mut inf = toy(9.0);
        inf.0[0][3] = f64::INFINITY;
        let mut models = vec![toy(1.0), nan, toy(3.0), inf];
        assert_eq!(run(&mut cloud, &mut models), 2);
        assert_eq!(cloud.stats().rejected, 2);
        // Every home, the invalid ones too, imports the valid mean.
        assert!(models.iter().all(|m| *m == toy(2.0)));
    }

    #[test]
    fn failed_round_keeps_every_local_model() {
        // Every upload invalid: nothing is imported, nothing is
        // downloaded, and the previous round's mean is not served
        // either — the server keeps no model between rounds.
        let mut cloud = fault_free();
        let mut models = vec![toy(2.0), toy(4.0)];
        assert_eq!(run(&mut cloud, &mut models), 2);
        let downloads = cloud.stats().downloads;
        let mut bad = vec![toy(f64::NAN), toy(f64::NAN)];
        assert_eq!(run(&mut cloud, &mut bad), 0);
        assert!(bad.iter().all(|m| m.0[0][0].is_nan()));
        let s = cloud.stats();
        assert_eq!((s.empty_rounds, s.downloads), (1, downloads));
    }

    #[test]
    fn withheld_home_uploads_nothing_but_downloads() {
        let mut cloud = fault_free();
        let mut models = vec![toy(1.0), toy(100.0), toy(3.0)];
        let mask = [true, false, true];
        assert_eq!(run_at(&mut cloud, &mut models, 0, Some(&mask)), 2);
        assert!(models.iter().all(|m| *m == toy(2.0)));
        let s = cloud.stats();
        assert_eq!((s.uploads, s.downloads), (2, 3));
    }

    #[test]
    fn lossy_uplink_drops_uploads_deterministically() {
        let cfg = FaultConfig {
            seed: 5,
            loss_rate: 0.5,
            ..FaultConfig::default()
        };
        let go = || {
            let mut cloud = CloudRound::new(LatencyModel::cloud(), &cfg, PayloadCodec::Raw);
            let mut models = vec![toy(1.0); 4];
            for round in 0..20 {
                run_at(&mut cloud, &mut models, round, None);
            }
            cloud.stats()
        };
        let s = go();
        assert_eq!(s, go());
        assert!(s.dropped_loss > 0, "some uploads must be lost at 50%");
        assert_eq!(s.uploads + s.dropped_loss, 80);
    }

    #[test]
    fn offline_residence_misses_upload_and_download() {
        let cfg = FaultConfig {
            dropout_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &cfg, PayloadCodec::Raw);
        assert_eq!(run(&mut cloud, &mut [toy(1.0)]), 0);
        assert_eq!(cloud.stats().dropped_offline, 1);

        // Only home 1 offline: it misses its upload and the download.
        let plan = FaultConfig {
            dropout_rate: 0.5,
            ..FaultConfig::default()
        };
        let p = plan.plan();
        let round = (0..1000)
            .find(|&r| !p.is_offline(0, r) && p.is_offline(1, r) && !p.is_offline(2, r))
            .expect("no such round");
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &plan, PayloadCodec::Raw);
        let mut models = vec![toy(1.0), toy(7.0), toy(3.0)];
        assert_eq!(run_at(&mut cloud, &mut models, round, None), 2);
        assert_eq!(models, vec![toy(2.0), toy(7.0), toy(2.0)]);
        let s = cloud.stats();
        assert_eq!((s.dropped_offline, s.missed_downloads), (1, 1));
    }

    #[test]
    fn corrupted_upload_is_flagged_and_rejected() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &cfg, PayloadCodec::Raw);
        let mut models = vec![toy(1.0)];
        // The damaged snapshot is either truncated or NaN-laden.
        assert_eq!(run(&mut cloud, &mut models), 0);
        let s = cloud.stats();
        assert_eq!((s.corrupted, s.rejected), (1, 1));
        assert_eq!(models, vec![toy(1.0)]);
    }

    #[test]
    fn compressed_uplink_accounts_wire_and_logical_bytes_separately() {
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &FaultConfig::default(), codec);
        let up = crate::aggregate::snapshot_update(&toy(1.0), 0, 0, 0);
        let wire = codec.wire_update_bytes(&up) as u64;
        let logical = up.byte_size() as u64;
        assert!(wire < logical);
        let mut models = vec![toy(1.0)];
        // The server averages the dequantized wire values: 1.0 survives
        // q8 exactly (it is the layer max).
        assert_eq!(run(&mut cloud, &mut models), 1);
        assert_eq!(models, vec![toy(1.0)]);
        let s = cloud.stats();
        assert_eq!((s.upload_bytes, s.logical_upload_bytes), (wire, logical));

        let mut raw = fault_free();
        run(&mut raw, &mut [toy(2.0)]);
        let s = raw.stats();
        assert_eq!(s.upload_bytes, s.logical_upload_bytes);
    }

    #[test]
    fn straggling_upload_still_arrives_but_pays_latency() {
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            ..FaultConfig::default()
        };
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let mut cloud = CloudRound::new(latency, &cfg, PayloadCodec::Raw);
        assert_eq!(run(&mut cloud, &mut [toy(1.0)]), 1);
        let s = cloud.stats();
        assert_eq!(s.delayed, 1);
        assert!((s.delay_seconds - STRAGGLER_DELAY).abs() < 1e-12);
    }
}
