//! Simulation configuration shared by every experiment.

use pfdrl_data::dataset::TargetTransform;
use pfdrl_data::{DeviceType, GeneratorConfig, SensorFaultConfig};
use pfdrl_drl::DqnConfig;
use pfdrl_fl::{AggregationMode, FaultConfig, PayloadCodec};
use pfdrl_forecast::{ForecastMethod, Precision, TrainConfig};
use serde::{Deserialize, Serialize};

fn default_dirty_minutes() -> u32 {
    30
}
fn default_quarantine_after_days() -> u32 {
    2
}
fn default_readmit_after_days() -> u32 {
    2
}
fn default_supervision_window_days() -> u64 {
    3
}

/// Per-home telemetry-health policy: when a home counts as dirty, how
/// quickly repeated dirt escalates to quarantine, and how much clean
/// history re-admits it. The thresholds only matter once imputation
/// actually fires, so a fault-free run never transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// A home's day is dirty when at least this many device-minutes
    /// were imputed across its devices.
    #[serde(default = "default_dirty_minutes")]
    pub dirty_minutes: u32,
    /// Consecutive dirty days (while Degraded) before quarantine.
    #[serde(default = "default_quarantine_after_days")]
    pub quarantine_after_days: u32,
    /// Consecutive clean days before a quarantined home is re-admitted
    /// to federation uploads (hysteresis).
    #[serde(default = "default_readmit_after_days")]
    pub readmit_after_days: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            dirty_minutes: default_dirty_minutes(),
            quarantine_after_days: default_quarantine_after_days(),
            readmit_after_days: default_readmit_after_days(),
        }
    }
}

impl HealthPolicy {
    /// Validates threshold sanity.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid policy.
    pub fn validate(&self) {
        assert!(self.dirty_minutes >= 1, "dirty_minutes must be >= 1");
        assert!(
            self.quarantine_after_days >= 1,
            "quarantine_after_days must be >= 1"
        );
        assert!(
            self.readmit_after_days >= 1,
            "readmit_after_days must be >= 1"
        );
    }
}

/// Training-divergence supervision: a windowed loss-explosion detector
/// plus automatic rollback to the last good checkpoint. Disabled by
/// default (`explode_factor == 0`), in which case the runner behaves
/// exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisionPolicy {
    /// A completed day diverges when its fleet mean train loss is
    /// non-finite or exceeds this factor × the trailing-window mean.
    /// `0.0` disables supervision entirely.
    #[serde(default)]
    pub explode_factor: f64,
    /// Trailing window (in completed days) the detector baselines on.
    #[serde(default = "default_supervision_window_days")]
    pub window_days: u64,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            explode_factor: 0.0,
            window_days: default_supervision_window_days(),
        }
    }
}

impl SupervisionPolicy {
    /// Whether the divergence supervisor is on.
    pub fn is_active(&self) -> bool {
        self.explode_factor > 0.0
    }

    /// Validates knob sanity.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid policy.
    pub fn validate(&self) {
        assert!(
            self.explode_factor.is_finite() && self.explode_factor >= 0.0,
            "explode_factor must be finite and non-negative"
        );
        assert!(self.window_days >= 1, "window_days must be >= 1");
    }
}

/// Durable-checkpoint policy for crash-recoverable runs.
///
/// Disabled by default (`dir: None`), in which case runs behave exactly
/// as before — nothing touches the filesystem. With a directory set,
/// the resumable runner writes a `PFDS` snapshot after every
/// `every_days`-th completed evaluation day (and always after the last
/// one), keeping the newest `keep_last` snapshots.
///
/// The policy is deliberately excluded from [`SimConfig::run_hash`]:
/// changing only *where or how often* a run checkpoints must not
/// invalidate existing snapshots of that run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Snapshot directory; `None` disables checkpointing entirely.
    pub dir: Option<String>,
    /// Snapshot every this many completed evaluation days (min 1).
    pub every_days: u64,
    /// Snapshots retained after each save (0 = keep all).
    pub keep_last: usize,
    /// Testing hook: hard-abort the process (as a crash would) once
    /// this many evaluation days have completed, right after the day's
    /// checkpoint hook. Lets integration tests and CI prove
    /// kill-and-resume equivalence without external process killing.
    pub abort_after_days: Option<u64>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            dir: None,
            every_days: 1,
            keep_last: 3,
            abort_after_days: None,
        }
    }
}

impl CheckpointPolicy {
    /// Whether checkpointing is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Full configuration of one neighbourhood simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Global seed (drives data generation and all model init).
    pub seed: u64,
    /// Number of residences in the federation.
    pub n_residences: usize,
    /// Devices installed per home. Defaults to the controllable,
    /// standby-heavy subset the EMS can act on.
    pub devices: Vec<DeviceType>,
    /// Days of trace used to train forecasters.
    pub train_days: u64,
    /// Days of trace the EMS runs over (evaluation; the DRL also learns
    /// online during these days).
    pub eval_days: u64,
    /// First evaluation day (train days come immediately before).
    pub eval_start_day: u64,
    /// Forecast input window, minutes.
    pub window: usize,
    /// Forecast horizon, minutes.
    pub horizon: usize,
    /// Training-sample stride (subsampling of the minute grid).
    pub stride: usize,
    /// Target-space transform for forecaster inputs/targets.
    pub transform: TargetTransform,
    /// Forecasting algorithm (paper settles on LSTM).
    pub forecast_method: ForecastMethod,
    /// Forecaster training hyperparameters.
    pub train: TrainConfig,
    /// β: forecaster broadcast period, hours.
    pub beta_hours: f64,
    /// γ: DRL base-layer broadcast period, hours.
    pub gamma_hours: f64,
    /// α: number of DRL base (shared) layers.
    pub alpha: usize,
    /// Minutes of (predicted, real) history in the DRL state.
    pub state_window: usize,
    /// DQN hyperparameters.
    pub dqn: DqnConfig,
    /// Take a gradient step every this many environment steps (1 =
    /// paper-faithful; larger = cheaper experiments, same shape).
    pub train_every: usize,
    /// Fault injection for robustness experiments (churn, loss,
    /// stragglers, corruption). Defaults to fault-free, so existing
    /// configs behave exactly as before.
    #[serde(default)]
    pub fault: FaultConfig,
    /// Durable checkpointing (disabled by default; see
    /// [`CheckpointPolicy`]).
    #[serde(default)]
    pub checkpoint: CheckpointPolicy,
    /// How DFL rounds reduce peer updates. The default `PerHome`
    /// replays the historical per-home merges bit-for-bit;
    /// `Hierarchical` partitions the fleet into neighborhood shards and
    /// merges fault-free rounds through the O(N) shared-sum fast path
    /// (numerically equivalent, but a different float summation order,
    /// so it carries its own canary). `Hierarchical { shards: 1 }` is
    /// the flat fast path over one fleet-wide bus.
    #[serde(default)]
    pub aggregation: AggregationMode,
    /// Federation memory budget, bytes, for the largest reduction
    /// domain (the biggest shard under `Hierarchical`, the whole fleet
    /// under `PerHome`). `0` = unlimited. When set, validation
    /// fails early — at config time, with the offending numbers — if
    /// the domain's estimated resident payload exceeds the budget,
    /// instead of OOMing mid-run at fleet scale.
    #[serde(default)]
    pub max_shard_bytes: u64,
    /// Seeded sensor-fault injection into per-home minute streams
    /// (dropouts, stuck-at, spikes, NaN/negative watts, clock skew).
    /// Defaults to inactive — every reading passes through untouched
    /// and runs stay bit-identical to fault-free builds.
    #[serde(default)]
    pub sensor_fault: SensorFaultConfig,
    /// Per-home telemetry-health machine thresholds (imputation dirt,
    /// quarantine escalation, re-admission hysteresis).
    #[serde(default)]
    pub health: HealthPolicy,
    /// Training-divergence supervision + checkpoint rollback. Off by
    /// default.
    #[serde(default)]
    pub supervision: SupervisionPolicy,
    /// Forecast *inference* precision. The default `F64` is the
    /// bitwise-pinned path; `F32Fast` routes prediction through the f32
    /// LSTM mirror and vector transcendentals (deterministic, its own
    /// canary — training, snapshots and federation stay f64 either way).
    #[serde(default)]
    pub precision: Precision,
    /// Federation payload codec. The default `Raw` ships full f64
    /// parameters and is the bitwise-pinned path; `QuantizedI8`
    /// compresses every uplink (LAN broadcast, hierarchical shard
    /// links, cloud uploads) — deterministic and resumable, but the
    /// merged values change, so the run hash changes with it.
    #[serde(default)]
    pub compression: PayloadCodec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            n_residences: 20,
            devices: Self::controllable_devices(),
            train_days: 6,
            eval_days: 8,
            eval_start_day: 6,
            window: 16,
            horizon: 15,
            stride: 7,
            transform: TargetTransform::default(),
            forecast_method: ForecastMethod::Lstm,
            train: TrainConfig::quick(0),
            beta_hours: 12.0,
            gamma_hours: 12.0,
            alpha: 6,
            state_window: 4,
            dqn: DqnConfig::slim(0),
            train_every: 4,
            fault: FaultConfig::default(),
            checkpoint: CheckpointPolicy::default(),
            aggregation: AggregationMode::PerHome,
            max_shard_bytes: 0,
            sensor_fault: SensorFaultConfig::default(),
            health: HealthPolicy::default(),
            supervision: SupervisionPolicy::default(),
            precision: Precision::F64,
            compression: PayloadCodec::Raw,
        }
    }
}

impl SimConfig {
    /// The standby-heavy, controllable devices the EMS acts on.
    pub fn controllable_devices() -> Vec<DeviceType> {
        vec![
            DeviceType::Tv,
            DeviceType::GameConsole,
            DeviceType::Computer,
            DeviceType::SetTopBox,
        ]
    }

    /// Baseline experiment configuration at a given seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            train: TrainConfig::quick(seed),
            dqn: DqnConfig::slim(seed),
            ..SimConfig::default()
        }
    }

    /// Small configuration for unit/integration tests (3 homes, 2
    /// devices, short spans, tiny nets).
    pub fn tiny(seed: u64) -> Self {
        let mut dqn = DqnConfig::slim(seed);
        dqn.hidden_layers = 3;
        dqn.hidden_width = 12;
        dqn.warmup = 32;
        dqn.batch = 16;
        SimConfig {
            seed,
            n_residences: 3,
            devices: vec![DeviceType::Tv, DeviceType::GameConsole],
            train_days: 2,
            eval_days: 2,
            eval_start_day: 2,
            window: 8,
            horizon: 5,
            stride: 5,
            transform: TargetTransform::default(),
            forecast_method: ForecastMethod::Lr,
            train: TrainConfig {
                lr: 0.03,
                max_epochs: 8,
                ..TrainConfig::with_seed(seed)
            },
            beta_hours: 12.0,
            gamma_hours: 6.0,
            alpha: 2,
            state_window: 3,
            dqn,
            train_every: 8,
            fault: FaultConfig::default(),
            checkpoint: CheckpointPolicy::default(),
            aggregation: AggregationMode::PerHome,
            max_shard_bytes: 0,
            sensor_fault: SensorFaultConfig::default(),
            health: HealthPolicy::default(),
            supervision: SupervisionPolicy::default(),
            precision: Precision::F64,
            compression: PayloadCodec::Raw,
        }
    }

    /// Number of devices per home.
    pub fn devices_per_home(&self) -> usize {
        self.devices.len()
    }

    /// Feature dimension of the forecaster inputs.
    pub fn feature_dim(&self) -> usize {
        self.window + 2
    }

    /// Underlying data-generator configuration.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            seed: self.seed,
            devices: self.devices.clone(),
            ..Default::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid configuration.
    pub fn validate(&self) {
        assert!(self.n_residences > 0, "need at least one residence");
        assert!(!self.devices.is_empty(), "need at least one device");
        assert!(
            self.train_days > 0 && self.eval_days > 0,
            "need train and eval days"
        );
        assert!(
            self.eval_start_day >= self.train_days,
            "eval must start after the training span"
        );
        assert!(
            self.window >= 2 && self.horizon >= 1,
            "degenerate window/horizon"
        );
        assert!(self.stride >= 1, "stride must be >= 1");
        assert!(
            self.alpha >= 1 && self.alpha <= self.dqn.hidden_layers + 1,
            "alpha {} out of range for a {}-hidden-layer DQN",
            self.alpha,
            self.dqn.hidden_layers
        );
        assert!(self.train_every >= 1, "train_every must be >= 1");
        assert!(
            self.beta_hours > 0.0 && self.gamma_hours > 0.0,
            "periods must be positive"
        );
        assert!(self.state_window >= 1, "state window must be >= 1");
        if let AggregationMode::Hierarchical { shards, .. } = self.aggregation {
            assert!(
                shards >= 1,
                "hierarchical aggregation needs at least one shard"
            );
        }
        if self.max_shard_bytes > 0 {
            // Largest reduction domain: the biggest shard under
            // Hierarchical (round-robin and archetype chunking are both
            // balanced, so ceil(n/k)), the whole fleet under PerHome.
            let domain = match self.aggregation {
                AggregationMode::Hierarchical { shards, .. } => self
                    .n_residences
                    .div_ceil(shards.clamp(1, self.n_residences)),
                AggregationMode::PerHome => self.n_residences,
            } as u64;
            let resident = domain * self.estimated_update_bytes();
            assert!(
                resident <= self.max_shard_bytes,
                "largest federation domain needs ~{} B resident payloads \
                 ({} homes x {} B/update), over max_shard_bytes = {}; \
                 raise the budget or increase the shard count",
                resident,
                domain,
                self.estimated_update_bytes(),
                self.max_shard_bytes
            );
        }
        self.fault.validate();
        self.sensor_fault.validate();
        self.health.validate();
        self.supervision.validate();
    }

    /// Estimated bytes of one home's LAN federation payload: the α
    /// base layers (weights + biases) of the per-device DQN at the
    /// configured codec's wire size (8 B per f64 under `Raw`) — the
    /// column that dominates resident federation memory. Feeds the
    /// `max_shard_bytes` early guard.
    pub fn estimated_update_bytes(&self) -> u64 {
        let state_dim = 2 * self.state_window + 6;
        let mut dims = vec![state_dim];
        dims.extend(std::iter::repeat_n(
            self.dqn.hidden_width,
            self.dqn.hidden_layers,
        ));
        dims.push(3);
        let end = self.alpha.min(dims.len() - 1);
        (0..end)
            .map(|l| {
                self.compression
                    .payload_layer_bytes(dims[l] * dims[l + 1] + dims[l + 1]) as u64
            })
            .sum()
    }

    /// Stable fingerprint of everything that determines the run's
    /// trajectory — FNV-1a over the canonical JSON serialization with
    /// the checkpoint policy reset to default, so checkpoint knobs
    /// (directory, cadence, abort hooks) never invalidate snapshots.
    ///
    /// Snapshots store this hash; resuming under a different
    /// configuration fails with a typed mismatch instead of silently
    /// producing a hybrid run.
    pub fn run_hash(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.checkpoint = CheckpointPolicy::default();
        let json = serde_json::to_string(&canonical).expect("SimConfig always serializes");
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in json.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    fn tiny_is_valid() {
        SimConfig::tiny(42).validate();
    }

    #[test]
    fn paper_alpha_range_is_accepted() {
        // The paper sweeps alpha over 1..=8 on an 8-hidden-layer net.
        for alpha in 1..=8 {
            let mut cfg = SimConfig::with_seed(0);
            cfg.alpha = alpha;
            cfg.validate();
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn oversized_alpha_rejected() {
        let mut cfg = SimConfig::tiny(0); // 3 hidden layers => 4 total
        cfg.alpha = 5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "eval must start after")]
    fn overlapping_eval_rejected() {
        let mut cfg = SimConfig::tiny(0);
        cfg.eval_start_day = 0;
        cfg.validate();
    }

    #[test]
    fn run_hash_ignores_checkpoint_knobs_only() {
        let base = SimConfig::tiny(5);
        let mut ckpt = base.clone();
        ckpt.checkpoint.dir = Some("/tmp/snaps".into());
        ckpt.checkpoint.every_days = 7;
        ckpt.checkpoint.abort_after_days = Some(1);
        assert_eq!(base.run_hash(), ckpt.run_hash());

        let mut other_seed = base.clone();
        other_seed.seed = 6;
        assert_ne!(base.run_hash(), other_seed.run_hash());

        let mut other_alpha = base.clone();
        other_alpha.alpha = 1;
        assert_ne!(base.run_hash(), other_alpha.run_hash());
    }

    #[test]
    fn aggregation_defaults_to_per_home_and_is_hashed() {
        let base = SimConfig::tiny(5);
        assert_eq!(base.aggregation, AggregationMode::PerHome);
        // The fast path changes float summation order, so it must be
        // part of the run identity.
        let mut flat_fast = base.clone();
        flat_fast.aggregation = AggregationMode::Hierarchical {
            shards: 1,
            assignment: pfdrl_fl::ShardAssignment::RoundRobin,
        };
        assert_ne!(base.run_hash(), flat_fast.run_hash());
    }

    #[test]
    fn hierarchical_mode_is_hashed_and_flat_json_is_unchanged() {
        use pfdrl_fl::ShardAssignment;
        let base = SimConfig::tiny(5);
        // The struct variant must change the run identity — shard
        // topology changes float summation order.
        let mut hier = base.clone();
        hier.aggregation = AggregationMode::Hierarchical {
            shards: 4,
            assignment: ShardAssignment::ArchetypeMix,
        };
        hier.validate();
        assert_ne!(base.run_hash(), hier.run_hash());
        let mut other_shards = hier.clone();
        other_shards.aggregation = AggregationMode::Hierarchical {
            shards: 8,
            assignment: ShardAssignment::ArchetypeMix,
        };
        assert_ne!(hier.run_hash(), other_shards.run_hash());

        // PerHome still serializes as a plain unit-variant string, so
        // pre-hierarchical configs keep their exact JSON shape.
        let json = serde_json::to_string(&base).unwrap();
        assert!(json.contains("\"aggregation\":\"PerHome\""));
    }

    #[test]
    fn shard_budget_guard_passes_when_sharded() {
        use pfdrl_fl::ShardAssignment;
        let mut small = SimConfig::tiny(5);
        small.n_residences = 64;
        // One update is a few KiB; 16 shards of 4 homes fit easily.
        small.max_shard_bytes = 64 * 1024;
        small.aggregation = AggregationMode::Hierarchical {
            shards: 16,
            assignment: ShardAssignment::RoundRobin,
        };
        // A one-device, one-day 10,000-home fleet in 32 shards: ~313
        // homes x ~2.4 KiB ≈ 0.75 MiB resident per shard fits a 4 MiB
        // budget with headroom.
        let mut city = SimConfig::tiny(42);
        city.n_residences = 10_000;
        city.devices = vec![pfdrl_data::DeviceType::Tv];
        city.eval_days = 1;
        city.max_shard_bytes = 4 * 1024 * 1024;
        city.aggregation = AggregationMode::Hierarchical {
            shards: 32,
            assignment: ShardAssignment::RoundRobin,
        };
        for cfg in [small, city] {
            cfg.validate();
            assert!(cfg.estimated_update_bytes() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "max_shard_bytes")]
    fn shard_budget_guard_rejects_oversized_flat_fleet() {
        let mut cfg = SimConfig::tiny(5);
        cfg.n_residences = 100_000;
        cfg.aggregation = AggregationMode::Hierarchical {
            shards: 1,
            assignment: pfdrl_fl::ShardAssignment::RoundRobin,
        };
        cfg.max_shard_bytes = 1024 * 1024; // ~100k homes never fit 1 MiB
        cfg.validate();
    }

    #[test]
    fn precision_defaults_to_f64_and_is_hashed() {
        let base = SimConfig::tiny(5);
        assert_eq!(base.precision, Precision::F64);
        // Reduced-precision inference changes result bits, so it must
        // be part of the run identity (same rule as `aggregation`).
        let mut fast = base.clone();
        fast.precision = Precision::F32Fast;
        assert_ne!(base.run_hash(), fast.run_hash());
    }

    #[test]
    fn compression_defaults_to_raw_and_is_hashed() {
        let base = SimConfig::tiny(5);
        assert_eq!(base.compression, PayloadCodec::Raw);
        // Compressed uplinks change the merged parameter bits, so the
        // codec must be part of the run identity (same rule as
        // `precision` and `aggregation`).
        let mut q8 = base.clone();
        q8.compression = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        assert_ne!(base.run_hash(), q8.run_hash());
        let mut q8_global = base.clone();
        q8_global.compression = PayloadCodec::QuantizedI8 {
            per_layer_scale: false,
        };
        assert_ne!(q8.run_hash(), q8_global.run_hash());
    }

    #[test]
    fn compressed_codec_shrinks_the_estimated_update_bytes() {
        let base = SimConfig::tiny(5);
        let mut q8 = base.clone();
        q8.compression = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        assert!(q8.estimated_update_bytes() < base.estimated_update_bytes());
    }

    #[test]
    fn checkpointing_is_off_by_default() {
        assert!(!SimConfig::default().checkpoint.enabled());
        let policy = CheckpointPolicy::default();
        assert_eq!(policy.every_days, 1);
        assert_eq!(policy.keep_last, 3);
        assert_eq!(policy.abort_after_days, None);
    }

    #[test]
    fn hostile_telemetry_knobs_default_inert_and_are_hashed() {
        let base = SimConfig::tiny(5);
        assert!(!base.sensor_fault.is_active());
        assert!(!base.supervision.is_active());

        // Corrupted streams change the world the agents see.
        let mut faulty = base.clone();
        faulty.sensor_fault = SensorFaultConfig::storm(1, 0.1);
        assert_ne!(base.run_hash(), faulty.run_hash());

        // Supervision changes training trajectories (rollbacks).
        let mut supervised = base.clone();
        supervised.supervision.explode_factor = 10.0;
        assert!(supervised.supervision.is_active());
        assert_ne!(base.run_hash(), supervised.run_hash());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_sensor_rate_rejected() {
        let mut cfg = SimConfig::tiny(0);
        cfg.sensor_fault.dropout_rate = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "explode_factor")]
    fn negative_explode_factor_rejected() {
        let mut cfg = SimConfig::tiny(0);
        cfg.supervision.explode_factor = -1.0;
        cfg.validate();
    }

    #[test]
    fn controllable_devices_are_controllable_with_standby() {
        for d in SimConfig::controllable_devices() {
            let spec = d.nominal_spec();
            assert!(spec.controllable, "{d:?}");
            assert!(spec.has_standby(), "{d:?}");
        }
    }
}
