//! # pfdrl-store
//!
//! Durable checkpointing for PFDRL simulation runs: a versioned,
//! checksummed, deduplicated binary snapshot format (`PFDS`) plus the
//! directory management to save, retain and resume from snapshots.
//!
//! A [`RunSnapshot`] captures the *entire* cross-day state of a
//! federated EMS run at a day boundary — per-residence Q-networks and
//! personalization layers, target networks, Adam moments, replay
//! buffers, RNG stream positions, forecaster weights, federation
//! round counters, bus/cloud statistics and any straggler-parked
//! updates from an active fault plan. Restoring it and continuing
//! produces final metrics bit-identical to the uninterrupted run.
//!
//! Robustness guarantees:
//!
//! * every section is CRC-32 checksummed; corruption is detected
//!   before any payload byte is interpreted;
//! * unknown format versions, truncation, bit flips, duplicate or
//!   missing sections and dangling tensor references all surface as
//!   typed [`StoreError`]s — decoding never panics and never
//!   allocates more than the input's own size can justify;
//! * identical parameter tensors (bit-for-bit) are stored once via a
//!   content-addressed [`TensorPool`], collapsing the N copies of
//!   broadcast base layers across residences; each replay ring is
//!   written inline as one block and restored as the same ring;
//! * [`CheckpointStore`] writes atomically and durably (temp file,
//!   fsync, rename, directory fsync) so neither a crash nor a power
//!   loss mid-write leaves a short file under a snapshot name;
//! * exactly one format version, [`FORMAT_VERSION`], is written and
//!   read, and a committed fixture pins the encoder's bytes.
//!
//! ## Example
//!
//! ```
//! use pfdrl_store::{CheckpointStore, RunSnapshot, StoreError};
//!
//! // Snapshots are produced by pfdrl-core's checkpointed runner; here
//! // we only show the failure contract of the decoder.
//! assert_eq!(RunSnapshot::decode(b"not a snapshot"), Err(StoreError::BadMagic));
//! ```

pub mod crc32;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod tensor;
pub mod wire;

pub use error::StoreError;
pub use snapshot::{
    ForecastState, HealthState, HomeHealthRecord, MetricsState, RunSnapshot, ServeDeviceState,
    ServeHomeState, ServeState, SnapshotMeta, TransportState, FORMAT_VERSION, MAGIC,
};
pub use store::{CheckpointStore, SNAPSHOT_EXT};
pub use tensor::{TensorId, TensorPool};
