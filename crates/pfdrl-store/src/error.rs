//! Typed snapshot errors.
//!
//! Every failure mode of the store — a foreign file, a future format
//! version, a truncated or bit-flipped section, a dangling tensor
//! reference, a snapshot taken from a different experiment — maps to a
//! distinct [`StoreError`] variant. Decoding never panics: hostile or
//! damaged bytes produce an `Err`, and allocation sizes read from the
//! wire are always bounded by the bytes actually present.

use std::fmt;

use pfdrl_drl::ReplayError;

/// Why a snapshot could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the `PFDS` magic — not a snapshot.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The byte stream ended before a declared structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's stored CRC-32 does not match its payload.
    SectionCrc {
        /// Section kind whose checksum failed.
        kind: u32,
    },
    /// The same section kind appears twice in the section table.
    DuplicateSection {
        /// Offending section kind.
        kind: u32,
    },
    /// A mandatory section is absent.
    MissingSection {
        /// Missing section kind.
        kind: u32,
    },
    /// Structurally invalid data inside an otherwise intact section.
    Malformed {
        /// What was being parsed when the inconsistency was found.
        context: &'static str,
    },
    /// A tensor id points outside the deduplicated tensor pool.
    BadTensorRef {
        /// The dangling id.
        id: u64,
    },
    /// A replay ring's arrays or cursors break a ring invariant.
    Replay(ReplayError),
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration trying to resume.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The snapshot belongs to a different training method.
    MethodMismatch {
        /// Method trying to resume.
        expected: String,
        /// Method stored in the snapshot.
        found: String,
    },
    /// Restored values failed a domain invariant (shape, capacity, …).
    State(String),
    /// Filesystem failure while persisting or loading.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a PFDS snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads v{})",
                    crate::snapshot::FORMAT_VERSION
                )
            }
            StoreError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            StoreError::SectionCrc { kind } => {
                write!(
                    f,
                    "checksum mismatch in section kind {kind} (corrupt snapshot)"
                )
            }
            StoreError::DuplicateSection { kind } => {
                write!(f, "section kind {kind} appears more than once")
            }
            StoreError::MissingSection { kind } => {
                write!(f, "mandatory section kind {kind} is missing")
            }
            StoreError::Malformed { context } => {
                write!(f, "malformed snapshot data in {context}")
            }
            StoreError::BadTensorRef { id } => {
                write!(f, "tensor reference {id} points outside the tensor pool")
            }
            StoreError::Replay(e) => write!(f, "malformed snapshot data in {e}"),
            StoreError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (expected fingerprint {expected:#018x}, snapshot has {found:#018x})"
            ),
            StoreError::MethodMismatch { expected, found } => write!(
                f,
                "snapshot belongs to method {found:?}, cannot resume method {expected:?}"
            ),
            StoreError::State(msg) => write!(f, "restored state is inconsistent: {msg}"),
            StoreError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::ConfigMismatch {
            expected: 1,
            found: 2,
        };
        let s = e.to_string();
        assert!(s.contains("different configuration"), "{s}");
        assert!(StoreError::BadMagic.to_string().contains("PFDS"));
        assert!(StoreError::UnsupportedVersion { found: 99 }
            .to_string()
            .contains("99"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StoreError = io.into();
        assert!(matches!(e, StoreError::Io(ref m) if m.contains("gone")));
    }
}
