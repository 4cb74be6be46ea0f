//! On-disk checkpoint directory management.
//!
//! [`CheckpointStore`] owns a directory of `snap-NNNNNN.pfds` files,
//! one per captured day boundary. Writes are atomic and durable: the
//! snapshot is streamed section by section into a temp file, the file
//! is synced, renamed over its final name, and the directory is synced
//! so the rename itself survives a power loss. A crash at any point
//! leaves either the previous newest snapshot or the complete new one
//! under a snapshot name — never an empty or short file; at worst a
//! stale `.tmp` is left behind and ignored. Retention then keeps the
//! newest `keep_last` snapshots and prunes the rest, so long runs do
//! not grow the directory without bound.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::snapshot::RunSnapshot;

/// Extension of snapshot files.
pub const SNAPSHOT_EXT: &str = "pfds";

/// Manager of one checkpoint directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointStore {
    /// Open (creating if necessary) the checkpoint directory.
    ///
    /// `keep_last` bounds how many snapshots are retained after each
    /// save; `0` means keep everything.
    pub fn open(dir: impl Into<PathBuf>, keep_last: usize) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep_last })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist `snap` atomically and durably, then prune to the
    /// retention limit: write the temp file, sync it, rename it over
    /// the snapshot name, sync the directory, prune.
    ///
    /// The file name embeds `meta.next_day` zero-padded so that
    /// lexicographic order equals chronological order.
    pub fn save(&self, snap: &RunSnapshot) -> Result<PathBuf, StoreError> {
        let name = format!("snap-{:06}.{SNAPSHOT_EXT}", snap.meta.next_day);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp)?;
        snap.write_to(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;
        self.prune()?;
        Ok(path)
    }

    /// All snapshot files in the directory, oldest first.
    pub fn list(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut snaps: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == SNAPSHOT_EXT))
            .collect();
        snaps.sort();
        Ok(snaps)
    }

    /// The newest snapshot, if any exist.
    pub fn latest(&self) -> Result<Option<PathBuf>, StoreError> {
        Ok(self.list()?.pop())
    }

    /// Load and validate a snapshot file.
    pub fn load(path: impl AsRef<Path>) -> Result<RunSnapshot, StoreError> {
        let bytes = fs::read(path.as_ref())?;
        RunSnapshot::decode(&bytes)
    }

    fn prune(&self) -> Result<(), StoreError> {
        if self.keep_last == 0 {
            return Ok(());
        }
        let snaps = self.list()?;
        if snaps.len() > self.keep_last {
            for stale in &snaps[..snaps.len() - self.keep_last] {
                fs::remove_file(stale)?;
            }
        }
        Ok(())
    }
}

/// Makes a rename in `dir` durable: the new directory entry survives a
/// power loss only once the directory itself is synced.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_fixtures::sample_snapshot;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pfdrl-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        let snap = sample_snapshot();
        let path = store.save(&snap).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "snap-000004.pfds"
        );
        // The streamed file is exactly the encoded snapshot, and no temp
        // file outlives the save.
        assert_eq!(fs::read(&path).unwrap(), snap.encode());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let back = CheckpointStore::load(&path).unwrap();
        // The fixture contains NaN (NaN != NaN under PartialEq); compare
        // through deterministic re-encoding instead.
        assert_eq!(back.encode(), snap.encode());
        assert_eq!(store.latest().unwrap(), Some(path));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_only_the_newest() {
        let dir = tmp_dir("retention");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let mut snap = sample_snapshot();
        for day in 1..=5 {
            snap.meta.next_day = day;
            store.save(&snap).unwrap();
        }
        let names: Vec<String> = store
            .list()
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["snap-000004.pfds", "snap-000005.pfds"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_invisible() {
        let dir = tmp_dir("tmpfiles");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        // A crash between write and rename leaves a .tmp behind.
        fs::write(dir.join("snap-000009.pfds.tmp"), b"half-written").unwrap();
        assert_eq!(store.latest().unwrap(), None);
        let snap = sample_snapshot();
        store.save(&snap).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_garbage_is_a_typed_error() {
        let dir = tmp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-000001.pfds");
        fs::write(&path, b"this is not a snapshot").unwrap();
        assert_eq!(CheckpointStore::load(&path), Err(StoreError::BadMagic));
        assert!(matches!(
            CheckpointStore::load(dir.join("missing.pfds")),
            Err(StoreError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
