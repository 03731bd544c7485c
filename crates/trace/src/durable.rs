//! Durable atomic file writes for crash-safe artifacts.
//!
//! The fleet engine promotes staged files (`foo.tmp` → `foo`) so readers
//! never observe a partially written checkpoint or trace. Rename alone is
//! not enough for crash safety: `fs::write` + `fs::rename` can commit the
//! *rename* to disk before the file *contents*, so a power loss can leave
//! a valid-looking name over unsynced (empty or garbage) bytes. Every
//! promotion here syncs the staged file first, then renames, then — on
//! Unix — syncs the parent directory so the rename itself is durable.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Writes `bytes` to `tmp_path`, syncs them to disk, then atomically
/// renames over `final_path` (and syncs the parent directory on Unix).
///
/// # Errors
///
/// Returns the first I/O error; the temp file is removed on failure so
/// a retry does not observe a stale partial write.
pub fn write_atomic(final_path: &Path, tmp_path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let result = (|| {
        let mut file = fs::File::create(tmp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(tmp_path, final_path)?;
        sync_parent_dir(final_path);
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(tmp_path);
    }
    result
}

/// Promotes an already-written-and-synced staged file into place:
/// rename, then parent-directory sync. The caller is responsible for
/// having called [`std::fs::File::sync_all`] on the staged file.
///
/// It may run on any thread, not only the one that wrote the file; the
/// staged file's data must be synced before it is called.
///
/// # Errors
///
/// Returns the rename error, if any.
pub fn promote(tmp_path: &Path, final_path: &Path) -> std::io::Result<()> {
    fs::rename(tmp_path, final_path)?;
    sync_parent_dir(final_path);
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory so a just-committed
/// rename survives power loss. Directory fsync is a Unix concept; on
/// other platforms (and on filesystems that reject opening directories)
/// this is a no-op — the rename is still atomic, just not yet durable.
pub fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("trace_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp() {
        let dir = temp_dir("round_trip");
        let final_path = dir.join("artifact.json");
        let tmp_path = dir.join("artifact.json.tmp");
        write_atomic(&final_path, &tmp_path, b"{\"ok\":true}\n").expect("write");
        assert_eq!(fs::read(&final_path).unwrap(), b"{\"ok\":true}\n");
        assert!(!tmp_path.exists(), "temp file must be consumed by rename");
        // Overwrite is atomic too: the old contents are fully replaced.
        write_atomic(&final_path, &tmp_path, b"v2").expect("overwrite");
        assert_eq!(fs::read(&final_path).unwrap(), b"v2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_cleans_up_on_failure() {
        let dir = temp_dir("cleanup");
        let missing = dir.join("no_such_subdir").join("artifact");
        let tmp_path = dir.join("artifact.tmp");
        // Rename into a missing directory fails after the temp write.
        write_atomic(&missing, &tmp_path, b"data").expect_err("rename must fail");
        assert!(!tmp_path.exists(), "failed write must not leave a temp");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_moves_a_staged_file_into_place() {
        let dir = temp_dir("promote");
        let tmp_path = dir.join("staged.tmp");
        let final_path = dir.join("staged");
        fs::write(&tmp_path, b"staged bytes").unwrap();
        promote(&tmp_path, &final_path).expect("promote");
        assert_eq!(fs::read(&final_path).unwrap(), b"staged bytes");
        assert!(!tmp_path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
