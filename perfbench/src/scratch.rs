//! One scratch directory per process, removed on exit, panic or `Err`.
//!
//! Every store file, shard directory and trace this process writes goes
//! under `perfbench-out/run-<pid>-<n>/` (see `out_dir`); `<n>` comes from a process-wide
//! counter, so neither two invocations nor two tests in one process ever
//! share a path.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Where traces are published and scratch directories live:
/// `perfbench-out/` in the directory the run was started from, which is
/// inside the checkout — the benchmark writes nowhere else.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench-out")
}

/// The per-process directory; dropping it deletes everything below it.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> io::Result<Scratch> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here, and `Drop` must
        // not panic; a leftover directory is named after a dead pid.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files under `dir`, subdirectories included
/// (the shard layout: `MANIFEST` plus one directory per shard).
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
