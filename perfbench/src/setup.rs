//! Set-up: from XML text to an engine ready to serve — the system's only
//! write path (it has no incremental index; edits end in a full rebuild).
//!
//! Every stage is timed between shared clock reads, so the stages add up
//! to the whole and a traced run has no dark time.

use crate::scratch::{dir_bytes, Scratch};
use crate::Workload;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use xtk_core::plan::Planner;
use xtk_core::pool::Parallelism;
use xtk_core::shard::write_sharded_with;
use xtk_core::{
    BatchExecutor, BatchOptions, DiskEngine, Engine, Executor, ShardedEngine, TraceLevel,
};
use xtk_index::cache::{BlockCache, CacheStats, ShardedLruCache};
use xtk_index::disk::{persisted_file_bytes, write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::{IndexOptions, XmlIndex};

/// Shards of `serve_shard4`.
pub const SHARDS: usize = 4;
/// Result-cache entries of `serve_shard4`: far fewer than its distinct
/// requests, so the cache turns over on every pass.
pub const RESULT_CACHE_ENTRIES: usize = 64;

/// Every store is written in the current packed format, with scores.
pub const STORE_OPTIONS: WriteIndexOptions = WriteIndexOptions {
    include_scores: true,
    format: FormatVersion::V3,
};

/// Worker threads of the one multi-threaded workload: never more than
/// two, never more than the machine has.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// How a workload's store is opened.
#[derive(Debug, Clone, Copy)]
pub struct SetupConfig {
    pub workload: Workload,
    /// Block-cache budget of `disk_cold`, in bytes (`None` = unbounded,
    /// for the calibrating set-up).
    pub disk_cache_bytes: Option<usize>,
    /// Ask the batch layer for its event trace (traced runs only): it
    /// says which arrivals were executed and which were served from the
    /// result cache or deduplicated.
    pub batch_trace: bool,
}

/// Start and end of each named stage of one set-up.  Consecutive stages
/// run off one clock: the read that ends a stage starts the next.
pub struct StageTimes {
    pub stages: Vec<(&'static str, Instant, Instant)>,
    last: Instant,
}

impl StageTimes {
    fn start() -> Self {
        StageTimes {
            stages: Vec::new(),
            last: Instant::now(),
        }
    }

    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let out = f();
        let now = Instant::now();
        self.stages.push((name, self.last, now));
        self.last = now;
        out
    }

    /// Seconds spent in stage `name` (0 when the workload has no such stage).
    pub fn secs(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2.duration_since(s.1).as_secs_f64())
            .fold(0.0, |a, b| a + b)
    }

    /// Seconds from the first stage's start to the last stage's end.
    pub fn total_secs(&self) -> f64 {
        match (self.stages.first(), self.stages.last()) {
            (Some(a), Some(b)) => b.2.duration_since(a.1).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// The engine a workload serves from, with the handles its counters are
/// read through.
pub enum Backend<'a> {
    Memory(&'a Engine),
    Disk {
        engine: &'a DiskEngine<'a>,
        cache: &'a ShardedLruCache,
        file: PathBuf,
    },
    Sharded {
        batch: &'a BatchExecutor<ShardedEngine<'a>>,
        cache: &'a ShardedLruCache,
        dir: PathBuf,
    },
}

pub struct Loaded<'a> {
    pub ix: &'a XmlIndex,
    pub backend: Backend<'a>,
}

impl Loaded<'_> {
    /// Bytes of every store file the workload serves from; for the
    /// in-memory engine, the bytes its index would occupy persisted.
    pub fn stored_bytes(&self) -> io::Result<u64> {
        match &self.backend {
            Backend::Memory(_) => Ok(persisted_file_bytes(self.ix, STORE_OPTIONS)),
            Backend::Disk { file, .. } => Ok(std::fs::metadata(file)?.len()),
            Backend::Sharded { dir, .. } => dir_bytes(dir),
        }
    }

    /// The store files, for the decode probes.
    pub fn store_files(&self) -> Vec<PathBuf> {
        match &self.backend {
            Backend::Memory(_) => Vec::new(),
            Backend::Disk { file, .. } => vec![file.clone()],
            Backend::Sharded { dir, .. } => (0..SHARDS as u32)
                .map(|id| {
                    dir.join(xtk_core::shard::shard_dir_name(id))
                        .join("index.bin")
                })
                .filter(|p| p.exists())
                .collect(),
        }
    }

    /// The engine requests are executed on.
    pub fn executor(&self) -> &dyn Executor {
        match &self.backend {
            Backend::Memory(engine) => *engine,
            Backend::Disk { engine, .. } => *engine,
            Backend::Sharded { batch, .. } => batch.executor(),
        }
    }

    /// That engine's planner (statistics snapshot + plan cache).
    pub fn planner(&self) -> &Planner {
        match &self.backend {
            Backend::Memory(engine) => engine.planner(),
            Backend::Disk { engine, .. } => engine.planner(),
            Backend::Sharded { batch, .. } => batch.executor().planner(),
        }
    }

    /// Counters of the workload's block cache (`None` in memory).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::Disk { cache, .. } | Backend::Sharded { cache, .. } => Some(cache.stats()),
        }
    }
}

/// Sets the workload up once from `xml` and hands the ready engine to
/// `f`.  Everything built here is dropped before this returns, so the
/// next repetition does not double the resident set.
pub fn with_setup<R>(
    cfg: &SetupConfig,
    xml: &str,
    scratch: &Scratch,
    f: impl FnOnce(&Loaded<'_>, &StageTimes) -> R,
) -> io::Result<R> {
    let mut clock = StageTimes::start();
    let tree = clock
        .stage("xml.parse", || xtk_xml::parse(xml))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let ix = clock.stage("index.build", || {
        XmlIndex::build_with(tree, IndexOptions::default())
    });
    match cfg.workload {
        Workload::MemTopk | Workload::MemComplete => {
            let engine = clock.stage("index.open", || Engine::from_index(ix));
            Ok(f(
                &Loaded {
                    ix: engine.index(),
                    backend: Backend::Memory(&engine),
                },
                &clock,
            ))
        }
        Workload::DiskCold => {
            let file = scratch.path("index.bin");
            clock.stage("index.write", || write_index(&ix, &file, STORE_OPTIONS))?;
            let cache = Arc::new(match cfg.disk_cache_bytes {
                Some(bytes) => ShardedLruCache::with_byte_capacity(bytes),
                None => ShardedLruCache::unbounded(),
            });
            let store = clock.stage("index.open", || {
                DiskColumnStore::open_with_cache(&file, cache.clone() as Arc<dyn BlockCache>)
            })?;
            // Still opening: `DiskEngine::new` harvests the planner's
            // statistics from the directory just read.
            let engine = clock.stage("index.open", || DiskEngine::new(&ix, &store));
            let backend = Backend::Disk {
                engine: &engine,
                cache: &cache,
                file,
            };
            Ok(f(&Loaded { ix: &ix, backend }, &clock))
        }
        Workload::ServeShard4 => {
            let dir = scratch.path("shards");
            // A previous repetition's directory would be reused silently.
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            clock.stage("shard.write", || {
                write_sharded_with(&ix, &dir, SHARDS, STORE_OPTIONS)
            })?;
            // One default-capacity cache shared by the four shards: the
            // working set fits.
            let cache = Arc::new(ShardedLruCache::with_block_capacity(
                xtk_index::cache::DEFAULT_CAPACITY_BLOCKS,
            ));
            let engine = clock.stage("shard.open", || {
                ShardedEngine::open_with_cache(&ix, &dir, cache.clone() as Arc<dyn BlockCache>)
            })?;
            let workers = threads();
            let opts = BatchOptions {
                parallelism: if workers > 1 {
                    Parallelism::Fixed(workers)
                } else {
                    Parallelism::Serial
                },
                prefetch: true,
                trace: if cfg.batch_trace {
                    TraceLevel::Events
                } else {
                    TraceLevel::Off
                },
            };
            let batch = BatchExecutor::with_options(engine, opts)
                .with_result_capacity(RESULT_CACHE_ENTRIES);
            let backend = Backend::Sharded {
                batch: &batch,
                cache: &cache,
                dir,
            };
            Ok(f(&Loaded { ix: &ix, backend }, &clock))
        }
    }
}
