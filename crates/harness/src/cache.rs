//! The content-addressed artifact cache.
//!
//! The most expensive prerequisites of a sweep — suite graphs and
//! Rereference Matrices — are pure functions of their generation
//! parameters, and several figures need *identical* artifacts (fig10,
//! fig12 and fig15 all build the PageRank pull matrix for every suite
//! graph). Each artifact is addressed by a stable hash of a canonical
//! descriptor string naming those parameters; the bytes live on disk
//! (binary CSR via `popt_graph::io`, `.rrm` via `popt_core::serialize`)
//! and are memoized in-process behind `Arc`s so concurrent cells share
//! one copy.
//!
//! Concurrency: a per-key build lock serializes cells that race on the
//! same missing artifact — the loser of the race waits and then *reads*
//! the winner's result instead of rebuilding it. Different keys never
//! contend beyond a map lookup.

use crate::hash;
use popt_core::{serialize, RerefMatrix};
use popt_graph::Graph;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which artifact namespace a key addresses (namespaces have distinct
/// on-disk formats and directories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A binary-CSR graph.
    Graph,
    /// A serialized Rereference Matrix.
    Matrix,
}

impl ArtifactKind {
    fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Graph => "graphs",
            ArtifactKind::Matrix => "matrices",
        }
    }

    fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Graph => "csr",
            ArtifactKind::Matrix => "rrm",
        }
    }
}

/// A content address: the stable hash of a canonical parameter descriptor.
///
/// Descriptors are human-readable, versioned strings such as
/// `suite-graph/v1/urand/tiny` or
/// `rrm/v1/suite-graph/v1/urand/tiny/dir=pull/epl=16/vpe=1/q=8/enc=inter+intra`;
/// the descriptor itself is kept for diagnostics, only its hash reaches
/// the filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKey {
    kind: ArtifactKind,
    descriptor: String,
    hash: u64,
}

impl ArtifactKey {
    /// Builds a key from a canonical descriptor string.
    pub fn new(kind: ArtifactKind, descriptor: impl Into<String>) -> Self {
        let descriptor = descriptor.into();
        let hash = hash::hash_str(&descriptor);
        ArtifactKey {
            kind,
            descriptor,
            hash,
        }
    }

    /// The descriptor this key was derived from.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The on-disk file name (`<hash16>.<ext>`).
    pub fn file_name(&self) -> String {
        format!("{}.{}", hash::hex16(self.hash), self.kind.extension())
    }
}

/// Monotonic hit/build counters, snapshot via [`ArtifactCache::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Graph requests served from memory or disk.
    pub graph_hits: u64,
    /// Graphs generated because no artifact existed.
    pub graph_builds: u64,
    /// Matrix requests served from memory or disk.
    pub matrix_hits: u64,
    /// Matrices built because no artifact existed.
    pub matrix_builds: u64,
}

impl CacheCounters {
    /// Renders the summary JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"graph_hits\":{},\"graph_builds\":{},\"matrix_hits\":{},\"matrix_builds\":{}}}",
            self.graph_hits, self.graph_builds, self.matrix_hits, self.matrix_builds
        )
    }
}

/// The on-disk + in-memory artifact cache shared by all cells of a sweep.
pub struct ArtifactCache {
    root: PathBuf,
    graphs: Mutex<BTreeMap<u64, Arc<Graph>>>,
    matrices: Mutex<BTreeMap<u64, Arc<RerefMatrix>>>,
    building: Mutex<BTreeMap<u64, Arc<Mutex<()>>>>,
    graph_hits: AtomicU64,
    graph_builds: AtomicU64,
    matrix_hits: AtomicU64,
    matrix_builds: AtomicU64,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("root", &self.root)
            .field("counters", &self.counters())
            .finish()
    }
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        for kind in [ArtifactKind::Graph, ArtifactKind::Matrix] {
            std::fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(ArtifactCache {
            root,
            graphs: Mutex::new(BTreeMap::new()),
            matrices: Mutex::new(BTreeMap::new()),
            building: Mutex::new(BTreeMap::new()),
            graph_hits: AtomicU64::new(0),
            graph_builds: AtomicU64::new(0),
            matrix_hits: AtomicU64::new(0),
            matrix_builds: AtomicU64::new(0),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current counter values.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            graph_hits: self.graph_hits.load(Ordering::Relaxed),
            graph_builds: self.graph_builds.load(Ordering::Relaxed),
            matrix_hits: self.matrix_hits.load(Ordering::Relaxed),
            matrix_builds: self.matrix_builds.load(Ordering::Relaxed),
        }
    }

    fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join(key.kind.dir()).join(key.file_name())
    }

    /// The per-key build lock, so two cells missing the same artifact
    /// build it once.
    fn build_lock(&self, key: &ArtifactKey) -> Arc<Mutex<()>> {
        let mut building = self.building.lock().expect("build-lock map");
        Arc::clone(building.entry(key.hash).or_default())
    }

    /// Returns the graph for `key`, generating and persisting it on miss.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a [`ArtifactKind::Graph`] key.
    pub fn graph(&self, key: &ArtifactKey, build: impl FnOnce() -> Graph) -> Arc<Graph> {
        assert_eq!(key.kind, ArtifactKind::Graph, "graph key required");
        if let Some(g) = self.graphs.lock().expect("graph memo").get(&key.hash) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(g);
        }
        let lock = self.build_lock(key);
        let _guard = lock.lock().expect("graph build lock");
        // Double-check: the race winner may have populated the memo while
        // we waited on the build lock.
        if let Some(g) = self.graphs.lock().expect("graph memo").get(&key.hash) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(g);
        }
        let path = self.artifact_path(key);
        if let Some(g) = load_graph(&path) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            let g = Arc::new(g);
            self.graphs
                .lock()
                .expect("graph memo")
                .insert(key.hash, Arc::clone(&g));
            return g;
        }
        let g = Arc::new(build());
        self.graph_builds.fetch_add(1, Ordering::Relaxed);
        persist(&path, |w| {
            popt_graph::io::write_binary(&g, w).map_err(other_io)
        });
        self.graphs
            .lock()
            .expect("graph memo")
            .insert(key.hash, Arc::clone(&g));
        g
    }

    /// Returns the matrix for `key`, building and persisting it on miss.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a [`ArtifactKind::Matrix`] key.
    pub fn matrix(
        &self,
        key: &ArtifactKey,
        build: impl FnOnce() -> RerefMatrix,
    ) -> Arc<RerefMatrix> {
        assert_eq!(key.kind, ArtifactKind::Matrix, "matrix key required");
        if let Some(m) = self.matrices.lock().expect("matrix memo").get(&key.hash) {
            self.matrix_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(m);
        }
        let lock = self.build_lock(key);
        let _guard = lock.lock().expect("matrix build lock");
        if let Some(m) = self.matrices.lock().expect("matrix memo").get(&key.hash) {
            self.matrix_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(m);
        }
        let path = self.artifact_path(key);
        if let Some(m) = load_matrix(&path) {
            self.matrix_hits.fetch_add(1, Ordering::Relaxed);
            let m = Arc::new(m);
            self.matrices
                .lock()
                .expect("matrix memo")
                .insert(key.hash, Arc::clone(&m));
            return m;
        }
        let m = Arc::new(build());
        self.matrix_builds.fetch_add(1, Ordering::Relaxed);
        persist(&path, |w| serialize::write_matrix(&m, w).map_err(other_io));
        self.matrices
            .lock()
            .expect("matrix memo")
            .insert(key.hash, Arc::clone(&m));
        m
    }
}

fn other_io<E: std::error::Error + Send + Sync + 'static>(e: E) -> std::io::Error {
    std::io::Error::other(e)
}

/// Loads a graph artifact; a missing or corrupt file is a miss (corrupt
/// files are rebuilt and overwritten, never trusted).
fn load_graph(path: &Path) -> Option<Graph> {
    let file = std::fs::File::open(path).ok()?;
    match popt_graph::io::read_binary(std::io::BufReader::new(file)) {
        Ok(g) => Some(g),
        Err(e) => {
            eprintln!("artifact cache: discarding corrupt {}: {e}", path.display());
            None
        }
    }
}

/// Loads a matrix artifact; same miss semantics as [`load_graph`].
fn load_matrix(path: &Path) -> Option<RerefMatrix> {
    let file = std::fs::File::open(path).ok()?;
    match serialize::read_matrix(file) {
        Ok(m) => Some(m),
        Err(e) => {
            eprintln!("artifact cache: discarding corrupt {}: {e}", path.display());
            None
        }
    }
}

/// Writes an artifact atomically (temp file + rename) so a killed sweep
/// never leaves a half-written artifact under the content address. Write
/// failures degrade to cache misses on the next run rather than aborting
/// the sweep — the built value is still returned to the caller.
fn persist(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut w)?;
        std::io::Write::flush(&mut w)?;
        drop(w);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        eprintln!("artifact cache: failed to persist {}: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_core::{Encoding, Quantization};
    use popt_graph::generators;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-harness-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_graph() -> Graph {
        generators::uniform_random(256, 1024, 11)
    }

    #[test]
    fn graph_round_trips_through_disk_and_memory() {
        let cache = ArtifactCache::open(scratch("graph-rt")).unwrap();
        let key = ArtifactKey::new(ArtifactKind::Graph, "test-graph/v1/urand256");
        let built = cache.graph(&key, demo_graph);
        assert_eq!(cache.counters().graph_builds, 1);
        // Memory hit.
        let memo = cache.graph(&key, || panic!("must not rebuild"));
        assert_eq!(*built, *memo);
        assert_eq!(cache.counters().graph_hits, 1);
        // Disk hit from a fresh cache instance (new process simulation).
        let cold = ArtifactCache::open(cache.root()).unwrap();
        let loaded = cold.graph(&key, || panic!("must not rebuild"));
        assert_eq!(*built, *loaded);
        assert_eq!(cold.counters().graph_hits, 1);
        assert_eq!(cold.counters().graph_builds, 0);
    }

    #[test]
    fn matrix_round_trips_and_counts() {
        let cache = ArtifactCache::open(scratch("matrix-rt")).unwrap();
        let g = demo_graph();
        let key = ArtifactKey::new(ArtifactKind::Matrix, "test-rrm/v1/urand256/q8");
        let build = || {
            RerefMatrix::build(
                g.out_csr(),
                16,
                1,
                Quantization::EIGHT,
                Encoding::InterIntra,
            )
        };
        let built = cache.matrix(&key, build);
        let again = cache.matrix(&key, || panic!("must not rebuild"));
        assert_eq!(*built, *again);
        let cold = ArtifactCache::open(cache.root()).unwrap();
        let loaded = cold.matrix(&key, || panic!("must not rebuild"));
        assert_eq!(*built, *loaded);
        assert_eq!(cold.counters().matrix_builds, 0);
        assert_eq!(cold.counters().matrix_hits, 1);
    }

    #[test]
    fn corrupt_artifacts_are_rebuilt() {
        let cache = ArtifactCache::open(scratch("corrupt")).unwrap();
        let key = ArtifactKey::new(ArtifactKind::Graph, "test-graph/v1/corrupt");
        cache.graph(&key, demo_graph);
        let path = cache.artifact_path(&key);
        std::fs::write(&path, b"garbage").unwrap();
        let cold = ArtifactCache::open(cache.root()).unwrap();
        let rebuilt = cold.graph(&key, demo_graph);
        assert_eq!(cold.counters().graph_builds, 1);
        assert_eq!(*rebuilt, demo_graph());
        // And the rebuild repaired the artifact on disk.
        assert!(load_graph(&path).is_some());
    }

    #[test]
    fn distinct_descriptors_get_distinct_artifacts() {
        let a = ArtifactKey::new(ArtifactKind::Matrix, "rrm/v1/a");
        let b = ArtifactKey::new(ArtifactKind::Matrix, "rrm/v1/b");
        assert_ne!(a.file_name(), b.file_name());
        assert_eq!(a.descriptor(), "rrm/v1/a");
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = ArtifactCache::open(scratch("race")).unwrap();
        let key = ArtifactKey::new(ArtifactKind::Graph, "test-graph/v1/race");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let key = &key;
                scope.spawn(move || {
                    cache.graph(key, demo_graph);
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.graph_builds, 1, "exactly one build, got {c:?}");
        assert_eq!(c.graph_hits, 7);
    }

    #[test]
    fn concurrent_matrix_requests_build_once() {
        let cache = ArtifactCache::open(scratch("matrix-race")).unwrap();
        let g = demo_graph();
        let key = ArtifactKey::new(ArtifactKind::Matrix, "test-rrm/v1/race");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (cache, key, g) = (&cache, &key, &g);
                scope.spawn(move || {
                    cache.matrix(key, || {
                        RerefMatrix::build(
                            g.out_csr(),
                            16,
                            1,
                            Quantization::EIGHT,
                            Encoding::InterIntra,
                        )
                    });
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.matrix_builds, 1, "exactly one build, got {c:?}");
        assert_eq!(c.matrix_hits, 7);
    }

    #[test]
    fn two_cache_instances_on_one_root_never_corrupt_the_artifact() {
        // Two *separate* cache instances (two daemons / two processes on
        // one cache dir) may each build — the per-key lock is per-instance
        // — but the atomic persist means the artifact on disk is always a
        // complete, loadable copy, and both callers get correct bytes.
        let root = scratch("two-instances");
        let a = ArtifactCache::open(&root).unwrap();
        let b = ArtifactCache::open(&root).unwrap();
        let key = ArtifactKey::new(ArtifactKind::Graph, "test-graph/v1/shared-root");
        std::thread::scope(|scope| {
            for cache in [&a, &b] {
                let key = &key;
                scope.spawn(move || {
                    let got = cache.graph(key, demo_graph);
                    assert_eq!(*got, demo_graph());
                });
            }
        });
        let builds = a.counters().graph_builds + b.counters().graph_builds;
        assert!(builds >= 1 && builds <= 2, "got {builds} builds");
        // Whatever the interleaving, the persisted artifact is whole.
        let cold = ArtifactCache::open(&root).unwrap();
        let loaded = cold.graph(&key, || panic!("must load from disk"));
        assert_eq!(*loaded, demo_graph());
        assert_eq!(cold.counters().graph_builds, 0);
    }

    #[test]
    fn counters_json_shape() {
        let c = CacheCounters {
            graph_hits: 1,
            graph_builds: 2,
            matrix_hits: 3,
            matrix_builds: 0,
        };
        assert_eq!(
            c.to_json(),
            "{\"graph_hits\":1,\"graph_builds\":2,\"matrix_hits\":3,\"matrix_builds\":0}"
        );
    }
}
