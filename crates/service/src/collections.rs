//! The collection registry: named, independently indexed vector sets
//! served by one process.
//!
//! Each collection owns a [`MutableIndex`] with its own parameters and
//! — on a durable server ([`CollectionsConfig::root`]) — its own WAL
//! directory under `root/<name>/`, holding the usual
//! `checkpoint.c2d` + `wal.log` pair (both in the WAL's `CWL1`
//! framing) plus a tiny `collection.meta` manifest recording the
//! dimensionality, so a restart can reopen every collection without
//! the client re-declaring it.

use crate::protocol::{CollectionInfo, MAX_DIM};
use c2lsh::{C2lshConfig, DynamicIndex, Error, MutableIndex};
use cc_obs::Counter;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// The per-collection manifest file name (beside `wal.log`).
const MANIFEST: &str = "collection.meta";

/// Longest accepted collection name.
pub const MAX_COLLECTION_NAME: usize = 64;

/// Expected object count of a new collection (sizes its hash domain).
const EXPECTED_N: usize = 4096;

/// Most collections a registry holds (each costs an index, a WAL when durable, and metric series).
const MAX_COLLECTIONS: usize = 64;

/// How new collections are provisioned.
#[derive(Debug, Clone, Default)]
pub struct CollectionsConfig {
    /// Durable root: each collection persists under `root/<name>/`.
    /// `None` makes every collection ephemeral (acks die with the
    /// process), mirroring the default engine's `--wal`-less mode.
    pub root: Option<PathBuf>,
    /// Index parameters every new collection is built with.
    pub config: C2lshConfig,
}

/// One live collection: its index plus the monotone counters behind
/// the per-collection Prometheus series.
pub struct Collection {
    name: String,
    dim: usize,
    /// The collection's own crash-safe index.
    pub index: MutableIndex,
    /// Queries answered against this collection.
    pub queries: Counter,
    /// Inserts acknowledged into this collection.
    pub inserts: Counter,
    /// Deletes acknowledged against this collection.
    pub deletes: Counter,
    /// Candidates rejected by filter predicates during this
    /// collection's queries.
    pub filtered: Counter,
}

impl Collection {
    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// One point-in-time row for the metrics exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionMetricsRow {
    /// Collection name (the `collection` label value).
    pub name: String,
    /// Live objects.
    pub objects: u64,
    /// Queries answered.
    pub queries: u64,
    /// Inserts acknowledged.
    pub inserts: u64,
    /// Deletes acknowledged.
    pub deletes: u64,
    /// Filter-rejected candidates.
    pub filtered: u64,
}

/// The registry of named collections.
pub struct Registry {
    cfg: CollectionsConfig,
    map: RwLock<BTreeMap<String, Arc<Collection>>>,
}

/// `true` iff `name` is servable: 1–64 chars of `[A-Za-z0-9_-]` (also
/// keeps it a safe directory name on every platform).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_COLLECTION_NAME
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// [`valid_name`] as a refusal; `what` names the name's use (collection
/// names, replica names).
pub fn check_name(what: &str, name: &str) -> Result<(), Error> {
    if !valid_name(name) {
        return Err(Error::invalid(format!(
            "bad {what} name {name:?}: want 1-{MAX_COLLECTION_NAME} chars of [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

impl Registry {
    /// Open the registry: with a durable root, every subdirectory
    /// holding a `collection.meta` manifest is reopened (checkpoint
    /// restore + WAL replay per collection).
    pub fn open(cfg: CollectionsConfig) -> io::Result<Self> {
        let mut map = BTreeMap::new();
        if let Some(root) = &cfg.root {
            std::fs::create_dir_all(root)?;
            for entry in std::fs::read_dir(root)? {
                let entry = entry?;
                let manifest = entry.path().join(MANIFEST);
                if !manifest.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                if !valid_name(&name) {
                    continue;
                }
                let dim =
                    parse_manifest(&std::fs::read_to_string(&manifest)?).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unreadable manifest {}", manifest.display()),
                        )
                    })?;
                let index = MutableIndex::open(entry.path(), dim, EXPECTED_N, &cfg.config)?;
                map.insert(name.clone(), Arc::new(new_collection(name, dim, index)));
            }
        }
        Ok(Registry { cfg, map: RwLock::new(map) })
    }

    /// Create `name` with dimensionality `dim`; returns whether it
    /// already existed (in which case it is left untouched — the
    /// existing dimensionality wins). A `dim` of 0 or past what a vector
    /// frame can carry, or a new name past `MAX_COLLECTIONS`, is refused
    /// before anything is allocated.
    pub fn create(&self, name: &str, dim: usize) -> Result<bool, Error> {
        check_name("collection", name)?;
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(Error::invalid(format!(
                "collection dimensionality {dim} is outside 1..={MAX_DIM}"
            )));
        }
        {
            let map = self.map.read().unwrap();
            if map.contains_key(name) {
                return Ok(true);
            }
            if map.len() >= MAX_COLLECTIONS {
                return Err(registry_full(name));
            }
        }
        let index = match &self.cfg.root {
            Some(root) => {
                let dir = root.join(name);
                let index =
                    MutableIndex::open(&dir, dim, EXPECTED_N, &self.cfg.config).map_err(|e| {
                        Error::new(c2lsh::ErrorKind::Io, format!("cannot open {name:?}: {e}"))
                    })?;
                // The manifest goes down last: a crash before this
                // line leaves an orphan directory the scan skips.
                std::fs::write(dir.join(MANIFEST), format!("dim {dim}\n")).map_err(|e| {
                    Error::new(c2lsh::ErrorKind::Io, format!("cannot write manifest: {e}"))
                })?;
                index
            }
            None => MutableIndex::ephemeral(DynamicIndex::new(dim, EXPECTED_N, &self.cfg.config)),
        };
        let mut map = self.map.write().unwrap();
        // A racing create may have won while the index was building, or
        // others may have filled the registry: a refused one removes its dir.
        if map.contains_key(name) {
            return Ok(true);
        }
        if map.len() >= MAX_COLLECTIONS {
            if let Some(root) = &self.cfg.root {
                let _ = std::fs::remove_dir_all(root.join(name));
            }
            return Err(registry_full(name));
        }
        map.insert(name.to_string(), Arc::new(new_collection(name.to_string(), dim, index)));
        Ok(false)
    }

    /// Drop `name`, deleting its on-disk state; returns whether it
    /// existed.
    pub fn drop_collection(&self, name: &str) -> io::Result<bool> {
        let existed = self.map.write().unwrap().remove(name).is_some();
        if existed {
            if let Some(root) = &self.cfg.root {
                std::fs::remove_dir_all(root.join(name))?;
            }
        }
        Ok(existed)
    }

    /// Look up a live collection.
    pub fn get(&self, name: &str) -> Option<Arc<Collection>> {
        self.map.read().unwrap().get(name).cloned()
    }

    /// All collections, sorted by name, for the list frame.
    pub fn list(&self) -> Vec<CollectionInfo> {
        self.map
            .read()
            .unwrap()
            .values()
            .map(|c| CollectionInfo {
                name: c.name.clone(),
                dim: c.dim as u32,
                objects: c.index.len() as u64,
            })
            .collect()
    }

    /// Per-collection counter snapshot for the Prometheus exposition.
    pub fn metrics_rows(&self) -> Vec<CollectionMetricsRow> {
        self.map
            .read()
            .unwrap()
            .values()
            .map(|c| CollectionMetricsRow {
                name: c.name.clone(),
                objects: c.index.len() as u64,
                queries: c.queries.get(),
                inserts: c.inserts.get(),
                deletes: c.deletes.get(),
                filtered: c.filtered.get(),
            })
            .collect()
    }

    /// Checkpoint every durable collection whose WAL exceeds
    /// `wal_bytes` (0 forces all); returns how many checkpoints ran.
    pub fn checkpoint_all(&self, wal_bytes: u64) -> u64 {
        let collections: Vec<Arc<Collection>> =
            self.map.read().unwrap().values().cloned().collect();
        let mut ran = 0;
        for c in collections {
            match c.index.checkpoint_if_wal_exceeds(wal_bytes) {
                Ok(true) => ran += 1,
                Ok(false) => {}
                Err(e) => eprintln!("collection {:?} checkpoint failed: {e}", c.name),
            }
        }
        ran
    }
}

fn registry_full(name: &str) -> Error {
    Error::invalid(format!("collection {name:?} refused: the registry holds {MAX_COLLECTIONS}"))
}

fn new_collection(name: String, dim: usize, index: MutableIndex) -> Collection {
    Collection {
        name,
        dim,
        index,
        queries: Counter::new(),
        inserts: Counter::new(),
        deletes: Counter::new(),
        filtered: Counter::new(),
    }
}

/// The dimensionality a manifest records, if it is one `create` admits.
fn parse_manifest(text: &str) -> Option<usize> {
    let rest = text.trim().strip_prefix("dim ")?;
    rest.parse().ok().filter(|d| (1..=MAX_DIM).contains(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2lsh::engine::SearchOptions;
    use c2lsh::{MutationOp, PointMeta, Predicate};
    use cc_vector::dataset::Dataset;

    fn insert(v: &[f32], tag: u64, label: u32) -> MutationOp {
        MutationOp::Insert { vector: v.to_vec(), meta: PointMeta::new(tag, label) }
    }

    #[test]
    fn names_are_validated() {
        for good in ["a", "tenant-1", "A_B-c9", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", " ", "a b", "a/b", "..", "å", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn ephemeral_create_query_drop() {
        let reg = Registry::open(CollectionsConfig::default()).unwrap();
        assert!(!reg.create("alpha", 4).unwrap(), "fresh create");
        assert!(reg.create("alpha", 4).unwrap(), "second create reports existed");
        assert!(reg.create("bad name", 4).is_err());
        assert!(reg.create("zerodim", 0).is_err());

        let col = reg.get("alpha").unwrap();
        col.index
            .apply_batch(&[insert(&[1.0, 0.0, 0.0, 0.0], 0b01, 7), insert(&[0.0; 4], 0b10, 8)])
            .unwrap();
        let queries = Dataset::from_rows(&[vec![1.0, 0.0, 0.0, 0.0]]);
        let opts = SearchOptions { filter: Some(Predicate::label(7)), ..SearchOptions::default() };
        let (results, _) = col.index.query_batch_with(&queries, 2, &opts);
        let ids: Vec<u32> = results[0].0.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0], "label 8 point must be filtered out");

        assert_eq!(reg.list().len(), 1);
        assert_eq!(reg.list()[0].objects, 2);
        assert!(reg.drop_collection("alpha").unwrap());
        assert!(!reg.drop_collection("alpha").unwrap(), "second drop is a miss");
        assert!(reg.get("alpha").is_none());
    }

    /// Ephemeral and durable: a new name past the cap is refused before
    /// its directory is written; an existing name and a freed place are not.
    #[test]
    fn new_names_past_the_cap_are_refused() {
        let root = cc_storage::wal::scratch_dir("collections-cap");
        for dir in [None, Some(root.clone())] {
            let reg =
                Registry::open(CollectionsConfig { root: dir, ..Default::default() }).unwrap();
            for i in 0..MAX_COLLECTIONS {
                assert!(!reg.create(&format!("c{i}"), 2).unwrap(), "create {i}");
            }
            let err = reg.create("one-too-many", 2).unwrap_err();
            assert_eq!(err.kind(), c2lsh::ErrorKind::InvalidArgument, "{err}");
            assert!(!root.join("one-too-many").exists());
            assert_eq!(reg.list().len(), MAX_COLLECTIONS);
            assert!(reg.create("c0", 2).unwrap(), "an existing name still answers existed");
            assert!(reg.drop_collection("c0").unwrap());
            assert!(!reg.create("one-too-many", 2).unwrap(), "a drop frees a place");
            assert_eq!(reg.list().len(), MAX_COLLECTIONS);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A manifest whose dimensionality `create` would refuse fails the
    /// open before the collection's index is sized from it.
    #[test]
    fn manifest_dims_past_a_frame_are_refused() {
        assert_eq!(parse_manifest(&format!("dim {MAX_DIM}\n")), Some(MAX_DIM));
        for bad in ["dim 0", &format!("dim {}", MAX_DIM + 1), &format!("dim {}", u32::MAX)] {
            assert_eq!(parse_manifest(bad), None, "{bad}");
        }
        let root = cc_storage::wal::scratch_dir("collections-dim");
        std::fs::create_dir_all(root.join("wide")).unwrap();
        std::fs::write(root.join("wide").join(MANIFEST), format!("dim {}\n", u32::MAX)).unwrap();
        let cfg = CollectionsConfig { root: Some(root.clone()), ..CollectionsConfig::default() };
        let err = Registry::open(cfg).err().expect("an oversized manifest is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn durable_collections_survive_reopen() {
        let root = cc_storage::wal::scratch_dir("collections");
        let cfg = CollectionsConfig { root: Some(root.clone()), ..CollectionsConfig::default() };
        {
            let reg = Registry::open(cfg.clone()).unwrap();
            reg.create("persisted", 3).unwrap();
            reg.create("dropped", 5).unwrap();
            let col = reg.get("persisted").unwrap();
            col.index.apply_batch(&[insert(&[1.0, 2.0, 3.0], 0xF0, 3)]).unwrap();
            assert!(reg.drop_collection("dropped").unwrap());
        }
        let reg = Registry::open(cfg).unwrap();
        let listed = reg.list();
        assert_eq!(listed.len(), 1, "dropped collection must not come back");
        assert_eq!(listed[0].name, "persisted");
        assert_eq!(listed[0].dim, 3);
        assert_eq!(listed[0].objects, 1);
        // The metadata survived the WAL round trip.
        let col = reg.get("persisted").unwrap();
        let queries = Dataset::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let opts = SearchOptions {
            filter: Some(Predicate::label(3).and_tag_all(0xF0)),
            ..SearchOptions::default()
        };
        let (results, _) = col.index.query_batch_with(&queries, 1, &opts);
        assert_eq!(results[0].0.len(), 1);
        let miss = SearchOptions { filter: Some(Predicate::label(4)), ..SearchOptions::default() };
        let (results, _) = col.index.query_batch_with(&queries, 1, &miss);
        assert!(results[0].0.is_empty());
        drop(reg);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
