//! The persistent checkpoint store: a content-addressed on-disk tier under
//! [`ReplayCache`](crate::cache::ReplayCache).
//!
//! PR 5's replay cache makes the distributed construction a pay-once cost
//! *per process*; this store makes it pay-once **ever** — across runs,
//! shards, CI jobs and machines — by persisting the serialized
//! [`ConstructionCheckpoint`] of every [`ReplayKey`] it sees.
//!
//! ## Addressing
//!
//! An entry is addressed by its **canonical key string**
//! (`store-vS|ckpt-vC|family|encoding|scheduler|sSEED`): every input the
//! construction's trajectory depends on, plus both format versions, so any
//! layout change simply makes old entries invisible instead of
//! half-readable. The file name is the 128-bit FNV-1a digest of that string;
//! the string itself is echoed inside the entry and compared on load, so
//! even a digest collision cannot alias two keys.
//!
//! ## Trust model
//!
//! A store entry is a *hint*, never an authority. Loads re-run the full
//! decode pipeline — magic, store version, key echo, whole-file checksum,
//! the checkpoint's own checksum and capture-grade quiescence validation
//! ([`fdn_core::decode_checkpoint`]), and a final validation of the learned
//! cycle against the family graph. Anything short of a perfect entry counts
//! as `rejected` and the caller rebuilds from scratch (and rewrites the
//! entry); a bad entry can cost time, never correctness. This preserves the
//! PR 5 soundness argument unchanged: a store hit hands back byte-identical
//! boundary state to what the in-process build would have produced, because
//! the construction itself is deterministic in the key.
//!
//! ## Concurrency
//!
//! Writers encode into a per-process temp file and `rename` it into place —
//! atomic on POSIX. Two processes racing on one key write byte-identical
//! files (the serialization is canonical), so last-rename-wins is harmless.
//!
//! ## Observability
//!
//! Hit/miss/reject/write counters are exposed via [`CheckpointStore::stats`]
//! and surface in `--timings` sidecars only — never in byte-gated reports,
//! which must not depend on cache temperature.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fdn_core::{
    decode_checkpoint, encode_checkpoint, ConstructionCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
use fdn_graph::Graph;

use crate::cache::ReplayKey;

/// Version of the store *entry envelope* (the framing around the serialized
/// checkpoint). Bump on any envelope change; both this and the checkpoint
/// format version participate in the key, so either bump invalidates cleanly.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Magic prefix of a store entry file.
const MAGIC: [u8; 4] = *b"FDNS";

/// Extension of store entry files.
const ENTRY_EXT: &str = "fdnckpt";

/// A snapshot of one store's counters, for `--timings` sidecars and stderr
/// summaries (never for byte-gated reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that handed back a validated checkpoint.
    pub hits: u64,
    /// Loads that found no entry file.
    pub misses: u64,
    /// Loads that found an entry but discarded it (corrupt, truncated,
    /// version-mismatched, or inconsistent with the family graph).
    pub rejected: u64,
    /// Entries written (after a build on miss or rejection).
    pub writes: u64,
    /// Writes that failed (counted, swallowed — the store is an
    /// accelerator, not a dependency).
    pub write_errors: u64,
}

/// The content-addressed on-disk checkpoint store. Cheap to share via `Arc`;
/// all methods take `&self`.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

/// 128-bit FNV-1a, for entry file names (the 64-bit variant guards entry
/// *content*; file addressing gets the wider digest).
fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut hash = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58du128;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    hash
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the directory-creation failure as text.
    pub fn open(root: &Path) -> Result<CheckpointStore, String> {
        fs::create_dir_all(root)
            .map_err(|e| format!("cannot create checkpoint store at {}: {e}", root.display()))?;
        Ok(CheckpointStore {
            root: root.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The canonical key string of `key` — the exact identity an entry is
    /// addressed and compared by.
    pub fn key_string(key: &ReplayKey) -> String {
        format!(
            "store-v{STORE_FORMAT_VERSION}|ckpt-v{CHECKPOINT_FORMAT_VERSION}|{}|{}|{}|s{}",
            key.family, key.encoding, key.scheduler, key.construction_seed
        )
    }

    /// The entry file path of `key`.
    pub fn entry_path(&self, key: &ReplayKey) -> PathBuf {
        let digest = fnv1a128(Self::key_string(key).as_bytes());
        self.root.join(format!("{digest:032x}.{ENTRY_EXT}"))
    }

    /// Loads and fully validates the entry of `key`, returning the
    /// checkpoint and the recorded construction step count on a hit. `graph`
    /// must be the built graph of `key.family`; the learned cycle is
    /// validated against it before anything is returned.
    ///
    /// Returns `None` on a miss (no entry) *and* on a rejected entry
    /// (corrupt, truncated, wrong version, key mismatch, graph mismatch) —
    /// callers rebuild in both cases; the distinction is visible in
    /// [`stats`](Self::stats).
    pub fn load(&self, key: &ReplayKey, graph: &Graph) -> Option<(ConstructionCheckpoint, u64)> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::parse_entry(&bytes, &Self::key_string(key), graph) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Decodes one entry file, trusting nothing. `None` means "discard and
    /// rebuild"; the reasons are deliberately not distinguished (a corrupt
    /// byte and a stale version call for the same response).
    fn parse_entry(
        bytes: &[u8],
        expected_key: &str,
        graph: &Graph,
    ) -> Option<(ConstructionCheckpoint, u64)> {
        // Whole-file checksum first: nothing else is looked at in a file
        // that fails it.
        if bytes.len() < 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().ok()?);
        if stored != fdn_core::fnv1a64(body) {
            return None;
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n).filter(|&e| e <= body.len())?;
            let s = &body[*pos..end];
            *pos = end;
            Some(s)
        };
        if take(&mut pos, 4)? != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if version != STORE_FORMAT_VERSION {
            return None;
        }
        let key_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let key_echo = std::str::from_utf8(take(&mut pos, key_len)?).ok()?;
        if key_echo != expected_key {
            return None;
        }
        let construction_steps = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let payload_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let payload = take(&mut pos, payload_len)?;
        if pos != body.len() {
            return None;
        }
        let checkpoint = decode_checkpoint(payload).ok()?;
        // The entry is internally consistent; now hold it to the same
        // contract a fresh build meets: it must describe *this* graph.
        if checkpoint.node_count() != graph.node_count()
            || checkpoint.cycle().validate(graph).is_err()
            || !checkpoint.cycle().covers_all_edges(graph)
        {
            return None;
        }
        Some((checkpoint, construction_steps))
    }

    /// Persists `checkpoint` (and the construction's step count) as the
    /// entry of `key`. Failures are counted and swallowed: a run never fails
    /// because its accelerator does.
    pub fn save(&self, key: &ReplayKey, checkpoint: &ConstructionCheckpoint, steps: u64) {
        let key_string = Self::key_string(key);
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&(key_string.len() as u32).to_le_bytes());
        body.extend_from_slice(key_string.as_bytes());
        body.extend_from_slice(&steps.to_le_bytes());
        let payload = encode_checkpoint(checkpoint);
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&payload);
        let checksum = fdn_core::fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());

        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = fs::write(&tmp, &body).and_then(|()| fs::rename(&tmp, &path));
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Caches;
    use crate::spec::EncodingSpec;
    use fdn_graph::GraphFamily;
    use fdn_netsim::SchedulerSpec;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdn-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(seed: u64) -> ReplayKey {
        ReplayKey {
            family: GraphFamily::Figure3,
            encoding: EncodingSpec::Binary,
            scheduler: SchedulerSpec::Random,
            construction_seed: seed,
        }
    }

    /// Builds a real construction through the (store-less) replay cache.
    fn build_construction(k: ReplayKey) -> (ConstructionCheckpoint, u64, Graph) {
        let caches = Caches::new();
        let built = caches.construction.get(&caches.topology, k).unwrap();
        let graph = caches.topology.get(k.family).unwrap().graph.clone();
        (built.checkpoint.clone(), built.construction_steps, graph)
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = tempdir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let k = key(7);
        let (ckpt, steps, graph) = build_construction(k);
        assert!(store.load(&k, &graph).is_none(), "empty store must miss");
        store.save(&k, &ckpt, steps);
        let (back, back_steps) = store.load(&k, &graph).expect("hit after save");
        assert_eq!(back_steps, steps);
        assert_eq!(encode_checkpoint(&back), encode_checkpoint(&ckpt));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.rejected), (1, 1, 0));
        assert_eq!((stats.writes, stats.write_errors), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_content_addressed_and_disjoint() {
        let dir = tempdir("keys");
        let store = CheckpointStore::open(&dir).unwrap();
        let a = key(1);
        let b = key(2);
        assert_ne!(store.entry_path(&a), store.entry_path(&b));
        assert!(CheckpointStore::key_string(&a).contains("figure3"));
        assert!(CheckpointStore::key_string(&a).contains("binary"));
        assert!(CheckpointStore::key_string(&a).contains("random"));
        assert!(CheckpointStore::key_string(&a).contains("s1"));
        // A checkpoint stored under one key is invisible to another.
        let (ckpt, steps, graph) = build_construction(a);
        store.save(&a, &ckpt, steps);
        assert!(store.load(&b, &graph).is_none());
        assert_eq!(store.stats().misses, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_rejected_not_trusted() {
        let dir = tempdir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        let k = key(3);
        let (ckpt, steps, graph) = build_construction(k);
        store.save(&k, &ckpt, steps);
        let path = store.entry_path(&k);
        let pristine = fs::read(&path).unwrap();

        // Bit flip anywhere in the body.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load(&k, &graph).is_none());

        // Truncation.
        fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert!(store.load(&k, &graph).is_none());

        // Wrong store version, checksum fixed up so only the version is at
        // fault.
        let mut versioned = pristine.clone();
        versioned[4..8].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        let len = versioned.len();
        let sum = fdn_core::fnv1a64(&versioned[..len - 8]).to_le_bytes();
        versioned[len - 8..].copy_from_slice(&sum);
        fs::write(&path, &versioned).unwrap();
        assert!(store.load(&k, &graph).is_none());

        assert_eq!(store.stats().rejected, 3);
        assert_eq!(store.stats().hits, 0);

        // The pristine bytes still load: rejection was about the bytes, not
        // the key.
        fs::write(&path, &pristine).unwrap();
        assert!(store.load(&k, &graph).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_for_the_wrong_graph_are_rejected() {
        // Simulate a digest collision / tampered echo: an entry whose bytes
        // are valid but describe a different topology than the caller's.
        let dir = tempdir("wronggraph");
        let store = CheckpointStore::open(&dir).unwrap();
        let k = key(4);
        let (ckpt, steps, _) = build_construction(k);
        store.save(&k, &ckpt, steps);
        let other = GraphFamily::Cycle { n: 8 }.build().unwrap();
        assert!(store.load(&k, &other).is_none());
        assert_eq!(store.stats().rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_cache_uses_the_store_as_a_disk_tier() {
        let dir = tempdir("tier");
        let k = key(5);
        // Cold process: miss, build, write.
        let store = Arc::new(CheckpointStore::open(&dir).unwrap());
        let caches = Caches::with_store(Some(Arc::clone(&store)));
        let cold = caches.construction.get(&caches.topology, k).unwrap();
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));

        // Same process, same key: in-memory memo, store untouched.
        let again = caches.construction.get(&caches.topology, k).unwrap();
        assert!(Arc::ptr_eq(&cold, &again));
        assert_eq!(store.stats().hits, 0);

        // "New process" (fresh caches, same store dir): store hit, zero
        // construction re-paid, byte-identical boundary state.
        let store2 = Arc::new(CheckpointStore::open(&dir).unwrap());
        let caches2 = Caches::with_store(Some(Arc::clone(&store2)));
        let warm = caches2.construction.get(&caches2.topology, k).unwrap();
        let stats2 = store2.stats();
        assert_eq!((stats2.hits, stats2.misses, stats2.rejected), (1, 0, 0));
        assert_eq!(stats2.writes, 0, "a hit must not rewrite the entry");
        assert_eq!(warm.construction_steps, cold.construction_steps);
        assert_eq!(warm.construction_seed, cold.construction_seed);
        assert_eq!(
            encode_checkpoint(&warm.checkpoint),
            encode_checkpoint(&cold.checkpoint)
        );
        assert_eq!(warm.links.link_count(), cold.links.link_count());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_entries_are_rebuilt_and_rewritten() {
        let dir = tempdir("rebuild");
        let k = key(6);
        let store = Arc::new(CheckpointStore::open(&dir).unwrap());
        let caches = Caches::with_store(Some(Arc::clone(&store)));
        let cold = caches.construction.get(&caches.topology, k).unwrap();
        let path = store.entry_path(&k);
        let pristine = fs::read(&path).unwrap();

        // Corrupt the entry on disk; a fresh process must reject, rebuild
        // and rewrite it.
        let mut bad = pristine.clone();
        let mid = bad.len() / 3;
        bad[mid] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        let store2 = Arc::new(CheckpointStore::open(&dir).unwrap());
        let caches2 = Caches::with_store(Some(Arc::clone(&store2)));
        let rebuilt = caches2.construction.get(&caches2.topology, k).unwrap();
        let stats = store2.stats();
        assert_eq!((stats.hits, stats.rejected, stats.writes), (0, 1, 1));
        assert_eq!(
            encode_checkpoint(&rebuilt.checkpoint),
            encode_checkpoint(&cold.checkpoint)
        );
        // The rewritten entry is byte-identical to the original (canonical
        // serialization), and loads.
        assert_eq!(fs::read(&path).unwrap(), pristine);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_builds_are_never_stored() {
        let dir = tempdir("failure");
        let store = Arc::new(CheckpointStore::open(&dir).unwrap());
        let caches = Caches::with_store(Some(Arc::clone(&store)));
        let k = ReplayKey {
            family: GraphFamily::Path { n: 4 }, // not 2EC: construction fails
            ..key(1)
        };
        assert!(caches.construction.get(&caches.topology, k).is_err());
        assert_eq!(store.stats().writes, 0);
        assert!(!store.entry_path(&k).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
