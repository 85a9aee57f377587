//! The persistent content-addressed result cache.
//!
//! One JSON file per optimized program, addressed by the input's
//! [`am_ir::alpha::stable_hash`] — the same key the in-memory
//! [`am_pipeline::ResultCache`] uses, so alpha-equivalent programs share
//! one entry across both tiers. The store plugs into the pipeline engine
//! through [`am_pipeline::SecondaryCache`]: in-memory misses fall through
//! to disk, fresh results are written through to disk.
//!
//! Layout (`v1` is the on-disk format version — a future incompatible
//! format gets a sibling directory instead of a migration):
//!
//! ```text
//! <root>/v1/<2-hex shard>/<16-hex hash>.json   one entry per program
//! <root>/v1/index.json                          recency, flushed on shutdown
//! ```
//!
//! Crash safety is write-temp-then-rename: an entry is either fully
//! present or absent, never torn. Entries that fail to parse (corruption,
//! hand-editing) are deleted and treated as misses. The store is bounded
//! by a byte budget; when a write pushes it over, the least recently used
//! entries are evicted. Recency survives restarts via `index.json` when
//! the daemon shut down gracefully; after a crash the scan falls back to
//! file modification order.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use am_core::flush::FlushStats;
use am_core::global::PhaseTimings;
use am_core::init::InitStats;
use am_core::motion::MotionStats;
use am_lint::LintSummary;
use am_pipeline::{CachedResult, SecondaryCache};
use am_trace::json::{self, Json};

use crate::proto::DiskCacheSnapshot;

/// Schema tag written into every entry file.
pub const ENTRY_SCHEMA: &str = "am-serve-cache/v1";
/// Schema tag written into the recency index.
pub const INDEX_SCHEMA: &str = "am-serve-index/v1";

/// Configuration for [`DiskCache::open`].
#[derive(Clone, Debug)]
pub struct DiskCacheConfig {
    /// Cache directory root; created if absent. The store owns
    /// `<root>/v1` entirely.
    pub root: PathBuf,
    /// Byte budget across all entries (minimum one entry is always kept).
    pub budget_bytes: u64,
}

impl DiskCacheConfig {
    /// A cache rooted at `root` with the default 256 MiB budget.
    pub fn new(root: impl Into<PathBuf>) -> DiskCacheConfig {
        DiskCacheConfig {
            root: root.into(),
            budget_bytes: 256 << 20,
        }
    }
}

struct Slot {
    bytes: u64,
    last_used: u64,
}

struct Index {
    entries: HashMap<u64, Slot>,
    total_bytes: u64,
    tick: u64,
    evictions: u64,
    stores: u64,
}

/// The persistent store. All methods are `&self` and thread-safe; the
/// pipeline's worker threads call [`SecondaryCache::load`] and
/// [`SecondaryCache::store`] concurrently.
pub struct DiskCache {
    dir: PathBuf, // <root>/v1
    budget_bytes: u64,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    load_errors: AtomicU64,
    temp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the store under `config.root`, scanning
    /// existing entries and restoring recency from `index.json` when one
    /// was flushed by a graceful shutdown. Leftover temp files from a
    /// crashed writer are removed.
    pub fn open(config: &DiskCacheConfig) -> io::Result<DiskCache> {
        let dir = config.root.join("v1");
        fs::create_dir_all(&dir)?;
        let recency = load_recency(&dir.join("index.json"));
        let mut entries = HashMap::new();
        let mut total_bytes = 0u64;
        let mut tick = recency.values().copied().max().unwrap_or(0);
        for shard in fs::read_dir(&dir)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for file in fs::read_dir(&shard)? {
                let file = file?;
                let path = file.path();
                let name = file.file_name();
                let name = name.to_string_lossy();
                if name.contains(".tmp") {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                let Some(hash) = name
                    .strip_suffix(".json")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                else {
                    continue;
                };
                let meta = file.metadata()?;
                let last_used = recency.get(&hash).copied().unwrap_or_else(|| {
                    // No index (crash) — approximate recency by mtime.
                    meta.modified()
                        .ok()
                        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                        .map(|d| d.as_secs())
                        .unwrap_or(0)
                });
                tick = tick.max(last_used);
                total_bytes += meta.len();
                entries.insert(
                    hash,
                    Slot {
                        bytes: meta.len(),
                        last_used,
                    },
                );
            }
        }
        Ok(DiskCache {
            dir,
            budget_bytes: config.budget_bytes,
            index: Mutex::new(Index {
                entries,
                total_bytes,
                tick,
                evictions: 0,
                stores: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
        })
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir
            .join(format!("{:02x}", (key >> 56) as u8))
            .join(format!("{key:016x}.json"))
    }

    /// Current counters, in the shape the `stats` response uses.
    pub fn snapshot(&self) -> DiskCacheSnapshot {
        let index = self.index.lock().unwrap();
        DiskCacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: index.stores,
            evictions: index.evictions,
            load_errors: self.load_errors.load(Ordering::Relaxed),
            entries: index.entries.len() as u64,
            bytes: index.total_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    /// Writes the recency index (temp + rename), so the next
    /// [`open`](DiskCache::open) restores LRU order exactly. Called on
    /// graceful shutdown; skipping it only costs recency fidelity.
    pub fn flush_index(&self) -> io::Result<()> {
        let index = self.index.lock().unwrap();
        let mut ordered: Vec<_> = index.entries.iter().collect();
        ordered.sort_by_key(|(hash, _)| **hash);
        let entries = ordered
            .into_iter()
            .map(|(hash, slot)| {
                json::obj([
                    ("hash", format!("{hash:016x}").into()),
                    ("last_used", slot.last_used.into()),
                ])
            })
            .collect();
        let mut out = String::new();
        json::obj([("schema", INDEX_SCHEMA.into()), ("entries", entries)]).write(&mut out);
        out.push('\n');
        let final_path = self.dir.join("index.json");
        let temp = self.dir.join(format!(
            "index.tmp.{}.{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&temp, &out)?;
        fs::rename(&temp, &final_path)
    }

    /// Evicts least-recently-used entries until the budget holds. Caller
    /// holds the index lock.
    fn evict_to_budget(&self, index: &mut Index) {
        while index.total_bytes > self.budget_bytes && index.entries.len() > 1 {
            let Some(&coldest) = index
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k)
            else {
                break;
            };
            if let Some(slot) = index.entries.remove(&coldest) {
                index.total_bytes -= slot.bytes;
                index.evictions += 1;
            }
            let _ = fs::remove_file(self.path_of(coldest));
        }
    }

    fn drop_entry(&self, key: u64) {
        let mut index = self.index.lock().unwrap();
        if let Some(slot) = index.entries.remove(&key) {
            index.total_bytes -= slot.bytes;
        }
        let _ = fs::remove_file(self.path_of(key));
    }
}

impl SecondaryCache for DiskCache {
    fn load(&self, key: u64) -> Option<CachedResult> {
        {
            let mut index = self.index.lock().unwrap();
            index.tick += 1;
            let tick = index.tick;
            match index.entries.get_mut(&key) {
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Some(slot) => slot.last_used = tick,
            }
        }
        let path = self.path_of(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                // Indexed but unreadable (deleted behind our back).
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.drop_entry(key);
                return None;
            }
        };
        match decode_entry(&text) {
            Ok(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Err(_) => {
                // Corrupt entry: delete it so the slot heals on the next
                // store instead of failing forever.
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.drop_entry(key);
                None
            }
        }
    }

    fn store(&self, key: u64, value: &CachedResult) {
        {
            let mut index = self.index.lock().unwrap();
            index.tick += 1;
            let tick = index.tick;
            if let Some(slot) = index.entries.get_mut(&key) {
                // Already present — results are deterministic in the key,
                // so rewriting would produce the same bytes. Just touch.
                slot.last_used = tick;
                return;
            }
        }
        let text = encode_entry(value);
        let path = self.path_of(key);
        let Some(shard) = path.parent() else { return };
        // Best-effort throughout: a full disk or permission error costs
        // reuse, not correctness.
        if fs::create_dir_all(shard).is_err() {
            return;
        }
        let temp = shard.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&temp, &text).is_err() {
            let _ = fs::remove_file(&temp);
            return;
        }
        if fs::rename(&temp, &path).is_err() {
            let _ = fs::remove_file(&temp);
            return;
        }
        let mut index = self.index.lock().unwrap();
        index.tick += 1;
        index.stores += 1;
        let tick = index.tick;
        let bytes = text.len() as u64;
        if let Some(old) = index.entries.insert(
            key,
            Slot {
                bytes,
                last_used: tick,
            },
        ) {
            index.total_bytes -= old.bytes;
        }
        index.total_bytes += bytes;
        self.evict_to_budget(&mut index);
    }
}

fn load_recency(path: &Path) -> HashMap<u64, u64> {
    let mut recency = HashMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return recency;
    };
    let Ok(value) = json::parse(text.trim()) else {
        return recency;
    };
    if value.str_field("schema") != Ok(INDEX_SCHEMA) {
        return recency;
    }
    let Ok(entries) = value.arr_field("entries") else {
        return recency;
    };
    for entry in entries {
        let hash = entry
            .str_field("hash")
            .ok()
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        if let (Some(hash), Ok(last_used)) = (hash, entry.u64_field("last_used")) {
            recency.insert(hash, last_used);
        }
    }
    recency
}

/// Renders a cache entry file.
pub fn encode_entry(r: &CachedResult) -> String {
    let lint = r.lint.as_ref().map_or(Json::Null, |lint| {
        json::obj([
            ("errors", lint.errors.into()),
            ("warnings", lint.warnings.into()),
            ("infos", lint.infos.into()),
            (
                "lines",
                lint.lines.iter().map(|l| l.as_str().into()).collect(),
            ),
        ])
    });
    let entry = json::obj([
        ("schema", ENTRY_SCHEMA.into()),
        ("canonical", r.canonical.as_str().into()),
        ("nodes", r.nodes.into()),
        ("instrs", r.instrs.into()),
        ("points", r.points.into()),
        ("edges_split", r.edges_split.into()),
        (
            "init",
            json::obj([
                (
                    "assignments_decomposed",
                    r.init.assignments_decomposed.into(),
                ),
                (
                    "condition_sides_extracted",
                    r.init.condition_sides_extracted.into(),
                ),
            ]),
        ),
        (
            "motion",
            json::obj([
                ("rounds", r.motion.rounds.into()),
                ("eliminated", r.motion.eliminated.into()),
                ("inserted", r.motion.inserted.into()),
                ("removed", r.motion.removed.into()),
                ("iterations", r.motion.iterations.into()),
                ("worklist_pushes", r.motion.worklist_pushes.into()),
                ("converged", r.motion.converged.into()),
            ]),
        ),
        (
            "flush",
            json::obj([
                ("instances_removed", r.flush.instances_removed.into()),
                ("inserted", r.flush.inserted.into()),
                ("reconstructed", r.flush.reconstructed.into()),
                ("iterations", r.flush.iterations.into()),
                ("worklist_pushes", r.flush.worklist_pushes.into()),
                ("max_worklist_len", r.flush.max_worklist_len.into()),
            ]),
        ),
        (
            "timings_micros",
            json::obj([
                ("split", r.timings.split.as_micros().into()),
                ("init", r.timings.init.as_micros().into()),
                ("motion", r.timings.motion.as_micros().into()),
                ("flush", r.timings.flush.as_micros().into()),
            ]),
        ),
        ("lint", lint),
    ]);
    let mut out = String::new();
    entry.write(&mut out);
    out.push('\n');
    out
}

/// Parses a cache entry file.
pub fn decode_entry(text: &str) -> Result<CachedResult, String> {
    let value = json::parse(text.trim()).map_err(|e| format!("bad entry JSON: {e}"))?;
    match value.str_field("schema")? {
        ENTRY_SCHEMA => {}
        other => return Err(format!("entry schema '{other}', expected '{ENTRY_SCHEMA}'")),
    }
    let init = value.field("init")?;
    let motion = value.field("motion")?;
    let flush = value.field("flush")?;
    let timings = value.field("timings_micros")?;
    let lint = match value.get("lint") {
        None | Some(Json::Null) => None,
        Some(lint) => Some(LintSummary {
            errors: lint.u64_field("errors")? as usize,
            warnings: lint.u64_field("warnings")? as usize,
            infos: lint.u64_field("infos")? as usize,
            lines: lint
                .arr_field("lines")?
                .iter()
                .map(|l| l.as_str().map(str::to_owned).ok_or("non-string lint line"))
                .collect::<Result<_, _>>()?,
        }),
    };
    Ok(CachedResult {
        canonical: value.str_field("canonical")?.to_owned(),
        nodes: value.u64_field("nodes")? as usize,
        instrs: value.u64_field("instrs")? as usize,
        points: value.u64_field("points")? as usize,
        edges_split: value.u64_field("edges_split")? as usize,
        init: InitStats {
            assignments_decomposed: init.u64_field("assignments_decomposed")? as usize,
            condition_sides_extracted: init.u64_field("condition_sides_extracted")? as usize,
        },
        motion: MotionStats {
            rounds: motion.u64_field("rounds")? as usize,
            eliminated: motion.u64_field("eliminated")? as usize,
            inserted: motion.u64_field("inserted")? as usize,
            removed: motion.u64_field("removed")? as usize,
            iterations: motion.u64_field("iterations")?,
            worklist_pushes: motion.u64_field("worklist_pushes")?,
            converged: motion.bool_field("converged")?,
        },
        flush: FlushStats {
            instances_removed: flush.u64_field("instances_removed")? as usize,
            inserted: flush.u64_field("inserted")? as usize,
            reconstructed: flush.u64_field("reconstructed")? as usize,
            iterations: flush.u64_field("iterations")?,
            worklist_pushes: flush.u64_field("worklist_pushes")?,
            max_worklist_len: flush.u64_field("max_worklist_len")? as usize,
        },
        timings: PhaseTimings {
            split: Duration::from_micros(timings.u64_field("split")?),
            init: Duration::from_micros(timings.u64_field("init")?),
            motion: Duration::from_micros(timings.u64_field("motion")?),
            flush: Duration::from_micros(timings.u64_field("flush")?),
        },
        lint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tag: &str) -> CachedResult {
        CachedResult {
            canonical: format!("start 1\nend 1\nnode 1 {{\n  out({tag})\n}}\n"),
            nodes: 3,
            instrs: 9,
            points: 15,
            init: InitStats {
                assignments_decomposed: 4,
                condition_sides_extracted: 1,
            },
            motion: MotionStats {
                rounds: 2,
                eliminated: 3,
                inserted: 2,
                removed: 5,
                iterations: 88,
                worklist_pushes: 120,
                converged: true,
            },
            flush: FlushStats {
                instances_removed: 1,
                inserted: 1,
                reconstructed: 0,
                iterations: 30,
                worklist_pushes: 41,
                max_worklist_len: 7,
            },
            edges_split: 2,
            timings: PhaseTimings {
                split: Duration::from_micros(11),
                init: Duration::from_micros(22),
                motion: Duration::from_micros(3300),
                flush: Duration::from_micros(440),
            },
            lint: Some(LintSummary {
                errors: 0,
                warnings: 2,
                infos: 1,
                lines: vec!["warn: \"quoted\"".to_owned(), "info: plain".to_owned()],
            }),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("am-serve-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn assert_entries_eq(a: &CachedResult, b: &CachedResult) {
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(
            (a.nodes, a.instrs, a.points, a.edges_split),
            (b.nodes, b.instrs, b.points, b.edges_split)
        );
        assert_eq!(a.init, b.init);
        assert_eq!(a.motion, b.motion);
        assert_eq!(a.flush, b.flush);
        assert_eq!(a.timings, b.timings);
        match (&a.lint, &b.lint) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(
                    (x.errors, x.warnings, x.infos),
                    (y.errors, y.warnings, y.infos)
                );
                assert_eq!(x.lines, y.lines);
            }
            other => panic!("lint mismatch: {other:?}"),
        }
    }

    #[test]
    fn entries_round_trip_with_every_field() {
        let original = sample("x");
        let decoded = decode_entry(&encode_entry(&original)).unwrap();
        assert_entries_eq(&original, &decoded);

        let mut bare = sample("y");
        bare.lint = None;
        let decoded = decode_entry(&encode_entry(&bare)).unwrap();
        assert!(decoded.lint.is_none());
    }

    #[test]
    fn store_load_survives_reopen() {
        let root = temp_root("reopen");
        let config = DiskCacheConfig::new(&root);
        {
            let cache = DiskCache::open(&config).unwrap();
            cache.store(0xabc1, &sample("a"));
            cache.store(0xabc2, &sample("b"));
            cache.flush_index().unwrap();
            assert_eq!(cache.snapshot().entries, 2);
        }
        let cache = DiskCache::open(&config).unwrap();
        assert_eq!(cache.snapshot().entries, 2, "scan found both entries");
        assert_entries_eq(&cache.load(0xabc1).unwrap(), &sample("a"));
        assert!(cache.load(0xdead).is_none());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_deleted_and_miss() {
        let root = temp_root("corrupt");
        let config = DiskCacheConfig::new(&root);
        let cache = DiskCache::open(&config).unwrap();
        cache.store(0x77, &sample("a"));
        let path = cache.path_of(0x77);
        fs::write(&path, "{ not json").unwrap();
        assert!(cache.load(0x77).is_none(), "corrupt entry is a miss");
        assert!(!path.exists(), "corrupt entry was deleted");
        assert_eq!(cache.snapshot().load_errors, 1);
        // The slot heals: a later store re-creates it.
        cache.store(0x77, &sample("a"));
        assert!(cache.load(0x77).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let root = temp_root("budget");
        let entry_bytes = encode_entry(&sample("a")).len() as u64;
        let config = DiskCacheConfig {
            root: root.clone(),
            // Room for two entries, not three.
            budget_bytes: entry_bytes * 2 + entry_bytes / 2,
        };
        let cache = DiskCache::open(&config).unwrap();
        cache.store(1, &sample("a"));
        cache.store(2, &sample("a"));
        assert!(cache.load(1).is_some(), "warm entry 1; 2 is now coldest");
        cache.store(3, &sample("a"));
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.entries, 2);
        assert!(cache.load(2).is_none(), "coldest entry evicted");
        assert!(cache.load(1).is_some());
        assert!(cache.load(3).is_some());
        assert!(snap.bytes <= config.budget_bytes);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn index_preserves_lru_order_across_restarts() {
        let root = temp_root("index");
        let entry_bytes = encode_entry(&sample("a")).len() as u64;
        let config = DiskCacheConfig {
            root: root.clone(),
            budget_bytes: entry_bytes * 2 + entry_bytes / 2,
        };
        {
            let cache = DiskCache::open(&config).unwrap();
            cache.store(1, &sample("a"));
            cache.store(2, &sample("a"));
            // Touch 1 so 2 is coldest, then shut down gracefully.
            assert!(cache.load(1).is_some());
            cache.flush_index().unwrap();
        }
        let cache = DiskCache::open(&config).unwrap();
        cache.store(3, &sample("a"));
        assert!(cache.load(2).is_none(), "restored recency evicted 2, not 1");
        assert!(cache.load(1).is_some());
        let _ = fs::remove_dir_all(&root);
    }
}
