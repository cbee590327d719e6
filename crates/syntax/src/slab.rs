//! The two-tier hash-consing store behind `TypeArena` and
//! `CoercionArena`, and the append-only concurrent primitives it is
//! built from.
//!
//! [`Store`] interns [`Node`]s: it stores each distinct node once and
//! names it by a dense `u32` id. A store is either *flat* or an
//! *overlay* over a [`Frozen`] base, a shared, read-only view that any
//! number of overlays (one per worker) consult before their own local
//! tier. [`Store::freeze`] turns a store, together with the memo rows
//! its owner keeps beside it (type verdicts, composition pairs), into a
//! new view.
//!
//! **Id-offset contract.** Ids `0..base.len()` denote frozen nodes and
//! mean the same node in every overlay over that base (and in the
//! store that was frozen). Ids `>= base.len()` are overlay-local: each
//! overlay mints its own, so they mean something only in the overlay
//! that made them. Freezing an overlay appends its new rows past the
//! base, so the new view [`extends`](Frozen::extends) the base and every
//! base id keeps its meaning.
//!
//! Two building blocks live here too, both written in safe Rust (the
//! crate forbids `unsafe`):
//!
//! * [`AppendLog`] — a chunked, pointer-stable, append-only vector.
//!   A single writer (serialized externally) pushes entries; any
//!   number of readers concurrently index entries they have been
//!   *told about* (via a watermark published through an
//!   acquire/release edge) without locking. Entries are never moved
//!   or dropped while the log is alive, so an index below a reader's
//!   watermark stays valid forever — that is what makes superseded
//!   epochs safe to keep reading while newer epochs grow past them.
//! * [`AtomicIndex`] — an open-addressed hash index over payload ids
//!   (`u32`), stored as tagged `AtomicU64` slots. Readers probe
//!   lock-free; the single writer inserts new entries and grows by
//!   chaining progressively larger tables (existing tables are never
//!   rehashed, so a reader mid-probe is never invalidated).
//!
//! Both types are deliberately *policy-free*: they do not know about
//! watermarks. Callers pass the watermark as a filter on the payload
//! (`AtomicIndex::get` takes an `eq` closure; over-watermark entries
//! simply fail the filter and read as absent). The memory-ordering
//! contract is the usual publication pattern: the writer fully
//! initializes an entry (its [`OnceLock`] slot) *before* storing the
//! index slot / bumping the published length with `Release`, and
//! readers reach entries only through `Acquire` loads of those
//! words, so a visible id always dereferences to a fully-written
//! entry.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fxhash::FxBuildHasher;

/// Number of chunks in an [`AppendLog`] spine / tables in an
/// [`AtomicIndex`] chain. Chunk `k` holds `BASE_CAP << k` entries, so
/// 32 chunks address more than `u32` ids can name — growth never runs
/// off the end before the id space does.
const SPINE: usize = 32;

/// Capacity of the first chunk / table. Subsequent ones double.
const BASE_CAP: usize = 1024;

/// Locates index `i` in the doubling-chunk layout: chunk `c` spans
/// global indices `[BASE_CAP * (2^c - 1), BASE_CAP * (2^(c+1) - 1))`.
/// Returns `(chunk, offset_within_chunk)`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let n = i / BASE_CAP + 1;
    let chunk = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let within = i - BASE_CAP * ((1 << chunk) - 1);
    (chunk, within)
}

/// A chunked, append-only log with lock-free reads.
///
/// The spine holds a fixed number of chunks of doubling capacity; a
/// chunk, once allocated, is never moved or freed while the log
/// lives, so `get` can hand out plain references. Each entry is an
/// [`OnceLock`] slot: the writer sets it exactly once, then publishes
/// it by storing the new length with `Release`. Readers that learned
/// an index from an `Acquire` load of the length (or of an
/// [`AtomicIndex`] slot written after the push) are guaranteed to
/// find the slot initialized.
///
/// Writer exclusion is **external**: callers wrap pushes in their own
/// mutex. Readers need nothing.
pub struct AppendLog<T> {
    spine: [OnceLock<Box<[OnceLock<T>]>>; SPINE],
    len: AtomicUsize,
}

impl<T> AppendLog<T> {
    /// An empty log. Allocates no chunks until the first push.
    pub fn new() -> AppendLog<T> {
        AppendLog {
            spine: [const { OnceLock::new() }; SPINE],
            len: AtomicUsize::new(0),
        }
    }

    /// Number of published entries (an `Acquire` load: every index
    /// below the returned value is safe to `get`).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no entry has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `value`, returning its index. Single-writer only: the
    /// caller must hold whatever lock serializes writers. The entry
    /// is fully initialized before the length moves (`Release`), so
    /// concurrent readers either don't see the index yet or see the
    /// finished entry.
    pub fn push(&self, value: T) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (chunk, within) = locate(i);
        let slab = self.spine[chunk].get_or_init(|| {
            let cap = BASE_CAP << chunk;
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, OnceLock::new);
            v.into_boxed_slice()
        });
        let placed = slab[within].set(value);
        debug_assert!(placed.is_ok(), "AppendLog slot {i} double-initialized");
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Reads entry `i`. The caller must have learned `i` through a
    /// published watermark (see [`AppendLog::len`]); indexing past
    /// the published length panics.
    pub fn get(&self, i: usize) -> &T {
        let (chunk, within) = locate(i);
        self.spine[chunk]
            .get()
            .and_then(|slab| slab[within].get())
            .expect("AppendLog index past the published watermark")
    }
}

impl<T> Default for AppendLog<T> {
    fn default() -> AppendLog<T> {
        AppendLog::new()
    }
}

impl<T> std::fmt::Debug for AppendLog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendLog")
            .field("len", &self.len())
            .finish()
    }
}

/// An append-only hash index mapping 64-bit hashes to `u32` payloads
/// (ids or row numbers), probed lock-free.
///
/// Storage is a chain of open-addressed tables of doubling capacity.
/// A slot packs the upper 32 bits of the key's hash (the *tag*) with
/// `payload + 1` (so an all-zero slot means empty). The single
/// writer only ever inserts into the newest table and starts a new,
/// larger table when the newest would exceed half full; older tables
/// are never rehashed or dropped, so readers probe them without any
/// coordination. A lookup therefore probes every table in the chain.
///
/// The index stores no keys — on a tag match, `get` calls the
/// caller's `eq` closure with the candidate payload, and the caller
/// compares against its own entry storage (typically an
/// [`AppendLog`]). The closure is also where watermark filtering
/// happens: returning `false` for an over-watermark payload makes
/// the entry read as absent, because hash-consed callers store each
/// distinct key at most once.
pub struct AtomicIndex {
    tables: [OnceLock<Box<[AtomicU64]>>; SPINE],
    /// Index of the newest (insert-target) table. Writer-only.
    active: AtomicUsize,
    /// Occupied slots in the newest table. Writer-only.
    active_len: AtomicUsize,
}

impl AtomicIndex {
    /// An empty index. Allocates no tables until the first insert.
    pub fn new() -> AtomicIndex {
        AtomicIndex {
            tables: [const { OnceLock::new() }; SPINE],
            active: AtomicUsize::new(0),
            active_len: AtomicUsize::new(0),
        }
    }

    /// Probes for an entry whose hash matches `hash` and whose
    /// payload satisfies `eq`. Lock-free; runs concurrently with a
    /// writer's `insert` (an in-flight insert is either invisible or
    /// fully published, never torn, because slots are single
    /// `AtomicU64` words).
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let tag = hash >> 32;
        for table in &self.tables {
            let Some(slots) = table.get() else { break };
            let mask = slots.len() - 1;
            let mut i = (hash as usize) & mask;
            loop {
                let slot = slots[i].load(Ordering::Acquire);
                if slot == 0 {
                    break;
                }
                if slot >> 32 == tag {
                    let payload = (slot as u32).wrapping_sub(1);
                    if eq(payload) {
                        return Some(payload);
                    }
                }
                i = (i + 1) & mask;
            }
        }
        None
    }

    /// Inserts `payload` under `hash`. Single-writer only (external
    /// lock), and the caller must have established the key is absent
    /// (via [`AtomicIndex::get`] without a watermark filter) — the
    /// index never stores one key twice.
    ///
    /// The slot store is `Release`: a reader that observes it also
    /// observes every write the writer made before it (in
    /// particular, the entry the payload points at).
    pub fn insert(&self, hash: u64, payload: u32) {
        let mut active = self.active.load(Ordering::Relaxed);
        let mut filled = self.active_len.load(Ordering::Relaxed);
        let cap = BASE_CAP << active;
        // Keep the newest table at most half full so probes stay
        // short and always terminate at an empty slot.
        if self.tables[active].get().is_some() && (filled + 1) * 2 > cap {
            active += 1;
            filled = 0;
            self.active.store(active, Ordering::Relaxed);
            self.active_len.store(0, Ordering::Relaxed);
        }
        let cap = BASE_CAP << active;
        let slots = self.tables[active].get_or_init(|| {
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, || AtomicU64::new(0));
            v.into_boxed_slice()
        });
        let mask = slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while slots[i].load(Ordering::Relaxed) != 0 {
            i = (i + 1) & mask;
        }
        debug_assert!(payload < u32::MAX, "payload id space exhausted");
        let slot = ((hash >> 32) << 32) | (u64::from(payload) + 1);
        slots[i].store(slot, Ordering::Release);
        self.active_len.store(filled + 1, Ordering::Relaxed);
    }
}

impl Default for AtomicIndex {
    fn default() -> AtomicIndex {
        AtomicIndex::new()
    }
}

impl std::fmt::Debug for AtomicIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicIndex")
            .field("tables", &(self.active.load(Ordering::Relaxed) + 1))
            .finish()
    }
}

/// A hash-consed node kind a [`Store`] holds: `Copy` data whose
/// children are ids of the same store, with the per-node metadata and
/// the memo rows frozen beside the nodes.
pub trait Node: Copy + Eq + Hash + fmt::Debug {
    /// Facts computed once per node when it is interned. They must not
    /// mention ids, so that a node's metadata stays valid when an
    /// append freeze rewrites its children.
    type Meta: Copy + fmt::Debug;
    /// The key of a memo row (a verdict's relation and operands, a
    /// composition's operand pair).
    type Key: Copy + Eq + Hash + fmt::Debug;
    /// The memoized answer.
    type Value: Copy + PartialEq + fmt::Debug;

    /// This node's metadata, from its children's entries in `store`.
    fn compute_meta(self, store: &Store<Self>) -> Self::Meta;

    /// This node with every child id rewritten through `f`.
    fn map_ids(self, f: impl Fn(u32) -> u32) -> Self;

    /// The key-remap hook: a memo row with every id rewritten through
    /// `f`. An append freeze keeps base ids and appends local nodes in
    /// interning order, but a local node that a sibling froze first
    /// dedups to the sibling's earlier row. So two local ids can swap
    /// order (never a base id and a local id: every remapped id lies
    /// past the base), and a key stored in a canonical order must be
    /// put back in it here.
    fn map_row(row: (Self::Key, Self::Value), f: impl Fn(u32) -> u32) -> (Self::Key, Self::Value);
}

/// The append-only storage behind every [`Frozen`] view: nodes, their
/// metadata and the memo rows, in [`AppendLog`]s probed through
/// [`AtomicIndex`]es. One slab serves a whole lineage of views:
/// readers never lock, and the `writer` mutex only serializes freezes.
#[derive(Debug)]
struct Slab<N: Node> {
    nodes: AppendLog<N>,
    meta: AppendLog<N::Meta>,
    node_index: AtomicIndex,
    memo: AppendLog<(N::Key, N::Value)>,
    memo_index: AtomicIndex,
    hasher: FxBuildHasher,
    writer: Mutex<()>,
}

impl<N: Node> Slab<N> {
    /// Hash-cons probe among slab ids below `below` (a view's
    /// watermark, or `usize::MAX` for a writer that must see all).
    fn probe_node(&self, node: &N, below: usize) -> Option<u32> {
        let hash = self.hasher.hash_one(node);
        self.node_index.get(hash, |id| {
            (id as usize) < below && *self.nodes.get(id as usize) == *node
        })
    }

    /// Memo probe among rows below `below`.
    fn probe_memo(&self, key: &N::Key, below: usize) -> Option<N::Value> {
        let hash = self.hasher.hash_one(key);
        self.memo_index
            .get(hash, |row| {
                (row as usize) < below && self.memo.get(row as usize).0 == *key
            })
            .map(|row| self.memo.get(row as usize).1)
    }
}

/// A frozen, read-only view of a [`Store`]: the shared base tier.
///
/// A view is two watermarks (nodes, memo rows) over an append-only
/// slab that later freezes grow past it. Rows below a watermark never
/// change or move, so superseded views stay valid. `Send + Sync`;
/// reads are wait-free.
#[derive(Debug, Clone)]
pub struct Frozen<N: Node> {
    slab: Arc<Slab<N>>,
    len: usize,
    memo_len: usize,
}

impl<N: Node> Frozen<N> {
    /// Number of frozen nodes: the id offset of every overlay over
    /// this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of frozen memo rows.
    pub fn memo_len(&self) -> usize {
        self.memo_len
    }

    /// Whether this view *extends* `other`: every node of `other`
    /// appears here at the same id, the condition for hot-swapping one
    /// base for another. O(1): the same slab, watermarks at least as
    /// high.
    pub fn extends(&self, other: &Frozen<N>) -> bool {
        Arc::ptr_eq(&self.slab, &other.slab)
            && other.len <= self.len
            && other.memo_len <= self.memo_len
    }

    /// The memoized answer for `key`, among this view's rows.
    pub fn lookup_memo(&self, key: &N::Key) -> Option<N::Value> {
        self.slab.probe_memo(key, self.memo_len)
    }

    fn node_at(&self, i: usize) -> N {
        debug_assert!(i < self.len, "read past the view watermark");
        *self.slab.nodes.get(i)
    }

    fn meta_at(&self, i: usize) -> N::Meta {
        debug_assert!(i < self.len, "read past the view watermark");
        *self.slab.meta.get(i)
    }
}

/// Node-interning counters of a [`Store`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Interns answered by a node already stored, in either tier.
    pub hits: u64,
    /// Interns that stored a new node.
    pub misses: u64,
    /// The subset of [`InternStats::hits`] answered by the frozen
    /// base (always zero for a flat store).
    pub base_hits: u64,
}

/// A two-tier hash-consing store: an optional [`Frozen`] base,
/// consulted first, and a local tier that holds only the nodes the
/// base lacks, with ids offset past it (see the
/// [module docs](self) for the id-offset contract).
#[derive(Debug)]
pub struct Store<N: Node> {
    base: Option<Arc<Frozen<N>>>,
    /// `base.len()`, cached (zero for a flat store).
    base_len: usize,
    /// Local nodes; id = `base_len` + local index. Children precede
    /// their parents.
    nodes: Vec<N>,
    meta: Vec<N::Meta>,
    /// The local tier's hash-cons index. Fx-hashed: keys are a
    /// discriminant or two plus at most two ids, so hashing must not
    /// dominate the probe.
    index: HashMap<N, u32, FxBuildHasher>,
    stats: InternStats,
}

impl<N: Node> Default for Store<N> {
    fn default() -> Store<N> {
        Store {
            base: None,
            base_len: 0,
            nodes: Vec::new(),
            meta: Vec::new(),
            index: HashMap::default(),
            stats: InternStats::default(),
        }
    }
}

impl<N: Node> Store<N> {
    /// An overlay over `base`.
    pub fn with_base(base: Arc<Frozen<N>>) -> Store<N> {
        Store {
            base_len: base.len(),
            base: Some(base),
            ..Store::default()
        }
    }

    /// The frozen base, for an overlay.
    pub fn base(&self) -> Option<&Arc<Frozen<N>>> {
        self.base.as_ref()
    }

    /// Number of nodes in both tiers.
    pub fn len(&self) -> usize {
        self.base_len + self.nodes.len()
    }

    /// Whether no node is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes in the base (zero for a flat store).
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of nodes in the local tier.
    pub fn local_len(&self) -> usize {
        self.nodes.len()
    }

    /// Interning counters so far.
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Interns a node whose children are already interned, returning
    /// the id of its unique copy: from the base when the base holds
    /// it, locally otherwise.
    pub fn intern_node(&mut self, node: N) -> u32 {
        if let Some(base) = &self.base {
            if let Some(id) = base.slab.probe_node(&node, base.len) {
                self.stats.hits += 1;
                self.stats.base_hits += 1;
                return id;
            }
        }
        if let Some(&id) = self.index.get(&node) {
            self.stats.hits += 1;
            return id;
        }
        self.stats.misses += 1;
        let id = u32::try_from(self.len()).expect("more than u32::MAX distinct nodes");
        let meta = node.compute_meta(self);
        self.nodes.push(node);
        self.meta.push(meta);
        self.index.insert(node, id);
        id
    }

    /// The node behind `id`, from whichever tier holds it.
    pub fn node(&self, id: u32) -> N {
        let i = id as usize;
        if i < self.base_len {
            self.base
                .as_ref()
                .expect("base ids imply a base")
                .node_at(i)
        } else {
            self.nodes[i - self.base_len]
        }
    }

    /// The metadata of the node behind `id`.
    pub fn meta(&self, id: u32) -> N::Meta {
        let i = id as usize;
        if i < self.base_len {
            self.base
                .as_ref()
                .expect("base ids imply a base")
                .meta_at(i)
        } else {
            self.meta[i - self.base_len]
        }
    }

    /// Freezes the nodes, with the owner's memo rows, into a view.
    ///
    /// A flat store builds a fresh slab. An overlay appends to its
    /// base's slab under the writer lock, O(overlay), and the view
    /// extends the base. If a sibling overlay froze first, local ids
    /// are remapped bottom-up, nodes the sibling appended dedup to its
    /// rows, and the view subsumes both.
    pub fn freeze(&self, memo: impl IntoIterator<Item = (N::Key, N::Value)>) -> Frozen<N> {
        let slab = match &self.base {
            Some(base) => Arc::clone(&base.slab),
            None => Arc::new(Slab {
                nodes: AppendLog::new(),
                meta: AppendLog::new(),
                node_index: AtomicIndex::new(),
                memo: AppendLog::new(),
                memo_index: AtomicIndex::new(),
                hasher: FxBuildHasher::default(),
                writer: Mutex::new(()),
            }),
        };
        let writer = slab
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut remap: Vec<u32> = Vec::with_capacity(self.nodes.len());
        let map = |id: u32, remap: &[u32]| match (id as usize).checked_sub(self.base_len) {
            Some(local) => remap[local],
            None => id,
        };
        for (node, meta) in self.nodes.iter().zip(&self.meta) {
            let node = node.map_ids(|id| map(id, &remap));
            // Unfiltered: rows a sibling appended past our base dedup
            // instead of duplicating.
            let id = match slab.probe_node(&node, usize::MAX) {
                Some(id) => id,
                None => {
                    // Checked before the push, so a failure leaves the
                    // slab's logs in step.
                    let id = u32::try_from(slab.nodes.len()).expect("more than u32::MAX nodes");
                    slab.nodes.push(node);
                    slab.meta.push(*meta);
                    slab.node_index.insert(slab.hasher.hash_one(node), id);
                    id
                }
            };
            remap.push(id);
        }
        for row in memo {
            let (key, value) = N::map_row(row, |id| map(id, &remap));
            match slab.probe_memo(&key, usize::MAX) {
                Some(prev) => debug_assert_eq!(
                    prev, value,
                    "conflicting memo rows for {key:?}: memoized answers are pure"
                ),
                None => {
                    let row = u32::try_from(slab.memo.len()).expect("more than u32::MAX rows");
                    slab.memo.push((key, value));
                    slab.memo_index.insert(slab.hasher.hash_one(key), row);
                }
            }
        }
        let (len, memo_len) = (slab.nodes.len(), slab.memo.len());
        drop(writer);
        Frozen {
            slab,
            len,
            memo_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(BASE_CAP - 1), (0, BASE_CAP - 1));
        assert_eq!(locate(BASE_CAP), (1, 0));
        assert_eq!(locate(3 * BASE_CAP - 1), (1, 2 * BASE_CAP - 1));
        assert_eq!(locate(3 * BASE_CAP), (2, 0));
        // Consecutive indices tile the chunks with no gaps.
        let mut prev = locate(0);
        for i in 1..(BASE_CAP * 40) {
            let cur = locate(i);
            if cur.0 == prev.0 {
                assert_eq!(cur.1, prev.1 + 1, "gap inside chunk at {i}");
            } else {
                assert_eq!(cur.0, prev.0 + 1, "chunk skip at {i}");
                assert_eq!(cur.1, 0, "chunk {0} starts mid-slab", cur.0);
                assert_eq!(prev.1, BASE_CAP * (1 << prev.0) - 1);
            }
            prev = cur;
        }
    }

    #[test]
    fn append_log_round_trips_across_chunks() {
        let log = AppendLog::new();
        for i in 0..(BASE_CAP * 5) {
            assert_eq!(log.push(i * 3), i);
        }
        assert_eq!(log.len(), BASE_CAP * 5);
        for i in 0..log.len() {
            assert_eq!(*log.get(i), i * 3);
        }
    }

    #[test]
    fn index_grows_past_one_table_and_still_finds_everything() {
        let log = AppendLog::new();
        let index = AtomicIndex::new();
        let hash = |v: usize| {
            // A deliberately weak spread so probes collide.
            (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        for v in 0..(BASE_CAP * 2) {
            assert!(index.get(hash(v), |p| *log.get(p as usize) == v).is_none());
            let id = log.push(v) as u32;
            index.insert(hash(v), id);
        }
        for v in 0..(BASE_CAP * 2) {
            let found = index.get(hash(v), |p| *log.get(p as usize) == v);
            assert_eq!(found, Some(v as u32), "lost key {v}");
        }
        assert!(index.get(hash(BASE_CAP * 9), |_| true).is_none());
    }

    #[test]
    fn concurrent_readers_never_see_torn_entries() {
        let log: Arc<AppendLog<(u64, u64)>> = Arc::new(AppendLog::new());
        let index = Arc::new(AtomicIndex::new());
        const N: usize = 20_000;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                let index = Arc::clone(&index);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while seen < N {
                        let published = log.len();
                        for i in seen..published {
                            let &(a, b) = log.get(i);
                            assert_eq!(b, a ^ 0xABCD, "torn entry at {i}");
                        }
                        seen = published;
                        let probe = (seen.max(1) - 1) as u64;
                        let hash = probe.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        if let Some(p) = index.get(hash, |p| log.get(p as usize).0 == probe) {
                            assert_eq!(log.get(p as usize).0, probe);
                        }
                    }
                })
            })
            .collect();
        for v in 0..N as u64 {
            let id = log.push((v, v ^ 0xABCD)) as u32;
            index.insert(v.wrapping_mul(0x9E37_79B9_7F4A_7C15), id);
        }
        for r in readers {
            r.join().unwrap();
        }
    }
}
