//! A hash-consing arena for λS coercions, with memoized composition.
//!
//! The space-efficiency theorem makes `s # t` the hottest operation in
//! the whole system: the λS machine composes coercions on *every*
//! merged frame and every proxied value, and boundary-crossing loops
//! compose the same handful of coercions millions of times. The tree
//! representation in [`crate::coercion`] pays an O(size) clone and an
//! O(size) structural comparison each time.
//!
//! This module interns coercions instead. A [`CoercionArena`] stores
//! each distinct coercion node exactly once and hands out copyable
//! [`CoercionId`] handles, so that
//!
//! * **equality is O(1)** — two interned coercions are equal iff their
//!   ids are equal (hash-consing canonicity);
//! * **structure is shared** — a function coercion's domain and
//!   codomain are ids into the same arena, so composing deep coercions
//!   allocates only the nodes that are actually new;
//! * **composition memoizes** — a [`ComposeCache`] keyed on the id
//!   pair `(s, t)` makes every repeated composition a single hash
//!   lookup.
//!
//! The tree types remain the *exchange format*: [`CoercionArena::intern`]
//! accepts a [`SpaceCoercion`] and [`CoercionArena::resolve`] rebuilds
//! one, so the paper-facing grammar in docs and tests stays readable.
//!
//! # Interning invariants
//!
//! 1. *Canonicity*: for every arena `A` and trees `s`, `t`:
//!    `A.intern(s) == A.intern(t)` iff `s == t` (structurally). In
//!    particular interning the same coercion twice returns the same
//!    id.
//! 2. *Round trip*: `A.resolve(A.intern(s)) == s`.
//! 3. *Stability*: ids are never invalidated; an arena only grows.
//!    (Ids are **not** meaningful across arenas.)
//! 4. *Agreement*: `A.resolve(A.compose(cache, a, b))` equals
//!    `compose(&A.resolve(a), &A.resolve(b))` — the interned
//!    composition is the ten-line recursion of Figure 5, transcribed
//!    onto nodes (validated by property test).
//!
//! ```
//! use bc_core::arena::{ComposeCache, CoercionArena};
//! use bc_core::compose::compose;
//! use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
//! use bc_syntax::{BaseType, Ground, Label};
//!
//! let mut arena = CoercionArena::new();
//! let mut cache = ComposeCache::new();
//! let g = Ground::Base(BaseType::Int);
//! let inj = SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), g);
//! let proj = SpaceCoercion::proj(g, Label::new(0), Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)));
//!
//! let a = arena.intern(&inj);
//! let b = arena.intern(&proj);
//! assert_eq!(a, arena.intern(&inj)); // same coercion, same id
//!
//! let ab = arena.compose(&mut cache, a, b);
//! assert_eq!(arena.resolve(ab), compose(&inj, &proj)); // agreement
//! assert_eq!(arena.compose(&mut cache, a, b), ab);     // cache hit
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use bc_syntax::{
    AppendLog, AtomicIndex, BaseType, ClockMap, FxBuildHasher, Ground, Label, TNode, Type,
    TypeArena, TypeId,
};

use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};

/// A handle to an interned space-efficient coercion: a dense index
/// into a [`CoercionArena`]. `Copy + Eq + Hash`; equal ids denote
/// structurally equal coercions within one arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoercionId(u32);

impl CoercionId {
    /// The raw index (for metrics and debugging).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoercionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interned space-efficient coercion node — [`SpaceCoercion`] with
/// function children replaced by [`CoercionId`]s. `Copy`, so machine
/// code can match on nodes without touching the arena twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SNode {
    /// `id?`.
    IdDyn,
    /// `G?p ; i`.
    Proj(Ground, Label, INode),
    /// An intermediate coercion `i`.
    Mid(INode),
}

/// An interned intermediate coercion `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum INode {
    /// `g ; G!`.
    Inj(GNode, Ground),
    /// A ground coercion `g`.
    Ground(GNode),
    /// `⊥GpH`.
    Fail(Ground, Label, Ground),
}

/// An interned ground coercion `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GNode {
    /// `idι`.
    IdBase(BaseType),
    /// `s → t`, children interned.
    Fun(CoercionId, CoercionId),
}

/// Per-node facts computed once at interning time.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    height: u32,
    /// Implicit *tree* size of the node. u64 + saturating arithmetic:
    /// structural sharing lets the id-level `fun()` API build
    /// DAG-shaped coercions whose tree size is exponential in the
    /// number of interned nodes, which would wrap a u32.
    size: u64,
}

/// Interning counters of a [`CoercionArena`]: how much tree-walking
/// and hash-probing work the arena has absorbed, and how often it was
/// answered by an already-interned node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct coercion nodes stored (both tiers, for an overlay).
    pub nodes: usize,
    /// Tree-interning operations performed (one per [`SpaceCoercion`]
    /// node walked by [`CoercionArena::intern`]). The compiled λS term
    /// IR exists to drive this to zero at run time.
    pub tree_interns: u64,
    /// Node interns answered by the hash-consing index (node already
    /// present — in either tier).
    pub node_hits: u64,
    /// Node interns that stored a new node.
    pub node_misses: u64,
    /// The subset of [`ArenaStats::node_hits`] answered by the frozen
    /// base tier's index (always zero for an arena without a base).
    pub base_hits: u64,
}

/// The append-only concurrent storage behind every [`FrozenCoercions`]
/// view: coercion nodes, their metadata, the hash-cons index, and the
/// frozen composition pairs, in [`AppendLog`]s probed through
/// [`AtomicIndex`]es (the same primitives as the type slab in
/// `bc_syntax::slab`).
///
/// One slab serves an entire epoch lineage: freezing an overlay over a
/// view of this slab appends only the overlay's genuinely new rows
/// (O(overlay)) and returns a view with higher watermarks. Entries
/// below a published watermark are immutable and pointer-stable
/// forever; readers never lock, and the `writer` mutex only serializes
/// appenders.
struct CoercionSlab {
    nodes: AppendLog<SNode>,
    meta: AppendLog<NodeMeta>,
    node_index: AtomicIndex,
    /// The frozen composition table, as append-ordered
    /// `((s, t), s # t)` rows: eviction-free (the base tier never
    /// evicts, only grows).
    pairs: AppendLog<((CoercionId, CoercionId), CoercionId)>,
    pair_index: AtomicIndex,
    hasher: FxBuildHasher,
    /// Serializes appenders (freezes of overlays over this slab).
    writer: Mutex<()>,
}

impl CoercionSlab {
    fn new() -> CoercionSlab {
        CoercionSlab {
            nodes: AppendLog::new(),
            meta: AppendLog::new(),
            node_index: AtomicIndex::new(),
            pairs: AppendLog::new(),
            pair_index: AtomicIndex::new(),
            hasher: FxBuildHasher::default(),
            writer: Mutex::new(()),
        }
    }

    /// Lock-free hash-cons probe among slab ids below `below` (a view
    /// watermark, or `usize::MAX` for writer-side probes).
    fn probe_node(&self, node: &SNode, below: usize) -> Option<CoercionId> {
        let hash = self.hasher.hash_one(node);
        self.node_index
            .get(hash, |id| {
                (id as usize) < below && *self.nodes.get(id as usize) == *node
            })
            .map(CoercionId)
    }

    /// Lock-free composition-pair probe among rows below `below`.
    fn probe_pair(&self, key: &(CoercionId, CoercionId), below: usize) -> Option<CoercionId> {
        let hash = self.hasher.hash_one(key);
        self.pair_index
            .get(hash, |row| {
                (row as usize) < below && self.pairs.get(row as usize).0 == *key
            })
            .map(|row| self.pairs.get(row as usize).1)
    }

    /// Appends a node known to be absent (writer lock held, or slab
    /// not yet shared).
    fn append_node(&self, node: SNode, meta: NodeMeta) -> CoercionId {
        let id = self.nodes.push(node);
        self.meta.push(meta);
        self.node_index
            .insert(self.hasher.hash_one(node), id as u32);
        CoercionId(id as u32)
    }

    /// Appends a composition pair known to be absent (writer lock
    /// held, or slab not yet shared).
    fn append_pair(&self, key: (CoercionId, CoercionId), result: CoercionId) {
        let row = self.pairs.push((key, result));
        self.pair_index
            .insert(self.hasher.hash_one(key), row as u32);
    }
}

/// Maps a freezing overlay's id into slab coordinates: base ids are
/// already slab ids; local ids go through the remap table built as
/// the overlay's nodes are appended.
fn map_id(id: CoercionId, base_len: usize, remap: &[CoercionId]) -> CoercionId {
    let i = id.index();
    if i < base_len {
        id
    } else {
        remap[i - base_len]
    }
}

/// [`map_id`] pushed through a node's structure (only
/// [`GNode::Fun`] holds child ids).
fn map_node(node: SNode, base_len: usize, remap: &[CoercionId]) -> SNode {
    let mg = |g: GNode| match g {
        GNode::Fun(s, t) => GNode::Fun(map_id(s, base_len, remap), map_id(t, base_len, remap)),
        leaf => leaf,
    };
    let mi = |i: INode| match i {
        INode::Inj(g, ground) => INode::Inj(mg(g), ground),
        INode::Ground(g) => INode::Ground(mg(g)),
        fail => fail,
    };
    match node {
        SNode::IdDyn => SNode::IdDyn,
        SNode::Proj(g, p, i) => SNode::Proj(g, p, mi(i)),
        SNode::Mid(i) => SNode::Mid(mi(i)),
    }
}

/// A frozen, read-only view of a [`CoercionArena`] *and* the
/// composition pairs its [`ComposeCache`] had memoized — the shared
/// base tier of the two-tier interning scheme.
///
/// A view is a pair of **watermarks** (nodes, pair rows) over an
/// append-only concurrent slab. Freezing a flat arena
/// ([`CoercionArena::freeze`]) builds a fresh slab; freezing an
/// *overlay* **appends** its genuinely new nodes and pairs to the
/// base's slab — O(overlay), not O(base) — so the result
/// [`extends`](FrozenCoercions::extends) the base by construction and
/// superseded views stay valid forever. `Send + Sync`; readers below
/// the watermark are wait-free.
///
/// # Id-offset contract
///
/// Ids `0..len()` denote frozen nodes and mean the same coercion in
/// every overlay over this base; overlay-local ids (`>= len()`) are
/// private to the overlay that minted them. Every frozen compose pair
/// maps base ids to a base id (compositions were interned before the
/// freeze), so the pair table is sound in every overlay.
#[derive(Clone)]
pub struct FrozenCoercions {
    slab: Arc<CoercionSlab>,
    /// Nodes visible to this view: slab ids `0..nodes_mark`.
    nodes_mark: usize,
    /// Pair rows visible to this view: rows `0..pairs_mark`.
    pairs_mark: usize,
}

impl fmt::Debug for FrozenCoercions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenCoercions")
            .field("nodes", &self.nodes_mark)
            .field("pairs", &self.pairs_mark)
            .finish()
    }
}

impl FrozenCoercions {
    /// Number of frozen coercion nodes (the id offset of every
    /// overlay built over this base).
    pub fn len(&self) -> usize {
        self.nodes_mark
    }

    /// Whether the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes_mark == 0
    }

    /// Number of frozen composition pairs.
    pub fn pairs_len(&self) -> usize {
        self.pairs_mark
    }

    /// Whether this snapshot *extends* `other`: every node of `other`
    /// appears here, at the same id — the id-stability condition for
    /// hot-swapping one base for another. Freezing an overlay appends
    /// to its base's slab and never re-assigns ids, so a re-frozen
    /// overlay extends its base **by construction** and the check is
    /// O(1) (same slab, watermarks at least as high). Views over
    /// different slabs never extend each other.
    pub fn extends(&self, other: &FrozenCoercions) -> bool {
        Arc::ptr_eq(&self.slab, &other.slab)
            && other.nodes_mark <= self.nodes_mark
            && other.pairs_mark <= self.pairs_mark
    }

    /// The node behind a visible id (callers stay below `len()`).
    fn node_at(&self, i: usize) -> SNode {
        debug_assert!(i < self.nodes_mark, "read past the view watermark");
        *self.slab.nodes.get(i)
    }

    /// The metadata behind a visible id.
    fn meta_at(&self, i: usize) -> NodeMeta {
        debug_assert!(i < self.nodes_mark, "read past the view watermark");
        *self.slab.meta.get(i)
    }

    /// Hash-cons probe filtered to this view's watermark: nodes that
    /// only exist above it (appended by later freezes) read as absent,
    /// so over-watermark slab ids never leak into sessions keyed to
    /// this view.
    fn lookup_node(&self, node: &SNode) -> Option<CoercionId> {
        self.slab.probe_node(node, self.nodes_mark)
    }

    /// Composition-pair probe filtered to this view's watermark.
    fn lookup_pair(&self, key: &(CoercionId, CoercionId)) -> Option<CoercionId> {
        self.slab.probe_pair(key, self.pairs_mark)
    }
}

/// A hash-consing interner for λS coercions.
///
/// See the [module docs](self) for the interning invariants.
#[derive(Debug)]
pub struct CoercionArena {
    /// The frozen base tier, when this arena is an overlay (see
    /// [`FrozenCoercions`]); `None` for a flat arena.
    base: Option<Arc<FrozenCoercions>>,
    /// `base.len()`, cached (zero for a flat arena): the id offset of
    /// the local tier.
    base_len: usize,
    /// Local (overlay) nodes; global id = `base_len` + local index.
    nodes: Vec<SNode>,
    meta: Vec<NodeMeta>,
    /// The hash-consing index of the *local* tier (the base has its
    /// own frozen index, probed first). Fx-hashed: keys are small
    /// `Copy` nodes (discriminants plus ids), so hashing must not
    /// dominate the probe.
    index: HashMap<SNode, CoercionId, bc_syntax::FxBuildHasher>,
    stats: ArenaStats,
    /// Identity of this id-space, used to catch a [`ComposeCache`]
    /// being replayed against an arena it was not built with. A clone
    /// starts as an identical snapshot but may diverge (intern
    /// different nodes), so it gets a *fresh* generation; clone an
    /// arena together with its cache via [`CoercionArena::clone_pair`].
    generation: u64,
}

impl Clone for CoercionArena {
    fn clone(&self) -> CoercionArena {
        CoercionArena {
            base: self.base.clone(),
            base_len: self.base_len,
            nodes: self.nodes.clone(),
            meta: self.meta.clone(),
            index: self.index.clone(),
            stats: self.stats,
            // Fresh identity: the clone's id-space diverges from the
            // original as soon as either side interns something new,
            // so caches must not flow between them.
            generation: next_generation(),
        }
    }
}

fn next_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

impl Default for CoercionArena {
    fn default() -> CoercionArena {
        CoercionArena {
            base: None,
            base_len: 0,
            nodes: Vec::new(),
            meta: Vec::new(),
            index: HashMap::default(),
            stats: ArenaStats::default(),
            generation: next_generation(),
        }
    }
}

/// Hit/miss/eviction counters of a [`ComposeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compositions answered from the cache (either tier).
    pub hits: u64,
    /// Compositions computed structurally (then cached).
    pub misses: u64,
    /// Memoized pairs evicted by the second-chance policy.
    pub evictions: u64,
    /// The subset of [`CacheStats::hits`] answered by the frozen base
    /// tier's pair table (always zero for a cache without a base).
    pub base_hits: u64,
}

/// A memo table for interned composition, keyed on the id pair, with
/// size-capped **second-chance eviction**.
///
/// Kept separate from the arena so callers control its lifetime (e.g.
/// one cache per machine run, or one long-lived cache per compiled
/// program).
///
/// # Eviction
///
/// The cache holds at most [`ComposeCache::capacity`] pairs (default
/// [`ComposeCache::DEFAULT_CAPACITY`]), evicted by the shared
/// second-chance [`ClockMap`] (the same engine behind the
/// `TypeArena` verdict tables). Program coercions have bounded height
/// and therefore bounded distinct pairs, so steady-state workloads
/// never evict; the cap exists for long-lived multi-tenant servers
/// interning adversarial inputs, where the working set must not grow
/// without bound. Eviction is *safe*: a dropped pair is simply
/// recomputed (and re-cached) on next use.
///
/// A cache binds to the first arena it is used with: replaying it
/// against a *different* arena would answer lookups with ids from the
/// wrong id-space (silently wrong coercions), so
/// [`CoercionArena::compose`] panics on the mismatch instead.
#[derive(Debug, Clone)]
pub struct ComposeCache {
    /// The frozen pair table of the base tier, when this cache backs
    /// an overlay arena; consulted before the local clock. Must be
    /// the same snapshot the arena was built over (checked on every
    /// [`CoercionArena::compose`]).
    base: Option<Arc<FrozenCoercions>>,
    /// Memoized pairs behind the shared second-chance eviction engine.
    pairs: ClockMap<(CoercionId, CoercionId), CoercionId>,
    stats: CacheStats,
    /// Generation of the arena this cache's ids belong to (bound on
    /// first use).
    owner: Option<u64>,
}

impl Default for ComposeCache {
    fn default() -> ComposeCache {
        ComposeCache::with_capacity(ComposeCache::DEFAULT_CAPACITY)
    }
}

impl ComposeCache {
    /// The default pair cap: far above any bounded-height program's
    /// working set (which the λS space theorem keeps small), yet a
    /// hard ceiling on a server interning unboundedly many tenants.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// An empty cache with the default capacity.
    pub fn new() -> ComposeCache {
        ComposeCache::default()
    }

    /// An empty cache holding at most `capacity` memoized pairs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that cannot hold a single
    /// pair would make every composition a miss *and* an eviction).
    pub fn with_capacity(capacity: usize) -> ComposeCache {
        assert!(capacity > 0, "ComposeCache capacity must be at least 1");
        ComposeCache {
            base: None,
            pairs: ClockMap::with_capacity(capacity),
            stats: CacheStats::default(),
            owner: None,
        }
    }

    /// An empty cache layered over a frozen base: compositions the
    /// base had memoized are answered from its (shared, read-only)
    /// pair table; only new pairs occupy the local, size-capped
    /// clock. Use together with an arena built by
    /// [`CoercionArena::with_base`] over the *same* snapshot —
    /// [`CoercionArena::compose`] checks the pairing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_base(base: Arc<FrozenCoercions>, capacity: usize) -> ComposeCache {
        let mut cache = ComposeCache::with_capacity(capacity);
        cache.base = Some(base);
        cache
    }

    /// The maximum number of memoized pairs.
    pub fn capacity(&self) -> usize {
        self.pairs.capacity()
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.pairs.evictions(),
            ..self.stats
        }
    }

    /// Looks up a memoized pair, marking it recently used.
    fn lookup(&mut self, key: (CoercionId, CoercionId)) -> Option<CoercionId> {
        self.pairs.lookup(&key)
    }

    /// Inserts a freshly computed pair, evicting per second-chance if
    /// the cache is full (see [`ClockMap::insert`] for the admission
    /// and recursive-reinsert subtleties).
    fn insert(&mut self, key: (CoercionId, CoercionId), result: CoercionId) {
        self.pairs.insert(key, result);
    }
}

impl CoercionArena {
    /// An empty arena.
    pub fn new() -> CoercionArena {
        CoercionArena::default()
    }

    /// An overlay arena over a frozen base (fresh generation): every
    /// intern consults the shared, read-only base first and stores
    /// only genuinely new nodes locally, with ids offset past the
    /// base (see [`FrozenCoercions`] for the id-offset contract).
    /// Pair it with a cache from [`ComposeCache::with_base`] over the
    /// same snapshot.
    pub fn with_base(base: Arc<FrozenCoercions>) -> CoercionArena {
        let base_len = base.len();
        CoercionArena {
            base: Some(base),
            base_len,
            ..CoercionArena::default()
        }
    }

    /// Freezes the arena's nodes, metadata, and index — together with
    /// every composition pair `cache` has memoized — into an
    /// immutable, thread-shareable view.
    ///
    /// A flat arena builds a fresh slab. An **overlay** arena
    /// *appends* its genuinely new rows to its base's slab —
    /// O(overlay), regardless of base size — and returns a view with
    /// higher watermarks; the result
    /// [`extends`](FrozenCoercions::extends) the base by construction.
    /// Appenders over one slab serialize on its writer lock; a freeze
    /// racing a sibling's dedups against the sibling's rows.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is bound to a *different* arena (its pairs
    /// would freeze foreign ids into the snapshot).
    pub fn freeze(&self, cache: &ComposeCache) -> FrozenCoercions {
        assert!(
            cache.owner.is_none() || cache.owner == Some(self.generation),
            "CoercionArena::freeze called with a ComposeCache bound to a different arena"
        );
        match &self.base {
            None => self.freeze_flat(cache),
            Some(base) => self.freeze_append(base, cache),
        }
    }

    /// The flat arena's freeze: its nodes and memoized pairs, ids
    /// verbatim, into a fresh slab.
    fn freeze_flat(&self, cache: &ComposeCache) -> FrozenCoercions {
        let slab = CoercionSlab::new();
        for (node, meta) in self.nodes.iter().zip(&self.meta) {
            slab.append_node(*node, *meta);
        }
        for (&key, &result) in cache.pairs.iter() {
            slab.append_pair(key, result);
        }
        let nodes_mark = slab.nodes.len();
        let pairs_mark = slab.pairs.len();
        FrozenCoercions {
            slab: Arc::new(slab),
            nodes_mark,
            pairs_mark,
        }
    }

    /// The O(overlay) freeze: appends local nodes and memoized pairs
    /// to the base's slab under its writer lock. Local ids append
    /// verbatim when no sibling froze first (the promotion path);
    /// otherwise they are remapped bottom-up (children precede
    /// parents in the local tier) and deduped against sibling rows.
    fn freeze_append(&self, base: &FrozenCoercions, cache: &ComposeCache) -> FrozenCoercions {
        let slab = &base.slab;
        let _writer = slab
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut remap: Vec<CoercionId> = Vec::with_capacity(self.nodes.len());
        for (k, node) in self.nodes.iter().enumerate() {
            let mapped = map_node(*node, self.base_len, &remap);
            // Writer-side probe: unfiltered, so sibling-appended rows
            // above our base watermark dedup instead of duplicating.
            let id = match slab.probe_node(&mapped, usize::MAX) {
                Some(id) => id,
                // Metadata is id-free (heights and sizes), so the
                // session's copy is valid for the remapped node.
                None => slab.append_node(mapped, self.meta[k]),
            };
            remap.push(id);
        }
        for (&(a, b), &r) in cache.pairs.iter() {
            let key = (
                map_id(a, self.base_len, &remap),
                map_id(b, self.base_len, &remap),
            );
            let result = map_id(r, self.base_len, &remap);
            match slab.probe_pair(&key, usize::MAX) {
                // Hash-consing makes the composite's id a function of
                // the operands' structure, so a sibling's row for the
                // same pair must agree.
                Some(prev) => debug_assert_eq!(
                    prev, result,
                    "conflicting composition for {key:?}: composition is pure"
                ),
                None => slab.append_pair(key, result),
            }
        }
        FrozenCoercions {
            slab: Arc::clone(&base.slab),
            nodes_mark: slab.nodes.len(),
            pairs_mark: slab.pairs.len(),
        }
    }

    /// Number of nodes in the frozen base tier (zero for a flat
    /// arena).
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of nodes interned *locally*, past the base tier. For an
    /// overlay serving inputs the base was warmed on, this staying at
    /// zero is the base-sharing guarantee.
    pub fn local_len(&self) -> usize {
        self.nodes.len()
    }

    /// Clones this arena *together with* a cache bound to it,
    /// re-binding the cloned cache to the clone's fresh generation.
    /// This is the only supported way to duplicate a warm arena+cache
    /// pair: cloning them separately yields a pair that panics on
    /// first use (the clone has a new generation, precisely so a
    /// cache can never be replayed across diverged clones).
    ///
    /// # Panics
    ///
    /// Panics if the cache is already bound to a *different* arena —
    /// re-binding it here would launder foreign ids past the
    /// generation guard.
    pub fn clone_pair(&self, cache: &ComposeCache) -> (CoercionArena, ComposeCache) {
        assert!(
            cache.owner.is_none() || cache.owner == Some(self.generation),
            "clone_pair called with a ComposeCache bound to a different CoercionArena"
        );
        let arena = self.clone();
        let mut cache = cache.clone();
        if cache.owner.is_some() {
            cache.owner = Some(arena.generation);
        }
        (arena, cache)
    }

    /// Number of distinct coercions interned (both tiers).
    pub fn len(&self) -> usize {
        self.base_len + self.nodes.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interning and reuse counters so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.len(),
            ..self.stats
        }
    }

    /// Interns a node whose children are already interned, returning
    /// the id of the unique stored copy — from the frozen base when
    /// the node is already there, locally otherwise.
    pub fn intern_node(&mut self, node: SNode) -> CoercionId {
        if let Some(base) = &self.base {
            if let Some(id) = base.lookup_node(&node) {
                self.stats.node_hits += 1;
                self.stats.base_hits += 1;
                return id;
            }
        }
        if let Some(&id) = self.index.get(&node) {
            self.stats.node_hits += 1;
            return id;
        }
        self.stats.node_misses += 1;
        let id = CoercionId(
            u32::try_from(self.base_len + self.nodes.len())
                .expect("more than u32::MAX distinct coercions"),
        );
        let meta = self.compute_meta(&node);
        self.nodes.push(node);
        self.meta.push(meta);
        self.index.insert(node, id);
        id
    }

    /// Per-node metadata across both tiers.
    fn meta_of(&self, id: CoercionId) -> NodeMeta {
        let i = id.index();
        if i < self.base_len {
            self.base
                .as_ref()
                .expect("base ids imply a base")
                .meta_at(i)
        } else {
            self.meta[i - self.base_len]
        }
    }

    fn compute_meta(&self, node: &SNode) -> NodeMeta {
        let imeta = |i: &INode| -> NodeMeta {
            let gmeta = |g: &GNode| -> NodeMeta {
                match g {
                    GNode::IdBase(_) => NodeMeta { height: 1, size: 1 },
                    GNode::Fun(s, t) => {
                        let (ms, mt) = (self.meta_of(*s), self.meta_of(*t));
                        NodeMeta {
                            height: ms.height.max(mt.height).saturating_add(1),
                            size: ms.size.saturating_add(mt.size).saturating_add(1),
                        }
                    }
                }
            };
            match i {
                INode::Inj(g, _) => {
                    let m = gmeta(g);
                    NodeMeta {
                        height: m.height,
                        size: m.size.saturating_add(1),
                    }
                }
                INode::Ground(g) => gmeta(g),
                INode::Fail(_, _, _) => NodeMeta { height: 1, size: 1 },
            }
        };
        match node {
            SNode::IdDyn => NodeMeta { height: 1, size: 1 },
            SNode::Proj(_, _, i) => {
                let m = imeta(i);
                NodeMeta {
                    height: m.height,
                    size: m.size.saturating_add(1),
                }
            }
            SNode::Mid(i) => imeta(i),
        }
    }

    /// Interns a tree coercion (recursively interning function
    /// children), returning its canonical id.
    pub fn intern(&mut self, s: &SpaceCoercion) -> CoercionId {
        self.stats.tree_interns += 1;
        let node = match s {
            SpaceCoercion::IdDyn => SNode::IdDyn,
            SpaceCoercion::Proj(g, p, i) => SNode::Proj(*g, *p, self.intern_intermediate(i)),
            SpaceCoercion::Mid(i) => SNode::Mid(self.intern_intermediate(i)),
        };
        self.intern_node(node)
    }

    fn intern_intermediate(&mut self, i: &Intermediate) -> INode {
        match i {
            Intermediate::Inj(g, ground) => INode::Inj(self.intern_ground(g), *ground),
            Intermediate::Ground(g) => INode::Ground(self.intern_ground(g)),
            Intermediate::Fail(g, p, h) => INode::Fail(*g, *p, *h),
        }
    }

    fn intern_ground(&mut self, g: &GroundCoercion) -> GNode {
        match g {
            GroundCoercion::IdBase(b) => GNode::IdBase(*b),
            GroundCoercion::Fun(s, t) => GNode::Fun(self.intern(s), self.intern(t)),
        }
    }

    /// A shallow view of the interned node (children remain ids),
    /// consulting the frozen base tier for ids below the offset.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different arena and is out of
    /// bounds (ids are only meaningful within their own arena).
    pub fn node(&self, id: CoercionId) -> SNode {
        let i = id.index();
        if i < self.base_len {
            self.base
                .as_ref()
                .expect("base ids imply a base")
                .node_at(i)
        } else {
            self.nodes[i - self.base_len]
        }
    }

    /// Rebuilds the tree form of an interned coercion (the exchange
    /// format; see invariant 2: `resolve ∘ intern = id`).
    pub fn resolve(&self, id: CoercionId) -> SpaceCoercion {
        match self.node(id) {
            SNode::IdDyn => SpaceCoercion::IdDyn,
            SNode::Proj(g, p, i) => SpaceCoercion::Proj(g, p, self.resolve_intermediate(i)),
            SNode::Mid(i) => SpaceCoercion::Mid(self.resolve_intermediate(i)),
        }
    }

    fn resolve_intermediate(&self, i: INode) -> Intermediate {
        match i {
            INode::Inj(g, ground) => Intermediate::Inj(self.resolve_ground(g), ground),
            INode::Ground(g) => Intermediate::Ground(self.resolve_ground(g)),
            INode::Fail(g, p, h) => Intermediate::Fail(g, p, h),
        }
    }

    fn resolve_ground(&self, g: GNode) -> GroundCoercion {
        match g {
            GNode::IdBase(b) => GroundCoercion::IdBase(b),
            GNode::Fun(s, t) => {
                GroundCoercion::Fun(Rc::new(self.resolve(s)), Rc::new(self.resolve(t)))
            }
        }
    }

    // ------------------------------------------------------------------
    // Constructors (the canonical-form smart constructors, interned).
    // ------------------------------------------------------------------

    /// `id?`.
    pub fn id_dyn(&mut self) -> CoercionId {
        self.intern_node(SNode::IdDyn)
    }

    /// `idι`.
    pub fn id_base(&mut self, b: BaseType) -> CoercionId {
        self.intern_node(SNode::Mid(INode::Ground(GNode::IdBase(b))))
    }

    /// The canonical identity at an arbitrary type (`id?`, `idι`, or
    /// `id_A → id_B`).
    pub fn id(&mut self, ty: &Type) -> CoercionId {
        match ty {
            Type::Dyn => self.id_dyn(),
            Type::Base(b) => self.id_base(*b),
            Type::Fun(a, b) => {
                let dom = self.id(a);
                let cod = self.id(b);
                self.fun(dom, cod)
            }
        }
    }

    /// [`CoercionArena::id`] on an interned type: the canonical
    /// identity coercion computed directly from [`TNode`]s, with no
    /// type tree in sight.
    pub fn id_interned(&mut self, ty: TypeId, types: &TypeArena) -> CoercionId {
        match types.node(ty) {
            TNode::Dyn => self.id_dyn(),
            TNode::Base(b) => self.id_base(b),
            TNode::Fun(a, b) => {
                let dom = self.id_interned(a, types);
                let cod = self.id_interned(b, types);
                self.fun(dom, cod)
            }
        }
    }

    /// `s → t` from interned children.
    pub fn fun(&mut self, dom: CoercionId, cod: CoercionId) -> CoercionId {
        self.intern_node(SNode::Mid(INode::Ground(GNode::Fun(dom, cod))))
    }

    /// The normalised injection `|G!| = idG ; G!`.
    pub fn inj_ground(&mut self, g: Ground) -> CoercionId {
        let idg = self.ground_identity(g);
        self.intern_node(SNode::Mid(INode::Inj(idg, g)))
    }

    /// The normalised projection `|G?p| = G?p ; idG`.
    pub fn proj_ground(&mut self, g: Ground, p: Label) -> CoercionId {
        let idg = self.ground_identity(g);
        self.intern_node(SNode::Proj(g, p, INode::Ground(idg)))
    }

    /// `⊥GpH`.
    ///
    /// # Panics
    ///
    /// Panics if `G = H` (no failure between equal grounds).
    pub fn fail(&mut self, g: Ground, p: Label, h: Ground) -> CoercionId {
        assert_ne!(g, h, "⊥GpH requires G ≠ H");
        self.intern_node(SNode::Mid(INode::Fail(g, p, h)))
    }

    fn ground_identity(&mut self, g: Ground) -> GNode {
        match g {
            Ground::Base(b) => GNode::IdBase(b),
            Ground::Fun => {
                let d = self.id_dyn();
                GNode::Fun(d, d)
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-node queries (O(1) where precomputed).
    // ------------------------------------------------------------------

    /// The height `‖s‖` (precomputed; O(1)).
    pub fn height(&self, id: CoercionId) -> usize {
        self.meta_of(id).height as usize
    }

    /// The number of syntax nodes of the coercion's tree form
    /// (precomputed; O(1)). Saturates at `usize::MAX` for DAG-shaped
    /// coercions whose implicit tree would not fit in memory.
    pub fn size(&self, id: CoercionId) -> usize {
        usize::try_from(self.meta_of(id).size).unwrap_or(usize::MAX)
    }

    /// Whether the coercion is `id?` or `idι`.
    pub fn is_identity(&self, id: CoercionId) -> bool {
        matches!(
            self.node(id),
            SNode::IdDyn | SNode::Mid(INode::Ground(GNode::IdBase(_)))
        )
    }

    /// Whether the interned coercion is safe for `q` (mentions no
    /// label equal to `q`), without rebuilding the tree.
    pub fn safe_for(&self, id: CoercionId, q: Label) -> bool {
        let gsafe = |g: GNode| match g {
            GNode::IdBase(_) => true,
            GNode::Fun(s, t) => self.safe_for(s, q) && self.safe_for(t, q),
        };
        let isafe = |i: INode| match i {
            INode::Inj(g, _) => gsafe(g),
            INode::Ground(g) => gsafe(g),
            INode::Fail(_, p, _) => p != q,
        };
        match self.node(id) {
            SNode::IdDyn => true,
            SNode::Proj(_, p, i) => p != q && isafe(i),
            SNode::Mid(i) => isafe(i),
        }
    }

    // ------------------------------------------------------------------
    // Composition.
    // ------------------------------------------------------------------

    /// Composes two interned canonical coercions through the memo
    /// cache: `s # t` as a single hash lookup when the pair has been
    /// seen before, and the structural recursion of Figure 5 (caching
    /// every inner function-child composition too) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the coercions are not composable, exactly as
    /// [`crate::compose::compose`] does; this cannot happen for
    /// well-typed terms.
    pub fn compose(
        &mut self,
        cache: &mut ComposeCache,
        a: CoercionId,
        b: CoercionId,
    ) -> CoercionId {
        // The frozen tiers must be the very same snapshot: a cache
        // carrying base pairs from a different base would answer with
        // ids from the wrong id-space.
        let bases_agree = match (&self.base, &cache.base) {
            (None, None) => true,
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        };
        assert!(
            bases_agree,
            "ComposeCache and CoercionArena disagree about their frozen base: \
             build both over the same Arc<FrozenCoercions>"
        );
        match cache.owner {
            None => cache.owner = Some(self.generation),
            Some(owner) => assert_eq!(
                owner, self.generation,
                "ComposeCache replayed against a different CoercionArena: \
                 cached ids belong to another id-space"
            ),
        }
        if let Some(base) = &cache.base {
            if let Some(r) = base.lookup_pair(&(a, b)) {
                cache.stats.hits += 1;
                cache.stats.base_hits += 1;
                return r;
            }
        }
        if let Some(r) = cache.lookup((a, b)) {
            cache.stats.hits += 1;
            return r;
        }
        cache.stats.misses += 1;
        let r = match self.node(a) {
            // id? # t = t
            SNode::IdDyn => b,
            // (G?p ; i) # t = G?p ; (i # t)
            SNode::Proj(g, p, i) => {
                let i2 = self.compose_intermediate(cache, i, b);
                self.intern_node(SNode::Proj(g, p, i2))
            }
            SNode::Mid(i) => {
                let i2 = self.compose_intermediate(cache, i, b);
                self.intern_node(SNode::Mid(i2))
            }
        };
        cache.insert((a, b), r);
        r
    }

    fn compose_intermediate(&mut self, cache: &mut ComposeCache, i: INode, t: CoercionId) -> INode {
        match i {
            // ⊥GpH # s = ⊥GpH
            INode::Fail(_, _, _) => i,
            INode::Inj(g, ground) => match self.node(t) {
                // (g ; G!) # id? = g ; G!
                SNode::IdDyn => INode::Inj(g, ground),
                SNode::Proj(ground2, p, i2) => {
                    if ground == ground2 {
                        // (g ; G!) # (G?p ; i) = g # i
                        self.compose_ground_intermediate(cache, g, i2)
                    } else {
                        // (g ; G!) # (H?p ; i) = ⊥GpH   (G ≠ H)
                        INode::Fail(ground, p, ground2)
                    }
                }
                SNode::Mid(_) => {
                    unreachable!("(g ; G!) targets ?, but the right operand does not accept ?")
                }
            },
            INode::Ground(g) => match self.node(t) {
                SNode::Mid(i2) => self.compose_ground_intermediate(cache, g, i2),
                SNode::IdDyn | SNode::Proj(_, _, _) => {
                    unreachable!(
                        "ground coercion targets a non-? type, but the right operand accepts ?"
                    )
                }
            },
        }
    }

    fn compose_ground_intermediate(
        &mut self,
        cache: &mut ComposeCache,
        g: GNode,
        i: INode,
    ) -> INode {
        match i {
            // g # (h ; H!) = (g # h) ; H!
            INode::Inj(h, ground) => INode::Inj(self.compose_ground(cache, g, h), ground),
            INode::Ground(h) => INode::Ground(self.compose_ground(cache, g, h)),
            // g # ⊥GpH = ⊥GpH
            INode::Fail(_, _, _) => i,
        }
    }

    fn compose_ground(&mut self, cache: &mut ComposeCache, g: GNode, h: GNode) -> GNode {
        match (g, h) {
            // idι # idι = idι
            (GNode::IdBase(a), GNode::IdBase(b)) => {
                debug_assert_eq!(a, b, "composed identities at different base types");
                GNode::IdBase(a)
            }
            // (s → t) # (s' → t') = (s' # s) → (t # t')
            (GNode::Fun(s, t), GNode::Fun(s2, t2)) => {
                let dom = self.compose(cache, s2, s);
                let cod = self.compose(cache, t, t2);
                GNode::Fun(dom, cod)
            }
            _ => unreachable!("composed a base identity with a function coercion"),
        }
    }

    /// Composes two tree coercions through the arena: intern, cached
    /// compose, resolve. Used by callers that keep trees at rest but
    /// want memoized merging (e.g. the λS small-step `run` loop).
    pub fn compose_trees(
        &mut self,
        cache: &mut ComposeCache,
        s: &SpaceCoercion,
        t: &SpaceCoercion,
    ) -> SpaceCoercion {
        let a = self.intern(s);
        let b = self.intern(t);
        let r = self.compose(cache, a, b);
        self.resolve(r)
    }

    /// Renders an interned coercion in the paper grammar.
    pub fn display(&self, id: CoercionId) -> String {
        self.resolve(id).to_string()
    }
}

/// An arena paired with its compose cache — the state a single
/// evaluation thread carries around.
#[derive(Debug, Default)]
pub struct MergeCtx {
    /// The interner.
    pub arena: CoercionArena,
    /// The memoized composition table.
    pub cache: ComposeCache,
}

impl Clone for MergeCtx {
    fn clone(&self) -> MergeCtx {
        let (arena, cache) = self.arena.clone_pair(&self.cache);
        MergeCtx { arena, cache }
    }
}

impl MergeCtx {
    /// An empty context.
    pub fn new() -> MergeCtx {
        MergeCtx::default()
    }

    /// Memoized `s # t` on trees (see
    /// [`CoercionArena::compose_trees`]).
    pub fn merge(&mut self, s: &SpaceCoercion, t: &SpaceCoercion) -> SpaceCoercion {
        self.arena.compose_trees(&mut self.cache, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::compose;

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn gb() -> Ground {
        Ground::Base(BaseType::Bool)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }
    fn id_int() -> GroundCoercion {
        GroundCoercion::IdBase(BaseType::Int)
    }

    fn samples() -> Vec<SpaceCoercion> {
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        vec![
            SpaceCoercion::IdDyn,
            SpaceCoercion::id_base(BaseType::Int),
            inj.clone(),
            proj.clone(),
            SpaceCoercion::fun(inj.clone(), proj.clone()),
            SpaceCoercion::fun(
                SpaceCoercion::fun(proj.clone(), inj.clone()),
                SpaceCoercion::IdDyn,
            ),
            SpaceCoercion::fail(gi(), p(3), gb()),
            SpaceCoercion::proj(gi(), p(1), Intermediate::Fail(gi(), p(2), gb())),
        ]
    }

    #[test]
    fn interning_is_canonical() {
        let mut arena = CoercionArena::new();
        for s in samples() {
            let a = arena.intern(&s);
            let b = arena.intern(&s);
            assert_eq!(a, b, "same tree must intern to same id: {s}");
            assert_eq!(arena.resolve(a), s, "round trip of {s}");
        }
        // Distinct trees intern to distinct ids.
        let ids: Vec<_> = samples().iter().map(|s| arena.intern(s)).collect();
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    fn structural_sharing_dedups_children() {
        let mut arena = CoercionArena::new();
        // (id? → id?) and id? share the id? node.
        let f = SpaceCoercion::fun(SpaceCoercion::IdDyn, SpaceCoercion::IdDyn);
        arena.intern(&f);
        let n = arena.len();
        arena.intern(&SpaceCoercion::IdDyn);
        assert_eq!(arena.len(), n, "id? was already interned as a child");
    }

    #[test]
    fn metadata_matches_tree_queries() {
        let mut arena = CoercionArena::new();
        for s in samples() {
            let id = arena.intern(&s);
            assert_eq!(arena.height(id), s.height(), "height of {s}");
            assert_eq!(arena.size(id), s.size(), "size of {s}");
            assert_eq!(arena.is_identity(id), s.is_identity(), "identity of {s}");
            for q in [p(0), p(1), p(2), p(3), p(2).complement()] {
                assert_eq!(
                    arena.safe_for(id, q),
                    s.safe_for(q),
                    "safety of {s} for {q}"
                );
            }
        }
    }

    #[test]
    fn interned_compose_agrees_with_tree_compose() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let pairs = [
            (SpaceCoercion::IdDyn, proj.clone()),
            (inj.clone(), SpaceCoercion::IdDyn),
            (inj.clone(), proj.clone()),
            (
                SpaceCoercion::fun(inj.clone(), inj.clone()),
                SpaceCoercion::fun(proj.clone(), proj.clone()),
            ),
            (
                SpaceCoercion::fail(gi(), p(2), gb()),
                SpaceCoercion::id_base(BaseType::Bool),
            ),
        ];
        for (s, t) in &pairs {
            let a = arena.intern(s);
            let b = arena.intern(t);
            let ab = arena.compose(&mut cache, a, b);
            assert_eq!(
                arena.resolve(ab),
                compose(s, t),
                "interned compose of {s} # {t}"
            );
        }
    }

    #[test]
    fn compose_results_are_themselves_interned() {
        // The composite's id must be the same id interning the tree
        // composite yields — no duplicate storage.
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let a = arena.intern(&inj);
        let b = arena.intern(&proj);
        let ab = arena.compose(&mut cache, a, b);
        assert_eq!(ab, arena.intern(&compose(&inj, &proj)));
    }

    #[test]
    fn cache_memoizes_pairs() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let a = arena.intern(&SpaceCoercion::inj(id_int(), gi()));
        let b = arena.intern(&SpaceCoercion::proj(
            gi(),
            p(0),
            Intermediate::Ground(id_int()),
        ));
        let r1 = arena.compose(&mut cache, a, b);
        let misses = cache.stats().misses;
        let r2 = arena.compose(&mut cache, a, b);
        assert_eq!(r1, r2);
        assert_eq!(
            cache.stats().misses,
            misses,
            "second call must not recompute"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), misses as usize);
    }

    #[test]
    #[should_panic(expected = "different CoercionArena")]
    fn cache_rejects_a_foreign_arena() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let a = arena.intern(&SpaceCoercion::id_base(BaseType::Int));
        arena.compose(&mut cache, a, a);
        // A fresh arena has a different id-space; replaying the warm
        // cache against it must fail loudly, not answer wrongly.
        let mut other = CoercionArena::new();
        let b = other.intern(&SpaceCoercion::id_base(BaseType::Int));
        other.compose(&mut cache, b, b);
    }

    #[test]
    fn clone_pair_keeps_the_cache_valid() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let a = arena.intern(&SpaceCoercion::id_base(BaseType::Int));
        let r = arena.compose(&mut cache, a, a);
        // Cloning through clone_pair re-binds the cache to the
        // clone's generation: the pair keeps working together.
        let (mut arena2, mut cache2) = arena.clone_pair(&cache);
        assert_eq!(arena2.compose(&mut cache2, a, a), r);
        assert_eq!(cache2.stats().hits, cache.stats().hits + 1);
    }

    #[test]
    #[should_panic(expected = "bound to a different CoercionArena")]
    fn clone_pair_rejects_a_foreign_cache() {
        // A cache bound to arena B must not be re-bindable onto a
        // clone of arena A — that would launder B's ids past the
        // generation guard.
        let mut a = CoercionArena::new();
        let mut b = CoercionArena::new();
        let mut cache_b = ComposeCache::new();
        let id = b.intern(&SpaceCoercion::id_base(BaseType::Int));
        b.compose(&mut cache_b, id, id);
        a.intern(&SpaceCoercion::IdDyn);
        let _ = a.clone_pair(&cache_b);
    }

    #[test]
    #[should_panic(expected = "different CoercionArena")]
    fn cache_rejects_a_diverged_clone() {
        // The scenario the generation guard exists for: clone the
        // arena but keep the original's cache. The clone may intern
        // different nodes, so its ids need not mean the same thing;
        // mixing must fail loudly instead of resolving wrongly.
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let a = arena.intern(&SpaceCoercion::id_base(BaseType::Int));
        arena.compose(&mut cache, a, a);
        let mut clone = arena.clone();
        clone.compose(&mut cache, a, a);
    }

    #[test]
    fn dag_shaped_coercions_saturate_instead_of_overflowing() {
        // fun(x, x) doubles the implicit tree size each level; 80
        // levels is ~2^80 nodes, far beyond u64-tree territory for a
        // u32 but fine for saturating u64 metadata.
        let mut arena = CoercionArena::new();
        let mut x = arena.id_dyn();
        for _ in 0..80 {
            x = arena.fun(x, x);
        }
        assert!(arena.size(x) > 0);
        assert_eq!(arena.height(x), 81);
    }

    #[test]
    fn merge_ctx_composes_trees() {
        let mut ctx = MergeCtx::new();
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        assert_eq!(ctx.merge(&inj, &proj), compose(&inj, &proj));
        // Second merge of the same pair is answered by the cache.
        assert_eq!(ctx.merge(&inj, &proj), compose(&inj, &proj));
        assert!(ctx.cache.stats().hits >= 1);
    }

    #[test]
    fn constructors_match_normalisation() {
        let mut arena = CoercionArena::new();
        // |Int!| = idInt ; Int!
        let inj = arena.inj_ground(gi());
        assert_eq!(arena.resolve(inj), SpaceCoercion::inj(id_int(), gi()));
        // |G?p| = G?p ; idG
        let proj = arena.proj_ground(gi(), p(0));
        assert_eq!(
            arena.resolve(proj),
            SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()))
        );
        // id at a function type.
        let ii = Type::fun(Type::INT, Type::DYN);
        let idii = arena.id(&ii);
        assert_eq!(arena.resolve(idii), SpaceCoercion::id(&ii));
    }

    #[test]
    #[should_panic(expected = "⊥GpH requires G ≠ H")]
    fn fail_rejects_equal_grounds() {
        CoercionArena::new().fail(gi(), p(0), gi());
    }

    /// Builds a family of distinct identity coercions at increasingly
    /// nested function types (each composes with itself).
    fn distinct_ids(arena: &mut CoercionArena, n: usize) -> Vec<CoercionId> {
        let mut ty = Type::fun(Type::INT, Type::INT);
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(arena.id(&ty));
            ty = Type::fun(ty, Type::INT);
        }
        out
    }

    #[test]
    fn second_chance_eviction_caps_the_cache() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::with_capacity(4);
        assert_eq!(cache.capacity(), 4);
        for id in distinct_ids(&mut arena, 12) {
            arena.compose(&mut cache, id, id);
        }
        assert!(cache.len() <= 4, "cache grew to {}", cache.len());
        assert!(
            cache.stats().evictions > 0,
            "filling past capacity must evict: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn eviction_is_safe_to_recompute() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::with_capacity(2);
        let ids = distinct_ids(&mut arena, 10);
        let first = ids[0];
        let r = arena.compose(&mut cache, first, first);
        // Flush the cache with unrelated pairs…
        for id in &ids[1..] {
            arena.compose(&mut cache, *id, *id);
        }
        assert!(cache.stats().evictions > 0);
        // …then the evicted pair recomputes to the very same id.
        assert_eq!(arena.compose(&mut cache, first, first), r);
    }

    #[test]
    fn hot_pairs_mostly_survive_the_clock_sweep() {
        // Pairs chosen so each composition inserts exactly one cache
        // entry (no function recursion). A single reference bit gives
        // a hit-every-round pair a second chance at each inspection,
        // but not unconditional immunity (when every resident is
        // referenced, the sweep's wrap can still claim it): the
        // guarantee to test is that the hot pair is answered from the
        // cache for the overwhelming majority of its touches, not
        // recomputed per touch.
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::with_capacity(8);
        let inj = arena.inj_ground(gi());
        let hot_proj = arena.proj_ground(gi(), p(0));
        let rounds = 16u32;
        arena.compose(&mut cache, inj, hot_proj);
        for k in 1..=rounds {
            // Touch the hot pair between every insertion: its
            // reference bit keeps earning it second chances.
            arena.compose(&mut cache, inj, hot_proj);
            let proj = arena.proj_ground(gi(), p(k));
            arena.compose(&mut cache, inj, proj);
        }
        let stats = cache.stats();
        // Every cold pair is a miss (`rounds` of them, plus the first
        // hot compose); of the `rounds` hot touches, at most a couple
        // may fall to the wrap.
        let hot_misses = stats.misses - u64::from(rounds) - 1;
        assert!(
            hot_misses <= u64::from(rounds) / 4,
            "hot pair recomputed {hot_misses} times in {rounds} touches: {stats:?}"
        );
        assert!(stats.hits >= u64::from(rounds) - hot_misses);
        assert!(stats.evictions > 0, "cold pairs must have cycled");
    }

    #[test]
    fn new_pairs_are_admitted_to_a_hot_cache() {
        // Entries are inserted with their reference bit set, so even a
        // cache saturated with constantly-hit pairs admits a new pair
        // (it is not the sweep's immediate victim).
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::with_capacity(2);
        let inj = arena.inj_ground(gi());
        let hot1 = arena.proj_ground(gi(), p(0));
        let hot2 = arena.proj_ground(gi(), p(1));
        arena.compose(&mut cache, inj, hot1);
        arena.compose(&mut cache, inj, hot2);
        // Keep both hot, then insert a newcomer.
        arena.compose(&mut cache, inj, hot1);
        arena.compose(&mut cache, inj, hot2);
        let newcomer = arena.proj_ground(gi(), p(2));
        arena.compose(&mut cache, inj, newcomer);
        let misses = cache.stats().misses;
        arena.compose(&mut cache, inj, newcomer);
        assert_eq!(
            cache.stats().misses,
            misses,
            "the newcomer must have been admitted, not evicted on insert"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        ComposeCache::with_capacity(0);
    }

    fn _frozen_coercions_is_send_sync(f: FrozenCoercions) -> impl Send + Sync {
        f
    }

    /// A warm arena+cache over the sample coercions and their
    /// composable pairs, frozen.
    fn warm_base() -> Arc<FrozenCoercions> {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        for s in samples() {
            arena.intern(&s);
        }
        let inj = arena.intern(&SpaceCoercion::inj(id_int(), gi()));
        let proj = arena.intern(&SpaceCoercion::proj(
            gi(),
            p(0),
            Intermediate::Ground(id_int()),
        ));
        arena.compose(&mut cache, inj, proj);
        let idd = arena.id_dyn();
        arena.compose(&mut cache, idd, proj);
        Arc::new(arena.freeze(&cache))
    }

    #[test]
    fn overlay_answers_warm_inputs_entirely_from_the_base() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(Arc::clone(&base));
        assert_eq!(overlay.base_len(), base.len());
        // Re-interning the frozen trees stores nothing locally and
        // returns base ids.
        for s in samples() {
            let id = overlay.intern(&s);
            assert!(id.index() < base.len(), "{s} must resolve to a base id");
            assert_eq!(overlay.resolve(id), s, "round trip through the base");
        }
        assert_eq!(overlay.local_len(), 0, "warm inputs must intern nothing");
        assert!(overlay.stats().base_hits > 0);
        assert_eq!(overlay.stats().node_misses, 0);
    }

    #[test]
    fn overlay_compose_hits_the_frozen_pair_table() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(Arc::clone(&base));
        let mut cache = ComposeCache::with_base(Arc::clone(&base), 1 << 10);
        let a = overlay.intern(&SpaceCoercion::inj(id_int(), gi()));
        let b = overlay.intern(&SpaceCoercion::proj(
            gi(),
            p(0),
            Intermediate::Ground(id_int()),
        ));
        let r = overlay.compose(&mut cache, a, b);
        let stats = cache.stats();
        assert_eq!(stats.base_hits, 1, "the warm pair lives in the base");
        assert_eq!(stats.misses, 0);
        assert_eq!(
            overlay.resolve(r),
            compose(
                &SpaceCoercion::inj(id_int(), gi()),
                &SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()))
            )
        );
        // A pair the base never saw is computed locally (and cached
        // locally) — over operands from both tiers.
        let novel = overlay.proj_ground(gb(), p(7));
        assert!(novel.index() >= base.len(), "new node is overlay-local");
        let inj_b = overlay.inj_ground(gb());
        overlay.compose(&mut cache, inj_b, novel);
        assert!(cache.stats().misses > 0);
    }

    #[test]
    fn overlay_compose_agrees_with_flat_compose() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(Arc::clone(&base));
        let mut ocache = ComposeCache::with_base(base, 1 << 10);
        let mut flat = CoercionArena::new();
        let mut fcache = ComposeCache::new();
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let pairs = [
            (SpaceCoercion::IdDyn, proj.clone()),
            (inj.clone(), proj.clone()),
            (
                SpaceCoercion::fun(inj.clone(), inj.clone()),
                SpaceCoercion::fun(proj.clone(), proj.clone()),
            ),
        ];
        for (s, t) in &pairs {
            let (oa, ob) = (overlay.intern(s), overlay.intern(t));
            let (fa, fb) = (flat.intern(s), flat.intern(t));
            let or = overlay.compose(&mut ocache, oa, ob);
            let fr = flat.compose(&mut fcache, fa, fb);
            assert_eq!(overlay.resolve(or), flat.resolve(fr), "{s} # {t}");
        }
    }

    #[test]
    #[should_panic(expected = "disagree about their frozen base")]
    fn overlay_arena_rejects_a_flat_cache() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(base);
        let mut cache = ComposeCache::new();
        let a = overlay.intern(&SpaceCoercion::id_base(BaseType::Int));
        overlay.compose(&mut cache, a, a);
    }

    #[test]
    #[should_panic(expected = "disagree about their frozen base")]
    fn overlay_cache_rejects_a_different_base() {
        // Two separately frozen snapshots are different id-spaces even
        // if structurally identical; mixing them must fail loudly.
        let mut overlay = CoercionArena::with_base(warm_base());
        let mut cache = ComposeCache::with_base(warm_base(), 1 << 10);
        let a = overlay.intern(&SpaceCoercion::id_base(BaseType::Int));
        overlay.compose(&mut cache, a, a);
    }

    #[test]
    fn freezing_an_overlay_flattens_both_tiers() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(Arc::clone(&base));
        let mut cache = ComposeCache::with_base(Arc::clone(&base), 1 << 10);
        let novel_proj = overlay.proj_ground(gb(), p(9));
        let novel_inj = overlay.inj_ground(gb());
        let composed = overlay.compose(&mut cache, novel_inj, novel_proj);
        let refrozen = Arc::new(overlay.freeze(&cache));
        assert_eq!(refrozen.len(), overlay.len());
        assert!(refrozen.pairs_len() > base.pairs_len());

        let mut second = CoercionArena::with_base(Arc::clone(&refrozen));
        let mut second_cache = ComposeCache::with_base(refrozen, 1 << 10);
        // The overlay's local nodes are base nodes of the new
        // snapshot, and its memoized pair answers from the frozen
        // table.
        assert_eq!(second.proj_ground(gb(), p(9)), novel_proj);
        assert_eq!(second.local_len(), 0);
        assert_eq!(
            second.compose(&mut second_cache, novel_inj, novel_proj),
            composed
        );
        assert_eq!(second_cache.stats().base_hits, 1);
    }

    #[test]
    fn refreezing_an_overlay_extends_its_base() {
        let base = warm_base();
        let mut overlay = CoercionArena::with_base(Arc::clone(&base));
        let cache = ComposeCache::with_base(Arc::clone(&base), 1 << 10);
        overlay.proj_ground(gb(), p(11));
        let refrozen = overlay.freeze(&cache);
        // Appending preserves every base id verbatim, so the new
        // snapshot extends the old one (and trivially itself) — the
        // condition that lets a serving pool hot-swap `base` for
        // `refrozen` without invalidating a single outstanding id.
        assert!(refrozen.extends(&base));
        assert!(refrozen.extends(&refrozen));
        assert!(!base.extends(&refrozen), "extension is strictly larger");
        // A sibling freezing *after* refrozen appends onto the same
        // slab: freezes over one base serialize into one id space, so
        // the later view subsumes the earlier one (but not vice
        // versa).
        let mut sibling = CoercionArena::with_base(Arc::clone(&base));
        let sibling_cache = ComposeCache::with_base(Arc::clone(&base), 1 << 10);
        sibling.proj_ground(gb(), p(12));
        let other = sibling.freeze(&sibling_cache);
        assert!(other.extends(&base));
        assert!(other.extends(&refrozen), "later sibling subsumes earlier");
        assert!(!refrozen.extends(&other));
        // An unrelated flat freeze roots another slab: it never
        // extends, even with identical content.
        let unrelated = warm_base();
        assert_eq!(unrelated.len(), base.len());
        assert!(!unrelated.extends(&base), "different slab, no extension");
    }

    #[test]
    fn arena_stats_count_interning_work() {
        let mut arena = CoercionArena::new();
        assert_eq!(arena.stats(), ArenaStats::default());
        let inj = SpaceCoercion::inj(id_int(), gi());
        arena.intern(&inj);
        let s1 = arena.stats();
        assert!(s1.tree_interns >= 1);
        assert!(s1.node_misses >= 1);
        assert_eq!(s1.nodes, arena.len());
        // Re-interning walks the tree again (tree_interns grows) but
        // stores nothing new (all node hits).
        arena.intern(&inj);
        let s2 = arena.stats();
        assert!(s2.tree_interns > s1.tree_interns);
        assert_eq!(s2.node_misses, s1.node_misses);
        assert!(s2.node_hits > s1.node_hits);
        assert_eq!(s2.nodes, s1.nodes);
    }
}
