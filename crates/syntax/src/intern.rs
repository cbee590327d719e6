//! A hash-consing arena for types, with memoized relational queries.
//!
//! [`crate::types::Type`] is an `Rc` tree: every `compatible`,
//! `ground_of`, or subtyping query walks both operands and every
//! comparison is structural. That is the right *specification* — small,
//! obviously the paper's Figure 1/Figure 2 — but it makes types the
//! last tree-shaped hot path in the system: cast-heavy programs ask the
//! same handful of compatibility and subtyping questions over and over
//! (elaboration, cast insertion, translation, typing audits), paying
//! O(size) every time.
//!
//! This module interns types the same way `bc_core::arena` interns λS
//! coercions. A [`TypeArena`] stores each distinct type node exactly
//! once and hands out copyable [`TypeId`] handles, so that
//!
//! * **equality is O(1)** — two interned types are equal iff their ids
//!   are equal (hash-consing canonicity), which also makes every
//!   relational query's reflexive fast path free;
//! * **per-node facts are precomputed** — [`TypeArena::ground_of`],
//!   [`TypeArena::as_ground`], [`TypeArena::height`], and
//!   [`TypeArena::size`] are O(1) lookups computed once at interning
//!   time;
//! * **relational queries memoize** — [`TypeArena::compatible`] and the
//!   four subtyping relations of Figure 2 cache their verdict per id
//!   pair, so every repeated query is a single hash lookup.
//!
//! The tree [`Type`] remains the *exchange format*: [`TypeArena::intern`]
//! accepts a tree and [`TypeArena::resolve`] rebuilds one, and the
//! memoized relations agree with the tree implementations in
//! [`crate::types`] and [`crate::subtype`](mod@crate::subtype) by
//! construction (validated
//! by property test in `tests/type_arena_props.rs`).
//!
//! # Interning invariants
//!
//! 1. *Canonicity*: `A.intern(s) == A.intern(t)` iff `s == t`
//!    (structurally); interning the same type twice returns the same
//!    id.
//! 2. *Round trip*: `A.resolve(A.intern(t)) == t`.
//! 3. *Stability*: ids are never invalidated; an arena only grows.
//!    (Ids are **not** meaningful across arenas.)
//! 4. *Agreement*: every memoized query equals its tree specification
//!    on resolved operands.
//!
//! # Tiered interning
//!
//! For parallel serving, a warm arena can be **frozen**
//! ([`TypeArena::freeze`]) into an immutable, `Send + Sync`
//! [`FrozenTypes`] snapshot, and any number of **overlay** arenas
//! ([`TypeArena::with_base`]) layered over one `Arc` of it. An
//! overlay consults the base first on every intern and every
//! memoized query, and interns only genuinely new nodes locally,
//! with ids offset past the base — so N worker threads share one
//! warm working set and the invariants above hold per overlay (base
//! ids mean the same type in all of them).
//!
//! ```
//! use bc_syntax::{Type, TypeArena};
//!
//! let mut types = TypeArena::new();
//! let a = types.intern(&Type::fun(Type::INT, Type::DYN));
//! let b = types.intern(&Type::fun(Type::INT, Type::DYN));
//! assert_eq!(a, b); // same type, same id
//!
//! let d = types.dyn_ty();
//! assert!(types.compatible(a, d));
//! assert!(types.compatible(a, d)); // answered from the memo table
//! assert!(types.query_stats().hits >= 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

use crate::clock::ClockMap;
use crate::fxhash::FxBuildHasher;
use crate::label::Label;
use crate::slab::{AppendLog, AtomicIndex};
use crate::types::{BaseType, Ground, Type};

/// A handle to an interned type: a dense index into a [`TypeArena`].
/// `Copy + Eq + Hash`; equal ids denote structurally equal types
/// within one arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// The raw index (for metrics and debugging).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An interned type node — [`Type`] with function children replaced by
/// [`TypeId`]s. `Copy`, so consumers can match on nodes without
/// touching the arena twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TNode {
    /// A base type `ι`.
    Base(BaseType),
    /// The dynamic type `?`.
    Dyn,
    /// A function type `A → B`, children interned.
    Fun(TypeId, TypeId),
}

/// Per-node facts computed once at interning time.
#[derive(Debug, Clone, Copy)]
struct TypeMeta {
    height: u32,
    size: u64,
    /// Lemma 1: the unique ground type compatible with the node
    /// (`None` exactly for `?`).
    ground_of: Option<Ground>,
    /// Whether the node *is* a ground type (`ι` or exactly `? → ?`).
    as_ground: Option<Ground>,
}

/// Hit/miss/eviction counters for the memoized relational queries of a
/// [`TypeArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered from the memo tables (or the O(1) fast paths).
    pub hits: u64,
    /// Queries computed structurally (then memoized).
    pub misses: u64,
    /// Memoized verdicts evicted by the second-chance policy.
    pub evictions: u64,
    /// The subset of [`QueryStats::hits`] answered by the frozen base
    /// tier's verdict table (always zero for an arena without a base).
    pub base_hits: u64,
}

/// The five memoized relations — `∼` plus the four subtyping
/// relations of Figure 2 — as memo-table tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rel {
    /// Compatibility `A ∼ B` (keys canonically ordered: symmetric).
    Compat,
    /// Ordinary subtyping `A <: B`.
    Sub,
    /// Positive subtyping `A <:+ B`.
    Pos,
    /// Negative subtyping `A <:- B`.
    Neg,
    /// Naive subtyping `A <:n B`.
    Naive,
}

/// The append-only concurrent storage behind every [`FrozenTypes`]
/// view: type nodes, their metadata, the hash-cons index, and the
/// consolidated verdict table, all in [`AppendLog`]s probed through
/// [`AtomicIndex`]es.
///
/// One slab is shared by an entire epoch *lineage*: freezing an
/// overlay built over a view of this slab **appends** the overlay's
/// genuinely new rows (O(overlay)) instead of copying the base
/// (O(base)), and the resulting view is just a pair of larger
/// watermarks over the same storage. Entries below a published
/// watermark are immutable and pointer-stable forever, so superseded
/// views stay valid while newer ones grow past them. Readers never
/// lock; the `writer` mutex only serializes appenders.
struct TypeSlab {
    nodes: AppendLog<TNode>,
    meta: AppendLog<TypeMeta>,
    node_index: AtomicIndex,
    /// The consolidated verdict table, as append-ordered rows (the
    /// base tier never evicts, so it needs no clock — only an index).
    verdicts: AppendLog<((Rel, TypeId, TypeId), bool)>,
    verdict_index: AtomicIndex,
    hasher: FxBuildHasher,
    /// Serializes appenders (freezes of overlays over this slab).
    /// Readers never take it.
    writer: Mutex<()>,
}

impl TypeSlab {
    fn new() -> TypeSlab {
        TypeSlab {
            nodes: AppendLog::new(),
            meta: AppendLog::new(),
            node_index: AtomicIndex::new(),
            verdicts: AppendLog::new(),
            verdict_index: AtomicIndex::new(),
            hasher: FxBuildHasher::default(),
            writer: Mutex::new(()),
        }
    }

    /// Lock-free hash-cons probe for `node` among slab ids below
    /// `below` (a watermark, or `usize::MAX` for a writer-side probe
    /// that must see everything).
    fn probe_node(&self, node: &TNode, below: usize) -> Option<TypeId> {
        let hash = self.hasher.hash_one(node);
        self.node_index
            .get(hash, |id| {
                (id as usize) < below && *self.nodes.get(id as usize) == *node
            })
            .map(TypeId)
    }

    /// Lock-free verdict probe among rows below `below`.
    fn probe_verdict(&self, key: &(Rel, TypeId, TypeId), below: usize) -> Option<bool> {
        let hash = self.hasher.hash_one(key);
        self.verdict_index
            .get(hash, |row| {
                (row as usize) < below && self.verdicts.get(row as usize).0 == *key
            })
            .map(|row| self.verdicts.get(row as usize).1)
    }

    /// Appends a node known to be absent (writer lock held, or slab
    /// not yet shared). The entry is fully written before its index
    /// slot publishes, per the [`crate::slab`] ordering contract.
    fn append_node(&self, node: TNode, meta: TypeMeta) -> TypeId {
        let id = self.nodes.push(node);
        self.meta.push(meta);
        self.node_index
            .insert(self.hasher.hash_one(node), id as u32);
        TypeId(id as u32)
    }

    /// Appends a verdict row known to be absent (writer lock held, or
    /// slab not yet shared).
    fn append_verdict(&self, key: (Rel, TypeId, TypeId), verdict: bool) {
        let row = self.verdicts.push((key, verdict));
        self.verdict_index
            .insert(self.hasher.hash_one(key), row as u32);
    }
}

/// A frozen, read-only view of a [`TypeArena`] — the shared base tier
/// of the two-tier interning scheme.
///
/// A view is a pair of **watermarks** (nodes, verdict rows) over an
/// append-only concurrent slab. Freezing a warm flat arena
/// ([`TypeArena::freeze`]) builds a fresh slab; freezing an *overlay*
/// **appends** the overlay's genuinely new nodes and verdicts to its
/// base's slab — O(overlay), not O(base) — and returns a view with
/// higher watermarks over the same storage. Ids are never re-assigned,
/// so the new view [`extends`](FrozenTypes::extends) the old one by
/// construction, and views superseded by later freezes stay valid
/// forever (their entries are immutable and pointer-stable below their
/// watermarks). The view is `Send + Sync`; readers below the watermark
/// are wait-free (no locks — an atomic-word index probe plus a chunked
/// log load).
///
/// # Id-offset contract
///
/// Ids `0..len()` denote the frozen nodes and mean the same thing in
/// *every* overlay built over this base (and in the arena that was
/// frozen). Ids `>= len()` are overlay-local: each overlay mints its
/// own, so they are only meaningful within the overlay that created
/// them — exactly the pre-existing "ids are not meaningful across
/// arenas" rule, restricted to the local tier.
#[derive(Clone)]
pub struct FrozenTypes {
    slab: Arc<TypeSlab>,
    /// Nodes visible to this view: slab ids `0..nodes_mark`.
    nodes_mark: usize,
    /// Verdict rows visible to this view: rows `0..verdicts_mark`.
    verdicts_mark: usize,
}

impl fmt::Debug for FrozenTypes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenTypes")
            .field("nodes", &self.nodes_mark)
            .field("verdicts", &self.verdicts_mark)
            .finish()
    }
}

impl FrozenTypes {
    /// Number of frozen type nodes (the id-offset of every overlay
    /// built over this base).
    pub fn len(&self) -> usize {
        self.nodes_mark
    }

    /// Whether the snapshot holds no nodes (never true: the leaf
    /// types are pre-interned in every arena).
    pub fn is_empty(&self) -> bool {
        self.nodes_mark == 0
    }

    /// Number of frozen relational verdicts.
    pub fn verdicts_len(&self) -> usize {
        self.verdicts_mark
    }

    /// Whether this snapshot *extends* `other`: every node of `other`
    /// appears here, at the same id. This is the id-stability
    /// condition for hot-swapping bases. Because freezing an overlay
    /// appends to its base's slab and ids are never re-assigned, a
    /// re-frozen overlay extends its base **by construction**; the
    /// check is O(1) — same slab, watermarks at least as high —
    /// instead of the prefix comparison the clone-based design needed.
    /// Views over different slabs (independent freeze lineages) never
    /// extend each other.
    pub fn extends(&self, other: &FrozenTypes) -> bool {
        Arc::ptr_eq(&self.slab, &other.slab)
            && other.nodes_mark <= self.nodes_mark
            && other.verdicts_mark <= self.verdicts_mark
    }

    /// The node behind a visible id (callers stay below `len()`).
    fn node_at(&self, i: usize) -> TNode {
        debug_assert!(i < self.nodes_mark, "read past the view watermark");
        *self.slab.nodes.get(i)
    }

    /// The metadata behind a visible id.
    fn meta_at(&self, i: usize) -> TypeMeta {
        debug_assert!(i < self.nodes_mark, "read past the view watermark");
        *self.slab.meta.get(i)
    }

    /// Hash-cons probe filtered to this view's watermark: a node that
    /// only exists above it (appended by a later freeze) reads as
    /// absent, so overlays intern it locally — over-watermark slab
    /// ids must never leak into a session keyed to this view.
    fn lookup_node(&self, node: &TNode) -> Option<TypeId> {
        self.slab.probe_node(node, self.nodes_mark)
    }

    /// Verdict probe filtered to this view's watermark.
    fn lookup_verdict(&self, key: &(Rel, TypeId, TypeId)) -> Option<bool> {
        self.slab.probe_verdict(key, self.verdicts_mark)
    }
}

/// A hash-consing interner for types, with memoized `compatible` and
/// subtyping queries.
///
/// See the [module docs](self) for the interning invariants. Unlike
/// the coercion arena's `ComposeCache` (in `bc_core::arena`), the
/// memo tables live *inside* the arena — they hold only booleans, so
/// there is no foreign-id hazard to guard against and no reason to let
/// callers manage their lifetime separately.
///
/// # Verdict eviction
///
/// The verdict table holds at most [`TypeArena::memo_capacity`]
/// entries (default [`TypeArena::DEFAULT_MEMO_CAPACITY`]), evicted by
/// the same second-chance [`ClockMap`] the coercion `ComposeCache`
/// uses. Verdicts are recompute-safe booleans, so eviction can never
/// change an answer — it only turns a would-be hit into a
/// recomputation. Single-program workloads ask O(program types²)
/// distinct questions and never evict; the cap protects a long-lived
/// multi-tenant session from unbounded O(n²) pair growth across five
/// relations.
#[derive(Debug, Clone)]
pub struct TypeArena {
    /// The frozen base tier, when this arena is an overlay: a shared,
    /// read-only snapshot consulted before the local tier on every
    /// intern and every memoized query. `None` for a flat arena.
    base: Option<Arc<FrozenTypes>>,
    /// `base.len()`, cached (zero for a flat arena): the id offset of
    /// the local tier.
    base_len: usize,
    /// Local (overlay) nodes; global id = `base_len` + local index.
    nodes: Vec<TNode>,
    meta: Vec<TypeMeta>,
    /// The hash-consing index of the *local* tier (the base has its
    /// own frozen index, probed first). Fx-hashed: keys are one
    /// discriminant plus at most two u32 ids, so hashing must not
    /// dominate the probe (interning a type walks this map once per
    /// node).
    index: HashMap<TNode, TypeId, FxBuildHasher>,
    /// Memoized verdicts of all five relations, tagged by [`Rel`]
    /// (compatibility keys are stored with `a <= b`: the relation is
    /// symmetric, so one entry serves both orders), behind the shared
    /// second-chance eviction engine.
    memo: ClockMap<(Rel, TypeId, TypeId), bool>,
    stats: QueryStats,
    /// Node interns answered by the frozen base index.
    base_node_hits: u64,
}

impl Default for TypeArena {
    fn default() -> TypeArena {
        TypeArena::with_memo_capacity(TypeArena::DEFAULT_MEMO_CAPACITY)
    }
}

impl TypeArena {
    /// The default verdict cap: far above any single program's working
    /// set, yet a hard ceiling on a server answering subtyping
    /// questions for unboundedly many tenants.
    pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

    /// An empty arena (with the leaf types `?`, `Int`, `Bool`
    /// pre-interned).
    pub fn new() -> TypeArena {
        TypeArena::default()
    }

    /// An empty arena whose verdict tables hold at most `capacity`
    /// memoized entries (across all five relations).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a table that cannot hold a single
    /// verdict would make every query a miss *and* an eviction).
    pub fn with_memo_capacity(capacity: usize) -> TypeArena {
        let mut arena = TypeArena {
            base: None,
            base_len: 0,
            nodes: Vec::new(),
            meta: Vec::new(),
            index: HashMap::default(),
            memo: ClockMap::with_capacity(capacity),
            stats: QueryStats::default(),
            base_node_hits: 0,
        };
        // Pre-intern the leaves every program mentions, so the common
        // constructors below are pure lookups.
        arena.intern_node(TNode::Dyn);
        arena.intern_node(TNode::Base(BaseType::Int));
        arena.intern_node(TNode::Base(BaseType::Bool));
        arena
    }

    /// An overlay arena over a frozen base: every intern and every
    /// memoized query consults the (shared, read-only) base first and
    /// touches local state only for genuinely new nodes or verdicts,
    /// whose ids are offset past the base (see [`FrozenTypes`] for
    /// the id-offset contract). The leaves need no re-interning: they
    /// live in the base of every frozen arena.
    ///
    /// # Panics
    ///
    /// Panics if `memo_capacity` is zero.
    pub fn with_base(base: Arc<FrozenTypes>, memo_capacity: usize) -> TypeArena {
        let base_len = base.len();
        TypeArena {
            base: Some(base),
            base_len,
            nodes: Vec::new(),
            meta: Vec::new(),
            index: HashMap::default(),
            memo: ClockMap::with_capacity(memo_capacity),
            stats: QueryStats::default(),
            base_node_hits: 0,
        }
    }

    /// Freezes the arena's current state — nodes, metadata, index,
    /// and every memoized verdict — into an immutable, thread-shareable
    /// view.
    ///
    /// A flat arena builds a fresh slab. An **overlay** arena
    /// *appends* its genuinely new rows to its base's slab —
    /// O(overlay), regardless of base size — and returns a view with
    /// higher watermarks over the same storage; the result
    /// [`extends`](FrozenTypes::extends) the base by construction.
    /// Appenders over one slab serialize on the slab's writer lock;
    /// if a sibling overlay froze first, this freeze dedups against
    /// the sibling's rows (the slab stays hash-consed), and the
    /// resulting view subsumes both.
    pub fn freeze(&self) -> FrozenTypes {
        match &self.base {
            None => self.freeze_flat(),
            Some(base) => self.freeze_append(base),
        }
    }

    /// The flat arena's freeze: its nodes and memoized verdicts, ids
    /// verbatim, into a fresh slab.
    fn freeze_flat(&self) -> FrozenTypes {
        let slab = TypeSlab::new();
        for (node, meta) in self.nodes.iter().zip(&self.meta) {
            slab.append_node(*node, *meta);
        }
        for (&key, &verdict) in self.memo.iter() {
            slab.append_verdict(key, verdict);
        }
        let nodes_mark = slab.nodes.len();
        let verdicts_mark = slab.verdicts.len();
        FrozenTypes {
            slab: Arc::new(slab),
            nodes_mark,
            verdicts_mark,
        }
    }

    /// The O(overlay) freeze: appends this overlay's local nodes and
    /// memoized verdicts to the base's slab (holding its writer lock)
    /// and returns a view whose watermarks cover the appended rows.
    ///
    /// If no sibling grew the slab first, local ids are appended
    /// verbatim (the common, promotion path). Otherwise local rows are
    /// *remapped*: children rewritten through the ids their own
    /// append produced (locals intern bottom-up, so children precede
    /// parents), nodes deduped against rows a sibling already
    /// appended, and symmetric compatibility keys re-canonicalized
    /// under the new ids.
    fn freeze_append(&self, base: &FrozenTypes) -> FrozenTypes {
        let slab = &base.slab;
        let _writer = slab
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut remap: Vec<TypeId> = Vec::with_capacity(self.nodes.len());
        let map = |id: TypeId, remap: &[TypeId]| -> TypeId {
            let i = id.index();
            if i < self.base_len {
                id
            } else {
                remap[i - self.base_len]
            }
        };
        for (k, node) in self.nodes.iter().enumerate() {
            let mapped = match *node {
                TNode::Fun(a, b) => TNode::Fun(map(a, &remap), map(b, &remap)),
                leaf => leaf,
            };
            // Writer-side probe: unfiltered, so sibling-appended rows
            // above our base watermark dedup instead of duplicating.
            let id = match slab.probe_node(&mapped, usize::MAX) {
                Some(id) => id,
                // Metadata is id-free (heights, sizes, groundings), so
                // the session's copy is valid for the remapped node.
                None => slab.append_node(mapped, self.meta[k]),
            };
            remap.push(id);
        }
        for (&(rel, a, b), &verdict) in self.memo.iter() {
            let (ma, mb) = (map(a, &remap), map(b, &remap));
            // Compatibility keys are stored canonically ordered; the
            // remap can flip the order of a mixed-tier pair.
            let key = if rel == Rel::Compat && ma > mb {
                (rel, mb, ma)
            } else {
                (rel, ma, mb)
            };
            match slab.probe_verdict(&key, usize::MAX) {
                Some(prev) => debug_assert_eq!(
                    prev, verdict,
                    "conflicting verdict for {key:?}: relations are pure"
                ),
                None => slab.append_verdict(key, verdict),
            }
        }
        FrozenTypes {
            slab: Arc::clone(&base.slab),
            nodes_mark: slab.nodes.len(),
            verdicts_mark: slab.verdicts.len(),
        }
    }

    /// Number of distinct type nodes interned (both tiers).
    pub fn len(&self) -> usize {
        self.base_len + self.nodes.len()
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

    /// Node interns answered by the frozen base index.
    pub fn base_node_hits(&self) -> u64 {
        self.base_node_hits
    }

    /// Whether nothing has been interned (never true: the leaf types
    /// are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters of the memoized relational queries.
    pub fn query_stats(&self) -> QueryStats {
        QueryStats {
            evictions: self.memo.evictions(),
            ..self.stats
        }
    }

    /// Number of memoized relational verdicts currently stored.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The maximum number of memoized verdicts.
    pub fn memo_capacity(&self) -> usize {
        self.memo.capacity()
    }

    /// Interns a node whose children are already interned, returning
    /// the id of the unique stored copy — from the frozen base when
    /// the node is already there, locally otherwise.
    pub fn intern_node(&mut self, node: TNode) -> TypeId {
        if let Some(base) = &self.base {
            if let Some(id) = base.lookup_node(&node) {
                self.base_node_hits += 1;
                return id;
            }
        }
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = TypeId(
            u32::try_from(self.base_len + self.nodes.len())
                .expect("more than u32::MAX distinct types"),
        );
        let meta = self.compute_meta(&node);
        self.nodes.push(node);
        self.meta.push(meta);
        self.index.insert(node, id);
        id
    }

    /// Per-node metadata across both tiers.
    fn meta_of(&self, id: TypeId) -> TypeMeta {
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

    fn compute_meta(&self, node: &TNode) -> TypeMeta {
        match node {
            TNode::Base(b) => TypeMeta {
                height: 1,
                size: 1,
                ground_of: Some(Ground::Base(*b)),
                as_ground: Some(Ground::Base(*b)),
            },
            TNode::Dyn => TypeMeta {
                height: 1,
                size: 1,
                ground_of: None,
                as_ground: None,
            },
            TNode::Fun(a, b) => {
                let (ma, mb) = (self.meta_of(*a), self.meta_of(*b));
                TypeMeta {
                    height: ma.height.max(mb.height).saturating_add(1),
                    size: ma.size.saturating_add(mb.size).saturating_add(1),
                    ground_of: Some(Ground::Fun),
                    as_ground: if self.node(*a) == TNode::Dyn && self.node(*b) == TNode::Dyn {
                        Some(Ground::Fun)
                    } else {
                        None
                    },
                }
            }
        }
    }

    /// Interns a tree type (recursively interning function children),
    /// returning its canonical id.
    pub fn intern(&mut self, ty: &Type) -> TypeId {
        let node = match ty {
            Type::Base(b) => TNode::Base(*b),
            Type::Dyn => TNode::Dyn,
            Type::Fun(a, b) => {
                let dom = self.intern(a);
                let cod = self.intern(b);
                TNode::Fun(dom, cod)
            }
        };
        self.intern_node(node)
    }

    /// A shallow view of the interned node (children remain ids),
    /// consulting the frozen base tier for ids below the offset.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different arena and is out of
    /// bounds (ids are only meaningful within their own arena).
    pub fn node(&self, id: TypeId) -> TNode {
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

    /// Rebuilds the tree form of an interned type (the exchange
    /// format; invariant 2: `resolve ∘ intern = id`).
    pub fn resolve(&self, id: TypeId) -> Type {
        match self.node(id) {
            TNode::Base(b) => Type::Base(b),
            TNode::Dyn => Type::Dyn,
            TNode::Fun(a, b) => Type::fun(self.resolve(a), self.resolve(b)),
        }
    }

    /// The join (least upper bound with respect to precision `<:n`) of
    /// two consistent types; `None` iff the types are incompatible.
    /// Hash-consing canonicity makes the reflexive case O(1); the
    /// recursion interns only nodes the join actually introduces.
    pub fn join(&mut self, a: TypeId, b: TypeId) -> Option<TypeId> {
        if a == b {
            return Some(a);
        }
        match (self.node(a), self.node(b)) {
            (TNode::Dyn, _) | (_, TNode::Dyn) => Some(self.dyn_ty()),
            (TNode::Base(x), TNode::Base(y)) => (x == y).then_some(a),
            (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                let dom = self.join(a1, b1)?;
                let cod = self.join(a2, b2)?;
                Some(self.fun(dom, cod))
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Constructors.
    // ------------------------------------------------------------------

    /// The dynamic type `?`.
    pub fn dyn_ty(&mut self) -> TypeId {
        self.intern_node(TNode::Dyn)
    }

    /// A base type `ι`.
    pub fn base(&mut self, b: BaseType) -> TypeId {
        self.intern_node(TNode::Base(b))
    }

    /// The function type `dom → cod` from interned children.
    pub fn fun(&mut self, dom: TypeId, cod: TypeId) -> TypeId {
        self.intern_node(TNode::Fun(dom, cod))
    }

    /// The ground type `G` viewed as an interned type.
    pub fn ground(&mut self, g: Ground) -> TypeId {
        match g {
            Ground::Base(b) => self.base(b),
            Ground::Fun => {
                let d = self.dyn_ty();
                self.fun(d, d)
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-node queries (O(1), precomputed at interning time).
    // ------------------------------------------------------------------

    /// The height of the type (precomputed; O(1)).
    pub fn height(&self, id: TypeId) -> usize {
        self.meta_of(id).height as usize
    }

    /// The number of syntax nodes of the type's tree form
    /// (precomputed; O(1)). Saturates for DAG-shaped types built via
    /// the id-level [`TypeArena::fun`] constructor.
    pub fn size(&self, id: TypeId) -> usize {
        usize::try_from(self.meta_of(id).size).unwrap_or(usize::MAX)
    }

    /// Whether the type is the dynamic type `?` (O(1)).
    pub fn is_dyn(&self, id: TypeId) -> bool {
        matches!(self.node(id), TNode::Dyn)
    }

    /// The unique ground type compatible with the type, per Lemma 1
    /// (precomputed; O(1)). `None` exactly when the type is `?`.
    pub fn ground_of(&self, id: TypeId) -> Option<Ground> {
        self.meta_of(id).ground_of
    }

    /// `Some(G)` when the type *is* the ground type `G` (precomputed;
    /// O(1)); contrast with [`TypeArena::ground_of`].
    pub fn as_ground(&self, id: TypeId) -> Option<Ground> {
        self.meta_of(id).as_ground
    }

    /// Whether the type is a ground type (O(1)).
    pub fn is_ground(&self, id: TypeId) -> bool {
        self.as_ground(id).is_some()
    }

    // ------------------------------------------------------------------
    // Memoized relational queries.
    // ------------------------------------------------------------------

    /// Compatibility `A ∼ B` (Figure 1), memoized per id pair.
    ///
    /// Hash-consing canonicity gives the reflexive case (`a == b`) for
    /// free; every other repeated query is one hash lookup.
    pub fn compatible(&mut self, a: TypeId, b: TypeId) -> bool {
        // Reflexivity and the ?-absorbing rules need no table.
        if a == b || self.is_dyn(a) || self.is_dyn(b) {
            self.stats.hits += 1;
            return true;
        }
        // Compatibility is symmetric: canonicalise the key order.
        let key = if a <= b {
            (Rel::Compat, a, b)
        } else {
            (Rel::Compat, b, a)
        };
        if let Some(r) = self.base_verdict(&key) {
            return r;
        }
        if let Some(r) = self.memo.lookup(&key) {
            self.stats.hits += 1;
            return r;
        }
        self.stats.misses += 1;
        let r = match (self.node(a), self.node(b)) {
            (TNode::Base(x), TNode::Base(y)) => x == y,
            (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                self.compatible(a1, b1) && self.compatible(a2, b2)
            }
            _ => false,
        };
        self.memo.insert(key, r);
        r
    }

    /// Ordinary subtyping `A <: B` (Figure 2), memoized per id pair.
    pub fn subtype(&mut self, a: TypeId, b: TypeId) -> bool {
        self.rel(Rel::Sub, a, b)
    }

    /// Positive subtyping `A <:+ B`, memoized per id pair.
    pub fn pos_subtype(&mut self, a: TypeId, b: TypeId) -> bool {
        self.rel(Rel::Pos, a, b)
    }

    /// Negative subtyping `A <:- B`, memoized per id pair.
    pub fn neg_subtype(&mut self, a: TypeId, b: TypeId) -> bool {
        self.rel(Rel::Neg, a, b)
    }

    /// Naive subtyping `A <:n B`, memoized per id pair.
    pub fn naive_subtype(&mut self, a: TypeId, b: TypeId) -> bool {
        self.rel(Rel::Naive, a, b)
    }

    /// Whether the cast `A ⇒p B` is safe for blame label `q`
    /// (Figure 2), through the memoized positive/negative relations.
    pub fn cast_safe_for(&mut self, a: TypeId, p: Label, b: TypeId, q: Label) -> bool {
        if p.is_bullet() {
            return true;
        }
        if p != q && p.complement() != q {
            return true;
        }
        if q == p && self.pos_subtype(a, b) {
            return true;
        }
        q == p.complement() && self.neg_subtype(a, b)
    }

    /// A verdict answered by the frozen base tier, if there is one
    /// (counting it as a hit).
    fn base_verdict(&mut self, key: &(Rel, TypeId, TypeId)) -> Option<bool> {
        let r = self.base.as_ref()?.lookup_verdict(key)?;
        self.stats.hits += 1;
        self.stats.base_hits += 1;
        Some(r)
    }

    fn rel(&mut self, rel: Rel, a: TypeId, b: TypeId) -> bool {
        // All four relations are reflexive; O(1) id equality makes
        // that the free fast path.
        if a == b {
            self.stats.hits += 1;
            return true;
        }
        if let Some(r) = self.base_verdict(&(rel, a, b)) {
            return r;
        }
        if let Some(r) = self.memo.lookup(&(rel, a, b)) {
            self.stats.hits += 1;
            return r;
        }
        self.stats.misses += 1;
        let r = self.rel_uncached(rel, a, b);
        self.memo.insert((rel, a, b), r);
        r
    }

    /// The Figure-2 rules, transcribed onto nodes. Each relation's
    /// structure mirrors its tree implementation in [`crate::subtype`]
    /// exactly (agreement is validated by property test); recursive
    /// premises go back through [`TypeArena::rel`] so inner pairs
    /// memoize too.
    fn rel_uncached(&mut self, rel: Rel, a: TypeId, b: TypeId) -> bool {
        let (na, nb) = (self.node(a), self.node(b));
        match rel {
            Rel::Compat => unreachable!("compatibility goes through TypeArena::compatible"),
            Rel::Sub => match (na, nb) {
                (TNode::Base(x), TNode::Base(y)) => x == y,
                (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                    self.rel(Rel::Sub, b1, a1) && self.rel(Rel::Sub, a2, b2)
                }
                (TNode::Dyn, TNode::Dyn) => true,
                (_, TNode::Dyn) => match self.ground_of(a) {
                    Some(g) => {
                        let gid = self.ground(g);
                        self.rel(Rel::Sub, a, gid)
                    }
                    None => false,
                },
                _ => false,
            },
            Rel::Pos => match (na, nb) {
                (_, TNode::Dyn) => true,
                (TNode::Base(x), TNode::Base(y)) => x == y,
                (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                    self.rel(Rel::Neg, b1, a1) && self.rel(Rel::Pos, a2, b2)
                }
                _ => false,
            },
            Rel::Neg => match (na, nb) {
                (TNode::Dyn, _) => true,
                (TNode::Base(x), TNode::Base(y)) => x == y,
                (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                    self.rel(Rel::Pos, b1, a1) && self.rel(Rel::Neg, a2, b2)
                }
                (_, TNode::Dyn) => match self.ground_of(a) {
                    Some(g) => {
                        let gid = self.ground(g);
                        self.rel(Rel::Neg, a, gid)
                    }
                    None => unreachable!("Dyn handled above"),
                },
                _ => false,
            },
            Rel::Naive => match (na, nb) {
                (_, TNode::Dyn) => true,
                (TNode::Base(x), TNode::Base(y)) => x == y,
                (TNode::Fun(a1, a2), TNode::Fun(b1, b2)) => {
                    self.rel(Rel::Naive, a1, b1) && self.rel(Rel::Naive, a2, b2)
                }
                _ => false,
            },
        }
    }

    /// Renders an interned type in the paper grammar.
    pub fn display(&self, id: TypeId) -> String {
        self.resolve(id).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtype;
    use crate::subtype::sample_types;

    #[test]
    fn interning_is_canonical() {
        let mut arena = TypeArena::new();
        for t in sample_types(2) {
            let a = arena.intern(&t);
            let b = arena.intern(&t);
            assert_eq!(a, b, "same tree must intern to same id: {t}");
            assert_eq!(arena.resolve(a), t, "round trip of {t}");
        }
        let samples = sample_types(1);
        let ids: Vec<_> = samples.iter().map(|t| arena.intern(t)).collect();
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                assert_eq!(a == b, i == j, "{} vs {}", samples[i], samples[j]);
            }
        }
    }

    #[test]
    fn structural_sharing_dedups_children() {
        let mut arena = TypeArena::new();
        let n = arena.len();
        arena.intern(&Type::fun(Type::INT, Type::INT));
        // Int was pre-interned; only the Fun node is new.
        assert_eq!(arena.len(), n + 1);
    }

    #[test]
    fn metadata_matches_tree_queries() {
        let mut arena = TypeArena::new();
        for t in sample_types(2) {
            let id = arena.intern(&t);
            assert_eq!(arena.height(id), t.height(), "height of {t}");
            assert_eq!(arena.size(id), t.size(), "size of {t}");
            assert_eq!(arena.ground_of(id), t.ground_of(), "ground_of {t}");
            assert_eq!(arena.as_ground(id), t.as_ground(), "as_ground {t}");
            assert_eq!(arena.is_dyn(id), t.is_dyn(), "is_dyn {t}");
        }
    }

    #[test]
    fn memoized_relations_agree_with_tree_relations() {
        let mut arena = TypeArena::new();
        let u = sample_types(1);
        for a in &u {
            for b in &u {
                let (ia, ib) = (arena.intern(a), arena.intern(b));
                assert_eq!(arena.compatible(ia, ib), a.compatible(b), "{a} ∼ {b}");
                assert_eq!(arena.subtype(ia, ib), subtype::subtype(a, b), "{a} <: {b}");
                assert_eq!(
                    arena.pos_subtype(ia, ib),
                    subtype::pos_subtype(a, b),
                    "{a} <:+ {b}"
                );
                assert_eq!(
                    arena.neg_subtype(ia, ib),
                    subtype::neg_subtype(a, b),
                    "{a} <:- {b}"
                );
                assert_eq!(
                    arena.naive_subtype(ia, ib),
                    subtype::naive_subtype(a, b),
                    "{a} <:n {b}"
                );
            }
        }
    }

    #[test]
    fn repeated_queries_hit_the_memo_table() {
        let mut arena = TypeArena::new();
        let a = arena.intern(&Type::fun(Type::INT, Type::DYN));
        let b = arena.intern(&Type::fun(Type::INT, Type::BOOL));
        assert!(arena.compatible(a, b));
        let misses = arena.query_stats().misses;
        // Same question (either order: compatibility is symmetric) is
        // answered from the table.
        assert!(arena.compatible(b, a));
        assert_eq!(arena.query_stats().misses, misses);
        assert!(arena.query_stats().hits >= 1);
        // Subtyping memoizes per-direction.
        arena.subtype(a, b);
        let misses = arena.query_stats().misses;
        arena.subtype(a, b);
        assert_eq!(arena.query_stats().misses, misses);
    }

    #[test]
    fn cast_safety_agrees_with_tree_implementation() {
        let mut arena = TypeArena::new();
        let u = sample_types(1);
        let labels = [Label::new(0), Label::new(0).complement(), Label::new(1)];
        for a in &u {
            for b in &u {
                let (ia, ib) = (arena.intern(a), arena.intern(b));
                for p in labels {
                    for q in labels {
                        assert_eq!(
                            arena.cast_safe_for(ia, p, ib, q),
                            subtype::cast_safe_for(a, p, b, q),
                            "safety of {a} ⇒{p} {b} for {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_matches_tree_display() {
        let mut arena = TypeArena::new();
        let t = Type::fun(Type::fun(Type::DYN, Type::INT), Type::BOOL);
        let id = arena.intern(&t);
        assert_eq!(arena.display(id), t.to_string());
    }

    /// A family of distinct function types (each asks a fresh verdict
    /// question against `Int`).
    fn distinct_funs(arena: &mut TypeArena, n: usize) -> Vec<TypeId> {
        let mut ty = Type::fun(Type::INT, Type::INT);
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(arena.intern(&ty));
            ty = Type::fun(ty, Type::INT);
        }
        out
    }

    #[test]
    fn second_chance_eviction_caps_the_verdict_table() {
        let mut arena = TypeArena::with_memo_capacity(4);
        assert_eq!(arena.memo_capacity(), 4);
        let int = arena.base(BaseType::Int);
        for id in distinct_funs(&mut arena, 16) {
            arena.compatible(id, int);
            arena.naive_subtype(id, int);
        }
        assert!(arena.memo_len() <= 4, "table grew to {}", arena.memo_len());
        assert!(
            arena.query_stats().evictions > 0,
            "filling past capacity must evict: {:?}",
            arena.query_stats()
        );
    }

    #[test]
    fn evicted_verdicts_recompute_to_the_same_answer() {
        let mut arena = TypeArena::with_memo_capacity(2);
        let dyn_fun = arena.intern(&Type::dyn_fun());
        let ii = arena.intern(&Type::fun(Type::INT, Type::INT));
        let first = arena.subtype(ii, dyn_fun);
        // Flush the table with unrelated questions…
        let int = arena.base(BaseType::Int);
        for id in distinct_funs(&mut arena, 12) {
            arena.pos_subtype(id, int);
        }
        assert!(arena.query_stats().evictions > 0);
        // …then the evicted verdict recomputes identically.
        assert_eq!(arena.subtype(ii, dyn_fun), first);
    }

    #[test]
    fn hot_verdicts_mostly_survive_the_clock_sweep() {
        let mut arena = TypeArena::with_memo_capacity(8);
        let int = arena.base(BaseType::Int);
        let hot = arena.intern(&Type::fun(Type::INT, Type::BOOL));
        arena.naive_subtype(hot, int);
        let misses_after_hot = arena.query_stats().misses;
        let rounds = 16usize;
        for id in distinct_funs(&mut arena, rounds) {
            // Touch the hot verdict between insertions: its reference
            // bit keeps earning it second chances.
            arena.naive_subtype(hot, int);
            arena.naive_subtype(id, int);
        }
        let stats = arena.query_stats();
        // Every cold question is a miss; of the hot touches, at most a
        // couple may fall to the sweep's wrap.
        let hot_misses = stats.misses - misses_after_hot - rounds as u64;
        assert!(
            hot_misses <= rounds as u64 / 4,
            "hot verdict recomputed {hot_misses} times in {rounds} touches: {stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_memo_capacity_is_rejected() {
        TypeArena::with_memo_capacity(0);
    }

    /// The tree-level join (precision lub), as specified by the
    /// gradual elaborator — the oracle for [`TypeArena::join`].
    fn tree_join(a: &Type, b: &Type) -> Option<Type> {
        match (a, b) {
            (Type::Dyn, _) | (_, Type::Dyn) => Some(Type::Dyn),
            (Type::Base(x), Type::Base(y)) => (x == y).then(|| a.clone()),
            (Type::Fun(a1, a2), Type::Fun(b1, b2)) => {
                Some(Type::fun(tree_join(a1, b1)?, tree_join(a2, b2)?))
            }
            _ => None,
        }
    }

    fn _frozen_types_is_send_sync(f: FrozenTypes) -> impl Send + Sync {
        f
    }

    #[test]
    fn overlay_answers_warm_inputs_entirely_from_the_base() {
        // Warm an arena (nodes + verdicts), freeze it, and layer an
        // overlay: re-interning the same types finds every node in
        // the base (zero local nodes, same ids), and re-asking the
        // same relational questions computes zero new verdicts.
        let mut warm = TypeArena::new();
        let samples = sample_types(2);
        let warm_ids: Vec<_> = samples.iter().map(|t| warm.intern(t)).collect();
        for a in &warm_ids {
            for b in &warm_ids {
                warm.compatible(*a, *b);
                warm.subtype(*a, *b);
            }
        }
        let base = Arc::new(warm.freeze());
        assert_eq!(base.len(), warm.len());
        assert!(base.verdicts_len() > 0);

        let mut overlay = TypeArena::with_base(base, 1 << 10);
        assert_eq!(overlay.base_len(), warm.len());
        for (t, id) in samples.iter().zip(&warm_ids) {
            assert_eq!(
                overlay.intern(t),
                *id,
                "base ids must mean the same type in the overlay: {t}"
            );
            assert_eq!(overlay.resolve(*id), *t, "round trip through the base");
        }
        assert_eq!(overlay.local_len(), 0, "warm inputs must intern nothing");
        assert!(overlay.base_node_hits() > 0);
        let ids: Vec<_> = samples.iter().map(|t| overlay.intern(t)).collect();
        for a in &ids {
            for b in &ids {
                overlay.compatible(*a, *b);
                overlay.subtype(*a, *b);
            }
        }
        let stats = overlay.query_stats();
        assert_eq!(
            stats.misses, 0,
            "warm questions must be answered by the frozen tier: {stats:?}"
        );
        assert!(stats.base_hits > 0);
    }

    #[test]
    fn overlay_interns_new_nodes_past_the_base() {
        let mut warm = TypeArena::new();
        warm.intern(&Type::fun(Type::INT, Type::INT));
        let base = Arc::new(warm.freeze());
        let base_len = base.len();
        let mut overlay = TypeArena::with_base(base, 1 << 10);
        let novel = Type::fun(Type::BOOL, Type::fun(Type::INT, Type::DYN));
        let id = overlay.intern(&novel);
        assert!(
            id.index() >= base_len,
            "local ids must be offset past the base"
        );
        assert_eq!(overlay.local_len(), 2, "two genuinely new Fun nodes");
        assert_eq!(overlay.resolve(id), novel, "mixed-tier round trip");
        assert_eq!(overlay.intern(&novel), id, "local canonicity");
        assert_eq!(overlay.height(id), novel.height());
        assert_eq!(overlay.size(id), novel.size());
    }

    #[test]
    fn overlay_relations_agree_with_flat_relations() {
        // Queries mixing base and local operands must equal the flat
        // arena's answers (and the tree oracles, by transitivity with
        // the existing agreement test).
        let mut warm = TypeArena::new();
        for t in sample_types(1) {
            warm.intern(&t);
        }
        let base = Arc::new(warm.freeze());
        let mut overlay = TypeArena::with_base(base, 1 << 10);
        let mut flat = TypeArena::new();
        let u = sample_types(2);
        for a in &u {
            for b in &u {
                let (oa, ob) = (overlay.intern(a), overlay.intern(b));
                let (fa, fb) = (flat.intern(a), flat.intern(b));
                assert_eq!(
                    overlay.compatible(oa, ob),
                    flat.compatible(fa, fb),
                    "{a} ∼ {b}"
                );
                assert_eq!(overlay.subtype(oa, ob), flat.subtype(fa, fb), "{a} <: {b}");
                assert_eq!(
                    overlay.pos_subtype(oa, ob),
                    flat.pos_subtype(fa, fb),
                    "{a} <:+ {b}"
                );
                assert_eq!(
                    overlay.neg_subtype(oa, ob),
                    flat.neg_subtype(fa, fb),
                    "{a} <:- {b}"
                );
                assert_eq!(
                    overlay.join(oa, ob).map(|id| overlay.resolve(id)),
                    flat.join(fa, fb).map(|id| flat.resolve(id)),
                    "{a} ⊔ {b}"
                );
            }
        }
    }

    #[test]
    fn freezing_an_overlay_flattens_both_tiers() {
        let mut warm = TypeArena::new();
        let ii = warm.intern(&Type::fun(Type::INT, Type::INT));
        let base = Arc::new(warm.freeze());
        let mut overlay = TypeArena::with_base(base, 1 << 10);
        let novel = Type::fun(Type::BOOL, Type::BOOL);
        let novel_id = overlay.intern(&novel);
        overlay.subtype(ii, novel_id);

        let refrozen = Arc::new(overlay.freeze());
        assert_eq!(refrozen.len(), overlay.len());
        let mut second = TypeArena::with_base(refrozen, 1 << 10);
        // Both the original base's nodes and the overlay's local
        // nodes are base nodes of the re-frozen snapshot.
        assert_eq!(second.intern(&Type::fun(Type::INT, Type::INT)), ii);
        assert_eq!(second.intern(&novel), novel_id);
        assert_eq!(second.local_len(), 0);
        // The overlay's memoized verdict froze too.
        second.subtype(ii, novel_id);
        assert!(second.query_stats().base_hits > 0);
        assert_eq!(second.query_stats().misses, 0);
    }

    #[test]
    fn refreezing_an_overlay_extends_its_base() {
        let mut warm = TypeArena::new();
        warm.intern(&Type::fun(Type::INT, Type::INT));
        let base = Arc::new(warm.freeze());
        let mut overlay = TypeArena::with_base(Arc::clone(&base), 1 << 10);
        overlay.intern(&Type::fun(Type::BOOL, Type::BOOL));
        let refrozen = overlay.freeze();
        // Appending preserves base ids verbatim: the new snapshot
        // extends the old (and itself), which is what lets a pool
        // hot-swap bases without invalidating outstanding ids.
        assert!(refrozen.extends(&base));
        assert!(refrozen.extends(&refrozen));
        assert!(!base.extends(&refrozen), "extension is strictly larger");
        // A sibling freezing *after* refrozen appends onto the same
        // slab: freezes over one base serialize into one id space, so
        // the later view subsumes the earlier one (but not vice
        // versa).
        let mut sibling = TypeArena::with_base(Arc::clone(&base), 1 << 10);
        sibling.intern(&Type::fun(Type::DYN, Type::BOOL));
        let other = sibling.freeze();
        assert!(other.extends(&base));
        assert!(other.extends(&refrozen), "later sibling subsumes earlier");
        assert!(!refrozen.extends(&other));
        // An unrelated flat freeze roots another slab: it never
        // extends, even with identical content.
        let unrelated = warm.freeze();
        assert_eq!(unrelated.len(), base.len());
        assert!(!unrelated.extends(&base), "different slab, no extension");
    }

    #[test]
    fn sibling_overlays_diverge_independently() {
        // Two overlays over one base each mint their own local ids;
        // neither sees the other's nodes, and base ids stay shared.
        let mut warm = TypeArena::new();
        let shared = warm.intern(&Type::fun(Type::INT, Type::INT));
        let base = Arc::new(warm.freeze());
        let mut left = TypeArena::with_base(Arc::clone(&base), 1 << 10);
        let mut right = TypeArena::with_base(base, 1 << 10);
        let l = left.intern(&Type::fun(Type::BOOL, Type::BOOL));
        let r = right.intern(&Type::fun(Type::DYN, Type::BOOL));
        // The numeric ids may coincide (both offset from the same
        // base) but denote each overlay's own node.
        assert_eq!(left.resolve(l), Type::fun(Type::BOOL, Type::BOOL));
        assert_eq!(right.resolve(r), Type::fun(Type::DYN, Type::BOOL));
        assert_eq!(left.intern(&Type::fun(Type::INT, Type::INT)), shared);
        assert_eq!(right.intern(&Type::fun(Type::INT, Type::INT)), shared);
    }

    #[test]
    fn join_agrees_with_the_tree_join() {
        let mut arena = TypeArena::new();
        let u = sample_types(2);
        for a in &u {
            for b in &u {
                let (ia, ib) = (arena.intern(a), arena.intern(b));
                let got = arena.join(ia, ib).map(|id| arena.resolve(id));
                assert_eq!(got, tree_join(a, b), "{a} ⊔ {b}");
            }
        }
    }
}
