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
//! The nodes live in a two-tier [`crate::slab::Store`]: a warm arena
//! **freezes** ([`TypeArena::freeze`]) into a `Send + Sync`
//! [`FrozenTypes`] view, which any number of **overlay** arenas
//! ([`TypeArena::with_base`]) consult first on every intern and every
//! memoized query. So N worker threads share one warm working set,
//! and the invariants above hold per overlay.
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

use std::fmt;
use std::sync::Arc;

use crate::clock::ClockMap;
use crate::label::Label;
use crate::slab::{Frozen, Node, Store};
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
pub struct TypeMeta {
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
pub enum Rel {
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

/// A memoized verdict's key: the relation and its operands
/// (compatibility operands stored with `a <= b`).
type VerdictKey = (Rel, TypeId, TypeId);

impl Node for TNode {
    type Meta = TypeMeta;
    type Key = VerdictKey;
    type Value = bool;

    fn compute_meta(self, store: &Store<TNode>) -> TypeMeta {
        let leaf = |ground| TypeMeta {
            height: 1,
            size: 1,
            ground_of: ground,
            as_ground: ground,
        };
        match self {
            TNode::Base(b) => leaf(Some(Ground::Base(b))),
            TNode::Dyn => leaf(None),
            TNode::Fun(a, b) => {
                let (ma, mb) = (store.meta(a.0), store.meta(b.0));
                TypeMeta {
                    height: ma.height.max(mb.height).saturating_add(1),
                    size: ma.size.saturating_add(mb.size).saturating_add(1),
                    ground_of: Some(Ground::Fun),
                    as_ground: (store.node(a.0) == TNode::Dyn && store.node(b.0) == TNode::Dyn)
                        .then_some(Ground::Fun),
                }
            }
        }
    }

    fn map_ids(self, f: impl Fn(u32) -> u32) -> TNode {
        match self {
            TNode::Fun(a, b) => TNode::Fun(TypeId(f(a.0)), TypeId(f(b.0))),
            leaf => leaf,
        }
    }

    fn map_row(
        ((rel, a, b), verdict): (VerdictKey, bool),
        f: impl Fn(u32) -> u32,
    ) -> (VerdictKey, bool) {
        let (a, b) = (TypeId(f(a.0)), TypeId(f(b.0)));
        // Compatibility keys are stored canonically ordered.
        let key = if rel == Rel::Compat && a > b {
            (rel, b, a)
        } else {
            (rel, a, b)
        };
        (key, verdict)
    }
}

/// A frozen, read-only view of a [`TypeArena`]: its nodes and memoized
/// verdicts as the shared base tier of [`TypeArena::with_base`]
/// overlays (see [`crate::slab`] for the id-offset contract).
pub type FrozenTypes = Frozen<TNode>;

/// A hash-consing interner for types, with memoized `compatible` and
/// subtyping queries.
///
/// See the [module docs](self) for the interning invariants. The
/// verdict memo lives *inside* the arena, so it can never be asked
/// about another arena's ids. (The coercion arena's `ComposeCache` in
/// `bc_core::arena` lives outside its arena, as callers pass it
/// explicitly, so it carries a generation guard against a foreign
/// arena instead.)
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
#[derive(Debug)]
pub struct TypeArena {
    /// The nodes, over the frozen base when this arena is an overlay.
    store: Store<TNode>,
    /// Memoized verdicts of all five relations, tagged by [`Rel`]
    /// (compatibility keys are stored with `a <= b`: the relation is
    /// symmetric, so one entry serves both orders), behind the shared
    /// second-chance eviction engine. An overlay consults its base's
    /// frozen verdicts first.
    memo: ClockMap<VerdictKey, bool>,
    stats: QueryStats,
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
            store: Store::default(),
            memo: ClockMap::with_capacity(capacity),
            stats: QueryStats::default(),
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
    /// whose ids are offset past the base (see [`crate::slab`] for
    /// the id-offset contract). The leaves need no re-interning: they
    /// live in the base of every frozen arena.
    ///
    /// # Panics
    ///
    /// Panics if `memo_capacity` is zero.
    pub fn with_base(base: Arc<FrozenTypes>, memo_capacity: usize) -> TypeArena {
        TypeArena {
            store: Store::with_base(base),
            memo: ClockMap::with_capacity(memo_capacity),
            stats: QueryStats::default(),
        }
    }

    /// Freezes the arena's current state — nodes, metadata, index,
    /// and every memoized verdict — into an immutable, thread-shareable
    /// view ([`Store::freeze`]: a flat arena builds a fresh slab, an
    /// overlay appends to its base's and the result
    /// [`extends`](Frozen::extends) the base).
    pub fn freeze(&self) -> FrozenTypes {
        self.store
            .freeze(self.memo.iter().map(|(&key, &verdict)| (key, verdict)))
    }

    /// Number of distinct type nodes interned (both tiers).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Number of nodes in the frozen base tier (zero for a flat
    /// arena).
    pub fn base_len(&self) -> usize {
        self.store.base_len()
    }

    /// Number of nodes interned *locally*, past the base tier. For an
    /// overlay serving inputs the base was warmed on, this staying at
    /// zero is the base-sharing guarantee.
    pub fn local_len(&self) -> usize {
        self.store.local_len()
    }

    /// Node interns answered by the frozen base index.
    pub fn base_node_hits(&self) -> u64 {
        self.store.stats().base_hits
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
        TypeId(self.store.intern_node(node))
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
        self.store.node(id.0)
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
        self.store.meta(id.0).height as usize
    }

    /// The number of syntax nodes of the type's tree form
    /// (precomputed; O(1)). Saturates for DAG-shaped types built via
    /// the id-level [`TypeArena::fun`] constructor.
    pub fn size(&self, id: TypeId) -> usize {
        usize::try_from(self.store.meta(id.0).size).unwrap_or(usize::MAX)
    }

    /// Whether the type is the dynamic type `?` (O(1)).
    pub fn is_dyn(&self, id: TypeId) -> bool {
        matches!(self.node(id), TNode::Dyn)
    }

    /// The unique ground type compatible with the type, per Lemma 1
    /// (precomputed; O(1)). `None` exactly when the type is `?`.
    pub fn ground_of(&self, id: TypeId) -> Option<Ground> {
        self.store.meta(id.0).ground_of
    }

    /// `Some(G)` when the type *is* the ground type `G` (precomputed;
    /// O(1)); contrast with [`TypeArena::ground_of`].
    pub fn as_ground(&self, id: TypeId) -> Option<Ground> {
        self.store.meta(id.0).as_ground
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
    fn base_verdict(&mut self, key: &VerdictKey) -> Option<bool> {
        let r = self.store.base()?.lookup_memo(key)?;
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
    /// structure mirrors its tree implementation in [`crate::subtype`](mod@crate::subtype)
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
        assert!(base.memo_len() > 0);

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
    fn sibling_freezes_remap_local_ids() {
        // Two overlays over one base intern the same nested novel type
        // (local children) and one type of their own, and memoize a
        // verdict over two local ids. `right` interns its own type
        // first, so once `left` has frozen the shared nodes below it,
        // the remap flips the order of right's compatibility key.
        let base = Arc::new(TypeArena::new().freeze());
        let shared = Type::fun(Type::fun(Type::BOOL, Type::INT), Type::BOOL);
        let (own_l, own_r) = (
            Type::fun(Type::INT, Type::BOOL),
            Type::fun(Type::fun(Type::INT, Type::INT), Type::BOOL),
        );
        let mut left = TypeArena::with_base(Arc::clone(&base), 1 << 10);
        let (sl, ol) = (left.intern(&shared), left.intern(&own_l));
        assert!(!left.subtype(sl, ol));
        let mut right = TypeArena::with_base(Arc::clone(&base), 1 << 10);
        let (or, sr) = (right.intern(&own_r), right.intern(&shared));
        assert!(!right.compatible(or, sr));
        assert!(or < sr && sl.index() >= base.len());

        let first = Arc::new(left.freeze());
        // The nodes of right's that the first view lacks.
        let mut probe = TypeArena::with_base(Arc::clone(&first), 1 << 10);
        let trees: Vec<Type> = (base.len()..right.len())
            .map(|i| right.resolve(TypeId(i as u32)))
            .collect();
        for t in &trees {
            probe.intern(t);
        }
        let second = Arc::new(right.freeze());
        assert_eq!(second.len() - first.len(), probe.local_len());
        assert!(probe.local_len() < right.local_len(), "shared nodes dedup");
        // Freezes append: each view extends the ones before it, and
        // only those. A flat freeze roots another slab, so it extends
        // nothing, even with identical content.
        assert!(second.extends(&first) && second.extends(&base) && first.extends(&base));
        assert!(first.extends(&first));
        assert!(!first.extends(&second) && !base.extends(&first));
        assert!(!TypeArena::new().freeze().extends(&base));

        let mut fresh = TypeArena::with_base(Arc::clone(&second), 1 << 10);
        for t in &trees {
            let id = fresh.intern(t);
            assert!(id.index() < second.len(), "{t} is a base node");
            assert_eq!(fresh.resolve(id), *t);
        }
        let (s, ol, or) = (
            fresh.intern(&shared),
            fresh.intern(&own_l),
            fresh.intern(&own_r),
        );
        assert!(or > s, "the remap flipped the pair's order");
        assert!(!fresh.compatible(or, s) && !fresh.compatible(s, or));
        assert!(!fresh.subtype(s, ol));
        assert_eq!(fresh.local_len(), 0);
        let stats = fresh.query_stats();
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(stats.base_hits, 3);
    }

    #[test]
    fn join_agrees_with_the_tree_join() {
        let mut arena = TypeArena::new();
        let u = sample_types(2);
        for a in &u {
            for b in &u {
                let (ia, ib) = (arena.intern(a), arena.intern(b));
                let got = arena.join(ia, ib).map(|id| arena.resolve(id));
                assert_eq!(got, a.join(b), "{a} ⊔ {b}");
            }
        }
    }
}
