//! A hash-consing arena for λC coercions.
//!
//! λC coercions are *not* the canonical λS coercions of
//! `bc-core` — they keep their unnormalised `c ; d` spines. [`CArena`]
//! interns them behind `Copy` [`CCoercionId`] handles the same way
//! [`TypeArena`] interns types: structurally equal coercions get the
//! same id, so a warm recompile of structurally similar source (labels
//! restart at 0 per compile) interns nothing.
//!
//! # The id-offset / foreign-id contract
//!
//! [`CCoercionId`]s are indices into the arena that created them, and
//! the [`TypeId`]s inside the nodes are indices into the [`TypeArena`]
//! they were interned against. A compiled λC term is therefore only
//! meaningful alongside *its* `CArena`/`TypeArena` pair. Unlike the
//! space-coercion arena, a `CArena` has no frozen base tier: the λC
//! form is a lowering *intermediate* that never travels.

use std::collections::HashMap;

use bc_syntax::{FxBuildHasher, Ground, Label, TypeArena, TypeId};

use crate::coercion::Coercion;

/// An interned λC coercion handle. Copy, 4 bytes, O(1) equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CCoercionId(u32);

impl CCoercionId {
    /// The arena slot index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned λC coercion node: [`Coercion`] with subtrees replaced
/// by ids and the identity's type interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CNode {
    /// The identity `id_A`.
    Id(TypeId),
    /// An injection `G!`.
    Inj(Ground),
    /// A projection `G?p`.
    Proj(Ground, Label),
    /// A function coercion `c → d`.
    Fun(CCoercionId, CCoercionId),
    /// A composition `c ; d`.
    Seq(CCoercionId, CCoercionId),
    /// The failure `⊥GpH`.
    Fail(Ground, Label, Ground),
}

/// A hash-consing arena for λC coercions. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CArena {
    nodes: Vec<CNode>,
    map: HashMap<CNode, CCoercionId, FxBuildHasher>,
}

impl CArena {
    /// Creates an empty arena.
    pub fn new() -> CArena {
        CArena::default()
    }

    /// Interns a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is `⊥GpH` with `G = H`.
    pub fn intern_node(&mut self, node: CNode) -> CCoercionId {
        if let Some(&id) = self.map.get(&node) {
            return id;
        }
        if let CNode::Fail(g, _, h) = node {
            assert_ne!(g, h, "⊥GpH requires G ≠ H");
        }
        let id = CCoercionId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(node);
        self.map.insert(node, id);
        id
    }

    /// Interns the identity `id_A`.
    pub fn id(&mut self, a: TypeId) -> CCoercionId {
        self.intern_node(CNode::Id(a))
    }

    /// Interns the injection `G!`.
    pub fn inj(&mut self, g: Ground) -> CCoercionId {
        self.intern_node(CNode::Inj(g))
    }

    /// Interns the projection `G?p`.
    pub fn proj(&mut self, g: Ground, p: Label) -> CCoercionId {
        self.intern_node(CNode::Proj(g, p))
    }

    /// Interns the function coercion `c → d`.
    pub fn fun(&mut self, c: CCoercionId, d: CCoercionId) -> CCoercionId {
        self.intern_node(CNode::Fun(c, d))
    }

    /// Interns the composition `c ; d`.
    pub fn seq(&mut self, c: CCoercionId, d: CCoercionId) -> CCoercionId {
        self.intern_node(CNode::Seq(c, d))
    }

    /// Interns the failure `⊥GpH`.
    ///
    /// # Panics
    ///
    /// Panics if `G = H`.
    pub fn fail(&mut self, g: Ground, p: Label, h: Ground) -> CCoercionId {
        self.intern_node(CNode::Fail(g, p, h))
    }

    /// The node behind an id.
    pub fn node(&self, id: CCoercionId) -> CNode {
        self.nodes[id.index()]
    }

    /// Rebuilds the tree coercion behind an id.
    pub fn resolve(&self, id: CCoercionId, types: &TypeArena) -> Coercion {
        match self.node(id) {
            CNode::Id(a) => Coercion::Id(types.resolve(a)),
            CNode::Inj(g) => Coercion::Inj(g),
            CNode::Proj(g, p) => Coercion::Proj(g, p),
            CNode::Fun(c, d) => {
                Coercion::Fun(self.resolve(c, types).into(), self.resolve(d, types).into())
            }
            CNode::Seq(c, d) => {
                Coercion::Seq(self.resolve(c, types).into(), self.resolve(d, types).into())
            }
            CNode::Fail(g, p, h) => Coercion::Fail(g, p, h),
        }
    }

    /// Number of distinct nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::BaseType;

    #[test]
    fn interning_is_idempotent() {
        let gi = Ground::Base(BaseType::Int);
        let p = Label::new(0);
        let mut arena = CArena::new();
        let proj = arena.proj(gi, p);
        let inj = arena.inj(gi);
        let a = arena.seq(proj, inj);
        let before = arena.len();
        let proj = arena.proj(gi, p);
        let inj = arena.inj(gi);
        assert_eq!(arena.seq(proj, inj), a);
        assert_eq!(arena.len(), before);
        assert_eq!(
            arena.resolve(a, &TypeArena::new()),
            Coercion::proj(gi, p).seq(Coercion::inj(gi))
        );
    }
}
