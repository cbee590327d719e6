//! The translation `|·|CS` from λC to λS (Figure 6) — equivalently,
//! *normalisation* of coercions to canonical form.
//!
//! ```text
//! |id?|    = id?
//! |idι|    = idι
//! |id A→B| = |id A| → |id B|
//! |G?p|    = G?p ; |id G|
//! |G!|     = |id G| ; G!
//! |c → d|  = |c| → |d|
//! |c ; d|  = |c| # |d|
//! |⊥GpH|   = ⊥GpH
//! ```

use std::collections::HashMap;

use bc_core::arena::{CoercionArena, CoercionId, ComposeCache};
use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use bc_core::compose::compose;
use bc_core::sterm::{lower, SCode};
use bc_core::term::Term as STerm;
use bc_lambda_c::coercion::Coercion;
use bc_lambda_c::term::Term as CTerm;
use bc_lambda_c::{CArena, CCoercionId, CNode, CTerm as CTermC};
use bc_syntax::{FxBuildHasher, Ground, TypeArena};

/// The identity ground coercion at ground type `G`: `idι` at base
/// types, `id? → id?` at `? → ?`.
pub fn ground_identity(g: Ground) -> GroundCoercion {
    match g {
        Ground::Base(b) => GroundCoercion::IdBase(b),
        Ground::Fun => {
            GroundCoercion::Fun(SpaceCoercion::IdDyn.into(), SpaceCoercion::IdDyn.into())
        }
    }
}

/// Translates (normalises) a λC coercion into its canonical
/// space-efficient form — the tree-level specification. The memoized
/// implementation is [`coercion_to_space_in`]; the two agree by
/// property test.
pub fn coercion_to_space(c: &Coercion) -> SpaceCoercion {
    match c {
        Coercion::Id(ty) => SpaceCoercion::id(ty),
        Coercion::Inj(g) => SpaceCoercion::Mid(Intermediate::Inj(ground_identity(*g), *g)),
        Coercion::Proj(g, p) => {
            SpaceCoercion::Proj(*g, *p, Intermediate::Ground(ground_identity(*g)))
        }
        Coercion::Fun(c, d) => SpaceCoercion::fun(coercion_to_space(c), coercion_to_space(d)),
        Coercion::Seq(c, d) => compose(&coercion_to_space(c), &coercion_to_space(d)),
        Coercion::Fail(g, p, h) => SpaceCoercion::Mid(Intermediate::Fail(*g, *p, *h)),
    }
}

/// Normalises a λC coercion directly into an arena: primitives become
/// interned canonical forms and `c ; d` goes through the memoized
/// composition, so normalising a program full of repeated coercions
/// does each distinct composition once.
pub fn coercion_to_space_in(
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    c: &Coercion,
) -> CoercionId {
    match c {
        Coercion::Id(ty) => arena.id(ty),
        Coercion::Inj(g) => arena.inj_ground(*g),
        Coercion::Proj(g, p) => arena.proj_ground(*g, *p),
        Coercion::Fun(c, d) => {
            let dom = coercion_to_space_in(arena, cache, c);
            let cod = coercion_to_space_in(arena, cache, d);
            arena.fun(dom, cod)
        }
        Coercion::Seq(c, d) => {
            let a = coercion_to_space_in(arena, cache, c);
            let b = coercion_to_space_in(arena, cache, d);
            arena.compose(cache, a, b)
        }
        Coercion::Fail(g, p, h) => arena.fail(*g, *p, *h),
    }
}

/// Translates a λC term to a λS term by normalising every coercion
/// (through a throwaway arena; see [`term_c_to_s_in`] to keep the
/// interned forms).
pub fn term_c_to_s(term: &CTerm) -> STerm {
    let mut arena = CoercionArena::new();
    let mut cache = ComposeCache::new();
    term_c_to_s_in(&mut arena, &mut cache, term)
}

/// Translates a λC term to a λS term, interning every normalised
/// coercion into a caller-owned arena. The produced term carries the
/// tree exchange format (resolved from the arena), so downstream
/// consumers that re-intern — like the λS machine — find every
/// coercion already hash-consed and every `Seq` composition already
/// cached.
pub fn term_c_to_s_in(arena: &mut CoercionArena, cache: &mut ComposeCache, term: &CTerm) -> STerm {
    term.map_casts(&mut |c| {
        let id = coercion_to_space_in(arena, cache, c);
        arena.resolve(id)
    })
}

/// Statistics for a [`CNormalizer`]: memo size and hit/miss counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CNormalizerStats {
    /// Distinct λC coercions normalised so far.
    pub entries: usize,
    /// Normalisations answered from the memo.
    pub hits: u64,
    /// Normalisations that had to walk the coercion.
    pub misses: u64,
}

/// A memo from interned λC coercions to their normalised
/// space-efficient forms: `|·|CS` as a table from [`CCoercionId`] to
/// [`CoercionId`].
///
/// Because both sides are hash-consed, one table entry covers *every*
/// occurrence of a λC coercion across every term translated through
/// the same arenas — a recompile of a structurally similar program
/// normalises nothing at all (all hits). The stats make that claim
/// checkable: a warm pipeline asserts `misses` stays flat.
#[derive(Debug, Clone, Default)]
pub struct CNormalizer {
    memo: HashMap<CCoercionId, CoercionId, FxBuildHasher>,
    hits: u64,
}

impl CNormalizer {
    /// An empty memo.
    pub fn new() -> CNormalizer {
        CNormalizer::default()
    }

    /// Normalises an interned λC coercion into the space arena:
    /// [`coercion_to_space_in`] on ids, memoized per [`CCoercionId`].
    pub fn normalize(
        &mut self,
        c: CCoercionId,
        carena: &CArena,
        arena: &mut CoercionArena,
        cache: &mut ComposeCache,
        types: &TypeArena,
    ) -> CoercionId {
        if let Some(&s) = self.memo.get(&c) {
            self.hits += 1;
            return s;
        }
        let s = match carena.node(c) {
            CNode::Id(ty) => arena.id_interned(ty, types),
            CNode::Inj(g) => arena.inj_ground(g),
            CNode::Proj(g, p) => arena.proj_ground(g, p),
            CNode::Fun(d, e) => {
                let dom = self.normalize(d, carena, arena, cache, types);
                let cod = self.normalize(e, carena, arena, cache, types);
                arena.fun(dom, cod)
            }
            CNode::Seq(d, e) => {
                let a = self.normalize(d, carena, arena, cache, types);
                let b = self.normalize(e, carena, arena, cache, types);
                arena.compose(cache, a, b)
            }
            CNode::Fail(g, p, h) => arena.fail(g, p, h),
        };
        self.memo.insert(c, s);
        s
    }

    /// The number of memoized coercions.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Memo size and hit/miss counts.
    pub fn stats(&self) -> CNormalizerStats {
        CNormalizerStats {
            entries: self.memo.len(),
            hits: self.hits,
            misses: self.memo.len() as u64,
        }
    }
}

/// Translates a *compiled* λC term into the executable λS code block
/// ([`SCode`]) — the final leg of the allocation-free pipeline. Type
/// annotations are already ids and pass through untouched; each
/// coercion goes through the [`CNormalizer`] memo, so against warm
/// arenas the pass interns nothing and composes nothing. Variables are
/// resolved to de Bruijn indices here, once per program, so running
/// the block never compares a name.
pub fn term_c_to_s_from_compiled(
    term: &CTermC,
    carena: &CArena,
    norm: &mut CNormalizer,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    types: &TypeArena,
) -> SCode {
    lower(
        term,
        &mut (carena, norm, arena, cache, types),
        |_, ty| *ty,
        |(carena, norm, arena, cache, types), c| norm.normalize(*c, carena, arena, cache, types),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Label, Type};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }

    #[test]
    fn primitives_normalise_to_their_canonical_forms() {
        assert_eq!(
            coercion_to_space(&Coercion::id(Type::DYN)),
            SpaceCoercion::IdDyn
        );
        assert_eq!(
            coercion_to_space(&Coercion::id(Type::INT)),
            SpaceCoercion::id_base(BaseType::Int)
        );
        assert_eq!(
            coercion_to_space(&Coercion::inj(gi())),
            SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), gi())
        );
        assert_eq!(
            coercion_to_space(&Coercion::proj(gi(), p(0))),
            SpaceCoercion::proj(
                gi(),
                p(0),
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int))
            )
        );
    }

    #[test]
    fn composition_normalises_by_composing() {
        // Int! ; Int?p normalises to idInt.
        let c = Coercion::inj(gi()).seq(Coercion::proj(gi(), p(0)));
        assert_eq!(coercion_to_space(&c), SpaceCoercion::id_base(BaseType::Int));
        // Int! ; Bool?p normalises to ⊥.
        let c2 = Coercion::inj(gi()).seq(Coercion::proj(Ground::Base(BaseType::Bool), p(0)));
        assert_eq!(
            coercion_to_space(&c2),
            SpaceCoercion::Mid(Intermediate::Fail(gi(), p(0), Ground::Base(BaseType::Bool)))
        );
    }

    #[test]
    fn normalisation_preserves_typing() {
        let samples = [
            Coercion::id(Type::fun(Type::INT, Type::DYN)),
            Coercion::inj(Ground::Fun),
            Coercion::proj(Ground::Fun, p(1)),
            Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi())),
            Coercion::inj(gi()).seq(Coercion::proj(gi(), p(2))),
        ];
        for c in &samples {
            let (a, b) = c.synthesize().expect("samples are failure-free");
            let s = coercion_to_space(c);
            assert!(s.check(&a, &b), "|{c}|CS = {s} must coerce {a} ⇒ {b}");
        }
    }

    #[test]
    fn normalisation_preserves_safety() {
        // Prop 15.2 flavour: |c|CS mentions a subset of c's labels.
        let c = Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi()))
            .seq(Coercion::inj(Ground::Fun))
            .seq(Coercion::proj(Ground::Fun, p(1)));
        let s = coercion_to_space(&c);
        for q in [p(0), p(1), p(2), p(0).complement()] {
            if c.safe_for(q) {
                assert!(s.safe_for(q), "normalisation must preserve safety for {q}");
            }
        }
    }

    #[test]
    fn interned_normalisation_agrees_with_tree_normalisation() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let samples = [
            Coercion::id(Type::fun(Type::INT, Type::DYN)),
            Coercion::inj(Ground::Fun),
            Coercion::proj(Ground::Fun, p(1)),
            Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi())),
            Coercion::inj(gi()).seq(Coercion::proj(gi(), p(2))),
            Coercion::inj(gi()).seq(Coercion::proj(Ground::Base(BaseType::Bool), p(3))),
        ];
        for c in &samples {
            let id = coercion_to_space_in(&mut arena, &mut cache, c);
            assert_eq!(arena.resolve(id), coercion_to_space(c), "|{c}|CS");
            // Normalising the same λC coercion again yields the same
            // id — canonicity end to end.
            assert_eq!(id, coercion_to_space_in(&mut arena, &mut cache, c));
        }
    }

    #[test]
    fn from_compiled_translation_agrees_with_tree_pipeline() {
        use crate::{term_b_to_c, term_b_to_c_compiled};
        use bc_core::sterm::CompileCtx;
        use bc_lambda_b::programs;

        let mut ctx = CompileCtx::new();
        let mut carena = CArena::new();
        let mut norm = CNormalizer::new();
        for (name, b) in [
            ("boundary_loop", programs::boundary_loop(4)),
            ("even_odd_mixed", programs::even_odd_mixed(3)),
            ("wrapped_identity", programs::wrapped_identity(3)),
        ] {
            // Compiled pipeline: BTerm → CTerm (interned) → SCode.
            let bterm = bc_lambda_b::bterm::compile(&b, &mut ctx.types);
            let cterm = term_b_to_c_compiled(&bterm, &mut carena, &mut ctx.types);
            let direct = term_c_to_s_from_compiled(
                &cterm,
                &carena,
                &mut norm,
                &mut ctx.arena,
                &mut ctx.cache,
                &ctx.types,
            );
            // Tree pipeline through the same arenas yields the same
            // ids — canonicity end to end.
            let tree = term_c_to_s_in(&mut ctx.arena, &mut ctx.cache, &term_b_to_c(&b));
            assert_eq!(direct, ctx.compile(&tree), "{name}");
        }
        // A warm second pass normalises from the memo alone: no new
        // space coercions, no new λC coercions, no new types.
        let before = (
            ctx.types.len(),
            ctx.arena.len(),
            carena.len(),
            norm.stats().misses,
        );
        for b in [
            programs::boundary_loop(4),
            programs::even_odd_mixed(3),
            programs::wrapped_identity(3),
        ] {
            let bterm = bc_lambda_b::bterm::compile(&b, &mut ctx.types);
            let cterm = term_b_to_c_compiled(&bterm, &mut carena, &mut ctx.types);
            let _ = term_c_to_s_from_compiled(
                &cterm,
                &carena,
                &mut norm,
                &mut ctx.arena,
                &mut ctx.cache,
                &ctx.types,
            );
        }
        let after = (
            ctx.types.len(),
            ctx.arena.len(),
            carena.len(),
            norm.stats().misses,
        );
        assert_eq!(before, after, "warm translation interned something");
        assert!(norm.stats().hits > 0, "warm translation must hit the memo");
    }

    #[test]
    fn idempotent_through_the_inclusion() {
        // Normalising, including back into λC, and normalising again
        // is the identity on canonical forms: |  |s|SC  |CS = s.
        let samples = [
            SpaceCoercion::IdDyn,
            SpaceCoercion::id_base(BaseType::Int),
            SpaceCoercion::inj(ground_identity(Ground::Fun), Ground::Fun),
            SpaceCoercion::proj(
                gi(),
                p(0),
                Intermediate::Inj(GroundCoercion::IdBase(BaseType::Int), gi()),
            ),
            SpaceCoercion::fail(gi(), p(1), Ground::Fun),
        ];
        for s in &samples {
            assert_eq!(&coercion_to_space(&s.to_coercion()), s, "round trip of {s}");
        }
    }
}
