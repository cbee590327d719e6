//! Random workload generators for the blame/coercion calculi.
//!
//! Everything is driven by a seeded [`Gen`] so that property tests
//! (which feed in proptest-generated seeds) and benchmarks (which use
//! fixed seeds) are reproducible.
//!
//! The generators maintain well-typedness by construction:
//!
//! * [`Gen::ty`] / [`Gen::compatible_pair`] — random types and
//!   compatible pairs `A ∼ B`;
//! * [`Gen::coercion_from`] / [`Gen::coercion_to`] — random well-typed
//!   λC coercions with a fixed source (resp. target) endpoint;
//! * [`Gen::space_from`] — random canonical λS coercions;
//! * [`Gen::term_b`] — random closed, well-typed λB terms of a
//!   requested type (which translate to λC and λS via `bc-translate`);
//! * [`Gen::term_s`] / [`Gen::compiled_s`] — the λS translations of
//!   random λB terms, as trees and lowered to the id-carrying code
//!   block of `bc_core::sterm`;
//! * [`Gen::context_b`] — random λB "contexts": terms with a free
//!   variable `hole` of a requested type (plugging a *closed* term by
//!   substitution coincides with context plugging).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bc_core::coercion::SpaceCoercion;
use bc_lambda_b as lb;
use bc_lambda_c::coercion::Coercion;
use bc_syntax::{BaseType, Ground, Label, Name, Op, Type};
use bc_translate::coercion_to_space;

/// The distinguished free variable used by generated contexts.
pub const HOLE: &str = "hole";

/// A seeded workload generator.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
    fresh: u32,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            fresh: 0,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn fresh_name(&mut self, base: &str) -> Name {
        let n = self.fresh;
        self.fresh += 1;
        Name::from(format!("{base}{n}").as_str())
    }

    /// A random blame label.
    pub fn label(&mut self) -> Label {
        let l = Label::new(self.rng.gen_range(0..64));
        if self.rng.gen_bool(0.3) {
            l.complement()
        } else {
            l
        }
    }

    /// A random base type.
    pub fn base(&mut self) -> BaseType {
        if self.rng.gen_bool(0.5) {
            BaseType::Int
        } else {
            BaseType::Bool
        }
    }

    /// A random ground type.
    pub fn ground(&mut self) -> Ground {
        match self.pick(3) {
            0 => Ground::Base(BaseType::Int),
            1 => Ground::Base(BaseType::Bool),
            _ => Ground::Fun,
        }
    }

    /// A random type of height at most `depth + 1`.
    pub fn ty(&mut self, depth: usize) -> Type {
        if depth == 0 || self.rng.gen_bool(0.55) {
            match self.pick(3) {
                0 => Type::INT,
                1 => Type::BOOL,
                _ => Type::DYN,
            }
        } else {
            Type::fun(self.ty(depth - 1), self.ty(depth - 1))
        }
    }

    /// A random pair of *compatible* types `A ∼ B`.
    pub fn compatible_pair(&mut self, depth: usize) -> (Type, Type) {
        match self.pick(if depth == 0 { 3 } else { 4 }) {
            0 => {
                let b = self.base().ty();
                (b.clone(), b)
            }
            1 => (self.ty(depth), Type::DYN),
            2 => (Type::DYN, self.ty(depth)),
            _ => {
                let (a1, b1) = self.compatible_pair(depth - 1);
                let (a2, b2) = self.compatible_pair(depth - 1);
                (Type::fun(a1, a2), Type::fun(b1, b2))
            }
        }
    }

    /// A random well-typed coercion with the given source type;
    /// returns the coercion and its target type.
    pub fn coercion_from(&mut self, src: &Type, depth: usize) -> (Coercion, Type) {
        if depth == 0 {
            return (Coercion::id(src.clone()), src.clone());
        }
        let choice = self.pick(10);
        match (choice, src) {
            // Composition: c : src ⇒ B, d : B ⇒ C.
            (0 | 1, _) => {
                let (c, mid) = self.coercion_from(src, depth - 1);
                let (d, tgt) = self.coercion_from(&mid, depth - 1);
                (c.seq(d), tgt)
            }
            // Injection when the source is ground.
            (2 | 3, _) if src.as_ground().is_some() => {
                (Coercion::inj(src.as_ground().expect("guarded")), Type::DYN)
            }
            // Projection when the source is ?.
            (2..=4, Type::Dyn) => {
                let g = self.ground();
                let p = self.label();
                (Coercion::proj(g, p), g.ty())
            }
            // Function coercion when the source is a function type.
            (2..=5, Type::Fun(a, b)) => {
                let (d, tgt_cod) = self.coercion_from(b, depth - 1);
                let (c, tgt_dom) = self.coercion_to(a, depth - 1);
                (Coercion::fun(c, d), Type::fun(tgt_dom, tgt_cod))
            }
            // Failure (rare; requires a non-? source).
            (6, src) if !src.is_dyn() && self.rng.gen_bool(0.3) => {
                let g = src.ground_of().expect("non-? source");
                let mut h = self.ground();
                if h == g {
                    h = match g {
                        Ground::Base(BaseType::Int) => Ground::Fun,
                        _ => Ground::Base(BaseType::Int),
                    };
                }
                let p = self.label();
                // Report the type checker's representative target for
                // `⊥GpH` (the named ground `H`), keeping generated
                // compositions consistent with `type_of`.
                (Coercion::fail(g, p, h), h.ty())
            }
            _ => (Coercion::id(src.clone()), src.clone()),
        }
    }

    /// A random well-typed coercion with the given *target* type;
    /// returns the coercion and its source type.
    pub fn coercion_to(&mut self, tgt: &Type, depth: usize) -> (Coercion, Type) {
        if depth == 0 {
            return (Coercion::id(tgt.clone()), tgt.clone());
        }
        let choice = self.pick(8);
        match (choice, tgt) {
            (0 | 1, _) => {
                let (d, mid) = self.coercion_to(tgt, depth - 1);
                let (c, src) = self.coercion_to(&mid, depth - 1);
                (c.seq(d), src)
            }
            (2 | 3, Type::Dyn) => {
                let g = self.ground();
                (Coercion::inj(g), g.ty())
            }
            (2..=4, _) if tgt.as_ground().is_some() && self.rng.gen_bool(0.7) => {
                let g = tgt.as_ground().expect("guarded");
                (Coercion::proj(g, self.label()), Type::DYN)
            }
            (2..=5, Type::Fun(a, b)) => {
                let (d, src_cod) = self.coercion_to(b, depth - 1);
                let (c, src_dom) = self.coercion_from(a, depth - 1);
                (Coercion::fun(c, d), Type::fun(src_dom, src_cod))
            }
            _ => (Coercion::id(tgt.clone()), tgt.clone()),
        }
    }

    /// A random canonical λS coercion with the given source, obtained
    /// by normalising a random λC coercion; returns it with its target.
    pub fn space_from(&mut self, src: &Type, depth: usize) -> (SpaceCoercion, Type) {
        let (c, tgt) = self.coercion_from(src, depth);
        (coercion_to_space(&c), tgt)
    }

    /// A random closed, well-typed λB term of the given type.
    ///
    /// Generated programs may diverge (via `fix`) or allocate blame;
    /// callers use fuel and treat timeouts as inconclusive.
    pub fn term_b(&mut self, ty: &Type, depth: usize) -> lb::Term {
        let mut env = Vec::new();
        self.term_b_in(&mut env, ty, depth)
    }

    /// A random well-typed λB term in an environment.
    pub fn term_b_in(&mut self, env: &mut Vec<(Name, Type)>, ty: &Type, depth: usize) -> lb::Term {
        // Use a variable of the right type if one is in scope.
        let candidates: Vec<Name> = env
            .iter()
            .filter(|(_, t)| t == ty)
            .map(|(n, _)| n.clone())
            .collect();
        if !candidates.is_empty() && self.rng.gen_bool(0.3) {
            let i = self.pick(candidates.len());
            return lb::Term::Var(candidates[i].clone());
        }
        if depth == 0 {
            return self.leaf_b(env, ty);
        }
        match self.pick(10) {
            // A cast from a compatible type.
            0 | 1 => {
                let from = self.compatible_with(ty, depth.saturating_sub(1));
                let inner = self.term_b_in(env, &from, depth - 1);
                inner.cast(from, self.label(), ty.clone())
            }
            // An application.
            2 => {
                let arg_ty = self.ty(1);
                let fun_ty = Type::fun(arg_ty.clone(), ty.clone());
                let fun = self.term_b_in(env, &fun_ty, depth - 1);
                let arg = self.term_b_in(env, &arg_ty, depth - 1);
                fun.app(arg)
            }
            // A conditional.
            3 => {
                let c = self.term_b_in(env, &Type::BOOL, depth - 1);
                let t = self.term_b_in(env, ty, depth - 1);
                let e = self.term_b_in(env, ty, depth - 1);
                lb::Term::ite(c, t, e)
            }
            // A let binding.
            4 => {
                let bound_ty = self.ty(1);
                let bound = self.term_b_in(env, &bound_ty, depth - 1);
                let x = self.fresh_name("x");
                env.push((x.clone(), bound_ty));
                let body = self.term_b_in(env, ty, depth - 1);
                env.pop();
                lb::Term::Let(x, bound.into(), body.into())
            }
            // Type-directed constructors.
            _ => self.constructor_b(env, ty, depth),
        }
    }

    /// A term built by the outermost constructor of `ty`.
    fn constructor_b(&mut self, env: &mut Vec<(Name, Type)>, ty: &Type, depth: usize) -> lb::Term {
        match ty {
            Type::Base(BaseType::Int) => {
                let op = [Op::Add, Op::Sub, Op::Mul][self.pick(3)];
                let a = self.term_b_in(env, &Type::INT, depth - 1);
                let b = self.term_b_in(env, &Type::INT, depth - 1);
                lb::Term::op2(op, a, b)
            }
            Type::Base(BaseType::Bool) => {
                let op = [Op::Eq, Op::Lt, Op::Leq][self.pick(3)];
                let a = self.term_b_in(env, &Type::INT, depth - 1);
                let b = self.term_b_in(env, &Type::INT, depth - 1);
                lb::Term::op2(op, a, b)
            }
            Type::Fun(a, b) => {
                let x = self.fresh_name("x");
                env.push((x.clone(), (**a).clone()));
                let body = self.term_b_in(env, b, depth - 1);
                env.pop();
                lb::Term::Lam(x, (**a).clone(), body.into())
            }
            Type::Dyn => {
                let from = self.compatible_with(&Type::DYN, 1);
                let inner = self.term_b_in(env, &from, depth - 1);
                inner.cast(from, self.label(), Type::DYN)
            }
        }
    }

    /// A minimal term of the given type (used when depth runs out).
    fn leaf_b(&mut self, env: &mut Vec<(Name, Type)>, ty: &Type) -> lb::Term {
        match ty {
            Type::Base(BaseType::Int) => lb::Term::int(self.rng.gen_range(-4..5)),
            Type::Base(BaseType::Bool) => lb::Term::bool(self.rng.gen_bool(0.5)),
            Type::Fun(a, b) => {
                let x = self.fresh_name("x");
                env.push((x.clone(), (**a).clone()));
                let body = self.leaf_b(env, b);
                env.pop();
                lb::Term::Lam(x, (**a).clone(), body.into())
            }
            Type::Dyn => {
                let b = self.base().ty();
                let inner = self.leaf_b(env, &b);
                inner.cast(b, self.label(), Type::DYN)
            }
        }
    }

    /// A random type compatible with `ty`.
    pub fn compatible_with(&mut self, ty: &Type, depth: usize) -> Type {
        match ty {
            Type::Dyn => self.ty(depth),
            Type::Base(_) => {
                if self.rng.gen_bool(0.5) {
                    Type::DYN
                } else {
                    ty.clone()
                }
            }
            Type::Fun(a, b) => {
                if self.rng.gen_bool(0.3) {
                    Type::DYN
                } else {
                    let a2 = self.compatible_with(a, depth.saturating_sub(1));
                    let b2 = self.compatible_with(b, depth.saturating_sub(1));
                    Type::fun(a2, b2)
                }
            }
        }
    }

    /// A random closed, well-typed λS term of the given type, obtained
    /// by translating a random λB term through `|·|BC` and `|·|CS`
    /// (so its coercions are canonical by construction).
    pub fn term_s(&mut self, ty: &Type, depth: usize) -> bc_core::Term {
        bc_translate::term_b_to_s(&self.term_b(ty, depth))
    }

    /// A random compiled λS program: the tree term *and* its lowering
    /// into the given context's arenas as an executable code block
    /// (the pair the compiled-path property tests compare).
    pub fn compiled_s(
        &mut self,
        ctx: &mut bc_core::CompileCtx,
        ty: &Type,
        depth: usize,
    ) -> (bc_core::Term, bc_core::SCode) {
        let tree = self.term_s(ty, depth);
        let compiled = ctx.compile(&tree);
        (tree, compiled)
    }

    /// A random λB context: a closed term except for the free variable
    /// [`HOLE`] of type `hole_ty`, with overall type `result_ty`.
    /// Plugging a closed term is substitution.
    pub fn context_b(&mut self, hole_ty: &Type, result_ty: &Type, depth: usize) -> lb::Term {
        let mut env = vec![(Name::from(HOLE), hole_ty.clone())];
        self.term_b_in(&mut env, result_ty, depth)
    }

    /// Plugs a closed term into a context generated by
    /// [`Gen::context_b`].
    pub fn plug(context: &lb::Term, term: &lb::Term) -> lb::Term {
        bc_syntax::term::subst(context, &Name::from(HOLE), term)
    }
}

/// Seeded GTLC *source-text* workloads for the multi-threaded serving
/// tests and benches.
///
/// Pool jobs cross thread boundaries, so they travel as source text
/// (term trees are `Rc`-shaped and deliberately not `Send`). This
/// module generates deterministic mixed workloads: a fixed family of
/// program *shapes* — boundary-crossing loops, cast-free loops,
/// dynamic-reuse combinators, runtime-blame programs, divergent
/// spinners — instantiated with seed-derived constants. Constants
/// never change the set of types or coercions a shape interns, so a
/// pool warmed on [`sources::shapes`] serves any [`sources::mixed`]
/// batch with **zero** local interning (the base-sharing
/// guarantee). [`sources::drifting`] is the adversarial counterpart:
/// its hot set *rotates*, introducing new type structure every K
/// jobs — the workload live base promotion is measured against.
pub mod sources {
    /// Number of distinct program shapes in the mix.
    pub const SHAPES: usize = 6;

    /// One representative source per shape — the warmup set that
    /// covers every type and coercion the mixed workload can intern.
    pub fn shapes() -> Vec<String> {
        (0..SHAPES).map(|shape| render(shape, 2)).collect()
    }

    /// A deterministic mixed workload of `n` sources cycling through
    /// the shapes, with seed-derived constants.
    pub fn mixed(seed: u64, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                // SplitMix64-style scramble: cheap, stable across
                // platforms, and independent of the vendored rand.
                let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let k = ((z >> 33) % 24) as i64 + 1;
                render(i % SHAPES, k)
            })
            .collect()
    }

    /// A *drifting* workload: `n` sources whose hot set rotates every
    /// `rotate_every` jobs.
    ///
    /// Where [`sources::mixed`](mixed) varies only constants (so a
    /// one-shot warmup covers it forever), `drifting` models the
    /// traffic a long-lived pool actually sees: every `rotate_every`
    /// jobs the *type structure* of the hot programs changes. Jobs
    /// cycle through three shapes — a stable boundary loop (always
    /// warmup-covered, so base hits never go to zero) and two
    /// cast-heavy shapes built around a phase-specific arrow tower
    /// (`drift_type`) — so each rotation forces genuinely new type
    /// *and* coercion nodes into whichever arena serves it. The
    /// three-shape cycle is deliberately coprime with the usual
    /// 2/4-worker pool sizes: round-robin dispatch cannot pin a shape
    /// to a worker, so *every* worker meets every phase's new nodes —
    /// exactly the "duplicated N ways" cost that live base promotion
    /// exists to collapse.
    ///
    /// Deterministic in `(seed, n, rotate_every)`; constants still
    /// come from the same SplitMix64 scramble as [`mixed`].
    ///
    /// # Panics
    ///
    /// Panics if `rotate_every` is zero.
    pub fn drifting(seed: u64, n: usize, rotate_every: usize) -> Vec<String> {
        assert!(rotate_every > 0, "rotate_every must be positive");
        (0..n)
            .map(|i| {
                let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let k = ((z >> 33) % 24) as i64 + 1;
                let phase = i / rotate_every;
                let ty = drift_type(phase);
                match i % 3 {
                    // The stable resident: phase-independent, covered
                    // by the `shapes()` warmup.
                    0 => render(0, k),
                    // A dynamic value cast *into* the phase type: the
                    // `?` ⇒ tower projection interns one coercion
                    // spine per phase.
                    1 => format!("let f = ((fun x => x) : ?) in let g = (f : {ty}) in {k}"),
                    // A tower-typed identity pushed through `?` and
                    // back at the *function* type over the tower: a
                    // deeper coercion spine sharing the phase's type
                    // nodes.
                    _ => format!(
                        "let poly = fun (x : {ty}) => x in \
                         let d = ((poly : ?) : ({ty}) -> ({ty})) in {k}"
                    ),
                }
            })
            .collect()
    }

    /// The phase-`p` hot type: a depth-5 arrow tower whose `Int`/`Bool`
    /// leaves encode `p + 1` in binary, so consecutive phases (any two
    /// phases below 63, in fact) differ in at least one leaf — and
    /// every spine node above a changed leaf is a genuinely new node
    /// to an arena warmed on earlier phases.
    fn drift_type(phase: usize) -> String {
        let bits = phase as u64 + 1;
        let mut ty = String::from(if bits & 1 == 0 { "Int" } else { "Bool" });
        for j in 1..=5u64 {
            let leaf = if (bits >> (j % 6)) & 1 == 0 {
                "Int"
            } else {
                "Bool"
            };
            ty = format!("{leaf} -> ({ty})");
        }
        ty
    }

    /// Renders shape `shape` with loop-bound/offset constant `k`
    /// (`1 <= k`, kept small so tests stay fast).
    fn render(shape: usize, k: i64) -> String {
        match shape % SHAPES {
            // Boundary-crossing loop: the λS space-efficiency
            // workload (casts on every iteration).
            0 => format!(
                "letrec loop (n : Int) : Bool = \
                   if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                 in loop {k}"
            ),
            // Cast-free static loop: the no-overhead baseline.
            1 => format!(
                "letrec loop (n : Int) : Bool = \
                   if n = 0 then true else loop (n - 1) \
                 in loop {k}"
            ),
            // Dynamic-reuse combinator: higher-order flow through `?`.
            2 => format!(
                "let twice = fun (f : ? -> ?) => fun (x : ?) => f (f x) in \
                 let inc = fun x => x + {k} in \
                 (twice (inc : ? -> ?) {k} : Int)"
            ),
            // Runtime blame: a Bool flows into an Int operation.
            3 => format!("let f = fun x => x + {k} in f true"),
            // Mixed-recursion even/odd (typed body, dynamic results).
            4 => format!(
                "letrec even (n : Int) : Bool = \
                   if n = 0 then true else \
                   if n = 1 then false else even (n - 2) \
                 in even {}",
                2 * k
            ),
            // Divergent spinner: always exhausts its fuel, so
            // fuel-exhaustion fingerprints are part of the mix.
            _ => format!("letrec spin (n : Int) : Int = spin (n + 1) in spin {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_types_respect_depth() {
        let mut g = Gen::new(1);
        for _ in 0..100 {
            assert!(g.ty(2).height() <= 3);
        }
    }

    #[test]
    fn compatible_pairs_are_compatible() {
        let mut g = Gen::new(2);
        for _ in 0..500 {
            let (a, b) = g.compatible_pair(2);
            assert!(a.compatible(&b), "{a} ≁ {b}");
        }
    }

    #[test]
    fn coercions_from_are_well_typed() {
        let mut g = Gen::new(3);
        for _ in 0..500 {
            let src = g.ty(2);
            let (c, tgt) = g.coercion_from(&src, 3);
            assert!(c.check(&src, &tgt), "{c} at {src} ⇒ {tgt}");
        }
    }

    #[test]
    fn coercions_to_are_well_typed() {
        let mut g = Gen::new(4);
        for _ in 0..500 {
            let tgt = g.ty(2);
            let (c, src) = g.coercion_to(&tgt, 3);
            assert!(c.check(&src, &tgt), "{c} at {src} ⇒ {tgt}");
        }
    }

    #[test]
    fn space_coercions_are_canonical_and_well_typed() {
        let mut g = Gen::new(5);
        for _ in 0..300 {
            let src = g.ty(2);
            let (s, tgt) = g.space_from(&src, 3);
            assert!(s.check(&src, &tgt), "{s} at {src} ⇒ {tgt}");
        }
    }

    #[test]
    fn terms_are_well_typed() {
        let mut g = Gen::new(6);
        for _ in 0..200 {
            let ty = g.ty(1);
            let t = g.term_b(&ty, 3);
            assert_eq!(lb::type_of(&t), Ok(ty.clone()), "{t}");
        }
    }

    #[test]
    fn generated_s_terms_are_well_typed() {
        let mut g = Gen::new(8);
        for _ in 0..100 {
            let ty = g.ty(1);
            let t = g.term_s(&ty, 3);
            assert_eq!(bc_core::type_of(&t), Ok(ty.clone()), "{t}");
        }
    }

    #[test]
    fn compiled_programs_round_trip() {
        let mut g = Gen::new(9);
        let mut ctx = bc_core::CompileCtx::new();
        for _ in 0..50 {
            let ty = g.ty(1);
            let (tree, compiled) = g.compiled_s(&mut ctx, &ty, 3);
            assert_eq!(compiled.decode(&ctx.arena, &ctx.types), tree);
        }
    }

    #[test]
    fn contexts_plug_to_well_typed_terms() {
        let mut g = Gen::new(7);
        for _ in 0..200 {
            let hole_ty = g.ty(1);
            let result_ty = g.ty(1);
            let cx = g.context_b(&hole_ty, &result_ty, 3);
            let m = g.term_b(&hole_ty, 2);
            let plugged = Gen::plug(&cx, &m);
            assert_eq!(lb::type_of(&plugged), Ok(result_ty.clone()), "{plugged}");
        }
    }
}
