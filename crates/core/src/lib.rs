//! The space-efficient coercion calculus λS — the primary contribution
//! of Siek, Thiemann, and Wadler, *Blame and Coercion: Together Again
//! for the First Time* (PLDI 2015), Figure 5.
//!
//! λS restricts coercions to a *canonical form* — a three-part grammar
//! with one canonical coercion per equivalence class of Henglein's
//! equational theory — and equips them with a ten-line structural
//! recursion [`compose()`] (`s # t`) that composes two canonical
//! coercions into a canonical coercion. Because composition preserves
//! height (Proposition 14) and canonical coercions of bounded height
//! have bounded size, a program's coercions can be merged eagerly at
//! run time without ever growing: gradually-typed programs run in
//! bounded space.
//!
//! The dynamics merge adjacent coercions *before* anything else
//! (`F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩]`), which is what restores proper tail
//! calls across typed/untyped boundaries.
//!
//! ```
//! use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
//! use bc_core::compose::compose;
//! use bc_syntax::{BaseType, Ground, Label};
//!
//! // (idInt ; Int!) # (Int?p ; idInt) = idInt — a round trip through ?
//! // collapses to the identity, in one composition step.
//! let g = Ground::Base(BaseType::Int);
//! let inj = SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), g);
//! let proj = SpaceCoercion::proj(g, Label::new(0), Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)));
//! assert_eq!(compose(&inj, &proj), SpaceCoercion::id_base(BaseType::Int));
//! ```

//! # The coercion arena
//!
//! The [`coercion`] tree grammar is the *exchange format* — what docs,
//! tests, and the translations read and write. The hot paths (the λS
//! CEK machine's frame merging, the memoized normalisation in
//! `bc-translate`, the pipeline) run on the hash-consed form in
//! [`arena`]: a [`arena::CoercionArena`] stores each distinct coercion
//! once and hands out `Copy` [`arena::CoercionId`] handles, giving
//! O(1) equality/hashing and a memoizable composition through
//! [`arena::ComposeCache`].
//!
//! The two representations are kept in lockstep by construction —
//! `intern`/`resolve` are mutually inverse and the interned
//! composition is the same ten-line recursion — and by the property
//! tests in `tests/compose_props.rs`. See the arena module docs for
//! the four interning invariants.
//!
//! # The compiled term IR
//!
//! [`sterm`] extends the same move to whole terms. Compiled programs
//! are lowered straight from λB to [`sterm::SCode`]: one flat node
//! array with de Bruijn variables, [`arena::CoercionId`] coercions and
//! `bc_syntax` [`bc_syntax::TypeId`] annotations, which both λS engines
//! run in place, so a boundary crossing performs zero interning and
//! zero coercion allocation — an id load plus a cached O(1) merge.
//! [`sterm::SCode::decode`] reads a block back into the tree [`Term`],
//! and the λS small-step reads a run's value back the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod coercion;
pub mod compose;
pub mod eval;
pub mod safety;
pub mod sterm;
pub mod store;
pub mod term;
pub mod typing;

pub use arena::{
    ArenaStats, CacheStats, CoercionArena, CoercionId, ComposeCache, FrozenCoercions, MergeCtx,
};
pub use coercion::{GroundCoercion, Intermediate, SpaceCoercion};
pub use compose::compose;
pub use eval::run_compiled;
pub use sterm::{CompileCtx, SCode};
pub use term::Term;
pub use typing::type_of;
