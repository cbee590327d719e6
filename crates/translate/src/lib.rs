//! Translations between the three calculi of Siek–Thiemann–Wadler
//! (PLDI 2015) and executable versions of the paper's metatheory.
//!
//! * [`b_to_c`] — `|·|BC`: casts to coercions (Figure 4, left);
//!   designed so that λB and λC run in *lockstep* (Proposition 11).
//! * [`c_to_b`] — `|·|CB`: a coercion to a *sequence* of casts
//!   (Figure 4, right); a coercion may carry many blame labels but a
//!   cast only one.
//! * [`c_to_s`] — `|·|CS`: coercions to canonical (space-efficient)
//!   coercions (Figure 6); this is also the normalisation function
//!   underlying λS.
//! * [`s_to_c`] — `|·|SC`: the trivial inclusion of λS back into λC.
//! * [`b_to_s`] — the composite `|·|BS = |·|CS ∘ |·|BC` used by the
//!   applications in §5, and its one-pass interned form that lowers
//!   compiled λB straight to the λS code block.
//! * [`bisim`] — executable bisimulation checkers: the lockstep
//!   co-execution of λB/λC and the normalised-trace alignment of
//!   λC/λS.
//! * [`fundamental`] — Lemma 20 and the Fundamental Property of Casts
//!   (Lemma 21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b_to_c;
pub mod b_to_s;
pub mod bisim;
pub mod c_to_b;
pub mod c_to_s;
pub mod fundamental;
pub mod s_to_c;

pub use b_to_c::{cast_to_coercion, cast_to_coercion_in, term_b_to_c, term_b_to_c_compiled};
pub use b_to_s::{cast_to_space, cast_to_space_in, term_b_to_s, term_b_to_s_compiled};
pub use c_to_b::{coercion_to_casts, term_c_to_b};
pub use c_to_s::{
    coercion_to_space, coercion_to_space_in, term_c_to_s, term_c_to_s_compiled,
    term_c_to_s_compiled_in, term_c_to_s_from_compiled, term_c_to_s_in, CNormalizer,
    CNormalizerStats,
};
pub use s_to_c::{coercion_id_to_c, term_s_to_c};
