//! A gradually-typed λ-calculus (GTLC) front end for the blame
//! calculus.
//!
//! The PLDI 2015 paper (like the gradual-typing literature it builds
//! on: Siek–Taha 2006, Wadler–Findler 2009) assumes a source language
//! whose type checker admits the dynamic type `?` and whose compiler
//! inserts casts at the boundaries where precision changes, producing
//! λB terms. This crate is that front end:
//!
//! * [`lexer`]/[`parser`] — a hand-written lexer and recursive-descent
//!   parser with source spans;
//! * [`ast`] — the surface syntax;
//! * [`elaborate`](mod@elaborate) — the gradual type checker *and* cast-insertion
//!   pass: it checks consistency (`∼`) where a static checker would
//!   require equality, and emits a λB cast (with a fresh blame label)
//!   at every implicit conversion. Each label is mapped back to the
//!   source span that introduced it, so blame can be reported as a
//!   source diagnostic. It is one walk with two instances: on tree
//!   types ([`compile`], [`elaborate()`]) and on types interned in a
//!   `TypeArena` ([`compile_compiled`], [`elaborate_compiled`]); the
//!   parser builds annotations through the same two;
//! * [`diagnostics`] — error and blame rendering against the source.
//!
//! # Example
//!
//! ```
//! use bc_gtlc::compile;
//!
//! let program = bc_gtlc::compile("let f = fun x => x + 1 in f true").unwrap();
//! // The program type-checks gradually (x : ? is cast to Int), but
//! // running it blames the implicit cast at `x + 1`... unless the
//! // argument is an Int.
//! let out = bc_lambda_b::eval::run(&program.term, 1_000).unwrap();
//! assert!(matches!(out.outcome, bc_lambda_b::eval::Outcome::Blame(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod diagnostics;
pub mod elaborate;
pub mod lexer;
pub mod parser;
pub mod token;
mod types;

pub use diagnostics::{Diagnostic, Span};
pub use elaborate::{elaborate, elaborate_compiled, Program};

/// Parses and elaborates a GTLC source program into a λB term.
///
/// # Errors
///
/// Returns a [`Diagnostic`] (with source span) on lexical, syntactic,
/// or type errors.
pub fn compile(source: &str) -> Result<Program, Diagnostic> {
    compile_with(source, types::TreeTy)
}

/// The allocation-free front end: annotations are interned *at parse
/// time* ([`parser::parse_in`]) and elaboration emits the compiled λB
/// IR directly ([`elaborate_compiled`]) — no `Rc<Type>` spine and no
/// `Rc<Term>` tree is ever built. Against a warm arena the whole
/// source-to-λB pass allocates nothing in the arena at all.
///
/// # Errors
///
/// Returns a [`Diagnostic`] (with source span) on lexical, syntactic,
/// or type errors — identical to the one [`compile`] produces.
pub fn compile_compiled(
    source: &str,
    types: &mut bc_syntax::TypeArena,
) -> Result<Program<bc_syntax::TypeId>, Diagnostic> {
    compile_with(source, types::ArenaTy(types))
}

/// Lexes, parses and elaborates `source`, with every type built and
/// compared through `types`.
fn compile_with<B: types::TyBuild>(
    source: &str,
    mut types: B,
) -> Result<Program<B::Ty>, Diagnostic> {
    let tokens = lexer::lex(source)?;
    let expr = parser::parse_with(&tokens, &mut types)?;
    elaborate::elaborate_with(&expr, types)
}
