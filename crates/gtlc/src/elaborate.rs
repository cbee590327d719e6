//! The gradual type checker and cast-insertion pass (after Siek–Taha
//! 2006 and Wadler–Findler 2009).
//!
//! Where a static checker demands type *equality*, the gradual checker
//! demands *consistency* (`A ∼ B`, [`bc_syntax::Type::compatible`])
//! and inserts a λB cast `A ⇒p B` with a fresh blame label `p` at each
//! point where precision changes. The output is a λB term together
//! with a map from blame labels back to the source spans that
//! introduced them — running the program and catching `blame p` thus
//! produces a *source-level* diagnostic pointing at the boundary at
//! fault.
//!
//! The pass is written once, over the front end's type trait
//! (`crate::types::TyBuild`), and has two instances: [`elaborate`] on
//! tree [`Type`]s, the reference, and [`elaborate_compiled`] on
//! [`TypeId`]s interned in a [`TypeArena`], which emits the compiled
//! λB term [`bc_lambda_b::BTerm`]. Both visit the source in the same
//! order, so they give the same labels, blame spans and diagnostics,
//! and the arena instance interns each type where the tree instance
//! builds it.

use std::collections::HashMap;

use bc_syntax::label::LabelSupply;
use bc_syntax::term::{Cast, Term};
use bc_syntax::{BaseType, Constant, Name, Type, TypeArena, TypeId};

use crate::ast::{Expr, ExprI, ExprKind};
use crate::diagnostics::{Diagnostic, Span};
use crate::types::{ArenaTy, TreeTy, TyBuild, View};

/// The result of elaborating a GTLC program, with types `T`: tree
/// [`Type`]s from [`elaborate`], or [`TypeId`]s from
/// [`elaborate_compiled`], meaningful only in the arena the caller
/// parsed against (see [`bc_lambda_b::bterm`]).
#[derive(Debug, Clone)]
pub struct Program<T = Type> {
    /// The λB term.
    pub term: Term<Cast<T>, T>,
    /// The type of the whole program.
    pub ty: T,
    /// Maps each inserted blame label id to the source span of the
    /// expression whose implicit conversion it guards.
    pub blame_spans: HashMap<u32, Span>,
}

/// Renders a blame label as a source diagnostic through a span map
/// produced by elaboration ([`Program::blame_spans`]), if the map
/// holds the label.
pub fn explain_blame_at(
    blame_spans: &HashMap<u32, Span>,
    label: bc_syntax::Label,
    source: &str,
) -> Option<String> {
    let span = *blame_spans.get(&label.id())?;
    let side = if label.is_positive() {
        "the more dynamically typed side of this boundary"
    } else {
        "the context of this boundary"
    };
    Some(
        Diagnostic::new(
            format!("cast failed at run time; blame falls on {side}"),
            span,
        )
        .render(source),
    )
}

impl<T> Program<T> {
    /// Renders a blame label as a source diagnostic, if the label was
    /// introduced by this program's elaboration.
    pub fn explain_blame(&self, label: bc_syntax::Label, source: &str) -> Option<String> {
        explain_blame_at(&self.blame_spans, label, source)
    }
}

/// Elaborates a surface expression into λB, checking gradual typing
/// and inserting casts.
///
/// # Errors
///
/// Returns a [`Diagnostic`] on inconsistent types, unbound variables,
/// or applications of non-functions.
pub fn elaborate(expr: &Expr) -> Result<Program, Diagnostic> {
    elaborate_with(expr, TreeTy)
}

/// Elaborates an interned surface expression (from
/// [`parse_in`](crate::parser::parse_in)) straight into the compiled
/// λB term, whose annotations are the ids of `types`.
///
/// Every judgment runs on ids: against a warm arena the pass interns
/// nothing and builds no type tree. The labels, blame spans and
/// diagnostics are those of [`elaborate`], and `decompile(term)` is
/// the tree elaboration (pinned by `tests/frontend_props.rs`).
///
/// # Errors
///
/// Returns a [`Diagnostic`] on inconsistent types, unbound variables,
/// or applications of non-functions — byte-identical to the one
/// [`elaborate`] produces.
pub fn elaborate_compiled(
    expr: &ExprI,
    types: &mut TypeArena,
) -> Result<Program<TypeId>, Diagnostic> {
    elaborate_with(expr, ArenaTy(types))
}

/// Elaborates `expr`, building and comparing its types through `types`.
pub(crate) fn elaborate_with<B: TyBuild>(
    expr: &Expr<B::Ty>,
    types: B,
) -> Result<Program<B::Ty>, Diagnostic> {
    let mut cx = Context {
        types,
        labels: LabelSupply::new(),
        blame_spans: HashMap::new(),
        env: Vec::new(),
    };
    let (term, ty) = cx.infer(expr)?;
    Ok(Program {
        term,
        ty,
        blame_spans: cx.blame_spans,
    })
}

/// The λB term elaboration emits, with types `T`.
type LTerm<T> = Term<Cast<T>, T>;

/// The elaboration state. A diagnostic ends the elaboration, so an arm
/// that fails leaves `env` as it stands.
struct Context<B: TyBuild> {
    types: B,
    labels: LabelSupply,
    blame_spans: HashMap<u32, Span>,
    env: Vec<(Name, B::Ty)>,
}

impl<B: TyBuild> Context<B> {
    /// Wraps `term : from` in a cast to `to` (a no-op when the types
    /// are equal), recording the span for blame reporting.
    fn coerce(&mut self, term: LTerm<B::Ty>, from: B::Ty, to: B::Ty, span: Span) -> LTerm<B::Ty> {
        if from == to {
            return term;
        }
        debug_assert!(
            self.types.compatible(&from, &to),
            "coerce on inconsistent types"
        );
        let label = self.labels.fresh();
        self.blame_spans.insert(label.id(), span);
        Term::Coerce(term.into(), Cast::new(from, label, to))
    }

    /// Checks `a ∼ b`, or fails with the message `why` renders from
    /// the two types' displays.
    fn consistent(
        &mut self,
        a: &B::Ty,
        b: &B::Ty,
        span: Span,
        why: impl FnOnce(String, String) -> String,
    ) -> Result<(), Diagnostic> {
        if self.types.compatible(a, b) {
            Ok(())
        } else {
            let (a, b) = (self.types.display(a), self.types.display(b));
            Err(Diagnostic::new(why(a, b), span))
        }
    }

    fn lookup(&self, name: &str) -> Option<B::Ty> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|(_, t)| t.clone())
    }

    fn infer(&mut self, expr: &Expr<B::Ty>) -> Result<(LTerm<B::Ty>, B::Ty), Diagnostic> {
        match &expr.kind {
            ExprKind::Int(n) => Ok((
                Term::Const(Constant::Int(*n)),
                self.types.base(BaseType::Int),
            )),
            ExprKind::Bool(b) => Ok((
                Term::Const(Constant::Bool(*b)),
                self.types.base(BaseType::Bool),
            )),
            ExprKind::Var(x) => match self.lookup(x) {
                Some(t) => Ok((Term::Var(Name::from(x.as_str())), t)),
                None => Err(Diagnostic::new(
                    format!("unbound variable `{x}`"),
                    expr.span,
                )),
            },
            ExprKind::Lam { param, ty, body } => {
                self.env.push((Name::from(param.as_str()), ty.clone()));
                let (bt, b_ty) = self.infer(body)?;
                self.env.pop();
                Ok((
                    Term::Lam(Name::from(param.as_str()), ty.clone(), bt.into()),
                    self.types.fun(ty.clone(), b_ty),
                ))
            }
            ExprKind::App(fun, arg) => {
                let (ft, f_ty) = self.infer(fun)?;
                let (at, a_ty) = self.infer(arg)?;
                match self.types.view(&f_ty) {
                    // Applying a dynamic value: cast it to ? → ? and
                    // inject the argument.
                    View::Dyn => {
                        let dyn_ty = self.types.dynamic();
                        let dyn_fun = self.types.fun(dyn_ty.clone(), dyn_ty.clone());
                        let ft = self.coerce(ft, dyn_ty.clone(), dyn_fun, fun.span);
                        let at = self.coerce(at, a_ty, dyn_ty.clone(), arg.span);
                        Ok((Term::App(ft.into(), at.into()), dyn_ty))
                    }
                    View::Fun(dom, cod) => {
                        self.consistent(&a_ty, &dom, arg.span, |a, dom| {
                            format!(
                                "this argument has type `{a}`, but the function expects `{dom}`"
                            )
                        })?;
                        let at = self.coerce(at, a_ty, dom, arg.span);
                        Ok((Term::App(ft.into(), at.into()), cod))
                    }
                    View::Base => Err(Diagnostic::new(
                        format!(
                            "cannot call a value of type `{}`",
                            self.types.display(&f_ty)
                        ),
                        fun.span,
                    )),
                }
            }
            ExprKind::Prim(op, args) => {
                let (params, result) = op.signature();
                debug_assert_eq!(params.len(), args.len(), "parser arity mismatch");
                let mut terms = Vec::with_capacity(args.len());
                for (param, arg) in params.iter().zip(args) {
                    let (at, a_ty) = self.infer(arg)?;
                    let param_ty = self.types.base(*param);
                    self.consistent(&a_ty, &param_ty, arg.span, |a, param| {
                        format!("operator `{op}` expects `{param}`, but this has type `{a}`")
                    })?;
                    terms.push(self.coerce(at, a_ty, param_ty, arg.span));
                }
                Ok((Term::Op(*op, terms), self.types.base(result)))
            }
            ExprKind::If(cond, then_, else_) => {
                let (ct, c_ty) = self.infer(cond)?;
                let bool_ty = self.types.base(BaseType::Bool);
                self.consistent(&c_ty, &bool_ty, cond.span, |c, _| {
                    format!("the condition has type `{c}`, expected `Bool`")
                })?;
                let ct = self.coerce(ct, c_ty, bool_ty, cond.span);
                let (tt, t_ty) = self.infer(then_)?;
                let (et, e_ty) = self.infer(else_)?;
                let Some(joined) = self.types.join(&t_ty, &e_ty) else {
                    return Err(Diagnostic::new(
                        format!(
                            "branches have inconsistent types `{}` and `{}`",
                            self.types.display(&t_ty),
                            self.types.display(&e_ty)
                        ),
                        expr.span,
                    ));
                };
                let tt = self.coerce(tt, t_ty, joined.clone(), then_.span);
                let et = self.coerce(et, e_ty, joined.clone(), else_.span);
                Ok((Term::If(ct.into(), tt.into(), et.into()), joined))
            }
            ExprKind::Let {
                name,
                ty,
                bound,
                body,
            } => {
                let (bt, b_ty) = self.infer(bound)?;
                let (bt, bind_ty) = match ty {
                    Some(annot) => {
                        self.consistent(&b_ty, annot, bound.span, |b, annot| {
                            format!(
                                "`{name}` is annotated `{annot}` but bound to a value of type `{b}`"
                            )
                        })?;
                        (
                            self.coerce(bt, b_ty, annot.clone(), bound.span),
                            annot.clone(),
                        )
                    }
                    None => (bt, b_ty),
                };
                self.env.push((Name::from(name.as_str()), bind_ty));
                let (nt, n_ty) = self.infer(body)?;
                self.env.pop();
                Ok((
                    Term::Let(Name::from(name.as_str()), bt.into(), nt.into()),
                    n_ty,
                ))
            }
            ExprKind::Letrec {
                name,
                param,
                param_ty,
                result_ty,
                fun_body,
                body,
            } => {
                let fun_ty = self.types.fun(param_ty.clone(), result_ty.clone());
                self.env.push((Name::from(name.as_str()), fun_ty));
                self.env
                    .push((Name::from(param.as_str()), param_ty.clone()));
                let (ft, f_ty) = self.infer(fun_body)?;
                self.env.pop();
                self.consistent(&f_ty, result_ty, fun_body.span, |f, result| {
                    format!("`{name}` is declared to return `{result}` but its body has type `{f}`")
                })?;
                let ft = self.coerce(ft, f_ty, result_ty.clone(), fun_body.span);
                let fix = Term::Fix(
                    Name::from(name.as_str()),
                    Name::from(param.as_str()),
                    param_ty.clone(),
                    result_ty.clone(),
                    ft.into(),
                );
                // `name` is still bound (to the function) in the body.
                let (nt, n_ty) = self.infer(body)?;
                self.env.pop();
                Ok((
                    Term::Let(Name::from(name.as_str()), fix.into(), nt.into()),
                    n_ty,
                ))
            }
            ExprKind::Ascribe(inner, ty) => {
                let (it, i_ty) = self.infer(inner)?;
                self.consistent(&i_ty, ty, expr.span, |i, ty| {
                    format!("cannot ascribe type `{ty}` to a value of type `{i}`")
                })?;
                Ok((self.coerce(it, i_ty, ty.clone(), expr.span), ty.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use bc_lambda_b::eval::{run, Outcome};
    use bc_lambda_b::typing::type_of;

    fn compile_ok(src: &str) -> Program {
        compile(src).unwrap_or_else(|e| panic!("compile error:\n{}", e.render(src)))
    }

    fn eval_src(src: &str) -> Outcome {
        let p = compile_ok(src);
        // Elaboration must produce well-typed λB with the same type.
        assert_eq!(type_of(&p.term), Ok(p.ty.clone()), "on {src}");
        run(&p.term, 1_000_000).unwrap().outcome
    }

    #[test]
    fn statically_typed_programs_need_no_casts() {
        let p = compile_ok("let f = fun (x : Int) => x + 1 in f 41");
        assert_eq!(p.term.cast_count(), 0);
        assert_eq!(
            eval_src("let f = fun (x : Int) => x + 1 in f 41"),
            Outcome::Value(Term::int(42))
        );
    }

    #[test]
    fn dynamic_programs_insert_casts() {
        let p = compile_ok("let f = fun x => x + 1 in f 41");
        assert!(p.term.cast_count() > 0);
        assert_eq!(
            eval_src("let f = fun x => x + 1 in f 41"),
            Outcome::Value(Term::int(42))
        );
    }

    #[test]
    fn misuse_of_dynamic_blames_at_runtime() {
        match eval_src("let f = fun x => x + 1 in f true") {
            Outcome::Blame(_) => {}
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn blame_maps_back_to_source() {
        let src = "let f = fun x => x + 1 in f true";
        let p = compile_ok(src);
        match run(&p.term, 10_000).unwrap().outcome {
            Outcome::Blame(l) => {
                let msg = p.explain_blame(l, src).expect("label has a span");
                assert!(msg.contains("^"), "{msg}");
            }
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_static_types_are_rejected() {
        assert!(compile("1 + true").is_err());
        assert!(compile("(fun (x : Int) => x) true").is_err());
        assert!(compile("if 1 then 2 else 3").is_err());
        assert!(compile("(true : Int)").is_err());
        assert!(compile("x").is_err());
        assert!(compile("1 2").is_err());
    }

    #[test]
    fn dynamic_versions_are_accepted() {
        // The same programs go through once a ? intervenes.
        assert!(compile("(1 : ?) + 1").is_ok());
        assert!(compile("(fun (x : Int) => x) ((true : ?) : Int)").is_ok());
        assert!(compile("if (1 : ?) then 2 else 3").is_ok());
    }

    #[test]
    fn if_branches_join() {
        let p = compile_ok("if true then 1 else (2 : ?)");
        assert_eq!(p.ty, Type::DYN);
        // Int→Int joined with ?→Int is ?→Int.
        let p2 = compile_ok("if true then fun (x:Int) => x else fun y => (y : Int)");
        assert_eq!(p2.ty, Type::fun(Type::DYN, Type::INT));
    }

    #[test]
    fn letrec_parity() {
        let src = "letrec even (n : Int) : Bool = \
                     if n = 0 then true else \
                     if n = 1 then false else even (n - 2) \
                   in even 10";
        assert_eq!(eval_src(src), Outcome::Value(Term::bool(true)));
    }

    #[test]
    fn mixed_even_odd_from_the_paper() {
        // Typed even, untyped odd, mutually recursive through ?.
        let src = "letrec even (n : Int) : Bool = \
                     if n = 0 then true else (odd' : ?) (n - 1) \
                   in let odd' = fun m => if m = 0 then false else even (m - 1) \
                   in even 9";
        // `odd'` is not in scope inside `even` in this toy syntax, so
        // build it the other way round instead:
        let src2 = "let odd = fun even' => fun m => \
                      if m = 0 then false else even' (m - 1) \
                    in letrec even (n : Int) : Bool = \
                      if n = 0 then true else ((odd (even : ?)) (n - 1) : Bool) \
                    in even 9";
        let _ = src;
        assert_eq!(eval_src(src2), Outcome::Value(Term::bool(false)));
    }

    #[test]
    fn compiled_front_end_agrees_with_tree_front_end() {
        let srcs = [
            "let f = fun (x : Int) => x + 1 in f 41",
            "let f = fun x => x + 1 in f 41",
            "let f = fun x => x + 1 in f true",
            "if true then 1 else (2 : ?)",
            "if true then fun (x:Int) => x else fun y => (y : Int)",
            "letrec even (n : Int) : Bool = \
               if n = 0 then true else \
               if n = 1 then false else even (n - 2) \
             in even 10",
            "(fun (f : ? -> ?) => f 1) (fun x => x)",
        ];
        let mut types = TypeArena::new();
        for src in srcs {
            let tree = compile(src).unwrap();
            let compiled = crate::compile_compiled(src, &mut types).unwrap();
            assert_eq!(
                bc_lambda_b::bterm::decompile(&compiled.term, &types),
                tree.term,
                "on {src}"
            );
            assert_eq!(types.resolve(compiled.ty), tree.ty, "on {src}");
            assert_eq!(compiled.blame_spans, tree.blame_spans, "on {src}");
            // The elaborated term is well typed at the program type.
            assert_eq!(bc_lambda_b::type_of(&tree.term), Ok(tree.ty), "on {src}");
        }
    }

    #[test]
    fn compiled_front_end_interns_nothing_when_warm() {
        let src = "letrec loop (n : Int) : Int = \
                     if n = 0 then 0 else loop (n - 1) \
                   in loop 3";
        let mut types = TypeArena::new();
        let cold = crate::compile_compiled(src, &mut types).unwrap();
        let watermark = types.len();
        let warm = crate::compile_compiled(src, &mut types).unwrap();
        assert_eq!(types.len(), watermark, "warm recompile interned a type");
        assert_eq!(warm.term, cold.term);
        assert_eq!(warm.ty, cold.ty);
    }

    #[test]
    fn compiled_front_end_diagnostics_match() {
        for src in ["1 + true", "x", "1 2", "(true : Int)", "if 1 then 2 else 3"] {
            let mut types = TypeArena::new();
            let tree_err = compile(src).unwrap_err();
            let compiled_err = crate::compile_compiled(src, &mut types).unwrap_err();
            assert_eq!(compiled_err.render(src), tree_err.render(src), "on {src}");
        }
    }

    #[test]
    fn ascription_casts() {
        let p = compile_ok("(1 : ?)");
        assert_eq!(p.ty, Type::DYN);
        assert_eq!(p.term.cast_count(), 1);
    }
}
