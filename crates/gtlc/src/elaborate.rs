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

use std::collections::HashMap;

use bc_lambda_b::term::Term;
use bc_lambda_b::BTerm;
use bc_syntax::label::LabelSupply;
use bc_syntax::{BaseType, Constant, Name, TNode, Type, TypeArena, TypeId};

use crate::ast::{Expr, ExprI, ExprKind};
use crate::diagnostics::{Diagnostic, Span};

/// The result of elaborating a GTLC program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The compiled λB term.
    pub term: Term,
    /// The type of the whole program.
    pub ty: Type,
    /// Maps each inserted blame label id to the source span of the
    /// expression whose implicit conversion it guards.
    pub blame_spans: HashMap<u32, Span>,
}

/// Renders a blame label as a source diagnostic through a span map
/// produced by elaboration ([`Program::blame_spans`],
/// [`ProgramC::blame_spans`]), if the map holds the label.
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

impl Program {
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
    let mut cx = Context {
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

struct Context {
    labels: LabelSupply,
    blame_spans: HashMap<u32, Span>,
    env: Vec<(Name, Type)>,
}

impl Context {
    /// Wraps `term : from` in a cast to `to` (a no-op when the types
    /// are equal), recording the span for blame reporting.
    fn coerce(&mut self, term: Term, from: &Type, to: &Type, span: Span) -> Term {
        if from == to {
            return term;
        }
        debug_assert!(from.compatible(to), "coerce on inconsistent types");
        let label = self.labels.fresh();
        self.blame_spans.insert(label.id(), span);
        term.cast(from.clone(), label, to.clone())
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|(_, t)| t.clone())
    }

    fn infer(&mut self, expr: &Expr) -> Result<(Term, Type), Diagnostic> {
        match &expr.kind {
            ExprKind::Int(n) => Ok((Term::int(*n), Type::INT)),
            ExprKind::Bool(b) => Ok((Term::bool(*b), Type::BOOL)),
            ExprKind::Var(x) => match self.lookup(x) {
                Some(t) => Ok((Term::Var(Name::from(x.as_str())), t)),
                None => Err(Diagnostic::new(
                    format!("unbound variable `{x}`"),
                    expr.span,
                )),
            },
            ExprKind::Lam { param, ty, body } => {
                self.env.push((Name::from(param.as_str()), ty.clone()));
                let result = self.infer(body);
                self.env.pop();
                let (bt, b_ty) = result?;
                Ok((
                    Term::Lam(Name::from(param.as_str()), ty.clone(), bt.into()),
                    Type::fun(ty.clone(), b_ty),
                ))
            }
            ExprKind::App(fun, arg) => {
                let (ft, f_ty) = self.infer(fun)?;
                let (at, a_ty) = self.infer(arg)?;
                match &f_ty {
                    // Applying a dynamic value: cast it to ? → ? and
                    // inject the argument.
                    Type::Dyn => {
                        let ft = self.coerce(ft, &Type::DYN, &Type::dyn_fun(), fun.span);
                        let at = self.coerce(at, &a_ty, &Type::DYN, arg.span);
                        Ok((ft.app(at), Type::DYN))
                    }
                    Type::Fun(dom, cod) => {
                        if !a_ty.compatible(dom) {
                            return Err(Diagnostic::new(
                                format!(
                                    "this argument has type `{a_ty}`, but the function expects `{dom}`"
                                ),
                                arg.span,
                            ));
                        }
                        let at = self.coerce(at, &a_ty, dom, arg.span);
                        Ok((ft.app(at), (**cod).clone()))
                    }
                    other => Err(Diagnostic::new(
                        format!("cannot call a value of type `{other}`"),
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
                    if !a_ty.compatible(&param.ty()) {
                        return Err(Diagnostic::new(
                            format!(
                                "operator `{op}` expects `{}`, but this has type `{a_ty}`",
                                param.ty()
                            ),
                            arg.span,
                        ));
                    }
                    terms.push(self.coerce(at, &a_ty, &param.ty(), arg.span));
                }
                Ok((Term::Op(*op, terms), result.ty()))
            }
            ExprKind::If(cond, then_, else_) => {
                let (ct, c_ty) = self.infer(cond)?;
                if !c_ty.compatible(&Type::BOOL) {
                    return Err(Diagnostic::new(
                        format!("the condition has type `{c_ty}`, expected `Bool`"),
                        cond.span,
                    ));
                }
                let ct = self.coerce(ct, &c_ty, &Type::BOOL, cond.span);
                let (tt, t_ty) = self.infer(then_)?;
                let (et, e_ty) = self.infer(else_)?;
                let joined = join(&t_ty, &e_ty).ok_or_else(|| {
                    Diagnostic::new(
                        format!("branches have inconsistent types `{t_ty}` and `{e_ty}`"),
                        expr.span,
                    )
                })?;
                let tt = self.coerce(tt, &t_ty, &joined, then_.span);
                let et = self.coerce(et, &e_ty, &joined, else_.span);
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
                        if !b_ty.compatible(annot) {
                            return Err(Diagnostic::new(
                                format!(
                                    "`{name}` is annotated `{annot}` but bound to a value of type `{b_ty}`"
                                ),
                                bound.span,
                            ));
                        }
                        (self.coerce(bt, &b_ty, annot, bound.span), annot.clone())
                    }
                    None => (bt, b_ty),
                };
                self.env.push((Name::from(name.as_str()), bind_ty));
                let result = self.infer(body);
                self.env.pop();
                let (nt, n_ty) = result?;
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
                let fun_ty = Type::fun(param_ty.clone(), result_ty.clone());
                self.env.push((Name::from(name.as_str()), fun_ty.clone()));
                self.env
                    .push((Name::from(param.as_str()), param_ty.clone()));
                let fun_result = self.infer(fun_body);
                self.env.pop();
                let (ft, f_ty) = match fun_result {
                    Ok(r) => r,
                    Err(e) => {
                        self.env.pop();
                        return Err(e);
                    }
                };
                if !f_ty.compatible(result_ty) {
                    self.env.pop();
                    return Err(Diagnostic::new(
                        format!(
                            "`{name}` is declared to return `{result_ty}` but its body has type `{f_ty}`"
                        ),
                        fun_body.span,
                    ));
                }
                let ft = self.coerce(ft, &f_ty, result_ty, fun_body.span);
                let fix = Term::Fix(
                    Name::from(name.as_str()),
                    Name::from(param.as_str()),
                    param_ty.clone(),
                    result_ty.clone(),
                    ft.into(),
                );
                // `name` is still bound (to the function) in the body.
                let result = self.infer(body);
                self.env.pop();
                let (nt, n_ty) = result?;
                Ok((
                    Term::Let(Name::from(name.as_str()), fix.into(), nt.into()),
                    n_ty,
                ))
            }
            ExprKind::Ascribe(inner, ty) => {
                let (it, i_ty) = self.infer(inner)?;
                if !i_ty.compatible(ty) {
                    return Err(Diagnostic::new(
                        format!("cannot ascribe type `{ty}` to a value of type `{i_ty}`"),
                        expr.span,
                    ));
                }
                Ok((self.coerce(it, &i_ty, ty, expr.span), ty.clone()))
            }
        }
    }
}

/// The result of elaborating a GTLC program straight to the compiled
/// λB IR: the interned counterpart of [`Program`], produced by
/// [`elaborate_compiled`] from an already-interned [`ExprI`].
///
/// No `Rc<Type>` spine and no `Rc<Term>` tree is built anywhere on
/// this path — the term is an id-annotated [`BTerm`] whose every
/// annotation is a handle into the arena the caller parsed against,
/// and meaningful only there (see [`bc_lambda_b::bterm`]).
#[derive(Debug, Clone)]
pub struct ProgramC {
    /// The compiled λB term.
    pub term: BTerm,
    /// The type of the whole program, interned in the caller's arena.
    pub ty: TypeId,
    /// Maps each inserted blame label id to the source span of the
    /// expression whose implicit conversion it guards.
    pub blame_spans: HashMap<u32, Span>,
}

impl ProgramC {
    /// Renders a blame label as a source diagnostic, if the label was
    /// introduced by this program's elaboration.
    pub fn explain_blame(&self, label: bc_syntax::Label, source: &str) -> Option<String> {
        explain_blame_at(&self.blame_spans, label, source)
    }
}

/// Elaborates an interned surface expression (from
/// [`parse_in`](crate::parser::parse_in)) straight into the compiled
/// λB IR — the final leg of the allocation-free front end.
///
/// Annotations arrive as [`TypeId`]s, every judgment runs on ids, and
/// the emitted [`BTerm`] carries those same ids: against a warm arena
/// the whole pass interns nothing and builds no tree node of any kind.
/// Labels, blame spans, and diagnostics agree exactly with
/// [`elaborate`] (the traversal order is identical), so
/// `decompile(term)` equals the tree elaboration — pinned by test.
///
/// # Errors
///
/// Returns a [`Diagnostic`] on inconsistent types, unbound variables,
/// or applications of non-functions — byte-identical to the one
/// [`elaborate`] produces.
pub fn elaborate_compiled(expr: &ExprI, types: &mut TypeArena) -> Result<ProgramC, Diagnostic> {
    let mut cx = ContextC {
        labels: LabelSupply::new(),
        blame_spans: HashMap::new(),
        env: Vec::new(),
        types,
    };
    let (term, ty) = cx.infer(expr)?;
    Ok(ProgramC {
        term,
        ty,
        blame_spans: cx.blame_spans,
    })
}

/// The compiled elaboration context: [`Context`] with the environment
/// and every judgment on [`TypeId`]s, emitting [`BTerm`] instead of
/// tree terms, with annotations pre-interned by the parser.
struct ContextC<'a> {
    labels: LabelSupply,
    blame_spans: HashMap<u32, Span>,
    env: Vec<(Name, TypeId)>,
    types: &'a mut TypeArena,
}

impl ContextC<'_> {
    /// Wraps `term : from` in a cast to `to` (a no-op when the ids are
    /// equal), recording the span for blame reporting. The cast node
    /// carries the ids themselves; no id is resolved to a tree.
    fn coerce(&mut self, term: BTerm, from: TypeId, to: TypeId, span: Span) -> BTerm {
        if from == to {
            return term;
        }
        debug_assert!(
            self.types.compatible(from, to),
            "coerce on inconsistent types"
        );
        let label = self.labels.fresh();
        self.blame_spans.insert(label.id(), span);
        BTerm::Cast(term.into(), from, label, to)
    }

    fn lookup(&self, name: &str) -> Option<TypeId> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|(_, t)| *t)
    }

    fn infer(&mut self, expr: &ExprI) -> Result<(BTerm, TypeId), Diagnostic> {
        match &expr.kind {
            ExprKind::Int(n) => Ok((
                BTerm::Const(Constant::Int(*n)),
                self.types.base(BaseType::Int),
            )),
            ExprKind::Bool(b) => Ok((
                BTerm::Const(Constant::Bool(*b)),
                self.types.base(BaseType::Bool),
            )),
            ExprKind::Var(x) => match self.lookup(x) {
                Some(t) => Ok((BTerm::Var(Name::from(x.as_str())), t)),
                None => Err(Diagnostic::new(
                    format!("unbound variable `{x}`"),
                    expr.span,
                )),
            },
            ExprKind::Lam { param, ty, body } => {
                self.env.push((Name::from(param.as_str()), *ty));
                let result = self.infer(body);
                self.env.pop();
                let (bt, b_ty) = result?;
                Ok((
                    BTerm::Lam(Name::from(param.as_str()), *ty, bt.into()),
                    self.types.fun(*ty, b_ty),
                ))
            }
            ExprKind::App(fun, arg) => {
                let (ft, f_ty) = self.infer(fun)?;
                let (at, a_ty) = self.infer(arg)?;
                match self.types.node(f_ty) {
                    // Applying a dynamic value: cast it to ? → ? and
                    // inject the argument.
                    TNode::Dyn => {
                        let dyn_id = self.types.dyn_ty();
                        let dyn_fun = self.types.fun(dyn_id, dyn_id);
                        let ft = self.coerce(ft, dyn_id, dyn_fun, fun.span);
                        let at = self.coerce(at, a_ty, dyn_id, arg.span);
                        Ok((BTerm::App(ft.into(), at.into()), dyn_id))
                    }
                    TNode::Fun(dom, cod) => {
                        if !self.types.compatible(a_ty, dom) {
                            return Err(Diagnostic::new(
                                format!(
                                    "this argument has type `{}`, but the function expects `{}`",
                                    self.types.display(a_ty),
                                    self.types.display(dom)
                                ),
                                arg.span,
                            ));
                        }
                        let at = self.coerce(at, a_ty, dom, arg.span);
                        Ok((BTerm::App(ft.into(), at.into()), cod))
                    }
                    TNode::Base(_) => Err(Diagnostic::new(
                        format!("cannot call a value of type `{}`", self.types.display(f_ty)),
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
                    let param_id = self.types.base(*param);
                    if !self.types.compatible(a_ty, param_id) {
                        return Err(Diagnostic::new(
                            format!(
                                "operator `{op}` expects `{}`, but this has type `{}`",
                                param.ty(),
                                self.types.display(a_ty)
                            ),
                            arg.span,
                        ));
                    }
                    terms.push(self.coerce(at, a_ty, param_id, arg.span));
                }
                Ok((BTerm::Op(*op, terms), self.types.base(result)))
            }
            ExprKind::If(cond, then_, else_) => {
                let (ct, c_ty) = self.infer(cond)?;
                let bool_id = self.types.base(BaseType::Bool);
                if !self.types.compatible(c_ty, bool_id) {
                    return Err(Diagnostic::new(
                        format!(
                            "the condition has type `{}`, expected `Bool`",
                            self.types.display(c_ty)
                        ),
                        cond.span,
                    ));
                }
                let ct = self.coerce(ct, c_ty, bool_id, cond.span);
                let (tt, t_ty) = self.infer(then_)?;
                let (et, e_ty) = self.infer(else_)?;
                let joined = self.types.join(t_ty, e_ty).ok_or_else(|| {
                    Diagnostic::new(
                        format!(
                            "branches have inconsistent types `{}` and `{}`",
                            self.types.display(t_ty),
                            self.types.display(e_ty)
                        ),
                        expr.span,
                    )
                })?;
                let tt = self.coerce(tt, t_ty, joined, then_.span);
                let et = self.coerce(et, e_ty, joined, else_.span);
                Ok((BTerm::If(ct.into(), tt.into(), et.into()), joined))
            }
            ExprKind::Let {
                name,
                ty,
                bound,
                body,
            } => {
                let (bt, b_ty) = self.infer(bound)?;
                let (bt, bind_ty) = match ty {
                    Some(annot_id) => {
                        if !self.types.compatible(b_ty, *annot_id) {
                            return Err(Diagnostic::new(
                                format!(
                                    "`{name}` is annotated `{}` but bound to a value of type `{}`",
                                    self.types.display(*annot_id),
                                    self.types.display(b_ty)
                                ),
                                bound.span,
                            ));
                        }
                        (self.coerce(bt, b_ty, *annot_id, bound.span), *annot_id)
                    }
                    None => (bt, b_ty),
                };
                self.env.push((Name::from(name.as_str()), bind_ty));
                let result = self.infer(body);
                self.env.pop();
                let (nt, n_ty) = result?;
                Ok((
                    BTerm::Let(Name::from(name.as_str()), bt.into(), nt.into()),
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
                let fun_id = self.types.fun(*param_ty, *result_ty);
                self.env.push((Name::from(name.as_str()), fun_id));
                self.env.push((Name::from(param.as_str()), *param_ty));
                let fun_result = self.infer(fun_body);
                self.env.pop();
                let (ft, f_ty) = match fun_result {
                    Ok(r) => r,
                    Err(e) => {
                        self.env.pop();
                        return Err(e);
                    }
                };
                if !self.types.compatible(f_ty, *result_ty) {
                    self.env.pop();
                    return Err(Diagnostic::new(
                        format!(
                            "`{name}` is declared to return `{}` but its body has type `{}`",
                            self.types.display(*result_ty),
                            self.types.display(f_ty)
                        ),
                        fun_body.span,
                    ));
                }
                let ft = self.coerce(ft, f_ty, *result_ty, fun_body.span);
                let fix = BTerm::Fix(
                    Name::from(name.as_str()),
                    Name::from(param.as_str()),
                    *param_ty,
                    *result_ty,
                    ft.into(),
                );
                // `name` is still bound (to the function) in the body.
                let result = self.infer(body);
                self.env.pop();
                let (nt, n_ty) = result?;
                Ok((
                    BTerm::Let(Name::from(name.as_str()), fix.into(), nt.into()),
                    n_ty,
                ))
            }
            ExprKind::Ascribe(inner, ty) => {
                let (it, i_ty) = self.infer(inner)?;
                if !self.types.compatible(i_ty, *ty) {
                    return Err(Diagnostic::new(
                        format!(
                            "cannot ascribe type `{}` to a value of type `{}`",
                            self.types.display(*ty),
                            self.types.display(i_ty)
                        ),
                        expr.span,
                    ));
                }
                Ok((self.coerce(it, i_ty, *ty, expr.span), *ty))
            }
        }
    }
}

/// The join (least upper bound with respect to precision `<:n`) of two
/// consistent types; `None` if the types are inconsistent.
fn join(a: &Type, b: &Type) -> Option<Type> {
    match (a, b) {
        (Type::Dyn, _) | (_, Type::Dyn) => Some(Type::Dyn),
        (Type::Base(x), Type::Base(y)) => (x == y).then(|| a.clone()),
        (Type::Fun(a1, a2), Type::Fun(b1, b2)) => Some(Type::fun(join(a1, b1)?, join(a2, b2)?)),
        _ => None,
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
            // The compiled term is well-typed in place, at the program
            // type, with no tree ever built.
            assert_eq!(
                bc_lambda_b::type_of_compiled(&compiled.term, &mut types),
                Ok(compiled.ty),
                "on {src}"
            );
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
