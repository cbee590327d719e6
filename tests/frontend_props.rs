//! Property tests for the interned front end: on random programs —
//! well-typed *and* ill-typed — the compiled elaboration agrees with
//! its tree oracle, verdict for verdict, type for type, error for error.
//!
//! * GTLC: `elaborate_compiled ≡ elaborate` — `decompile` of the
//!   compiled λB term is the tree term, with the same type, the same
//!   blame spans, and byte-identical `Diagnostic`s on rejection.
//!
//! Each case runs its comparison twice against the same arena, so the
//! warm path (every verdict a memo hit, every annotation already
//! interned) is exercised as densely as the cold one.

use bc_gtlc::ast::{Expr, ExprI, ExprKind};
use bc_gtlc::diagnostics::Span;
use bc_gtlc::{elaborate, elaborate_compiled, Diagnostic, Program};
use bc_lambda_b::bterm;
use bc_syntax::{Op, Type, TypeArena, TypeId};
use proptest::prelude::*;

/// A deterministic chooser for surface-expression shapes.
struct Chooser(u64);

impl Chooser {
    fn new(seed: u64) -> Chooser {
        Chooser(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }

    fn flip(&mut self) -> bool {
        self.pick(2) == 0
    }
}

// ---------------------------------------------------------------------
// GTLC surface expressions
// ---------------------------------------------------------------------

/// A random surface expression — deliberately *not* restricted to
/// well-typed shapes: unbound variables, inconsistent ascriptions,
/// non-function applications, and bad operator arguments all occur, so
/// the diagnostic paths are compared as densely as the success paths.
struct ExprGen {
    chooser: Chooser,
    offset: usize,
}

impl ExprGen {
    fn new(seed: u64) -> ExprGen {
        ExprGen {
            chooser: Chooser::new(seed),
            offset: 0,
        }
    }

    /// Every node gets a distinct span, so diagnostics are traceable
    /// to the node that raised them (and span equality is meaningful).
    fn span(&mut self) -> Span {
        let at = self.offset;
        self.offset += 2;
        Span::new(at, at + 1)
    }

    fn ty(&mut self, depth: usize) -> Type {
        match self.chooser.pick(if depth == 0 { 3 } else { 4 }) {
            0 => Type::INT,
            1 => Type::BOOL,
            2 => Type::DYN,
            _ => Type::fun(self.ty(depth - 1), self.ty(depth - 1)),
        }
    }

    fn expr(&mut self, vars: &mut Vec<String>, depth: usize) -> Expr {
        let span = self.span();
        if depth == 0 {
            let kind = match self.chooser.pick(4) {
                0 => ExprKind::Int(self.chooser.pick(9) as i64 - 4),
                1 => ExprKind::Bool(self.chooser.flip()),
                // A variable in scope when one exists…
                2 if !vars.is_empty() => ExprKind::Var(vars[self.chooser.pick(vars.len())].clone()),
                // …and occasionally one that is not.
                _ => ExprKind::Var("free".to_owned()),
            };
            return Expr::new(kind, span);
        }
        let kind = match self.chooser.pick(9) {
            0 => {
                let param = format!("v{}", vars.len());
                let ty = self.ty(1);
                vars.push(param.clone());
                let body = self.expr(vars, depth - 1);
                vars.pop();
                ExprKind::Lam {
                    param,
                    ty,
                    body: body.into(),
                }
            }
            1 => ExprKind::App(
                self.expr(vars, depth - 1).into(),
                self.expr(vars, depth - 1).into(),
            ),
            2 => {
                let op = [Op::Add, Op::Sub, Op::Eq, Op::Lt][self.chooser.pick(4)];
                let args = (0..op.signature().0.len())
                    .map(|_| self.expr(vars, depth - 1))
                    .collect();
                ExprKind::Prim(op, args)
            }
            3 => ExprKind::If(
                self.expr(vars, depth - 1).into(),
                self.expr(vars, depth - 1).into(),
                self.expr(vars, depth - 1).into(),
            ),
            4 | 5 => {
                let name = format!("v{}", vars.len());
                let ty = self.chooser.flip().then(|| self.ty(1));
                let bound = self.expr(vars, depth - 1);
                vars.push(name.clone());
                let body = self.expr(vars, depth - 1);
                vars.pop();
                ExprKind::Let {
                    name,
                    ty,
                    bound: bound.into(),
                    body: body.into(),
                }
            }
            6 => {
                let name = format!("f{}", vars.len());
                let param = format!("v{}", vars.len() + 1);
                let param_ty = self.ty(1);
                let result_ty = self.ty(1);
                vars.push(name.clone());
                vars.push(param.clone());
                let fun_body = self.expr(vars, depth - 1);
                vars.pop();
                let body = self.expr(vars, depth - 1);
                vars.pop();
                ExprKind::Letrec {
                    name,
                    param,
                    param_ty,
                    result_ty,
                    fun_body: fun_body.into(),
                    body: body.into(),
                }
            }
            _ => {
                let inner = self.expr(vars, depth - 1);
                let ty = self.ty(1);
                ExprKind::Ascribe(inner.into(), ty)
            }
        };
        Expr::new(kind, span)
    }
}

/// Interns every annotation of a tree-annotated expression: the
/// `ExprI` the intern-at-parse parser would build for the same source.
fn intern_expr(expr: &Expr, types: &mut TypeArena) -> ExprI {
    let mut boxed = |e: &Expr| Box::new(intern_expr(e, types));
    let kind = match &expr.kind {
        ExprKind::Int(n) => ExprKind::Int(*n),
        ExprKind::Bool(b) => ExprKind::Bool(*b),
        ExprKind::Var(x) => ExprKind::Var(x.clone()),
        ExprKind::Lam { param, ty, body } => ExprKind::Lam {
            param: param.clone(),
            body: boxed(body),
            ty: types.intern(ty),
        },
        ExprKind::App(f, a) => ExprKind::App(boxed(f), boxed(a)),
        ExprKind::Prim(op, args) => {
            ExprKind::Prim(*op, args.iter().map(|a| intern_expr(a, types)).collect())
        }
        ExprKind::If(c, t, e) => ExprKind::If(boxed(c), boxed(t), boxed(e)),
        ExprKind::Let {
            name,
            ty,
            bound,
            body,
        } => ExprKind::Let {
            name: name.clone(),
            bound: boxed(bound),
            body: boxed(body),
            ty: ty.as_ref().map(|t| types.intern(t)),
        },
        ExprKind::Letrec {
            name,
            param,
            param_ty,
            result_ty,
            fun_body,
            body,
        } => ExprKind::Letrec {
            name: name.clone(),
            param: param.clone(),
            fun_body: boxed(fun_body),
            body: boxed(body),
            param_ty: types.intern(param_ty),
            result_ty: types.intern(result_ty),
        },
        ExprKind::Ascribe(e, ty) => ExprKind::Ascribe(boxed(e), types.intern(ty)),
    };
    Expr::new(kind, expr.span)
}

/// The compiled elaboration agrees with the tree one: `decompile` of
/// the λB term is the tree term, with the same type and blame spans,
/// or the same `Diagnostic` on rejection.
fn assert_same_elaboration(
    tree: Result<Program, Diagnostic>,
    compiled: Result<Program<TypeId>, Diagnostic>,
    types: &TypeArena,
    what: &str,
) {
    match (tree, compiled) {
        (Ok(p), Ok(pc)) => {
            assert_eq!(
                bterm::decompile(&pc.term, types),
                p.term,
                "elaborated terms diverged on {what}"
            );
            assert_eq!(
                types.resolve(pc.ty),
                p.ty,
                "program types diverged on {what}"
            );
            assert_eq!(
                pc.blame_spans, p.blame_spans,
                "blame spans diverged on {what}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "diagnostics diverged on {what}"),
        (tree, compiled) => {
            panic!("verdicts diverged on {what}: tree {tree:?}, compiled {compiled:?}")
        }
    }
}

fn assert_elaborations_equivalent(expr: &Expr, types: &mut TypeArena) {
    let interned = intern_expr(expr, types);
    let compiled = elaborate_compiled(&interned, types);
    assert_same_elaboration(elaborate(expr), compiled, types, "a generated expression");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// GTLC: `elaborate_compiled ≡ elaborate` on random surface
    /// expressions (well- and ill-typed alike), cold and warm.
    #[test]
    fn elaborations_agree(seed in any::<u64>()) {
        let mut vars = Vec::new();
        let expr = ExprGen::new(seed).expr(&mut vars, 4);
        let mut types = TypeArena::new();
        assert_elaborations_equivalent(&expr, &mut types);
        assert_elaborations_equivalent(&expr, &mut types);
    }
}

/// The corpus of concrete sources the integration tests compile —
/// `compile_compiled` must agree with `compile` on every one, including
/// the rejects, cold and warm. The rejects cover all nine of the
/// elaborator's diagnostics.
#[test]
fn compile_in_agrees_with_compile_on_the_corpus() {
    let sources = [
        "1 + 2 * 3",
        "let f = fun (x : Int) => x + 1 in f 41",
        "let f = fun x => x + 1 in f 41",
        "let f = fun x => x + 1 in f true",
        "letrec even (n : Int) : Bool = \
           if n = 0 then true else \
           if n = 1 then false else even (n - 2) \
         in even 10",
        "if true then 1 else (2 : ?)",
        "if true then fun (x:Int) => x else fun y => (y : Int)",
        "(fun (f : ? -> ?) => f 1) (fun x => x)",
        "(fun (x : Int) => x) ((true : ?) : Int)",
        // Rejects:
        "1 + true",
        "(fun (x : Int) => x) true",
        "if 1 then 2 else 3",
        "(true : Int)",
        "x",
        "1 2",
        "if true then 1 else false",
        "let b : Bool = 1 in b",
        "letrec f (n : Int) : Bool = n + 1 in f 0",
    ];
    let mut types = TypeArena::new();
    for _warm in 0..2 {
        let mut messages = std::collections::BTreeSet::new();
        for source in sources {
            let compiled = bc_gtlc::compile_compiled(source, &mut types);
            if let Err(d) = &compiled {
                // The message with its quoted names and types cut out.
                messages.insert(d.message.split('`').step_by(2).collect::<String>());
            }
            let tree = bc_gtlc::compile(source);
            if let Ok(p) = &tree {
                // The elaborated term is well typed at the program type.
                assert_eq!(
                    bc_lambda_b::type_of(&p.term),
                    Ok(p.ty.clone()),
                    "on {source}"
                );
            }
            assert_same_elaboration(tree, compiled, &types, source);
        }
        assert_eq!(messages.len(), 9, "one reject per diagnostic: {messages:?}");
    }
}
