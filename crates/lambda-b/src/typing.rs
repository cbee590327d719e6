//! The type system `Γ ⊢B M : A` of the blame calculus (Figure 1).

use std::fmt;

use bc_syntax::{Name, Type};

use crate::term::Term;

/// A typing error, produced when a term is not well typed.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A variable was not bound in the environment.
    UnboundVariable(Name),
    /// An operator was applied to the wrong number of arguments.
    OpArity {
        /// The operator's name.
        op: &'static str,
        /// Number of arguments expected.
        expected: usize,
        /// Number of arguments found.
        found: usize,
    },
    /// A term had a different type than required by its context.
    Mismatch {
        /// The type required by the context.
        expected: Type,
        /// The type the term actually has.
        found: Type,
        /// What was being checked (for diagnostics).
        context: &'static str,
    },
    /// The function position of an application was not a function.
    NotAFunction(Type),
    /// A cast between incompatible types (`A ≁ B`).
    Incompatible(Type, Type),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::OpArity {
                op,
                expected,
                found,
            } => write!(
                f,
                "operator `{op}` expects {expected} arguments, found {found}"
            ),
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected `{expected}`, found `{found}`"
            ),
            TypeError::NotAFunction(t) => write!(f, "cannot apply a term of type `{t}`"),
            TypeError::Incompatible(a, b) => {
                write!(f, "cast between incompatible types `{a}` and `{b}`")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Computes the type of a closed term: `⊢B M : A`.
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of(term: &Term) -> Result<Type, TypeError> {
    type_of_in(&mut Vec::new(), term)
}

/// Computes the type of a term in an environment: `Γ ⊢B M : A`.
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of_in(env: &mut Vec<(Name, Type)>, term: &Term) -> Result<Type, TypeError> {
    match term {
        Term::Const(k) => Ok(k.base_type().ty()),
        Term::Var(x) => env
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| t.clone())
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        Term::Op(op, args) => {
            let (params, result) = op.signature();
            if params.len() != args.len() {
                return Err(TypeError::OpArity {
                    op: op.name(),
                    expected: params.len(),
                    found: args.len(),
                });
            }
            for (param, arg) in params.iter().zip(args) {
                let found = type_of_in(env, arg)?;
                if found != param.ty() {
                    return Err(TypeError::Mismatch {
                        expected: param.ty(),
                        found,
                        context: "operator argument",
                    });
                }
            }
            Ok(result.ty())
        }
        Term::Lam(x, dom, body) => {
            env.push((x.clone(), dom.clone()));
            let cod = type_of_in(env, body);
            env.pop();
            Ok(Type::fun(dom.clone(), cod?))
        }
        Term::App(l, m) => {
            let lt = type_of_in(env, l)?;
            let mt = type_of_in(env, m)?;
            match lt {
                Type::Fun(dom, cod) => {
                    if *dom == mt {
                        Ok((*cod).clone())
                    } else {
                        Err(TypeError::Mismatch {
                            expected: (*dom).clone(),
                            found: mt,
                            context: "function argument",
                        })
                    }
                }
                other => Err(TypeError::NotAFunction(other)),
            }
        }
        Term::Coerce(m, c) => {
            let mt = type_of_in(env, m)?;
            if mt != c.source {
                return Err(TypeError::Mismatch {
                    expected: c.source.clone(),
                    found: mt,
                    context: "cast source",
                });
            }
            if !c.source.compatible(&c.target) {
                return Err(TypeError::Incompatible(c.source.clone(), c.target.clone()));
            }
            Ok(c.target.clone())
        }
        Term::Blame(_, ty) => Ok(ty.clone()),
        Term::If(cond, then_, else_) => {
            let ct = type_of_in(env, cond)?;
            if ct != Type::BOOL {
                return Err(TypeError::Mismatch {
                    expected: Type::BOOL,
                    found: ct,
                    context: "if condition",
                });
            }
            let tt = type_of_in(env, then_)?;
            let et = type_of_in(env, else_)?;
            if tt != et {
                return Err(TypeError::Mismatch {
                    expected: tt,
                    found: et,
                    context: "if branches",
                });
            }
            Ok(tt)
        }
        Term::Let(x, m, n) => {
            let mt = type_of_in(env, m)?;
            env.push((x.clone(), mt));
            let nt = type_of_in(env, n);
            env.pop();
            nt
        }
        Term::Fix(f, x, dom, cod, body) => {
            let fun_ty = Type::fun(dom.clone(), cod.clone());
            env.push((f.clone(), fun_ty.clone()));
            env.push((x.clone(), dom.clone()));
            let bt = type_of_in(env, body);
            env.pop();
            env.pop();
            let bt = bt?;
            if bt != *cod {
                return Err(TypeError::Mismatch {
                    expected: cod.clone(),
                    found: bt,
                    context: "fix body",
                });
            }
            Ok(fun_ty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{Label, Op};

    #[test]
    fn constants_and_ops() {
        assert_eq!(type_of(&Term::int(1)), Ok(Type::INT));
        assert_eq!(
            type_of(&Term::op2(Op::Add, Term::int(1), Term::int(2))),
            Ok(Type::INT)
        );
        assert_eq!(
            type_of(&Term::op2(Op::Lt, Term::int(1), Term::int(2))),
            Ok(Type::BOOL)
        );
        assert!(matches!(
            type_of(&Term::op2(Op::Add, Term::int(1), Term::bool(true))),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn lambda_and_application() {
        let id = Term::lam("x", Type::INT, Term::var("x"));
        assert_eq!(type_of(&id), Ok(Type::fun(Type::INT, Type::INT)));
        assert_eq!(type_of(&id.clone().app(Term::int(1))), Ok(Type::INT));
        assert!(matches!(
            type_of(&id.app(Term::bool(true))),
            Err(TypeError::Mismatch { .. })
        ));
        assert!(matches!(
            type_of(&Term::int(1).app(Term::int(2))),
            Err(TypeError::NotAFunction(_))
        ));
    }

    #[test]
    fn cast_typing() {
        let p = Label::new(0);
        let m = Term::int(1).cast(Type::INT, p, Type::DYN);
        assert_eq!(type_of(&m), Ok(Type::DYN));
        // Incompatible cast is rejected.
        let bad = Term::int(1).cast(Type::INT, p, Type::BOOL);
        assert_eq!(
            type_of(&bad),
            Err(TypeError::Incompatible(Type::INT, Type::BOOL))
        );
        // Source type must match the term's type.
        let bad2 = Term::int(1).cast(Type::BOOL, p, Type::DYN);
        assert!(matches!(type_of(&bad2), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn blame_has_its_annotated_type() {
        let p = Label::new(0);
        assert_eq!(type_of(&Term::Blame(p, Type::BOOL)), Ok(Type::BOOL));
    }

    #[test]
    fn unique_type_without_blame() {
        // Every well-typed term not containing blame has a unique
        // type; our checker is syntax-directed so this is immediate,
        // but we verify the canonical example.
        let id_dyn = Term::lam("x", Type::DYN, Term::var("x"));
        assert_eq!(type_of(&id_dyn), Ok(Type::fun(Type::DYN, Type::DYN)));
    }

    #[test]
    fn fix_typing() {
        // fix f (x:Int):Int. f x   — well typed, type Int → Int.
        let t = Term::fix(
            "f",
            "x",
            Type::INT,
            Type::INT,
            Term::var("f").app(Term::var("x")),
        );
        assert_eq!(type_of(&t), Ok(Type::fun(Type::INT, Type::INT)));
        // Body type must match the declared codomain.
        let bad = Term::fix("f", "x", Type::INT, Type::BOOL, Term::var("x"));
        assert!(matches!(type_of(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn let_and_if() {
        let t = Term::let_(
            "x",
            Term::int(2),
            Term::ite(
                Term::op2(Op::Lt, Term::var("x"), Term::int(3)),
                Term::var("x"),
                Term::int(0),
            ),
        );
        assert_eq!(type_of(&t), Ok(Type::INT));
        let bad = Term::ite(Term::int(1), Term::int(2), Term::int(3));
        assert!(matches!(type_of(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn shadowing_uses_innermost_binding() {
        let t = Term::lam("x", Type::INT, Term::lam("x", Type::BOOL, Term::var("x")));
        assert_eq!(
            type_of(&t),
            Ok(Type::fun(Type::INT, Type::fun(Type::BOOL, Type::BOOL)))
        );
    }
}
