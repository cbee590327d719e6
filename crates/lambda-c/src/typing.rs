//! The type system `Γ ⊢ M : A` of the coercion calculi λC (Figure 3)
//! and λS (Figure 5).
//!
//! The two calculi type terms alike and differ only in their
//! coercions, so one checker serves both: it is generic over a
//! coercion type with the judgment `c : A ⇒ B` ([`TypedCoercion`]),
//! which λC's [`Coercion`] implements here and λS's canonical
//! coercions implement in `bc_core::typing`. [`type_of`] synthesises
//! a type; [`has_type`] checks one, and differs from synthesis exactly
//! where the paper's typing is not syntax-directed (`blame p` has
//! every type, and a coercion containing `⊥` every target).

use std::fmt;

use bc_syntax::term::{CastForm, Term};
use bc_syntax::{Name, Type};

use crate::coercion::Coercion;

/// A coercion type with the typing judgment `c : A ⇒ B`.
pub trait TypedCoercion: CastForm + fmt::Display {
    /// Synthesises `c : A ⇒ B` when the coercion contains no failure.
    fn synthesize(&self) -> Option<(Type, Type)>;

    /// Checks the judgment `c : source ⇒ target`.
    fn check(&self, source: &Type, target: &Type) -> bool;

    /// A type `B` with `c : A ⇒ B` for some `A`; a failure `⊥GpH`
    /// contributes its named ground `H` where the true target is
    /// unconstrained.
    fn target_representative(&self) -> Type;
}

impl TypedCoercion for Coercion {
    fn synthesize(&self) -> Option<(Type, Type)> {
        Coercion::synthesize(self)
    }

    fn check(&self, source: &Type, target: &Type) -> bool {
        Coercion::check(self, source, target)
    }

    fn target_representative(&self) -> Type {
        Coercion::target_representative(self)
    }
}

/// A typing error for λC and λS terms.
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
        /// What was being checked.
        context: &'static str,
    },
    /// The function position of an application was not a function.
    NotAFunction(Type),
    /// A coercion application `M⟨c⟩` where `c` does not coerce from
    /// `M`'s type to any type consistent with the context.
    BadCoercion {
        /// The subject's type.
        subject: Type,
        /// Rendering of the offending coercion.
        coercion: String,
    },
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
            TypeError::BadCoercion { subject, coercion } => {
                write!(
                    f,
                    "coercion `{coercion}` cannot be applied to a term of type `{subject}`"
                )
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Computes the type of a closed term: `⊢ M : A`.
///
/// For coercion applications `M⟨c⟩`, the target type is synthesised
/// from `c` when possible; a coercion containing `⊥` (whose target is
/// unconstrained) is checked against the demands of its context — at
/// the top level we give `⊥`-targets the ground type they name, which
/// matches the λS canonical forms.
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of<K: TypedCoercion>(term: &Term<K>) -> Result<Type, TypeError> {
    type_of_in(&mut Vec::new(), term)
}

/// Computes the type of a term in an environment.
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of_in<K: TypedCoercion>(
    env: &mut Vec<(Name, Type)>,
    term: &Term<K>,
) -> Result<Type, TypeError> {
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
                if !check_in(env, arg, &param.ty()) {
                    let found = type_of_in(env, arg)?;
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
                    if *dom == mt || check_in(env, m, &dom) {
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
            match c.synthesize() {
                Some((src, tgt)) => {
                    if src == mt || check_in(env, m, &src) {
                        Ok(tgt)
                    } else {
                        Err(TypeError::Mismatch {
                            expected: src,
                            found: mt,
                            context: "coercion source",
                        })
                    }
                }
                None => {
                    // The coercion contains ⊥; check the source side
                    // and resolve the unconstrained positions of the
                    // target with the coercion's representative type.
                    let tgt = c.target_representative();
                    if c.check(&mt, &tgt) {
                        Ok(tgt)
                    } else {
                        Err(TypeError::BadCoercion {
                            subject: mt,
                            coercion: c.to_string(),
                        })
                    }
                }
            }
        }
        Term::Blame(_, ty) => Ok(ty.clone()),
        Term::If(cond, then_, else_) => {
            if !check_in(env, cond, &Type::BOOL) {
                let ct = type_of_in(env, cond)?;
                return Err(TypeError::Mismatch {
                    expected: Type::BOOL,
                    found: ct,
                    context: "if condition",
                });
            }
            let tt = type_of_in(env, then_)?;
            let et = type_of_in(env, else_)?;
            if tt == et || check_in(env, else_, &tt) {
                Ok(tt)
            } else if check_in(env, then_, &et) {
                Ok(et)
            } else {
                Err(TypeError::Mismatch {
                    expected: tt,
                    found: et,
                    context: "if branches",
                })
            }
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
                env.push((f.clone(), fun_ty.clone()));
                env.push((x.clone(), dom.clone()));
                let ok = check_in(env, body, cod);
                env.pop();
                env.pop();
                if !ok {
                    return Err(TypeError::Mismatch {
                        expected: cod.clone(),
                        found: bt,
                        context: "fix body",
                    });
                }
            }
            Ok(fun_ty)
        }
    }
}

/// The *checking* judgment `⊢ M : A` for a given `A`.
///
/// Differs from [`type_of`] (which synthesises a representative type)
/// exactly where the paper's typing is not syntax-directed: `blame p`
/// has every type, and `⊥GpH` coerces to every target. Preservation
/// (Proposition 3) holds for this judgment.
pub fn has_type<K: TypedCoercion>(term: &Term<K>, ty: &Type) -> bool {
    check_in(&mut Vec::new(), term, ty)
}

fn check_in<K: TypedCoercion>(
    env: &mut Vec<(Name, Type)>,
    term: &Term<K>,
    expected: &Type,
) -> bool {
    match term {
        // blame p : A for every A.
        Term::Blame(_, _) => true,
        Term::Coerce(m, c) => {
            if let Some((src, tgt)) = c.synthesize() {
                tgt == *expected && check_in(env, m, &src)
            } else {
                // ⊥ leaves the target unconstrained: use the
                // relational judgment against the expected type.
                match type_of_in(env, m) {
                    Ok(mt) => c.check(&mt, expected),
                    Err(_) => false,
                }
            }
        }
        Term::If(c, t, e) => {
            check_in(env, c, &Type::BOOL)
                && check_in(env, t, expected)
                && check_in(env, e, expected)
        }
        Term::Lam(x, dom, body) => match expected {
            Type::Fun(d, c) => {
                if **d != *dom {
                    return false;
                }
                env.push((x.clone(), dom.clone()));
                let ok = check_in(env, body, c);
                env.pop();
                ok
            }
            _ => false,
        },
        Term::Fix(f, x, dom, cod, body) => {
            let fun_ty = Type::fun(dom.clone(), cod.clone());
            if fun_ty != *expected {
                return false;
            }
            env.push((f.clone(), fun_ty));
            env.push((x.clone(), dom.clone()));
            let ok = check_in(env, body, cod);
            env.pop();
            env.pop();
            ok
        }
        Term::Let(x, m, n) => match type_of_in(env, m) {
            Ok(mt) => {
                env.push((x.clone(), mt));
                let ok = check_in(env, n, expected);
                env.pop();
                ok
            }
            Err(_) => false,
        },
        Term::App(l, m) => {
            if let Ok(Type::Fun(d, c)) = type_of_in(env, l) {
                if *c == *expected && check_in(env, m, &d) {
                    return true;
                }
            }
            // The function may be a ⊥-coerced term whose synthesised
            // type is only a representative: check it against the
            // function type demanded by the argument and the context.
            match type_of_in(env, m) {
                Ok(mt) => check_in(env, l, &Type::fun(mt, expected.clone())),
                Err(_) => false,
            }
        }
        // Synthesising forms: fall back to equality.
        Term::Op(op, args) => {
            let (params, result) = op.signature();
            result.ty() == *expected
                && params.len() == args.len()
                && params
                    .iter()
                    .zip(args)
                    .all(|(param, arg)| check_in(env, arg, &param.ty()))
        }
        _ => type_of_in(env, term).is_ok_and(|t| t == *expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Ground, Label};

    type Term = crate::Term;

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }

    #[test]
    fn coercion_application_types() {
        let m = Term::int(1).coerce(Coercion::inj(gi()));
        assert_eq!(type_of(&m), Ok(Type::DYN));
        let m2 = m.coerce(Coercion::proj(gi(), Label::new(0)));
        assert_eq!(type_of(&m2), Ok(Type::INT));
    }

    #[test]
    fn coercion_source_mismatch_is_rejected() {
        let m = Term::bool(true).coerce(Coercion::inj(gi()));
        assert!(matches!(type_of(&m), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn failure_coercions_type_check() {
        let c = Coercion::fail(gi(), Label::new(0), Ground::Base(BaseType::Bool));
        let m = Term::int(1).coerce(c);
        assert_eq!(type_of(&m), Ok(Type::BOOL));
    }

    #[test]
    fn composition_types_through_the_middle() {
        let c = Coercion::inj(gi()).seq(Coercion::proj(gi(), Label::new(0)));
        let m = Term::int(1).coerce(c);
        assert_eq!(type_of(&m), Ok(Type::INT));
    }
}
