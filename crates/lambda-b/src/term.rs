//! Terms of the blame calculus (Figure 1).

use std::fmt;
use std::rc::Rc;

use bc_syntax::{Constant, Label, Name, Op, Type};

/// A cast annotation `A ⇒p B`: source type, blame label, target type.
///
/// The types must be compatible (`A ∼ B`) for the cast to be well
/// formed; this is enforced by the type checker, not the constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct Cast {
    /// The source type `A`.
    pub source: Type,
    /// The blame label `p` decorating the cast.
    pub label: Label,
    /// The target type `B`.
    pub target: Type,
}

impl Cast {
    /// Creates the cast annotation `source ⇒label target`.
    pub fn new(source: Type, label: Label, target: Type) -> Cast {
        Cast {
            source,
            label,
            target,
        }
    }
}

impl fmt::Display for Cast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ={}=> {}", self.source, self.label, self.target)
    }
}

/// Terms `L, M, N` of λB.
///
/// The grammar of Figure 1 — constants, operator applications,
/// variables, abstractions, applications, casts, and `blame p` —
/// extended with `if`, `let`, and `fix`: standard constructs that the
/// paper's grammar leaves out, and that recursive programs such as its
/// even/odd example need. Subterms are reference counted so cloning
/// during substitution is cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A constant `k`.
    Const(Constant),
    /// An operator application `op(M₁, …, Mₙ)`.
    Op(Op, Vec<Term>),
    /// A variable `x`.
    Var(Name),
    /// An abstraction `λx:A. N`.
    Lam(Name, Type, Rc<Term>),
    /// An application `L M`.
    App(Rc<Term>, Rc<Term>),
    /// A cast `M : A ⇒p B`.
    Cast(Rc<Term>, Cast),
    /// Allocated blame `blame p`. Carries its type so that typing
    /// stays syntax-directed (the paper gives `blame p` every type).
    Blame(Label, Type),
    /// A conditional `if L then M else N`.
    If(Rc<Term>, Rc<Term>, Rc<Term>),
    /// A let binding `let x = M in N`.
    Let(Name, Rc<Term>, Rc<Term>),
    /// A recursive function `fix f (x:A):B. N`, a value of type
    /// `A → B`; `f` is bound to the whole `fix` in `N`.
    Fix(Name, Name, Type, Type, Rc<Term>),
}

impl Term {
    /// An integer constant.
    pub fn int(n: i64) -> Term {
        Term::Const(Constant::Int(n))
    }

    /// A boolean constant.
    pub fn bool(b: bool) -> Term {
        Term::Const(Constant::Bool(b))
    }

    /// A variable.
    pub fn var(name: &str) -> Term {
        Term::Var(Name::from(name))
    }

    /// An abstraction `λname:ty. body`.
    pub fn lam(name: &str, ty: Type, body: Term) -> Term {
        Term::Lam(Name::from(name), ty, Rc::new(body))
    }

    /// An application `self arg`.
    #[must_use]
    pub fn app(self, arg: Term) -> Term {
        Term::App(Rc::new(self), Rc::new(arg))
    }

    /// The cast `self : source ⇒label target`.
    #[must_use]
    pub fn cast(self, source: Type, label: Label, target: Type) -> Term {
        Term::Cast(Rc::new(self), Cast::new(source, label, target))
    }

    /// A binary operator application.
    pub fn op2(op: Op, lhs: Term, rhs: Term) -> Term {
        Term::Op(op, vec![lhs, rhs])
    }

    /// A conditional `if cond then then_ else else_`.
    pub fn ite(cond: Term, then_: Term, else_: Term) -> Term {
        Term::If(Rc::new(cond), Rc::new(then_), Rc::new(else_))
    }

    /// A let binding `let name = bound in body`.
    pub fn let_(name: &str, bound: Term, body: Term) -> Term {
        Term::Let(Name::from(name), Rc::new(bound), Rc::new(body))
    }

    /// A recursive function `fix fun (arg:dom):cod. body`.
    pub fn fix(fun: &str, arg: &str, dom: Type, cod: Type, body: Term) -> Term {
        Term::Fix(Name::from(fun), Name::from(arg), dom, cod, Rc::new(body))
    }

    /// Whether the term is a value `V` (Figure 1): a constant, an
    /// abstraction (or `fix`), a cast of a value between function
    /// types, or a cast of a value from a ground type to `?`.
    pub fn is_value(&self) -> bool {
        match self {
            Term::Const(_) | Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _) => true,
            Term::Cast(m, c) => {
                m.is_value()
                    && match (&c.source, &c.target) {
                        (Type::Fun(_, _), Type::Fun(_, _)) => true,
                        (src, Type::Dyn) => src.is_ground(),
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// The number of syntax nodes in the term (types not counted).
    pub fn size(&self) -> usize {
        match self {
            Term::Const(_) | Term::Var(_) | Term::Blame(_, _) => 1,
            Term::Op(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => 1 + b.size(),
            Term::Cast(m, _) => 1 + m.size(),
            Term::App(a, b) | Term::Let(_, a, b) => 1 + a.size() + b.size(),
            Term::If(a, b, c) => 1 + a.size() + b.size() + c.size(),
        }
    }

    /// The number of cast nodes in the term — the quantity that grows
    /// without bound in the space-leak examples of §1.
    pub fn cast_count(&self) -> usize {
        match self {
            Term::Const(_) | Term::Var(_) | Term::Blame(_, _) => 0,
            Term::Op(_, args) => args.iter().map(Term::cast_count).sum(),
            Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => b.cast_count(),
            Term::Cast(m, _) => 1 + m.cast_count(),
            Term::App(a, b) | Term::Let(_, a, b) => a.cast_count() + b.cast_count(),
            Term::If(a, b, c) => a.cast_count() + b.cast_count() + c.cast_count(),
        }
    }

    /// Every blame label mentioned by a cast or `blame` node in the
    /// term, in syntactic order (with duplicates).
    pub fn labels(&self) -> Vec<Label> {
        fn go(t: &Term, out: &mut Vec<Label>) {
            match t {
                Term::Const(_) | Term::Var(_) => {}
                Term::Blame(p, _) => out.push(*p),
                Term::Op(_, args) => args.iter().for_each(|a| go(a, out)),
                Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => go(b, out),
                Term::Cast(m, c) => {
                    go(m, out);
                    out.push(c.label);
                }
                Term::App(a, b) | Term::Let(_, a, b) => {
                    go(a, out);
                    go(b, out);
                }
                Term::If(a, b, c) => {
                    go(a, out);
                    go(b, out);
                    go(c, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }
}

impl From<Constant> for Term {
    fn from(k: Constant) -> Term {
        Term::Const(k)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(k) => write!(f, "{k}"),
            Term::Var(x) => write!(f, "{x}"),
            Term::Op(op, args) => {
                write!(f, "{op}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Term::Lam(x, ty, b) => write!(f, "(fun ({x} : {ty}) => {b})"),
            Term::App(a, b) => write!(f, "({a} {b})"),
            Term::Cast(m, c) => write!(f, "({m} : {c})"),
            Term::Blame(p, _) => write!(f, "blame {p}"),
            Term::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Term::Let(x, m, n) => write!(f, "(let {x} = {m} in {n})"),
            Term::Fix(g, x, dom, cod, b) => {
                write!(f, "(fix {g} ({x} : {dom}) : {cod} => {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::Label;

    #[test]
    fn value_recognition() {
        let p = Label::new(0);
        assert!(Term::int(1).is_value());
        assert!(Term::lam("x", Type::INT, Term::var("x")).is_value());
        // Injection from ground type is a value.
        assert!(Term::int(1).cast(Type::INT, p, Type::DYN).is_value());
        // Function-to-function cast of a value is a value.
        let id = Term::lam("x", Type::INT, Term::var("x"));
        let ii = Type::fun(Type::INT, Type::INT);
        assert!(id
            .clone()
            .cast(ii.clone(), p, Type::fun(Type::DYN, Type::INT))
            .is_value());
        // A base-to-base cast is a redex, not a value.
        assert!(!Term::int(1).cast(Type::INT, p, Type::INT).is_value());
        // A cast from a non-ground type to ? is a redex (it factors).
        assert!(!id.cast(ii, p, Type::DYN).is_value());
        // Applications are never values.
        assert!(!Term::var("f").app(Term::int(1)).is_value());
    }

    #[test]
    fn size_and_cast_count() {
        let p = Label::new(0);
        let m = Term::int(1)
            .cast(Type::INT, p, Type::DYN)
            .cast(Type::DYN, p, Type::INT);
        assert_eq!(m.size(), 3);
        assert_eq!(m.cast_count(), 2);
        assert_eq!(m.labels(), vec![p, p]);
    }

    #[test]
    fn display() {
        let p = Label::new(7);
        let m = Term::int(1).cast(Type::INT, p, Type::DYN);
        assert_eq!(m.to_string(), "(1 : Int =p7=> ?)");
    }
}
