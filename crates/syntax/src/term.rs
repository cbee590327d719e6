//! The term grammar shared by λB, λC and λS (Figures 1, 3 and 5), in
//! tree and compiled form.
//!
//! The three calculi have one grammar and differ in one form only:
//! λB's cast `M : A ⇒p B`, λC's coercion application `M⟨c⟩` and λS's
//! `M⟨s⟩` with a canonical coercion `s`. [`Term<K, T>`] is that grammar
//! with the cast form as its parameter `K` and the type annotation as
//! `T`, in the style of Najd and Peyton Jones, "Trees that Grow"
//! (2017). Each calculus is an instance: the trees annotate with
//! [`Type`] (`bc_lambda_b::Term = Term<Cast>`, `bc_lambda_c::Term =
//! Term<Coercion>`, `bc_core::Term = Term<SpaceCoercion>`), and the
//! compiled forms with interned [`TypeId`](crate::TypeId)s
//! (`bc_lambda_b::BTerm = Term<Cast<TypeId>, TypeId>`,
//! `bc_lambda_c::CTerm = Term<CCoercionId, TypeId>`). What they share
//! is written once here: the constructors, values, the size metrics,
//! display, capture-avoiding [`subst`]itution and the order-preserving
//! [`Term::map`] that the translations `|·|BC`, `|·|CS` and `|·|SC`
//! and the compile and decompile of λB are. The spine is `Rc`, so
//! cloning a term is a reference-count increment.
//!
//! A cast form says, through [`CastForm`], what it adds to a term's
//! size, which labels it mentions, when a value under it is a value,
//! and how it prints.
//!
//! ```
//! use bc_syntax::term::{subst, Term, Cast};
//! use bc_syntax::{Label, Name, Type};
//!
//! // (x : Int ⇒p7 ?)[x := 1] = (1 : Int ⇒p7 ?), a value of λB.
//! let m = Term::<Cast>::var("x").cast(Type::INT, Label::new(7), Type::DYN);
//! let v = subst(&m, &Name::from("x"), &Term::int(1));
//! assert!(v.is_value());
//! assert_eq!(v.to_string(), "(1 : Int =p7=> ?)");
//! ```

use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::fresh::fresh_avoiding;
use crate::{Constant, Label, Name, Op, Type};

/// What a calculus puts in the cast position `M⟨K⟩` of [`Term<K>`].
pub trait CastForm: Sized {
    /// The syntax nodes the cast adds to [`Term::size`] beyond its own
    /// node (0 for a λB cast, whose types are not counted).
    fn node_size(&self) -> usize;

    /// Appends the blame labels the cast mentions, in syntactic order.
    fn push_labels(&self, out: &mut Vec<Label>);

    /// Whether `subject` under this cast is a value (each calculus
    /// has its own rule).
    fn wraps_value(&self, subject: &Term<Self>) -> bool;

    /// Prints `subject` under this cast.
    fn fmt_cast(&self, subject: &Term<Self>, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

/// A λB cast annotation `A ⇒p B`: source type, blame label, target
/// type, with the types as trees (`T = Type`) or interned ids.
///
/// The types must be compatible (`A ∼ B`) for the cast to be well
/// formed; this is enforced by the type checker, not the constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct Cast<T = Type> {
    /// The source type `A`.
    pub source: T,
    /// The blame label `p` decorating the cast.
    pub label: Label,
    /// The target type `B`.
    pub target: T,
}

impl<T> Cast<T> {
    /// Creates the cast annotation `source ⇒label target`.
    pub fn new(source: T, label: Label, target: T) -> Cast<T> {
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

impl CastForm for Cast {
    fn node_size(&self) -> usize {
        0
    }

    fn push_labels(&self, out: &mut Vec<Label>) {
        out.push(self.label);
    }

    /// Figure 1: a cast of a value between function types, or from a
    /// ground type to `?`.
    fn wraps_value(&self, subject: &Term<Cast>) -> bool {
        subject.is_value()
            && match (&self.source, &self.target) {
                (Type::Fun(_, _), Type::Fun(_, _)) => true,
                (src, Type::Dyn) => src.is_ground(),
                _ => false,
            }
    }

    fn fmt_cast(&self, subject: &Term<Cast>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({subject} : {self})")
    }
}

/// Terms `L, M, N` of a calculus whose cast form is `K` and whose type
/// annotations are `T`.
///
/// The grammar of Figures 1, 3 and 5 — constants, operator
/// applications, variables, abstractions, applications, casts and
/// `blame p` — extended with `if`, `let` and `fix`: standard
/// constructs that the paper's grammar leaves out, and that recursive
/// programs such as its even/odd example need. Subterms are reference
/// counted so cloning during substitution is cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Term<K, T = Type> {
    /// A constant `k`.
    Const(Constant),
    /// An operator application `op(M₁, …, Mₙ)`.
    Op(Op, Vec<Term<K, T>>),
    /// A variable `x`.
    Var(Name),
    /// An abstraction `λx:A. N`.
    Lam(Name, T, Rc<Term<K, T>>),
    /// An application `L M`.
    App(Rc<Term<K, T>>, Rc<Term<K, T>>),
    /// The calculus's cast form: `M : A ⇒p B` in λB, `M⟨c⟩` in λC and
    /// `M⟨s⟩` in λS.
    Coerce(Rc<Term<K, T>>, K),
    /// Allocated blame `blame p`. Carries its type so that synthesis
    /// stays syntax-directed (the paper gives `blame p` every type).
    Blame(Label, T),
    /// A conditional `if L then M else N`.
    If(Rc<Term<K, T>>, Rc<Term<K, T>>, Rc<Term<K, T>>),
    /// A let binding `let x = M in N`.
    Let(Name, Rc<Term<K, T>>, Rc<Term<K, T>>),
    /// A recursive function `fix f (x:A):B. N`, a value of type
    /// `A → B`; `f` is bound to the whole `fix` in `N`.
    Fix(Name, Name, T, T, Rc<Term<K, T>>),
}

impl<K: CastForm> Term<K> {
    /// An integer constant.
    pub fn int(n: i64) -> Self {
        Term::Const(Constant::Int(n))
    }

    /// A boolean constant.
    pub fn bool(b: bool) -> Self {
        Term::Const(Constant::Bool(b))
    }

    /// A variable.
    pub fn var(name: &str) -> Self {
        Term::Var(Name::from(name))
    }

    /// An abstraction `λname:ty. body`.
    pub fn lam(name: &str, ty: Type, body: Self) -> Self {
        Term::Lam(Name::from(name), ty, Rc::new(body))
    }

    /// An application `self arg`.
    #[must_use]
    pub fn app(self, arg: Self) -> Self {
        Term::App(Rc::new(self), Rc::new(arg))
    }

    /// The cast application `self⟨k⟩`.
    #[must_use]
    pub fn coerce(self, k: K) -> Self {
        Term::Coerce(Rc::new(self), k)
    }

    /// A binary operator application.
    pub fn op2(op: Op, lhs: Self, rhs: Self) -> Self {
        Term::Op(op, vec![lhs, rhs])
    }

    /// A conditional `if cond then then_ else else_`.
    pub fn ite(cond: Self, then_: Self, else_: Self) -> Self {
        Term::If(Rc::new(cond), Rc::new(then_), Rc::new(else_))
    }

    /// A let binding `let name = bound in body`.
    pub fn let_(name: &str, bound: Self, body: Self) -> Self {
        Term::Let(Name::from(name), Rc::new(bound), Rc::new(body))
    }

    /// A recursive function `fix fun (arg:dom):cod. body`.
    pub fn fix(fun: &str, arg: &str, dom: Type, cod: Type, body: Self) -> Self {
        Term::Fix(Name::from(fun), Name::from(arg), dom, cod, Rc::new(body))
    }

    /// Whether the term is an *uncoerced value* `U ::= k | λx:A.N`
    /// (including `fix`, the standard recursive function value).
    pub fn is_uncoerced_value(&self) -> bool {
        matches!(
            self,
            Term::Const(_) | Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _)
        )
    }

    /// Whether the term is a value `V`: an uncoerced value, or a cast
    /// that its calculus's rule ([`CastForm::wraps_value`]) makes one.
    pub fn is_value(&self) -> bool {
        match self {
            Term::Coerce(m, k) => k.wraps_value(m),
            _ => self.is_uncoerced_value(),
        }
    }

    /// The number of syntax nodes in the term, with what each cast
    /// adds ([`CastForm::node_size`]); types are not counted.
    pub fn size(&self) -> usize {
        match self {
            Term::Const(_) | Term::Var(_) | Term::Blame(_, _) => 1,
            Term::Op(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => 1 + b.size(),
            Term::Coerce(m, k) => 1 + m.size() + k.node_size(),
            Term::App(a, b) | Term::Let(_, a, b) => 1 + a.size() + b.size(),
            Term::If(a, b, c) => 1 + a.size() + b.size() + c.size(),
        }
    }

    /// The total size of all casts in the term — the λC/λS space
    /// metric (coercions pile up under λC's naive composition and stay
    /// bounded in λS). Always 0 in λB, whose casts add no nodes.
    pub fn coercion_size(&self) -> usize {
        self.fold_casts(0, &mut |n, k| n + k.node_size())
    }

    /// Every blame label mentioned by a cast or `blame` node in the
    /// term, in syntactic order (with duplicates).
    pub fn labels(&self) -> Vec<Label> {
        fn go<K: CastForm>(t: &Term<K>, out: &mut Vec<Label>) {
            match t {
                Term::Const(_) | Term::Var(_) => {}
                Term::Blame(p, _) => out.push(*p),
                Term::Op(_, args) => args.iter().for_each(|a| go(a, out)),
                Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => go(b, out),
                Term::Coerce(m, k) => {
                    go(m, out);
                    k.push_labels(out);
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

impl<K, T> Term<K, T> {
    /// The number of cast nodes in the term — the quantity that grows
    /// without bound in the space-leak examples of §1.
    pub fn cast_count(&self) -> usize {
        self.fold_casts(0, &mut |n, _| n + 1)
    }

    /// Whether `M safe q` for a calculus whose cast safety is
    /// `cast_safe`: every cast in the term is safe for `q` and no
    /// `blame q` occurs literally in it (Figures 2 and 3).
    pub fn safe_for(&self, q: Label, cast_safe: &impl Fn(&K) -> bool) -> bool {
        match self {
            Term::Const(_) | Term::Var(_) => true,
            Term::Blame(p, _) => *p != q,
            Term::Op(_, args) => args.iter().all(|a| a.safe_for(q, cast_safe)),
            Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => b.safe_for(q, cast_safe),
            Term::Coerce(m, k) => m.safe_for(q, cast_safe) && cast_safe(k),
            Term::App(a, b) | Term::Let(_, a, b) => {
                a.safe_for(q, cast_safe) && b.safe_for(q, cast_safe)
            }
            Term::If(a, b, c) => {
                a.safe_for(q, cast_safe) && b.safe_for(q, cast_safe) && c.safe_for(q, cast_safe)
            }
        }
    }

    /// Folds `f` over every cast in the term.
    fn fold_casts<A>(&self, acc: A, f: &mut impl FnMut(A, &K) -> A) -> A {
        match self {
            Term::Const(_) | Term::Var(_) | Term::Blame(_, _) => acc,
            Term::Op(_, args) => args.iter().fold(acc, |acc, a| a.fold_casts(acc, f)),
            Term::Lam(_, _, b) | Term::Fix(_, _, _, _, b) => b.fold_casts(acc, f),
            Term::Coerce(m, k) => {
                let acc = m.fold_casts(acc, f);
                f(acc, k)
            }
            Term::App(a, b) | Term::Let(_, a, b) => {
                let acc = a.fold_casts(acc, f);
                b.fold_casts(acc, f)
            }
            Term::If(a, b, c) => {
                let acc = a.fold_casts(acc, f);
                let acc = b.fold_casts(acc, f);
                c.fold_casts(acc, f)
            }
        }
    }

    /// The same term with every type annotation `t` replaced by
    /// `ty(cx, t)` and every cast `k` by `cast(cx, k)`: the structural
    /// translations `|·|BC`, `|·|CS` and `|·|SC`, and the compile and
    /// decompile of a tree against a type arena. Both closures share
    /// the one context `cx`.
    ///
    /// The walk is in syntactic order: a binder's types *before* its
    /// body, a cast *before* the casts inside its subterm. A map that
    /// interns as it goes thus interns in a fixed order.
    pub fn map<C: ?Sized, L, U>(
        &self,
        cx: &mut C,
        ty: &impl Fn(&mut C, &T) -> U,
        cast: &impl Fn(&mut C, &K) -> L,
    ) -> Term<L, U> {
        let go = |t: &Term<K, T>, cx: &mut C| Rc::new(t.map(cx, ty, cast));
        match self {
            Term::Const(k) => Term::Const(*k),
            Term::Op(op, args) => Term::Op(*op, args.iter().map(|a| a.map(cx, ty, cast)).collect()),
            Term::Var(x) => Term::Var(x.clone()),
            Term::Lam(x, a, b) => {
                let a = ty(cx, a);
                Term::Lam(x.clone(), a, go(b, cx))
            }
            Term::App(a, b) => Term::App(go(a, cx), go(b, cx)),
            Term::Coerce(m, k) => {
                let k = cast(cx, k);
                Term::Coerce(go(m, cx), k)
            }
            Term::Blame(p, a) => Term::Blame(*p, ty(cx, a)),
            Term::If(c, t, e) => Term::If(go(c, cx), go(t, cx), go(e, cx)),
            Term::Let(x, m, n) => Term::Let(x.clone(), go(m, cx), go(n, cx)),
            Term::Fix(g, x, dom, cod, b) => {
                let (dom, cod) = (ty(cx, dom), ty(cx, cod));
                Term::Fix(g.clone(), x.clone(), dom, cod, go(b, cx))
            }
        }
    }
}

impl<K, T: Clone> Term<K, T> {
    /// The same term with every cast `k` replaced by `f(k)` and the
    /// types kept: [`Term::map`] with `f` as the context.
    pub fn map_casts<L>(&self, f: &mut impl FnMut(&K) -> L) -> Term<L, T> {
        self.map(f, &|_, t: &T| t.clone(), &|f, k| f(k))
    }
}

impl Term<Cast> {
    /// The λB cast `self : source ⇒label target`.
    #[must_use]
    pub fn cast(self, source: Type, label: Label, target: Type) -> Term<Cast> {
        self.coerce(Cast::new(source, label, target))
    }
}

impl<K> From<Constant> for Term<K> {
    fn from(k: Constant) -> Term<K> {
        Term::Const(k)
    }
}

impl<K: CastForm + fmt::Display> fmt::Display for Term<K> {
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
            Term::Coerce(m, k) => k.fmt_cast(m, f),
            Term::Blame(p, _) => write!(f, "blame {p}"),
            Term::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Term::Let(x, m, n) => write!(f, "(let {x} = {m} in {n})"),
            Term::Fix(g, x, dom, cod, b) => {
                write!(f, "(fix {g} ({x} : {dom}) : {cod} => {b})")
            }
        }
    }
}

/// The set of free variables of a term.
pub fn free_vars<K>(term: &Term<K>) -> HashSet<Name> {
    fn go<K>(t: &Term<K>, bound: &mut Vec<Name>, out: &mut HashSet<Name>) {
        match t {
            Term::Const(_) | Term::Blame(_, _) => {}
            Term::Var(x) => {
                if !bound.contains(x) {
                    out.insert(x.clone());
                }
            }
            Term::Op(_, args) => args.iter().for_each(|a| go(a, bound, out)),
            Term::Lam(x, _, b) => {
                bound.push(x.clone());
                go(b, bound, out);
                bound.pop();
            }
            Term::Fix(f, x, _, _, b) => {
                bound.push(f.clone());
                bound.push(x.clone());
                go(b, bound, out);
                bound.pop();
                bound.pop();
            }
            Term::App(a, b) => {
                go(a, bound, out);
                go(b, bound, out);
            }
            Term::Coerce(m, _) => go(m, bound, out),
            Term::If(a, b, c) => {
                go(a, bound, out);
                go(b, bound, out);
                go(c, bound, out);
            }
            Term::Let(x, m, n) => {
                go(m, bound, out);
                bound.push(x.clone());
                go(n, bound, out);
                bound.pop();
            }
        }
    }
    let mut out = HashSet::new();
    go(term, &mut Vec::new(), &mut out);
    out
}

/// Capture-avoiding substitution `N[x := M]`: replaces free
/// occurrences of `x` in `term` by `value`.
///
/// Binders that would capture a free variable of `value` are renamed
/// first. During evaluation of closed programs `value` is always
/// closed, so renaming never actually fires on that path; the general
/// case is exercised by the property tests.
pub fn subst<K: Clone>(term: &Term<K>, x: &Name, value: &Term<K>) -> Term<K> {
    let fv = free_vars(value);
    subst_go(term, x, value, &fv)
}

fn subst_go<K: Clone>(term: &Term<K>, x: &Name, value: &Term<K>, fv: &HashSet<Name>) -> Term<K> {
    let go = |t: &Term<K>| Rc::new(subst_go(t, x, value, fv));
    match term {
        Term::Const(_) | Term::Blame(_, _) => term.clone(),
        Term::Var(y) => {
            if y == x {
                value.clone()
            } else {
                term.clone()
            }
        }
        Term::Op(op, args) => Term::Op(
            *op,
            args.iter().map(|a| subst_go(a, x, value, fv)).collect(),
        ),
        Term::Lam(y, ty, body) => {
            if y == x {
                term.clone()
            } else if fv.contains(y) {
                let (y2, body2) = rename_binder(y, body, fv, x);
                Term::Lam(y2, ty.clone(), go(&body2))
            } else {
                Term::Lam(y.clone(), ty.clone(), go(body))
            }
        }
        Term::Fix(f, y, dom, cod, body) => {
            if f == x || y == x {
                term.clone()
            } else if fv.contains(f) || fv.contains(y) {
                // Rename both binders out of the way of `value`'s free
                // variables, then substitute.
                let mut avoid: HashSet<Name> = fv.clone();
                avoid.extend(free_vars(body));
                avoid.insert(x.clone());
                avoid.insert(y.clone());
                let f2 = fresh_avoiding(f, &avoid);
                avoid.insert(f2.clone());
                let y2 = fresh_avoiding(y, &avoid);
                let body2 = subst(
                    &subst(body, f, &Term::Var(f2.clone())),
                    y,
                    &Term::Var(y2.clone()),
                );
                Term::Fix(f2, y2, dom.clone(), cod.clone(), go(&body2))
            } else {
                Term::Fix(f.clone(), y.clone(), dom.clone(), cod.clone(), go(body))
            }
        }
        Term::App(a, b) => Term::App(go(a), go(b)),
        Term::Coerce(m, k) => Term::Coerce(go(m), k.clone()),
        Term::If(a, b, c) => Term::If(go(a), go(b), go(c)),
        Term::Let(y, m, n) => {
            if y == x {
                Term::Let(y.clone(), go(m), n.clone())
            } else if fv.contains(y) {
                let (y2, n2) = rename_binder(y, n, fv, x);
                Term::Let(y2, go(m), go(&n2))
            } else {
                Term::Let(y.clone(), go(m), go(n))
            }
        }
    }
}

/// Renames a single binder `y` (with body `body`) to a fresh name that
/// avoids `fv`, the body's free variables, and `x`.
fn rename_binder<K: Clone>(
    y: &Name,
    body: &Term<K>,
    fv: &HashSet<Name>,
    x: &Name,
) -> (Name, Term<K>) {
    let mut avoid: HashSet<Name> = fv.clone();
    avoid.extend(free_vars(body));
    avoid.insert(x.clone());
    avoid.insert(y.clone());
    let y2 = fresh_avoiding(y, &avoid);
    let body2 = subst(body, y, &Term::Var(y2.clone()));
    (y2, body2)
}

#[cfg(test)]
mod tests {
    //! Substitution on the λB instance; the cast form plays no part in
    //! it beyond being copied.

    use super::*;

    type BTerm = Term<Cast>;

    fn v(n: &str) -> Name {
        Name::from(n)
    }

    #[test]
    fn basic_substitution() {
        let t = BTerm::var("x").app(Term::var("y"));
        let r = subst(&t, &v("x"), &Term::int(1));
        assert_eq!(r, Term::int(1).app(Term::var("y")));
    }

    #[test]
    fn shadowing_blocks_substitution() {
        // (λx. x)[x := 1] = λx. x
        let t = BTerm::lam("x", Type::INT, Term::var("x"));
        assert_eq!(subst(&t, &v("x"), &Term::int(1)), t);
    }

    #[test]
    fn capture_is_avoided() {
        // (λy. x)[x := y] must not become λy. y.
        let t = BTerm::lam("y", Type::INT, Term::var("x"));
        let r = subst(&t, &v("x"), &Term::var("y"));
        match r {
            Term::Lam(y2, _, body) => {
                assert_ne!(&*y2, "y");
                assert_eq!(*body, Term::var("y"));
            }
            other => panic!("expected lambda, got {other}"),
        }
    }

    #[test]
    fn capture_avoided_in_let() {
        // (let y = 1 in x)[x := y]
        let t = BTerm::let_("y", Term::int(1), Term::var("x"));
        let r = subst(&t, &v("x"), &Term::var("y"));
        match r {
            Term::Let(y2, _, body) => {
                assert_ne!(&*y2, "y");
                assert_eq!(*body, Term::var("y"));
            }
            other => panic!("expected let, got {other}"),
        }
    }

    #[test]
    fn capture_avoided_in_fix() {
        // (fix f(z). x)[x := f]
        let t = BTerm::fix("f", "z", Type::INT, Type::INT, Term::var("x"));
        let r = subst(&t, &v("x"), &Term::var("f"));
        match r {
            Term::Fix(f2, _, _, _, body) => {
                assert_ne!(&*f2, "f");
                assert_eq!(*body, Term::var("f"));
            }
            other => panic!("expected fix, got {other}"),
        }
    }

    #[test]
    fn free_vars_respects_binders() {
        let t = BTerm::lam("x", Type::INT, Term::var("x").app(Term::var("y")));
        let fv = free_vars(&t);
        assert!(fv.contains(&v("y")));
        assert!(!fv.contains(&v("x")));
    }

    #[test]
    fn let_bound_only_in_body() {
        // In `let x = x in x`, the bound expression's x is free.
        let t = BTerm::let_("x", Term::var("x"), Term::var("x"));
        let fv = free_vars(&t);
        assert!(fv.contains(&v("x")));
        let r = subst(&t, &v("x"), &Term::int(3));
        assert_eq!(r, Term::let_("x", Term::int(3), Term::var("x")));
    }
}
