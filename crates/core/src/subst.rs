//! Capture-avoiding substitution for λS terms (mirrors
//! `bc_lambda_b::subst`).

use std::collections::HashSet;
use std::rc::Rc;

use bc_syntax::fresh::fresh_avoiding;
use bc_syntax::Name;

use crate::term::Term;

/// The set of free variables of a term.
pub fn free_vars(term: &Term) -> HashSet<Name> {
    fn go(t: &Term, bound: &mut Vec<Name>, out: &mut HashSet<Name>) {
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

/// Capture-avoiding substitution: replaces free occurrences of `x` in
/// `term` by `value`, renaming binders as needed.
pub fn subst(term: &Term, x: &Name, value: &Term) -> Term {
    let fv = free_vars(value);
    subst_go(term, x, value, &fv)
}

fn subst_go(term: &Term, x: &Name, value: &Term, fv: &HashSet<Name>) -> Term {
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
                let (y2, body2) = rename_binder(y, body, fv, &[x]);
                Term::Lam(y2, ty.clone(), Rc::new(subst_go(&body2, x, value, fv)))
            } else {
                Term::Lam(y.clone(), ty.clone(), Rc::new(subst_go(body, x, value, fv)))
            }
        }
        Term::Fix(f, y, dom, cod, body) => {
            if f == x || y == x {
                term.clone()
            } else if fv.contains(f) || fv.contains(y) {
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
                Term::Fix(
                    f2,
                    y2,
                    dom.clone(),
                    cod.clone(),
                    Rc::new(subst_go(&body2, x, value, fv)),
                )
            } else {
                Term::Fix(
                    f.clone(),
                    y.clone(),
                    dom.clone(),
                    cod.clone(),
                    Rc::new(subst_go(body, x, value, fv)),
                )
            }
        }
        Term::App(a, b) => Term::App(
            Rc::new(subst_go(a, x, value, fv)),
            Rc::new(subst_go(b, x, value, fv)),
        ),
        Term::Coerce(m, s) => Term::Coerce(Rc::new(subst_go(m, x, value, fv)), s.clone()),
        Term::If(a, b, c) => Term::If(
            Rc::new(subst_go(a, x, value, fv)),
            Rc::new(subst_go(b, x, value, fv)),
            Rc::new(subst_go(c, x, value, fv)),
        ),
        Term::Let(y, m, n) => {
            let m2 = subst_go(m, x, value, fv);
            if y == x {
                Term::Let(y.clone(), Rc::new(m2), n.clone())
            } else if fv.contains(y) {
                let (y2, n2) = rename_binder(y, n, fv, &[x]);
                Term::Let(y2, Rc::new(m2), Rc::new(subst_go(&n2, x, value, fv)))
            } else {
                Term::Let(y.clone(), Rc::new(m2), Rc::new(subst_go(n, x, value, fv)))
            }
        }
    }
}

fn rename_binder(y: &Name, body: &Term, fv: &HashSet<Name>, extra: &[&Name]) -> (Name, Term) {
    let mut avoid: HashSet<Name> = fv.clone();
    avoid.extend(free_vars(body));
    for e in extra {
        avoid.insert((*e).clone());
    }
    avoid.insert(y.clone());
    let y2 = fresh_avoiding(y, &avoid);
    let body2 = subst(body, y, &Term::Var(y2.clone()));
    (y2, body2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::Type;

    #[test]
    fn capture_is_avoided() {
        let t = Term::lam("y", Type::INT, Term::var("x"));
        let r = subst(&t, &Name::from("x"), &Term::var("y"));
        match r {
            Term::Lam(y2, _, body) => {
                assert_ne!(&*y2, "y");
                assert_eq!(*body, Term::var("y"));
            }
            other => panic!("expected lambda, got {other}"),
        }
    }
}
