//! Capture-avoiding substitution for λS terms (mirrors
//! `bc_lambda_b::subst`).

use std::collections::HashSet;
use std::rc::Rc;

use bc_syntax::fresh::fresh_avoiding;
use bc_syntax::Name;

use crate::arena::CoercionArena;
use crate::sterm::STerm;
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

/// The set of free variables of a compiled term (mirrors
/// [`free_vars`]; coercion and type handles bind nothing).
pub fn free_vars_compiled(term: &STerm) -> HashSet<Name> {
    fn go(t: &STerm, bound: &mut Vec<Name>, out: &mut HashSet<Name>) {
        match t {
            STerm::Const(_) | STerm::Blame(_, _) => {}
            STerm::Var(x) => {
                if !bound.contains(x) {
                    out.insert(x.clone());
                }
            }
            STerm::Op(_, args) => args.iter().for_each(|a| go(a, bound, out)),
            STerm::Lam(x, _, b) => {
                bound.push(x.clone());
                go(b, bound, out);
                bound.pop();
            }
            STerm::Fix(f, x, _, _, b) => {
                bound.push(f.clone());
                bound.push(x.clone());
                go(b, bound, out);
                bound.pop();
                bound.pop();
            }
            STerm::App(a, b) => {
                go(a, bound, out);
                go(b, bound, out);
            }
            STerm::Coerce(m, _) => go(m, bound, out),
            STerm::If(a, b, c) => {
                go(a, bound, out);
                go(b, bound, out);
                go(c, bound, out);
            }
            STerm::Let(x, m, n) => {
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

/// What [`subst_closed`] learned about the term it substituted into,
/// on the same walk: enough to price the substitution without
/// measuring its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// [`STerm::measure`] of the input term: its tree-equivalent size
    /// and its total coercion size.
    pub measure: (usize, usize),
    /// How many free occurrences of each binding's name were replaced.
    pub occurrences: [usize; 2],
}

/// Substitution of *closed* values on the compiled IR: replaces the
/// free occurrences of each bound name by its value, all at once.
///
/// Because every value is closed, no binder can capture anything in
/// it, so no binder is renamed and no free-variable set is computed —
/// the result equals capture-avoiding substitution, in sequence, pair
/// by pair. A name listed twice takes its first value. Subterms with
/// nothing to substitute are shared with `term`, not copied.
///
/// This is the only substitution a closed call-by-value run performs:
/// a `let`-bound value, an argument, or a recursive function and its
/// argument together — so there are at most two bindings. The same
/// walk measures `term` and counts the occurrences it replaced (the
/// [`Tally`]), from which the small-step prices the step.
///
/// # Panics
///
/// Panics if more than two bindings are given.
pub fn subst_closed(
    term: &STerm,
    bindings: &[(&Name, &STerm)],
    arena: &CoercionArena,
) -> (STerm, Tally) {
    assert!(bindings.len() <= 2, "subst_closed binds at most two names");
    debug_assert!(
        bindings
            .iter()
            .all(|(_, v)| free_vars_compiled(v).is_empty()),
        "subst_closed substitutes closed values only"
    );
    let mut walk = ClosedSubst {
        bindings,
        arena,
        tally: Tally::default(),
    };
    let all = (1u8 << bindings.len()) - 1;
    let out = walk.go(term, all).unwrap_or_else(|| term.clone());
    (out, walk.tally)
}

struct ClosedSubst<'a> {
    bindings: &'a [(&'a Name, &'a STerm)],
    arena: &'a CoercionArena,
    tally: Tally,
}

impl ClosedSubst<'_> {
    /// Clears the bits of the bindings the `binders` shadow.
    fn under(&self, live: u8, binders: &[&Name]) -> u8 {
        (0..self.bindings.len())
            .filter(|&i| binders.contains(&self.bindings[i].0))
            .fold(live, |live, i| live & !(1 << i))
    }

    fn child(&mut self, t: &Rc<STerm>, live: u8) -> Option<Rc<STerm>> {
        self.go(t, live).map(Rc::new)
    }

    /// Substitutes the `live` bindings into `term` and tallies it;
    /// `None` when `term` contains no free occurrence of a live name.
    fn go(&mut self, term: &STerm, live: u8) -> Option<STerm> {
        fn or_keep(new: Option<Rc<STerm>>, old: &Rc<STerm>) -> Rc<STerm> {
            new.unwrap_or_else(|| old.clone())
        }
        if live == 0 {
            let (size, coercion_size) = term.measure(self.arena);
            self.tally.measure.0 += size;
            self.tally.measure.1 += coercion_size;
            return None;
        }
        self.tally.measure.0 += 1;
        match term {
            STerm::Const(_) | STerm::Blame(_, _) => None,
            STerm::Var(y) => {
                let i = (0..self.bindings.len())
                    .find(|&i| live & (1 << i) != 0 && self.bindings[i].0 == y)?;
                self.tally.occurrences[i] += 1;
                Some(self.bindings[i].1.clone())
            }
            STerm::Op(op, args) => {
                let mut new: Option<Vec<STerm>> = None;
                for (i, a) in args.iter().enumerate() {
                    match (self.go(a, live), &mut new) {
                        (Some(a2), None) => {
                            let mut v = Vec::with_capacity(args.len());
                            v.extend_from_slice(&args[..i]);
                            v.push(a2);
                            new = Some(v);
                        }
                        (a2, Some(v)) => v.push(a2.unwrap_or_else(|| a.clone())),
                        (None, None) => {}
                    }
                }
                new.map(|v| STerm::Op(*op, v))
            }
            STerm::Lam(y, ty, body) => {
                let inner = self.under(live, &[y]);
                self.child(body, inner)
                    .map(|b| STerm::Lam(y.clone(), *ty, b))
            }
            STerm::Fix(f, y, dom, cod, body) => {
                let inner = self.under(live, &[f, y]);
                self.child(body, inner)
                    .map(|b| STerm::Fix(f.clone(), y.clone(), *dom, *cod, b))
            }
            STerm::App(a, b) => match (self.child(a, live), self.child(b, live)) {
                (None, None) => None,
                (a2, b2) => Some(STerm::App(or_keep(a2, a), or_keep(b2, b))),
            },
            STerm::Coerce(m, s) => {
                let c = self.arena.size(*s);
                self.tally.measure.0 += c;
                self.tally.measure.1 += c;
                self.child(m, live).map(|m| STerm::Coerce(m, *s))
            }
            STerm::If(a, b, c) => {
                match (
                    self.child(a, live),
                    self.child(b, live),
                    self.child(c, live),
                ) {
                    (None, None, None) => None,
                    (a2, b2, c2) => Some(STerm::If(or_keep(a2, a), or_keep(b2, b), or_keep(c2, c))),
                }
            }
            STerm::Let(y, m, n) => {
                let m2 = self.child(m, live);
                let inner = self.under(live, &[y]);
                match (m2, self.child(n, inner)) {
                    (None, None) => None,
                    (m2, n2) => Some(STerm::Let(y.clone(), or_keep(m2, m), or_keep(n2, n))),
                }
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
    use bc_syntax::{Type, TypeArena};

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

    #[test]
    fn closed_substitution_matches_capture_avoiding_substitution() {
        use crate::sterm::compile_term;
        let mut arena = CoercionArena::new();
        let mut types = TypeArena::new();
        let mut c = |t: &Term| compile_term(t, &mut arena, &mut types);
        // fix f (x). if x then f else (λx. x) f — shadowing on both
        // binder forms, the fix body substituted for f and x at once.
        let body = Term::If(
            Term::var("x").into(),
            Term::var("f").into(),
            Term::lam("x", Type::INT, Term::var("x"))
                .app(Term::var("f"))
                .into(),
        );
        let fun_tree = Term::Fix(
            "f".into(),
            "x".into(),
            Type::BOOL,
            Type::INT,
            body.clone().into(),
        );
        let fun = c(&fun_tree);
        let arg = c(&Term::bool(true));
        let x = Name::from("x");
        let f = Name::from("f");
        let sequential = c(&subst(&subst(&body, &f, &fun_tree), &x, &Term::bool(true)));
        let body = c(&body);
        let closed = c(&Term::int(3));
        let (out, tally) = subst_closed(&body, &[(&f, &fun), (&x, &arg)], &arena);
        assert_eq!(out, sequential);
        // The walk measured the body and counted the free `x` in the
        // condition and the two free `f`s, not the `x` the λ binds.
        assert_eq!(tally.measure, body.measure(&arena));
        assert_eq!(tally.occurrences, [2, 1]);
        // Nothing to substitute: the term comes back as is.
        let (out, tally) = subst_closed(&closed, &[(&x, &arg)], &arena);
        assert_eq!(out, closed);
        assert_eq!(tally.occurrences, [0, 0]);
    }
}
