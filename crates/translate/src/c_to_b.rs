//! The reverse translation `|·|CB` from λC to λB (Figure 4) — novel in
//! the paper.
//!
//! A single coercion may contain many blame labels but a cast carries
//! only one, so a coercion translates to a *sequence* of casts `Z`:
//!
//! ```text
//! |id_A|  = []
//! |G!|    = [G ⇒• ?]
//! |G?p|   = [? ⇒p G]
//! |c → d| = (rev-compl(|c|) → B) ++ (A' → |d|)   where c→d : A→B ⇒ A'→B'
//! |c ; d| = |c| ++ |d|
//! |⊥GpH : A ⇒ B| = [A ⇒• G, G ⇒• ?, ? ⇒p H, H ⇒• B]
//! ```
//!
//! `rev-compl(Z)` reverses the sequence and complements every label;
//! `Z → B` (resp. `A → Z`) maps each cast over the function-type
//! constructor on the right (resp. left). `•` is the bullet label for
//! casts that can never allocate blame.
//!
//! Because `⊥GpH : A ⇒ B` leaves `B` unconstrained, nested failures
//! can demand a final cast `H ⇒• B` with `H ≁ B`; we then route
//! through `?` (`H ⇒• ? ⇒• B`), which is dead code behind the blaming
//! projection `? ⇒p H` and keeps the sequence well-typed.

use bc_lambda_b as lb;
use bc_lambda_b::term::Cast;
use bc_lambda_c as lc;
use bc_lambda_c::coercion::Coercion;
use bc_syntax::{Label, Type};

/// Translates a coercion used at type `A ⇒ B` into the equivalent
/// sequence of casts, first to last.
///
/// The endpoints must be supplied because coercions containing `⊥` do
/// not determine them (the paper's informal `⊥GpH_{A⇒B}` annotation).
///
/// # Panics
///
/// Panics if `c` does not check at `A ⇒ B`.
pub fn coercion_to_casts(c: &Coercion, source: &Type, target: &Type) -> Vec<Cast> {
    assert!(
        c.check(source, target),
        "coercion {c} does not coerce {source} ⇒ {target}"
    );
    translate(c, source, target)
}

fn translate(c: &Coercion, source: &Type, target: &Type) -> Vec<Cast> {
    let bullet = Label::bullet();
    match c {
        Coercion::Id(_) => Vec::new(),
        Coercion::Inj(_) => vec![Cast::new(source.clone(), bullet, Type::Dyn)],
        Coercion::Proj(g, p) => vec![Cast::new(Type::Dyn, *p, g.ty())],
        Coercion::Fun(cd, cc) => {
            // c→d : A1→B1 ⇒ A2→B2 with cd : A2 ⇒ A1 and cc : B1 ⇒ B2.
            let (a1, b1) = match source {
                Type::Fun(a, b) => ((**a).clone(), (**b).clone()),
                other => unreachable!("function coercion at non-function source {other}"),
            };
            let (a2, b2) = match target {
                Type::Fun(a, b) => ((**a).clone(), (**b).clone()),
                other => unreachable!("function coercion at non-function target {other}"),
            };
            let zc = translate(cd, &a2, &a1);
            let zd = translate(cc, &b1, &b2);
            let mut out: Vec<Cast> = rev_compl(zc)
                .into_iter()
                .map(|k| arrow_right(k, &b1))
                .collect();
            out.extend(zd.into_iter().map(|k| arrow_left(&a2, k)));
            out
        }
        Coercion::Seq(c1, c2) => {
            let middle = middle_type(c1, c2, source, target);
            let mut out = translate(c1, source, &middle);
            out.extend(translate(c2, &middle, target));
            out
        }
        Coercion::Fail(g, p, h) => {
            let mut out = vec![
                Cast::new(source.clone(), bullet, g.ty()),
                Cast::new(g.ty(), bullet, Type::Dyn),
                Cast::new(Type::Dyn, *p, h.ty()),
            ];
            if h.ty().compatible(target) {
                out.push(Cast::new(h.ty(), bullet, target.clone()));
            } else {
                // Dead code behind the blaming projection; route
                // through ? to stay well-typed.
                out.push(Cast::new(h.ty(), bullet, Type::Dyn));
                out.push(Cast::new(Type::Dyn, bullet, target.clone()));
            }
            out
        }
    }
}

/// Reverses a cast sequence and complements every label (the `Z̄`
/// operation of Figure 4).
fn rev_compl(z: Vec<Cast>) -> Vec<Cast> {
    z.into_iter()
        .rev()
        .map(|k| Cast::new(k.target, k.label.complement(), k.source))
        .collect()
}

/// `Z → B`: maps a cast `Ai ⇒p Aj` to `(Ai→B) ⇒p (Aj→B)`.
fn arrow_right(k: Cast, b: &Type) -> Cast {
    Cast::new(
        Type::fun(k.source, b.clone()),
        k.label,
        Type::fun(k.target, b.clone()),
    )
}

/// `A → Z`: maps a cast `Bi ⇒p Bj` to `(A→Bi) ⇒p (A→Bj)`.
fn arrow_left(a: &Type, k: Cast) -> Cast {
    Cast::new(
        Type::fun(a.clone(), k.source),
        k.label,
        Type::fun(a.clone(), k.target),
    )
}

/// Picks the middle type of a composition `c ; d : A ⇒ C`.
fn middle_type(c: &Coercion, d: &Coercion, source: &Type, target: &Type) -> Type {
    if let Some((_, m)) = c.synthesize() {
        return m;
    }
    if let Some((m, _)) = d.synthesize() {
        return m;
    }
    let _ = (source, target);
    // Both sides contain ⊥: any type satisfying d's source constraint
    // works; use its hint.
    source_hint(d)
}

/// A type satisfying a coercion's source constraints (used only when
/// synthesis fails, i.e. in the presence of `⊥`).
fn source_hint(c: &Coercion) -> Type {
    match c {
        Coercion::Id(a) => a.clone(),
        Coercion::Inj(g) | Coercion::Fail(g, _, _) => g.ty(),
        Coercion::Proj(_, _) => Type::Dyn,
        Coercion::Seq(c1, _) => source_hint(c1),
        Coercion::Fun(cd, cc) => Type::fun(target_hint(cd), source_hint(cc)),
    }
}

/// A type satisfying a coercion's target constraints.
fn target_hint(c: &Coercion) -> Type {
    match c {
        Coercion::Id(a) => a.clone(),
        Coercion::Inj(_) => Type::Dyn,
        Coercion::Proj(g, _) => g.ty(),
        Coercion::Fail(_, _, h) => h.ty(),
        Coercion::Seq(_, c2) => target_hint(c2),
        Coercion::Fun(cd, cc) => Type::fun(source_hint(cd), target_hint(cc)),
    }
}

/// Translates a λC term to a λB term, replacing each coercion
/// application by the corresponding sequence of casts.
///
/// # Errors
///
/// Returns a λC [`lc::typing::TypeError`] if the input is ill-typed
/// (endpoint types are needed to expand coercions).
pub fn term_c_to_b(term: &lc::Term) -> Result<lb::Term, lc::typing::TypeError> {
    go(&mut Vec::new(), term)
}

fn go(
    env: &mut Vec<(bc_syntax::Name, Type)>,
    term: &lc::Term,
) -> Result<lb::Term, lc::typing::TypeError> {
    Ok(match term {
        lc::Term::Const(k) => lb::Term::Const(*k),
        lc::Term::Op(op, args) => lb::Term::Op(
            *op,
            args.iter()
                .map(|a| go(env, a))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        lc::Term::Var(x) => lb::Term::Var(x.clone()),
        lc::Term::Lam(x, ty, b) => {
            env.push((x.clone(), ty.clone()));
            let b2 = go(env, b);
            env.pop();
            lb::Term::Lam(x.clone(), ty.clone(), b2?.into())
        }
        lc::Term::App(a, b) => lb::Term::App(go(env, a)?.into(), go(env, b)?.into()),
        lc::Term::Coerce(m, c) => {
            let src = lc::typing::type_of_in(env, m)?;
            let tgt = lc::typing::type_of_in(env, term)?;
            let casts = coercion_to_casts(c, &src, &tgt);
            let mut out = go(env, m)?;
            for k in casts {
                out = lb::Term::Coerce(out.into(), k);
            }
            out
        }
        lc::Term::Blame(p, ty) => lb::Term::Blame(*p, ty.clone()),
        lc::Term::If(c, t, e) => {
            lb::Term::If(go(env, c)?.into(), go(env, t)?.into(), go(env, e)?.into())
        }
        lc::Term::Let(x, m, n) => {
            let m2 = go(env, m)?;
            let mt = lc::typing::type_of_in(env, m)?;
            env.push((x.clone(), mt));
            let n2 = go(env, n);
            env.pop();
            lb::Term::Let(x.clone(), m2.into(), n2?.into())
        }
        lc::Term::Fix(f, x, dom, cod, b) => {
            env.push((f.clone(), Type::fun(dom.clone(), cod.clone())));
            env.push((x.clone(), dom.clone()));
            let b2 = go(env, b);
            env.pop();
            env.pop();
            lb::Term::Fix(f.clone(), x.clone(), dom.clone(), cod.clone(), b2?.into())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::b_to_c::cast_to_coercion;
    use crate::c_to_s::coercion_to_space;
    use bc_syntax::{BaseType, Ground};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }

    /// Executable Lemma 8 on coercions: translating a coercion to a
    /// cast sequence and each cast back to a coercion yields a
    /// composite with the same canonical form.
    fn round_trips(c: &Coercion, src: &Type, tgt: &Type) {
        let casts = coercion_to_casts(c, src, tgt);
        let back = casts
            .iter()
            .map(|k| cast_to_coercion(&k.source, k.label, &k.target))
            .reduce(|acc, next| acc.seq(next))
            .unwrap_or_else(|| Coercion::id(src.clone()));
        assert_eq!(
            coercion_to_space(&back),
            coercion_to_space(c),
            "round trip of {c} at {src} ⇒ {tgt} gave {back}"
        );
    }

    #[test]
    fn identity_is_the_empty_sequence() {
        assert_eq!(
            coercion_to_casts(&Coercion::id(Type::INT), &Type::INT, &Type::INT),
            Vec::new()
        );
    }

    #[test]
    fn primitives_round_trip() {
        round_trips(&Coercion::inj(gi()), &Type::INT, &Type::DYN);
        round_trips(&Coercion::proj(gi(), p(0)), &Type::DYN, &Type::INT);
        round_trips(
            &Coercion::id(Type::dyn_fun()),
            &Type::dyn_fun(),
            &Type::dyn_fun(),
        );
    }

    #[test]
    fn function_coercions_round_trip() {
        let ii = Type::fun(Type::INT, Type::INT);
        let c = Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi()));
        round_trips(&c, &ii, &Type::dyn_fun());
        // Nested functions.
        let c2 = Coercion::fun(c.clone(), Coercion::id(Type::INT));
        let src = Type::fun(Type::dyn_fun(), Type::INT);
        let tgt = Type::fun(ii.clone(), Type::INT);
        round_trips(&c2, &src, &tgt);
    }

    #[test]
    fn compositions_round_trip() {
        let c = Coercion::inj(gi()).seq(Coercion::proj(gi(), p(1)));
        round_trips(&c, &Type::INT, &Type::INT);
        let c2 = Coercion::inj(gi()).seq(Coercion::proj(Ground::Base(BaseType::Bool), p(1)));
        round_trips(&c2, &Type::INT, &Type::BOOL);
    }

    #[test]
    fn failures_round_trip() {
        let c = Coercion::fail(gi(), p(2), Ground::Fun);
        round_trips(&c, &Type::INT, &Type::BOOL);
        round_trips(&c, &Type::INT, &Type::DYN);
    }

    #[test]
    fn failure_expansion_blames_the_projection() {
        // Lemma 2 mirror: the cast expansion of ⊥GpH blames p.
        let c = Coercion::fail(gi(), p(3), Ground::Base(BaseType::Bool));
        let m = lc::Term::int(1).coerce(c);
        let mb = term_c_to_b(&m).expect("well typed");
        assert_eq!(lb::type_of(&mb), Ok(Type::BOOL));
        match lb::eval::run(&mb, 100).unwrap().outcome {
            lb::eval::Outcome::Blame(l) => assert_eq!(l, p(3)),
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn term_translation_preserves_types_and_outcomes() {
        // A λC program and its cast expansion agree on the outcome.
        let ii = Type::fun(Type::INT, Type::INT);
        let inc = lc::Term::lam(
            "x",
            Type::INT,
            lc::Term::op2(bc_syntax::Op::Add, lc::Term::var("x"), lc::Term::int(1)),
        );
        let c = cast_to_coercion(&ii, p(0), &Type::DYN);
        let back = cast_to_coercion(&Type::DYN, p(1), &ii);
        let m = inc.coerce(c).coerce(back).app(lc::Term::int(41));
        let mb = term_c_to_b(&m).expect("well typed");
        assert_eq!(lb::type_of(&mb).unwrap(), lc::type_of(&m).unwrap());
        let rb = lb::eval::run(&mb, 10_000).unwrap().outcome;
        let rc = lc::eval::run(&m, 10_000).unwrap().outcome;
        match (rb, rc) {
            (lb::eval::Outcome::Value(vb), lc::eval::Outcome::Value(vc)) => {
                assert_eq!(vb, lb::Term::int(42));
                assert_eq!(vc, lc::Term::int(42));
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }
}
