//! A CEK machine for λB and λC, generic over the cast form.
//!
//! Casts become continuation frames; a pending result cast is pushed
//! for every function-cast application and *never merged*, so
//! boundary-crossing tail calls grow the continuation — the machine
//! reproduces the space leak of §1 faithfully (see the metrics), for
//! λB's casts and for λC's coercions alike. Compare with
//! [`crate::cek_s`], which merges adjacent coercion frames.
//!
//! The machine is written once; a calculus supplies, through
//! [`MachineCast`], how a cast applies to a machine value and what a
//! cast frame weighs. How a function cast splits into its domain and
//! codomain casts, and whether a cast value is a proxy or an
//! injection, come from the calculus's [`Reduce`] rules.

use std::fmt;
use std::rc::Rc;

use bc_lambda_b::{Cast, LambdaB};
use bc_lambda_c::{Coercion, LambdaC};
use bc_syntax::reduce::{Reduce, Wrapper};
use bc_syntax::term::{CastForm, Term};
use bc_syntax::{Constant, Label, Name, Op, Type};
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, SliceResult};

/// A cast form the machine can run: λB's [`Cast`] or λC's
/// [`Coercion`].
pub trait MachineCast: CastForm + Clone + fmt::Debug + fmt::Display {
    /// The calculus whose rules split a function cast and say what a
    /// cast value is.
    type Rules: Reduce<Cast = Self>;

    /// Applies the cast to a value at once: values cross casts without
    /// machine steps, and function casts and injections wrap.
    ///
    /// # Errors
    ///
    /// The blamed label, when the cast fails.
    fn apply(v: Value<Self>, cast: &Self) -> Result<Value<Self>, Label>;

    /// What a cast frame adds to the peak cast size.
    fn frame_size(&self) -> usize;
}

impl MachineCast for Cast {
    type Rules = LambdaB;

    fn apply(v: Value<Cast>, cast: &Cast) -> Result<Value<Cast>, Label> {
        let wrap = |v| Value::Wrapped {
            value: Rc::new(v),
            cast: cast.clone(),
        };
        match (&cast.source, &cast.target) {
            (Type::Base(_), Type::Base(_)) | (Type::Dyn, Type::Dyn) => Ok(v),
            (Type::Fun(_, _), Type::Fun(_, _)) => Ok(wrap(v)),
            (a, Type::Dyn) if a.is_ground() => Ok(wrap(v)),
            (a, Type::Dyn) => {
                let g = a.ground_of().expect("not ? here").ty();
                let first = Cast::apply(v, &Cast::new(a.clone(), cast.label, g.clone()))?;
                Cast::apply(first, &Cast::new(g, cast.label, Type::Dyn))
            }
            (Type::Dyn, b) => match b.as_ground() {
                Some(h) => match v {
                    Value::Wrapped { value, cast: inner } => {
                        let g = inner.source.as_ground().expect("injection from ground");
                        if g == h {
                            Ok((*value).clone())
                        } else {
                            Err(cast.label)
                        }
                    }
                    other => unreachable!("value of type ? is not an injection: {other:?}"),
                },
                None => {
                    let g = b.ground_of().expect("not ? here").ty();
                    let first = Cast::apply(v, &Cast::new(Type::Dyn, cast.label, g.clone()))?;
                    Cast::apply(first, &Cast::new(g, cast.label, b.clone()))
                }
            },
            (a, b) => unreachable!("ill-typed cast {a} ⇒ {b} reached the machine"),
        }
    }

    /// A cast frame weighs its two types and its label.
    fn frame_size(&self) -> usize {
        self.source.size() + self.target.size() + 1
    }
}

impl MachineCast for Coercion {
    type Rules = LambdaC;

    fn apply(v: Value<Coercion>, c: &Coercion) -> Result<Value<Coercion>, Label> {
        match c {
            Coercion::Id(_) => Ok(v),
            Coercion::Seq(c1, c2) => Coercion::apply(Coercion::apply(v, c1)?, c2),
            Coercion::Inj(_) | Coercion::Fun(_, _) => Ok(Value::Wrapped {
                value: Rc::new(v),
                cast: c.clone(),
            }),
            Coercion::Proj(h, p) => match v {
                Value::Wrapped {
                    value,
                    cast: Coercion::Inj(g),
                } if g == *h => Ok((*value).clone()),
                Value::Wrapped {
                    cast: Coercion::Inj(_),
                    ..
                } => Err(*p),
                other => unreachable!("projected a non-injection {other:?}"),
            },
            Coercion::Fail(_, p, _) => Err(*p),
        }
    }

    /// A coercion frame weighs the coercion's size.
    fn frame_size(&self) -> usize {
        self.size()
    }
}

/// Run-time values of the machine.
#[derive(Debug, Clone)]
pub enum Value<K> {
    /// A constant.
    Const(Constant),
    /// A closure.
    Closure {
        /// Parameter name.
        param: Name,
        /// Function body.
        body: Rc<Term<K>>,
        /// Captured environment.
        env: Env<K>,
    },
    /// A recursive closure (`fix`).
    FixClosure {
        /// Function name (bound to the closure itself on application).
        fun: Name,
        /// Parameter name.
        param: Name,
        /// Function body.
        body: Rc<Term<K>>,
        /// Captured environment.
        env: Env<K>,
    },
    /// A value wrapped in a cast: a function proxy or an injection.
    Wrapped {
        /// The underlying value.
        value: Rc<Value<K>>,
        /// The wrapping cast.
        cast: K,
    },
}

impl<K: MachineCast> Value<K> {
    /// The calculus-agnostic observation of this value.
    pub fn observe(&self) -> Observation {
        match self {
            Value::Const(k) => Observation::Constant(*k),
            Value::Closure { .. } | Value::FixClosure { .. } => Observation::Function,
            Value::Wrapped { value, cast } => match K::Rules::wrapper(cast) {
                Wrapper::Proxy => Observation::Function,
                Wrapper::Injection(g) => Observation::Injected(g, Box::new(value.observe())),
            },
        }
    }
}

/// A persistent environment (linked list; cheap to clone).
#[derive(Debug, Clone)]
pub struct Env<K>(Option<Rc<EnvNode<K>>>);

#[derive(Debug)]
struct EnvNode<K> {
    name: Name,
    value: Value<K>,
    rest: Env<K>,
}

impl<K: Clone> Env<K> {
    /// Extends the environment with a binding.
    #[must_use]
    fn bind(&self, name: Name, value: Value<K>) -> Env<K> {
        Env(Some(Rc::new(EnvNode {
            name,
            value,
            rest: self.clone(),
        })))
    }

    fn lookup(&self, name: &Name) -> Option<&Value<K>> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }
}

// Variant names deliberately carry the -Frame suffix: "cast frame" /
// "coercion frame" is the paper's terminology for what leaks in
// λB/λC and merges in λS.
#[allow(clippy::enum_variant_names)]
enum Frame<K> {
    AppArg {
        arg: Term<K>,
        env: Env<K>,
    },
    AppCall {
        fun: Value<K>,
    },
    OpFrame {
        op: Op,
        done: Vec<Value<K>>,
        rest: Vec<Term<K>>,
        env: Env<K>,
    },
    If {
        then_: Term<K>,
        else_: Term<K>,
        env: Env<K>,
    },
    Let {
        name: Name,
        body: Term<K>,
        env: Env<K>,
    },
    CastFrame(K),
}

enum Control<K> {
    Eval(Term<K>, Env<K>),
    Ret(Value<K>),
}

/// The continuation and the space it holds.
struct Machine<K> {
    stack: Vec<Frame<K>>,
    metrics: Metrics,
    cast_frames: usize,
    cast_size: usize,
}

impl<K: MachineCast> Machine<K> {
    fn push(&mut self, f: Frame<K>) {
        if let Frame::CastFrame(c) = &f {
            self.cast_frames += 1;
            self.cast_size += c.frame_size();
        }
        self.stack.push(f);
        self.metrics
            .observe(self.stack.len(), self.cast_frames, self.cast_size);
    }

    fn pop(&mut self) -> Option<Frame<K>> {
        let f = self.stack.pop();
        if let Some(Frame::CastFrame(c)) = &f {
            self.cast_frames -= 1;
            self.cast_size -= c.frame_size();
        }
        f
    }
}

/// A preempted machine run, parked between fuel slices.
///
/// Holds the complete machine state — continuation stack, control,
/// and metrics — plus the run's total fuel, so [`resume`] continues
/// exactly where the last slice stopped. Slicing is invisible to the
/// semantics: the fuel check (`steps >= fuel`) happens before every
/// transition whether sliced or not, so steps, space peaks, and the
/// final outcome are identical to an unsliced [`run`].
///
/// Values and environments are `Rc`-shared, so a parked run is
/// deliberately **not** `Send`: it stays on the worker thread that
/// started it. (An `Arc` spine was measured ~30% slower end to end
/// in this machine family, so cross-thread parking is not worth the
/// price; the scheduler parks per worker instead.)
pub struct Paused<K> {
    machine: Machine<K>,
    control: Control<K>,
    fuel: u64,
}

impl<K> Paused<K> {
    /// Machine transitions taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.machine.metrics.steps
    }
}

/// Begins a resumable run of a closed, well-typed term. No steps are
/// taken; drive the machine with [`resume`].
pub fn start<K: MachineCast>(term: &Term<K>, fuel: u64) -> Paused<K> {
    Paused {
        machine: Machine {
            stack: Vec::new(),
            metrics: Metrics::default(),
            cast_frames: 0,
            cast_size: 0,
        },
        control: Control::Eval(term.clone(), Env(None)),
        fuel,
    }
}

/// Runs a parked machine for at most `slice` further transitions.
///
/// Fuel exhaustion is checked before the slice budget (fuel and
/// slices count the same unit: machine transitions), so a slice at
/// least as large as the remaining fuel can never park —
/// `resume(start(t, fuel), fuel)` is exactly [`run`]`(t, fuel)`.
///
/// # Panics
///
/// Panics on open or ill-typed input (type-check first).
pub fn resume<K: MachineCast>(paused: Paused<K>, slice: u64) -> SliceResult<Paused<K>> {
    let Paused {
        machine: mut m,
        mut control,
        fuel,
    } = paused;
    let until = m.metrics.steps.saturating_add(slice);
    let done = |outcome, metrics| SliceResult::Done(MachineRun { outcome, metrics });
    loop {
        if m.metrics.steps >= fuel {
            return done(MachineOutcome::Timeout, m.metrics);
        }
        if m.metrics.steps >= until {
            return SliceResult::Parked(Paused {
                machine: m,
                control,
                fuel,
            });
        }
        m.metrics.steps += 1;
        control = match control {
            Control::Eval(t, env) => match t {
                Term::Const(k) => Control::Ret(Value::Const(k)),
                Term::Var(x) => Control::Ret(
                    env.lookup(&x)
                        .unwrap_or_else(|| panic!("unbound variable `{x}`"))
                        .clone(),
                ),
                Term::Lam(param, _, body) => Control::Ret(Value::Closure { param, body, env }),
                Term::Fix(fun, param, _, _, body) => Control::Ret(Value::FixClosure {
                    fun,
                    param,
                    body,
                    env,
                }),
                Term::App(l, r) => {
                    m.push(Frame::AppArg {
                        arg: (*r).clone(),
                        env: env.clone(),
                    });
                    Control::Eval((*l).clone(), env)
                }
                Term::Op(op, mut args) => {
                    let rest = args.split_off(1);
                    let first = args.pop().expect("operators have at least one argument");
                    m.push(Frame::OpFrame {
                        op,
                        done: Vec::new(),
                        rest,
                        env: env.clone(),
                    });
                    Control::Eval(first, env)
                }
                Term::Coerce(inner, c) => {
                    m.push(Frame::CastFrame(c));
                    Control::Eval((*inner).clone(), env)
                }
                Term::Blame(p, _) => return done(MachineOutcome::Blame(p), m.metrics),
                Term::If(c, t2, e) => {
                    m.push(Frame::If {
                        then_: (*t2).clone(),
                        else_: (*e).clone(),
                        env: env.clone(),
                    });
                    Control::Eval((*c).clone(), env)
                }
                Term::Let(x, bound, body) => {
                    m.push(Frame::Let {
                        name: x,
                        body: (*body).clone(),
                        env: env.clone(),
                    });
                    Control::Eval((*bound).clone(), env)
                }
            },
            Control::Ret(v) => match m.pop() {
                None => return done(MachineOutcome::Value(v.observe()), m.metrics),
                Some(Frame::AppArg { arg, env }) => {
                    m.push(Frame::AppCall { fun: v });
                    Control::Eval(arg, env)
                }
                Some(Frame::AppCall { fun }) => match apply(&mut m, fun, v) {
                    Ok(c) => c,
                    Err(p) => return done(MachineOutcome::Blame(p), m.metrics),
                },
                Some(Frame::OpFrame {
                    op,
                    mut done,
                    mut rest,
                    env,
                }) => {
                    done.push(v);
                    if rest.is_empty() {
                        let consts: Vec<Constant> = done
                            .iter()
                            .map(|v| match v {
                                Value::Const(k) => *k,
                                other => unreachable!("operator got non-constant {other:?}"),
                            })
                            .collect();
                        Control::Ret(Value::Const(op.apply(&consts)))
                    } else {
                        let next = rest.remove(0);
                        m.push(Frame::OpFrame {
                            op,
                            done,
                            rest,
                            env: env.clone(),
                        });
                        Control::Eval(next, env)
                    }
                }
                Some(Frame::If { then_, else_, env }) => match v {
                    Value::Const(Constant::Bool(true)) => Control::Eval(then_, env),
                    Value::Const(Constant::Bool(false)) => Control::Eval(else_, env),
                    other => unreachable!("if condition returned {other:?}"),
                },
                Some(Frame::Let { name, body, env }) => {
                    let env = env.bind(name, v);
                    Control::Eval(body, env)
                }
                Some(Frame::CastFrame(c)) => match K::apply(v, &c) {
                    Ok(v2) => Control::Ret(v2),
                    Err(p) => return done(MachineOutcome::Blame(p), m.metrics),
                },
            },
        };
    }
}

/// Runs a closed, well-typed term on the machine in one slice.
///
/// # Panics
///
/// Panics on open or ill-typed input (type-check first).
pub fn run<K: MachineCast>(term: &Term<K>, fuel: u64) -> MachineRun {
    resume(start(term, fuel), fuel).finished()
}

/// Applies `fun` to `arg`, unwrapping function proxies: the argument
/// crosses the domain cast at once, and the (unmerged!) codomain cast
/// is pushed as a frame.
fn apply<K: MachineCast>(
    m: &mut Machine<K>,
    fun: Value<K>,
    arg: Value<K>,
) -> Result<Control<K>, Label> {
    match fun {
        Value::Closure { param, body, env } => {
            let env = env.bind(param, arg);
            Ok(Control::Eval((*body).clone(), env))
        }
        Value::FixClosure {
            fun: f,
            param,
            body,
            env,
        } => {
            let self_val = Value::FixClosure {
                fun: f.clone(),
                param: param.clone(),
                body: body.clone(),
                env: env.clone(),
            };
            let env = env.bind(f, self_val).bind(param, arg);
            Ok(Control::Eval((*body).clone(), env))
        }
        Value::Wrapped { value, cast } => {
            let (dom, cod) = K::Rules::split(&cast);
            let arg2 = K::apply(arg, &dom)?;
            m.push(Frame::CastFrame(cod));
            apply(m, (*value).clone(), arg2)
        }
        other => unreachable!("applied a non-function value {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::{eval, programs};
    use bc_translate::bisim::observe;
    use bc_translate::term_b_to_c;

    #[test]
    fn machine_agrees_with_small_step() {
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_typed", programs::even_typed(8)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(4)),
            // Wrapped 2·n times: λS merges the wrappers into one proxy.
            ("wrapped_identity", programs::wrapped_identity(64)),
        ] {
            let small = observe::<LambdaB>(&eval::run(&t, 1_000_000).unwrap().outcome);
            assert_eq!(small, run(&t, 1_000_000).outcome.to_observation(), "{name}");
            let tc = term_b_to_c(&t);
            let small =
                observe::<LambdaC>(&bc_lambda_c::eval::run(&tc, 1_000_000).unwrap().outcome);
            assert_eq!(
                small,
                run(&tc, 1_000_000).outcome.to_observation(),
                "{name}"
            );
            let ts = bc_translate::term_c_to_s(&tc);
            let small =
                observe::<bc_core::LambdaS>(&bc_core::eval::run(&ts, 1_000_000).unwrap().outcome);
            let machine = crate::cek_s::run(&ts, 1_000_000).outcome;
            assert_eq!(small, machine.to_observation(), "{name}");
        }
    }

    #[test]
    fn blame_agrees_with_small_step() {
        let t = bc_lambda_b::Term::int(1)
            .cast(Type::INT, Label::new(0), Type::DYN)
            .cast(Type::DYN, Label::new(1), Type::BOOL);
        let small = eval::run(&t, 100).unwrap().outcome;
        assert!(matches!(small, eval::Outcome::Blame(l) if l == Label::new(1)));
        assert_eq!(run(&t, 100).outcome, MachineOutcome::Blame(Label::new(1)));
        let tc = term_b_to_c(&t);
        assert_eq!(run(&tc, 100).outcome, MachineOutcome::Blame(Label::new(1)));
    }

    #[test]
    fn the_leak_is_real_for_casts_and_coercions() {
        // Peak cast frames grow linearly with the iteration count.
        let (b8, b64) = (programs::boundary_loop(8), programs::boundary_loop(64));
        for (m8, m64) in [
            (run(&b8, 1_000_000), run(&b64, 1_000_000)),
            (
                run(&term_b_to_c(&b8), 1_000_000),
                run(&term_b_to_c(&b64), 1_000_000),
            ),
        ] {
            assert!(
                m64.metrics.peak_cast_frames >= m8.metrics.peak_cast_frames + 56,
                "expected linear frame growth: {} vs {}",
                m8.metrics.peak_cast_frames,
                m64.metrics.peak_cast_frames
            );
        }
    }

    #[test]
    fn typed_code_has_no_cast_frames() {
        let m = run(&programs::even_typed(64), 1_000_000);
        assert_eq!(m.metrics.peak_cast_frames, 0);
        // Proper tail calls: continuation depth is constant-bounded.
        let m2 = run(&programs::even_typed(128), 1_000_000);
        assert_eq!(m.metrics.peak_frames, m2.metrics.peak_frames);
    }
}
