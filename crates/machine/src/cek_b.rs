//! A CEK machine for λB.
//!
//! Casts become continuation frames; a pending result cast is pushed
//! for every function-cast application and *never merged*, so
//! boundary-crossing tail calls grow the continuation — the machine
//! reproduces the space leak of §1 faithfully (see the metrics).

use std::rc::Rc;

use bc_lambda_b::term::{Cast, Term};
use bc_syntax::{Constant, Label, Name, Op, Type};
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, SliceResult};

/// Run-time values of the λB machine.
#[derive(Debug, Clone)]
pub enum Value {
    /// A constant.
    Const(Constant),
    /// A closure.
    Closure {
        /// Parameter name.
        param: Name,
        /// Function body.
        body: Rc<Term>,
        /// Captured environment.
        env: Env,
    },
    /// A recursive closure (`fix`).
    FixClosure {
        /// Function name (bound to the closure itself on application).
        fun: Name,
        /// Parameter name.
        param: Name,
        /// Function body.
        body: Rc<Term>,
        /// Captured environment.
        env: Env,
    },
    /// A value wrapped in a cast: either a function proxy
    /// (`A→B ⇒p A'→B'`) or an injection (`G ⇒p ?`).
    Wrapped {
        /// The underlying value.
        value: Rc<Value>,
        /// The wrapping cast.
        cast: Cast,
    },
}

impl Value {
    /// The calculus-agnostic observation of this value.
    pub fn observe(&self) -> Observation {
        match self {
            Value::Const(k) => Observation::Constant(*k),
            Value::Closure { .. } | Value::FixClosure { .. } => Observation::Function,
            Value::Wrapped { value, cast } => match (&cast.source, &cast.target) {
                (Type::Fun(_, _), Type::Fun(_, _)) => Observation::Function,
                (src, Type::Dyn) => Observation::Injected(
                    src.as_ground().expect("injection from ground"),
                    Box::new(value.observe()),
                ),
                _ => unreachable!("wrapped value with a non-value cast"),
            },
        }
    }
}

/// A persistent environment (linked list; cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Name,
    value: Value,
    rest: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Extends the environment with a binding.
    #[must_use]
    pub fn bind(&self, name: Name, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value,
            rest: self.clone(),
        })))
    }

    fn lookup(&self, name: &Name) -> Option<&Value> {
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
enum Frame {
    AppArg {
        arg: Term,
        env: Env,
    },
    AppCall {
        fun: Value,
    },
    OpFrame {
        op: Op,
        done: Vec<Value>,
        rest: Vec<Term>,
        env: Env,
    },
    If {
        then_: Term,
        else_: Term,
        env: Env,
    },
    Let {
        name: Name,
        body: Term,
        env: Env,
    },
    CastFrame(Cast),
}

enum Control {
    Eval(Term, Env),
    Ret(Value),
}

/// The λB CEK machine.
struct Machine {
    stack: Vec<Frame>,
    metrics: Metrics,
    cast_frames: usize,
    cast_size: usize,
}

fn cast_size(c: &Cast) -> usize {
    c.source.size() + c.target.size() + 1
}

impl Machine {
    fn push(&mut self, f: Frame) {
        if let Frame::CastFrame(c) = &f {
            self.cast_frames += 1;
            self.cast_size += cast_size(c);
        }
        self.stack.push(f);
        self.metrics
            .observe(self.stack.len(), self.cast_frames, self.cast_size);
    }

    fn pop(&mut self) -> Option<Frame> {
        let f = self.stack.pop();
        if let Some(Frame::CastFrame(c)) = &f {
            self.cast_frames -= 1;
            self.cast_size -= cast_size(c);
        }
        f
    }
}

/// Applies a cast to a value immediately (values cross casts without
/// machine steps; function casts and injections wrap).
fn cast_value(v: Value, cast: &Cast) -> Result<Value, Label> {
    match (&cast.source, &cast.target) {
        (Type::Base(_), Type::Base(_)) | (Type::Dyn, Type::Dyn) => Ok(v),
        (Type::Fun(_, _), Type::Fun(_, _)) => Ok(Value::Wrapped {
            value: Rc::new(v),
            cast: cast.clone(),
        }),
        (a, Type::Dyn) => {
            if a.is_ground() {
                Ok(Value::Wrapped {
                    value: Rc::new(v),
                    cast: cast.clone(),
                })
            } else {
                let g = a.ground_of().expect("not ? here").ty();
                let first = cast_value(v, &Cast::new(a.clone(), cast.label, g.clone()))?;
                cast_value(first, &Cast::new(g, cast.label, Type::Dyn))
            }
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
                let first = cast_value(v, &Cast::new(Type::Dyn, cast.label, g.clone()))?;
                cast_value(first, &Cast::new(g, cast.label, b.clone()))
            }
        },
        (a, b) => unreachable!("ill-typed cast {a} ⇒ {b} reached the machine"),
    }
}

/// A preempted λB machine run, parked between fuel slices.
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
pub struct Paused {
    machine: Machine,
    control: Control,
    fuel: u64,
}

impl Paused {
    /// Machine transitions taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.machine.metrics.steps
    }
}

/// Begins a resumable run of a closed, well-typed λB term. No steps
/// are taken; drive the machine with [`resume`].
pub fn start(term: &Term, fuel: u64) -> Paused {
    Paused {
        machine: Machine {
            stack: Vec::new(),
            metrics: Metrics::default(),
            cast_frames: 0,
            cast_size: 0,
        },
        control: Control::Eval(term.clone(), Env::new()),
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
pub fn resume(paused: Paused, slice: u64) -> SliceResult<Paused> {
    let Paused {
        machine: mut m,
        mut control,
        fuel,
    } = paused;
    let until = m.metrics.steps.saturating_add(slice);
    loop {
        if m.metrics.steps >= fuel {
            return SliceResult::Done(MachineRun {
                outcome: MachineOutcome::Timeout,
                metrics: m.metrics,
            });
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
                Term::Blame(p, _) => {
                    return SliceResult::Done(MachineRun {
                        outcome: MachineOutcome::Blame(p),
                        metrics: m.metrics,
                    })
                }
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
                None => {
                    return SliceResult::Done(MachineRun {
                        outcome: MachineOutcome::Value(v.observe()),
                        metrics: m.metrics,
                    })
                }
                Some(Frame::AppArg { arg, env }) => {
                    m.push(Frame::AppCall { fun: v });
                    Control::Eval(arg, env)
                }
                Some(Frame::AppCall { fun }) => match apply(&mut m, fun, v) {
                    Ok(c) => c,
                    Err(p) => {
                        return SliceResult::Done(MachineRun {
                            outcome: MachineOutcome::Blame(p),
                            metrics: m.metrics,
                        })
                    }
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
                Some(Frame::CastFrame(c)) => match cast_value(v, &c) {
                    Ok(v2) => Control::Ret(v2),
                    Err(p) => {
                        return SliceResult::Done(MachineRun {
                            outcome: MachineOutcome::Blame(p),
                            metrics: m.metrics,
                        })
                    }
                },
            },
        };
    }
}

/// Runs a closed, well-typed λB term on the CEK machine in one slice.
///
/// # Panics
///
/// Panics on open or ill-typed input (type-check first).
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    match resume(start(term, fuel), fuel) {
        SliceResult::Done(r) => r,
        SliceResult::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}

/// Applies `fun` to `arg`, unwrapping function-cast proxies.
fn apply(m: &mut Machine, fun: Value, arg: Value) -> Result<Control, Label> {
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
        Value::Wrapped { value, cast } => match (&cast.source, &cast.target) {
            (Type::Fun(a, b), Type::Fun(a2, b2)) => {
                // (V : A→B ⇒p A'→B') W: cast the argument with p̄,
                // push the (unmerged!) result cast, apply the proxy.
                let arg2 = cast_value(
                    arg,
                    &Cast::new((**a2).clone(), cast.label.complement(), (**a).clone()),
                )?;
                m.push(Frame::CastFrame(Cast::new(
                    (**b).clone(),
                    cast.label,
                    (**b2).clone(),
                )));
                apply(m, (*value).clone(), arg2)
            }
            _ => unreachable!("applied a non-function wrapper"),
        },
        other => unreachable!("applied a non-function value {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::programs;

    #[test]
    fn machine_agrees_with_small_step() {
        use bc_lambda_b::eval;
        use bc_translate::bisim::observe_b;
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_typed", programs::even_typed(8)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(4)),
        ] {
            let small = observe_b(&eval::run(&t, 1_000_000).unwrap().outcome);
            let machine = run(&t, 1_000_000).outcome.to_observation();
            assert_eq!(small, machine, "{name}");
        }
    }

    #[test]
    fn blame_agrees_with_small_step() {
        use bc_lambda_b::eval;
        use bc_syntax::Label;
        let t = Term::int(1).cast(Type::INT, Label::new(0), Type::DYN).cast(
            Type::DYN,
            Label::new(1),
            Type::BOOL,
        );
        let small = eval::run(&t, 100).unwrap().outcome;
        let machine = run(&t, 100).outcome;
        assert_eq!(machine, MachineOutcome::Blame(Label::new(1)));
        assert!(matches!(small, eval::Outcome::Blame(l) if l == Label::new(1)));
    }

    #[test]
    fn the_leak_is_real() {
        // Peak cast frames grow linearly with the iteration count.
        let m8 = run(&programs::boundary_loop(8), 1_000_000);
        let m64 = run(&programs::boundary_loop(64), 1_000_000);
        assert!(
            m64.metrics.peak_cast_frames >= m8.metrics.peak_cast_frames + 56,
            "expected linear frame growth: {} vs {}",
            m8.metrics.peak_cast_frames,
            m64.metrics.peak_cast_frames
        );
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
