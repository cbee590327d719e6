//! CEK-style abstract machines for λB, λC, and λS with space
//! instrumentation.
//!
//! The paper's introduction recounts the space-leak story: a naive
//! implementation of casts breaks tail calls, because pending
//! result-casts pile up in the continuation. These machines make the
//! story measurable:
//!
//! * [`cek`] — one machine for λB and λC, generic over the cast form
//!   ([`cek::MachineCast`]). Cast and coercion frames are pushed and
//!   never merged; mutually recursive typed/untyped tail calls grow the
//!   continuation linearly.
//! * [`cek_s`] — the machine for λS (in the style of Siek–Garcia
//!   2012): pushing a coercion frame onto a continuation whose top is
//!   already a coercion frame *composes* the two with `s # t` instead.
//!   Together with Proposition 14 (composition preserves height) this
//!   bounds the continuation and restores proper tail calls.
//!
//! Every machine reports [`metrics::Metrics`]: peak continuation
//! depth, peak number of cast/coercion frames, and peak total size of
//! coercions held by the continuation. The `space_efficiency` example
//! prints the space series from these numbers, and the `space_series`
//! test checks it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cek;
pub mod cek_s;
pub mod metrics;

pub use metrics::{MachineOutcome, Metrics, ReuseStats};
