//! Integration tests for the append-only slab base behind epoch
//! promotion: appending a session's overlay to its base's shared slab
//! ([`Session::freeze`]) must be observationally identical to freezing
//! one base-less session that replayed the same traffic, and readers
//! pinned to an old watermark must be undisturbed by a writer
//! appending new epochs to the same slab underneath them.

use std::sync::{Arc, Barrier};

use bc_testkit::sources;
use blame_coercion::{Engine, FrozenBase, RunError, Session};

const FUEL: u64 = 50_000;

/// Outcome fingerprint: observation (including blame labels), step
/// count, and typed errors with their step counts — the full
/// observable behaviour, none of the sharing metrics.
fn fingerprint(session: &Session, source: &str) -> String {
    let program = match session.compile(source) {
        Ok(p) => p,
        Err(d) => return format!("compile error: {}", d.message),
    };
    match session.run_with_fuel(&program, Engine::MachineS, FUEL) {
        Ok(r) => format!("{} in {} steps", r.observation, r.steps),
        Err(RunError::FuelExhausted { steps, .. }) => format!("fuel exhausted at {steps}"),
        Err(RunError::IllTyped(d)) => format!("ill typed: {}", d.message),
    }
}

fn session_over(base: Option<&Arc<FrozenBase>>) -> Session {
    let builder = Session::builder().default_fuel(FUEL);
    match base {
        Some(base) => builder.base(Arc::clone(base)).build(),
        None => builder.build(),
    }
}

#[test]
fn append_promotion_matches_refreeze_promotion() {
    // Equivalence acceptance: growing a base by appending each
    // phase's overlay to the shared slab must agree, phase by phase,
    // with one base-less session that replays every phase so far and
    // is frozen flat — same node/verdict/pair counts (ids are dense,
    // so equal counts over identical interning order means identical
    // ids) and byte-identical run outcomes — across 4
    // append-promotions of a drifting workload.
    const ROTATE: usize = 48;
    let batch = sources::drifting(0xE9_0C47, 5 * ROTATE, ROTATE);
    let replay = session_over(None);
    let mut appended: Option<Arc<FrozenBase>> = None;
    for (phase, chunk) in batch.chunks(ROTATE).enumerate() {
        let via_append = session_over(appended.as_ref());
        let append_outcomes: Vec<String> =
            chunk.iter().map(|s| fingerprint(&via_append, s)).collect();
        let replay_outcomes: Vec<String> = chunk.iter().map(|s| fingerprint(&replay, s)).collect();
        assert_eq!(
            append_outcomes, replay_outcomes,
            "phase {phase}: append lineage and replay diverged"
        );
        assert!(
            append_outcomes.iter().all(|f| !f.contains("compile error")),
            "drifting sources must compile: {append_outcomes:?}"
        );

        let next_appended = via_append.freeze();
        let flat = replay.freeze();
        assert_eq!(next_appended.type_nodes(), flat.type_nodes());
        assert_eq!(next_appended.coercion_nodes(), flat.coercion_nodes());
        assert_eq!(next_appended.verdicts(), flat.verdicts());
        assert_eq!(
            next_appended.compose_pairs(),
            flat.compose_pairs(),
            "phase {phase}: slab-append lost or duplicated compose pairs"
        );
        if let Some(prev) = &appended {
            assert!(
                next_appended.extends(prev),
                "an append-freeze must extend the base it grew over"
            );
        }
        assert!(
            !flat.extends(&next_appended) && !next_appended.extends(&flat),
            "the replay's flat freeze roots a fresh id-space"
        );
        appended = Some(next_appended);
    }
}

#[test]
fn readers_over_a_pinned_epoch_are_undisturbed_by_appending_writers() {
    // Concurrency acceptance: 4 reader threads doing id lookups and
    // relational queries (every compile probes the frozen node index
    // and verdict table; every run resolves ids) against a pinned
    // epoch view, racing a writer that appends 4 new epochs to the
    // *same slab* underneath them. Readers are below their watermark
    // for the whole race, so every outcome must match the sequential
    // baseline byte for byte.
    const READERS: usize = 4;
    const REPS: usize = 3;
    let warm = session_over(None);
    for source in sources::shapes() {
        let program = warm.compile(&source).expect("warmup compiles");
        let _ = warm.run_with_fuel(&program, Engine::MachineS, FUEL);
    }
    let base = warm.freeze();
    let batch = sources::mixed(0x00C0_FFEE, 64);
    let baseline: Vec<String> = {
        let session = session_over(Some(&base));
        batch.iter().map(|s| fingerprint(&session, s)).collect()
    };

    let start = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let base = Arc::clone(&base);
            let batch = batch.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                // A fresh overlay session per rep: every rep re-probes
                // the shared slab's indices from scratch mid-append.
                let mut first: Option<Vec<String>> = None;
                for _ in 0..REPS {
                    let session = session_over(Some(&base));
                    let outcomes: Vec<String> =
                        batch.iter().map(|s| fingerprint(&session, s)).collect();
                    match &first {
                        None => first = Some(outcomes),
                        Some(f) => assert_eq!(&outcomes, f, "reader outcomes drifted mid-race"),
                    }
                }
                first.expect("at least one rep ran")
            })
        })
        .collect();

    // The writer: 4 append-promotions chained over the readers' base,
    // each appending a drifted overlay above the pinned watermark.
    start.wait();
    let drift = sources::drifting(0x5EED_5EED, 4 * 32, 32);
    let mut current = Arc::clone(&base);
    for chunk in drift.chunks(32) {
        let writer = session_over(Some(&current));
        for source in chunk {
            let program = writer.compile(source).expect("drift compiles");
            let _ = writer.run_with_fuel(&program, Engine::MachineS, FUEL);
        }
        let next = writer.freeze();
        assert!(next.extends(&current));
        assert!(next.extends(&base), "every epoch extends the pinned root");
        current = next;
    }
    assert!(
        current.coercion_nodes() > base.coercion_nodes(),
        "the writer must have appended real overlay nodes"
    );

    for reader in readers {
        let outcomes = reader.join().expect("reader thread");
        assert_eq!(outcomes, baseline);
    }
}
