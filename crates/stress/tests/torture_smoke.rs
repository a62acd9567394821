//! End-to-end torture smokes: every workload on real threads, crash
//! injection (both balanced-extension outcomes), and the "monitor has
//! teeth" checks — a seeded mutation of the native sticky-bit CAS must be
//! flagged by the online checker.
//!
//! The full-length torture is `#[ignore]`d; CI's gate runs these short
//! versions (deterministic seeds, a few seconds total) and the deep job
//! runs everything via `--ignored`.

use sbu_stress::{run_workload, Inject, StressConfig, Workload};

fn cfg(threads: usize, ops: usize, seed: u64) -> StressConfig {
    let mut c = StressConfig::new(threads, ops, seed);
    c.objects = 2;
    c
}

#[test]
fn every_workload_linearizes_briefly() {
    for (w, ops) in [
        (Workload::Sticky, 400),
        (Workload::Jam, 200),
        (Workload::Election, 200),
        (Workload::ConsensusSticky, 200),
        (Workload::UniversalCounter, 48),
        (Workload::UniversalQueue, 48),
        (Workload::UniversalBlock, 48),
    ] {
        let report = run_workload(w, &cfg(3, ops, 42), Inject::None);
        report.assert_clean();
        assert_eq!(report.total_ops, 3 * ops, "workload {w}");
        assert_eq!(report.pending_ops, 0, "workload {w}");
        assert!(report.windows_checked > 0, "workload {w}");
    }
}

#[test]
fn crashed_threads_leave_pending_ops_that_still_linearize() {
    // Threads 0 (drop mode: abandons before executing) and 1 (take-effect
    // mode: executes, never acknowledges) each abandon one op in their
    // final epoch — both balanced-extension outcomes of Definition 3.1 on
    // a real multi-thread history.
    let mut c = cfg(4, 300, 7);
    c.crash_threads = 2;
    let report = run_workload(Workload::Sticky, &c, Inject::None);
    report.assert_clean();
    assert_eq!(report.pending_ops, 2, "one abandoned op per crashed thread");
    assert!(report.completed_ops > 0);
}

#[test]
fn crash_works_on_the_universal_construction_too() {
    let mut c = cfg(3, 40, 11);
    c.crash_threads = 2;
    let report = run_workload(Workload::UniversalCounter, &c, Inject::None);
    report.assert_clean();
    assert_eq!(report.pending_ops, 2);
}

#[test]
fn torn_jam_injection_is_caught() {
    // A torn CAS reports a disagreeing Jam as successful. Two completed
    // successful jams of opposite values can never linearize on one sticky
    // bit (no Flush in the workload), so once a lie fires the frontier-set
    // monitor must empty out and report a violation.
    let report = run_workload(Workload::Sticky, &cfg(4, 500, 42), Inject::TornJam);
    assert!(
        !report.all_linearizable(),
        "online monitor failed to catch torn-jam injection: {report}"
    );
    assert!(!report.violations.is_empty());
}

#[test]
fn stale_read_injection_is_caught() {
    // A stale read reports `⊥` after the bit was pinned by completed jams
    // in earlier windows; `⊥` is unreachable again without Flush.
    let report = run_workload(Workload::Sticky, &cfg(4, 500, 42), Inject::StaleRead);
    assert!(
        !report.all_linearizable(),
        "online monitor failed to catch stale-read injection: {report}"
    );
}

#[test]
fn reports_are_seed_deterministic_in_op_counts() {
    let a = run_workload(Workload::Sticky, &cfg(2, 300, 1234), Inject::None);
    let b = run_workload(Workload::Sticky, &cfg(2, 300, 1234), Inject::None);
    a.assert_clean();
    b.assert_clean();
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.completed_ops, b.completed_ops);
}

/// The full torture: longer runs over every workload, with perturbation and
/// crashes. Minutes of wall clock — kept behind `--ignored` (CI deep job,
/// `scripts/ci.sh --full`).
#[test]
#[ignore = "full torture run; invoked by ci.sh --full"]
fn full_torture_all_workloads() {
    for w in Workload::all() {
        let ops = match w {
            Workload::UniversalCounter | Workload::UniversalQueue | Workload::UniversalBlock => 400,
            _ => 5_000,
        };
        let mut c = StressConfig::new(8, ops, 0xC0FFEE);
        c.objects = 4;
        c.crash_threads = 3;
        let report = run_workload(w, &c, Inject::None);
        report.assert_clean();
        assert_eq!(report.pending_ops, 3, "workload {w}");
    }
    // And the monitor's teeth, at full length.
    let mut c = StressConfig::new(8, 5_000, 0xC0FFEE);
    c.objects = 4;
    let report = run_workload(Workload::Sticky, &c, Inject::TornJam);
    assert!(!report.all_linearizable());
}
