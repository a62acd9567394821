//! Seed determinism of the scenario artifacts (ISSUE 6, satellite 3).
//!
//! Capped at one worker thread, a run's histories are independent of OS
//! scheduling, the monitor's window cuts are data-determined, and the
//! reports contain no wall-clock content — so running the same scenario
//! with the same seed twice must produce **byte-identical** report bodies,
//! OBS snapshots and BENCH documents.

use sbu_scenario::report::{bench_json, merged_metrics, render_scenario_report, write_artifacts};
use sbu_scenario::{run_matrix, RunConfig};

fn rc(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        max_threads: 1,
        ops_factor: 1,
    }
}

fn scenarios(names: &[&str]) -> Vec<sbu_scenario::Scenario> {
    names
        .iter()
        .map(|n| sbu_scenario::find(n).expect("registered scenario"))
        .collect()
}

#[test]
fn same_seed_same_bytes_on_one_thread() {
    // One honest scenario, the adversary preset and the two transport
    // scenarios: determinism must hold for lying backends too (their lies
    // are seeded like everything else), and over the fault plane's lossy
    // wire and worker kills.
    let picked = scenarios(&[
        "steady-state",
        "adversary-storm",
        "lossy-transport",
        "shard-crash-storm",
    ]);
    let config = rc(99);
    let a = run_matrix(&picked, &config);
    let b = run_matrix(&picked, &config);

    for (ra, rb) in a.iter().zip(b.iter()) {
        assert_eq!(
            render_scenario_report(ra, &config),
            render_scenario_report(rb, &config),
            "{}: report bodies differ between identical runs",
            ra.scenario.name
        );
        let (ma, mb) = (merged_metrics(ra), merged_metrics(rb));
        assert_eq!(
            ma.counters, mb.counters,
            "{}: OBS counter snapshots differ",
            ra.scenario.name
        );
        assert_eq!(
            ma.to_json().render(),
            mb.to_json().render(),
            "{}: OBS documents differ",
            ra.scenario.name
        );
        for (ca, cb) in ra.cells.iter().zip(rb.cells.iter()) {
            assert_eq!(ca.verdict, cb.verdict, "{}: verdict flip", ca.key());
            assert_eq!(ca.total_ops, cb.total_ops, "{}: op drift", ca.key());
            assert_eq!(ca.seed, cb.seed, "{}: derived seed drift", ca.key());
        }
    }
    assert_eq!(
        bench_json(&a, &config).render(),
        bench_json(&b, &config).render(),
        "BENCH documents differ between identical runs"
    );
}

#[test]
fn different_seeds_change_the_streams() {
    let picked = scenarios(&["steady-state"]);
    let a = run_matrix(&picked, &rc(1));
    let b = run_matrix(&picked, &rc(2));
    // Derived cell seeds (cited in the reports) must move with the master
    // seed — otherwise "--seed" would silently not reproduce anything new.
    for (ca, cb) in a[0].cells.iter().zip(b[0].cells.iter()) {
        assert_ne!(
            ca.seed,
            cb.seed,
            "{}: cell seed ignored the run seed",
            ca.key()
        );
    }
}

#[test]
fn artifacts_on_disk_are_byte_identical_too() {
    // End-to-end through the file writer: two runs into two directories,
    // then a straight byte comparison of every artifact.
    let base = std::env::temp_dir().join(format!("sbu-scenario-det-{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("a"), base.join("b"));
    let picked = scenarios(&["steady-state"]);
    let config = rc(7);
    let wrote_a = write_artifacts(&run_matrix(&picked, &config), &config, &dir_a).unwrap();
    let wrote_b = write_artifacts(&run_matrix(&picked, &config), &config, &dir_b).unwrap();
    assert_eq!(wrote_a.len(), wrote_b.len());
    assert_eq!(wrote_a.len(), 3, "report + OBS + BENCH");
    for (pa, pb) in wrote_a.iter().zip(wrote_b.iter()) {
        assert_eq!(
            pa.file_name(),
            pb.file_name(),
            "artifact names must be stable"
        );
        assert_eq!(
            std::fs::read(pa).unwrap(),
            std::fs::read(pb).unwrap(),
            "{:?} differs between identical runs",
            pa.file_name()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
