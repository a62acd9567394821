//! The full scenario matrix, end to end: every registered scenario crossed
//! against every object and backend. Honest cells must pass, adversarial
//! cells must be caught, and every semantically-impossible or out-of-plane
//! cell must be an explicit skip — the acceptance bar of ISSUE 6's
//! tentpole, extended by ISSUE 8's transport fault plane.

use sbu_scenario::{
    run_matrix, run_scenario, skip_reason, RunConfig, ScenarioBackend, ScenarioObject, Verdict,
};

#[test]
fn full_matrix_holds_the_line() {
    let scenarios = sbu_scenario::all();
    assert!(scenarios.len() >= 6, "ISSUE 6 wants >= 6 named scenarios");
    let rc = RunConfig::default();
    let results = run_matrix(&scenarios, &rc);
    assert_eq!(results.len(), scenarios.len());

    for r in &results {
        assert_eq!(
            r.cells.len(),
            ScenarioObject::all().len() * ScenarioBackend::all().len(),
            "{}: every (object, backend) cell must be present",
            r.scenario.name
        );
        for c in &r.cells {
            // Structural skips (fault-plane gating, the lying counter) are
            // explicit rows with a recorded reason, never silent holes.
            if skip_reason(&r.scenario, c.object, c.backend, rc.max_threads).is_some() {
                assert_eq!(
                    c.verdict,
                    Verdict::Skipped,
                    "{}/{}: skip rule not honored",
                    r.scenario.name,
                    c.key()
                );
                continue;
            }
            if c.backend.is_adversarial() {
                // Adversaries (torn-lying sticky bits, the lying wire):
                // the monitor must catch the lies, with evidence.
                assert_eq!(
                    c.verdict,
                    Verdict::Caught,
                    "{}/{}: the adversary escaped the monitor",
                    r.scenario.name,
                    c.key()
                );
                assert!(
                    !c.violations.is_empty(),
                    "{}: caught without evidence",
                    c.key()
                );
            } else {
                // Honest backends: the paper's objects must linearize —
                // including the sharded service runtime (with or without
                // the lossy transport, worker kills and durable recovery),
                // whose whole client → wire → router → shard stack sits
                // between the harness and the per-key constructions.
                assert_eq!(
                    c.verdict,
                    Verdict::Pass,
                    "{}/{}: honest cell did not pass: {:?}",
                    r.scenario.name,
                    c.key(),
                    c.violations
                );
                assert!(c.total_ops > 0 && c.windows_checked > 0, "{}", c.key());
            }
        }
        assert!(r.is_ok(), "{}: matrix expectation defied", r.scenario.name);
    }
}

#[test]
fn lossy_transport_retries_and_lying_wire_is_caught() {
    // The ISSUE 8 acceptance cells, pinned directly: under the honest
    // lossy wire the service must pass *while actually retransmitting*
    // (drops forced real retries), and the payload-rewriting wire must be
    // caught by the monitor, not merely absorbed by retransmission.
    let lossy = sbu_scenario::find("lossy-transport").expect("registered");
    let result = run_scenario(&lossy, &RunConfig::default());
    let faulty = result
        .cells
        .iter()
        .find(|c| {
            (c.object, c.backend) == (ScenarioObject::Counter, ScenarioBackend::ServiceFaulty)
        })
        .unwrap();
    assert_eq!(faulty.verdict, Verdict::Pass, "{:?}", faulty.violations);
    if sbu_obs::enabled() {
        assert!(
            faulty.metrics.counter("service.inject.drop") > 0,
            "the lossy profile must actually drop frames"
        );
        assert!(
            faulty.metrics.counter("service.retry") > 0,
            "drops must force retransmissions"
        );
    }
    let lying = result
        .cells
        .iter()
        .find(|c| c.backend == ScenarioBackend::ServiceLying && c.verdict != Verdict::Skipped)
        .expect("at least one lying wire cell runs");
    assert_eq!(
        lying.verdict,
        Verdict::Caught,
        "the lying wire escaped the monitor"
    );
}

#[test]
fn shard_crash_storm_respawns_and_loses_nothing() {
    let storm = sbu_scenario::find("shard-crash-storm").expect("registered");
    assert!(storm.kill_period >= 2, "the storm must actually kill");
    let result = run_scenario(&storm, &RunConfig::default());
    let durable = result
        .cells
        .iter()
        .find(|c| {
            (c.object, c.backend) == (ScenarioObject::Counter, ScenarioBackend::ServiceDurable)
        })
        .unwrap();
    assert_eq!(
        durable.verdict,
        Verdict::Pass,
        "durable recovery lost acked state: {:?}",
        durable.violations
    );
    if sbu_obs::enabled() {
        assert!(
            durable.metrics.counter("service.respawn") > 0,
            "the kill plan must fire at least once across the cell"
        );
    }
}

#[test]
fn multi_phase_scenarios_fold_all_phases_into_the_cell() {
    let churn = sbu_scenario::find("thread-churn").expect("registered");
    let result = run_scenario(&churn, &RunConfig::default());
    let expected_native_sticky: usize = churn
        .phases
        .iter()
        .map(|p| p.threads * p.ops_per_thread)
        .sum();
    let cell = result
        .cells
        .iter()
        .find(|c| (c.object, c.backend) == (ScenarioObject::Sticky, ScenarioBackend::Native))
        .unwrap();
    assert_eq!(
        cell.total_ops, expected_native_sticky,
        "sticky/native must run every phase exactly once"
    );
}

#[test]
fn reports_cite_live_instruments_when_obs_is_on() {
    // With the obs feature the native sticky cell must carry backend
    // counters into the report; without it the snapshot is empty — either
    // way the report generation path is exercised by the determinism and
    // coverage tests, so here we only pin the cell-level contract.
    let steady = sbu_scenario::find("steady-state").unwrap();
    let result = run_scenario(&steady, &RunConfig::default());
    let cell = &result.cells[0];
    if sbu_obs::enabled() {
        assert!(
            !cell.metrics.counters.is_empty(),
            "obs build must record backend instruments"
        );
    } else {
        assert!(cell.metrics.is_empty(), "dark build must record nothing");
    }
}
