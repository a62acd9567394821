//! Named scenario descriptors and the scenario registry.
//!
//! A [`Scenario`] is a *shape* of load — a sequence of [`Phase`]s, each a
//! full torture-harness configuration (threads, ops, objects, contention
//! profile, crash pressure, durable eras). The same scenario is crossed
//! against every object and backend by [`crate::run::run_matrix`]; the
//! descriptor itself never names an object or a backend.
//!
//! Everything here is data: adding a scenario means adding an entry to
//! [`all`], and the matrix, reports, coverage signature and CI smoke pick
//! it up automatically.

use sbu_stress::ContentionProfile;

/// One load phase of a scenario: a complete sizing of the torture harness.
///
/// A phase runs to quiescence (all ops returned or abandoned, monitor
/// drained) before the next phase starts, over **fresh objects** — phases
/// model the shape of arrival patterns, not a shared-state saga.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Worker threads (= processors) in this phase.
    pub threads: usize,
    /// Operations issued per thread.
    pub ops_per_thread: usize,
    /// Independent object instances.
    pub objects: usize,
    /// How traffic spreads over the objects.
    pub profile: ContentionProfile,
    /// Threads that abandon one op in their final epoch (crash pressure on
    /// the volatile backends; victim count for durable-era crashes).
    pub crash_threads: usize,
    /// Crash–restart eras for durable cells (`0` = single era, no crash).
    pub eras: usize,
    /// Ops per thread per epoch (`0` = harness auto: `max(1, 64/threads)`).
    pub epoch_ops: usize,
    /// Insert random yield/spin perturbation between operations.
    pub perturb: bool,
}

impl Phase {
    /// A small honest phase; scenarios override fields from here.
    pub const fn base() -> Self {
        Phase {
            threads: 4,
            ops_per_thread: 48,
            objects: 4,
            profile: ContentionProfile::Spread,
            crash_threads: 0,
            eras: 0,
            epoch_ops: 0,
            perturb: true,
        }
    }
}

impl Default for Phase {
    fn default() -> Self {
        Self::base()
    }
}

/// A named, seeded, reproducible load shape.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry key (`kebab-case`; doubles as the report-file stem with
    /// `-` mapped to `_`).
    pub name: &'static str,
    /// One-line description for reports and `--list`.
    pub about: &'static str,
    /// The load phases, run in order over fresh objects.
    pub phases: Vec<Phase>,
    /// Sticky-bit lie period for adversarial cells (`TornMem` injection):
    /// every `lie_period`-th jam is weakened. Smaller = more aggressive.
    pub lie_period: u64,
    /// Whether this scenario exercises the *transport* fault plane: lossy
    /// wire injection, retries and worker kills on the service backends.
    /// Transport scenarios run only the fault-plane backends; classic
    /// scenarios run only the classic backends (both directions are
    /// explicit [`crate::Verdict::Skipped`] cells, never silent holes).
    pub transport: bool,
    /// Mean requests between seeded worker kills on the fault-plane
    /// service backends (`0` = no kills). Only meaningful when
    /// `transport` is set.
    pub kill_period: u64,
}

/// All registered scenarios, in canonical (report) order.
pub fn all() -> Vec<Scenario> {
    let base = Phase::base();
    vec![
        Scenario {
            name: "steady-state",
            about: "uniform load, fixed threads, no faults",
            phases: vec![Phase {
                ops_per_thread: 96,
                ..base
            }],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "hot-key-skew",
            about: "half of all traffic hammers object 0",
            phases: vec![Phase {
                profile: ContentionProfile::Hot,
                objects: 6,
                ops_per_thread: 96,
                ..base
            }],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "burst-arrivals",
            about: "big burst, lull, big burst (three phases)",
            phases: vec![
                Phase {
                    ops_per_thread: 96,
                    ..base
                },
                Phase {
                    threads: 2,
                    ops_per_thread: 16,
                    ..base
                },
                Phase {
                    ops_per_thread: 96,
                    ..base
                },
            ],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "thread-churn",
            about: "population ramps 1 → 6 → 2 across phases",
            phases: vec![
                Phase {
                    threads: 1,
                    ops_per_thread: 32,
                    ..base
                },
                Phase {
                    threads: 6,
                    ops_per_thread: 64,
                    ..base
                },
                Phase {
                    threads: 2,
                    ops_per_thread: 32,
                    ..base
                },
            ],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "crash-storm",
            about: "heavy crash pressure: abandonment on volatile backends, repeated eras on durable ones",
            phases: vec![Phase {
                ops_per_thread: 48,
                crash_threads: 3,
                eras: 6,
                ..base
            }],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "contention-collapse",
            about: "every thread on one hot object",
            phases: vec![Phase {
                objects: 1,
                profile: ContentionProfile::Hot,
                threads: 6,
                ops_per_thread: 64,
                ..base
            }],
            lie_period: 7,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "adversary-storm",
            about: "short lie period plus crash pressure — the monitor must catch every adversarial cell",
            phases: vec![Phase {
                ops_per_thread: 96,
                crash_threads: 2,
                eras: 6,
                ..base
            }],
            lie_period: 3,
            transport: false,
            kill_period: 0,
        },
        Scenario {
            name: "lossy-transport",
            about: "honest clients over a seeded lossy wire: drops, dups, \
                    corruption and delays (which reorder) — retries and dedup \
                    must make it exactly-once",
            phases: vec![Phase {
                threads: 3,
                ops_per_thread: 24,
                objects: 3,
                ..base
            }],
            lie_period: 5,
            transport: true,
            kill_period: 0,
        },
        Scenario {
            name: "shard-crash-storm",
            about: "lossy wire plus seeded worker kills mid-run: shards \
                    respawn (volatile) or crash-recover (durable) and no \
                    acked op may be lost",
            phases: vec![Phase {
                threads: 3,
                ops_per_thread: 24,
                objects: 3,
                ..base
            }],
            lie_period: 5,
            transport: true,
            kill_period: 12,
        },
    ]
}

/// Look up one scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_enough_scenarios_and_unique_names() {
        let scenarios = all();
        assert!(scenarios.len() >= 6, "ISSUE 6 wants >= 6 named scenarios");
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "names must be unique");
    }

    #[test]
    fn every_scenario_is_well_formed() {
        for s in all() {
            assert!(!s.phases.is_empty(), "{}: no phases", s.name);
            assert!(s.lie_period >= 1, "{}: lie period", s.name);
            assert!(
                s.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{}: names are kebab-case (they become file stems)",
                s.name
            );
            for p in &s.phases {
                assert!(p.threads >= 1 && p.objects >= 1, "{}: empty phase", s.name);
                assert!(
                    p.crash_threads <= p.threads,
                    "{}: more victims than threads",
                    s.name
                );
            }
            assert!(
                s.kill_period == 0 || (s.transport && s.kill_period >= 2),
                "{}: kill_period needs transport and must be >= 2",
                s.name
            );
        }
    }

    #[test]
    fn transport_scenarios_cover_both_fault_shapes() {
        let scenarios = all();
        assert!(
            scenarios.iter().any(|s| s.transport && s.kill_period == 0),
            "need a lossy-wire-only transport scenario"
        );
        assert!(
            scenarios.iter().any(|s| s.transport && s.kill_period >= 2),
            "need a worker-kill transport scenario"
        );
    }

    #[test]
    fn find_round_trips_names() {
        for s in all() {
            assert_eq!(find(s.name).map(|x| x.name), Some(s.name));
        }
        assert!(find("no-such-scenario").is_none());
    }
}
