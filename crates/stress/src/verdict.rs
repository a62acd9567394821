//! Typed process-exit statuses for the stress drivers.
//!
//! The stress example used to collapse every non-clean outcome into exit
//! code 1, so a CI smoke could not tell "the monitor caught a real
//! violation under an honest backend" from "the injected fault escaped"
//! from "a window outgrew the checker" without grepping stdout. This module
//! gives each outcome its own code (documented in [`crate::USAGE`]) and a
//! worst-wins accumulator for multi-workload / multi-iteration runs.

/// One run outcome, ordered by severity (larger = worse). The numeric exit
/// codes are part of the CLI contract — see [`crate::USAGE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExitStatus {
    /// Everything linearized; injected faults (if any) were caught.
    Clean,
    /// The run shed load: requests ended in the *typed* capacity outcome
    /// (`Busy` at a mailbox high watermark) after exhausting their retry
    /// budget. Everything that completed was correct — this is overload,
    /// not a verdict, and it must never masquerade as (or mask) a
    /// violation.
    Capacity,
    /// Windows outgrew the checker's capacity and went unverified — a
    /// configuration problem, not a verdict.
    Unverified,
    /// An injected fault (`--inject` / `--torn lying`) was NOT caught: the
    /// monitor has a blind spot.
    NotCaught,
    /// The monitor caught a linearizability / durability violation under an
    /// honest configuration: a real bug in the objects or the backend. The
    /// most severe outcome — it wins over everything else.
    Violation,
}

impl ExitStatus {
    /// The process exit code for this outcome.
    pub fn code(self) -> u8 {
        match self {
            ExitStatus::Clean => 0,
            ExitStatus::Violation => 1,
            // 2 is reserved for usage errors (bail paths exit directly).
            ExitStatus::NotCaught => 3,
            ExitStatus::Unverified => 4,
            ExitStatus::Capacity => 5,
        }
    }
}

/// Worst-wins accumulator over the runs of one invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExitAccumulator {
    worst: Option<ExitStatus>,
}

impl ExitAccumulator {
    /// Nothing recorded yet (resolves to [`ExitStatus::Clean`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run's outcome; severity ordering decides what sticks.
    pub fn record(&mut self, status: ExitStatus) {
        self.worst = Some(match self.worst {
            Some(w) => w.max(status),
            None => status,
        });
    }

    /// The accumulated outcome.
    pub fn status(&self) -> ExitStatus {
        self.worst.unwrap_or(ExitStatus::Clean)
    }

    /// The accumulated process exit code.
    pub fn code(&self) -> u8 {
        self.status().code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_the_documented_contract() {
        assert_eq!(ExitStatus::Clean.code(), 0);
        assert_eq!(ExitStatus::Violation.code(), 1);
        assert_eq!(ExitStatus::NotCaught.code(), 3);
        assert_eq!(ExitStatus::Unverified.code(), 4);
        assert_eq!(ExitStatus::Capacity.code(), 5);
        // Usage errors (code 2) never flow through ExitStatus; keep the
        // hole so no outcome collides with them.
        for s in [
            ExitStatus::Clean,
            ExitStatus::Violation,
            ExitStatus::NotCaught,
            ExitStatus::Unverified,
            ExitStatus::Capacity,
        ] {
            assert_ne!(s.code(), 2);
        }
    }

    #[test]
    fn usage_documents_every_exit_code() {
        for needle in ["exit codes", "0  clean", "2  usage error"] {
            assert!(
                crate::USAGE.contains(needle),
                "USAGE must document {needle:?}"
            );
        }
    }

    #[test]
    fn accumulator_keeps_the_worst() {
        let mut acc = ExitAccumulator::new();
        assert_eq!(acc.status(), ExitStatus::Clean);
        acc.record(ExitStatus::Clean);
        assert_eq!(acc.code(), 0);
        acc.record(ExitStatus::Unverified);
        assert_eq!(acc.code(), 4);
        acc.record(ExitStatus::NotCaught);
        assert_eq!(acc.code(), 3);
        acc.record(ExitStatus::Violation);
        assert_eq!(acc.code(), 1);
        // Nothing downgrades a violation.
        acc.record(ExitStatus::Clean);
        assert_eq!(acc.code(), 1);
    }

    #[test]
    fn severity_ordering_matches_intent() {
        assert!(ExitStatus::Violation > ExitStatus::NotCaught);
        assert!(ExitStatus::NotCaught > ExitStatus::Unverified);
        assert!(ExitStatus::Unverified > ExitStatus::Capacity);
        assert!(ExitStatus::Capacity > ExitStatus::Clean);
    }

    #[test]
    fn capacity_never_masks_a_verdict() {
        let mut acc = ExitAccumulator::new();
        acc.record(ExitStatus::Capacity);
        assert_eq!(acc.code(), 5);
        acc.record(ExitStatus::Violation);
        assert_eq!(acc.code(), 1, "a violation outranks shed load");
        let mut acc = ExitAccumulator::new();
        acc.record(ExitStatus::NotCaught);
        acc.record(ExitStatus::Capacity);
        assert_eq!(acc.code(), 3, "shed load never downgrades an escape");
    }
}
