//! Typed command-line options for the stress entry points.
//!
//! [`Options::parse`] turns an argument list into a validated [`Options`],
//! shared by `examples/stress.rs` and the E10 benchmark driver so the two
//! never drift apart on flag names or defaults. Errors are typed
//! ([`OptionsError`]) rather than process exits, so library callers can
//! render them however they like; `--help`/`-h` surfaces as
//! [`OptionsError::Help`] with the canonical [`USAGE`] text.

use crate::harness::ContentionProfile;
use crate::inject::Inject;
use sbu_mem::TornPersist;

/// Canonical usage text for the stress drivers.
pub const USAGE: &str = "\
usage: stress [options]
  --threads N        worker threads (default 4)
  --ops N            total operations, split across threads (default 40000)
  --seed N           master seed (default 42)
  --workload W       sticky|jam|election|consensus-sticky|universal-counter|
                     universal-queue|universal-block|all (default sticky);
                     with --crash-restart:
                     recoverable-jam|recoverable-counter|all
  --objects N        independent object instances (default 4)
  --profile P        hot|spread contention profile (default hot)
  --inject I         none|torn-jam|stale-read fault injection; sticky-only
                     (default none); exit 0 iff the monitor CATCHES the fault
  --crash N          threads that abandon one op (normal mode: in their final
                     epoch; crash-restart mode: per era, default 1)
  --epoch-ops N      ops per thread per epoch (default auto: 64/threads)
  --crash-restart    durable torture: eras split by real crash+restart+recovery
                     over DurableMem, verdict from check_durable
  --torn P           crash-restart torn-persist policy:
                     persist|lose|seeded:N|lying (default persist); with
                     lying, exit 0 iff the durable checker CATCHES the lie
  --eras N           crash-restart eras per run (default 4)
  --iters N          repeat the run with seeds seed..seed+N (default 1)

exit codes (assertable by CI without grepping the verdict lines):
  0  clean: every window linearized, and with --inject / --torn lying the
     monitor CAUGHT the injected fault
  1  the monitor caught a linearizability / durability violation under an
     HONEST configuration — a real bug in the objects or backend
  2  usage error
  3  an injected fault escaped: --inject / --torn lying ran but the monitor
     caught nothing
  4  capacity overflow: windows outgrew the checker and went unverified
  5  load shed: requests ended in the typed Busy capacity outcome
     (service-plane drivers) — overload, not a correctness verdict";

/// Why an argument list failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// `--help`/`-h` was given: not an error, but parsing stops; callers
    /// should print [`USAGE`] and exit successfully.
    Help,
    /// A flag that no stress driver understands.
    UnknownFlag(String),
    /// A flag that takes a value appeared last, without one.
    MissingValue(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The offending flag, e.g. `--threads`.
        flag: String,
        /// The value as given.
        value: String,
        /// The underlying parse error, rendered.
        reason: String,
    },
    /// Flags parsed individually but the combination is invalid
    /// (e.g. `--threads 0`).
    Invalid(String),
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptionsError::Help => write!(f, "help requested"),
            OptionsError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            OptionsError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            OptionsError::BadValue {
                flag,
                value,
                reason,
            } => {
                write!(f, "bad value {value:?} for {flag}: {reason}")
            }
            OptionsError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Parsed configuration of one stress invocation (both normal and
/// crash-restart modes; which fields matter depends on
/// [`Options::crash_restart`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Worker threads.
    pub threads: usize,
    /// Total operations across all threads.
    pub total_ops: usize,
    /// Master seed.
    pub seed: u64,
    /// Raw `--workload` argument (`None` = the mode's default; `"all"` and
    /// mode-specific names are resolved by the driver, which knows whether
    /// it is in crash-restart mode).
    pub workload: Option<String>,
    /// Independent object instances.
    pub objects: usize,
    /// Contention profile.
    pub profile: ContentionProfile,
    /// Sticky-only fault injection.
    pub inject: Inject,
    /// Threads that abandon one op (`None` = mode default).
    pub crash: Option<usize>,
    /// Ops per thread per epoch (0 = auto).
    pub epoch_ops: usize,
    /// Crash-restart mode instead of the normal torture.
    pub crash_restart: bool,
    /// Torn-persist policy (crash-restart mode).
    pub torn: TornPersist,
    /// Eras per crash-restart run.
    pub eras: usize,
    /// Repeat count (seeds `seed..seed+iters`).
    pub iters: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            threads: 4,
            total_ops: 40_000,
            seed: 42,
            workload: None,
            objects: 4,
            profile: ContentionProfile::Hot,
            inject: Inject::None,
            crash: None,
            epoch_ops: 0,
            crash_restart: false,
            torn: TornPersist::Persist,
            eras: 4,
            iters: 1,
        }
    }
}

impl Options {
    /// Parse an argument list (without the program name).
    pub fn parse<I>(args: I) -> Result<Self, OptionsError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut opts = Options::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--threads" => opts.threads = value(&flag, args.next())?,
                "--ops" => opts.total_ops = value(&flag, args.next())?,
                "--seed" => opts.seed = value(&flag, args.next())?,
                "--workload" => {
                    opts.workload = Some(args.next().ok_or(OptionsError::MissingValue(flag))?)
                }
                "--objects" => opts.objects = value(&flag, args.next())?,
                "--profile" => opts.profile = value(&flag, args.next())?,
                "--inject" => opts.inject = value(&flag, args.next())?,
                "--crash" => opts.crash = Some(value(&flag, args.next())?),
                "--epoch-ops" => opts.epoch_ops = value(&flag, args.next())?,
                "--crash-restart" => opts.crash_restart = true,
                "--torn" => opts.torn = value(&flag, args.next())?,
                "--eras" => opts.eras = value(&flag, args.next())?,
                "--iters" => opts.iters = value(&flag, args.next())?,
                "--help" | "-h" => return Err(OptionsError::Help),
                _ => return Err(OptionsError::UnknownFlag(flag)),
            }
        }
        if opts.threads == 0 {
            return Err(OptionsError::Invalid("--threads must be at least 1".into()));
        }
        if opts.iters == 0 {
            return Err(OptionsError::Invalid("--iters must be at least 1".into()));
        }
        if opts.eras == 0 {
            return Err(OptionsError::Invalid("--eras must be at least 1".into()));
        }
        Ok(opts)
    }

    /// Render this configuration back into an argument list that
    /// [`Options::parse`] accepts and maps to an equal `Options` — the
    /// canonical form used by the scenario reports to record how to
    /// reproduce a run. Every field is emitted explicitly (no reliance on
    /// defaults), except the `None` optionals, which have no flag form.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--threads".into(),
            self.threads.to_string(),
            "--ops".into(),
            self.total_ops.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ];
        if let Some(w) = &self.workload {
            args.push("--workload".into());
            args.push(w.clone());
        }
        args.push("--objects".into());
        args.push(self.objects.to_string());
        args.push("--profile".into());
        args.push(self.profile.to_string());
        args.push("--inject".into());
        args.push(self.inject.to_string());
        if let Some(c) = self.crash {
            args.push("--crash".into());
            args.push(c.to_string());
        }
        args.push("--epoch-ops".into());
        args.push(self.epoch_ops.to_string());
        if self.crash_restart {
            args.push("--crash-restart".into());
        }
        args.push("--torn".into());
        args.push(self.torn.to_string());
        args.push("--eras".into());
        args.push(self.eras.to_string());
        args.push("--iters".into());
        args.push(self.iters.to_string());
        args
    }
}

/// Parse one flag's value with a typed error.
fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, OptionsError>
where
    T::Err: std::fmt::Display,
{
    let v = v.ok_or_else(|| OptionsError::MissingValue(flag.to_string()))?;
    v.parse().map_err(|e: T::Err| OptionsError::BadValue {
        flag: flag.to_string(),
        value: v,
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, OptionsError> {
        Options::parse(args.iter().copied().map(String::from))
    }

    #[test]
    fn defaults_survive_an_empty_argument_list() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.total_ops, 40_000);
        assert_eq!(opts.seed, 42);
        assert!(!opts.crash_restart);
        assert_eq!(opts.torn, TornPersist::Persist);
    }

    #[test]
    fn flags_are_parsed_and_typed() {
        let opts = parse(&[
            "--threads",
            "8",
            "--ops",
            "1000",
            "--profile",
            "spread",
            "--inject",
            "torn-jam",
            "--crash-restart",
            "--torn",
            "seeded:9",
        ])
        .unwrap();
        assert_eq!(opts.threads, 8);
        assert_eq!(opts.total_ops, 1000);
        assert_eq!(opts.profile, ContentionProfile::Spread);
        assert_eq!(opts.inject, Inject::TornJam);
        assert!(opts.crash_restart);
        assert_eq!(opts.torn, TornPersist::Seeded(9));
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(parse(&["--help"]), Err(OptionsError::Help));
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(OptionsError::UnknownFlag("--frobnicate".into()))
        );
        assert_eq!(
            parse(&["--threads"]),
            Err(OptionsError::MissingValue("--threads".into()))
        );
        assert!(matches!(
            parse(&["--threads", "many"]),
            Err(OptionsError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(OptionsError::Invalid(_))
        ));
        assert!(matches!(
            parse(&["--iters", "0"]),
            Err(OptionsError::Invalid(_))
        ));
    }

    #[test]
    fn every_error_renders_a_message() {
        for err in [
            OptionsError::UnknownFlag("--x".into()),
            OptionsError::MissingValue("--seed".into()),
            OptionsError::BadValue {
                flag: "--seed".into(),
                value: "abc".into(),
                reason: "invalid digit".into(),
            },
            OptionsError::Invalid("nope".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
