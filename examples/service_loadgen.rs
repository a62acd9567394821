//! Drive the sharded object-space service with a synthetic workload.
//!
//! Thin CLI over `sbu_service::loadgen` (the same engine `exp e12` sweeps):
//!
//! ```text
//! cargo run --release --example service_loadgen -- --clients 8 --shards 8
//! cargo run --release --example service_loadgen -- --skew zipf:0.99 --mode open
//! cargo run --release --example service_loadgen -- --remote unix:///tmp/sbu.sock --mode mixed --lossy
//! cargo run --release --example service_loadgen -- --remote tcp://127.0.0.1:7600 --ops 50000
//! cargo run --release --example service_loadgen -- --mode mixed --lossy --ops 2000
//! ```
//!
//! `--remote tcp://HOST:PORT | unix://PATH` moves every frame onto a real
//! kernel socket (the service binds the endpoint; its clients dial it), and
//! `--lossy` layers the seeded byte-level fault profile on top — drops,
//! duplicates, corruption, delays — so retransmission and `(client, seq)`
//! dedup do real work, on any transport and in any loop mode. `--mode
//! mixed` runs a closed-loop leg and a windowed open-loop leg back to back
//! and prints the exactly-once evidence for each: the sum of per-shard
//! applied ops must equal the acked op count. The exit code is 0 only when
//! every leg holds it.
//!
//! Prints one human table plus the per-shard breakdown; add `--features
//! obs` for the `service.*` instrument table. The workload is a seeded
//! 75/25 increment/read counter mix — the same mix E12 measures.

use rand::rngs::SmallRng;
use rand::Rng;
use sbu_service::{FaultProfile, LoadgenConfig, LoadgenReport, LoopMode, Skew, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: service_loadgen [--clients N] [--workers N] [--shards N (power of two)]\n\
         [--ops N (per client)] [--keys N] [--seed N] [--skew uniform|zipf:THETA]\n\
         [--mode closed|open|mixed] [--remote tcp://HOST:PORT|unix://PATH]\n\
         [--lossy] [--no-timing]"
    );
    ExitCode::from(2)
}

/// Run one leg and print its report plus the exactly-once verdict line.
/// Returns `false` when the evidence does not hold.
fn leg(label: &str, config: &LoadgenConfig) -> bool {
    let mix = |rng: &mut SmallRng| {
        if rng.gen_bool(0.25) {
            CounterOp::Read
        } else {
            CounterOp::Inc
        }
    };
    println!(
        "== {label} leg: {:?} over {:?}",
        config.mode, config.transport
    );
    let report: LoadgenReport = sbu_service::loadgen::run(config, CounterSpec::new(), mix);
    println!(
        "completed {} ops ({} acked, {} failed) in {:.3}s  ({:.0} ops/sec)",
        report.ops, report.acked, report.failures, report.elapsed_secs, report.ops_per_sec
    );
    println!(
        "shard imbalance: hottest shard at {:.2}x the balanced share",
        report.imbalance
    );
    println!("shard   ops       keys");
    for s in &report.shards {
        println!("{:<7} {:<9} {}", s.shard, s.ops, s.keys);
    }
    if !report.metrics.is_empty() {
        println!("{}", report.metrics.render_table("service instruments"));
    }
    // The exactly-once evidence: every acked op applied on some shard
    // exactly once, however lossy the wire — so with zero failures the
    // per-shard apply totals must sum to precisely the acked count.
    let shard_ops: u64 = report.shards.iter().map(|s| s.ops).sum();
    let exactly_once = report.failures == 0 && shard_ops == report.acked;
    println!(
        "exactly-once: shard ops {} vs acked {} -> {}\n",
        shard_ops,
        report.acked,
        if exactly_once { "OK" } else { "MISMATCH" }
    );
    exactly_once
}

fn main() -> ExitCode {
    let mut config = LoadgenConfig {
        clients: 4,
        workers: 4,
        shards: 8,
        ops_per_client: 10_000,
        keys: 1024,
        ..Default::default()
    };
    let mut mixed = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        if flag == "--no-timing" {
            config.timing = false;
            at += 1;
            continue;
        }
        if flag == "--lossy" {
            config.fault = Some(FaultProfile::lossy());
            at += 1;
            continue;
        }
        let Some(value) = args.get(at + 1) else {
            eprintln!("{flag} needs an argument");
            return usage();
        };
        at += 2;
        let num: Option<usize> = value.parse().ok();
        match (flag, num) {
            ("--clients", Some(n)) => config.clients = n,
            ("--workers", Some(n)) => config.workers = n,
            ("--shards", Some(n)) => config.shards = n,
            ("--ops", Some(n)) => config.ops_per_client = n,
            ("--keys", Some(n)) => config.keys = n,
            ("--seed", Some(n)) => config.seed = n as u64,
            ("--mode", _) => match value.as_str() {
                "closed" => config.mode = LoopMode::Closed,
                "open" => config.mode = LoopMode::Open,
                "mixed" => mixed = true,
                _ => return usage(),
            },
            ("--remote", _) => match TransportConfig::parse(value) {
                Ok(t) => config.transport = t,
                Err(e) => {
                    eprintln!("--remote: {e}");
                    return usage();
                }
            },
            ("--skew", _) => match value.as_str() {
                "uniform" => config.skew = Skew::Uniform,
                z if z.starts_with("zipf:") => match z["zipf:".len()..].parse() {
                    Ok(theta) => config.skew = Skew::Zipf(theta),
                    Err(_) => return usage(),
                },
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    if !config.shards.is_power_of_two() {
        eprintln!("--shards must be a power of two");
        return usage();
    }

    println!("{config:#?}\n");
    let ok = if mixed {
        let mut closed = config.clone();
        closed.mode = LoopMode::Closed;
        let mut open = config.clone();
        open.mode = LoopMode::Open;
        // Distinct seeds so the two legs draw distinct fault/key streams.
        open.seed = config.seed.wrapping_add(1);
        leg("closed", &closed) & leg("open", &open)
    } else {
        leg("single", &config)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
