//! The four workloads and their seeded key/op streams.
//!
//! Every workload runs the same service shape (counter objects, 4 shards,
//! 2 workers, hash routing, every other builder setting at its default)
//! under load from 2 client threads. They differ in the traffic, chosen so
//! that each stresses a different layer; README.md says why each exists.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbu_spec::specs::CounterOp;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name results and comparisons cite.
    pub name: &'static str,
    /// Keys are `0..keys`; every one is touched during set-up.
    pub keys: u64,
    /// `None` for uniform keys, `Some(θ)` for Zipf(θ) over ranks, key 0
    /// hottest.
    pub zipf: Option<f64>,
    /// Share of `Read` ops; the rest are `Inc`.
    pub read_share: f64,
    /// Requests each client keeps in flight (1 = closed loop).
    pub depth: usize,
    /// Run over a Unix-domain socket instead of in-process mailboxes.
    pub unix: bool,
    /// Frame drop probability in each direction (0 = no fault plane).
    pub drop: f64,
}

/// Client threads (and client handles, so connections) in every workload.
pub const CLIENTS: usize = 2;
/// Shards and worker threads of the service under test.
pub const SHARDS: usize = 4;
pub const WORKERS: usize = 2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "closed-uniform",
        keys: 16_384,
        zipf: None,
        read_share: 0.25,
        depth: 1,
        unix: false,
        drop: 0.0,
    },
    Workload {
        name: "pipelined-hot",
        keys: 1_024,
        zipf: Some(0.99),
        read_share: 0.90,
        depth: 16,
        unix: false,
        drop: 0.0,
    },
    Workload {
        name: "pipelined-unix",
        keys: 1_024,
        zipf: Some(0.99),
        read_share: 0.90,
        depth: 16,
        unix: true,
        drop: 0.0,
    },
    Workload {
        name: "lossy-unix",
        // Not 16 Ki like closed-uniform: through 2 % loss each set-up touch
        // and each check read that is dropped waits out its own 10 ms
        // timer, so 16 Ki keys cost ~6 s of set-up and ~6 s of checking per
        // round — more than the run itself.
        keys: 1_024,
        zipf: None,
        read_share: 0.25,
        // Not a closed loop: with one request per connection nearly every
        // hop of the reply path wakes an idle vCPU, so the p50 tracked the
        // host's halt-exit latency (on a 2-vCPU VM, 24 µs alone vs 14 µs
        // beside a CPU hog) and spread past its bound between runs. Four in
        // flight keep the path busy (55 vs 52 µs).
        depth: 4,
        unix: true,
        drop: 0.02,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The smoke-test variant: the same traffic over a key space 16× smaller,
    /// so set-up stays short in a debug build.
    pub fn smoke(mut self) -> Workload {
        self.keys = (self.keys / 16).max(16);
        self
    }
}

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 hottest): the cumulative
/// mass table plus a binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(theta);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// The rank whose cumulative mass first covers `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> u64 {
        let rank = self.cdf.partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// Mix a seed with a stream label (splitmix64's finalizer), so each round
/// and each client draws an unrelated stream from one `--seed`.
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client's seeded request stream.
pub struct OpStream {
    rng: SmallRng,
    keys: u64,
    zipf: Option<Zipf>,
    read_share: f64,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(mix(seed, client as u64 + 1)),
            keys: w.keys,
            zipf: w.zipf.map(|theta| Zipf::new(w.keys, theta)),
            read_share: w.read_share,
        }
    }

    /// The next `(key, op)`.
    pub fn next_op(&mut self) -> (u64, CounterOp) {
        let key = match &self.zipf {
            Some(z) => z.sample(self.rng.gen()),
            None => self.rng.gen_range(0..self.keys),
        };
        let op = if self.rng.gen_bool(self.read_share) {
            CounterOp::Read
        } else {
            CounterOp::Inc
        };
        (key, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_top_ten_mass_matches_the_distribution() {
        let (n, theta) = (1_024u64, 0.99);
        let h = |m: u64| (1..=m).map(|r| 1.0 / (r as f64).powf(theta)).sum::<f64>();
        let want = h(10) / h(n);
        let zipf = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(3);
        let draws = 200_000;
        let top = (0..draws).filter(|_| zipf.sample(rng.gen()) < 10).count();
        let got = top as f64 / draws as f64;
        assert!((got - want).abs() < 0.01, "top-10 mass {got} vs {want}");
        assert!(want > 0.35, "θ = 0.99 over 1 Ki keys should be hot: {want}");
        assert_eq!(zipf.sample(0.0), 0);
        assert_eq!(zipf.sample(0.999_999_999), n - 1);
    }

    #[test]
    fn streams_are_seeded_and_follow_the_mix() {
        let w = Workload::by_name("pipelined-hot").unwrap();
        let draw = |seed, client| {
            let mut s = OpStream::new(&w, seed, client);
            (0..1000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5, 0), draw(5, 0));
        assert_ne!(draw(5, 0), draw(5, 1));
        assert_ne!(draw(5, 0), draw(6, 0));
        let reads = draw(5, 0)
            .iter()
            .filter(|(_, op)| *op == CounterOp::Read)
            .count();
        assert!((850..950).contains(&reads), "{reads} reads of 1000");
        assert!(draw(5, 0).iter().all(|(k, _)| *k < w.keys));
    }
}
