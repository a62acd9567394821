//! A log-linear latency histogram: fixed memory, nothing allocated while
//! recording, relative error below 1 %.
//!
//! Values below 256 get a bucket each. Above that, each power of two
//! `[2^e, 2^(e+1))` is cut into 128 equal sub-buckets, so no bucket is wider
//! than 1/128 of its lower edge. Recording raw samples into a growing
//! vector instead put page faults into the measured window.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Index of the largest `u64` is `(63 - 7) · 128 + 255`, so 58 · 128 slots.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Counts of recorded values (nanoseconds, for latencies).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(value: u64) -> usize {
    if value < 2 * SUB as u64 {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (value >> shift) as usize
}

/// The lower edge and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < 2 * SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    let top = (i & (SUB - 1)) + SUB;
    ((top as u64) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram (all of its memory is allocated here).
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Count one value.
    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add every count of `other` into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), placed inside its
    /// bucket by linear interpolation on the rank; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lower, width) = bucket_range(i);
                if width == 1 {
                    return lower as f64;
                }
                let within = (rank - below) as f64 - 0.5;
                return lower as f64 + width as f64 * within / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} is at most the total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_whole_range() {
        for i in 0..BUCKETS - 1 {
            let (lower, width) = bucket_range(i);
            assert_eq!(bucket_range(i + 1).0, lower + width, "gap after bucket {i}");
            assert_eq!(index_of(lower), i);
            assert_eq!(index_of(lower + width - 1), i);
            assert!(lower < 2 * SUB as u64 || width * SUB as u64 <= lower);
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_sorted_samples_within_one_percent() {
        let mut rng = SmallRng::seed_from_u64(11);
        // Latency-shaped data: a wide body from 1 µs to ~1 ms plus a tail of
        // 10 ms timeouts, and a few values small enough to be exact.
        let mut samples: Vec<u64> = (0..200_000)
            .map(|i| match i % 50 {
                0 => 10_000_000 + rng.gen_range(0..2_500_000u64),
                1 => rng.gen_range(0..300u64),
                _ => (1_000.0 * 1000f64.powf(rng.gen::<f64>())) as u64,
            })
            .collect();
        let mut hist = Hist::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        for q in [0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.97, 0.99, 0.999, 1.0] {
            let want = exact(&samples, q);
            let got = hist.quantile(q);
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.01, "q={q}: histogram {got} vs exact {want}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..10_000u64 {
            let v = v * v;
            if v % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
