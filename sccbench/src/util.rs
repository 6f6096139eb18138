//! Small shared helpers: the seeded generator, order statistics and
//! the process memory high-water mark.

use std::time::Duration;

/// splitmix64: every input the benchmark makes comes from this chain,
/// seeded from `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample, in the
/// sample's own unit. Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's resident-set high-water mark in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sub-buckets per power of two: 2^10, so a percentile read from the
/// histogram is within 0.1% of the sample's.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// Latency histogram of fixed size. Its memory does not grow with the
/// number of requests a run completes, so the benchmark's own
/// bookkeeping does not move `peak_rss_mb` from run to run.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((u64::from(shift + 1) << SUB_BITS) + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// Midpoint of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let low = (SUB + (i & (SUB - 1))) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, d: Duration) {
        self.counts[Self::index(d.as_nanos() as u64)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in µs (`q` in 0..=1). Panics when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(Duration::from_nanos(ns * 37));
        }
        for q in [0.01, 0.5, 0.9, 0.99] {
            let exact = (q * 100_000.0f64).ceil() * 37.0 / 1e3;
            let got = h.percentile_us(q);
            assert!(
                (got - exact).abs() / exact < 2e-3,
                "q {q}: {got} vs {exact}"
            );
        }
    }
}
