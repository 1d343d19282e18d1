//! Small statistics helpers shared by the workloads.

use std::time::Instant;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice;
/// 0 for an empty one.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs `setup` `n` times, keeps the last result, and returns it with the
/// median set-up time in seconds. Earlier results are dropped before the
/// next set-up starts.
pub fn setup_median<T>(n: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..n.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup(i));
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), median(&mut times))
}

/// Sub-buckets per power of two in a [`Histogram`]: 2^10, so a bucket is
/// at most 1/1024 of its values wide.
const SUB_BITS: u32 = 10;

/// Fixed-memory histogram of nanosecond durations: exact below 1,024 ns,
/// then 1,024 buckets per power of two. Its size does not grow with the
/// number of samples, so a long run's peak RSS does not depend on how many
/// operations it completed; a quantile is within 0.1% of the exact one.
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS + 1) << SUB_BITS) as usize],
            n: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        let block = (shift + 1) as usize;
        (block << SUB_BITS) | ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// Lower bound and width of bucket `i`, in nanoseconds.
    fn bucket(i: usize) -> (f64, f64) {
        let (block, sub) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        if block == 0 {
            return (sub as f64, 1.0);
        }
        let shift = block as u32 - 1;
        (
            (((1u64 << SUB_BITS) | sub) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Quantile `q` in nanoseconds (rank `q * (n - 1)`), interpolated
    /// linearly inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 > rank {
                let (lower, width) = Self::bucket(i);
                return lower + width * (rank - seen as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank below the sample count")
    }
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        let mut x = 7u64;
        for _ in 0..100_000 {
            x = splitmix(x);
            // Spread over 100 ns .. 10 ms.
            let ns = 100 + x % 10_000_000 / (1 + x % 97);
            h.record(ns);
            exact.push(ns as f64);
        }
        exact.sort_unstable_by(f64::total_cmp);
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let (a, b) = (h.quantile(q), quantile(&exact, q));
            assert!((a - b).abs() <= b / 1000.0 + 1.0, "q{q}: {a} vs {b}");
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        assert_eq!(merged.len(), 100_000);
        assert_eq!(merged.quantile(0.5), h.quantile(0.5));
    }
}
