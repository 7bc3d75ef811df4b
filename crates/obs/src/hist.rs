//! Lock-free log-linear histogram with HDR-style bounded relative
//! error.
//!
//! Values (nanoseconds, bytes, batch sizes — any `u64`) are binned
//! into buckets whose width grows geometrically: each power-of-two
//! octave is split into [`SUBBUCKETS`] linear subbuckets, so any
//! reported quantile is within a factor of `1 + 1/32 ≈ 3.2 %` of the
//! true value. Recording is three relaxed atomic ops — no locks, no
//! allocation, no samples retained — so a histogram can sit on the
//! per-query hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear subbuckets per power-of-two octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 5;
/// Number of linear subbuckets in each octave.
pub(crate) const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Values below this are binned exactly (one bucket per value).
const LINEAR_LIMIT: u64 = (SUBBUCKETS as u64) * 2;
/// Total bucket count: 64 exact buckets + 32 per octave for octaves
/// 6..=63 (the full `u64` range).
pub const NUM_BUCKETS: usize = LINEAR_LIMIT as usize + (63 - SUB_BITS as usize) * SUBBUCKETS;

/// Map a value to its bucket index. Total order preserving: if
/// `a <= b` then `index(a) <= index(b)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUBBUCKETS - 1);
    LINEAR_LIMIT as usize + ((msb - SUB_BITS - 1) as usize) * SUBBUCKETS + sub
}

/// Largest value that maps into bucket `idx` — what quantile queries
/// report, so the estimate errs high by at most one bucket width.
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_LIMIT as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_LIMIT as usize;
    let octave = (rel / SUBBUCKETS) as u32; // msb = octave + SUB_BITS + 1
    let sub = (rel % SUBBUCKETS) as u128;
    let shift = octave + 1;
    // u128 arithmetic: the top bucket's edge is 2^64 - 1.
    ((((SUBBUCKETS as u128 + sub + 1) << shift) - 1).min(u64::MAX as u128)) as u64
}

/// A concurrent log-linear histogram. `record` is wait-free; `snapshot`
/// produces a consistent-enough copy for exposition (individual bucket
/// reads are relaxed — scrapes tolerate being a few increments apart).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state into an immutable, mergeable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl HistSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded distribution,
    /// within one bucket width of the true value (≤ 1/32 relative
    /// error for values ≥ 64; exact below that). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's upper edge can overshoot the true
                // maximum; `max` is tracked exactly, so clamp to it.
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the small range, spot-checked above it.
        let mut prev = bucket_index(0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotone at v={v}");
            assert!(idx - prev <= 1, "no bucket may be skipped at v={v}");
            prev = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 40, u64::MAX] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < member {v}");
            if upper < u64::MAX {
                assert!(bucket_index(upper) == idx, "upper edge left its own bucket at v={v}");
                assert!(bucket_index(upper + 1) == idx + 1, "upper edge is not tight at v={v}");
            }
        }
    }

    #[test]
    fn quantiles_are_within_relative_error_of_exact() {
        // A deterministic heavy-tailed sample: exact quantiles from the
        // sorted data vs histogram estimates.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..50_000 {
            // xorshift; skew into a long tail with a square.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 10_000) * (x % 97) + x % 50;
            samples.push(v);
        }
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            assert!(est >= exact, "estimate must err high: q={q} est={est} exact={exact}");
            let rel = (est - exact) as f64 / (exact.max(1)) as f64;
            assert!(rel <= 1.0 / 32.0 + 1e-9, "q={q}: est={est} exact={exact} rel={rel}");
        }
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        assert_eq!(snap.max, *sorted.last().unwrap());
    }

    #[test]
    fn small_values_are_exact() {
        let hist = Histogram::new();
        for v in 0..64u64 {
            hist.record(v);
        }
        let snap = hist.snapshot();
        for v in 0..64u64 {
            let q = (v + 1) as f64 / 64.0;
            assert_eq!(snap.quantile(q), v, "values below 64 must be exact");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let hist = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record(t * 1_000 + i % 500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hist.count(), 80_000);
        assert_eq!(hist.snapshot().count, 80_000);
    }
}
