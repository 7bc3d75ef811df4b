//! Quiet-pass estimators.
//!
//! Every pass of a client does identical work, so differences between
//! pass durations are machine noise (or program nondeterminism) and
//! nothing else. On this 2-vCPU guest the machine moves between speed
//! plateaus that last seconds to minutes, so means over a window
//! mostly measure which plateau the window fell on. The estimators
//! here keep, per client, the fastest tenth of its completed passes
//! (at least three): throughput is ops per pass over the median
//! duration of that quiet set, latency percentiles pool the ops of the
//! quiet passes. Passes are selected whole, so a read that queued
//! behind a write stays in the sample. The untrimmed numbers are
//! always reported beside them (`window.*`).

/// What one op was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One completed pass of one client.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub dur_ns: u64,
    /// `(kind, client-observed latency in ns)` in op order.
    pub ops: Vec<(Kind, u64)>,
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The middle value, or the mean of the two middle values (as
/// Python's `statistics.median`, which the driver uses).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Indices of the quiet set: the fastest tenth of the passes, at least
/// three (all of them when fewer than three completed).
pub fn quiet_set(durs_ns: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..durs_ns.len()).collect();
    order.sort_by_key(|&i| (durs_ns[i], i));
    order.truncate((durs_ns.len() / 10).max(3).min(durs_ns.len()));
    order
}

/// Fastest-tenth estimate of a repeated micro-measurement (the same
/// rule the passes use, for the probes).
pub fn quiet_value(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() / 10).max(3).min(v.len()));
    percentile(&v, 0.5)
}

/// What a measured window says, trimmed and untrimmed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    pub qps: f64,
    pub read_p50_ms: f64,
    pub read_p95_ms: f64,
    pub read_p99_ms: f64,
    pub write_p50_ms: f64,
    pub write_p95_ms: f64,
    /// Reads pooled in the quiet set (the sample behind the percentiles).
    pub quiet_reads: usize,
    pub quiet_writes: usize,
    pub qps_all: f64,
    pub read_p50_all_ms: f64,
    pub read_p99_all_ms: f64,
    /// Share of passes within 10 % of their client's quiet median.
    pub quiet_share: f64,
    /// p90 ÷ p10 of pass durations (worst client).
    pub pass_spread: f64,
    pub passes: usize,
    pub ops: u64,
}

fn lat_ms(passes: &[&Pass], kind: Kind) -> Vec<f64> {
    let mut v: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter())
        .filter(|(k, _)| *k == kind)
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarise the passes of all clients over a window that lasted
/// `wall_s` seconds.
pub fn summarize(clients: &[Vec<Pass>], wall_s: f64) -> WindowStats {
    let mut out = WindowStats::default();
    let mut quiet: Vec<&Pass> = Vec::new();
    let mut near_quiet = 0usize;
    for passes in clients.iter().filter(|p| !p.is_empty()) {
        let durs: Vec<u64> = passes.iter().map(|p| p.dur_ns).collect();
        let set = quiet_set(&durs);
        let set_durs: Vec<f64> = set.iter().map(|&i| durs[i] as f64).collect();
        let quiet_median = median(&set_durs);
        out.qps += passes[0].ops.len() as f64 / (quiet_median / 1e9);
        quiet.extend(set.iter().map(|&i| &passes[i]));
        near_quiet += durs.iter().filter(|&&d| d as f64 <= quiet_median * 1.10).count();
        let mut sorted: Vec<f64> = durs.iter().map(|&d| d as f64).collect();
        sorted.sort_by(f64::total_cmp);
        out.pass_spread = out.pass_spread.max(percentile(&sorted, 0.9) / percentile(&sorted, 0.1));
        out.passes += passes.len();
        out.ops += passes.iter().map(|p| p.ops.len() as u64).sum::<u64>();
    }
    let all: Vec<&Pass> = clients.iter().flatten().collect();
    let (reads, writes) = (lat_ms(&quiet, Kind::Read), lat_ms(&quiet, Kind::Write));
    let reads_all = lat_ms(&all, Kind::Read);
    out.read_p50_ms = percentile(&reads, 0.50);
    out.read_p95_ms = percentile(&reads, 0.95);
    out.read_p99_ms = percentile(&reads, 0.99);
    out.write_p50_ms = percentile(&writes, 0.50);
    out.write_p95_ms = percentile(&writes, 0.95);
    out.quiet_reads = reads.len();
    out.quiet_writes = writes.len();
    out.qps_all = out.ops as f64 / wall_s;
    out.read_p50_all_ms = percentile(&reads_all, 0.50);
    out.read_p99_all_ms = percentile(&reads_all, 0.99);
    out.quiet_share = near_quiet as f64 / out.passes.max(1) as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(dur_ms: u64, ops: usize) -> Pass {
        Pass {
            dur_ns: dur_ms * 1_000_000,
            ops: (0..ops).map(|_| (Kind::Read, dur_ms * 1_000_000 / ops as u64)).collect(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_set_is_fastest_tenth_at_least_three() {
        let durs: Vec<u64> = (0..50).map(|i| 1000 - i).collect();
        let mut set = quiet_set(&durs);
        set.sort_unstable();
        assert_eq!(set, vec![45, 46, 47, 48, 49]);
        assert_eq!(quiet_set(&[5, 3, 9, 1]).len(), 3);
        assert_eq!(quiet_set(&[5, 3]).len(), 2);
        assert!(quiet_set(&[]).is_empty());
    }

    /// A slow plateau covering most of the window must not move the
    /// trimmed numbers, while the untrimmed ones follow it.
    #[test]
    fn planted_slow_plateau_moves_only_the_untrimmed_numbers() {
        let quiet: Vec<Pass> = (0..40).map(|_| pass(400, 100)).collect();
        let mut noisy = quiet.clone();
        for p in noisy.iter_mut().skip(8) {
            *p = pass(800, 100); // 32 of 40 passes on a 2x slower plateau
        }
        let wall = |c: &[Pass]| c.iter().map(|p| p.dur_ns).sum::<u64>() as f64 / 1e9;
        let a = summarize(std::slice::from_ref(&quiet), wall(&quiet));
        let b = summarize(std::slice::from_ref(&noisy), wall(&noisy));
        assert_eq!(a.qps, 250.0);
        assert_eq!(b.qps, a.qps);
        assert_eq!(b.read_p50_ms, a.read_p50_ms);
        assert!(b.qps_all < 0.6 * a.qps_all);
        assert!(b.read_p50_all_ms > 1.9 * a.read_p50_all_ms);
        assert_eq!(a.quiet_share, 1.0);
        assert_eq!(b.quiet_share, 0.2);
        assert_eq!(b.pass_spread, 2.0);
    }

    #[test]
    fn clients_add_up_and_writes_are_kept_apart() {
        let mut p = pass(500, 100);
        p.ops.push((Kind::Write, 30_000_000));
        let s = summarize(&[vec![p.clone(); 5], vec![p.clone(); 5]], 2.5);
        assert_eq!(s.qps, 2.0 * 101.0 / 0.5);
        assert_eq!(s.write_p50_ms, 30.0);
        assert_eq!(s.read_p50_ms, 5.0);
        assert_eq!(s.quiet_writes, 6);
        assert_eq!(s.passes, 10);
        assert_eq!(s.ops, 1010);
    }
}
