//! Estimators: nearest-rank percentiles and medians over kill cycles.

/// Nearest-rank `q`-quantile (0.0–1.0) of an ascending slice: the smallest
/// sample with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unordered values (mean of the middle two for an even count), so
/// that one pathological kill cycle or set-up cannot decide a run. `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The latencies of one slice of a run, as the client saw them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStats {
    /// Median latency of the acknowledged ops, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms (printed, not gated).
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
    /// Ops acknowledged within 10 ms ÷ ops attempted: a failed op misses the
    /// limit.
    pub slo_10ms_share: f64,
}

/// Latency of an op that was never acknowledged.
pub const UNACKED: u32 = u32::MAX;

/// The latency limit of `slo_10ms_share`, in µs.
pub const SLO_US: u32 = 10_000;

/// Summarises the per-op latencies (µs, [`UNACKED`] for none) of one slice.
/// `None` when no op of the slice was acknowledged.
pub fn slice_stats(lat_us: &[u32]) -> Option<SliceStats> {
    let mut acked: Vec<u32> = lat_us.iter().copied().filter(|&l| l != UNACKED).collect();
    acked.sort_unstable();
    let ms = |q| percentile(&acked, q).map(|us| f64::from(us) / 1e3);
    let within = acked.partition_point(|&l| l <= SLO_US);
    Some(SliceStats {
        p50_ms: ms(0.50)?,
        p99_ms: ms(0.99)?,
        p999_ms: ms(0.999)?,
        slo_10ms_share: within as f64 / lat_us.len() as f64,
    })
}

/// Field-wise median over slices.
pub fn median_of_slices(slices: &[SliceStats]) -> Option<SliceStats> {
    let med = |f: fn(&SliceStats) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    Some(SliceStats {
        p50_ms: med(|s| s.p50_ms)?,
        p99_ms: med(|s| s.p99_ms)?,
        p999_ms: med(|s| s.p999_ms)?,
        slo_10ms_share: med(|s| s.slo_10ms_share)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.999), Some(999));
        assert_eq!(percentile(&v, 1.0), Some(1000));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u32], 0.999), Some(7));
        assert_eq!(percentile::<u32>(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[0.25, 24.0, 0.21, 0.27, 0.24]), Some(0.25));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_ops_miss_the_latency_limit() {
        // 8 fast ops, 1 slow, 1 never acknowledged.
        let mut lat = vec![1_000u32; 8];
        lat.push(50_000);
        lat.push(UNACKED);
        let s = slice_stats(&lat).expect("acked ops");
        assert_eq!(s.slo_10ms_share, 0.8);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p999_ms, 50.0);
        assert_eq!(slice_stats(&[UNACKED, UNACKED]), None);
    }

    #[test]
    fn one_livelocked_cycle_does_not_decide_the_run() {
        let cycle = |p999_ms, slo| SliceStats {
            p50_ms: 0.9,
            p99_ms: p999_ms,
            p999_ms,
            slo_10ms_share: slo,
        };
        let cycles = [cycle(260.0, 0.87), cycle(15_000.0, 0.10), cycle(250.0, 0.88)];
        let m = median_of_slices(&cycles).expect("cycles");
        assert_eq!(m.p999_ms, 260.0);
        assert_eq!(m.slo_10ms_share, 0.87);
        assert_eq!(median_of_slices(&[]), None);
    }
}
