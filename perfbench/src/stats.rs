//! Percentiles over raw samples and over deltas of the program's own
//! fixed-bucket histograms.

use orion_obs::{HistogramSnapshot, BUCKET_BOUNDS_US};

/// Percentile `q` (0..=100) of `samples` by linear interpolation between
/// closest ranks (the definition numpy uses by default). 0 when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The observations recorded between two snapshots of one histogram.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *after;
    d.count = after.count.saturating_sub(before.count);
    d.sum_micros = after.sum_micros.saturating_sub(before.sum_micros);
    for (b, a) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *b = b.saturating_sub(*a);
    }
    d
}

/// Percentile `q` of a histogram, interpolated linearly inside the
/// bucket that holds it (the bucket bounds are coarse, so this is an
/// estimate; the `+Inf` bucket reports its lower bound). Unit: that of
/// the histogram (µs for latencies).
pub fn hist_percentile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q / 100.0 * h.count as f64;
    let mut lower = 0.0;
    let mut seen = 0.0;
    for (bound, cum) in h.cumulative() {
        let in_bucket = cum as f64 - seen;
        if cum as f64 >= target && in_bucket > 0.0 {
            if bound == u64::MAX {
                return lower;
            }
            let frac = (target - seen) / in_bucket;
            return lower + (bound as f64 - lower) * frac.clamp(0.0, 1.0);
        }
        seen = cum as f64;
        if bound != u64::MAX {
            lower = bound as f64;
        }
    }
    lower
}

/// Upper bound of the bucket holding percentile `q` (the last finite
/// bound for the overflow bucket): the honest reading
/// of a histogram of small whole counts (chain lengths, batch sizes),
/// where interpolating inside a bucket would invent fractions.
pub fn hist_bucket_bound(h: &HistogramSnapshot, q: f64) -> f64 {
    let target = q / 100.0 * h.count as f64;
    h.cumulative()
        .into_iter()
        .find(|&(_, cum)| h.count > 0 && cum as f64 >= target)
        .map_or(0.0, |(bound, _)| {
            bound.min(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]) as f64
        })
}
