//! Reductions the benchmark reports: nearest-rank percentiles, medians
//! and geometric means. Every timing is reduced to a sum or a
//! percentile, never a maximum, so one slow host phase cannot set a
//! metric on its own.

/// The nearest-rank `p` percentile of `samples` (`0 < p <= 1`): the
/// smallest sample with at least a share `p` of all samples at or below
/// it. It is always one of the samples. `None` when `samples` is empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The small slack keeps `0.9 * 130` from rounding up past 117.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median (the lower middle sample for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The geometric mean of positive `values`; `None` when empty or when a
/// value is not positive.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}
