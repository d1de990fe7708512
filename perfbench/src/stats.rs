//! Order statistics and the result line.

use crate::Measured;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Smallest of `xs`: the fastest of repeated timings of the same work.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of nothing");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile `q` of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds in a duration, as the float every metric is computed in.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// `part / whole`, or 0 when nothing was done.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The one JSON line a run prints last: correctness, operation counts, and
/// every metric with its unit.
pub fn result_json(m: &Measured) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&xs, 1.0), 100);
        assert_eq!(quantile(&[7u64], 0.99), 7);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let m = Measured {
            attempted: 3,
            failed: 1,
            metrics: vec![("setup_s", 0.5, "s"), ("x", f64::NAN, "count")],
        };
        assert_eq!(
            result_json(&m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
