//! Order statistics over measured samples.

/// Linear-interpolated quantile of an ascending-sorted, non-empty slice
/// (the "inclusive" method of Python's `statistics.quantiles`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles, tail percentiles and maximum of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (any order, at least one sample).
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            p90: quantile(&v, 0.9),
            p99: quantile(&v, 0.99),
            max: v[v.len() - 1],
        }
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.max), (3, 3.0, 5.0));
    }
}
