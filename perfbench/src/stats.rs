//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `values` (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values` (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p99_leaves_ten_beyond_at_a_thousand() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&values), 500.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
