//! Jain's fairness index (Figure 4's metric, \[17\]).

/// Jain's fairness index over per-flow allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 = perfectly fair, 1/n = maximally unfair.
/// Zero-allocation flows count (a flow receiving nothing *is* unfairness).
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        // All-zero: conventionally fair (nobody got anything).
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sum_sq)
}

/// Fairness over time: `per_flow_bytes[f][t]` = bytes flow `f` received in
/// time bucket `t` (Figure 4 computes the index "from the throughput each
/// flow receives per millisecond"). Returns one index per bucket.
pub fn jain_series(per_flow_bytes: &[Vec<u64>]) -> Vec<f64> {
    if per_flow_bytes.is_empty() {
        return Vec::new();
    }
    let buckets = per_flow_bytes.iter().map(|f| f.len()).max().unwrap_or(0);
    (0..buckets)
        .map(|t| {
            let allocs: Vec<f64> = per_flow_bytes
                .iter()
                .map(|f| f.get(t).copied().unwrap_or(0) as f64)
                .collect();
            jain_index(&allocs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_fair() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn maximally_unfair() {
        let n = 10;
        let mut allocs = vec![0.0; n];
        allocs[0] = 7.0;
        assert!((jain_index(&allocs) - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // (1+2+3)²/(3·(1+4+9)) = 36/42.
        assert!((jain_index(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn series_tracks_convergence() {
        // Flow 1 starts late; fairness rises once both are active.
        let f1 = vec![0, 0, 500, 500];
        let f2 = vec![1000, 1000, 500, 500];
        let s = jain_series(&[f1, f2]);
        assert_eq!(s.len(), 4);
        assert!(s[0] < 0.51);
        assert!((s[3] - 1.0).abs() < 1e-12);
        assert!(s.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn series_handles_ragged_rows() {
        let s = jain_series(&[vec![10, 10], vec![10]]);
        assert_eq!(s.len(), 2);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!(s[1] < 1.0);
    }
}
