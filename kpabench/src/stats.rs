//! Order statistics: the latency percentiles a run prints and the
//! quartiles and bounds of the steadiness report.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// The nearest-rank `q`-percentile of `sorted` (ascending), with the
/// number of samples strictly beyond its rank. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The `q`-percentile, but only when at least `min_beyond` samples lie
/// beyond it: a tail figure resting on fewer samples is not reported.
pub fn tail_percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<(f64, usize)> {
    percentile(sorted, q).filter(|&(_, beyond)| beyond >= min_beyond)
}

/// The quartiles of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// `exclusive` method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// The median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// The spread of a set of runs: the distance between the first and
/// third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// By what share `new` is worse than `old` (negative when better).
pub fn worse_by(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// A metric is resolved when its run-to-run spread stays within its
/// bound; otherwise a move of the bound's size cannot be told from
/// noise.
pub fn resolved(spread: f64, bound: f64) -> bool {
    spread <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some((990.0, 10)));
        assert_eq!(tail_percentile(&thousand, 0.99, 10), Some((990.0, 10)));
        let short = &thousand[..999];
        assert_eq!(percentile(short, 0.99), Some((990.0, 9)));
        assert_eq!(tail_percentile(short, 0.99, 10), None);
        assert_eq!(percentile(&thousand, 0.5), Some((500.0, 500)));
        assert_eq!(percentile(&[7.0], 0.99), Some((7.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quartiles(&eleven), Some([3.0, 6.0, 9.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ten), Some(5.5));
        assert_eq!(median(&eleven), Some(6.0));
    }

    #[test]
    fn bounds_flag_spreads_and_regressions() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert!(resolved(0.05, 0.1));
        assert!(resolved(0.1, 0.1));
        assert!(!resolved(0.15, 0.1));
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
