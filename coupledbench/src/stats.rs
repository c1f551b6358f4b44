//! Order statistics of repeated measurements: the median and the two
//! quartiles, computed the way Python's `statistics.median` and
//! `statistics.quantiles(data, n=4)` (default "exclusive" method) compute
//! them, so the spreads printed here match an external analysis of the
//! same values.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when n < 2).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by the exclusive method (`m = n + 1`, linear interpolation
/// between order statistics, indices clamped to the data), returned with
/// the median and the sample count; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let ld = v.len();
    let median = median(&v)?;
    let (q1, q3) = if ld == 1 {
        (v[0], v[0])
    } else {
        let m = ld + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    };
    Some(Summary {
        n: ld,
        q1,
        median,
        q3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 2.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (4, 1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (2, 0.75, 1.5, 2.25));
        // statistics.quantiles([7, 1, 4, 9, 2], n=4) == [1.5, 4.0, 8.0]
        let s = summarize(&[7.0, 1.0, 4.0, 9.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 4.0, 8.0));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = summarize(&[2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 2.0, 2.0, 2.0));
        assert_eq!(s.rel_iqr(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert!((s.rel_iqr() - 5.5 / 5.5).abs() < 1e-12);
    }
}
