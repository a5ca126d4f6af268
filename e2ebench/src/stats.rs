//! Summary statistics and the naming rules every reported metric obeys.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "p90" of a run is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`, or `None`
/// unless at least [`MIN_TAIL_SAMPLES`] samples lie beyond it. For p90
/// that means at least 100 samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank; the samples strictly after it are the tail.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`, as in `ms`, `s`, `1/s` and `count`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs, 90.0),
            None,
            "99 samples leave 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        let beyond = xs.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, MIN_TAIL_SAMPLES);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail_percentile(&xs, 90.0);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, tail_percentile(&xs, 90.0));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "store.minflt.open",
            "select.first_ms",
            "p-90",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "ms/s", "a:b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn units_follow_the_charset() {
        for ok in ["ms", "s", "1/s", "count", "MB", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds per round", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
