//! Sample statistics and the metric vocabulary shared by every workload.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (any order).
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Whether quantile `q` of `n` samples has at least [`TAIL_SAMPLES`]
/// samples strictly above its rank.
pub fn tail_is_valid(n: usize, q: f64) -> bool {
    let rank = (q * (n.saturating_sub(1)) as f64).ceil() as usize;
    n > rank && n - rank - 1 >= TAIL_SAMPLES
}

/// The tail a run may honestly report: the highest of p99, p90 and p50
/// that keeps [`TAIL_SAMPLES`] samples beyond it, falling back to the
/// median for short runs. Returns `(q, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let q = [0.99, 0.9]
        .into_iter()
        .find(|&q| tail_is_valid(samples.len(), q))
        .unwrap_or(0.5);
    quantile(samples, q).map(|v| (q, v))
}

/// The metric-name grammar: `[A-Za-z0-9_.-]+`, starting with a letter or
/// digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: p90 sits at rank 90 (of 0..=99), leaving 9 above.
        assert!(!tail_is_valid(100, 0.9));
        assert!(tail_is_valid(111, 0.9));
        for n in 1..400 {
            for q in [0.5, 0.9, 0.99] {
                let rank = (q * (n - 1) as f64).ceil() as usize;
                assert_eq!(
                    tail_is_valid(n, q),
                    n - 1 - rank >= TAIL_SAMPLES,
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn tail_falls_back_to_the_highest_valid_percentile() {
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many).unwrap().0, 0.9);
        let huge: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&huge).unwrap().0, 0.99);
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few), Some((0.5, 2.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "lp.root_s",
            "obs.trace_overhead_frac",
            "p-90",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "lat/ms", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_follows_the_grammar() {
        let spec = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(names.len() > 40, "found {} names", names.len());
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
    }
}
