//! The statistics the benchmark reports and the rules it compares by.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample (callers count that case as a failure
/// before reporting).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a tenth of the way up the sorted sample (linear interpolation
/// between the two neighbours); 0 for an empty sample, as [`median`].
///
/// This is what the timed end-to-end metrics report. On this shared host
/// interference only ever adds time, and it comes in whole phases: a
/// neighbour on a core's sibling thread makes everything on that core
/// 1.3–1.5× slower for seconds to minutes, and in a busy phase that hits
/// six or seven p = 2 rounds in ten. A run's median then reads the
/// neighbour, not the program — over one 11-minute record of identical
/// rounds, medians of ten-run sets moved by 19 %, their low deciles by 4 %
/// (README, "Noise"). A tenth, not the minimum: a run has ≥ 40 reps, so
/// four or more lie below it, and one lucky rep or round cannot set it.
pub fn low_decile(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let position = 0.1 * (v.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (position - below as f64)
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (its default exclusive method)
/// gives them: the perf driver computes run-to-run spread with that
/// function, so the self-check uses the same one. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let rank = (i + 1) * (len + 1);
        let j = (rank / 4).clamp(1, len - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1), as `(value, percentile)`. With fewer than 21
/// samples that percentile would sit below the median, so there is none.
pub fn high_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let v = sorted(values);
    if v.len() < 2 * BEYOND + 1 {
        return None;
    }
    let index = v.len() - 1 - BEYOND;
    Some((v[index], 100.0 * (index + 1) as f64 / v.len() as f64))
}

/// By what share of `parent` the value `change` is worse (negative when it
/// is better). A zero parent cannot be compared relatively: any worsening
/// from zero is infinite.
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / parent.abs()
}

/// The regression rule: `change` may be worse than `parent` by at most
/// `bound` (a share of the parent).
pub fn within_bound(parent: f64, change: f64, better: Better, bound: f64) -> bool {
    worsening(parent, change, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn low_decile_interpolates_and_ignores_the_slow_majority() {
        let eleven: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(low_decile(&eleven), 1.0);
        assert_eq!(low_decile(&[4.0, 2.0]), 2.2);
        assert_eq!(low_decile(&[7.0]), 7.0);
        assert_eq!(low_decile(&[]), 0.0);
        // Two reps in three slowed by half: the median follows them, the
        // low decile stays with the undisturbed third.
        let mut reps = vec![1.0; 20];
        reps.extend([1.5; 40]);
        assert_eq!(median(&reps), 1.5);
        assert_eq!(low_decile(&reps), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_frac(&ten), 1.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&thousand), Some((990.0, 99.0)));
        // 21 samples: the rule lands exactly on the median; 20 is too few.
        let twenty_one: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(high_percentile(&twenty_one).map(|(v, _)| v), Some(11.0));
        assert_eq!(high_percentile(&twenty_one[..20]), None);
    }

    #[test]
    fn bound_comparator_respects_direction() {
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10));
        assert!(!within_bound(10.0, 11.1, Better::Lower, 0.10));
        assert!(within_bound(10.0, 5.0, Better::Lower, 0.0));
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.0));
        // A zero parent: staying at zero is fine, any worsening is not.
        assert!(within_bound(0.0, 0.0, Better::Lower, 0.1));
        assert!(!within_bound(0.0, 1e-9, Better::Lower, 0.1));
        assert!((worsening(4.0, 5.0, Better::Lower) - 0.25).abs() < 1e-12);
    }
}
