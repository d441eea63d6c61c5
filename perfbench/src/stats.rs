//! Summary statistics, the rate ladder, and the backlog test.

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// the closest ranks (the "type 7" rule). `None` for an empty input.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A geometric ladder of offered rates: rung `k` is `base * ratio^k`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub base: f64,
    pub ratio: f64,
    pub top: usize,
}

impl Ladder {
    /// The ladder from `base` with steps at most `max_step` apart whose top
    /// rung is at least `top_rate`.
    pub fn spanning(base: f64, top_rate: f64, max_step: f64) -> Self {
        let ratio = 1.0 + max_step;
        let top = ((top_rate / base).ln() / ratio.ln()).ceil().max(1.0) as usize;
        Ladder { base, ratio, top }
    }

    pub fn rate(&self, k: usize) -> f64 {
        self.base * self.ratio.powi(k as i32)
    }

    /// The most rungs a [`Bisection`] of this ladder probes.
    pub fn max_probes(&self) -> usize {
        ((self.top + 1) as f64).log2().ceil() as usize
    }
}

/// The search for the highest rung of a [`Ladder`] that passes, assuming a
/// rung passes whenever a higher one does; rung 0 is taken as passing. It
/// runs one probe at a time, so a caller can do other work between probes.
#[derive(Debug, Clone, Copy)]
pub struct Bisection {
    good: usize,
    bad: usize,
}

impl Bisection {
    pub fn new(ladder: &Ladder) -> Self {
        Bisection { good: 0, bad: ladder.top + 1 }
    }

    /// The rung to probe next, or `None` once the search has converged.
    pub fn next(&self) -> Option<usize> {
        (self.bad - self.good > 1).then(|| self.good + (self.bad - self.good) / 2)
    }

    pub fn record(&mut self, rung: usize, passed: bool) {
        if passed {
            self.good = rung;
        } else {
            self.bad = rung;
        }
    }

    /// The highest rung known to pass.
    pub fn best(&self) -> usize {
        self.good
    }
}

/// Whether a send backlog (requests already due but not yet sent, sampled
/// at each send in order) grew over the run instead of staying bounded:
/// the second half's mean exceeds the first half's by more than one
/// request and the run ended with at least `min_final` requests waiting.
pub fn backlog_growing(backlog: &[usize], min_final: usize) -> bool {
    if backlog.len() < 4 {
        return false;
    }
    let half = backlog.len() / 2;
    let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let tail = backlog[backlog.len() - 1];
    avg(&backlog[half..]) > avg(&backlog[..half]) + 1.0 && tail >= min_final
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // p99 of 1..=100 sits between the 99th and 100th values.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&h, 0.99).unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn ladder_spans_with_bounded_steps() {
        let l = Ladder::spanning(20.0, 1600.0, 0.08);
        assert!(l.rate(l.top) >= 1600.0);
        assert!(l.rate(l.top - 1) < 1600.0);
        for k in 0..l.top {
            assert!(l.rate(k + 1) / l.rate(k) <= 1.08 + 1e-12);
        }
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let l = Ladder { base: 1.0, ratio: 1.1, top: 57 };
        for limit in [0usize, 1, 13, 56, 57] {
            let (mut b, mut probes) = (Bisection::new(&l), 0);
            while let Some(k) = b.next() {
                probes += 1;
                b.record(k, k <= limit);
            }
            assert_eq!(b.best(), limit);
            assert!(probes <= l.max_probes(), "{probes} probes for limit {limit}");
        }
    }

    #[test]
    fn backlog_test_separates_bounded_from_growing() {
        let bounded = [0, 1, 0, 2, 1, 0, 1, 0, 2, 1, 0, 1];
        assert!(!backlog_growing(&bounded, 3));
        let growing: Vec<usize> = (0..40).map(|i| i / 2).collect();
        assert!(backlog_growing(&growing, 3));
        // A burst that drained by the end is not growth.
        let drained = [0, 0, 0, 0, 5, 9, 12, 8, 4, 1, 0, 0];
        assert!(!backlog_growing(&drained, 3));
        assert!(!backlog_growing(&[9, 9], 3));
    }
}
