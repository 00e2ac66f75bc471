//! Order statistics over timing samples, and the process's peak memory.

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest percentile a sample of `n` supports: the largest of the
/// usual ranks that still leaves at least ten samples beyond it. Below 40
/// samples none does, and the median is all that is reported.
pub fn tail_percent(n: usize) -> Option<f64> {
    // (percentile, the per-mille of samples beyond it)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// `(percent, value)` of the highest supported percentile, or the median
/// labelled 50 when the sample is too small for any tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    match tail_percent(s.len()) {
        Some(p) => (p, quantile(&s, p / 100.0)),
        None => (50.0, quantile(&s, 0.5)),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver's spread check uses.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    Some((at(1), at(2), at(3)))
}

/// `VmHWM` of this process in MB, or why it could not be read.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percent(39), None);
        assert_eq!(tail_percent(40), Some(75.0));
        assert_eq!(tail_percent(100), Some(90.0));
        assert_eq!(tail_percent(199), Some(90.0));
        assert_eq!(tail_percent(200), Some(95.0));
        assert_eq!(tail_percent(1_000), Some(99.0));
        assert_eq!(tail_percent(10_000), Some(99.9));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples), (95.0, 190.0));
        assert_eq!(samples.iter().filter(|s| **s > 190.0).count(), 10);
        assert_eq!(tail(&samples[..10]), (50.0, 5.0));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
