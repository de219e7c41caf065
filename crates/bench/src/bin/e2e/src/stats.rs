//! Summary statistics, open-loop pacing and process memory.

use std::time::{Duration, Instant};

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps ranks that are whole numbers on paper from rounding
    // up one place through float error.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reported tail: the highest percentile, capped at p99, that still has
/// at least [`TAIL_BEYOND`] samples beyond it, and never below the median.
/// Returns `(percentile, value)`. The cap keeps one metric comparable
/// across sample counts once a run is long enough to support p99.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    // 1-based nearest ranks: exactly TAIL_BEYOND samples beyond, p99, p50.
    let rank = n
        .saturating_sub(TAIL_BEYOND)
        .min((99 * n).div_ceil(100))
        .max(n.div_ceil(2));
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

/// One line describing a latency sample (ms): count, quartiles, mean, the
/// reported tail with its percentile, and the maximum.
pub fn describe(xs: &[f64]) -> String {
    let s = sorted(xs);
    let (p, t) = tail(&s);
    format!(
        "n {} p25 {:.4} p50 {:.4} mean {:.4} p{p:.1} {t:.4} max {:.4} ms",
        s.len(),
        percentile(&s, 25.0),
        median(xs),
        mean(xs),
        s[s.len() - 1]
    )
}

/// Mean of `xs`, or 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the bound-setting procedure
/// uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len() as i64;
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (s[0], s[0]);
    }
    // The same integer arithmetic as CPython's implementation.
    let q = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
    };
    (q(1), q(3))
}

/// An open-loop schedule: operation `k` is due at `start + k · period`,
/// regardless of how long earlier operations took.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    period: Duration,
}

impl Pacer {
    /// A schedule of `rate` operations per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        Pacer {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.period * k as u32
    }

    /// Sleep until operation `k` is due (no-op when already late); returns
    /// the due time.
    pub fn wait(&self, k: usize) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// How late an operation started relative to its due time (zero when it
/// started on time or early).
pub fn lateness(due: Instant, started: Instant) -> Duration {
    started.saturating_duration_since(due)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 is the highest percentile with 10 beyond it.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert!((p - 200.0 / 3.0).abs() < 1e-9, "p = {p}");
        assert_eq!(v, 20.0);
        assert_eq!(percentile(&xs, 50.0), 15.0);
        assert_eq!(percentile(&xs, 100.0 * 20.0 / 30.0), 20.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_capped_at_p99() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 9_900.0));
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        // 13 samples support only p23 by the rule; the median is reported.
        let xs: Vec<f64> = (1..=13).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(v, 7.0);
        assert!((p - 700.0 / 13.0).abs() < 1e-9);
        assert_eq!(tail(&[4.0]), (100.0, 4.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&xs), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ys: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ys), (2.75, 8.25));
        assert_eq!(median(&ys), 5.5);
    }

    #[test]
    fn open_loop_due_times_ignore_service_time() {
        let t0 = Instant::now();
        let pacer = Pacer::new(t0, 50.0);
        assert_eq!(pacer.due(0), t0);
        assert_eq!(pacer.due(50) - t0, Duration::from_secs(1));
        // An operation that started 30 ms after its due time is 30 ms late;
        // the next one is still due one period after the first, so a stall
        // shows up as lateness of every operation queued behind it.
        let started = pacer.due(3) + Duration::from_millis(30);
        assert_eq!(lateness(pacer.due(3), started), Duration::from_millis(30));
        assert_eq!(
            lateness(pacer.due(4), started + Duration::from_millis(5)),
            Duration::from_millis(15)
        );
        // Early or on time is never negative lateness.
        assert_eq!(lateness(pacer.due(5), pacer.due(4)), Duration::ZERO);
    }
}
