//! Measurement instruments: counters, running means, and (x, y) series
//! used to regenerate the paper's figures.

use std::fmt;

/// A simple monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // counter bump, not arithmetic
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Running scalar statistics (count / mean / min / max) over `f64` samples,
/// using Welford's algorithm for a numerically stable variance.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// One measured point of a figure: payload size on the x-axis, a measured
/// value (throughput in Mb/s, latency in µs, …) on the y-axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate (payload size in bytes for most paper figures).
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

/// A named (x, y) series — one curve of a paper figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, e.g. `"9000MTU,SMP,512PCI"`.
    pub label: String,
    /// The measured points, in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// An empty series with the given legend label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }

    /// Largest y value (the figure's "peak") — 0 for an empty series.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.y).fold(0.0, f64::max)
    }

    /// Mean y value — the paper's "average throughput".
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.y).sum::<f64>() / self.points.len() as f64
    }

    /// The y value at the largest x ≤ `x` (stairstep lookup); `None` if `x`
    /// precedes the first point.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.x <= x)
            .last()
            .map(|p| p.y)
    }

    /// Minimum y value over points with x in `[lo, hi]`.
    pub fn min_in(&self, lo: f64, hi: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.x >= lo && p.x <= hi)
            .map(|p| p.y)
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN in series"))
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.label)?;
        for p in &self.points {
            writeln!(f, "{:10.1} {:12.3}", p.x, p.y)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn series_peak_mean_lookup() {
        let mut s = Series::new("9000MTU");
        s.push(1500.0, 1.0);
        s.push(3000.0, 3.0);
        s.push(8000.0, 2.0);
        assert_eq!(s.peak(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.at(4000.0), Some(3.0));
        assert_eq!(s.at(100.0), None);
        assert_eq!(s.min_in(2000.0, 9000.0), Some(2.0));
    }
}
