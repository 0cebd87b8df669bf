//! Sampled voltage/current waveforms and noise-glitch metrics.
//!
//! A [`Waveform`] is a strictly-increasing time grid with one sample per
//! point and linear interpolation in between. All noise-analysis results in
//! this workspace (golden simulation, macromodel engine, baselines) are
//! exchanged as waveforms, and compared through [`GlitchMetrics`] — the
//! peak / width / area numbers the paper reports in its tables.

use crate::error::{Error, Result};

/// A piecewise-linear sampled signal: strictly increasing times, one value
/// per time point.
///
/// # Examples
///
/// ```
/// use sna_spice::waveform::Waveform;
///
/// let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0]).unwrap();
/// assert_eq!(w.value_at(0.5), 1.0);
/// assert_eq!(w.value_at(-1.0), 0.0); // clamped to first sample
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Create an empty waveform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a waveform from parallel time/value vectors.
    ///
    /// # Errors
    ///
    /// Fails if the vectors differ in length, are empty, or the time axis is
    /// not strictly increasing.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        if times.len() != values.len() {
            return Err(Error::InvalidTable(format!(
                "waveform axes differ in length: {} times vs {} values",
                times.len(),
                values.len()
            )));
        }
        if times.is_empty() {
            return Err(Error::InvalidTable("empty waveform".into()));
        }
        for w in times.windows(2) {
            if w[1] <= w[0] {
                return Err(Error::InvalidTable(format!(
                    "waveform time axis not strictly increasing at t = {}",
                    w[1]
                )));
            }
        }
        Ok(Self { times, values })
    }

    /// Build a constant waveform over `[t0, t1]`.
    pub fn constant(t0: f64, t1: f64, value: f64) -> Self {
        Self {
            times: vec![t0, t1],
            values: vec![value, value],
        }
    }

    /// Sample a closure on a uniform grid of `n` points over `[t0, t1]`
    /// (inclusive at both ends; `n >= 2`).
    pub fn sample<F: FnMut(f64) -> f64>(t0: f64, t1: f64, n: usize, mut f: F) -> Self {
        assert!(n >= 2, "need at least two samples");
        assert!(t1 > t0, "empty interval");
        let dt = (t1 - t0) / (n - 1) as f64;
        let times: Vec<f64> = (0..n).map(|i| t0 + i as f64 * dt).collect();
        let values = times.iter().map(|&t| f(t)).collect();
        Self { times, values }
    }

    /// Append a sample. Panics in debug builds if `t` does not advance time.
    pub fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&last| t > last),
            "waveform push must advance time"
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Time axis.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// First time point, or 0 for an empty waveform.
    pub fn t_start(&self) -> f64 {
        self.times.first().copied().unwrap_or(0.0)
    }

    /// Last time point, or 0 for an empty waveform.
    pub fn t_end(&self) -> f64 {
        self.times.last().copied().unwrap_or(0.0)
    }

    /// Linearly interpolated value at `t`, clamped to the end samples
    /// outside the time span. Returns 0 for an empty waveform.
    pub fn value_at(&self, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= *self.times.last().unwrap() {
            return *self.values.last().unwrap();
        }
        // partition_point: first index with times[i] > t.
        let hi = self.times.partition_point(|&x| x <= t);
        let lo = hi - 1;
        let (t0, t1) = (self.times[lo], self.times[hi]);
        let (v0, v1) = (self.values[lo], self.values[hi]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Maximum sample value. Returns 0 for an empty waveform.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Shift the waveform in time by `delta` (positive = later).
    pub fn shifted(&self, delta: f64) -> Self {
        Self {
            times: self.times.iter().map(|&t| t + delta).collect(),
            values: self.values.clone(),
        }
    }

    /// Multiply all values by `k`.
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            times: self.times.clone(),
            values: self.values.iter().map(|&v| k * v).collect(),
        }
    }

    /// Add a constant offset to all values.
    pub fn offset(&self, dv: f64) -> Self {
        Self {
            times: self.times.clone(),
            values: self.values.iter().map(|&v| v + dv).collect(),
        }
    }

    /// Pointwise sum of two waveforms on the union of their time grids
    /// (each clamped outside its own span).
    ///
    /// This is exactly the "linear superposition" operation the paper warns
    /// about; it is provided for implementing that baseline.
    pub fn add(&self, other: &Waveform) -> Waveform {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut grid: Vec<f64> = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.times.len() || j < other.times.len() {
            let ta = self.times.get(i).copied().unwrap_or(f64::INFINITY);
            let tb = other.times.get(j).copied().unwrap_or(f64::INFINITY);
            let t = ta.min(tb);
            if ta == t {
                i += 1;
            }
            if tb == t {
                j += 1;
            }
            if grid.last().is_none_or(|&g| t > g) {
                grid.push(t);
            }
        }
        let values = grid
            .iter()
            .map(|&t| self.value_at(t) + other.value_at(t))
            .collect();
        Waveform {
            times: grid,
            values,
        }
    }

    /// Pointwise difference `self - other` on the union grid.
    pub fn sub(&self, other: &Waveform) -> Waveform {
        self.add(&other.scaled(-1.0))
    }

    /// Time of the sample with the largest `|value - baseline|`.
    pub fn peak_time(&self, baseline: f64) -> f64 {
        let mut best_t = self.t_start();
        let mut best = -1.0;
        for (&t, &v) in self.times.iter().zip(&self.values) {
            let d = (v - baseline).abs();
            if d > best {
                best = d;
                best_t = t;
            }
        }
        best_t
    }

    /// Glitch metrics relative to a quiescent `baseline` voltage.
    pub fn glitch_metrics(&self, baseline: f64) -> GlitchMetrics {
        GlitchMetrics::from_waveform(self, baseline)
    }

    /// Maximum absolute pointwise deviation from `other`, evaluated on the
    /// union of both grids. Useful for waveform-level accuracy checks.
    pub fn max_abs_difference(&self, other: &Waveform) -> f64 {
        let diff = self.sub(other);
        diff.values.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }
}

/// Scalar summary of a noise glitch, as reported in the paper's tables.
///
/// All quantities are relative to the quiescent (baseline) level of the
/// victim node:
/// * `peak` — maximum deviation magnitude (volts), with `polarity` recording
///   the direction;
/// * `width` — time spent beyond 50 % of the peak deviation (seconds);
/// * `area` — ∫ |v(t) − baseline| dt (volt·seconds; the tables print V·ps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchMetrics {
    /// Peak deviation from the baseline, in volts (always non-negative).
    pub peak: f64,
    /// +1.0 for an upward glitch, -1.0 for downward, 0.0 for flat.
    pub polarity: f64,
    /// Time at which the peak occurs (seconds).
    pub peak_time: f64,
    /// Width at 50 % of the peak deviation (seconds).
    pub width: f64,
    /// Area ∫|v − baseline| dt (volt·seconds).
    pub area: f64,
}

impl GlitchMetrics {
    /// Compute metrics of `w` around the quiescent level `baseline`.
    pub fn from_waveform(w: &Waveform, baseline: f64) -> Self {
        if w.is_empty() {
            return GlitchMetrics {
                peak: 0.0,
                polarity: 0.0,
                peak_time: 0.0,
                width: 0.0,
                area: 0.0,
            };
        }
        let mut peak = 0.0_f64;
        let mut peak_time = w.t_start();
        let mut polarity = 0.0;
        for (&t, &v) in w.times.iter().zip(&w.values) {
            let d = v - baseline;
            if d.abs() > peak {
                peak = d.abs();
                peak_time = t;
                polarity = if d >= 0.0 { 1.0 } else { -1.0 };
            }
        }
        // Area of |v - baseline| via trapezoid on |.| samples. The absolute
        // value is piecewise-linear between samples except where the signal
        // crosses the baseline; sampling is dense enough in practice that we
        // treat |.| as linear per segment (error is second order in dt).
        let mut area = 0.0;
        for k in 1..w.times.len() {
            let dt = w.times[k] - w.times[k - 1];
            let a = (w.values[k - 1] - baseline).abs();
            let b = (w.values[k] - baseline).abs();
            area += 0.5 * (a + b) * dt;
        }
        // Width at 50% of peak: total measure of {t : |v(t)-baseline| >= peak/2},
        // computed with linear interpolation at threshold crossings.
        let width = if peak <= 0.0 {
            0.0
        } else {
            let thr = 0.5 * peak;
            let mut total = 0.0;
            let mut above_since: Option<f64> = None;
            let dev = |idx: usize| (w.values[idx] - baseline).abs();
            for k in 0..w.times.len() {
                let d = dev(k);
                if k == 0 {
                    if d >= thr {
                        above_since = Some(w.times[0]);
                    }
                    continue;
                }
                let prev = dev(k - 1);
                let (t0, t1) = (w.times[k - 1], w.times[k]);
                if prev < thr && d >= thr {
                    // rising crossing
                    let tc = t0 + (t1 - t0) * (thr - prev) / (d - prev);
                    above_since = Some(tc);
                } else if prev >= thr && d < thr {
                    // falling crossing
                    let tc = t0 + (t1 - t0) * (prev - thr) / (prev - d);
                    if let Some(ts) = above_since.take() {
                        total += tc - ts;
                    }
                }
            }
            if let Some(ts) = above_since {
                total += w.t_end() - ts;
            }
            total
        };
        GlitchMetrics {
            peak,
            polarity,
            peak_time,
            width,
            area,
        }
    }

    /// Signed relative error of `self` with respect to a `golden` reference,
    /// per quantity, in percent — the `Error%` columns of the paper's tables.
    pub fn error_percent_vs(&self, golden: &GlitchMetrics) -> GlitchError {
        fn pct(est: f64, gold: f64) -> f64 {
            if gold.abs() < f64::EPSILON {
                0.0
            } else {
                100.0 * (est - gold) / gold
            }
        }
        GlitchError {
            peak_pct: pct(self.peak, golden.peak),
            width_pct: pct(self.width, golden.width),
            area_pct: pct(self.area, golden.area),
        }
    }
}

/// Relative error of one glitch estimate against a golden reference (%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchError {
    /// Peak error in percent (negative = underestimate).
    pub peak_pct: f64,
    /// Width error in percent.
    pub width_pct: f64,
    /// Area error in percent.
    pub area_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Waveform {
        // 0 at t=0, 1V at t=1, 0 at t=2 (units abstract).
        Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]).unwrap()
    }

    #[test]
    fn from_samples_validates() {
        assert!(Waveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Waveform::from_samples(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(Waveform::from_samples(vec![], vec![]).is_err());
        assert!(Waveform::from_samples(vec![0.0, 1.0], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn interpolation_and_clamping() {
        let w = triangle();
        assert_eq!(w.value_at(0.25), 0.25);
        assert_eq!(w.value_at(1.5), 0.5);
        assert_eq!(w.value_at(-5.0), 0.0);
        assert_eq!(w.value_at(10.0), 0.0);
        assert_eq!(w.value_at(1.0), 1.0);
    }

    #[test]
    fn add_on_union_grid() {
        let a = triangle();
        let b = triangle().shifted(0.5);
        let s = a.add(&b);
        // At t=1.0: a=1.0, b=value at 0.5 of triangle = 0.5.
        assert!((s.value_at(1.0) - 1.5).abs() < 1e-12);
        // Union grid contains both 1.0 and 1.5.
        assert!(s.times().contains(&1.0));
        assert!(s.times().contains(&1.5));
        // Strictly increasing.
        for w in s.times().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn add_identity_with_empty() {
        let a = triangle();
        let e = Waveform::new();
        assert_eq!(a.add(&e), a);
        assert_eq!(e.add(&a), a);
    }

    #[test]
    fn glitch_metrics_triangle() {
        let m = triangle().glitch_metrics(0.0);
        assert!((m.peak - 1.0).abs() < 1e-12);
        assert_eq!(m.polarity, 1.0);
        assert!((m.peak_time - 1.0).abs() < 1e-12);
        // Triangle crosses 0.5 at t=0.5 and t=1.5 -> width 1.0.
        assert!((m.width - 1.0).abs() < 1e-12);
        assert!((m.area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn glitch_metrics_downward() {
        let w = triangle().scaled(-2.0).offset(1.0); // dips from 1.0 down to -1.0
        let m = w.glitch_metrics(1.0);
        assert!((m.peak - 2.0).abs() < 1e-12);
        assert_eq!(m.polarity, -1.0);
    }

    #[test]
    fn width_of_plateau_glitch() {
        // Flat-top glitch: up at 1, flat to 3, down at 4. Peak 1, 50% thr 0.5.
        let w = Waveform::from_samples(vec![0.0, 1.0, 3.0, 4.0], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let m = w.glitch_metrics(0.0);
        // crossings at t=0.5 and t=3.5 -> width 3.0
        assert!((m.width - 3.0).abs() < 1e-12);
    }

    #[test]
    fn width_multi_lobe_accumulates() {
        let w =
            Waveform::from_samples(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0.0, 1.0, 0.0, 1.0, 0.0])
                .unwrap();
        let m = w.glitch_metrics(0.0);
        // Two triangles, each contributing width 1.0 at half height.
        assert!((m.width - 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_percent() {
        let gold = GlitchMetrics {
            peak: 0.4,
            polarity: 1.0,
            peak_time: 0.0,
            width: 2e-10,
            area: 1e-10,
        };
        let est = GlitchMetrics {
            peak: 0.3,
            polarity: 1.0,
            peak_time: 0.0,
            width: 1e-10,
            area: 0.5e-10,
        };
        let e = est.error_percent_vs(&gold);
        assert!((e.peak_pct + 25.0).abs() < 1e-9);
        assert!((e.width_pct + 50.0).abs() < 1e-9);
        assert!((e.area_pct + 50.0).abs() < 1e-9);
    }

    #[test]
    fn shifted_and_scaled() {
        let w = triangle().shifted(2.0).scaled(3.0);
        assert_eq!(w.value_at(3.0), 3.0);
        assert_eq!(w.t_start(), 2.0);
    }

    #[test]
    fn sample_closure() {
        let w = Waveform::sample(0.0, 1.0, 11, |t| t * t);
        assert!((w.value_at(0.5) - 0.25).abs() < 0.01);
        assert_eq!(w.len(), 11);
    }

    #[test]
    fn peak_time_of_baseline_deviation() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![5.0, 3.0, 5.0]).unwrap();
        assert_eq!(w.peak_time(5.0), 1.0);
    }

    #[test]
    fn max_abs_difference() {
        let a = triangle();
        let b = triangle().scaled(0.5);
        assert!((a.max_abs_difference(&b) - 0.5).abs() < 1e-12);
    }
}
