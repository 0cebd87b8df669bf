//! Time-dependent independent source waveforms.
//!
//! Aggressor drivers in the noise-cluster macromodel are Thevenin
//! equivalents whose EMF is a *saturated ramp* ([`SourceWaveform::Ramp`]),
//! per Dartu–Pileggi. Noise glitches arriving at the victim-driver input are
//! injected as [`SourceWaveform::TriangleGlitch`] or arbitrary
//! [`SourceWaveform::Sampled`] waveforms.

use crate::waveform::Waveform;

/// Value of an independent voltage/current source as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// Saturated ramp: `v0` until `t_start`, linear to `v1` over `t_rise`,
    /// then `v1` forever. `t_rise` must be positive.
    Ramp {
        /// Initial level.
        v0: f64,
        /// Final level.
        v1: f64,
        /// Ramp onset time (s).
        t_start: f64,
        /// 0→100 % transition time (s).
        t_rise: f64,
    },
    /// One-shot trapezoidal pulse returning to `v0`.
    Pulse {
        /// Base level.
        v0: f64,
        /// Pulsed level.
        v1: f64,
        /// Delay before the rising edge (s).
        t_delay: f64,
        /// Rise time (s).
        t_rise: f64,
        /// Time spent at `v1` (s).
        t_width: f64,
        /// Fall time (s).
        t_fall: f64,
    },
    /// Triangular noise glitch: base, linear rise to `v_peak`, linear fall
    /// back to base. The canonical injected-noise shape used for cell
    /// characterization.
    TriangleGlitch {
        /// Quiescent level.
        v_base: f64,
        /// Glitch extreme (may be below `v_base` for a downward glitch).
        v_peak: f64,
        /// Glitch onset (s).
        t_start: f64,
        /// Base-to-peak time (s).
        t_rise: f64,
        /// Peak-to-base time (s).
        t_fall: f64,
    },
    /// Piecewise-linear `(time, value)` points; clamps outside the span.
    /// Points must be sorted by strictly increasing time.
    Pwl(Vec<(f64, f64)>),
    /// Arbitrary sampled waveform (clamped outside its span).
    Sampled(Waveform),
}

impl SourceWaveform {
    /// Source value at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Ramp {
                v0,
                v1,
                t_start,
                t_rise,
            } => {
                if t <= *t_start {
                    *v0
                } else if t >= t_start + t_rise {
                    *v1
                } else {
                    v0 + (v1 - v0) * (t - t_start) / t_rise
                }
            }
            SourceWaveform::Pulse {
                v0,
                v1,
                t_delay,
                t_rise,
                t_width,
                t_fall,
            } => {
                let t1 = *t_delay;
                let t2 = t1 + t_rise;
                let t3 = t2 + t_width;
                let t4 = t3 + t_fall;
                if t <= t1 || t >= t4 {
                    *v0
                } else if t < t2 {
                    v0 + (v1 - v0) * (t - t1) / t_rise
                } else if t <= t3 {
                    *v1
                } else {
                    v1 + (v0 - v1) * (t - t3) / t_fall
                }
            }
            SourceWaveform::TriangleGlitch {
                v_base,
                v_peak,
                t_start,
                t_rise,
                t_fall,
            } => {
                let tp = t_start + t_rise;
                let te = tp + t_fall;
                if t <= *t_start || t >= te {
                    *v_base
                } else if t < tp {
                    v_base + (v_peak - v_base) * (t - t_start) / t_rise
                } else {
                    v_peak + (v_base - v_peak) * (t - tp) / t_fall
                }
            }
            SourceWaveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let hi = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[hi - 1];
                let (t1, v1) = points[hi];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
            SourceWaveform::Sampled(w) => w.value_at(t),
        }
    }

    /// Latest time at which this source still changes; `0` for DC.
    /// Transient analyses may use this to sanity-check their horizon.
    pub fn last_event_time(&self) -> f64 {
        match self {
            SourceWaveform::Dc(_) => 0.0,
            SourceWaveform::Ramp {
                t_start, t_rise, ..
            } => t_start + t_rise,
            SourceWaveform::Pulse {
                t_delay,
                t_rise,
                t_width,
                t_fall,
                ..
            } => t_delay + t_rise + t_width + t_fall,
            SourceWaveform::TriangleGlitch {
                t_start,
                t_rise,
                t_fall,
                ..
            } => t_start + t_rise + t_fall,
            SourceWaveform::Pwl(points) => points.last().map_or(0.0, |p| p.0),
            SourceWaveform::Sampled(w) => w.t_end(),
        }
    }

    /// Shift the waveform later in time by `delta` seconds (negative =
    /// earlier). Used by worst-case aggressor alignment search.
    pub fn shifted(&self, delta: f64) -> SourceWaveform {
        match self {
            SourceWaveform::Dc(v) => SourceWaveform::Dc(*v),
            SourceWaveform::Ramp {
                v0,
                v1,
                t_start,
                t_rise,
            } => SourceWaveform::Ramp {
                v0: *v0,
                v1: *v1,
                t_start: t_start + delta,
                t_rise: *t_rise,
            },
            SourceWaveform::Pulse {
                v0,
                v1,
                t_delay,
                t_rise,
                t_width,
                t_fall,
            } => SourceWaveform::Pulse {
                v0: *v0,
                v1: *v1,
                t_delay: t_delay + delta,
                t_rise: *t_rise,
                t_width: *t_width,
                t_fall: *t_fall,
            },
            SourceWaveform::TriangleGlitch {
                v_base,
                v_peak,
                t_start,
                t_rise,
                t_fall,
            } => SourceWaveform::TriangleGlitch {
                v_base: *v_base,
                v_peak: *v_peak,
                t_start: t_start + delta,
                t_rise: *t_rise,
                t_fall: *t_fall,
            },
            SourceWaveform::Pwl(points) => {
                SourceWaveform::Pwl(points.iter().map(|&(t, v)| (t + delta, v)).collect())
            }
            SourceWaveform::Sampled(w) => SourceWaveform::Sampled(w.shifted(delta)),
        }
    }
}

impl Default for SourceWaveform {
    fn default() -> Self {
        SourceWaveform::Dc(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_saturates() {
        let r = SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.2,
            t_start: 1e-9,
            t_rise: 100e-12,
        };
        assert_eq!(r.eval(0.0), 0.0);
        assert_eq!(r.eval(1e-9), 0.0);
        assert!((r.eval(1.05e-9) - 0.6).abs() < 1e-12);
        assert_eq!(r.eval(2e-9), 1.2);
        assert!((r.last_event_time() - 1.1e-9).abs() < 1e-21);
    }

    #[test]
    fn pulse_shape() {
        let p = SourceWaveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            t_delay: 1.0,
            t_rise: 1.0,
            t_width: 2.0,
            t_fall: 1.0,
        };
        assert_eq!(p.eval(0.5), 0.0);
        assert!((p.eval(1.5) - 0.5).abs() < 1e-12);
        assert_eq!(p.eval(3.0), 1.0);
        assert!((p.eval(4.5) - 0.5).abs() < 1e-12);
        assert_eq!(p.eval(6.0), 0.0);
    }

    #[test]
    fn triangle_glitch_downward() {
        let g = SourceWaveform::TriangleGlitch {
            v_base: 1.2,
            v_peak: 0.4,
            t_start: 0.0,
            t_rise: 2.0,
            t_fall: 2.0,
        };
        assert_eq!(g.eval(-1.0), 1.2);
        assert!((g.eval(1.0) - 0.8).abs() < 1e-12);
        assert!((g.eval(2.0) - 0.4).abs() < 1e-12);
        assert!((g.eval(3.0) - 0.8).abs() < 1e-12);
        assert_eq!(g.eval(5.0), 1.2);
    }

    #[test]
    fn pwl_clamps_and_interpolates() {
        let p = SourceWaveform::Pwl(vec![(1.0, 0.0), (2.0, 1.0), (4.0, -1.0)]);
        assert_eq!(p.eval(0.0), 0.0);
        assert!((p.eval(1.5) - 0.5).abs() < 1e-12);
        assert!((p.eval(3.0) - 0.0).abs() < 1e-12);
        assert_eq!(p.eval(9.0), -1.0);
    }

    #[test]
    fn shift_moves_events() {
        let g = SourceWaveform::TriangleGlitch {
            v_base: 0.0,
            v_peak: 1.0,
            t_start: 1.0,
            t_rise: 1.0,
            t_fall: 1.0,
        };
        let s = g.shifted(2.0);
        assert_eq!(s.eval(2.0), 0.0);
        assert!((s.eval(4.0) - 1.0).abs() < 1e-12);
        assert!((s.last_event_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_wraps_waveform() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        let s = SourceWaveform::Sampled(w);
        assert!((s.eval(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(s.eval(5.0), 2.0);
    }
}
