//! Calibrated time.
//!
//! The host this benchmark runs on changes speed by up to ~2x from one
//! second to the next, so raw host seconds do not repeat. Every timed
//! operation is therefore bracketed by a fixed reference kernel that
//! belongs to the benchmark (never to the program, so no change to the
//! program moves the yardstick), and the operation's host time is scaled
//! by `NOMINAL_KERNEL_S / measured kernel time`: an operation that ran
//! while the host was half as fast reads the same as one that ran at full
//! speed.
//!
//! The kernel is a dense LU factorization with partial pivoting plus a
//! triangular solve: the same kind of cache-resident floating-point work
//! the program's engine and characterization do.

use std::hint::black_box;
use std::time::Instant;

/// Order of the kernel's matrix.
const KERNEL_N: usize = 40;
/// Factor-and-solve repetitions in one kernel call.
const KERNEL_REPS: usize = 30;
/// Kernel calls per bracket; the bracket reads their median, so one
/// preemption that lands inside a bracket does not move the scale.
const BRACKET_CALLS: usize = 3;
/// Host time of one kernel call on the reference host when it runs at
/// full speed (see README). Calibrated seconds are host seconds at that
/// speed.
pub const NOMINAL_KERNEL_S: f64 = 300e-6;

/// The reference kernel's state: the matrix it factors and the result it
/// folds every call into, so the work cannot be optimized away.
pub struct Kernel {
    a0: Vec<f64>,
    work: Vec<f64>,
    rhs: Vec<f64>,
    perm: Vec<usize>,
    sink: f64,
}

impl Kernel {
    /// A fixed, well-conditioned, non-symmetric matrix.
    pub fn new() -> Kernel {
        let n = KERNEL_N;
        let mut a0 = vec![0.0; n * n];
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..n {
            for j in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let r = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                a0[i * n + j] = if i == j { n as f64 + r } else { r };
            }
        }
        Kernel {
            a0,
            work: vec![0.0; n * n],
            rhs: vec![0.0; n],
            perm: vec![0; n],
            sink: 0.0,
        }
    }

    /// One kernel call: `KERNEL_REPS` factor-and-solve passes.
    fn call(&mut self) {
        let n = KERNEL_N;
        for rep in 0..KERNEL_REPS {
            self.work.copy_from_slice(black_box(&self.a0));
            for (i, r) in self.rhs.iter_mut().enumerate() {
                *r = 1.0 + (i + rep) as f64 * 1e-3;
            }
            let a = &mut self.work;
            for (i, p) in self.perm.iter_mut().enumerate() {
                *p = i;
            }
            for k in 0..n {
                let mut piv = k;
                for i in k + 1..n {
                    if a[i * n + k].abs() > a[piv * n + k].abs() {
                        piv = i;
                    }
                }
                if piv != k {
                    for j in 0..n {
                        a.swap(k * n + j, piv * n + j);
                    }
                    self.perm.swap(k, piv);
                    self.rhs.swap(k, piv);
                }
                let d = a[k * n + k];
                for i in k + 1..n {
                    let f = a[i * n + k] / d;
                    a[i * n + k] = f;
                    for j in k + 1..n {
                        a[i * n + j] -= f * a[k * n + j];
                    }
                    self.rhs[i] -= f * self.rhs[k];
                }
            }
            for k in (0..n).rev() {
                let mut v = self.rhs[k];
                for j in k + 1..n {
                    v -= a[k * n + j] * self.rhs[j];
                }
                self.rhs[k] = v / a[k * n + k];
            }
            self.sink += black_box(self.rhs[rep % n]);
        }
    }

    /// Host seconds of one bracket: the median of `BRACKET_CALLS` calls.
    pub fn bracket(&mut self) -> f64 {
        let mut t = [0.0; BRACKET_CALLS];
        for slot in &mut t {
            let t0 = Instant::now();
            self.call();
            *slot = t0.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[BRACKET_CALLS / 2]
    }
}

/// Brackets operations with the kernel and converts their host time to
/// calibrated time. Consecutive operations share brackets: the bracket
/// after one operation is the bracket before the next.
pub struct Clock {
    kernel: Kernel,
    last_bracket: f64,
}

/// One timed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Host seconds.
    pub host: f64,
    /// Calibrated seconds.
    pub cal: f64,
}

impl std::ops::Add for Timed {
    type Output = Timed;
    fn add(self, o: Timed) -> Timed {
        Timed {
            host: self.host + o.host,
            cal: self.cal + o.cal,
        }
    }
}

impl std::iter::Sum for Timed {
    fn sum<I: Iterator<Item = Timed>>(it: I) -> Timed {
        it.fold(Timed::default(), |a, b| a + b)
    }
}

/// Reads one clock of a [`Timed`]: calibrated or host seconds.
pub type Which = fn(&Timed) -> f64;
pub const CAL: Which = |t| t.cal;
pub const HOST: Which = |t| t.host;

/// Median of one clock over timed operations.
pub fn median_of(ts: &[Timed], which: Which) -> f64 {
    median(&ts.iter().map(which).collect::<Vec<_>>())
}

/// A quantile of one clock over timed operations.
pub fn quantile_of(ts: &[Timed], which: Which, q: f64) -> f64 {
    quantile(&ts.iter().map(which).collect::<Vec<_>>(), q)
}

impl Clock {
    pub fn new() -> Clock {
        let mut kernel = Kernel::new();
        // Warm the kernel's pages and the branch predictors once.
        for _ in 0..8 {
            kernel.bracket();
        }
        let last_bracket = kernel.bracket();
        Clock {
            kernel,
            last_bracket,
        }
    }

    /// Run `op` between two brackets and return its result and time.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> (R, Timed) {
        let t0 = Instant::now();
        let r = op();
        let host = t0.elapsed().as_secs_f64();
        let after = self.kernel.bracket();
        let kernel_s = 0.5 * (self.last_bracket + after);
        self.last_bracket = after;
        let cal = host * NOMINAL_KERNEL_S / kernel_s;
        (r, Timed { host, cal })
    }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile (`q` in [0, 1]) of a non-empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
}
