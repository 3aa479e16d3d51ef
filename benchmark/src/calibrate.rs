//! CPU-speed calibration.
//!
//! The hosts this benchmark runs on (two shared vCPUs) switch between a fast and a
//! roughly 1.6× slower mode every few seconds, which moves every wall-clock time by
//! far more than any regression bound.  So each timed interval is bracketed by two runs
//! of a fixed arithmetic kernel, and the interval's compute time is reported at the
//! reference speed: multiplied by `REFERENCE_SLICE_US / observed slice time`.  Time the
//! program spends waiting on the simulated link is not compute and is not scaled.
//!
//! The kernel is multi-limb multiply-accumulate, the arithmetic that dominates the
//! program, and lives here so that no change to the program can move it.  It follows
//! the program's slow-downs to within a few percent, not exactly: the regression bounds
//! in `metrics` are sized to what is left.

use std::hint::black_box;
use std::time::Instant;

/// What one calibration slice takes in the fast mode of the reference host (the
/// 2-vCPU sandbox the first numbers were recorded on).  A constant, so that normalised
/// times from different runs and commits share one scale.
pub const REFERENCE_SLICE_US: f64 = 200.0;

const KERNEL_ROUNDS: usize = 5_000;
/// A slice is the fastest of this many kernel runs, which a preemption cannot inflate.
const KERNEL_RUNS: usize = 4;

/// `rounds` schoolbook 8 × 8-limb multiply-accumulates, each feeding the next.  It
/// touches no heap, so nothing the program does to the allocator can change its speed
/// (a variant on heap-allocated limbs tracked a stand-alone crypto loop better, ±3 %
/// against ±6 % per 20 s, but inside the driver it doubled the spread of the results).
fn kernel(rounds: usize) -> u64 {
    let mut a = [0x9E37_79B9_7F4A_7C15u64; 8];
    let mut acc = [0u64; 16];
    for round in 0..rounds {
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let t = (a[i] as u128) * (a[j] as u128) + acc[i + j] as u128 + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
            acc[i + 8] = carry as u64;
        }
        a[round % 8] ^= acc[round % 16];
    }
    acc.iter().fold(0, |x, y| x ^ y)
}

/// Microseconds one calibration slice takes right now, on the calling thread's core.
pub fn slice_us() -> f64 {
    (0..KERNEL_RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(black_box(KERNEL_ROUNDS)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed interval: its wall-clock length and the CPU speed it ran at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Wall-clock seconds, as measured.
    pub raw_s: f64,
    /// Reference slice time ÷ the mean of the slices before and after the interval:
    /// below 1 when the host ran slower than the reference.
    pub speed: f64,
}

impl Timing {
    /// The interval at reference speed, given that `wait_s` of it was spent waiting
    /// (on the simulated link) rather than computing.
    pub fn normalised_s(&self, wait_s: f64) -> f64 {
        let wait_s = wait_s.min(self.raw_s);
        wait_s + (self.raw_s - wait_s) * self.speed
    }
}

/// Run `work` between two calibration slices.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Timing) {
    let before = slice_us();
    let start = Instant::now();
    let out = work();
    let raw_s = start.elapsed().as_secs_f64();
    let after = slice_us();
    (out, Timing { raw_s, speed: REFERENCE_SLICE_US / ((before + after) / 2.0) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_is_not_scaled() {
        let t = Timing { raw_s: 1.0, speed: 0.5 };
        assert_eq!(t.normalised_s(0.0), 0.5);
        assert_eq!(t.normalised_s(0.6), 0.8);
        assert_eq!(t.normalised_s(2.0), 1.0);
    }

    #[test]
    fn kernel_does_work() {
        assert_ne!(kernel(10), kernel(11));
        let (out, timing) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(timing.speed > 0.0 && timing.raw_s >= 0.0);
    }
}
