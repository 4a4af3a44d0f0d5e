//! Speed calibration. The sandbox is a shared two-core VM whose effective
//! CPU speed swings by ±20 % for minutes at a time (a neighbour on the
//! sibling hyperthread costs cycles without showing up as steal time), so
//! raw wall-clock and CPU-time numbers of identical work differ by that much
//! between runs. The benchmark therefore times a fixed kernel of its own —
//! never the program's code — every fraction of a second beside the frames,
//! and reports times divided by the kernel's slow-down: milliseconds of a
//! box running at its quiet speed.

use std::hint::black_box;
use std::time::Instant;

/// Seconds [`Calibrator::sample`] takes on this class of box when nothing
/// disturbs it (the `calibrate` subcommand's 10th percentile; it repeats
/// within 3 %).
/// A constant and not the run's own first sample: a slow spell outlasts a
/// run, and a run that called its own start quiet would keep the whole
/// swing. The value only sets the unit of the scaled times; no comparison
/// between two commits on one box depends on it.
pub const QUIET_S: f64 = 1.35e-3;

const SMALL: usize = 64 << 10;
const LARGE: usize = 2 << 20;
const SMALL_PASSES: usize = 100;
const LARGE_PASSES: usize = 4;

/// The fixed work: byte arithmetic over a cache-resident buffer (what the
/// `over` kernels and codecs do) and streaming passes over a buffer
/// larger than L2 (what payload movement does).
pub struct Kernel {
    small: Vec<u8>,
    src: Vec<u8>,
    large: Vec<u8>,
    sink: Vec<u8>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            small: vec![0x55; SMALL],
            src: (0..SMALL).map(|i| (i * 7 + 13) as u8).collect(),
            large: (0..LARGE).map(|i| (i >> 3) as u8).collect(),
            sink: vec![0; LARGE],
        }
    }
}

/// One kernel per core of the sandbox, run side by side.
#[derive(Default)]
pub struct Calibrator {
    here: Kernel,
    there: Kernel,
}

impl Calibrator {
    /// Sample the box's speed, in seconds: on each of two threads at once
    /// (every workload keeps both cores busy), the median of three
    /// back-to-back kernel runs; the slower of the two threads.
    ///
    /// The median, because the first run finds the caches as the workload
    /// left them and any run may be preempted for a moment, while the
    /// fastest of the three catches the neighbour's pauses and reads low:
    /// measured against it the workloads slowed by its 1.5th to 2nd power.
    /// The slower thread, because a frame waits for its slowest rank, so a
    /// neighbour on one core slows the whole frame. Against this reading
    /// the workloads' times move in proportion (fitted powers 1.0 to 1.3).
    pub fn sample(&mut self) -> f64 {
        let Calibrator { here, there } = self;
        std::thread::scope(|scope| {
            let other = scope.spawn(|| there.median_of_runs());
            let mine = here.median_of_runs();
            mine.max(other.join().expect("the kernel does not panic"))
        })
    }
}

impl Kernel {
    fn median_of_runs(&mut self) -> f64 {
        let mut runs = [self.run(), self.run(), self.run()];
        runs.sort_by(f64::total_cmp);
        runs[1]
    }

    fn run(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..SMALL_PASSES {
            for (d, s) in black_box(&mut self.small).iter_mut().zip(&self.src) {
                let a = 255 - u16::from(*s | 1);
                *d = s.wrapping_add(((u16::from(*d) * a + 127) / 255) as u8);
            }
        }
        for _ in 0..LARGE_PASSES {
            black_box(&mut self.sink).copy_from_slice(black_box(&self.large));
        }
        started.elapsed().as_secs_f64()
    }
}

/// How much slower than quiet the box ran, given kernel times taken around
/// the interval in question.
pub fn slowdown(kernel_s: &[f64]) -> f64 {
    kernel_s.iter().sum::<f64>() / kernel_s.len() as f64 / QUIET_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut pair = Calibrator::default();
        assert!(pair.sample() > 0.0);
        assert_eq!(pair.here.small, pair.there.small);
        assert_eq!(pair.here.sink, pair.here.large);
        assert_eq!(slowdown(&[QUIET_S, 3.0 * QUIET_S]), 2.0);
    }
}
