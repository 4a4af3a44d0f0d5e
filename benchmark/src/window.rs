//! A visit's timed window: stretches of frames (segments) bracketed by
//! calibration-kernel runs, and the end-to-end numbers derived from them,
//! both as the clock read them and at quiet-box speed.

use crate::calib::slowdown;
use crate::procfs::CpuTime;
use crate::stats::median;

/// A stretch of timed frames between two calibrations, a fraction of a
/// second long.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Raw intervals between consecutive delivered frames, ms.
    pub frame_ms: Vec<f64>,
    /// Frames the stretch delivered.
    pub frames: u64,
    /// Raw wall time the stretch took to deliver them, ms.
    pub wall_ms: f64,
    /// CPU time of the process over the stretch.
    pub cpu: CpuTime,
    /// Calibration kernel seconds just before and just after the stretch.
    pub kernel_s: [f64; 2],
}

impl Segment {
    /// A stretch that is nothing but its frame intervals: one frame each,
    /// and no wall time outside them.
    pub fn of_intervals(frame_ms: Vec<f64>, cpu: CpuTime, kernel_s: [f64; 2]) -> Segment {
        Segment {
            frames: frame_ms.len() as u64,
            wall_ms: frame_ms.iter().sum(),
            frame_ms,
            cpu,
            kernel_s,
        }
    }
}

/// One visit's set-up and timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Raw seconds from the visit's start to its first timed frame.
    pub setup_s: f64,
    /// Calibration kernel seconds at the start and the end of the set-up.
    pub setup_kernel_s: [f64; 2],
    /// The timed frames.
    pub segments: Vec<Segment>,
}

impl Window {
    /// Every raw frame interval of the window, ms.
    pub fn raw_frame_ms(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.frame_ms.iter().copied())
            .collect()
    }

    /// Timed frames.
    pub fn frames(&self) -> u64 {
        self.segments.iter().map(|s| s.frames).sum()
    }

    /// Raw CPU time of the process over the timed frames.
    pub fn cpu(&self) -> CpuTime {
        self.segments
            .iter()
            .fold(CpuTime::default(), |sum, s| sum.plus(s.cpu))
    }

    /// Median slow-down of the box over the window (1 = quiet).
    pub fn slowdown(&self) -> f64 {
        median(
            &self
                .segments
                .iter()
                .map(|s| slowdown(&s.kernel_s))
                .collect::<Vec<_>>(),
        )
    }

    /// The visit's end-to-end numbers with every time divided by what
    /// `slow` makes of the kernel seconds around it.
    fn sample_with(&self, slow: fn(&[f64]) -> f64) -> Sample {
        let frames = self.frames() as f64;
        let mut frame_ms = Vec::with_capacity(frames as usize);
        let mut wall_ms = 0.0;
        let mut cpu_ms = 0.0;
        for segment in &self.segments {
            let slow = slow(&segment.kernel_s);
            frame_ms.extend(segment.frame_ms.iter().map(|ms| ms / slow));
            wall_ms += segment.wall_ms / slow;
            cpu_ms += segment.cpu.total_s() * 1e3 / slow;
        }
        Sample {
            setup_s: self.setup_s / slow(&self.setup_kernel_s),
            frame_ms_p50: median(&frame_ms),
            frames_per_s: frames / (wall_ms / 1e3),
            cpu_ms_per_frame: cpu_ms / frames,
        }
    }

    /// The visit's end-to-end numbers as the clock read them.
    pub fn raw(&self) -> Sample {
        self.sample_with(|_| 1.0)
    }

    /// The visit's end-to-end numbers at quiet-box speed: every time is
    /// divided by the slow-down the calibration kernel showed around it.
    pub fn at_quiet_speed(&self) -> Sample {
        self.sample_with(slowdown)
    }
}

/// The end-to-end numbers of one visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Set-up time, s.
    pub setup_s: f64,
    /// Median frame interval, ms.
    pub frame_ms_p50: f64,
    /// Timed frames ÷ the wall time that delivered them.
    pub frames_per_s: f64,
    /// Process CPU time per frame, ms.
    pub cpu_ms_per_frame: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::QUIET_S;

    fn cpu(user_s: f64) -> CpuTime {
        CpuTime { user_s, sys_s: 0.0 }
    }

    #[test]
    fn a_quiet_window_reports_its_raw_numbers() {
        let window = Window {
            setup_s: 0.25,
            setup_kernel_s: [QUIET_S; 2],
            segments: vec![Segment::of_intervals(
                vec![2.0, 2.0, 4.0, 2.0],
                cpu(0.02),
                [QUIET_S; 2],
            )],
        };
        let sample = window.at_quiet_speed();
        assert_eq!(sample.setup_s, 0.25);
        assert_eq!(sample.frame_ms_p50, 2.0);
        assert_eq!(sample.frames_per_s, 400.0);
        assert_eq!(sample.cpu_ms_per_frame, 5.0);
        assert_eq!(window.slowdown(), 1.0);
        assert_eq!(window.raw(), sample);
        assert_eq!(window.frames(), 4);
    }

    #[test]
    fn a_slow_stretch_is_scaled_back_by_its_own_slowdown() {
        // The same work, the second stretch on a box running at half speed.
        let quiet = Segment::of_intervals(vec![2.0; 10], cpu(0.04), [QUIET_S; 2]);
        let slow = Segment::of_intervals(vec![4.0; 10], cpu(0.08), [1.5 * QUIET_S, 2.5 * QUIET_S]);
        let window = Window {
            setup_s: 0.6,
            setup_kernel_s: [2.0 * QUIET_S; 2],
            segments: vec![quiet, slow],
        };
        let sample = window.at_quiet_speed();
        assert_eq!(sample.setup_s, 0.3);
        assert_eq!(sample.frame_ms_p50, 2.0);
        assert!((sample.frames_per_s - 500.0).abs() < 1e-9);
        assert!((sample.cpu_ms_per_frame - 4.0).abs() < 1e-9);
        assert_eq!(window.slowdown(), 1.5);
        // The raw view keeps what the clock said.
        let raw = window.raw();
        assert_eq!(raw.setup_s, 0.6);
        assert_eq!(raw.frame_ms_p50, 3.0);
        assert!((raw.frames_per_s - 1e3 / 3.0).abs() < 1e-9);
        assert!((raw.cpu_ms_per_frame - 6.0).abs() < 1e-9);
        assert_eq!(window.cpu().total_s(), 0.12);
    }

    #[test]
    fn wall_time_outside_the_intervals_counts_in_throughput_and_cpu_only() {
        // An orbit: 30 ms from the call to its first frame, then three
        // frames 10 ms apart.
        let window = Window {
            setup_s: 0.1,
            setup_kernel_s: [QUIET_S; 2],
            segments: vec![Segment {
                frame_ms: vec![10.0; 3],
                frames: 4,
                wall_ms: 60.0,
                cpu: cpu(0.08),
                kernel_s: [QUIET_S; 2],
            }],
        };
        let raw = window.raw();
        assert_eq!(raw.frame_ms_p50, 10.0);
        assert!((raw.frames_per_s - 4.0 / 0.06).abs() < 1e-9);
        assert_eq!(raw.cpu_ms_per_frame, 20.0);
    }
}
