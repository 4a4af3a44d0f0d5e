//! Compact text flamegraph-style summary of a set of timelines.

use crate::counters::Counters;
use crate::phase::Phase;
use crate::span::RankTimeline;

const BAR_WIDTH: usize = 40;

/// Render a per-phase breakdown of `timelines` as aligned text rows with
/// proportional unicode bars — a flamegraph squashed to one line per
/// phase. `label` heads the block (e.g. the method/codec under test).
///
/// ```
/// use rt_obs::{phase_summary, Phase, RankTimeline, SpanRec};
///
/// let tl = RankTimeline {
///     rank: 0,
///     spans: vec![
///         SpanRec { phase: Phase::Send, step: None, frame: None, start: 0.0, dur: 3.0 },
///         SpanRec { phase: Phase::Wait, step: None, frame: None, start: 3.0, dur: 1.0 },
///     ],
/// };
/// let text = phase_summary("demo", &[tl]);
/// assert!(text.contains("send"));
/// assert!(text.contains("75.0%"));
/// ```
pub fn phase_summary(label: &str, timelines: &[RankTimeline]) -> String {
    let mut out = String::new();
    let ranks = timelines.len();
    let mut totals: Vec<(Phase, f64)> = Phase::ALL.iter().map(|&p| (p, 0.0)).collect();
    let mut grand = 0.0f64;
    for tl in timelines {
        for slot in totals.iter_mut() {
            let t = tl.total(slot.0);
            slot.1 += t;
            grand += t;
        }
    }
    let makespan = timelines
        .iter()
        .map(RankTimeline::end)
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "{label}: {ranks} ranks, makespan {makespan:.6}s, busy {grand:.6}s\n"
    ));
    for (phase, total) in &totals {
        if *total == 0.0 {
            continue;
        }
        let frac = if grand > 0.0 { total / grand } else { 0.0 };
        let filled = (frac * BAR_WIDTH as f64).round() as usize;
        let filled = filled.min(BAR_WIDTH);
        let bar: String = std::iter::repeat_n('█', filled)
            .chain(std::iter::repeat_n('·', BAR_WIDTH - filled))
            .collect();
        out.push_str(&format!(
            "  {:<8} {bar} {:>6.1}%  {:.6}s\n",
            phase.name(),
            frac * 100.0,
            total
        ));
    }
    out
}

/// [`phase_summary`] followed by a kernel block: how many stream pixels
/// the compositing kernels skipped as blank, saw decided by an opaque
/// front pixel, and merged. Zero-valued lines are omitted.
///
/// ```
/// use rt_obs::{phase_summary_with_counters, Counters};
///
/// let mut c = Counters::default();
/// c.blank_skipped = 1024;
/// let text = phase_summary_with_counters("demo", &[], &c);
/// assert!(text.contains("blank_skipped"));
/// assert!(!text.contains("opaque_fast"));
/// ```
pub fn phase_summary_with_counters(
    label: &str,
    timelines: &[RankTimeline],
    counters: &Counters,
) -> String {
    let mut out = phase_summary(label, timelines);
    let kernel_rows: Vec<(&str, u64)> = [
        ("blank_skipped", counters.blank_skipped),
        ("opaque_fast", counters.opaque_fast),
        ("non_blank_merged", counters.non_blank_merged),
    ]
    .into_iter()
    .filter(|(_, v)| *v != 0)
    .collect();
    if !kernel_rows.is_empty() {
        out.push_str("  kernels:\n");
        for (name, value) in kernel_rows {
            out.push_str(&format!("    {name:<21} {value}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRec;

    #[test]
    fn summary_lists_only_nonzero_phases() {
        let tl = RankTimeline {
            rank: 0,
            spans: vec![
                SpanRec {
                    phase: Phase::Send,
                    step: None,
                    frame: None,
                    start: 0.0,
                    dur: 1.0,
                },
                SpanRec {
                    phase: Phase::Over,
                    step: None,
                    frame: None,
                    start: 1.0,
                    dur: 1.0,
                },
            ],
        };
        let text = phase_summary("t", &[tl]);
        assert!(text.contains("send"));
        assert!(text.contains("over"));
        assert!(!text.contains("backoff"));
        assert!(text.contains("50.0%"));
    }

    #[test]
    fn empty_input_renders_header_only() {
        let text = phase_summary("empty", &[]);
        assert!(text.starts_with("empty: 0 ranks"));
        assert_eq!(text.lines().count(), 1);
    }
}
