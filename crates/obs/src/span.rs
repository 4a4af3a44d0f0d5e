//! Span records and per-rank timelines.

use crate::phase::Phase;

/// One recorded phase span on a rank's timeline.
///
/// Times are in **seconds** from the timeline origin — the `Instant` the
/// [`crate::Observer`] was created for wall-clock spans, or virtual time
/// zero for replay-derived spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// What the rank was doing.
    pub phase: Phase,
    /// Composition step the span belongs to (`None` for work outside the
    /// per-step loop, e.g. render, flush or gather).
    pub step: Option<u32>,
    /// Streaming frame the span belongs to (`None` for single-frame runs
    /// or work outside any frame, e.g. session setup).
    pub frame: Option<u32>,
    /// Start time in seconds from the timeline origin.
    pub start: f64,
    /// Duration in seconds.
    pub dur: f64,
}

impl SpanRec {
    /// End time in seconds from the timeline origin.
    pub fn end(&self) -> f64 {
        self.start + self.dur
    }
}

/// All spans recorded for one rank, in recording order.
///
/// Wall-clock spans may nest (a `Recv` span contains the `Wait` spans of
/// its poll loop); virtual-clock spans are strictly sequential because the
/// replay clock only ever moves forward through one activity at a time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTimeline {
    /// The rank this timeline belongs to.
    pub rank: usize,
    /// Recorded spans, in recording order.
    pub spans: Vec<SpanRec>,
}

impl RankTimeline {
    /// Empty timeline for `rank`.
    pub fn new(rank: usize) -> Self {
        RankTimeline {
            rank,
            spans: Vec::new(),
        }
    }

    /// Sum of durations for one phase, added **in recording order**.
    ///
    /// The order matters: the reconciliation invariant demands bit-exact
    /// `f64` equality with the replay accumulators, which add their terms
    /// chronologically. Summing in any other order could round differently.
    pub fn total(&self, phase: Phase) -> f64 {
        let mut sum = 0.0;
        for s in &self.spans {
            if s.phase == phase {
                sum += s.dur;
            }
        }
        sum
    }

    /// Sum of **all** span durations in recording order.
    ///
    /// For a virtual timeline this equals the rank's finish time exactly,
    /// because replay emits one span per clock advance in the same order it
    /// adds the same values to the clock.
    pub fn total_all(&self) -> f64 {
        let mut sum = 0.0;
        for s in &self.spans {
            sum += s.dur;
        }
        sum
    }

    /// Latest span end, or 0 for an empty timeline.
    pub fn end(&self) -> f64 {
        self.spans.iter().map(SpanRec::end).fold(0.0, f64::max)
    }

    /// Check that the spans form a proper nesting: sorted by start (ties
    /// broken longest-first), every span is either disjoint from or fully
    /// contained in the enclosing one, within `eps` seconds of slack.
    ///
    /// Returns the first offending pair `(outer_index, inner_index)` into
    /// the **sorted** order, or `Ok(())`. Sequential (virtual) timelines
    /// trivially pass; wall timelines pass because the execution layer only
    /// records properly bracketed regions.
    pub fn check_nesting(&self, eps: f64) -> Result<(), (usize, usize)> {
        let mut order: Vec<&SpanRec> = self.spans.iter().collect();
        order.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.dur.total_cmp(&a.dur)));
        // Sorted positions of the spans we are currently "inside of".
        let mut stack: Vec<usize> = Vec::new();
        for (pos, s) in order.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if order[top].end() <= s.start + eps {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                // Still open: the new span must fit inside it.
                if s.end() > order[top].end() + eps {
                    return Err((top, pos));
                }
            }
            stack.push(pos);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, start: f64, dur: f64) -> SpanRec {
        SpanRec {
            phase,
            step: None,
            frame: None,
            start,
            dur,
        }
    }

    #[test]
    fn totals_sum_in_recording_order() {
        let tl = RankTimeline {
            rank: 0,
            spans: vec![
                span(Phase::Send, 0.0, 0.25),
                span(Phase::Wait, 0.25, 0.5),
                span(Phase::Send, 0.75, 0.125),
            ],
        };
        assert_eq!(tl.total(Phase::Send), 0.375);
        assert_eq!(tl.total(Phase::Wait), 0.5);
        assert_eq!(tl.total(Phase::Over), 0.0);
        assert_eq!(tl.total_all(), 0.875);
        assert_eq!(tl.end(), 0.875);
    }

    #[test]
    fn sequential_spans_nest() {
        let tl = RankTimeline {
            rank: 0,
            spans: vec![
                span(Phase::Send, 0.0, 1.0),
                span(Phase::Wait, 1.0, 1.0),
                span(Phase::Over, 2.0, 0.5),
            ],
        };
        assert_eq!(tl.check_nesting(1e-9), Ok(()));
    }

    #[test]
    fn contained_spans_nest() {
        // A recv span containing two wait spans — the wall-clock shape.
        let tl = RankTimeline {
            rank: 1,
            spans: vec![
                span(Phase::Recv, 0.0, 3.0),
                span(Phase::Wait, 0.5, 1.0),
                span(Phase::Wait, 2.0, 0.9),
            ],
        };
        assert_eq!(tl.check_nesting(1e-9), Ok(()));
    }

    #[test]
    fn straddling_spans_fail_nesting() {
        // Second span starts inside the first but ends after it.
        let tl = RankTimeline {
            rank: 2,
            spans: vec![span(Phase::Recv, 0.0, 2.0), span(Phase::Wait, 1.0, 5.0)],
        };
        assert!(tl.check_nesting(1e-9).is_err());
    }

    #[test]
    fn a_nan_span_does_not_panic_the_nesting_check() {
        // A timeline is plain data: the check orders spans totally and
        // reports, whatever times it is handed.
        for bad in [
            span(Phase::Wait, f64::NAN, 1.0),
            span(Phase::Wait, 0.5, f64::NAN),
        ] {
            let tl = RankTimeline {
                rank: 0,
                spans: vec![span(Phase::Recv, 0.0, 2.0), bad],
            };
            let _ = tl.check_nesting(1e-9);
        }
    }

    #[test]
    fn empty_timeline_is_trivially_nested() {
        assert_eq!(RankTimeline::new(7).check_nesting(1e-9), Ok(()));
        assert_eq!(RankTimeline::new(7).end(), 0.0);
    }
}
