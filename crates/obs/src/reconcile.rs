//! The reconciliation invariant: per-phase virtual span sums must equal
//! the replay cost model's per-rank totals **bit-exactly**.
//!
//! Replay emits virtual spans at the exact program points where it
//! advances the per-rank clock and the matching [`PhaseTotals`] account,
//! using the same `f64` values in the same order. Chronological
//! re-summation of the spans therefore reproduces the accumulators down to
//! the last bit — any divergence means instrumentation and accounting have
//! drifted apart, which this check turns into a hard error instead of a
//! silently wrong profile.

use crate::phase::Phase;
use crate::span::RankTimeline;

/// Per-rank phase accounts as tracked by the replay cost model.
///
/// Each field is the accumulator the replay maintains while walking the
/// trace; [`reconcile`] checks the virtual timeline reproduces every one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Virtual finish time of the rank (its clock after the last event).
    pub finish: f64,
    /// Time spent pushing messages (all attempts).
    pub send: f64,
    /// Time spent blocked on message arrival or barriers.
    pub wait: f64,
    /// Time spent in retransmission backoff windows.
    pub backoff: f64,
    /// Time spent `over`-compositing (including the deferred flush).
    pub over: f64,
    /// Time spent in codec encode/decode.
    pub codec: f64,
    /// Time spent rendering the local partial image.
    pub render: f64,
    /// Receiver-side per-message overhead (the LogGP `tr` term).
    pub recv_overhead: f64,
}

impl PhaseTotals {
    /// The accounts as `(name, value)` pairs, excluding `finish`.
    pub fn accounts(&self) -> [(&'static str, f64); 7] {
        [
            ("send", self.send),
            ("wait", self.wait),
            ("backoff", self.backoff),
            ("over", self.over),
            ("codec", self.codec),
            ("render", self.render),
            ("recv_overhead", self.recv_overhead),
        ]
    }

    /// The account a span of `phase` is charged to.
    fn account_mut(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::Send => &mut self.send,
            Phase::Wait => &mut self.wait,
            Phase::Backoff => &mut self.backoff,
            Phase::Over | Phase::Flush => &mut self.over,
            Phase::Encode | Phase::Decode => &mut self.codec,
            Phase::Render => &mut self.render,
            Phase::Recv => &mut self.recv_overhead,
        }
    }
}

/// A reconciliation failure: one account on one rank did not match.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileError {
    /// Rank whose books did not balance.
    pub rank: usize,
    /// Which account diverged (an account name, or `"finish"`).
    pub account: &'static str,
    /// Sum over the virtual timeline's spans.
    pub from_spans: f64,
    /// The replay accumulator's value.
    pub from_replay: f64,
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} account `{}` does not reconcile: spans sum to {:e} but replay \
             recorded {:e} (delta {:e})",
            self.rank,
            self.account,
            self.from_spans,
            self.from_replay,
            self.from_spans - self.from_replay
        )
    }
}

impl std::error::Error for ReconcileError {}

/// Check one rank's virtual timeline against its replay totals.
///
/// Every account must match with **exact** `f64` equality, and the
/// chronological sum of all span durations must equal `finish` exactly.
/// Exactness is achievable (and therefore demanded) because replay emits
/// spans with the very `f64` values it adds to its accumulators, in the
/// same order; see the module docs.
pub fn reconcile(timeline: &RankTimeline, totals: &PhaseTotals) -> Result<(), ReconcileError> {
    // Per-account sums in recording (= chronological) order.
    let mut sums = PhaseTotals::default();
    for span in &timeline.spans {
        *sums.account_mut(span.phase) += span.dur;
    }
    for ((name, got), (_, want)) in sums.accounts().into_iter().zip(totals.accounts()) {
        // Exact equality on purpose — see function docs.
        if got != want {
            return Err(ReconcileError {
                rank: timeline.rank,
                account: name,
                from_spans: got,
                from_replay: want,
            });
        }
    }
    let all = timeline.total_all();
    if all != totals.finish {
        return Err(ReconcileError {
            rank: timeline.rank,
            account: "finish",
            from_spans: all,
            from_replay: totals.finish,
        });
    }
    Ok(())
}

/// Reconcile every rank; timelines and totals are matched positionally.
pub fn reconcile_all(
    timelines: &[RankTimeline],
    totals: &[PhaseTotals],
) -> Result<(), ReconcileError> {
    assert_eq!(
        timelines.len(),
        totals.len(),
        "one PhaseTotals per timeline"
    );
    for (tl, t) in timelines.iter().zip(totals) {
        reconcile(tl, t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRec;

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
    fn balanced_books_reconcile() {
        let tl = RankTimeline {
            rank: 0,
            spans: vec![
                span(Phase::Encode, 0.0, 0.125),
                span(Phase::Send, 0.125, 0.25),
                span(Phase::Wait, 0.375, 0.5),
                span(Phase::Over, 0.875, 0.125),
                span(Phase::Flush, 1.0, 0.25),
            ],
        };
        let totals = PhaseTotals {
            finish: 1.25,
            send: 0.25,
            wait: 0.5,
            backoff: 0.0,
            over: 0.375, // over + flush share the account
            codec: 0.125,
            render: 0.0,
            recv_overhead: 0.0,
        };
        assert_eq!(reconcile(&tl, &totals), Ok(()));
    }

    #[test]
    fn drifted_account_is_caught() {
        let tl = RankTimeline {
            rank: 3,
            spans: vec![span(Phase::Send, 0.0, 0.25)],
        };
        let totals = PhaseTotals {
            finish: 0.25,
            send: 0.25 + f64::EPSILON, // off by one ulp: still an error
            ..PhaseTotals::default()
        };
        let err = reconcile(&tl, &totals).unwrap_err();
        assert_eq!(err.rank, 3);
        assert_eq!(err.account, "send");
    }

    #[test]
    fn missing_span_breaks_finish() {
        // Accounts balance but a span is missing from the chronology.
        let tl = RankTimeline {
            rank: 1,
            spans: vec![span(Phase::Send, 0.0, 0.5)],
        };
        let totals = PhaseTotals {
            finish: 1.0,
            send: 0.5,
            ..PhaseTotals::default()
        };
        let err = reconcile(&tl, &totals).unwrap_err();
        assert_eq!(err.account, "finish");
    }
}
