//! Wall-clock recording: per-rank [`Recorder`]s handed out by a shared
//! [`Observer`].
//!
//! The design keeps the hot path free of synchronization: each rank owns
//! its `Recorder` outright (no `Arc`, no lock) and only the final
//! [`Observer::checkin`] touches the shared state. An execution layer that
//! is not being observed holds `None` instead of a recorder, so the entire
//! instrumentation collapses to an `is_some()` branch.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::counters::Counters;
use crate::phase::Phase;
use crate::span::{RankTimeline, SpanRec};

/// Owned, lock-free wall-clock recorder for one rank.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    origin: Instant,
    spans: Vec<SpanRec>,
    counters: Counters,
}

impl Recorder {
    /// New recorder for `rank` whose timestamps are seconds since `origin`.
    pub fn new(rank: usize, origin: Instant) -> Self {
        Recorder {
            rank,
            origin,
            spans: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Seconds elapsed since the shared origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a span that began at `started` and ends now.
    ///
    /// `frame` scopes the span to a streaming frame; single-frame runs pass
    /// `None` and nothing changes for them.
    pub fn record_span(
        &mut self,
        phase: Phase,
        step: Option<u32>,
        frame: Option<u32>,
        started: Instant,
    ) {
        let start = started.duration_since(self.origin).as_secs_f64();
        let dur = started.elapsed().as_secs_f64();
        self.spans.push(SpanRec {
            phase,
            step,
            frame,
            start,
            dur,
        });
    }

    /// Mutable access to this rank's counters.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Consume the recorder, yielding its timeline and counters.
    pub fn into_parts(self) -> (RankTimeline, Counters) {
        (
            RankTimeline {
                rank: self.rank,
                spans: self.spans,
            },
            self.counters,
        )
    }
}

/// Shared collection point for the recorders of one observed run.
///
/// `Observer` hands out [`Recorder`]s sharing a common time origin and
/// merges them back on [`checkin`](Observer::checkin). Checking in two
/// recorders for the same rank (e.g. across benchmark repetitions)
/// **accumulates**: spans append, counters add.
#[derive(Debug)]
pub struct Observer {
    origin: Instant,
    slots: Mutex<BTreeMap<usize, (Vec<SpanRec>, Counters)>>,
}

impl Observer {
    /// New observer; its creation instant becomes the timeline origin.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Observer {
            origin: Instant::now(),
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared wall-clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A fresh recorder for `rank` sharing this observer's origin.
    pub fn recorder(&self, rank: usize) -> Recorder {
        Recorder::new(rank, self.origin)
    }

    /// Merge a finished recorder back in (append spans, add counters).
    pub fn checkin(&self, rec: Recorder) {
        let (timeline, counters) = rec.into_parts();
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = slots.entry(timeline.rank).or_default();
        slot.0.extend(timeline.spans);
        slot.1.merge(&counters);
    }

    /// Wall-clock timelines checked in so far, sorted by rank.
    pub fn timelines(&self) -> Vec<RankTimeline> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .map(|(&rank, (spans, _))| RankTimeline {
                rank,
                spans: spans.clone(),
            })
            .collect()
    }

    /// Counters checked in so far, sorted by rank.
    pub fn counters(&self) -> Vec<(usize, Counters)> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .map(|(&rank, (_, counters))| (rank, counters.clone()))
            .collect()
    }

    /// Counters summed across all ranks.
    pub fn counters_total(&self) -> Counters {
        let mut total = Counters::default();
        for (_, c) in self.counters() {
            total.merge(&c);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkin_accumulates_per_rank() {
        let obs = Observer::new();
        let mut r0 = obs.recorder(0);
        let t = Instant::now();
        r0.record_span(Phase::Send, Some(1), None, t);
        r0.counters_mut().sends = 2;
        obs.checkin(r0);

        let mut r0b = obs.recorder(0);
        r0b.record_span(Phase::Over, None, None, Instant::now());
        r0b.counters_mut().sends = 3;
        obs.checkin(r0b);

        let mut r3 = obs.recorder(3);
        r3.record_span(Phase::Wait, Some(0), Some(2), Instant::now());
        obs.checkin(r3);

        let timelines = obs.timelines();
        assert_eq!(timelines.len(), 2);
        assert_eq!(timelines[0].rank, 0);
        assert_eq!(timelines[0].spans.len(), 2);
        assert_eq!(timelines[0].spans[0].phase, Phase::Send);
        assert_eq!(timelines[0].spans[0].step, Some(1));
        assert_eq!(timelines[1].rank, 3);

        let counters = obs.counters();
        assert_eq!(counters[0].1.sends, 5);
        assert_eq!(obs.counters_total().sends, 5);
    }

    #[test]
    fn spans_measure_nonnegative_time_from_shared_origin() {
        let obs = Observer::new();
        let mut rec = obs.recorder(1);
        let started = Instant::now();
        rec.record_span(Phase::Encode, None, None, started);
        let (tl, _) = rec.into_parts();
        assert!(tl.spans[0].start >= 0.0);
        assert!(tl.spans[0].dur >= 0.0);
        assert!(tl.check_nesting(1e-9).is_ok());
    }
}
