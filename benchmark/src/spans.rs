//! Spans the benchmark records around its calls into the layers, kept in
//! memory until the traced pass ends and then written as a Chrome trace
//! (`trace_<workload>.json`, opens in Perfetto or `chrome://tracing`).
//!
//! A span is `(name, start, end, parent, frame)` on a track (a rank thread
//! or the driver). A layer's *self time* is its span minus the part its
//! child spans cover.

use crate::json::obj;
use rt_obs::RankTimeline;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Track of the driver thread (rank tracks are `0..P`).
pub const DRIVER_TRACK: u32 = 1000;

/// One recorded span. Times are seconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `render.slab` or `core.phase.over`.
    pub name: String,
    /// Track (thread) the span ran on.
    pub track: u32,
    /// Frame the span belongs to; spans of one frame share it.
    pub frame: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Start, seconds since origin.
    pub start: f64,
    /// End, seconds since origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span store.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Append a span; returns its index for use as a `parent`.
    pub fn push(
        &mut self,
        name: &str,
        track: u32,
        frame: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            track,
            frame,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`SpanLog::finish`] closes it. Returns its index,
    /// so children recorded meanwhile can name it as their parent.
    pub fn begin(&mut self, name: &str, track: u32, frame: u64, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.push(name, track, frame, parent, now, now)
    }

    /// Close the span `id` now.
    pub fn finish(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Run `f` as a span on `track`.
    pub fn time<T>(
        &mut self,
        name: &str,
        track: u32,
        frame: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, track, frame, parent);
        let out = f();
        self.finish(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adopt a rank's observer timeline (the program's own phase spans) as
    /// `core.phase.<phase>` spans. `frames` are the indices of this rank's
    /// already pushed per-frame spans, in time order; each phase span hangs
    /// under the frame span, or the enclosing phase span, that contains it.
    /// Phase spans outside every frame span (warm-up) are dropped.
    ///
    /// The observer must share this log's origin.
    pub fn adopt_timeline(&mut self, timeline: &RankTimeline, frames: &[usize]) {
        let mut order: Vec<_> = timeline.spans.iter().collect();
        // Parents first: earlier start, and the longer span on a tie.
        order.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.dur.total_cmp(&a.dur)));
        let mut frame_iter = frames.iter().copied().peekable();
        let mut open: Vec<usize> = Vec::new();
        for rec in order {
            while frame_iter
                .peek()
                .is_some_and(|&f| self.spans[f].end <= rec.start)
            {
                frame_iter.next();
                open.clear();
            }
            let Some(&frame_span) = frame_iter.peek() else {
                break;
            };
            if rec.start < self.spans[frame_span].start {
                continue;
            }
            while open.last().is_some_and(|&o| self.spans[o].end <= rec.start) {
                open.pop();
            }
            let parent = open.last().copied().unwrap_or(frame_span);
            let id = self.push(
                &format!("core.phase.{}", rec.phase.name()),
                timeline.rank as u32,
                self.spans[frame_span].frame,
                Some(parent),
                rec.start,
                rec.end(),
            );
            open.push(id);
        }
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.dur();
            }
        }
        own
    }

    /// Total self time per span name, seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.name.clone()).or_insert(0.0) += own;
        }
        totals
    }

    /// Durations of every span called `name`, seconds, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// The log as a Chrome-trace document: one `ph:"X"` event per span with
    /// `args = {id, parent, frame}`, tracks as threads of one process.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let s = |text: &str| Value::Str(text.to_string());
        let mut events = vec![obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", s(workload))])),
        ])];
        let mut tracks: Vec<u32> = self.spans.iter().map(|sp| sp.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let label = if track == DRIVER_TRACK {
                "driver".to_string()
            } else {
                format!("rank {track}")
            };
            events.push(obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(u64::from(track))),
                ("args", obj(vec![("name", s(&label))])),
            ]));
        }
        for (id, span) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id", Value::U64(id as u64)),
                ("frame", Value::U64(span.frame)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent", Value::U64(parent as u64)));
            }
            events.push(obj(vec![
                ("name", s(&span.name)),
                ("cat", s(span.name.split('.').next().unwrap_or("span"))),
                ("ph", s("X")),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(u64::from(span.track))),
                ("ts", Value::F64(span.start * 1e6)),
                ("dur", Value::F64(span.dur() * 1e6)),
                ("args", obj(args)),
            ]));
        }
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", s("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_obs::{Phase, SpanRec};

    fn rec(phase: Phase, start: f64, dur: f64) -> SpanRec {
        SpanRec {
            phase,
            step: None,
            frame: None,
            start,
            dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new(Instant::now());
        let frame = log.push("frame", DRIVER_TRACK, 0, None, 0.0, 10.0);
        let compose = log.push("core.compose", DRIVER_TRACK, 0, Some(frame), 1.0, 7.0);
        log.push("render.warp", DRIVER_TRACK, 0, Some(frame), 7.0, 9.0);
        log.push("core.phase.over", 0, 0, Some(compose), 2.0, 4.0);
        assert_eq!(log.self_times(), vec![2.0, 4.0, 2.0, 2.0]);
        let by_name = log.self_time_by_name();
        assert_eq!(by_name["frame"], 2.0);
        assert_eq!(by_name["core.compose"], 4.0);
    }

    #[test]
    fn timelines_nest_under_frames_and_enclosing_phases() {
        let mut log = SpanLog::new(Instant::now());
        let f0 = log.push("core.compose_plan", 2, 20, None, 1.0, 2.0);
        let f1 = log.push("core.compose_plan", 2, 21, None, 2.5, 4.0);
        let timeline = RankTimeline {
            rank: 2,
            spans: vec![
                rec(Phase::Send, 0.5, 0.1),   // warm-up: before every frame
                rec(Phase::Wait, 1.2, 0.3),   // nested in the recv below
                rec(Phase::Recv, 1.1, 0.5),   // frame 20
                rec(Phase::Over, 1.7, 0.2),   // frame 20
                rec(Phase::Encode, 2.2, 0.1), // between frames
                rec(Phase::Flush, 3.0, 0.5),  // frame 21
            ],
        };
        log.adopt_timeline(&timeline, &[f0, f1]);
        let spans = log.spans();
        assert_eq!(spans.len(), 6);
        let by = |name: &str| spans.iter().position(|s| s.name == name).unwrap();
        let recv = by("core.phase.recv");
        assert_eq!(spans[recv].parent, Some(f0));
        assert_eq!(spans[by("core.phase.wait")].parent, Some(recv));
        assert_eq!(spans[by("core.phase.over")].parent, Some(f0));
        assert_eq!(spans[by("core.phase.flush")].parent, Some(f1));
        assert_eq!(spans[by("core.phase.flush")].frame, 21);
        let own = log.self_time_by_name();
        assert!((own["core.phase.recv"] - 0.2).abs() < 1e-12);
        assert!((own["core.phase.wait"] - 0.3).abs() < 1e-12);
        // frame 20 = 1.0 s minus recv 0.5 and over 0.2; frame 21 = 1.5 - 0.5.
        assert!((own["core.compose_plan"] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut log = SpanLog::new(Instant::now());
        let frame = log.begin("frame", DRIVER_TRACK, 3, None);
        assert_eq!(log.time("render.slab", 1, 3, Some(frame), || 7), 7);
        log.finish(frame);
        let spans = log.spans();
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let doc = log.to_chrome_trace("unit");
        // 1 process + 2 thread names + 2 spans.
        assert_eq!(rt_obs::validate_chrome_trace(&doc), Ok(5));
    }
}
