//! Chrome-trace (Perfetto / `chrome://tracing`) JSON export.
//!
//! Emits the classic `{"traceEvents": [...]}` object-format trace:
//!
//! * `ph:"X"` complete events for spans (`ts`/`dur` in microseconds),
//! * `ph:"M"` metadata events naming processes and threads,
//! * `ph:"i"` instant events carrying the per-rank [`Counters`] as args.
//!
//! Virtual-clock and wall-clock timelines are exported as two separate
//! *processes* (pids) whose *threads* (tids) are the ranks, so a single
//! file shows both clocks side by side in Perfetto.

use serde::{Serialize, Value};

use crate::counters::Counters;
use crate::span::RankTimeline;

/// Process id used for virtual-clock (replay) timelines.
pub const PID_VIRTUAL: u64 = 1;
/// Process id used for wall-clock timelines.
pub const PID_WALL: u64 = 2;

/// Builder for a Chrome-trace JSON document.
///
/// ```
/// use rt_obs::{ChromeTrace, Phase, RankTimeline, SpanRec};
///
/// let mut trace = ChromeTrace::new();
/// trace.meta_process(rt_obs::chrome::PID_VIRTUAL, "virtual clock");
/// let tl = RankTimeline {
///     rank: 0,
///     spans: vec![SpanRec { phase: Phase::Send, step: Some(0), frame: None, start: 0.0, dur: 1e-3 }],
/// };
/// trace.add_timeline(rt_obs::chrome::PID_VIRTUAL, &tl);
/// let json = trace.to_json();
/// let value = serde_json::parse_value_str(&json).unwrap();
/// assert!(rt_obs::validate_chrome_trace(&value).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Value>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name a process (one of the two clocks) via a `ph:"M"` event.
    pub fn meta_process(&mut self, pid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", Value::Str(name.into()))])),
        ]));
    }

    /// Name a thread (a rank) inside a process via a `ph:"M"` event.
    pub fn meta_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", obj(vec![("name", Value::Str(name.into()))])),
        ]));
    }

    /// Add every span of `timeline` as `ph:"X"` complete events under
    /// process `pid`, thread = rank. Span times (seconds) become `ts`/`dur`
    /// microseconds as Chrome trace requires.
    pub fn add_timeline(&mut self, pid: u64, timeline: &RankTimeline) {
        self.meta_thread(
            pid,
            timeline.rank as u64,
            &format!("rank {}", timeline.rank),
        );
        for span in &timeline.spans {
            let mut args = Vec::new();
            if let Some(step) = span.step {
                args.push(("step", Value::U64(step as u64)));
            }
            if let Some(frame) = span.frame {
                args.push(("frame", Value::U64(frame as u64)));
            }
            self.events.push(obj(vec![
                ("name", Value::Str(span.phase.name().into())),
                ("cat", Value::Str("phase".into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(timeline.rank as u64)),
                ("ts", Value::F64(span.start * 1e6)),
                ("dur", Value::F64(span.dur * 1e6)),
                ("args", obj(args)),
            ]));
        }
    }

    /// Attach a rank's [`Counters`] as a `ph:"i"` instant event at `ts_s`
    /// seconds (thread-scoped, args = the serialized counters).
    pub fn add_counters(&mut self, pid: u64, rank: usize, ts_s: f64, counters: &Counters) {
        self.events.push(obj(vec![
            ("name", Value::Str("counters".into())),
            ("cat", Value::Str("counters".into())),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(rank as u64)),
            ("ts", Value::F64(ts_s * 1e6)),
            ("args", counters.serialize()),
        ]));
    }

    /// The `{"traceEvents": [...], "displayTimeUnit": "ms"}` value tree.
    pub fn into_value(self) -> Value {
        obj(vec![
            ("traceEvents", Value::Array(self.events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ])
    }

    /// Render to pretty-printed JSON text.
    pub fn to_json(&self) -> String {
        let v = ChromeTrace {
            events: self.events.clone(),
        }
        .into_value();
        format!("{v:#}")
    }

    /// Number of events accumulated so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Validate that `v` is a well-formed Chrome-trace document: a top-level
/// object with a `traceEvents` array whose entries all carry the required
/// `ph`/`pid`/`tid` fields, with `ts` and non-negative `dur` on `"X"`
/// events and a `ts` on `"i"` events.
///
/// Returns the number of events on success.
pub fn validate_chrome_trace(v: &Value) -> Result<usize, String> {
    let events = match v.get("traceEvents") {
        Some(Value::Array(events)) => events,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(format!("event {i}: missing string `ph`")),
        };
        for key in ["pid", "tid"] {
            match ev.get(key) {
                Some(Value::U64(_)) | Some(Value::I64(_)) => {}
                _ => return Err(format!("event {i}: missing integer `{key}`")),
            }
        }
        let num = |key: &str| -> Option<f64> {
            match ev.get(key) {
                Some(Value::F64(x)) => Some(*x),
                Some(Value::U64(n)) => Some(*n as f64),
                Some(Value::I64(n)) => Some(*n as f64),
                _ => None,
            }
        };
        match ph {
            "X" => {
                if num("ts").is_none() {
                    return Err(format!("event {i}: X event without numeric `ts`"));
                }
                match num("dur") {
                    Some(d) if d >= 0.0 => {}
                    Some(_) => return Err(format!("event {i}: negative `dur`")),
                    None => return Err(format!("event {i}: X event without numeric `dur`")),
                }
            }
            "i" => {
                if num("ts").is_none() {
                    return Err(format!("event {i}: instant event without numeric `ts`"));
                }
            }
            "M" => {
                if ev.get("name").is_none() {
                    return Err(format!("event {i}: metadata event without `name`"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::span::SpanRec;

    fn sample_timeline() -> RankTimeline {
        RankTimeline {
            rank: 2,
            spans: vec![
                SpanRec {
                    phase: Phase::Encode,
                    step: Some(0),
                    frame: None,
                    start: 0.0,
                    dur: 0.001,
                },
                SpanRec {
                    phase: Phase::Send,
                    step: Some(0),
                    frame: None,
                    start: 0.001,
                    dur: 0.002,
                },
            ],
        }
    }

    #[test]
    fn export_roundtrips_and_validates() {
        let mut trace = ChromeTrace::new();
        trace.meta_process(PID_VIRTUAL, "virtual clock");
        trace.meta_process(PID_WALL, "wall clock");
        trace.add_timeline(PID_VIRTUAL, &sample_timeline());
        let mut counters = Counters {
            sends: 4,
            ..Counters::default()
        };
        counters.add_wire_bytes("rle", 99);
        trace.add_counters(PID_VIRTUAL, 2, 0.003, &counters);

        let json = trace.to_json();
        let value = serde_json::parse_value_str(&json).unwrap();
        let n = validate_chrome_trace(&value).unwrap();
        // 2 process metas + 1 thread meta + 2 spans + 1 instant.
        assert_eq!(n, 6);

        // Spot-check one span: ts/dur in microseconds.
        let events = match value.get("traceEvents").unwrap() {
            Value::Array(e) => e,
            _ => unreachable!(),
        };
        let send = events
            .iter()
            .find(|e| e.get("name") == Some(&Value::Str("send".into())))
            .unwrap();
        // Integral floats may come back as integers from the JSON parser;
        // compare numerically.
        let as_f64 = |v: &Value| match v {
            Value::F64(x) => *x,
            Value::U64(n) => *n as f64,
            Value::I64(n) => *n as f64,
            other => panic!("not a number: {other:?}"),
        };
        assert_eq!(send.get("ph"), Some(&Value::Str("X".into())));
        assert_eq!(as_f64(send.get("ts").unwrap()), 1e3);
        assert_eq!(as_f64(send.get("dur").unwrap()), 2e3);
        assert_eq!(send.get("args").unwrap().get("step"), Some(&Value::U64(0)));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace(&Value::Null).is_err());
        assert!(validate_chrome_trace(&obj(vec![("traceEvents", Value::Bool(true))])).is_err());
        // X event without dur.
        let bad = obj(vec![(
            "traceEvents",
            Value::Array(vec![obj(vec![
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(0)),
                ("ts", Value::F64(0.0)),
            ])]),
        )]);
        assert!(validate_chrome_trace(&bad).is_err());
        // Unknown phase letter.
        let bad = obj(vec![(
            "traceEvents",
            Value::Array(vec![obj(vec![
                ("ph", Value::Str("Q".into())),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(0)),
            ])]),
        )]);
        assert!(validate_chrome_trace(&bad).is_err());
    }
}
