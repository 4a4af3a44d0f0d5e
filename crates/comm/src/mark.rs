//! The mark vocabulary: the named phase boundaries ranks record into their
//! traces, and the attribution cursor both clocks drive from them.
//!
//! The trace stores the [`Mark`] itself ([`crate::Event::Mark`]); its label
//! is what it prints, serialises as and parses from. The vocabulary is
//! closed: the labels below are the only ones, each in one spelling.
//!
//! | label            | variant                | emitted by |
//! |------------------|------------------------|------------|
//! | `compose:start`  | [`Mark::ComposeStart`] | every executor, first thing |
//! | `step:K`         | [`Mark::Step`]         | schedule step `K`; the tile families' single round is `step:0` |
//! | `flush:start`    | [`Mark::FlushStart`]   | at each flush point (after a step the schedule flags, and after the last step), before deferred-back accumulators merge |
//! | `compose:end`    | [`Mark::ComposeEnd`]   | composition done, failure handling and gather still ahead |
//! | `compose:crashed`| [`Mark::ComposeCrashed`]| a rank fail-stopping at its planned crash step |
//! | `repair:start`, `repair:end` | [`Mark::RepairStart`], [`Mark::RepairEnd`] | around the failure-agreement round and the repair it triggers |
//! | `gather:end`     | [`Mark::GatherEnd`]    | root or wall gather done |
//! | `render:start`, `render:end` | [`Mark::RenderStart`], [`Mark::RenderEnd`] | the pipeline, around the render charge |
//! | `warp:end`       | [`Mark::WarpEnd`]      | the frame holder, after the final warp |
//! | `frame:K:start`, `frame:K:end` | [`Mark::FrameStart`], [`Mark::FrameEnd`] | the stream, around frame `K` |
//!
//! **Span attribution.** Wall-clock spans ([`crate::RankCtx::obs_span`])
//! and virtual-clock spans ([`crate::replay_timeline`]) are attributed to a
//! step and a frame by the same [`Cursor`], advanced by the same marks, so
//! the two timelines of one run line up: `step:K` opens step `K`,
//! `flush:start` routes the `over` work that follows to the flush phase,
//! `compose:start`/`compose:end` close both, and `frame:K:start`/`:end`
//! bracket frame `K`.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// A named phase boundary. See the [module docs](self) for the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mark {
    /// `compose:start`
    ComposeStart,
    /// `compose:end`
    ComposeEnd,
    /// `compose:crashed`
    ComposeCrashed,
    /// `step:K`
    Step(u32),
    /// `flush:start`
    FlushStart,
    /// `repair:start`
    RepairStart,
    /// `repair:end`
    RepairEnd,
    /// `gather:end`
    GatherEnd,
    /// `render:start`
    RenderStart,
    /// `render:end`
    RenderEnd,
    /// `warp:end`
    WarpEnd,
    /// `frame:K:start`
    FrameStart(u32),
    /// `frame:K:end`
    FrameEnd(u32),
}

/// The marks whose label is one fixed string.
const FIXED: [(Mark, &str); 10] = [
    (Mark::ComposeStart, "compose:start"),
    (Mark::ComposeEnd, "compose:end"),
    (Mark::ComposeCrashed, "compose:crashed"),
    (Mark::FlushStart, "flush:start"),
    (Mark::RepairStart, "repair:start"),
    (Mark::RepairEnd, "repair:end"),
    (Mark::GatherEnd, "gather:end"),
    (Mark::RenderStart, "render:start"),
    (Mark::RenderEnd, "render:end"),
    (Mark::WarpEnd, "warp:end"),
];

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mark::Step(k) => write!(f, "step:{k}"),
            Mark::FrameStart(k) => write!(f, "frame:{k}:start"),
            Mark::FrameEnd(k) => write!(f, "frame:{k}:end"),
            fixed => match FIXED.iter().find(|(mark, _)| mark == fixed) {
                Some((_, label)) => f.write_str(label),
                None => unreachable!("{fixed:?} has no fixed label"),
            },
        }
    }
}

/// The one label parser: a label of the vocabulary in its canonical
/// spelling — the one `Display` prints, so `step:07` or `step:+7` are
/// refused — or an error naming it.
impl FromStr for Mark {
    type Err = DeError;

    fn from_str(label: &str) -> Result<Mark, DeError> {
        let numbered = |prefix: &str, suffix: &str, mark: fn(u32) -> Mark| {
            let k = label.strip_prefix(prefix)?.strip_suffix(suffix)?;
            let canonical = k == "0" || !k.starts_with(['0', '+']);
            k.parse().ok().filter(|_| canonical).map(mark)
        };
        FIXED
            .iter()
            .find(|(_, fixed)| *fixed == label)
            .map(|(mark, _)| *mark)
            .or_else(|| numbered("step:", "", Mark::Step))
            .or_else(|| numbered("frame:", ":start", Mark::FrameStart))
            .or_else(|| numbered("frame:", ":end", Mark::FrameEnd))
            .ok_or_else(|| DeError(format!("unknown mark label `{label}`")))
    }
}

/// A mark serialises as its label, so a trace's JSON names its marks.
impl Serialize for Mark {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// A peer's trace is parsed, not trusted: a label outside the vocabulary is
/// refused.
impl Deserialize for Mark {
    fn deserialize(v: &Value) -> Result<Mark, DeError> {
        String::deserialize(v)?.parse()
    }
}

/// Where a rank is in its frame, as far as span attribution cares: the
/// one piece of state [`crate::RankCtx::mark`] (wall clock) and the replay
/// (virtual clock) both advance, mark by mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    /// The composition step most recently opened by a `step:K` mark.
    pub step: Option<u32>,
    /// The stream frame opened by `frame:K:start` and not yet closed.
    pub frame: Option<u32>,
    /// Whether `flush:start` has passed since the last step: `over` work
    /// from here on is the flush of deferred accumulators.
    pub in_flush: bool,
}

impl Cursor {
    /// Move past `mark`.
    pub fn advance(&mut self, mark: Mark) {
        match mark {
            Mark::Step(k) => {
                self.step = Some(k);
                self.in_flush = false;
            }
            Mark::FlushStart => self.in_flush = true,
            Mark::ComposeStart | Mark::ComposeEnd => {
                self.step = None;
                self.in_flush = false;
            }
            Mark::FrameStart(k) => self.frame = Some(k),
            Mark::FrameEnd(_) => self.frame = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_through_its_label() {
        let mut marks: Vec<Mark> = FIXED.iter().map(|(mark, _)| *mark).collect();
        for k in [0, 1, 7, 255, u32::MAX] {
            marks.extend([Mark::Step(k), Mark::FrameStart(k), Mark::FrameEnd(k)]);
        }
        for mark in marks {
            let label = mark.to_string();
            assert!(!label.is_empty(), "{mark:?}");
            assert_eq!(label.parse(), Ok(mark), "{label}");
        }
    }

    #[test]
    fn the_cursor_follows_a_streamed_frame() {
        let mut cursor = Cursor::default();
        let mut walk = |mark: Mark| {
            cursor.advance(mark);
            cursor
        };
        assert_eq!(walk(Mark::FrameStart(4)).frame, Some(4));
        assert_eq!(walk(Mark::RenderStart), walk(Mark::RenderEnd));
        assert_eq!(walk(Mark::ComposeStart).step, None);
        assert_eq!(walk(Mark::Step(0)).step, Some(0));
        assert_eq!(walk(Mark::Step(1)).step, Some(1));
        // The flush keeps the last step and flags the phase; a repair
        // moves nothing.
        let flushing = walk(Mark::FlushStart);
        assert_eq!((flushing.step, flushing.in_flush), (Some(1), true));
        assert_eq!(walk(Mark::RepairStart), flushing);
        let done = walk(Mark::ComposeEnd);
        assert_eq!(
            (done.step, done.in_flush, done.frame),
            (None, false, Some(4))
        );
        assert_eq!(walk(Mark::GatherEnd), done);
        assert_eq!(walk(Mark::FrameEnd(4)), Cursor::default());
    }
}
