//! The mark vocabulary: the named phase boundaries ranks record into their
//! traces, and the attribution cursor both clocks drive from them.
//!
//! A mark is stored in the trace as its label ([`crate::Event::Mark`]), so
//! traces stay plain data; [`Mark`] is the typed view of that label.
//! `Mark::from(label).to_string() == label` holds for **every** string: the
//! labels below parse to their variant, anything else (a test's `"after"`,
//! a non-canonical `"step:07"`) is carried verbatim in [`Mark::Other`].
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

use std::fmt;

/// A named phase boundary. See the [module docs](self) for the vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Any other label, verbatim.
    Other(String),
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
            Mark::Other(label) => f.write_str(label),
            fixed => match FIXED.iter().find(|(mark, _)| mark == fixed) {
                Some((_, label)) => f.write_str(label),
                None => unreachable!("{fixed:?} has no fixed label"),
            },
        }
    }
}

impl From<&str> for Mark {
    fn from(label: &str) -> Mark {
        if let Some((mark, _)) = FIXED.iter().find(|(_, fixed)| *fixed == label) {
            return mark.clone();
        }
        let numbered = if let Some(k) = label.strip_prefix("step:") {
            index(k).map(Mark::Step)
        } else if let Some(rest) = label.strip_prefix("frame:") {
            if let Some(k) = rest.strip_suffix(":start") {
                index(k).map(Mark::FrameStart)
            } else {
                rest.strip_suffix(":end")
                    .and_then(index)
                    .map(Mark::FrameEnd)
            }
        } else {
            None
        };
        numbered.unwrap_or_else(|| Mark::Other(label.to_owned()))
    }
}

/// A step or frame index in its canonical spelling only — the one
/// `Display` prints — so that `step:07` or `step:+7` stay verbatim labels.
fn index(digits: &str) -> Option<u32> {
    let canonical = digits.bytes().all(|b| b.is_ascii_digit())
        && (digits.len() == 1 || !digits.starts_with('0'));
    digits.parse().ok().filter(|_| canonical)
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
    pub fn advance(&mut self, mark: &Mark) {
        match mark {
            Mark::Step(k) => {
                self.step = Some(*k);
                self.in_flush = false;
            }
            Mark::FlushStart => self.in_flush = true,
            Mark::ComposeStart | Mark::ComposeEnd => {
                self.step = None;
                self.in_flush = false;
            }
            Mark::FrameStart(k) => self.frame = Some(*k),
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
        let mut marks: Vec<Mark> = FIXED.iter().map(|(mark, _)| mark.clone()).collect();
        for k in [0, 1, 7, 255, u32::MAX] {
            marks.extend([Mark::Step(k), Mark::FrameStart(k), Mark::FrameEnd(k)]);
        }
        for mark in marks {
            let label = mark.to_string();
            assert!(!label.is_empty(), "{mark:?}");
            assert_eq!(Mark::from(label.as_str()), mark, "{label}");
        }
    }

    #[test]
    fn unknown_and_non_canonical_labels_pass_through_untouched() {
        for label in [
            "",
            "after",
            "start",
            "step:",
            "step:x",
            "step:07",
            "step:+7",
            "step:4294967296",
            "frame:3",
            "frame:3:middle",
            "frame::start",
            "frame:03:end",
            "compose:started",
            "Compose:start",
        ] {
            let mark = Mark::from(label);
            assert_eq!(mark, Mark::Other(label.to_owned()), "{label}");
            assert_eq!(mark.to_string(), label);
        }
    }

    #[test]
    fn the_cursor_follows_a_streamed_frame() {
        let mut cursor = Cursor::default();
        let mut walk = |label: &str| {
            cursor.advance(&Mark::from(label));
            cursor
        };
        assert_eq!(walk("frame:4:start").frame, Some(4));
        assert_eq!(walk("render:start"), walk("render:end"));
        assert_eq!(walk("compose:start").step, None);
        assert_eq!(walk("step:0").step, Some(0));
        assert_eq!(walk("step:1").step, Some(1));
        // The flush keeps the last step and flags the phase; an unknown
        // label moves nothing.
        let flushing = walk("flush:start");
        assert_eq!((flushing.step, flushing.in_flush), (Some(1), true));
        assert_eq!(walk("somewhere"), flushing);
        let done = walk("compose:end");
        assert_eq!(
            (done.step, done.in_flush, done.frame),
            (None, false, Some(4))
        );
        assert_eq!(walk("gather:end"), done);
        assert_eq!(walk("frame:4:end"), Cursor::default());
    }
}
