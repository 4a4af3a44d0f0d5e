//! The phase vocabulary shared by wall-clock and virtual-clock spans.

/// What a rank was doing during a span.
///
/// The same vocabulary is used for wall-clock spans (recorded live by the
/// execution layer) and virtual-clock spans (derived from the event trace
/// by replay), so the two timelines line up side by side in a Chrome-trace
/// viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Rendering the local partial image (before composition).
    Render,
    /// Codec encode of an outgoing span.
    Encode,
    /// Pushing a message (including retransmissions).
    Send,
    /// Receiver-side per-message overhead (the cost model's `tr`; only
    /// present on the virtual clock, and only when `tr > 0`).
    Recv,
    /// Blocked waiting for a message or a barrier.
    Wait,
    /// Backoff windows of the reliable-delivery layer (virtual clock).
    Backoff,
    /// Codec decode of an incoming message that is copied, not merged:
    /// gather receives and puzzle placement, and the rest of a display
    /// rank's frame assembly (its blank cell and its own segments). (A step
    /// receive is one fused decode+merge kernel and reports as
    /// [`Phase::Over`].)
    Decode,
    /// `over`-compositing incoming pixels into the local frame, including
    /// writing a folded tile back into it.
    Over,
    /// Flushing deferred back accumulators after the last step.
    Flush,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::Render,
        Phase::Encode,
        Phase::Send,
        Phase::Recv,
        Phase::Wait,
        Phase::Backoff,
        Phase::Decode,
        Phase::Over,
        Phase::Flush,
    ];

    /// Lower-case display name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Render => "render",
            Phase::Encode => "encode",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Wait => "wait",
            Phase::Backoff => "backoff",
            Phase::Decode => "decode",
            Phase::Over => "over",
            Phase::Flush => "flush",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cover_all() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
        }
        assert_eq!(seen.len(), Phase::ALL.len());
    }
}
