//! Monotonic event counters collected alongside the phase spans.

use serde::{Deserialize, Serialize};

/// Per-rank monotonic counters.
///
/// Counters are plain `u64` tallies with no timing attached — they capture
/// *how often* the interesting paths fired (retransmits, corrupt
/// envelopes, pool hits, codec fast paths) while the spans capture *how
/// long* things took. Merging two counter sets is plain field-wise
/// addition, so counters from repeated runs accumulate.
///
/// ```
/// use rt_obs::Counters;
///
/// let mut a = Counters::default();
/// a.sends = 3;
/// a.add_wire_bytes("rle", 100);
/// let mut b = Counters::default();
/// b.sends = 2;
/// b.add_wire_bytes("rle", 50);
/// b.add_wire_bytes("raw", 7);
/// a += b;
/// assert_eq!(a.sends, 5);
/// assert_eq!(a.wire_bytes_for("rle"), 150);
/// assert_eq!(a.wire_bytes_for("raw"), 7);
/// assert_eq!(a.wire_bytes_for("trle"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// First-attempt message pushes.
    pub sends: u64,
    /// Retransmission attempts (beyond the first push).
    pub retransmits: u64,
    /// Ack windows that expired and forced another attempt.
    pub ack_timeouts: u64,
    /// Envelopes rejected by the payload checksum, word-wise FNV-1a in eight
    /// lanes (corruption).
    pub checksum_rejects: u64,
    /// Messages received (after checksum acceptance).
    pub recvs: u64,
    /// Payload bytes pushed, counting every attempt.
    pub bytes_sent: u64,
    /// Payload bytes accepted by `recv`.
    pub bytes_received: u64,
    /// Scratch-pool accumulator reuses (a pooled buffer was available).
    pub pool_hits: u64,
    /// Scratch-pool misses (a fresh accumulator had to be allocated).
    pub pool_misses: u64,
    /// Blank source pixels skipped (or identity-merged) by `decode_over`.
    pub blank_skipped: u64,
    /// Merges the fused kernels saw decided by an opaque front pixel
    /// (`OverStats::opaque_fast`).
    pub opaque_fast: u64,
    /// Non-blank source pixels actually merged by `decode_over`.
    pub non_blank_merged: u64,
    /// Tiles scanned for blankness by the tile-ownership path.
    pub tiles_scanned: u64,
    /// Scanned tiles found fully blank (and therefore never shipped).
    pub tiles_blank: u64,
    /// Non-blank tile payloads sent to remote owner ranks.
    pub tiles_sent: u64,
    /// Tile payloads received and composited by owner ranks.
    pub tiles_recv: u64,
    /// Puzzle tiles resolved by exact interval placement (solo or
    /// depth-disjoint contributors — no `over` work at all).
    pub tiles_placed: u64,
    /// Puzzle tiles merged approximately (nearest-wins placement inside
    /// the declared overlap budget).
    pub tiles_approx: u64,
    /// Puzzle tiles whose overlap exceeded the budget and fell back to
    /// the exact depth-ordered fold.
    pub tiles_exact_fallback: u64,
    /// Wire bytes sent per codec name, as an ordered `(codec, bytes)` list.
    ///
    /// A list instead of a map so the derived serde impls apply; entries
    /// are unique by codec name and sorted by insertion order.
    pub wire_bytes: Vec<(String, u64)>,
}

impl Counters {
    /// Add `bytes` to the per-codec wire tally for `codec`.
    pub fn add_wire_bytes(&mut self, codec: &str, bytes: u64) {
        if let Some(entry) = self.wire_bytes.iter_mut().find(|(k, _)| k == codec) {
            entry.1 += bytes;
        } else {
            self.wire_bytes.push((codec.to_string(), bytes));
        }
    }

    /// Wire bytes recorded for `codec` (0 if never seen).
    pub fn wire_bytes_for(&self, codec: &str) -> u64 {
        self.wire_bytes
            .iter()
            .find(|(k, _)| k == codec)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Field-wise merge of another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.sends += other.sends;
        self.retransmits += other.retransmits;
        self.ack_timeouts += other.ack_timeouts;
        self.checksum_rejects += other.checksum_rejects;
        self.recvs += other.recvs;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.blank_skipped += other.blank_skipped;
        self.opaque_fast += other.opaque_fast;
        self.non_blank_merged += other.non_blank_merged;
        self.tiles_scanned += other.tiles_scanned;
        self.tiles_blank += other.tiles_blank;
        self.tiles_sent += other.tiles_sent;
        self.tiles_recv += other.tiles_recv;
        self.tiles_placed += other.tiles_placed;
        self.tiles_approx += other.tiles_approx;
        self.tiles_exact_fallback += other.tiles_exact_fallback;
        for (codec, bytes) in &other.wire_bytes {
            self.add_wire_bytes(codec, *bytes);
        }
    }
}

impl std::ops::AddAssign<Counters> for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        self.merge(&rhs);
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        self.merge(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = Counters {
            sends: 1,
            retransmits: 2,
            ack_timeouts: 3,
            checksum_rejects: 4,
            recvs: 5,
            bytes_sent: 6,
            bytes_received: 7,
            pool_hits: 8,
            pool_misses: 9,
            blank_skipped: 10,
            opaque_fast: 11,
            non_blank_merged: 12,
            tiles_scanned: 17,
            tiles_blank: 18,
            tiles_sent: 19,
            tiles_recv: 20,
            tiles_placed: 21,
            tiles_approx: 22,
            tiles_exact_fallback: 23,
            wire_bytes: vec![("raw".into(), 100)],
        };
        let b = a.clone();
        a += &b;
        assert_eq!(a.sends, 2);
        assert_eq!(a.retransmits, 4);
        assert_eq!(a.ack_timeouts, 6);
        assert_eq!(a.checksum_rejects, 8);
        assert_eq!(a.recvs, 10);
        assert_eq!(a.bytes_sent, 12);
        assert_eq!(a.bytes_received, 14);
        assert_eq!(a.pool_hits, 16);
        assert_eq!(a.pool_misses, 18);
        assert_eq!(a.blank_skipped, 20);
        assert_eq!(a.opaque_fast, 22);
        assert_eq!(a.non_blank_merged, 24);
        assert_eq!(a.tiles_scanned, 34);
        assert_eq!(a.tiles_blank, 36);
        assert_eq!(a.tiles_sent, 38);
        assert_eq!(a.tiles_recv, 40);
        assert_eq!(a.tiles_placed, 42);
        assert_eq!(a.tiles_approx, 44);
        assert_eq!(a.tiles_exact_fallback, 46);
        assert_eq!(a.wire_bytes_for("raw"), 200);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Counters {
            sends: 42,
            ..Counters::default()
        };
        a.add_wire_bytes("trle", 9);
        let before = a.clone();
        a += Counters::default();
        assert_eq!(a, before);
    }

    #[test]
    fn wire_bytes_keeps_codecs_separate() {
        let mut c = Counters::default();
        c.add_wire_bytes("rle", 10);
        c.add_wire_bytes("trle", 20);
        c.add_wire_bytes("rle", 5);
        assert_eq!(c.wire_bytes_for("rle"), 15);
        assert_eq!(c.wire_bytes_for("trle"), 20);
        assert_eq!(c.wire_bytes.len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = Counters {
            sends: 7,
            ..Counters::default()
        };
        c.add_wire_bytes("raw", 1 << 40);
        let text = serde_json::to_string(&c).unwrap();
        let back: Counters = serde_json::from_str(&text).unwrap();
        assert_eq!(back, c);
    }
}
