//! Monotonic event counters collected alongside the phase spans.

use serde::{Deserialize, Serialize};

/// Per-rank monotonic counters.
///
/// Counters are plain `u64` tallies with no timing attached — they capture
/// *how often* the scratch pool and the merge kernels' fast paths fired,
/// and how many bytes each codec put on the wire, while the spans capture
/// *how long* things took. Message counts are not here: the event trace
/// records every send, retransmission and receive. Merging two counter
/// sets is plain field-wise addition, so counters from repeated runs
/// accumulate.
///
/// ```
/// use rt_obs::Counters;
///
/// let mut a = Counters::default();
/// a.pool_hits = 3;
/// a.add_wire_bytes("rle", 100);
/// let mut b = Counters::default();
/// b.pool_hits = 2;
/// b.add_wire_bytes("rle", 50);
/// b.add_wire_bytes("raw", 7);
/// a += b;
/// assert_eq!(a.pool_hits, 5);
/// assert_eq!(a.wire_bytes_for("rle"), 150);
/// assert_eq!(a.wire_bytes_for("raw"), 7);
/// assert_eq!(a.wire_bytes_for("trle"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
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
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.blank_skipped += other.blank_skipped;
        self.opaque_fast += other.opaque_fast;
        self.non_blank_merged += other.non_blank_merged;
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
            pool_hits: 8,
            pool_misses: 9,
            blank_skipped: 10,
            opaque_fast: 11,
            non_blank_merged: 12,
            wire_bytes: vec![("raw".into(), 100)],
        };
        let b = a.clone();
        a += &b;
        assert_eq!(a.pool_hits, 16);
        assert_eq!(a.pool_misses, 18);
        assert_eq!(a.blank_skipped, 20);
        assert_eq!(a.opaque_fast, 22);
        assert_eq!(a.non_blank_merged, 24);
        assert_eq!(a.wire_bytes_for("raw"), 200);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Counters {
            pool_hits: 42,
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
            pool_misses: 7,
            ..Counters::default()
        };
        c.add_wire_bytes("raw", 1 << 40);
        let text = serde_json::to_string(&c).unwrap();
        let back: Counters = serde_json::from_str(&text).unwrap();
        assert_eq!(back, c);
    }
}
