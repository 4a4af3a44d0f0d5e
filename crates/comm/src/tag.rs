//! The 64-bit message-tag layout — the only file that knows it.
//!
//! Every message carries one `u64` tag and a receive matches on
//! `(source, tag)`, so two messages that may be in flight between the same
//! pair of ranks at once must never share a tag. That holds because every
//! tag in the workspace is built by a constructor of this module from the
//! table below; no other file shifts or masks a tag.
//!
//! | bits     | field        | contents |
//! |----------|--------------|----------|
//! | 63       | —            | reserved; nothing sets it |
//! | 62       | —            | unallocated |
//! | 61       | death        | [`DEATH`], the whole tag of a death notification |
//! | 60       | repair       | [`repair`]: reconstruction fetches of the schedule executor |
//! | 59       | liveness     | [`liveness`]: the failure-agreement round, low bits = round counter |
//! | 58       | control      | [`barrier`]: the round of `RankCtx::barrier`, low bits = barrier generation — an rt-comm message round that no transport interprets; with bit 57, the link-level frames [`PING`], [`PONG`] = `PING \| 1`, [`ACK`] = `PING \| 2`, which a transport's links exchange and consume below `recv_raw` |
//! | 48..58   | frame        | [`frame_base`]: frame index of a stream, modulo [`FRAME_WRAP`] |
//! | 40..48   | step         | [`step`]: schedule step index `0..256`; the tile families' sub-channels ([`TileChannel`], via [`tile`]) sit at `0x80..` |
//! | 0..40    | low          | per constructor, see below |
//!
//! The low field holds, by constructor:
//!
//! * [`step`] — the span start of a transfer, or a gather slot: the sending
//!   rank for the root gather, [`wall_slot`]`(cell, rank)` =
//!   `cell << 20 | rank` for the display-wall gather;
//! * [`repair`] — `entry << 16 | fetch`, the coordinates of one fetch in the
//!   repair plan;
//! * [`tile`] — the sending rank (a bundle: everything one rank contributes
//!   to one owner in a round) or a gather slot ([`TileChannel::Gather`]).
//!
//! Frame 0 has base `0`, so a single-frame run tags exactly as if the frame
//! field did not exist, and the control namespaces (bits 58–61) stay clear
//! of every algorithm tag, so reliability, retransmission, fault injection
//! and tracing treat all of them alike.
//!
//! **Widths.** A constructor only `debug_assert!`s that its arguments fit:
//! an executor checks the [`Extents`] of a whole compose call once, up
//! front, and reports a typed error naming the field before any message is
//! sent. Within one frame a schedule owns the whole step
//! field; the tile families never emit a schedule step, which is what keeps
//! `0x80..` free for their sub-channels.

const FRAME_SHIFT: u32 = 48;
const FRAME_BITS: u32 = 10;
const STEP_SHIFT: u32 = 40;
const WALL_CELL_SHIFT: u32 = 20;
const REPAIR_ENTRY_SHIFT: u32 = 16;
/// First step-field value of the tile sub-channels.
const TILE_STEP_BASE: u64 = 0x80;

const REPAIR: u64 = 1 << 60;
const LIVENESS: u64 = 1 << 59;
const NET_CONTROL: u64 = 1 << 58;
/// Within [`NET_CONTROL`]: keeps the link-level frames (heartbeat,
/// acknowledgement) clear of the barrier generation counters.
const HEARTBEAT: u64 = 1 << 57;

/// Tag of a death notification (the failure broadcast), payload = the step
/// at which the sender stopped.
pub const DEATH: u64 = 1 << 61;

/// Transport liveness probe; never surfaces above the link fabric.
pub const PING: u64 = NET_CONTROL | HEARTBEAT;

/// Reply to [`PING`].
pub const PONG: u64 = PING | 1;

/// Delivery acknowledgement of a link: its payload is how many frames the
/// sender of this frame has received on it ([`PING`] and [`PONG`] carry the
/// same count). Like them it is consumed inside the link fabric and never
/// logged, counted or surfaced.
pub const ACK: u64 = PING | 2;

/// Frame indices wrap at this many frames: a stream keeps a handful of
/// frames in flight, so two frames a whole wrap apart never coexist.
pub const FRAME_WRAP: u64 = 1 << FRAME_BITS;

/// Exclusive upper bounds of the bounded fields.
const STEP_LIMIT: u64 = 1 << (FRAME_SHIFT - STEP_SHIFT);
const LOW_LIMIT: u64 = 1 << STEP_SHIFT;
const WALL_CELL_LIMIT: u64 = 1 << (STEP_SHIFT - WALL_CELL_SHIFT);
const WALL_RANK_LIMIT: u64 = 1 << WALL_CELL_SHIFT;
const REPAIR_ENTRY_LIMIT: u64 = 1 << (STEP_SHIFT - REPAIR_ENTRY_SHIFT);
const REPAIR_FETCH_LIMIT: u64 = 1 << REPAIR_ENTRY_SHIFT;

/// The largest value one compose call will write into each bounded field,
/// for the once-per-compose width check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extents {
    /// Largest step index, the gather step included.
    pub step: usize,
    /// Largest low-field value: a span start, a gather slot, a sending rank.
    pub low: usize,
    /// Largest [`wall_slot`] `(cell, rank)`, when the gather goes to a wall.
    pub wall: Option<(usize, usize)>,
    /// Largest [`repair`] `(entry, fetch)`, when failures may be repaired.
    pub repair: Option<(usize, usize)>,
}

impl Extents {
    /// `Ok` when every value fits its field; otherwise a message naming
    /// the first field that would overflow (and so alias another tag).
    pub fn check(&self) -> Result<(), String> {
        let (cell, rank) = self.wall.unwrap_or_default();
        let (entry, fetch) = self.repair.unwrap_or_default();
        let fields = [
            ("step", self.step, STEP_LIMIT),
            ("low", self.low, LOW_LIMIT),
            ("wall cell", cell, WALL_CELL_LIMIT),
            ("wall rank", rank, WALL_RANK_LIMIT),
            ("repair entry", entry, REPAIR_ENTRY_LIMIT),
            ("repair fetch", fetch, REPAIR_FETCH_LIMIT),
        ];
        match fields
            .iter()
            .find(|(_, largest, limit)| *largest as u64 >= *limit)
        {
            Some((field, largest, limit)) => Err(format!(
                "message-tag field `{field}` overflows: {largest} does not fit below {limit}"
            )),
            None => Ok(()),
        }
    }
}

/// The frame bits of frame `frame` of a stream: OR this base into every
/// tag of that frame's composition (the `frame_tag` argument below).
pub fn frame_base(frame: u64) -> u64 {
    (frame % FRAME_WRAP) << FRAME_SHIFT
}

/// Tag of a schedule transfer or gather message: `low` is the span start
/// (unique per `(src, dst, step)`, because a step never ships the same
/// span twice between one pair) or the gather slot.
pub fn step(frame_tag: u64, step: usize, low: usize) -> u64 {
    debug_assert!((step as u64) < STEP_LIMIT, "step {step} overflows");
    debug_assert!((low as u64) < LOW_LIMIT, "low field {low} overflows");
    frame_tag | ((step as u64) << STEP_SHIFT) | low as u64
}

/// Gather slot of the display-wall gather: `rank` ships its share of
/// display cell `cell`.
pub fn wall_slot(cell: usize, rank: usize) -> usize {
    debug_assert!((cell as u64) < WALL_CELL_LIMIT, "cell {cell} overflows");
    debug_assert!((rank as u64) < WALL_RANK_LIMIT, "rank {rank} overflows");
    (cell << WALL_CELL_SHIFT) | rank
}

/// Tag of fetch `fetch` of repair-plan entry `entry`.
pub fn repair(frame_tag: u64, entry: usize, fetch: usize) -> u64 {
    debug_assert!((entry as u64) < REPAIR_ENTRY_LIMIT, "entry {entry}");
    debug_assert!((fetch as u64) < REPAIR_FETCH_LIMIT, "fetch {fetch}");
    REPAIR | frame_tag | ((entry as u64) << REPAIR_ENTRY_SHIFT) | fetch as u64
}

/// Tag of round `round` of the failure-agreement exchange.
pub fn liveness(round: u64) -> u64 {
    LIVENESS | round
}

/// Tag of both frames of barrier round `generation`: a rank's arrival at
/// rank 0 and rank 0's release. Built and matched by `RankCtx::barrier`
/// alone; to a transport it is a frame like any other.
pub fn barrier(generation: u64) -> u64 {
    NET_CONTROL | generation
}

/// Whether `tag` is a [`barrier`] round's, of any generation — for a fault
/// injector that keeps its schedule aligned to a composition's sends.
pub fn is_barrier(tag: u64) -> bool {
    tag & !(HEARTBEAT - 1) == NET_CONTROL
}

/// The sub-channels of the tile families, which have no step structure and
/// use the top half of the step field instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileChannel {
    /// One bundle per (sender, owner): which of the owner's tiles the
    /// sender has content on and that content (low: sending rank).
    Bundle = 0,
    /// Bundles of the post-failure repair round, for the tiles reassigned
    /// to the receiver (low: sending rank).
    RepairBundle = 1,
    /// Gather messages from tile owners to the root or the display wall
    /// (low: gather slot).
    Gather = 2,
}

impl TileChannel {
    /// Every channel, in step-field order.
    pub const ALL: [TileChannel; 3] = [
        TileChannel::Bundle,
        TileChannel::RepairBundle,
        TileChannel::Gather,
    ];
}

/// Tag of a tile-family message on `channel`.
pub fn tile(frame_tag: u64, channel: TileChannel, low: u64) -> u64 {
    debug_assert!(low < LOW_LIMIT, "low field {low} overflows");
    frame_tag | ((TILE_STEP_BASE + channel as u64) << STEP_SHIFT) | low
}

/// The tile sub-channel `tag` travels on, if it is a tile-family tag.
pub fn tile_channel(tag: u64) -> Option<TileChannel> {
    let address = frame_base(FRAME_WRAP - 1) | (LOW_LIMIT - 1);
    TileChannel::ALL
        .into_iter()
        .find(|&channel| tag & !address == tile(0, channel, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn constructors_return_the_documented_values() {
        assert_eq!(DEATH, 0x2000_0000_0000_0000);
        assert_eq!(PING, 0x0600_0000_0000_0000);
        assert_eq!(PONG, 0x0600_0000_0000_0001);
        assert_eq!(ACK, 0x0600_0000_0000_0002);
        assert_eq!(liveness(3), 0x0800_0000_0000_0003);
        assert_eq!(barrier(7), 0x0400_0000_0000_0007);
        assert_eq!(frame_base(0), 0);
        assert_eq!(frame_base(5), 5 << 48);
        assert_eq!(frame_base(5 + FRAME_WRAP), frame_base(5));
        assert_eq!(step(frame_base(2), 3, 17), (2 << 48) | (3 << 40) | 17);
        assert_eq!(wall_slot(3, 9), (3 << 20) | 9);
        assert_eq!(
            repair(frame_base(1), 4, 2),
            (1 << 60) | (1 << 48) | (4 << 16) | 2
        );
        assert_eq!(
            tile(frame_base(1), TileChannel::Gather, 6),
            (1 << 48) | (0x82 << 40) | 6
        );
    }

    #[test]
    fn frame_bases_stay_below_the_control_bits() {
        for frame in 0..2 * FRAME_WRAP {
            assert!(frame_base(frame) < NET_CONTROL, "{frame}");
            assert!(!is_barrier(frame_base(frame)));
        }
        assert!(is_barrier(barrier(0)) && is_barrier(barrier(u32::MAX as u64)));
        for other in [PING, PONG, ACK, DEATH, liveness(0), repair(0, 0, 0)] {
            assert!(!is_barrier(other), "{other:#x}");
        }
    }

    #[test]
    fn tile_channels_decode() {
        for channel in TileChannel::ALL {
            for frame in [0, 1, FRAME_WRAP - 1] {
                let tag = tile(frame_base(frame), channel, 12345);
                assert_eq!(tile_channel(tag), Some(channel));
            }
        }
        assert_eq!(tile_channel(step(0, 3, 0)), None);
        assert_eq!(tile_channel(step(0, 0x83, 0)), None);
        // A control bit above the frame field disqualifies the tag.
        assert_eq!(tile_channel(tile(0, TileChannel::Bundle, 0) | DEATH), None);
    }

    #[test]
    fn the_extent_check_names_the_overflowing_field() {
        let widest = Extents {
            step: 255,
            low: (1 << 40) - 1,
            wall: Some(((1 << 20) - 1, (1 << 20) - 1)),
            repair: Some(((1 << 24) - 1, (1 << 16) - 1)),
        };
        widest.check().unwrap();
        Extents::default().check().unwrap();
        let overflows = [
            (
                "`step`",
                Extents {
                    step: 256,
                    ..widest
                },
            ),
            (
                "`low`",
                Extents {
                    low: 1 << 40,
                    ..widest
                },
            ),
            (
                "`wall cell`",
                Extents {
                    wall: Some((1 << 20, 0)),
                    ..widest
                },
            ),
            (
                "`wall rank`",
                Extents {
                    wall: Some((0, 1 << 20)),
                    ..widest
                },
            ),
            (
                "`repair entry`",
                Extents {
                    repair: Some((1 << 24, 0)),
                    ..widest
                },
            ),
            (
                "`repair fetch`",
                Extents {
                    repair: Some((0, 1 << 16)),
                    ..widest
                },
            ),
        ];
        for (field, extents) in overflows {
            let why = extents.check().unwrap_err();
            assert!(why.contains(field), "{why}");
        }
        let why = Extents {
            step: 299,
            ..widest
        }
        .check()
        .unwrap_err();
        assert!(why.contains("299") && why.contains("256"), "{why}");
    }

    /// Sampled values of a field: both ends and a few interior points.
    fn samples(limit: u64) -> Vec<usize> {
        let top = limit as usize - 1;
        vec![0, 1, 2, 0x7f, top / 3, top - 1, top]
            .into_iter()
            .filter(|&v| v <= top)
            .collect()
    }

    #[test]
    fn distinct_constructors_never_share_a_tag() {
        // Every tag a constructor produces over the sampled arguments,
        // filed under the constructor's name: a value filed twice under
        // different names is an aliasing bug in the table.
        let frames: Vec<u64> = [0, 1, 2, FRAME_WRAP - 1]
            .into_iter()
            .map(frame_base)
            .collect();
        let counters = [0u64, 1, 2, 1000, (1 << 40) - 1];
        let mut tags: Vec<(String, u64)> = vec![
            ("death".into(), DEATH),
            ("ping".into(), PING),
            ("pong".into(), PONG),
            ("ack".into(), ACK),
        ];
        for &n in &counters {
            tags.push(("liveness".into(), liveness(n)));
            // Barrier generations and PONG's/ACK's low bits share
            // NET_CONTROL; the heartbeat bit keeps them apart.
            tags.push(("barrier".into(), barrier(n)));
        }
        for &frame in &frames {
            // Schedule steps: the part of the step field the tile
            // sub-channels leave to them within one compose.
            for k in samples(STEP_LIMIT) {
                if (k as u64) < TILE_STEP_BASE {
                    for low in samples(LOW_LIMIT) {
                        tags.push(("step".into(), step(frame, k, low)));
                    }
                }
            }
            for cell in samples(WALL_CELL_LIMIT) {
                for rank in samples(WALL_RANK_LIMIT) {
                    tags.push(("step".into(), step(frame, 5, wall_slot(cell, rank))));
                }
            }
            for entry in samples(REPAIR_ENTRY_LIMIT) {
                for fetch in samples(REPAIR_FETCH_LIMIT) {
                    tags.push(("repair".into(), repair(frame, entry, fetch)));
                }
            }
            for channel in TileChannel::ALL {
                for low in samples(LOW_LIMIT) {
                    tags.push((
                        format!("tile:{channel:?}"),
                        tile(frame, channel, low as u64),
                    ));
                }
            }
        }
        let mut owner: HashMap<u64, String> = HashMap::new();
        for (name, tag) in tags {
            // Bit 63 stays reserved, bit 62 unallocated.
            assert_eq!(tag >> 62, 0, "{name} sets a reserved bit: {tag:#x}");
            if let Some(other) = owner.insert(tag, name.clone()) {
                assert_eq!(other, name, "tag {tag:#x} is built by both");
            }
        }
    }

    #[test]
    fn distinct_arguments_give_distinct_tags() {
        // Within one constructor, different coordinates never alias — the
        // packings do not overlap their neighbours.
        let mut seen: HashMap<u64, (usize, usize)> = HashMap::new();
        for cell in samples(WALL_CELL_LIMIT) {
            for rank in samples(WALL_RANK_LIMIT) {
                let slot = wall_slot(cell, rank) as u64;
                assert!(slot < LOW_LIMIT);
                assert_eq!(seen.insert(slot, (cell, rank)), None);
            }
        }
        seen.clear();
        for entry in samples(REPAIR_ENTRY_LIMIT) {
            for fetch in samples(REPAIR_FETCH_LIMIT) {
                assert_eq!(seen.insert(repair(0, entry, fetch), (entry, fetch)), None);
            }
        }
        seen.clear();
        for frame in 0..4usize {
            for k in samples(STEP_LIMIT) {
                let tag = step(frame_base(frame as u64), k, 0);
                assert_eq!(seen.insert(tag, (frame, k)), None);
            }
        }
    }
}
