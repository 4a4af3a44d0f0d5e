//! The sent-frame log is bounded by the in-flight window.
//!
//! A link logs what it sends until the peer confirms delivery (`ACK` control
//! frames, see `rt_net::link`), so however long a stream runs the log holds
//! only the unconfirmed tail. These tests drive real loopback sockets and
//! read the log through [`TcpTransport::link_stats`]:
//!
//! * a long stream, one way and both ways, whose log never exceeds
//!   [`ACK_BYTES`] plus the two frames its flow control keeps in flight;
//! * chaos cuts at every interesting byte offset of a frame, after the log
//!   has been trimmed, each resumed exactly once and in order.
//!
//! `ci.sh` runs this file and `mutual_bulk.rs` in release as its `net log
//! bound` stage.

mod common;

use common::{expect, frame, pair, within, RECV};
use rt_comm::{Payload, RecvRawError, Transport};
use rt_net::frame::HEADER_BYTES;
use rt_net::link::ACK_BYTES;
use rt_net::{TcpTransport, WireFault};
use std::time::{Duration, Instant};

/// Send frame `seq` to `to` as an application with a two-frame window
/// would: only once the peer has confirmed everything before the previous
/// frame. Then the log must hold no more than those two frames plus the
/// slack of the acknowledgement threshold.
fn send_windowed(t: &mut TcpTransport, to: usize, seq: u64, payload: &Payload) {
    let deadline = Instant::now() + RECV;
    while t.link_stats(to).unwrap().acked + 1 < seq {
        assert!(Instant::now() < deadline, "frame {seq}: no acknowledgement");
        std::thread::yield_now();
    }
    let from = t.rank();
    t.send_raw(to, frame(from, seq, payload)).unwrap();
    let stats = t.link_stats(to).unwrap();
    let bound = ACK_BYTES + 2 * (HEADER_BYTES + payload.len());
    assert!(
        stats.logged_bytes <= bound,
        "after frame {seq} the log holds {stats:?}, over the bound of {bound} bytes"
    );
}

const STREAM_FRAMES: u64 = 2_000;
const STREAM_FRAME_BYTES: usize = 256 << 10;

#[test]
fn a_one_way_stream_keeps_the_log_within_the_window() {
    within(Duration::from_secs(120), || {
        let (mut a, mut b) = pair(Some(Duration::from_millis(20)));
        let payload = Payload::from(vec![0x5a; STREAM_FRAME_BYTES]);
        let theirs = payload.clone();
        let receiver = std::thread::spawn(move || {
            for seq in 0..STREAM_FRAMES {
                expect(&mut b, seq, &theirs);
            }
            b
        });
        for seq in 0..STREAM_FRAMES {
            send_windowed(&mut a, 1, seq, &payload);
        }
        let b = receiver.join().unwrap();
        // 500 MiB went through; the receiver never sent a data frame, and
        // neither stream was ever re-dialed.
        let (sent, back) = (a.link_stats(1).unwrap(), b.link_stats(0).unwrap());
        assert!(sent.acked + 2 >= STREAM_FRAMES, "{sent:?}");
        assert_eq!((sent.epoch, back.epoch, back.logged_frames), (1, 1, 0));
    });
}

#[test]
fn a_two_way_stream_keeps_both_logs_within_the_window() {
    within(Duration::from_secs(120), || {
        let (a, b) = pair(Some(Duration::from_millis(20)));
        let payload = Payload::from(vec![0xa5; STREAM_FRAME_BYTES]);
        let ends: Vec<_> = [(a, 1), (b, 0)]
            .into_iter()
            .map(|(mut t, peer)| {
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for seq in 0..STREAM_FRAMES {
                        send_windowed(&mut t, peer, seq, &payload);
                        expect(&mut t, seq, &payload);
                    }
                    t.link_stats(peer).unwrap()
                })
            })
            .collect();
        for end in ends {
            let stats = end.join().unwrap();
            assert!(stats.acked + 2 >= STREAM_FRAMES, "{stats:?}");
            assert_eq!(stats.epoch, 1, "no stream was re-dialed: {stats:?}");
        }
    });
}

#[test]
fn chaos_cuts_after_a_trim_resume_exactly_once_and_in_order() {
    within(Duration::from_secs(60), || {
        // No heartbeat: every reconnect below is one of the six cuts.
        let (mut a, mut b) = pair(None);
        let payload = Payload::from(vec![0x3c; ACK_BYTES + 1000]);
        let len = HEADER_BYTES + payload.len();
        // Stream until an acknowledgement has dropped a prefix of the log.
        let mut seq = 0;
        loop {
            a.send_raw(1, frame(0, seq, &payload)).unwrap();
            expect(&mut b, seq, &payload);
            seq += 1;
            let stats = a.link_stats(1).unwrap();
            if (stats.logged_frames as u64) < seq {
                break;
            }
            assert!(seq < 1_000, "the log was never trimmed: {stats:?}");
        }
        let cuts = [
            0,
            1,
            HEADER_BYTES - 1,
            HEADER_BYTES,
            HEADER_BYTES + 1,
            len - 1,
        ];
        for (i, cut) in cuts.into_iter().enumerate() {
            a.send_raw_faulty(1, frame(0, seq, &payload), Some(WireFault::Partial(cut)))
                .unwrap();
            a.send_raw(1, frame(0, seq + 1, &payload)).unwrap();
            expect(&mut b, seq, &payload);
            expect(&mut b, seq + 1, &payload);
            seq += 2;
            let stats = a.link_stats(1).unwrap();
            assert_eq!(stats.epoch, 2 + i as u64, "cut at {cut}: {stats:?}");
            assert!(stats.logged_frames <= 3, "cut at {cut}: {stats:?}");
        }
        assert_eq!(
            b.recv_raw(Duration::from_millis(100)).map(|f| f.seq),
            Err(RecvRawError::Timeout),
            "nothing was delivered twice"
        );
        assert!(!a.peer_is_dead(1) && !b.peer_is_dead(0));
    });
}
