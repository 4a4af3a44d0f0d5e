//! A link has one queue, and what is in it reaches a live peer.
//!
//! Each test drives real loopback sockets into a state the link layer used
//! to resolve by declaring a live peer dead, or by never declaring a dead
//! one:
//!
//! * both ends owe each other more than the socket buffers hold when the
//!   stream is re-dialed — the replay must not wait for the peer to drain
//!   before this side starts draining;
//! * a sender keeps pushing into a link that is down — the log must hold
//!   the sender back at `SENT_LOG_BUDGET`, not drop the frames the resume
//!   will ask for;
//! * a sender is blocked on a peer that has stopped reading — the heartbeat
//!   must still be able to take that stream down;
//! * one frame larger than the whole budget still goes through.
//!
//! `ci.sh` runs this file in release as part of its `net log bound` stage.

mod common;

use common::{expect, frame, pair, within};
use rt_comm::{Payload, SendRawError, Transport};
use rt_net::frame::HEADER_BYTES;
use rt_net::link::SENT_LOG_BUDGET;
use rt_net::{TcpOptions, TcpTransport, WireFault};
use std::io::Read;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const BULK_BYTES: usize = 8 << 20;

#[test]
fn mutual_replay_after_reset() {
    within(Duration::from_secs(60), || {
        // Both ends lose the stream on their first frame and log five more
        // while it is down: each owes the other 48 MiB when rank 1 re-dials.
        let (a, b) = pair(Some(Duration::from_millis(10)));
        let payload = Payload::from(vec![0x5c; BULK_BYTES]);
        let start = Arc::new(Barrier::new(2));
        let ends: Vec<_> = [(a, 1), (b, 0)]
            .into_iter()
            .map(|(mut t, peer)| {
                let (payload, start) = (payload.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let from = t.rank();
                    start.wait();
                    t.send_raw_faulty(peer, frame(from, 0, &payload), Some(WireFault::Reset))
                        .unwrap();
                    for seq in 1..6 {
                        t.send_raw(peer, frame(from, seq, &payload)).unwrap();
                    }
                    for seq in 0..6 {
                        expect(&mut t, seq, &payload);
                    }
                    assert!(!t.peer_is_dead(peer));
                    t
                })
            })
            .collect();
        let ends: Vec<TcpTransport> = ends.into_iter().map(|e| e.join().unwrap()).collect();
        drop(ends);
    });
}

#[test]
fn pushing_past_the_budget_while_down_blocks_instead_of_evicting() {
    within(Duration::from_secs(60), || {
        // No heartbeat: the only way the log shrinks is the resume and the
        // ACKs of what the resumed stream then delivers.
        let (mut a, mut b) = pair(None);
        let payload = Payload::from(vec![0xe1; BULK_BYTES]);
        let bound = SENT_LOG_BUDGET + HEADER_BYTES + payload.len();
        a.send_raw_faulty(1, frame(0, 0, &payload), Some(WireFault::Reset))
            .unwrap();
        // 96 MiB toward a link that is down: the ninth frame finds the log
        // full and waits for the re-dialed stream to make room.
        for seq in 1..12 {
            a.send_raw(1, frame(0, seq, &payload)).unwrap();
            let stats = a.link_stats(1).unwrap();
            assert!(stats.logged_bytes <= bound, "after frame {seq}: {stats:?}");
        }
        for seq in 0..12 {
            expect(&mut b, seq, &payload);
        }
        assert!(!a.peer_is_dead(1) && !b.peer_is_dead(0));
    });
}

#[test]
fn a_silent_peer_is_taken_down_while_a_sender_is_blocked_on_it() {
    within(Duration::from_secs(60), || {
        // Rank 0 is a bare listener that takes rank 1's hello and then never
        // reads again (nor answers a re-dial): a stopped process, as far as
        // a socket can tell.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let mine = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [silent.local_addr().unwrap(), mine.local_addr().unwrap()];
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = silent.accept().unwrap();
            stream.read_exact(&mut [0u8; 8]).unwrap();
            (silent, stream)
        });
        let opts = TcpOptions {
            reconnect_attempts: 1,
            reconnect_backoff: Duration::from_millis(5),
            restore_deadline: Duration::from_secs(2),
            heartbeat_interval: Some(Duration::from_millis(10)),
        };
        let mut t = TcpTransport::establish_with(1, 2, mine, &addrs, opts).unwrap();
        let held_open = peer.join().unwrap();
        // The socket buffers fill within the first frame or two and the
        // sender blocks; only the heartbeat can notice the silence, and the
        // one re-dial then goes unanswered.
        let payload = Payload::from(vec![0x0f; BULK_BYTES]);
        let refused = (0..).find_map(|seq| t.send_raw(0, frame(1, seq, &payload)).err());
        assert_eq!(refused, Some(SendRawError { to: 0 }));
        assert!(t.peer_is_dead(0));
        drop(held_open);
    });
}

#[test]
fn a_frame_larger_than_the_budget_enters_an_empty_log_and_is_delivered() {
    within(Duration::from_secs(60), || {
        let (mut a, mut b) = pair(Some(Duration::from_millis(10)));
        let giant = Payload::from(vec![0x77; SENT_LOG_BUDGET + 1]);
        let small = Payload::from(vec![0x78; 16]);
        a.send_raw(1, frame(0, 0, &giant)).unwrap();
        assert!(a.link_stats(1).unwrap().logged_bytes > SENT_LOG_BUDGET);
        // The log is over budget now, so the next frame waits for the
        // giant's acknowledgement — on a link that never went down.
        a.send_raw(1, frame(0, 1, &small)).unwrap();
        let stats = a.link_stats(1).unwrap();
        assert_eq!((stats.logged_frames, stats.epoch), (1, 1), "{stats:?}");
        expect(&mut b, 0, &giant);
        expect(&mut b, 1, &small);
    });
}
