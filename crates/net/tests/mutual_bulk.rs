//! Reader threads never wait on a sender.
//!
//! `send_frame` holds a link's log lock across a blocking socket write, and
//! the peer can take those bytes only while its reader thread keeps
//! draining. This test puts both ranks of a loopback pair into that state at
//! once and for long; it lives in a file of its own so that no other test
//! competes with its four busy threads for the box's cores.
//!
//! It used to fail a few runs in a hundred on a loaded box, both ranks
//! reading a synthesized `tag::DEATH` for a live peer, for two reasons. A
//! scheduling stall longer than five heartbeats took the link down
//! mid-bulk; the senders then kept pushing into the down link, the log
//! evicted past its 64 MiB budget, and the resume asked for a frame that
//! was gone. And had the log held, both ends replayed it into the new
//! stream before starting the reader that drains the other end's replay.
//! `resume.rs` pins each on its own, without needing the stall.

mod common;

use common::{expect, frame, pair, within};
use rt_comm::{Payload, Transport};
use rt_net::TcpTransport;
use std::time::Duration;

#[test]
fn mutual_bulk_sends_finish_because_readers_never_wait() {
    const FRAMES: u64 = 64;
    within(Duration::from_secs(120), || {
        // Each side writes 64 × 8 MiB before it receives anything, so both
        // senders spend the test blocked on full socket buffers, holding
        // their log locks, while 10 ms heartbeats keep asking both reader
        // threads for PONGs and every delivered frame owes an ACK. A reader
        // that waited for that lock would stop draining, and the two
        // ranks would wait on each other for good.
        let (a, b) = pair(Some(Duration::from_millis(10)));
        let payload = Payload::from(vec![0xc3; 8 << 20]);
        let ends: Vec<_> = [(a, 1), (b, 0)]
            .into_iter()
            .map(|(mut t, peer)| {
                let payload = payload.clone();
                std::thread::spawn(move || {
                    let from = t.rank();
                    for seq in 0..FRAMES {
                        t.send_raw(peer, frame(from, seq, &payload)).unwrap();
                    }
                    for seq in 0..FRAMES {
                        expect(&mut t, seq, &payload);
                    }
                    assert!(!t.peer_is_dead(peer));
                    t
                })
            })
            .collect();
        // Keep both endpoints up until both sides have everything.
        let ends: Vec<TcpTransport> = ends.into_iter().map(|e| e.join().unwrap()).collect();
        drop(ends);
    });
}
