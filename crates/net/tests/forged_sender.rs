//! `from` is not trusted off the wire.
//!
//! A frame's `from` field is written by the peer, and the layers above the
//! transport file frames by it. A link therefore accepts only its own
//! peer's id: any other value — another rank's, to impersonate it, or one
//! outside the world, to index past a table — is a broken stream, handled
//! like a frame that does not decode. The link goes down and re-dials, and
//! the frame is never delivered.

mod common;

use common::{expect, frame, pair, within, RECV};
use rt_comm::{Payload, RecvRawError, Transport};
use std::time::{Duration, Instant};

#[test]
fn a_frame_claiming_another_sender_breaks_the_stream_and_never_surfaces() {
    within(Duration::from_secs(60), || {
        // Rank 0 writes to rank 1 under another rank's id (here the
        // receiver's own), then under one outside the world of two.
        for claimed in [1, 7] {
            let (mut a, mut b) = pair(None);
            let payload = Payload::from(vec![9; 16]);
            a.send_raw(1, frame(0, 0, &payload)).unwrap();
            expect(&mut b, 0, &payload);
            a.send_raw(1, frame(claimed, 1, &payload)).unwrap();
            let deadline = Instant::now() + RECV;
            while b.link_stats(0).unwrap().epoch == 1 {
                assert!(Instant::now() < deadline, "from = {claimed}: stream kept");
                std::thread::yield_now();
            }
            let surfaced = b.recv_raw(Duration::from_millis(100)).map(|f| f.from);
            assert_eq!(surfaced, Err(RecvRawError::Timeout), "from = {claimed}");
        }
    });
}
