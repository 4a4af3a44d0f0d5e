//! Helpers shared by rt-net's socket-level integration tests.

use rt_comm::{Payload, Transport, WireFrame};
use rt_net::{TcpOptions, TcpTransport, Topology};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

pub const TAG: u64 = 7;
pub const RECV: Duration = Duration::from_secs(20);

/// A two-rank loopback world that resolves socket failures quickly.
pub fn pair(heartbeat: Option<Duration>) -> (TcpTransport, TcpTransport) {
    let opts = TcpOptions {
        reconnect_attempts: 10,
        reconnect_backoff: Duration::from_millis(5),
        restore_deadline: Duration::from_secs(2),
        heartbeat_interval: heartbeat,
    };
    let mut world = TcpTransport::loopback(2, &Topology::FullMesh, opts).unwrap();
    let b = world.pop().unwrap();
    (world.pop().unwrap(), b)
}

/// Frame number `seq` from `from`, sharing `payload` with every other frame.
pub fn frame(from: usize, seq: u64, payload: &Payload) -> WireFrame {
    WireFrame {
        from,
        tag: TAG,
        seq,
        checksum: 0,
        payload: payload.clone(),
    }
}

/// Receive the next frame and check it is number `seq` of the stream.
pub fn expect(t: &mut TcpTransport, seq: u64, payload: &Payload) {
    let got = t
        .recv_raw(RECV)
        .unwrap_or_else(|e| panic!("frame {seq}: {e:?}"));
    assert_eq!((got.tag, got.seq), (TAG, seq), "exactly once, in order");
    assert!(got.payload == *payload, "frame {seq} arrived damaged");
}

/// Run `body` on its own thread and fail if it has not finished in `limit`
/// — a hang is the failure these tests exist to catch.
pub fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: still running after {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body returned without reporting"),
        },
    }
}
