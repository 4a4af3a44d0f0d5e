//! Length-prefixed wire format for [`WireFrame`]s.
//!
//! Every frame crosses a `TcpStream` as a fixed 36-byte header followed by
//! the payload bytes, all little-endian:
//!
//! ```text
//! [payload len  u32][from u64][tag u64][seq u64][checksum u64][payload …]
//! ```
//!
//! The header carries the delivery envelope verbatim — the checksum is the
//! sender's FNV-1a over the payload, computed by `rt-comm` *above* the
//! transport, so a frame corrupted by the fault plan is detected by the
//! receiving envelope exactly as on the in-process backend. The length
//! prefix makes frame boundaries explicit on the byte stream; a clean EOF
//! at a frame boundary means the peer closed its endpoint.
//!
//! Encoding never copies a payload: [`encode_header`] builds the 36 bytes,
//! and [`write_encoded`] hands header and payload to the socket as the two
//! slices of one vectored write.
//!
//! Decoding is total: any byte prefix — truncated header, mid-payload EOF,
//! an over-cap length — produces a typed [`FrameError`], never a panic, and
//! a length prefix reserves memory only as its bytes arrive. The proptests
//! in this module drive arbitrary byte prefixes and huge claims with short
//! bodies through [`read_frame`] to pin that contract.

use rt_comm::{Payload, WireFrame};
use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// Fixed header size: `u32` length prefix + four `u64` envelope fields.
pub const HEADER_BYTES: usize = 4 + 8 * 4;

/// Upper bound on a single frame's payload (1 GiB): a corrupted or
/// malicious length prefix fails fast instead of attempting a huge
/// allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

/// [`read_frame`] takes a payload in steps of this size, reserving memory
/// one step ahead of the bytes that have actually arrived.
const PAYLOAD_STEP: usize = 1 << 20;

/// A frame could not be decoded from (or encoded onto) the byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside the fixed header (`got` of
    /// [`HEADER_BYTES`] bytes arrived).
    TruncatedHeader {
        /// Header bytes received before EOF.
        got: usize,
    },
    /// The stream ended inside the payload.
    TruncatedPayload {
        /// Payload length the header promised.
        expected: usize,
        /// Payload bytes received before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The offending length prefix.
        len: u64,
    },
    /// The underlying stream failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader { got } => write!(
                f,
                "peer closed mid-frame: {got} of {HEADER_BYTES} header bytes"
            ),
            FrameError::TruncatedPayload { expected, got } => write!(
                f,
                "peer closed mid-frame: {got} of {expected} payload bytes"
            ),
            FrameError::Oversized { len } => write!(
                f,
                "frame length prefix {len} exceeds the wire limit of {MAX_PAYLOAD_BYTES} bytes"
            ),
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Little-endian `u64` at a fixed header offset.
fn u64_at(header: &[u8; HEADER_BYTES], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&header[off..off + 8]);
    u64::from_le_bytes(b)
}

/// The fixed header in front of a `len`-byte payload, `envelope` being
/// `[from, tag, seq, checksum]`. This is the one encoding of the wire
/// format: data frames go through [`encode_header`], the link fabric's own
/// control frames come here directly.
pub(crate) fn header(len: u32, envelope: [u64; 4]) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..4].copy_from_slice(&len.to_le_bytes());
    for (field, bytes) in envelope.iter().zip(out[4..].chunks_exact_mut(8)) {
        bytes.copy_from_slice(&field.to_le_bytes());
    }
    out
}

/// The header of `frame`. The payload is never copied to be sent: the
/// transport's sent-frame log keeps this header beside the frame's shared
/// [`Payload`] and writes — or replays — the two with [`write_encoded`].
pub fn encode_header(frame: &WireFrame) -> Result<[u8; HEADER_BYTES], FrameError> {
    let len = u32::try_from(frame.payload.len())
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD_BYTES)
        .ok_or(FrameError::Oversized {
            len: frame.payload.len() as u64,
        })?;
    let envelope = [frame.from as u64, frame.tag, frame.seq, frame.checksum];
    Ok(header(len, envelope))
}

/// Write the first `upto` bytes of the frame `header ‖ payload` onto `w`
/// with vectored writes (one `writev` per frame when the socket takes it
/// whole). `upto` past the frame's end writes all of it; anything shorter is
/// a chaos cut. Live sends, replays and cuts all come through here.
pub fn write_encoded(
    w: &mut impl Write,
    header: &[u8; HEADER_BYTES],
    payload: &[u8],
    upto: usize,
) -> io::Result<()> {
    let total = upto.min(HEADER_BYTES + payload.len());
    let mut done = 0;
    while done < total {
        let head = &header[done.min(HEADER_BYTES)..total.min(HEADER_BYTES)];
        let body = &payload[done.saturating_sub(HEADER_BYTES)..total.saturating_sub(HEADER_BYTES)];
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed); a mid-frame EOF, an over-cap length prefix
/// or a stream failure is a typed [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<WireFrame>, FrameError> {
    read_frame_noting(r, || ())
}

/// [`read_frame`], calling `heard` as the frame's bytes arrive — at the
/// header and between [`PAYLOAD_STEP`]s — so that liveness is judged by
/// bytes, not by whole frames, however long one takes.
pub(crate) fn read_frame_noting(
    r: &mut impl Read,
    mut heard: impl FnMut(),
) -> Result<Option<WireFrame>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    // Distinguish "no more frames" from "frame cut short".
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::TruncatedHeader { got: filled }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    heard();
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&header[0..4]);
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    let from = u64_at(&header, 4);
    let tag = u64_at(&header, 12);
    let seq = u64_at(&header, 20);
    let checksum = u64_at(&header, 28);
    let expected = len as usize;
    // The length prefix is the peer's claim, not yet bytes: reserve one step
    // ahead of what has arrived, never the whole claim. `read_to_end` fills
    // the reserved capacity without zeroing it first.
    let mut payload = Vec::new();
    while payload.len() < expected {
        let step = (expected - payload.len()).min(PAYLOAD_STEP);
        payload.reserve(step);
        if r.by_ref().take(step as u64).read_to_end(&mut payload)? < step {
            let got = payload.len();
            return Err(FrameError::TruncatedPayload { expected, got });
        }
        if payload.len() < expected {
            heard();
        }
    }
    Ok(Some(WireFrame {
        from: from as usize,
        tag,
        seq,
        checksum,
        payload: Payload::from(payload),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serialize one frame onto `w` the way the link fabric does.
    fn write_frame(w: &mut impl Write, frame: &WireFrame) -> io::Result<()> {
        let header = encode_header(frame).map_err(io::Error::other)?;
        write_encoded(w, &header, &frame.payload, usize::MAX)
    }

    fn sample(payload: Vec<u8>) -> WireFrame {
        WireFrame {
            from: 3,
            tag: 0xdead_beef,
            seq: 41,
            checksum: 0x1234_5678_9abc_def0,
            payload: Payload::from(payload),
        }
    }

    #[test]
    fn round_trips_header_and_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample(vec![7, 8, 9])).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 3);
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got.from, 3);
        assert_eq!(got.tag, 0xdead_beef);
        assert_eq!(got.seq, 41);
        assert_eq!(got.checksum, 0x1234_5678_9abc_def0);
        assert_eq!(got.payload.as_slice(), &[7, 8, 9]);
    }

    /// A writer that takes at most `step` bytes per call, like a socket
    /// with a nearly full send buffer.
    struct Dribble(Vec<u8>, usize);

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.1);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_cut_writes_exactly_that_prefix_whatever_the_writer_takes() {
        let frame = sample((0u8..50).collect());
        let header = encode_header(&frame).unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &frame).unwrap();
        assert_eq!(whole.len(), HEADER_BYTES + 50);
        for step in [1, 7, HEADER_BYTES, 1000] {
            for cut in 0..whole.len() + 3 {
                let mut w = Dribble(Vec::new(), step);
                write_encoded(&mut w, &header, &frame.payload, cut).unwrap();
                assert_eq!(w.0, whole[..cut.min(whole.len())], "step {step} cut {cut}");
            }
        }
    }

    #[test]
    fn round_trips_empty_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample(Vec::new())).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn midframe_eof_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample(vec![1, 2, 3])).unwrap();
        buf.truncate(HEADER_BYTES + 1); // payload cut short
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TruncatedPayload {
                expected: 3,
                got: 1
            })
        ));
        buf.truncate(HEADER_BYTES - 5); // header cut short
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TruncatedHeader { got }) if got == HEADER_BYTES - 5
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = vec![0u8; HEADER_BYTES];
        buf[0..4].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Oversized { len }) if len == (MAX_PAYLOAD_BYTES + 1) as u64
        ));
    }

    #[test]
    fn frames_are_read_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample(vec![1])).unwrap();
        write_frame(&mut buf, &sample(vec![2, 2])).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().payload.as_slice(),
            &[1]
        );
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().payload.as_slice(),
            &[2, 2]
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    proptest! {
        // Any byte prefix parses to Ok or a typed error — never a panic —
        // and the parser is consistent: a prefix of a valid frame stream
        // either yields the full frame (enough bytes) or a truncation
        // error, and random garbage never yields a frame longer than the
        // input.
        #[test]
        fn arbitrary_prefixes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut r = bytes.as_slice();
            match read_frame(&mut r) {
                Ok(None) => prop_assert!(bytes.is_empty()),
                Ok(Some(frame)) => {
                    prop_assert!(bytes.len() >= HEADER_BYTES + frame.payload.len());
                }
                Err(_) => {} // typed failure is the expected outcome for garbage
            }
        }

        // A truncated valid frame always reports truncation (or, cut at
        // the boundary, clean EOF) — pinpointing where the cut fell.
        #[test]
        fn truncated_valid_frames_report_truncation(
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            cut in 0usize..100,
        ) {
            let frame = sample(payload);
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            let cut = cut.min(buf.len());
            let mut r = &buf[..cut];
            match read_frame(&mut r) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(got)) => {
                    prop_assert_eq!(cut, buf.len());
                    prop_assert_eq!(got.payload.as_slice(), frame.payload.as_slice());
                }
                Err(FrameError::TruncatedHeader { got }) => prop_assert_eq!(got, cut),
                Err(FrameError::TruncatedPayload { expected, got }) => {
                    prop_assert_eq!(expected, frame.payload.len());
                    prop_assert_eq!(got, cut - HEADER_BYTES);
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }

        // A header may claim any length up to the cap with next to nothing
        // behind it. The reader reserves a bounded amount for the claim
        // (a full-size reservation per case would be up to 1 GiB here) and
        // reports exactly how many payload bytes did arrive.
        #[test]
        fn huge_claims_with_short_bodies_report_what_arrived(
            len in 0u32..=MAX_PAYLOAD_BYTES,
            body in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut bytes = header(len, [3, 5, 7, 9]).to_vec();
            bytes.extend_from_slice(&body);
            let claimed = len as usize;
            match read_frame(&mut bytes.as_slice()) {
                Ok(Some(frame)) => {
                    prop_assert!(claimed <= body.len());
                    prop_assert_eq!(frame.payload.as_slice(), &body[..claimed]);
                }
                Err(FrameError::TruncatedPayload { expected, got }) => {
                    prop_assert!(body.len() < claimed);
                    prop_assert_eq!((expected, got), (claimed, body.len()));
                }
                other => prop_assert!(false, "unexpected outcome: {:?}", other.map(|f| f.map(|f| f.tag))),
            }
        }
    }
}
