//! The coordinator/worker wire protocol.
//!
//! Hand-rolled length-prefixed framing over a plain [`TcpStream`]-like
//! byte stream — no serialization dependency. Every frame is
//!
//! ```text
//! [ u8 tag ][ u32 LE word count n ][ n × u64 LE payload words ]
//! ```
//!
//! The payload is a word vector because that is the journal's native
//! currency: a worker's `RESULT` frame carries the byte-exact
//! [`RecordKind::GradePack`](sfr_journal::RecordKind) payload the
//! coordinator merges, and strings (the campaign spec, reject reasons)
//! reuse the journal's [`encode_str`]/[`decode_str`] packing.
//!
//! A session looks like:
//!
//! ```text
//! worker                          coordinator
//!   HELLO{version}          ->
//!                           <-    SPEC{campaign spec text}
//!   READY{fingerprint}      ->
//!                           <-    REJECT{reason}        (mismatch; close)
//!   REQUEST                 ->
//!                           <-    GRANT{lease, pack} | NOWORK{retry_ms} | DONE
//!   HEARTBEAT{lease}        ->    (side channel, every lease/3 while computing)
//!   RESULT{lease, pack, w…} ->
//!   REQUEST                 ->    …
//! ```

use sfr_journal::{decode_str, encode_str};
use std::io::{self, Read, Write};

/// Protocol revision carried in `HELLO`; the coordinator rejects any
/// other value.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame's word count. The largest legitimate frame is
/// a pack result or the spec text (hundreds of words); anything near
/// this bound is garbage and is rejected before allocation.
pub const MAX_FRAME_WORDS: usize = 1 << 20;

const TAG_HELLO: u8 = 1;
const TAG_SPEC: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_REJECT: u8 = 4;
const TAG_REQUEST: u8 = 5;
const TAG_GRANT: u8 = 6;
const TAG_NOWORK: u8 = 7;
const TAG_DONE: u8 = 8;
const TAG_RESULT: u8 = 9;
const TAG_HEARTBEAT: u8 = 10;

/// One protocol frame. See the module docs for the session flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker greeting with its [`PROTOCOL_VERSION`].
    Hello {
        /// The worker's protocol revision.
        version: u64,
    },
    /// Coordinator's campaign spec (see [`crate::ShardSpec`]).
    Spec {
        /// `key=value` lines describing the campaign.
        text: String,
    },
    /// Worker built the campaign and reports its fingerprint.
    Ready {
        /// The worker's locally computed campaign fingerprint.
        fingerprint: u64,
    },
    /// Coordinator refuses this worker (version or fingerprint
    /// mismatch); the connection closes after this frame.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker asks for a pack.
    Request,
    /// Coordinator leases one pack to the worker.
    Grant {
        /// Fencing token; must accompany the matching `RESULT`.
        lease: u64,
        /// The granted pack index.
        pack: u64,
    },
    /// No pack is currently eligible (all leased or backing off); ask
    /// again after `retry_ms`.
    NoWork {
        /// Suggested wait before the next `REQUEST`.
        retry_ms: u64,
    },
    /// The campaign is complete; the worker should exit.
    Done,
    /// One computed pack: the journal payload words for `pack`, fenced
    /// by `lease`.
    Result {
        /// The lease the pack was computed under.
        lease: u64,
        /// The pack index.
        pack: u64,
        /// The byte-exact journal payload.
        payload: Vec<u64>,
    },
    /// Keep-alive for an in-flight lease.
    Heartbeat {
        /// The lease being kept alive.
        lease: u64,
    },
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Spec { .. } => TAG_SPEC,
            Frame::Ready { .. } => TAG_READY,
            Frame::Reject { .. } => TAG_REJECT,
            Frame::Request => TAG_REQUEST,
            Frame::Grant { .. } => TAG_GRANT,
            Frame::NoWork { .. } => TAG_NOWORK,
            Frame::Done => TAG_DONE,
            Frame::Result { .. } => TAG_RESULT,
            Frame::Heartbeat { .. } => TAG_HEARTBEAT,
        }
    }

    fn words(&self) -> Vec<u64> {
        match self {
            Frame::Hello { version } => vec![*version],
            Frame::Spec { text } => encode_str(text),
            Frame::Ready { fingerprint } => vec![*fingerprint],
            Frame::Reject { reason } => encode_str(reason),
            Frame::Request | Frame::Done => Vec::new(),
            Frame::Grant { lease, pack } => vec![*lease, *pack],
            Frame::NoWork { retry_ms } => vec![*retry_ms],
            Frame::Result {
                lease,
                pack,
                payload,
            } => {
                let mut words = Vec::with_capacity(2 + payload.len());
                words.push(*lease);
                words.push(*pack);
                words.extend_from_slice(payload);
                words
            }
            Frame::Heartbeat { lease } => vec![*lease],
        }
    }

    fn decode(tag: u8, words: Vec<u64>) -> Option<Frame> {
        let one = |w: &[u64]| if w.len() == 1 { Some(w[0]) } else { None };
        Some(match tag {
            TAG_HELLO => Frame::Hello {
                version: one(&words)?,
            },
            TAG_SPEC => Frame::Spec {
                text: decode_str(&words)?.0,
            },
            TAG_READY => Frame::Ready {
                fingerprint: one(&words)?,
            },
            TAG_REJECT => Frame::Reject {
                reason: decode_str(&words)?.0,
            },
            TAG_REQUEST if words.is_empty() => Frame::Request,
            TAG_GRANT if words.len() == 2 => Frame::Grant {
                lease: words[0],
                pack: words[1],
            },
            TAG_NOWORK => Frame::NoWork {
                retry_ms: one(&words)?,
            },
            TAG_DONE if words.is_empty() => Frame::Done,
            TAG_RESULT if words.len() >= 2 => Frame::Result {
                lease: words[0],
                pack: words[1],
                payload: words[2..].to_vec(),
            },
            TAG_HEARTBEAT => Frame::Heartbeat {
                lease: one(&words)?,
            },
            _ => return None,
        })
    }
}

/// Writes one frame and flushes it.
///
/// # Errors
///
/// Propagates any I/O error from the underlying stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let words = frame.words();
    let mut buf = Vec::with_capacity(5 + words.len() * 8);
    buf.push(frame.tag());
    let n = u32::try_from(words.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    buf.extend_from_slice(&n.to_le_bytes());
    for word in &words {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame.
///
/// # Errors
///
/// Propagates I/O errors (including clean EOF as
/// [`io::ErrorKind::UnexpectedEof`]); a malformed frame — unknown tag,
/// wrong word count for its tag, or a length beyond
/// [`MAX_FRAME_WORDS`] — is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let tag = header[0];
    let n = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if n > MAX_FRAME_WORDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} words exceeds the {MAX_FRAME_WORDS}-word bound"),
        ));
    }
    let mut bytes = vec![0u8; n * 8];
    r.read_exact(&mut bytes)?;
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    Frame::decode(tag, words)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame tag {tag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let back = read_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(frame, back);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello { version: 1 });
        roundtrip(Frame::Spec {
            text: "bench=poly\nwidth=4\n".into(),
        });
        roundtrip(Frame::Ready {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        });
        roundtrip(Frame::Reject {
            reason: "fingerprint mismatch".into(),
        });
        roundtrip(Frame::Request);
        roundtrip(Frame::Grant { lease: 7, pack: 3 });
        roundtrip(Frame::NoWork { retry_ms: 250 });
        roundtrip(Frame::Done);
        roundtrip(Frame::Result {
            lease: 7,
            pack: 3,
            payload: vec![0, u64::MAX, 42],
        });
        roundtrip(Frame::Heartbeat { lease: 7 });
    }

    #[test]
    fn frames_concatenate_on_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Request).expect("write");
        write_frame(&mut buf, &Frame::Grant { lease: 1, pack: 0 }).expect("write");
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).expect("first"), Frame::Request);
        assert_eq!(
            read_frame(&mut r).expect("second"),
            Frame::Grant { lease: 1, pack: 0 }
        );
        assert!(read_frame(&mut r).is_err(), "EOF after the last frame");
    }

    #[test]
    fn oversized_and_malformed_frames_are_invalid_data() {
        // Length far past MAX_FRAME_WORDS.
        let mut buf = vec![TAG_RESULT];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Unknown tag.
        let mut buf = vec![99u8];
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).expect_err("bad tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // GRANT with the wrong word count.
        let mut buf = vec![TAG_GRANT];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).expect_err("short grant");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated payload.
        let mut buf = vec![TAG_HEARTBEAT];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut buf.as_slice()).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
