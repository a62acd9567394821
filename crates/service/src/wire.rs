//! The length-prefixed, checksummed wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [client: u32 LE] [seq: u64 LE] [key: u64 LE] [payload…]
//! ```
//!
//! `len` counts every byte after itself (checksum included), so a byte
//! stream of frames is self-delimiting; [`FrameDecoder`] reassembles frames
//! from the arbitrary chunk boundaries of a socket stream. A queued blob is
//! always exactly one frame, so the worker inbox and the in-process reply
//! boxes decode each blob once, whole. `crc` is an FNV-1a-32 checksum of
//! everything after itself: a faulty transport that flips bytes in flight
//! (see [`crate::FaultProfile`]) is caught here, surfaced as the
//! *recoverable* [`WireError::Corrupt`] — the decoder skips the damaged
//! frame and resynchronizes on the next one, and the retry layer treats the
//! loss like a drop.
//!
//! `kind` distinguishes application `Request`/`Response` frames from the
//! *control* responses the fault-tolerant plane introduces: [`KIND_BUSY`]
//! (the owning worker's mailbox hit its high watermark and the request was
//! shed instead of queued) and [`KIND_UNAVAILABLE`] (the owning shard
//! worker crashed with the request in flight and its volatile state is
//! gone). Both are retryable; neither carries a payload.
//!
//! Payloads are spec-typed: the [`WireCodec`] trait extends a
//! [`SequentialSpec`] with byte encodings for its `Op` and `Resp`, so a
//! service over `CounterSpec` and one over `JamWordSpec` share every other
//! layer. Codecs are hand-rolled tag-byte encodings — the repo is fully
//! offline, no serde.

use sbu_spec::specs::{
    CounterOp, CounterSpec, JamWordOp, JamWordResp, JamWordSpec, StickyOp, StickyResp, StickySpec,
    Tri,
};
use sbu_spec::SequentialSpec;

/// Frame kind tag: a command heading for a shard.
pub const KIND_REQUEST: u8 = 0;
/// Frame kind tag: a return value heading back to a client.
pub const KIND_RESPONSE: u8 = 1;
/// Frame kind tag: control response — the request was shed at the worker's
/// mailbox high watermark instead of queued. Retryable after backoff.
pub const KIND_BUSY: u8 = 2;
/// Frame kind tag: control response — the owning shard worker crashed with
/// this request in flight and its volatile state was lost. Retryable; the
/// retried operation lands on the respawned shard.
pub const KIND_UNAVAILABLE: u8 = 3;

/// Bytes of a frame after the length prefix, before the payload
/// (checksum + kind + client + seq + key).
const HEADER: usize = 4 + 1 + 4 + 8 + 8;

/// Hard ceiling on `len`: no legitimate frame in this protocol comes close,
/// so a larger prefix means the stream is garbage (or an adversary is
/// trying to make the decoder buffer unboundedly) and decoding must stop.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A decoding failure.
///
/// [`WireError::Corrupt`] is *recoverable*: the decoder has already skipped
/// the damaged frame, so calling [`FrameDecoder::next_frame`] again
/// continues with the next frame. The other variants are fatal for the
/// stream (the length prefix itself cannot be trusted, so there is no
/// resynchronization point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix is impossible: shorter than a bare header or
    /// larger than [`MAX_FRAME_LEN`]. Carries the offending prefix and how
    /// many bytes the decoder was holding when it gave up.
    BadLength {
        /// The length prefix as read off the stream.
        len: u64,
        /// Bytes buffered (and not yet consumed) at the time of the error.
        buffered: usize,
    },
    /// The frame checksum did not match: bytes were flipped in flight. The
    /// decoder has skipped the frame; decoding may continue.
    Corrupt {
        /// The checksum the sender wrote.
        expected: u32,
        /// The checksum of the bytes as received.
        found: u32,
    },
    /// A spec-typed payload failed to decode.
    Payload(String),
}

impl WireError {
    /// A payload-layer decode failure (the constructor the codecs use).
    pub fn payload(msg: impl Into<String>) -> Self {
        WireError::Payload(msg.into())
    }

    /// Whether the stream can continue after this error (the decoder
    /// already advanced past the offending bytes).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, WireError::Corrupt { .. })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength { len, buffered } => write!(
                f,
                "wire error: impossible frame length {len} (header is {HEADER} bytes, \
                 ceiling {MAX_FRAME_LEN}; {buffered} bytes buffered)"
            ),
            WireError::Corrupt { expected, found } => write!(
                f,
                "wire error: frame checksum mismatch (expected {expected:#010x}, found {found:#010x})"
            ),
            WireError::Payload(msg) => write!(f, "wire error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over `bytes`, folded to 32 bits — the frame checksum.
pub(crate) fn checksum(bytes: &[u8]) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// One decoded frame (header plus raw payload bytes). The checksum is
/// computed at encode time and verified+stripped at decode time; it never
/// appears here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// [`KIND_REQUEST`], [`KIND_RESPONSE`], [`KIND_BUSY`] or
    /// [`KIND_UNAVAILABLE`].
    pub kind: u8,
    /// The client the frame belongs to (sender of a request, addressee of
    /// a response).
    pub client: u32,
    /// Client-chosen correlation number, echoed on the response.
    pub seq: u64,
    /// The object key (requests route on it; responses echo it).
    pub key: u64,
    /// Spec-typed payload bytes ([`WireCodec`]); empty on control frames.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode as one length-prefixed, checksummed frame, appended to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len = (HEADER + self.payload.len()) as u32;
        out.extend_from_slice(&len.to_le_bytes());
        let crc_at = out.len();
        out.extend_from_slice(&[0; 4]); // checksum placeholder
        out.push(self.kind);
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = checksum(&out[crc_at + 4..]);
        out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Encode as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + HEADER + self.payload.len());
        self.encode(&mut out);
        out
    }

    /// Decode one whole encoded frame: exactly the bytes
    /// [`encode`](Self::encode) wrote, as a queued blob holds them.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        match frame_len(bytes)? {
            Some(len) if bytes.len() == 4 + len => Self::decode_body(&bytes[4..]),
            // A blob cut short, or with bytes past its frame.
            len => Err(WireError::BadLength {
                len: len.unwrap_or(0) as u64,
                buffered: bytes.len(),
            }),
        }
    }

    /// Check and parse the bytes after a frame's length prefix.
    fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let expected = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
        let found = checksum(&body[4..]);
        if expected != found {
            return Err(WireError::Corrupt { expected, found });
        }
        Ok(Frame {
            kind: body[4],
            client: u32::from_le_bytes(body[5..9].try_into().expect("4 bytes")),
            seq: u64::from_le_bytes(body[9..17].try_into().expect("8 bytes")),
            key: u64::from_le_bytes(body[17..25].try_into().expect("8 bytes")),
            payload: body[HEADER..].to_vec(),
        })
    }
}

/// The body length the frame at the start of `bytes` announces, checked
/// against the protocol's bounds; `None` until all 4 prefix bytes are in.
fn frame_len(bytes: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(prefix) = bytes.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
    if !(HEADER..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::BadLength {
            len: len as u64,
            buffered: bytes.len(),
        });
    }
    Ok(Some(len))
}

/// Incremental frame reassembly from a byte stream with arbitrary chunk
/// boundaries.
///
/// ```
/// use sbu_service::{Frame, FrameDecoder, KIND_REQUEST};
/// let frame = Frame { kind: KIND_REQUEST, client: 7, seq: 1, key: 42, payload: vec![9] };
/// let bytes = frame.to_bytes();
/// let mut dec = FrameDecoder::new();
/// for b in &bytes {
///     dec.push(std::slice::from_ref(b)); // one byte at a time
/// }
/// assert_eq!(dec.next_frame().unwrap(), Some(frame));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted once it outgrows the remainder).
    at: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed more bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Drop everything buffered (used when a connection is torn down: the
    /// next stream starts at a frame boundary).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.at = 0;
    }

    /// How many fed bytes are still waiting for the rest of their frame.
    /// Non-zero after a [`next_frame`](Self::next_frame) returned
    /// `Ok(None)` means the stream stopped mid-frame — the socket readers
    /// count that as `service.partial_frame`.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// On [`WireError::Corrupt`] the damaged frame has been skipped and the
    /// stream stays usable — call again for the next frame. On
    /// [`WireError::BadLength`] the stream is unrecoverable (the prefix
    /// itself is untrusted); callers should [`reset`](Self::reset) or drop
    /// the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let pending = &self.buf[self.at..];
        let Some(len) = frame_len(pending)? else {
            return Ok(None);
        };
        if pending.len() < 4 + len {
            return Ok(None);
        }
        // The frame is consumed whether or not its checksum holds.
        let frame = Frame::decode_body(&pending[4..4 + len]);
        self.at += 4 + len;
        if self.at * 2 > self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        frame.map(Some)
    }
}

/// Byte encodings for a spec's commands and return values — the payload
/// layer of the wire protocol. Implemented for the specs the service
/// fronts; a new object type joins the service by implementing this.
pub trait WireCodec: SequentialSpec {
    /// Append `op`'s encoding to `out`.
    fn encode_op(op: &Self::Op, out: &mut Vec<u8>);
    /// Decode an op (must consume exactly `bytes`).
    fn decode_op(bytes: &[u8]) -> Result<Self::Op, WireError>;
    /// Append `resp`'s encoding to `out`.
    fn encode_resp(resp: &Self::Resp, out: &mut Vec<u8>);
    /// Decode a response (must consume exactly `bytes`).
    fn decode_resp(bytes: &[u8]) -> Result<Self::Resp, WireError>;
}

fn take_u64(bytes: &[u8], what: &str) -> Result<u64, WireError> {
    bytes
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| WireError::payload(format!("{what}: expected 8 bytes, got {}", bytes.len())))
}

impl WireCodec for CounterSpec {
    fn encode_op(op: &CounterOp, out: &mut Vec<u8>) {
        match op {
            CounterOp::Inc => out.push(0),
            CounterOp::Add(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_le_bytes());
            }
            CounterOp::Read => out.push(2),
        }
    }

    fn decode_op(bytes: &[u8]) -> Result<CounterOp, WireError> {
        match bytes {
            [0] => Ok(CounterOp::Inc),
            [1, rest @ ..] => Ok(CounterOp::Add(take_u64(rest, "counter add")?)),
            [2] => Ok(CounterOp::Read),
            other => Err(WireError::payload(format!("bad counter op {other:?}"))),
        }
    }

    fn encode_resp(resp: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&resp.to_le_bytes());
    }

    fn decode_resp(bytes: &[u8]) -> Result<u64, WireError> {
        take_u64(bytes, "counter resp")
    }
}

impl WireCodec for StickySpec {
    fn encode_op(op: &StickyOp, out: &mut Vec<u8>) {
        match op {
            StickyOp::Jam(bit) => {
                out.push(0);
                out.push(u8::from(*bit));
            }
            StickyOp::Read => out.push(1),
            StickyOp::Flush => out.push(2),
        }
    }

    fn decode_op(bytes: &[u8]) -> Result<StickyOp, WireError> {
        match bytes {
            [0, bit @ (0 | 1)] => Ok(StickyOp::Jam(*bit == 1)),
            [1] => Ok(StickyOp::Read),
            [2] => Ok(StickyOp::Flush),
            other => Err(WireError::payload(format!("bad sticky op {other:?}"))),
        }
    }

    fn encode_resp(resp: &StickyResp, out: &mut Vec<u8>) {
        match resp {
            StickyResp::Success => out.push(0),
            StickyResp::Fail => out.push(1),
            StickyResp::Value(tri) => {
                out.push(2);
                out.push(match tri {
                    Tri::Undef => 0,
                    Tri::Zero => 1,
                    Tri::One => 2,
                });
            }
            StickyResp::Flushed => out.push(3),
        }
    }

    fn decode_resp(bytes: &[u8]) -> Result<StickyResp, WireError> {
        match bytes {
            [0] => Ok(StickyResp::Success),
            [1] => Ok(StickyResp::Fail),
            [2, 0] => Ok(StickyResp::Value(Tri::Undef)),
            [2, 1] => Ok(StickyResp::Value(Tri::Zero)),
            [2, 2] => Ok(StickyResp::Value(Tri::One)),
            [3] => Ok(StickyResp::Flushed),
            other => Err(WireError::payload(format!("bad sticky resp {other:?}"))),
        }
    }
}

impl WireCodec for JamWordSpec {
    fn encode_op(op: &JamWordOp, out: &mut Vec<u8>) {
        match op {
            JamWordOp::Jam(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            JamWordOp::Read => out.push(1),
        }
    }

    fn decode_op(bytes: &[u8]) -> Result<JamWordOp, WireError> {
        match bytes {
            [0, rest @ ..] => Ok(JamWordOp::Jam(take_u64(rest, "jam value")?)),
            [1] => Ok(JamWordOp::Read),
            other => Err(WireError::payload(format!("bad jam op {other:?}"))),
        }
    }

    fn encode_resp(resp: &JamWordResp, out: &mut Vec<u8>) {
        match resp {
            JamWordResp::Jam { won, value } => {
                out.push(0);
                out.push(u8::from(*won));
                out.extend_from_slice(&value.to_le_bytes());
            }
            JamWordResp::Value(None) => out.push(1),
            JamWordResp::Value(Some(v)) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn decode_resp(bytes: &[u8]) -> Result<JamWordResp, WireError> {
        match bytes {
            [0, won @ (0 | 1), rest @ ..] => Ok(JamWordResp::Jam {
                won: *won == 1,
                value: take_u64(rest, "jam resp value")?,
            }),
            [1] => Ok(JamWordResp::Value(None)),
            [2, rest @ ..] => Ok(JamWordResp::Value(Some(take_u64(rest, "jam resp value")?))),
            other => Err(WireError::payload(format!("bad jam resp {other:?}"))),
        }
    }
}

/// Encode a request frame for `op` (the client side of the protocol).
pub fn request_frame<S: WireCodec>(client: u32, seq: u64, key: u64, op: &S::Op) -> Frame {
    let mut payload = Vec::new();
    S::encode_op(op, &mut payload);
    Frame {
        kind: KIND_REQUEST,
        client,
        seq,
        key,
        payload,
    }
}

/// Encode the response frame answering `req` (the worker side).
pub fn response_frame<S: WireCodec>(req: &Frame, resp: &S::Resp) -> Frame {
    let mut payload = Vec::new();
    S::encode_resp(resp, &mut payload);
    Frame {
        kind: KIND_RESPONSE,
        client: req.client,
        seq: req.seq,
        key: req.key,
        payload,
    }
}

/// Encode a payload-free control response (`KIND_BUSY` / `KIND_UNAVAILABLE`)
/// answering `req`.
pub fn control_frame(req: &Frame, kind: u8) -> Frame {
    debug_assert!(kind == KIND_BUSY || kind == KIND_UNAVAILABLE);
    Frame {
        kind,
        client: req.client,
        seq: req.seq,
        key: req.key,
        payload: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_ops<S: WireCodec>(ops: &[S::Op])
    where
        S::Op: PartialEq + std::fmt::Debug,
    {
        for op in ops {
            let mut buf = Vec::new();
            S::encode_op(op, &mut buf);
            assert_eq!(&S::decode_op(&buf).unwrap(), op);
        }
    }

    fn roundtrip_resps<S: WireCodec>(resps: &[S::Resp])
    where
        S::Resp: PartialEq + std::fmt::Debug,
    {
        for resp in resps {
            let mut buf = Vec::new();
            S::encode_resp(resp, &mut buf);
            assert_eq!(&S::decode_resp(&buf).unwrap(), resp);
        }
    }

    #[test]
    fn codecs_round_trip() {
        roundtrip_ops::<CounterSpec>(&[CounterOp::Inc, CounterOp::Add(u64::MAX), CounterOp::Read]);
        roundtrip_resps::<CounterSpec>(&[0, 1, u64::MAX]);
        roundtrip_ops::<StickySpec>(&[StickyOp::Jam(true), StickyOp::Jam(false), StickyOp::Read]);
        roundtrip_resps::<StickySpec>(&[
            StickyResp::Success,
            StickyResp::Fail,
            StickyResp::Value(Tri::Undef),
            StickyResp::Value(Tri::One),
            StickyResp::Flushed,
        ]);
        roundtrip_ops::<JamWordSpec>(&[JamWordOp::Jam(7), JamWordOp::Read]);
        roundtrip_resps::<JamWordSpec>(&[
            JamWordResp::Jam {
                won: true,
                value: 7,
            },
            JamWordResp::Value(None),
            JamWordResp::Value(Some(9)),
        ]);
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(CounterSpec::decode_op(&[]).is_err());
        assert!(CounterSpec::decode_op(&[9]).is_err());
        assert!(CounterSpec::decode_op(&[1, 0, 0]).is_err()); // short add
        assert!(StickySpec::decode_op(&[0, 7]).is_err()); // bad bit
        assert!(JamWordSpec::decode_resp(&[0, 1]).is_err()); // short value
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let frames = vec![
            request_frame::<CounterSpec>(0, 1, 42, &CounterOp::Inc),
            request_frame::<CounterSpec>(3, 2, 7, &CounterOp::Add(5)),
            response_frame::<CounterSpec>(
                &request_frame::<CounterSpec>(3, 2, 7, &CounterOp::Read),
                &12,
            ),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }
        // Feed the stream in every chunk size from 1 to whole-buffer.
        for chunk in 1..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
        }
    }

    #[test]
    fn one_shot_decode_takes_exactly_one_whole_frame() {
        let frame = request_frame::<CounterSpec>(4, 8, 15, &CounterOp::Add(16));
        let bytes = frame.to_bytes();
        assert_eq!(Frame::decode(&bytes), Ok(frame));
        for cut in [0, 3, bytes.len() - 1] {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::BadLength { .. }), "cut at {cut}");
        }
        let two = [&bytes[..], &bytes[..]].concat();
        let err = Frame::decode(&two).unwrap_err();
        assert!(matches!(err, WireError::BadLength { .. }), "{err:?}");
        let mut flipped = bytes;
        *flipped.last_mut().expect("non-empty") ^= 1;
        let err = Frame::decode(&flipped).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn truncated_header_is_an_error_with_context() {
        let mut dec = FrameDecoder::new();
        dec.push(&3u32.to_le_bytes()); // claims 3 bytes: shorter than a header
        dec.push(&[0, 0, 0]);
        match dec.next_frame() {
            Err(WireError::BadLength { len, buffered }) => {
                assert_eq!(len, 3);
                assert_eq!(buffered, 7, "4 prefix bytes + 3 body bytes held");
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.push(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        dec.push(&[0; 64]); // a taste of the "frame" — far less than claimed
        let err = dec.next_frame().unwrap_err();
        match err {
            WireError::BadLength { len, buffered } => {
                assert_eq!(len, MAX_FRAME_LEN as u64 + 1);
                assert_eq!(buffered, 68);
                assert!(!err.is_recoverable());
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
        // The error message carries both context fields.
        let msg = err.to_string();
        assert!(msg.contains("1048577") && msg.contains("68"), "{msg}");
    }

    #[test]
    fn corruption_is_caught_and_skipped() {
        let good = request_frame::<CounterSpec>(1, 9, 5, &CounterOp::Inc);
        let mut stream = good.to_bytes();
        // Flip a payload byte of the first frame (past len+crc, so framing
        // survives), then append an intact copy.
        let last = stream.len() - 1;
        stream[last] ^= 0x40;
        good.encode(&mut stream);

        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err:?}");
        assert!(err.is_recoverable());
        // The damaged frame was skipped: the next call yields the clean copy.
        assert_eq!(dec.next_frame().unwrap(), Some(good));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn control_frames_round_trip() {
        let req = request_frame::<CounterSpec>(2, 11, 99, &CounterOp::Inc);
        for kind in [KIND_BUSY, KIND_UNAVAILABLE] {
            let ctl = control_frame(&req, kind);
            assert_eq!(ctl.kind, kind);
            assert_eq!((ctl.client, ctl.seq, ctl.key), (2, 11, 99));
            assert!(ctl.payload.is_empty());
            let mut dec = FrameDecoder::new();
            dec.push(&ctl.to_bytes());
            assert_eq!(dec.next_frame().unwrap(), Some(ctl));
        }
    }
}
