//! Frame layer: length-prefixed binary frames with a versioned header.
//!
//! Every message on a front-door connection is one frame:
//!
//! | offset | size | field                                   |
//! |--------|------|-----------------------------------------|
//! | 0      | 4    | magic `b"SCPN"`                         |
//! | 4      | 2    | protocol version (little-endian, = 1)   |
//! | 6      | 1    | frame type (see [`frame_type`])         |
//! | 7      | 1    | reserved (must be 0)                    |
//! | 8      | 4    | payload length (little-endian)          |
//! | 12     | n    | payload (`cloudviews::codec` bytes)      |
//!
//! The header is fixed-size and validated before a single payload byte is
//! read, so a malformed peer costs at most 12 bytes of buffering: bad magic,
//! an unknown version, an unknown frame type, or an oversized length prefix
//! all fail fast without allocation. Compatibility rule: the version is
//! bumped on *any* payload-encoding change — there are no in-band optional
//! fields, so both peers must speak the same version and a mismatch is
//! answered with an error frame, never guessed at.

use std::fmt;
use std::io::{Read, Write};

/// Frame magic: first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SCPN";

/// Protocol version carried in every frame header.
pub const VERSION: u16 = 1;

/// Hard ceiling on payload size (16 MiB). A length prefix above this is
/// rejected before any allocation, bounding what a hostile peer can make
/// the server buffer.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Frame type tags. Requests are `0x01..=0x05`, responses set the high bit
/// (`0x81..=0x85`), and `0xE0` is the error frame that can answer any
/// request.
pub mod frame_type {
    /// Annotation lookup request.
    pub const LOOKUP: u8 = 0x01;
    /// Build-lock proposal request.
    pub const PROPOSE: u8 = 0x02;
    /// Materialization report request.
    pub const REPORT: u8 = 0x03;
    /// Full purge sweep request.
    pub const PURGE: u8 = 0x04;
    /// Service-counter snapshot request.
    pub const STATS: u8 = 0x05;
    /// Lookup response.
    pub const LOOKUP_OK: u8 = 0x81;
    /// Propose response.
    pub const PROPOSE_OK: u8 = 0x82;
    /// Report acknowledgement.
    pub const REPORT_OK: u8 = 0x83;
    /// Purge response.
    pub const PURGE_OK: u8 = 0x84;
    /// Stats response.
    pub const STATS_OK: u8 = 0x85;
    /// Error frame (any request may be answered with one).
    pub const ERROR: u8 = 0xE0;
}

/// Everything that can go wrong at the frame and codec layers.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes timeouts and peer disconnects).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// Unknown frame type tag.
    BadFrameType(u8),
    /// Length prefix above [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload did not decode (truncated, bad tag, trailing bytes, ...).
    Malformed(String),
}

impl WireError {
    /// True when the error came from the socket rather than the protocol —
    /// the connection is gone (or timed out) and there is nobody to answer.
    pub fn is_io(&self) -> bool {
        matches!(self, WireError::Io(_))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Payload decoding keeps using `?`: a codec failure is a malformed frame.
impl From<scope_common::codec::CodecError> for WireError {
    fn from(e: scope_common::codec::CodecError) -> WireError {
        WireError::Malformed(e.0)
    }
}

fn known_frame_type(t: u8) -> bool {
    matches!(t, 0x01..=0x05 | 0x81..=0x85 | frame_type::ERROR)
}

/// Writes one frame (header + payload) to `w` as a **single** write.
///
/// One write matters on a TCP stream: header and payload in separate
/// writes lets Nagle hold the second one for the peer's delayed ACK
/// (~40 ms per request — three orders of magnitude over the loopback
/// round trip). The copy into one buffer is cheap; the stall is not.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(WireError::Oversized(payload.len() as u32));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.push(ty);
    frame.push(0);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Validates a complete 12-byte header, returning the frame type and
/// payload length.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ty = header[6];
    if !known_frame_type(ty) {
        return Err(WireError::BadFrameType(ty));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((ty, len))
}

/// Reads one frame from `r`, validating the header before buffering the
/// payload. Returns the frame type and payload bytes.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (ty, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((ty, payload))
}
