//! The length-prefixed wire frame every hydra-net message travels in.
//!
//! Layout (little-endian, `HYLM`/`HYSX` artifact-codec style):
//!
//! ```text
//! magic "HYNF" (4) | version u16 | kind u8 | payload_len u32 | payload_fnv u64 | payload
//! ```
//!
//! The FNV-1a checksum covers the payload bytes, so a torn write that
//! truncates *inside* the payload is caught even when the length field
//! survived. Decoding goes through `hydra-core`'s checked [`Reader`]:
//! every malformed input — bad magic, future version, any truncation
//! prefix, checksum mismatch — surfaces a typed [`ModelIoError`] with
//! byte offset and section, never a panic (`tests/wire_faults.rs` pins
//! every prefix).

use crate::NetError;
use bytes::{BufMut, BytesMut};
use hydra_core::artifact::{fnv1a, ModelIoError, Reader};
use std::io::{Read, Write};

/// Frame magic: "HYNF" (HYdra Net Frame).
pub const MAGIC: [u8; 4] = *b"HYNF";
/// Wire-protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 8;
/// Upper bound on a frame payload — a length field past this is corrupt
/// input, not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// One wire frame: a message kind tag plus its encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (see [`crate::message`] for the registry).
    pub kind: u8,
    /// Encoded message payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Wrap an encoded payload.
    pub fn new(kind: u8, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }

    /// Serialize header + payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        w.put_slice(&MAGIC);
        w.put_u16_le(VERSION);
        w.put_slice(&[self.kind]);
        w.put_u32_le(self.payload.len() as u32);
        w.put_u64_le(fnv1a(&self.payload));
        w.put_slice(&self.payload);
        w.freeze().to_vec()
    }

    /// Decode one frame from a byte buffer, returning the frame and the
    /// bytes consumed. Every malformed input errors with offset + section
    /// diagnostics.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Frame, usize), ModelIoError> {
        let mut r = Reader::new(bytes);
        let header = Header::read(&mut r)?;
        r.set_section("frame payload");
        let payload = r.bytes(header.len)?;
        Ok((header.frame(payload.to_vec())?, HEADER_LEN + header.len))
    }

    /// Write the frame to a socket (or any writer), flushing.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())?;
        w.flush()
    }

    /// Read one frame from a socket (or any reader). A connection torn
    /// down mid-frame surfaces as a typed
    /// [`ModelIoError::Truncated`] (offset = bytes received, section
    /// names the frame part that was cut), exactly like a truncated
    /// artifact file; other socket failures surface as
    /// [`NetError::Io`].
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Frame, NetError> {
        let mut fixed = [0u8; HEADER_LEN];
        read_exact_or_truncated(r, &mut fixed, "frame header", 0)?;
        let header = Header::read(&mut Reader::new(&fixed))?;
        let mut payload = vec![0u8; header.len];
        read_exact_or_truncated(r, &mut payload, "frame payload", HEADER_LEN)?;
        Ok(header.frame(payload)?)
    }
}

/// The fixed frame header, parsed and verified — the one place magic,
/// version, and the payload-length cap are checked, whether the bytes came
/// from a buffer ([`Frame::from_bytes`]) or a socket ([`Frame::read_from`]).
struct Header {
    kind: u8,
    len: usize,
    checksum: u64,
}

impl Header {
    fn read(r: &mut Reader) -> Result<Header, ModelIoError> {
        r.set_section("frame header");
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(ModelIoError::BadMagic {
                expected: MAGIC,
                found,
            });
        }
        let version = r.u16()?;
        if version == 0 || version > VERSION {
            return Err(ModelIoError::UnsupportedVersion {
                found: version,
                max: VERSION,
            });
        }
        let kind = r.u8()?;
        let len = r.u32()? as usize;
        if len > MAX_PAYLOAD {
            return Err(r.corrupt(format!(
                "frame payload length {len} exceeds cap {MAX_PAYLOAD}"
            )));
        }
        let checksum = r.u64()?;
        Ok(Header {
            kind,
            len,
            checksum,
        })
    }

    /// Verify the payload against the header's checksum and assemble the
    /// frame.
    fn frame(&self, payload: Vec<u8>) -> Result<Frame, ModelIoError> {
        let actual = fnv1a(&payload);
        if actual != self.checksum {
            return Err(ModelIoError::Corrupt {
                offset: HEADER_LEN,
                section: "frame payload",
                what: format!(
                    "payload checksum mismatch: header says {:#018x}, bytes hash to {actual:#018x}",
                    self.checksum
                ),
            });
        }
        Ok(Frame {
            kind: self.kind,
            payload,
        })
    }
}

/// `read_exact` that reports EOF-mid-read as a typed truncation (the
/// socket analogue of a truncated artifact file) instead of a bare
/// `UnexpectedEof`.
fn read_exact_or_truncated<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    section: &'static str,
    offset_base: usize,
) -> Result<(), NetError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(NetError::Decode(ModelIoError::Truncated {
                    offset: offset_base + got,
                    needed: buf.len() - got,
                    remaining: 0,
                    section,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let f = Frame::new(7, vec![1, 2, 3, 250]);
        let bytes = f.to_bytes();
        let (back, used) = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
        // And through the stream path.
        let mut cursor = std::io::Cursor::new(bytes);
        let streamed = Frame::read_from(&mut cursor).unwrap();
        assert_eq!(streamed, f);
    }

    #[test]
    fn every_prefix_truncation_is_typed() {
        let bytes = Frame::new(3, vec![9; 17]).to_bytes();
        for cut in 0..bytes.len() {
            let err = Frame::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelIoError::Truncated { .. } | ModelIoError::BadMagic { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum() {
        let mut bytes = Frame::new(1, vec![5; 8]).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::from_bytes(&bytes).unwrap_err(),
            ModelIoError::BadMagic { .. }
        ));

        let mut bytes = Frame::new(1, vec![5; 8]).to_bytes();
        bytes[4] = 0xFF; // version -> 0xFF01
        assert!(matches!(
            Frame::from_bytes(&bytes).unwrap_err(),
            ModelIoError::UnsupportedVersion { .. }
        ));

        let mut bytes = Frame::new(1, vec![5; 8]).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit under an intact header
        let err = Frame::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Corrupt { ref what, .. } if what.contains("checksum")),
            "{err}"
        );
    }
}
