//! Offline stand-in for the `bytes` crate: `BytesMut` (growable writer),
//! `Bytes` (its frozen contents), and the little-endian subset of
//! `BufMut` the workspace's binary formats write with. Decoding reads
//! borrowed slices (`hydra_core::artifact::Reader`), so no `Buf` is needed.

/// Append-only byte writer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Growable byte buffer, frozen into [`Bytes`] when writing is done.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// New buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freeze into an immutable buffer.
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<BytesMut> for Vec<u8> {
    /// The written bytes, without a copy.
    fn from(buf: BytesMut) -> Vec<u8> {
        buf.data
    }
}

/// Immutable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Wrap a static byte string.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: data.to_vec(),
        }
    }

    /// Total (unread + read) length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy out the full contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Sub-range copy as a fresh `Bytes`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes {
            data: self.data[range].to_vec(),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_width_little_endian() {
        let mut w = BytesMut::with_capacity(8);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 3);
        w.put_i64_le(-42);
        w.put_f64_le(0.125);
        w[0] = 0xAA;
        let mut want = vec![0xAA, 0xBE];
        want.extend(0xDEAD_BEEFu32.to_le_bytes());
        want.extend((u64::MAX - 3).to_le_bytes());
        want.extend((-42i64).to_le_bytes());
        want.extend(0.125f64.to_le_bytes());
        assert_eq!(w.clone().freeze().to_vec(), want);
        assert_eq!(Vec::from(w), want);
    }

    #[test]
    fn slice_and_from_vec() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(s.to_vec(), vec![2, 3, 4]);
    }
}
