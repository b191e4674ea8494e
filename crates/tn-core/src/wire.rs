//! The one bounds-checked reader every byte layout decodes through.
//!
//! The formats of this workspace (`TNCS`, the `CKPT` rank-state frame,
//! `CMF1`, `CMPS`, the store footer — DESIGN.md "Wire and file formats")
//! share no header, so there is no common frame struct; what
//! they share is the *walk*: a magic test, little-endian fields read in
//! order, counted arrays whose `count * stride` comes off the wire, and an
//! exact-length check at the end. [`Reader`] is that walk. Every read is
//! checked against the buffer, every multiplication of a wire count
//! saturates instead of wrapping, and nothing here allocates — a decoder sizes
//! its vectors from slices [`Reader::array`] has already bounded.
//!
//! Each layout's module maps the one small [`WireError`] into its own
//! error type with a `From` impl, so a decoder is a straight line of `?`.

/// Why a [`Reader`] walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The version word is not the one the decoder reads.
    Version(u16),
    /// A read ran past the end of the buffer.
    Short {
        /// Offset the read would have ended at (`usize::MAX` when a wire
        /// count overflowed it).
        wanted_end: usize,
        /// Bytes the buffer holds.
        have: usize,
    },
    /// The walk finished before the buffer did.
    Trailing {
        /// Offset the layout ends at.
        at: usize,
        /// Bytes the buffer holds.
        have: usize,
    },
}

/// The leading four bytes of `bytes` — the cheap dispatch test between
/// frame kinds — or `None` when it is shorter than a magic.
pub fn magic(bytes: &[u8]) -> Option<[u8; 4]> {
    bytes.get(..4)?.try_into().ok()
}

/// The little-endian `u16`s of an [`Reader::array`] slice.
pub fn u16s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u16> + '_ {
    bytes
        .chunks_exact(2)
        .map(|w| u16::from_le_bytes([w[0], w[1]]))
}

/// The little-endian `i32`s of an [`Reader::array`] slice.
pub fn i32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = i32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| i32::from_le_bytes([w[0], w[1], w[2], w[3]]))
}

/// The little-endian `u64`s of an [`Reader::array`] slice.
pub fn u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]))
}

/// A cursor over untrusted bytes. Cloning it is a cheap way to probe a
/// bound (`r.clone().array(n, MIN_RECORD)?`) without consuming anything.
/// Its methods are `#[inline]` because its callers are other crates: left
/// as calls, the per-field reads of `pcc`'s model decoder cost 1.8× what
/// its own private cursor did.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`, for layouts without a magic.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// A cursor just past the magic of a frame whose fixed header is
    /// `header_bytes` long (magic included).
    ///
    /// # Errors
    /// [`WireError::BadMagic`] when four bytes are present and differ,
    /// otherwise [`WireError::Short`] when the header is incomplete — so
    /// the header's own field reads cannot fail.
    #[inline]
    pub fn frame(bytes: &'a [u8], expect: [u8; 4], header_bytes: usize) -> Result<Self, WireError> {
        if magic(bytes).is_some_and(|m| m != expect) {
            return Err(WireError::BadMagic);
        }
        let mut r = Reader::new(bytes);
        if bytes.len() < header_bytes {
            return Err(r.short(header_bytes));
        }
        r.take(4)?;
        Ok(r)
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn offset(&self) -> usize {
        self.len - self.rest.len()
    }

    fn short(&self, n: usize) -> WireError {
        WireError::Short {
            wanted_end: self.offset().saturating_add(n),
            have: self.len,
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `count` records of `stride` bytes each, as one slice. The
    /// product saturates (no slice is `usize::MAX` long), so a hostile
    /// count degrades to [`WireError::Short`] rather than wrapping into a
    /// passing bound.
    #[inline]
    pub fn array(&mut self, count: usize, stride: usize) -> Result<&'a [u8], WireError> {
        self.take(count.saturating_mul(stride))
    }

    #[inline]
    fn word<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (word, rest) = self.rest.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.rest = rest;
        Ok(*word)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.word()?))
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.word()?))
    }

    /// The next little-endian `i16`.
    #[inline]
    pub fn i16(&mut self) -> Result<i16, WireError> {
        Ok(i16::from_le_bytes(self.word()?))
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.word()?))
    }

    /// The next little-endian `i32`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.word()?))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.word()?))
    }

    /// Reads the `u16` version word the `[magic][u16 version][u16 ..]`
    /// formats carry and insists on `expect`.
    #[inline]
    pub fn version_u16(&mut self, expect: u16) -> Result<(), WireError> {
        match self.u16()? {
            v if v == expect => Ok(()),
            v => Err(WireError::Version(v)),
        }
    }

    /// Ends the walk: the layout must end exactly where the buffer does.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                at: self.offset(),
                have: self.len,
            })
        }
    }
}

/// The adversarial sweep every decoder of the workspace must survive:
/// `good` decodes; every proper prefix of it and `good` plus one trailing
/// byte do not; and with any single bit of the bytes at `flip_at` flipped
/// (`0..good.len()` unless a decode is too slow for that) `decode` still
/// *returns* — it may accept a flip inside raw payload bytes, and a panic
/// fails the calling test by unwinding. Test support, public only
/// because `cfg(test)` items do not cross crates.
#[doc(hidden)]
pub fn fuzz_decoder(
    name: &str,
    good: &[u8],
    flip_at: impl IntoIterator<Item = usize>,
    mut decode: impl FnMut(&[u8]) -> bool,
) {
    assert!(decode(good), "{name}: the reference frame must decode");
    for cut in 0..good.len() {
        assert!(
            !decode(&good[..cut]),
            "{name}: accepted a {cut}-byte prefix of {} bytes",
            good.len()
        );
    }
    let mut bad = good.to_vec();
    bad.push(0);
    assert!(!decode(&bad), "{name}: accepted a trailing extra byte");
    bad.pop();
    for at in flip_at {
        for bit in 0..8 {
            bad[at] ^= 1 << bit;
            let _ = decode(&bad);
            bad[at] ^= 1 << bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_little_endian_and_offsets_advance() {
        let bytes = [
            b'A', b'B', b'C', b'D', 0x01, 0x00, 0xFE, 0xFF, 0x78, 0x56, 0x34, 0x12, 0xFF, 0xFF,
            0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 0x2A,
        ];
        let mut r = Reader::frame(&bytes, *b"ABCD", 8).unwrap();
        assert_eq!(r.offset(), 4);
        r.version_u16(1).unwrap();
        assert_eq!(r.i16(), Ok(-2));
        assert_eq!(r.u32(), Ok(0x1234_5678));
        assert_eq!(r.i32(), Ok(-1));
        assert_eq!(r.u64(), Ok(0x0807_0605_0403_0201));
        assert_eq!(r.offset(), 24);
        assert_eq!(r.u8(), Ok(0x2A));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(magic(&bytes), Some(*b"ABCD"));
        assert_eq!(magic(b"ABC"), None);
    }

    #[test]
    fn frame_tests_the_magic_before_the_header_length() {
        assert_eq!(
            Reader::frame(b"ABCX", *b"ABCD", 20).unwrap_err(),
            WireError::BadMagic
        );
        let short = WireError::Short {
            wanted_end: 20,
            have: 4,
        };
        assert_eq!(Reader::frame(b"ABCD", *b"ABCD", 20).unwrap_err(), short);
        // Too short to hold a magic at all: a truncation, not a bad magic.
        assert!(matches!(
            Reader::frame(b"AB", *b"ABCD", 20),
            Err(WireError::Short {
                wanted_end: 20,
                have: 2
            })
        ));
        let mut r = Reader::frame(b"ABCD\x07\x00", *b"ABCD", 6).unwrap();
        assert_eq!(r.version_u16(1), Err(WireError::Version(7)));
    }

    #[test]
    fn take_past_the_end_reports_where_it_would_have_ended() {
        let mut r = Reader::new(&[0u8; 10]);
        assert_eq!(r.take(4).map(<[u8]>::len), Ok(4));
        let short = WireError::Short {
            wanted_end: 11,
            have: 10,
        };
        assert_eq!(r.take(7), Err(short));
        assert_eq!(
            r.u64(),
            Err(WireError::Short {
                wanted_end: 12,
                have: 10
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.offset(), 4);
        assert_eq!(r.take(6).map(<[u8]>::len), Ok(6));
        assert_eq!(
            r.u8(),
            Err(WireError::Short {
                wanted_end: 11,
                have: 10
            })
        );
    }

    #[test]
    fn array_checks_the_product_before_the_bound() {
        let bytes = [0u8; 64];
        let mut r = Reader::new(&bytes);
        r.take(8).unwrap();
        let overflow = WireError::Short {
            wanted_end: usize::MAX,
            have: 64,
        };
        // count * stride wraps to a small number unchecked (2^63 * 2 = 0).
        assert_eq!(r.array(1 << (usize::BITS - 1), 2), Err(overflow));
        assert_eq!(r.array(usize::MAX, 3632), Err(overflow));
        // The product fits but the offset sum does not.
        assert_eq!(r.array(usize::MAX - 4, 1), Err(overflow));
        assert_eq!(
            r.array(8, 8),
            Err(WireError::Short {
                wanted_end: 72,
                have: 64
            })
        );
        assert_eq!(r.offset(), 8);
        assert_eq!(r.array(7, 8).map(<[u8]>::len), Ok(56));
        assert_eq!(r.array(0, 3632).map(<[u8]>::len), Ok(0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u16().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing { at: 2, have: 3 }));
    }

    #[test]
    fn typed_views_read_whole_records_only() {
        let bytes = [1, 0, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(u16s(&bytes).collect::<Vec<_>>(), [1, 2, 0xFFFF, 0xFFFF]);
        assert_eq!(i32s(&bytes).collect::<Vec<_>>(), [0x0002_0001, -1]);
        assert_eq!(u64s(&bytes).collect::<Vec<_>>(), [0xFFFF_FFFF_0002_0001]);
        assert_eq!(u64s(&bytes[..7]).len(), 0);
    }

    #[test]
    fn fuzz_decoder_accepts_a_strict_decoder() {
        let strict = |b: &[u8]| {
            let walk = || -> Result<u8, WireError> {
                let mut r = Reader::frame(b, *b"TEST", 6)?;
                let n = r.u16()? as usize;
                let sum = r.array(n, 2)?.iter().fold(0u8, |a, &x| a ^ x);
                r.finish()?;
                Ok(sum)
            };
            walk().is_ok()
        };
        fuzz_decoder("TEST", b"TEST\x02\x00abcd", 0..10, strict);
    }

    #[test]
    #[should_panic(expected = "accepted a trailing extra byte")]
    fn fuzz_decoder_catches_a_decoder_that_ignores_trailing_bytes() {
        let lax = |b: &[u8]| b.len() >= 5 && b.starts_with(b"LAX!");
        fuzz_decoder("LAX", b"LAX!\x01", 0..5, lax);
    }
}
