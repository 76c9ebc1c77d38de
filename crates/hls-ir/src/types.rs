//! Integer value types for the HLS intermediate representation.
//!
//! The IR is integer-only (the C subset accepted by the front end has no
//! floating point). A [`Type`] is a bit-width between 1 and 64 plus a
//! signedness flag. All arithmetic is two's-complement and wraps modulo
//! `2^width`, matching both C semantics on fixed-width integers and the
//! behaviour of synthesized datapaths.

use std::fmt;

/// An integer type: a bit-width (1..=64) and a signedness flag.
///
/// # Examples
///
/// ```
/// use hls_ir::Type;
/// let t = Type::int(32, true);
/// assert_eq!(t.width(), 32);
/// assert!(t.is_signed());
/// assert_eq!(t.to_string(), "i32");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Type {
    width: u8,
    signed: bool,
}

impl Type {
    /// The 1-bit unsigned type used for comparison results and branch tests.
    pub const BOOL: Type = Type { width: 1, signed: false };
    /// Signed 8-bit (C `char`).
    pub const I8: Type = Type { width: 8, signed: true };
    /// Signed 16-bit (C `short`).
    pub const I16: Type = Type { width: 16, signed: true };
    /// Signed 32-bit (C `int`).
    pub const I32: Type = Type { width: 32, signed: true };
    /// Signed 64-bit (C `long long`).
    pub const I64: Type = Type { width: 64, signed: true };
    /// Unsigned 8-bit.
    pub const U8: Type = Type { width: 8, signed: false };
    /// Unsigned 16-bit.
    pub const U16: Type = Type { width: 16, signed: false };
    /// Unsigned 32-bit.
    pub const U32: Type = Type { width: 32, signed: false };
    /// Unsigned 64-bit.
    pub const U64: Type = Type { width: 64, signed: false };

    /// Creates an integer type with the given width and signedness.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn int(width: u8, signed: bool) -> Type {
        assert!((1..=64).contains(&width), "type width must be in 1..=64, got {width}");
        Type { width, signed }
    }

    /// The bit-width of this type.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Whether values of this type are interpreted as two's-complement signed.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Bit mask with the low `width` bits set.
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Truncates `raw` to this type's width (keeping the low bits).
    pub fn truncate(&self, raw: u64) -> u64 {
        raw & self.mask()
    }

    /// Interprets `raw` (already truncated to this width) as an `i64`
    /// according to this type's signedness.
    pub fn to_signed(&self, raw: u64) -> i64 {
        let raw = self.truncate(raw);
        if self.signed && self.width < 64 {
            let sign_bit = 1u64 << (self.width - 1);
            if raw & sign_bit != 0 {
                (raw | !self.mask()) as i64
            } else {
                raw as i64
            }
        } else {
            raw as i64
        }
    }

    /// Encodes the signed value `v` into this type's raw representation,
    /// wrapping modulo `2^width`.
    pub fn from_signed(&self, v: i64) -> u64 {
        self.truncate(v as u64)
    }

    /// Sign- or zero-extends a raw value of this type to a raw value of
    /// `target` (used by implicit C integer conversions).
    pub fn convert_to(&self, raw: u64, target: Type) -> u64 {
        if self.signed {
            target.from_signed(self.to_signed(raw))
        } else {
            target.truncate(self.truncate(raw))
        }
    }

    /// Minimum number of bits needed to represent the raw constant `raw`
    /// when interpreted in this type (used by the bit-width-aware datapath
    /// sizing that TAO's constant obfuscation deliberately defeats).
    pub fn significant_bits(&self, raw: u64) -> u8 {
        let v = self.to_signed(raw);
        if self.signed {
            // Bits needed for a two's-complement representation.
            if v >= 0 {
                (64 - (v as u64).leading_zeros() as u8) + 1
            } else {
                65 - ((!(v as u64)).leading_zeros() as u8)
            }
            .clamp(1, self.width)
        } else {
            ((64 - raw.leading_zeros()) as u8).clamp(1, self.width)
        }
    }
}

impl Default for Type {
    fn default() -> Self {
        Type::I32
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.signed { "i" } else { "u" }, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_and_truncate() {
        assert_eq!(Type::U8.mask(), 0xff);
        assert_eq!(Type::U64.mask(), u64::MAX);
        assert_eq!(Type::BOOL.mask(), 1);
        assert_eq!(Type::U8.truncate(0x1ff), 0xff);
    }

    #[test]
    fn signed_roundtrip() {
        let t = Type::I8;
        assert_eq!(t.to_signed(t.from_signed(-1)), -1);
        assert_eq!(t.to_signed(t.from_signed(127)), 127);
        assert_eq!(t.to_signed(t.from_signed(128)), -128); // wraps
        assert_eq!(t.to_signed(0xff), -1);
    }

    #[test]
    fn unsigned_interpretation() {
        let t = Type::U8;
        assert_eq!(t.to_signed(0xff), 255);
        assert_eq!(t.from_signed(-1), 0xff);
    }

    #[test]
    fn conversions_extend_correctly() {
        // Sign extension i8 -> i32.
        assert_eq!(Type::I8.convert_to(0xff, Type::I32), 0xffff_ffff);
        // Zero extension u8 -> i32.
        assert_eq!(Type::U8.convert_to(0xff, Type::I32), 0xff);
        // Truncation i32 -> u8.
        assert_eq!(Type::I32.convert_to(0x1_2345, Type::U8), 0x45);
    }

    #[test]
    fn significant_bits_examples() {
        // 10 needs 5 bits signed (01010), as in the paper's Section 3.3.2 example.
        assert_eq!(Type::I32.significant_bits(10), 5);
        assert_eq!(Type::U32.significant_bits(10), 4);
        assert_eq!(Type::I32.significant_bits(Type::I32.from_signed(-1)), 1);
        assert_eq!(Type::U8.significant_bits(0), 1);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        Type::int(0, false);
    }

    #[test]
    fn display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::U16.to_string(), "u16");
        assert_eq!(Type::BOOL.to_string(), "u1");
    }
}
