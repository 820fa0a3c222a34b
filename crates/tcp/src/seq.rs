//! 32-bit wrapping sequence-number arithmetic (RFC 793 style).
//!
//! Internally the connection logic works with absolute 64-bit stream
//! offsets (which cannot wrap within any simulated experiment — a terabyte
//! transfer is 2^40 bytes), but the wire format carries 32-bit sequence
//! numbers. This module provides the wrap-safe comparisons used when
//! interpreting wire values, plus the absolute↔wire mapping.

/// A 32-bit wire sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireSeq(pub u32);

impl WireSeq {
    /// Map an absolute stream offset to a wire sequence number given the
    /// connection's initial sequence number.
    pub fn from_absolute(isn: u32, offset: u64) -> WireSeq {
        WireSeq(isn.wrapping_add(offset as u32))
    }

    /// `self < other` in wrap-aware modular arithmetic (RFC 1982-style:
    /// true when the forward distance from `self` to `other` is in
    /// `(0, 2^31)`).
    pub fn before(self, other: WireSeq) -> bool {
        (other.0.wrapping_sub(self.0) as i32) > 0
    }

    /// `self > other` wrap-aware.
    pub fn after(self, other: WireSeq) -> bool {
        other.before(self)
    }

    /// Forward distance from `self` to `other` (bytes), assuming `other`
    /// is not more than 2^31 ahead.
    pub fn distance_to(self, other: WireSeq) -> u32 {
        other.0.wrapping_sub(self.0)
    }

    /// Advance by `n` bytes.
    #[allow(clippy::should_implement_trait)] // wrapping semantics differ from Add
    pub fn add(self, n: u32) -> WireSeq {
        WireSeq(self.0.wrapping_add(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_without_wrap() {
        let a = WireSeq(100);
        let b = WireSeq(200);
        assert!(a.before(b));
        assert!(!b.before(a));
        assert!(!a.before(a), "strict: a sequence does not precede itself");
        assert!(b.after(a));
        assert_eq!(a.distance_to(b), 100);
    }

    #[test]
    fn ordering_across_wrap() {
        let a = WireSeq(u32::MAX - 10);
        let b = WireSeq(5);
        assert!(a.before(b), "wrap-around: MAX-10 precedes 5");
        assert!(b.after(a));
        assert_eq!(a.distance_to(b), 16);
        assert_eq!(a.add(16), b);
    }

    #[test]
    fn absolute_mapping() {
        let isn = u32::MAX - 100;
        let w0 = WireSeq::from_absolute(isn, 0);
        let w200 = WireSeq::from_absolute(isn, 200);
        assert_eq!(w0.0, isn);
        assert!(w0.before(w200));
        assert_eq!(w0.distance_to(w200), 200);
        // Offsets beyond 2^32 alias, as on the real wire.
        let big = WireSeq::from_absolute(isn, 1 << 33);
        assert_eq!(big, w0);
    }

    #[test]
    fn half_space_boundary() {
        let a = WireSeq(0);
        // Exactly 2^31 away is "not before" in either direction with our
        // strict definition (the i32 comparison sees i32::MIN, not > 0).
        let far = WireSeq(1 << 31);
        assert!(!a.before(far));
        assert!(!far.before(a));
    }
}
