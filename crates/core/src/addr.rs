//! Multicast address spaces.
//!
//! Allocation algorithms work over an abstract index space `0..size`;
//! this module maps those indices onto real IPv4 multicast addresses.
//! The paper's deployment target is the IANA range used by sdr for
//! dynamically allocated sessions — 224.2.128.0–224.2.255.255, 32 768
//! addresses — while the full IPv4 multicast space is 2²⁸ ≈ 270 million.

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use std::fmt;
use std::net::Ipv4Addr;

/// A contiguous range of IPv4 multicast addresses used as an allocation
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrSpace {
    /// First address of the range.
    base: Ipv4Addr,
    /// Number of addresses.
    size: u32,
}

/// An allocated address: an index into an [`AddrSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl AddrSpace {
    /// The sdr dynamic range: 224.2.128.0/17 upper half, 32 768 addresses.
    /// (The paper: "the current size of the IANA range for
    /// dynamically-allocated addresses" is 65 536; sdr used the upper
    /// half for dynamic sessions.)
    pub fn sdr_dynamic() -> AddrSpace {
        AddrSpace::new(Ipv4Addr::new(224, 2, 128, 0), 32_768)
    }

    /// The 65 536-address IANA dynamic range 224.2.128.0–224.2.255.255
    /// plus 224.2.0.0–224.2.127.255, as analysed in Section 2.3.
    pub fn iana_dynamic() -> AddrSpace {
        AddrSpace::new(Ipv4Addr::new(224, 2, 0, 0), 65_536)
    }

    /// An abstract space of `size` addresses rooted at 224.2.128.0 —
    /// what the simulations use when only the size matters.
    pub fn abstract_space(size: u32) -> AddrSpace {
        AddrSpace::new(Ipv4Addr::new(224, 2, 128, 0), size)
    }

    /// Create a space; panics if the range is empty, not multicast, or
    /// overruns 239.255.255.255.
    pub fn new(base: Ipv4Addr, size: u32) -> AddrSpace {
        assert!(size > 0, "empty address space");
        assert!(base.is_multicast(), "{base} is not a multicast address");
        let last = u32::from(base) as u64 + size as u64 - 1;
        assert!(
            last <= u32::from(Ipv4Addr::new(239, 255, 255, 255)) as u64,
            "range overruns the multicast space"
        );
        AddrSpace { base, size }
    }

    /// Number of addresses.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// First address.
    pub fn base(&self) -> Ipv4Addr {
        self.base
    }

    /// The concrete IPv4 address for an index.  Panics if out of range.
    pub fn ip(&self, addr: Addr) -> Ipv4Addr {
        assert!(
            addr.0 < self.size,
            "address index {} out of space {}",
            addr.0,
            self.size
        );
        Ipv4Addr::from(u32::from(self.base) + addr.0)
    }

    /// The index for a concrete IPv4 address, if it falls in the range.
    pub fn index_of(&self, ip: Ipv4Addr) -> Option<Addr> {
        let off = u32::from(ip).checked_sub(u32::from(self.base))?;
        (off < self.size).then_some(Addr(off))
    }

    /// Whether the index is valid for this space.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 < self.size
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdr_range() {
        let s = AddrSpace::sdr_dynamic();
        assert_eq!(s.size(), 32_768);
        assert_eq!(s.ip(Addr(0)), Ipv4Addr::new(224, 2, 128, 0));
        assert_eq!(s.ip(Addr(32_767)), Ipv4Addr::new(224, 2, 255, 255));
    }

    #[test]
    fn iana_range() {
        let s = AddrSpace::iana_dynamic();
        assert_eq!(s.size(), 65_536);
        assert_eq!(s.ip(Addr(65_535)), Ipv4Addr::new(224, 2, 255, 255));
    }

    #[test]
    fn index_roundtrip() {
        let s = AddrSpace::abstract_space(1000);
        for i in [0u32, 1, 500, 999] {
            let ip = s.ip(Addr(i));
            assert_eq!(s.index_of(ip), Some(Addr(i)));
        }
        assert_eq!(s.index_of(Ipv4Addr::new(224, 1, 0, 0)), None);
        assert_eq!(s.index_of(Ipv4Addr::new(224, 2, 131, 233)), None); // 1001st
    }

    #[test]
    #[should_panic(expected = "out of space")]
    fn out_of_range_ip_panics() {
        AddrSpace::abstract_space(10).ip(Addr(10));
    }

    #[test]
    #[should_panic(expected = "not a multicast")]
    fn non_multicast_base_rejected() {
        AddrSpace::new(Ipv4Addr::new(10, 0, 0, 0), 10);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_rejected() {
        AddrSpace::new(Ipv4Addr::new(239, 255, 255, 0), 512);
    }

    #[test]
    fn contains() {
        let s = AddrSpace::abstract_space(5);
        assert!(s.contains(Addr(4)));
        assert!(!s.contains(Addr(5)));
    }
}
