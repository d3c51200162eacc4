//! Typed physical addresses and page arithmetic.

/// Base-2 logarithm of the page size (4 KB pages, as on x86-64 and in the
/// paper's Intel VT-d setup).
pub const PAGE_SHIFT: u32 = 12;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A host physical address.
///
/// A newtype rather than a bare `u64` so that physical addresses and IO
/// virtual addresses (`fns_iova::Iova`) can never be confused — the entire
/// point of IO memory protection is that devices see only the latter.
///
/// # Examples
///
/// ```
/// use fns_mem::addr::{PhysAddr, PAGE_SIZE};
///
/// let pa = PhysAddr::new(3 * PAGE_SIZE + 17);
/// assert_eq!(pa.page_base().as_u64(), 3 * PAGE_SIZE);
/// assert_eq!(pa.page_offset(), 17);
/// assert!(!pa.is_page_aligned());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

fns_snap::snap_fields!(PhysAddr { 0 });

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Address of the start of the containing 4 KB page.
    pub const fn page_base(self) -> Self {
        Self(self.0 & !(PAGE_SIZE - 1))
    }

    /// Byte offset within the containing page.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Page frame number (address divided by the page size).
    pub const fn pfn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Returns `true` if the address is 4 KB aligned.
    pub const fn is_page_aligned(self) -> bool {
        self.page_offset() == 0
    }

    /// Address `bytes` past this one.
    ///
    /// # Panics
    ///
    /// Panics on overflow (debug and release): a wrapped physical address is
    /// always a model bug.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Self {
        Self(
            self.0
                .checked_add(bytes)
                .expect("physical address overflow"),
        )
    }

    /// Constructs the address of page frame number `pfn`.
    pub const fn from_pfn(pfn: u64) -> Self {
        Self(pfn << PAGE_SHIFT)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let pa = PhysAddr::new(0x1234);
        assert_eq!(pa.page_base(), PhysAddr::new(0x1000));
        assert_eq!(pa.page_offset(), 0x234);
        assert_eq!(pa.pfn(), 1);
        assert!(!pa.is_page_aligned());
        assert!(pa.page_base().is_page_aligned());
    }

    #[test]
    fn pfn_roundtrip() {
        for pfn in [0u64, 1, 7, 123_456] {
            assert_eq!(PhysAddr::from_pfn(pfn).pfn(), pfn);
            assert!(PhysAddr::from_pfn(pfn).is_page_aligned());
        }
    }

    #[test]
    fn add_offsets() {
        let pa = PhysAddr::new(0x1000);
        assert_eq!(pa.add(0x10).as_u64(), 0x1010);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        PhysAddr::new(u64::MAX).add(1);
    }

    #[test]
    fn display() {
        assert_eq!(PhysAddr::new(0x1000).to_string(), "PA:0x1000");
    }
}
