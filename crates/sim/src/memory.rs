//! Byte-addressable data memory.
//!
//! The modeled device keeps data in a flat, little-endian, byte-addressable
//! memory. Whether that memory is volatile SRAM paired with non-volatile
//! backup (Clank-style) or FRAM integrated into the pipeline (NVP-style) is
//! a policy decision made by `wn-intermittent`; the simulator just reads
//! and writes bytes and reports each access so the intermittency layer can
//! track idempotency violations and buffer writes.

use std::borrow::Cow;

use crate::error::SimError;

/// Kind of data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u32,
    /// Access size in bytes (1, 2 or 4).
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// For writes: the value the location held *before* the store
    /// (zero-extended). Lets checkpointing substrates maintain an undo
    /// log without shadowing all of memory. Zero for reads.
    pub prev: u32,
}

impl MemAccess {
    /// A read access.
    pub fn read(addr: u32, size: u32) -> MemAccess {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Read,
            prev: 0,
        }
    }

    /// A write access recording the overwritten value.
    pub fn write(addr: u32, size: u32, prev: u32) -> MemAccess {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Write,
            prev,
        }
    }
}

/// Flat little-endian data memory with aligned accesses.
///
/// The logical memory is `size` bytes; only a prefix of it is backed.
/// The backing vector runs to the highest imaged or written byte (in
/// whole words), and everything above it reads as zero, so cloning a
/// core copies its data, not its whole address space. Faults are
/// checked against `size` alone, and equality compares logical
/// contents.
#[derive(Debug, Clone)]
pub struct Memory {
    /// The backed prefix; its length is a multiple of four, so an
    /// aligned access lies wholly inside it or wholly above it.
    bytes: Vec<u8>,
    size: usize,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        let (short, long) = if self.bytes.len() <= other.bytes.len() {
            (&self.bytes, &other.bytes)
        } else {
            (&other.bytes, &self.bytes)
        };
        self.size == other.size
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&b| b == 0)
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Memory {
        Memory {
            bytes: Vec::new(),
            size,
        }
    }

    /// Creates a memory of `size` bytes initialized from `image` at
    /// address 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DataImageTooLarge`] if the image does not fit.
    pub fn with_image(size: usize, image: &[u8]) -> Result<Memory, SimError> {
        if image.len() > size {
            return Err(SimError::DataImageTooLarge {
                image: image.len(),
                mem_size: size,
            });
        }
        let mut bytes = image.to_vec();
        bytes.resize(image.len().next_multiple_of(4), 0);
        Ok(Memory { bytes, size })
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn check(&self, addr: u32, size: u32) -> Result<usize, SimError> {
        if size > 1 && !addr.is_multiple_of(size) {
            return Err(SimError::Unaligned {
                addr,
                required: size,
            });
        }
        let end = addr as u64 + size as u64;
        if end > self.size as u64 {
            return Err(SimError::MemOutOfRange {
                addr,
                size,
                mem_size: self.size as u32,
            });
        }
        Ok(addr as usize)
    }

    /// Reads `N` bytes at a checked, aligned address: zeros above the
    /// backed prefix.
    #[inline]
    fn read<const N: usize>(&self, i: usize) -> [u8; N] {
        match self.bytes.get(i..i + N) {
            Some(b) => b.try_into().expect("N-byte range"),
            None => [0; N],
        }
    }

    /// The backed bytes `i..end`, growing the backing to cover them.
    #[inline]
    fn backed_mut(&mut self, i: usize, end: usize) -> &mut [u8] {
        if end > self.bytes.len() {
            self.grow(end);
        }
        &mut self.bytes[i..end]
    }

    #[cold]
    fn grow(&mut self, end: usize) {
        self.bytes.resize(end.next_multiple_of(4), 0);
    }

    /// Loads a byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemOutOfRange`] for addresses past the end.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> Result<u8, SimError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes.get(i).copied().unwrap_or(0))
    }

    /// Loads an aligned little-endian halfword.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unaligned`] or [`SimError::MemOutOfRange`].
    #[inline]
    pub fn load_u16(&self, addr: u32) -> Result<u16, SimError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(self.read(i)))
    }

    /// Loads an aligned little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unaligned`] or [`SimError::MemOutOfRange`].
    #[inline]
    pub fn load_u32(&self, addr: u32) -> Result<u32, SimError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.read(i)))
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemOutOfRange`] for addresses past the end.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), SimError> {
        let i = self.check(addr, 1)?;
        self.backed_mut(i, i + 1)[0] = value;
        Ok(())
    }

    /// Stores an aligned little-endian halfword.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unaligned`] or [`SimError::MemOutOfRange`].
    #[inline]
    pub fn store_u16(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        let i = self.check(addr, 2)?;
        self.backed_mut(i, i + 2)
            .copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Stores an aligned little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unaligned`] or [`SimError::MemOutOfRange`].
    #[inline]
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        let i = self.check(addr, 4)?;
        self.backed_mut(i, i + 4)
            .copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a byte range (for quality sampling of output regions):
    /// borrowed where it is backed, zero-filled above.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemOutOfRange`] if the range does not fit.
    pub fn slice(&self, addr: u32, len: u32) -> Result<Cow<'_, [u8]>, SimError> {
        let end = addr as u64 + len as u64;
        if end > self.size as u64 {
            return Err(SimError::MemOutOfRange {
                addr,
                size: len,
                mem_size: self.size as u32,
            });
        }
        let (start, end) = (addr as usize, end as usize);
        Ok(match self.bytes.get(start..end) {
            Some(b) => Cow::Borrowed(b),
            None => {
                let mut out = vec![0; end - start];
                if let Some(backed) = self.bytes.get(start..) {
                    out[..backed.len()].copy_from_slice(backed);
                }
                Cow::Owned(out)
            }
        })
    }

    /// Copies `data` into memory starting at `addr` (host-side input
    /// injection, modeling a sensor DMA).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemOutOfRange`] if the range does not fit.
    pub fn write_slice(&mut self, addr: u32, data: &[u8]) -> Result<(), SimError> {
        let end = addr as u64 + data.len() as u64;
        if end > self.size as u64 {
            return Err(SimError::MemOutOfRange {
                addr,
                size: data.len() as u32,
                mem_size: self.size as u32,
            });
        }
        let start = addr as usize;
        self.backed_mut(start, start + data.len())
            .copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new(64);
        m.store_u8(3, 0xAB).unwrap();
        assert_eq!(m.load_u8(3).unwrap(), 0xAB);
        m.store_u16(4, 0xBEEF).unwrap();
        assert_eq!(m.load_u16(4).unwrap(), 0xBEEF);
        m.store_u32(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load_u32(8).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(8);
        m.store_u32(0, 0x0403_0201).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 1);
        assert_eq!(m.load_u8(3).unwrap(), 4);
        assert_eq!(m.load_u16(0).unwrap(), 0x0201);
        assert_eq!(m.load_u16(2).unwrap(), 0x0403);
    }

    #[test]
    fn rejects_unaligned() {
        let mut m = Memory::new(16);
        assert_eq!(
            m.load_u32(2),
            Err(SimError::Unaligned {
                addr: 2,
                required: 4
            })
        );
        assert_eq!(
            m.load_u16(1),
            Err(SimError::Unaligned {
                addr: 1,
                required: 2
            })
        );
        assert_eq!(
            m.store_u32(6, 0),
            Err(SimError::Unaligned {
                addr: 6,
                required: 4
            })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let m = Memory::new(8);
        assert!(m.load_u8(8).is_err());
        assert!(m.load_u32(8).is_err());
        assert!(m.load_u32(u32::MAX - 3).is_err());
        assert!(m.slice(4, 5).is_err());
    }

    #[test]
    fn image_initialization() {
        let m = Memory::with_image(8, &[1, 2, 3]).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 1);
        assert_eq!(m.load_u8(3).unwrap(), 0);
        assert!(Memory::with_image(2, &[1, 2, 3]).is_err());
    }

    #[test]
    fn unbacked_memory_reads_zero_and_grows_on_store() {
        let mut m = Memory::with_image(64, &[1, 2, 3]).unwrap();
        assert_eq!(m.bytes.len(), 4, "backed to the image, in whole words");
        assert_eq!(m.load_u32(60).unwrap(), 0);
        assert_eq!(m.load_u16(62).unwrap(), 0);
        assert_eq!(m.load_u8(63).unwrap(), 0);
        assert_eq!(m.slice(2, 8).unwrap().as_ref(), &[3, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(m.slice(40, 4).unwrap().as_ref(), &[0; 4]);
        // Faults are checked against the logical size, backed or not.
        assert!(m.load_u32(64).is_err());
        assert!(m.store_u8(64, 1).is_err());
        assert_eq!(
            m.load_u32(58),
            Err(SimError::Unaligned {
                addr: 58,
                required: 4
            })
        );
        // Equal contents are equal memories, however much is backed.
        let image = Memory::with_image(64, &[1, 2, 3]).unwrap();
        m.store_u8(41, 0).unwrap();
        assert_eq!(m.bytes.len(), 44);
        assert_eq!(m, image);
        m.store_u16(42, 0xBEEF).unwrap();
        assert_ne!(m, image);
        assert_eq!(m.load_u16(42).unwrap(), 0xBEEF);
        assert_eq!(m.load_u32(40).unwrap(), 0xBEEF_0000);
        assert_ne!(Memory::new(64), Memory::new(68), "sizes differ");
    }

    #[test]
    fn write_slice_and_slice() {
        let mut m = Memory::new(16);
        m.write_slice(4, &[9, 8, 7]).unwrap();
        assert_eq!(m.slice(4, 3).unwrap().as_ref(), &[9, 8, 7]);
        assert!(m.write_slice(15, &[1, 2]).is_err());
    }

    proptest! {
        #[test]
        fn u32_roundtrip(addr in 0u32..15, value in any::<u32>()) {
            let mut m = Memory::new(64);
            let addr = addr * 4;
            m.store_u32(addr, value).unwrap();
            prop_assert_eq!(m.load_u32(addr).unwrap(), value);
        }

        #[test]
        fn u32_equals_byte_composition(value in any::<u32>()) {
            let mut m = Memory::new(8);
            m.store_u32(0, value).unwrap();
            let composed = (m.load_u8(0).unwrap() as u32)
                | ((m.load_u8(1).unwrap() as u32) << 8)
                | ((m.load_u8(2).unwrap() as u32) << 16)
                | ((m.load_u8(3).unwrap() as u32) << 24);
            prop_assert_eq!(composed, value);
        }
    }
}
