//! A region-based memory map with permissions and a precise fault taxonomy.
//!
//! The fault kinds mirror the outcome classes of the paper's emulation
//! experiments (§IV): reads from unmapped memory become *Bad Read*, fetches
//! from unmapped memory become *Bad Fetch*, and so on.

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Access permissions for a [`Region`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub execute: bool,
}

impl Perms {
    /// Read + write + execute.
    pub const RWX: Perms = Perms { read: true, write: true, execute: true };
    /// Read + execute (flash).
    pub const RX: Perms = Perms { read: true, write: false, execute: true };
    /// Read + write (RAM, peripherals).
    pub const RW: Perms = Perms { read: true, write: true, execute: false };
    /// Read only.
    pub const R: Perms = Perms { read: true, write: false, execute: false };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bit = |b: bool, ch: char| if b { ch } else { '-' };
        write!(f, "{}{}{}", bit(self.read, 'r'), bit(self.write, 'w'), bit(self.execute, 'x'))
    }
}

/// The kind of memory access that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Fetch,
}

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// No region covers the address.
    Unmapped,
    /// A region covers the address but forbids this access.
    Protected,
    /// The address is not aligned to the access width.
    Unaligned,
}

/// A memory fault: address, access type, and cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u32,
    /// What kind of access was attempted.
    pub access: Access,
    /// Why it failed.
    pub kind: FaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let access = match self.access {
            Access::Read => "read",
            Access::Write => "write",
            Access::Fetch => "fetch",
        };
        let kind = match self.kind {
            FaultKind::Unmapped => "unmapped",
            FaultKind::Protected => "protected",
            FaultKind::Unaligned => "unaligned",
        };
        write!(f, "{kind} {access} at {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Log2 of the dirty-tracking page size: 256-byte pages. Aligned
/// accesses (at most 4 bytes) never straddle a page.
const PAGE_SHIFT: u32 = 8;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// One mapped memory region.
#[derive(Debug, Clone)]
pub struct Region {
    name: String,
    base: u32,
    perms: Perms,
    data: Vec<u8>,
    /// One bit per page stored to since the last [`Memory::restore`]
    /// (empty until the first store).
    dirty: Vec<u64>,
}

impl Region {
    /// Region name (e.g. `"flash"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First address of the region.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Permissions.
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// Raw contents.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    fn contains(&self, addr: u32) -> bool {
        addr >= self.base && u64::from(addr) < u64::from(self.base) + self.data.len() as u64
    }

    /// Marks the page holding byte offset `i` as stored to. The bitmap
    /// is allocated on the first store: regions of short-lived emulators
    /// that are never restored (one boot per trial) skip the allocation.
    fn mark(&mut self, i: usize) {
        let page = i >> PAGE_SHIFT;
        if self.dirty.is_empty() {
            self.dirty = vec![0; self.data.len().div_ceil(PAGE_SIZE).div_ceil(64)];
        }
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    /// Copies every dirty page back from `pristine` and clears the bitmap.
    fn restore_dirty(&mut self, pristine: &[u8]) {
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) * PAGE_SIZE;
                let end = (start + PAGE_SIZE).min(self.data.len());
                self.data[start..end].copy_from_slice(&pristine[start..end]);
                bits &= bits - 1;
            }
        }
    }
}

/// Error returned by [`Memory::map`] for overlapping or empty regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    msg: String,
}

impl MapError {
    /// A free-form mapping error (used by loaders layered on `Memory`).
    pub fn other(msg: impl Into<String>) -> MapError {
        MapError { msg: msg.into() }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mapping error: {}", self.msg)
    }
}

impl std::error::Error for MapError {}

/// The full memory map of an emulated system.
///
/// ```
/// use gd_emu::{Memory, Perms};
/// let mut mem = Memory::new();
/// mem.map("sram", 0x2000_0000, 0x1000, Perms::RW)?;
/// mem.write32(0x2000_0010, 0xDEAD_BEEF)?;
/// assert_eq!(mem.read32(0x2000_0010)?, 0xDEAD_BEEF);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    regions: Vec<Region>,
    write_epoch: u64,
    /// Id of the snapshot this memory was last restored to (0: none).
    /// Contents equal that snapshot everywhere except on dirty pages and
    /// bytes written by the loader since.
    restored_to: u64,
}

/// A copy of every region's contents, created by [`Memory::snapshot`].
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    /// Process-unique, never 0.
    id: u64,
    data: Vec<Vec<u8>>,
    write_epoch: u64,
}

/// Source of [`MemSnapshot`] ids.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

impl Memory {
    /// An empty memory map.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps a zero-filled region.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the region is empty, wraps the address space,
    /// or overlaps an existing region.
    pub fn map(&mut self, name: &str, base: u32, size: u32, perms: Perms) -> Result<(), MapError> {
        self.map_with_data(name, base, vec![0; size as usize], perms)
    }

    /// Maps a region initialized with `data`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::map`].
    pub fn map_with_data(
        &mut self,
        name: &str,
        base: u32,
        data: Vec<u8>,
        perms: Perms,
    ) -> Result<(), MapError> {
        if data.is_empty() {
            return Err(MapError { msg: format!("region `{name}` is empty") });
        }
        if u64::from(base) + data.len() as u64 > 1 << 32 {
            return Err(MapError { msg: format!("region `{name}` wraps the address space") });
        }
        let end = u64::from(base) + data.len() as u64;
        for r in &self.regions {
            let rend = u64::from(r.base) + r.data.len() as u64;
            if u64::from(base) < rend && u64::from(r.base) < end {
                return Err(MapError { msg: format!("region `{name}` overlaps `{}`", r.name) });
            }
        }
        self.regions.push(Region { name: name.to_owned(), base, perms, data, dirty: Vec::new() });
        Ok(())
    }

    /// The mapped regions, in mapping order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up the region covering `addr`.
    pub fn region_at(&self, addr: u32) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// Copies `bytes` into memory at `addr`, ignoring write permissions
    /// (loader-style access).
    ///
    /// Copies one region-sized chunk at a time rather than scanning the
    /// region list per byte — firmware loads run once per emulator boot,
    /// which the sweep engines put on their hot path. Loader writes
    /// neither advance [`Memory::write_epoch`] nor mark pages dirty for
    /// [`Memory::restore`]; like [`Memory::peek`], this is host-side
    /// access, not emulated-program activity.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte falls outside mapped memory;
    /// bytes before the first unmapped address are already written.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemFault> {
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr.wrapping_add(off as u32);
            let region = self.regions.iter_mut().find(|r| r.contains(a)).ok_or(MemFault {
                addr: a,
                access: Access::Write,
                kind: FaultKind::Unmapped,
            })?;
            let start = (a - region.base) as usize;
            let n = (region.data.len() - start).min(bytes.len() - off);
            region.data[start..start + n].copy_from_slice(&bytes[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// A counter advanced by every emulated store ([`Memory::write8`] /
    /// [`Memory::write16`] / [`Memory::write32`]). Loader-style writes
    /// ([`Memory::load`]) are not counted. [`Memory::restore`] rolls it
    /// back to the snapshot's value, and skips the dirty-page scan when a
    /// run since the last restore stored nothing.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Copies every region's contents for later [`Memory::restore`].
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            data: self.regions.iter().map(|r| r.data.clone()).collect(),
            write_epoch: self.write_epoch,
        }
    }

    /// Rolls region contents back to a snapshot of this memory map.
    ///
    /// Every emulated store marks its 256-byte page dirty. When this
    /// memory was last restored to the same snapshot, only the pages
    /// stored to since are copied back, so a trial's reset costs what it
    /// wrote; otherwise every region is copied. Loader writes
    /// ([`Memory::load`]) are host-side and untracked: a restore reverts
    /// them only where it copies (a full restore, or a page also stored
    /// to), so callers that poke through the loader re-poke after every
    /// restore.
    ///
    /// # Panics
    ///
    /// Panics if regions were mapped or resized since the snapshot.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        assert_eq!(self.regions.len(), snap.data.len(), "memory map changed since snapshot");
        if self.restored_to == snap.id {
            // The epoch is back at the snapshot's after every restore and
            // only stores advance it: unchanged means nothing is dirty.
            if self.write_epoch != snap.write_epoch {
                for (region, data) in self.regions.iter_mut().zip(&snap.data) {
                    region.restore_dirty(data);
                }
            }
        } else {
            for (region, data) in self.regions.iter_mut().zip(&snap.data) {
                region.data.copy_from_slice(data);
                region.dirty.fill(0);
            }
            self.restored_to = snap.id;
        }
        self.write_epoch = snap.write_epoch;
    }

    /// Reads raw bytes, ignoring permissions (debugger-style access).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte falls outside mapped memory.
    pub fn peek(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(len as usize);
        while out.len() < len as usize {
            let a = addr.wrapping_add(out.len() as u32);
            let region = self.region_at(a).ok_or(MemFault {
                addr: a,
                access: Access::Read,
                kind: FaultKind::Unmapped,
            })?;
            let start = (a - region.base) as usize;
            let n = (region.data.len() - start).min(len as usize - out.len());
            out.extend_from_slice(&region.data[start..start + n]);
        }
        Ok(out)
    }

    fn access(&mut self, addr: u32, len: u32, access: Access) -> Result<&mut Region, MemFault> {
        let region = self
            .regions
            .iter_mut()
            .find(|r| r.contains(addr) && r.contains(addr + (len - 1)))
            .ok_or(MemFault { addr, access, kind: FaultKind::Unmapped })?;
        let allowed = match access {
            Access::Read => region.perms.read,
            Access::Write => region.perms.write,
            Access::Fetch => region.perms.execute,
        };
        if !allowed {
            return Err(MemFault { addr, access, kind: FaultKind::Protected });
        }
        Ok(region)
    }

    fn aligned(addr: u32, len: u32, access: Access) -> Result<(), MemFault> {
        if !addr.is_multiple_of(len) {
            Err(MemFault { addr, access, kind: FaultKind::Unaligned })
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or protected addresses.
    pub fn read8(&mut self, addr: u32) -> Result<u8, MemFault> {
        let r = self.access(addr, 1, Access::Read)?;
        Ok(r.data[(addr - r.base) as usize])
    }

    /// Reads a halfword (must be 2-aligned).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped, protected, or unaligned addresses.
    pub fn read16(&mut self, addr: u32) -> Result<u16, MemFault> {
        Self::aligned(addr, 2, Access::Read)?;
        let r = self.access(addr, 2, Access::Read)?;
        let i = (addr - r.base) as usize;
        Ok(u16::from_le_bytes([r.data[i], r.data[i + 1]]))
    }

    /// Reads a word (must be 4-aligned).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped, protected, or unaligned addresses.
    pub fn read32(&mut self, addr: u32) -> Result<u32, MemFault> {
        Self::aligned(addr, 4, Access::Read)?;
        let r = self.access(addr, 4, Access::Read)?;
        let i = (addr - r.base) as usize;
        Ok(u32::from_le_bytes([r.data[i], r.data[i + 1], r.data[i + 2], r.data[i + 3]]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or protected addresses.
    pub fn write8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        let r = self.access(addr, 1, Access::Write)?;
        let i = (addr - r.base) as usize;
        r.data[i] = value;
        r.mark(i);
        self.write_epoch += 1;
        Ok(())
    }

    /// Writes a halfword (must be 2-aligned).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped, protected, or unaligned addresses.
    pub fn write16(&mut self, addr: u32, value: u16) -> Result<(), MemFault> {
        Self::aligned(addr, 2, Access::Write)?;
        let r = self.access(addr, 2, Access::Write)?;
        let i = (addr - r.base) as usize;
        r.data[i..i + 2].copy_from_slice(&value.to_le_bytes());
        r.mark(i);
        self.write_epoch += 1;
        Ok(())
    }

    /// Writes a word (must be 4-aligned).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped, protected, or unaligned addresses.
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        Self::aligned(addr, 4, Access::Write)?;
        let r = self.access(addr, 4, Access::Write)?;
        let i = (addr - r.base) as usize;
        r.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        r.mark(i);
        self.write_epoch += 1;
        Ok(())
    }

    /// Fetches an instruction halfword (must be 2-aligned and executable).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`Access::Fetch`] on failure — the
    /// paper's *Bad Fetch* class.
    pub fn fetch16(&mut self, addr: u32) -> Result<u16, MemFault> {
        Self::aligned(addr, 2, Access::Fetch)?;
        let r = self.access(addr, 2, Access::Fetch)?;
        let i = (addr - r.base) as usize;
        Ok(u16::from_le_bytes([r.data[i], r.data[i + 1]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map("flash", 0x0800_0000, 0x1000, Perms::RX).unwrap();
        m.map("sram", 0x2000_0000, 0x1000, Perms::RW).unwrap();
        m
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem();
        m.write32(0x2000_0000, 0x1234_5678).unwrap();
        assert_eq!(m.read32(0x2000_0000).unwrap(), 0x1234_5678);
        assert_eq!(m.read16(0x2000_0000).unwrap(), 0x5678);
        assert_eq!(m.read8(0x2000_0003).unwrap(), 0x12);
        m.write16(0x2000_0004, 0xBEEF).unwrap();
        m.write8(0x2000_0006, 0xAA).unwrap();
        assert_eq!(m.read32(0x2000_0004).unwrap(), 0x00AA_BEEF);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = mem();
        let f = m.read32(0x4000_0000).unwrap_err();
        assert_eq!(f.kind, FaultKind::Unmapped);
        assert_eq!(f.access, Access::Read);
        let f = m.write8(0x1000_0000, 0).unwrap_err();
        assert_eq!(f.access, Access::Write);
    }

    #[test]
    fn permission_faults() {
        let mut m = mem();
        let f = m.write32(0x0800_0000, 0).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protected);
        let f = m.fetch16(0x2000_0000).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protected);
        assert_eq!(f.access, Access::Fetch);
    }

    #[test]
    fn alignment_faults() {
        let mut m = mem();
        assert_eq!(m.read32(0x2000_0002).unwrap_err().kind, FaultKind::Unaligned);
        assert_eq!(m.read16(0x2000_0001).unwrap_err().kind, FaultKind::Unaligned);
        assert_eq!(m.write32(0x2000_0001, 0).unwrap_err().kind, FaultKind::Unaligned);
    }

    #[test]
    fn straddling_region_end_faults() {
        let mut m = mem();
        // Last word of sram is fine; the next faults.
        assert!(m.read32(0x2000_0FFC).is_ok());
        assert!(m.read32(0x2000_1000).is_err());
        // A word read straddling the boundary must not succeed.
        assert!(m.read16(0x2000_0FFE).is_ok());
    }

    #[test]
    fn overlap_rejected() {
        let mut m = mem();
        assert!(m.map("clash", 0x2000_0800, 0x1000, Perms::RW).is_err());
        assert!(m.map("ok", 0x2000_1000, 0x1000, Perms::RW).is_ok());
        assert!(m.map("empty", 0x3000_0000, 0, Perms::RW).is_err());
    }

    #[test]
    fn loader_ignores_permissions() {
        let mut m = mem();
        m.load(0x0800_0000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.peek(0x0800_0000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(m.load(0x5000_0000, &[0]).is_err());
    }

    #[test]
    fn region_lookup() {
        let m = mem();
        assert_eq!(m.region_at(0x0800_0FFF).unwrap().name(), "flash");
        assert!(m.region_at(0x0800_1000).is_none());
        assert_eq!(m.regions().len(), 2);
    }
}
