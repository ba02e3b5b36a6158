//! Predecoded micro-op tables: decode every halfword of an image once,
//! dispatch from the table forever after.
//!
//! Exhaustive glitch sweeps execute the same few dozen instructions
//! millions of times; re-running `decode16`/`decode32` on every step is
//! the dominant avoidable cost (the bottleneck ARMORY identifies for
//! exhaustive fault simulation). A [`PredecodedImage`] caches, per
//! halfword address, either the decoded instruction, the fact that the
//! pattern is undefined, or a marker that the slot must be decoded live.
//!
//! The table mirrors live decode-by-address exactly: each halfword
//! address gets an *independent* decode, because a glitched control flow
//! can land in the middle of what was laid out as a 32-bit instruction.
//! There is deliberately no notion of instruction boundaries.
//!
//! The fallback rule: dispatch from the table is only valid while memory
//! under the image is unchanged. Callers that perturb a halfword (the
//! sweep's target, a campaign's flip site) must [`PredecodedImage::invalidate`]
//! that address, which downgrades the affected slots to [`Slot::Live`] so
//! [`Emu::step_predecoded`](crate::Emu::step_predecoded) decodes them from
//! memory on every visit.

use gd_thumb::{decode16, decode32, decode32_wide, is_32bit_prefix, DecodeError, Instr};

use crate::exec::Config;
use crate::mem::Region;

/// The predecode of one halfword address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The address decodes to `instr`, `size` bytes long (2 or 4).
    Instr {
        /// The decoded instruction.
        instr: Instr,
        /// Encoding size in bytes.
        size: u32,
    },
    /// The address holds an undefined pattern; `hw2` carries the second
    /// halfword for undefined 32-bit encodings.
    Undefined {
        /// First (or only) halfword.
        hw: u16,
        /// Second halfword for 32-bit patterns.
        hw2: Option<u16>,
    },
    /// A 32-bit prefix in the image's final halfword: the encoding is
    /// incomplete, not undefined. Dispatch performs the second-halfword
    /// fetch live, so an unmapped `addr + 2` reports a *fetch fault at
    /// `addr + 2`* (the fetch-fault/undefined split of
    /// [`Emu::decode`](crate::Emu::decode)) rather than an undefined
    /// instruction at `addr`. Kept distinct from [`Slot::Live`] so static
    /// consumers can tell "image ends mid-encoding" from "slot was
    /// invalidated by a perturbation".
    Incomplete {
        /// The prefix halfword.
        hw: u16,
    },
    /// Undecidable from the table alone — dispatch must decode live. Used
    /// for slots invalidated by a perturbation.
    Live,
}

/// Classifies the halfword `hw` under `cfg`, given the following halfword
/// `hw2` when one exists in the image.
///
/// This is the single source of decode truth shared by
/// [`Emu::decode`](crate::Emu::decode) and [`PredecodedImage`]: both paths
/// call it, so the table cannot drift from the interpreter.
///
/// `hw2` is only consulted when `hw` is a 32-bit prefix; passing `None`
/// there yields [`Slot::Incomplete`] (the image ends mid-encoding and
/// only a live fetch can tell a fetch fault at `addr + 2` from an
/// undefined pattern — the two cases [`Emu::decode`](crate::Emu::decode)
/// keeps distinct).
///
/// The 32-bit space decodes through [`decode32`] (ARMv6-M: `BL` only) or,
/// when [`Config::wide`] is set, [`decode32_wide`].
pub fn classify(hw: u16, hw2: Option<u16>, cfg: Config) -> Slot {
    if hw == 0 && cfg.zero_is_invalid {
        return Slot::Undefined { hw, hw2: None };
    }
    if is_32bit_prefix(hw) {
        let decode = if cfg.wide { decode32_wide } else { decode32 };
        return match hw2 {
            None => Slot::Incomplete { hw },
            Some(h2) => match decode(hw, h2) {
                Ok(instr) => Slot::Instr { instr, size: 4 },
                Err(_) => Slot::Undefined { hw, hw2: Some(h2) },
            },
        };
    }
    match decode16(hw) {
        Ok(instr) => Slot::Instr { instr, size: 2 },
        // decode16 reports non-prefix halfwords only as Undefined16; any
        // other variant here would be a decoder bug.
        Err(DecodeError::Undefined16(_)) => Slot::Undefined { hw, hw2: None },
        Err(e) => unreachable!("decode16({hw:#06x}) returned {e:?}"),
    }
}

/// A micro-op table covering one contiguous image: one [`Slot`] per
/// halfword address.
///
/// Built once per firmware/snippet, then shared by every trial of a sweep
/// (clone it per worker; it is plain data). Dispatch through
/// [`Emu::step_predecoded`](crate::Emu::step_predecoded) is only correct
/// while the emulator's memory under the image matches the bytes the
/// table was built from and the emulator runs the same [`Config`] —
/// perturbed addresses must be [`invalidate`](PredecodedImage::invalidate)d.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredecodedImage {
    base: u32,
    cfg: Config,
    slots: Vec<Slot>,
}

impl PredecodedImage {
    /// Predecodes `bytes` as they would appear at `base` (2-aligned; bit 0
    /// is ignored). A trailing odd byte is not decodable and is dropped.
    pub fn from_bytes(base: u32, bytes: &[u8], cfg: Config) -> PredecodedImage {
        let n = bytes.len() / 2;
        let hw_at =
            |i: usize| (i < n).then(|| u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]));
        let slots = (0..n).map(|i| classify(hw_at(i).expect("i < n"), hw_at(i + 1), cfg)).collect();
        PredecodedImage { base: base & !1, cfg, slots }
    }

    /// Predecodes a mapped region's current contents.
    pub fn from_region(region: &Region, cfg: Config) -> PredecodedImage {
        PredecodedImage::from_bytes(region.base(), region.data(), cfg)
    }

    /// First address covered by the table.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The configuration the table was decoded under.
    pub fn cfg(&self) -> Config {
        self.cfg
    }

    /// Number of halfword slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot for `addr`, or `None` when `addr` is odd or outside the
    /// image (dispatch then falls back to the live path).
    #[inline]
    pub fn slot(&self, addr: u32) -> Option<Slot> {
        if addr & 1 != 0 || addr < self.base {
            return None;
        }
        self.slots.get(((addr - self.base) >> 1) as usize).copied()
    }

    /// Index of `addr`'s slot (bit 0 ignored), if it lies in the table.
    pub fn index(&self, addr: u32) -> Option<usize> {
        let i = (addr.wrapping_sub(self.base) >> 1) as usize;
        (i < self.slots.len()).then_some(i)
    }

    /// Invalidates every slot whose decode depends on the halfword at
    /// `addr`: the slot at `addr` itself and the one at `addr - 2`, whose
    /// cached decode may have consumed `addr`'s halfword as the second
    /// half of a 32-bit encoding. Both become [`Slot::Live`].
    pub fn invalidate(&mut self, addr: u32) {
        self.invalidate_range(addr, 2);
    }

    /// Invalidates every slot whose decode depends on any byte of
    /// `[addr, addr + len)`: each halfword the range touches plus each
    /// one's 32-bit-prefix predecessor — so the downgraded span is
    /// `[addr - 2, addr + len)`. This is the multi-halfword form of
    /// [`invalidate`](PredecodedImage::invalidate) that two-fault and
    /// permanent-corruption trials need: invalidating only one site of a
    /// wide perturbation would let stale cached micro-ops dispatch over
    /// the rest.
    pub fn invalidate_range(&mut self, addr: u32, len: u32) {
        for slot in self.range_slots(addr, len) {
            *slot = Slot::Live;
        }
    }

    /// Restores the slots downgraded by an
    /// [`invalidate_range`](PredecodedImage::invalidate_range) of the
    /// same `addr`/`len` from `pristine` — a table built from the
    /// unperturbed image. Trial loops that invalidate a few sites per
    /// trial heal them afterwards instead of cloning the whole table.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `pristine` covers a different span or
    /// was decoded under a different [`Config`].
    pub fn heal_range(&mut self, pristine: &PredecodedImage, addr: u32, len: u32) {
        debug_assert_eq!(self.base, pristine.base, "heal source covers a different span");
        debug_assert_eq!(self.slots.len(), pristine.slots.len());
        debug_assert_eq!(self.cfg, pristine.cfg, "heal source decoded under a different Config");
        let (lo, hi) = self.range_indices(addr, len);
        self.slots[lo..hi].copy_from_slice(&pristine.slots[lo..hi]);
    }

    /// Slot index bounds `[lo, hi)` covering `[addr - 2, addr + len)`,
    /// clamped to the table.
    fn range_indices(&self, addr: u32, len: u32) -> (usize, usize) {
        if len == 0 {
            return (0, 0);
        }
        let addr = addr & !1;
        // Exclusive byte end in u64 (addr + len may overflow u32); any
        // halfword containing a touched byte is included.
        let end = u64::from(addr) + u64::from(len);
        if end <= u64::from(self.base) {
            // The whole range lies below the table. Bail out before the
            // saturating arithmetic below: on a zero-base table with
            // addr < 2 it would otherwise rediscover slot 0 through the
            // clamped "prefix predecessor" and downgrade it for a range
            // that never touched the image.
            return (0, 0);
        }
        let start = addr.saturating_sub(2).max(self.base);
        let lo = ((start - self.base) >> 1) as usize;
        let hi = ((end - u64::from(self.base) + 1) >> 1) as usize;
        (lo.min(self.slots.len()), hi.min(self.slots.len()))
    }

    fn range_slots(&mut self, addr: u32, len: u32) -> impl Iterator<Item = &mut Slot> {
        let (lo, hi) = self.range_indices(addr, len);
        self.slots[lo..hi].iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_thumb::Reg;

    const CFG: Config = Config { zero_is_invalid: false, wide: false };

    #[test]
    fn caches_both_encoding_sizes() {
        // movs r0, #1 ; bl <somewhere> (32-bit: 0xF000 0xF800)
        let bytes = [0x01, 0x20, 0x00, 0xF0, 0x00, 0xF8];
        let img = PredecodedImage::from_bytes(0x100, &bytes, CFG);
        assert_eq!(img.len(), 3);
        assert!(matches!(
            img.slot(0x100),
            Some(Slot::Instr { instr: Instr::MovImm { rd: Reg::R0, imm8: 1 }, size: 2 })
        ));
        assert!(matches!(img.slot(0x102), Some(Slot::Instr { size: 4, .. })));
        // The trailing halfword of the bl decodes independently too.
        assert!(img.slot(0x104).is_some());
        assert_eq!(img.slot(0x106), None);
        assert_eq!(img.slot(0x101), None, "odd addresses have no slot");
        assert_eq!(img.slot(0x0FE), None, "below base");
    }

    #[test]
    fn prefix_at_image_end_is_incomplete_not_undefined() {
        // A lone 32-bit prefix: the second halfword is out of the image.
        // The slot records the incomplete encoding (dispatch fetches the
        // second halfword live and faults at addr + 2 when it is
        // unmapped) instead of conflating it with an undefined pattern.
        let bytes = 0xF000u16.to_le_bytes();
        let img = PredecodedImage::from_bytes(0, &bytes, CFG);
        assert_eq!(img.slot(0), Some(Slot::Incomplete { hw: 0xF000 }));
    }

    #[test]
    fn wide_config_decodes_thumb2_pairs() {
        // b.w .+0 → F000 B800: undefined under the ARMv6-M decode, a
        // 4-byte instruction once cfg.wide selects the Thumb-2 subset.
        let bytes = [0x00, 0xF0, 0x00, 0xB8];
        let img = PredecodedImage::from_bytes(0x100, &bytes, CFG);
        assert_eq!(img.slot(0x100), Some(Slot::Undefined { hw: 0xF000, hw2: Some(0xB800) }));
        let wide = Config { wide: true, ..CFG };
        let img = PredecodedImage::from_bytes(0x100, &bytes, wide);
        assert_eq!(img.slot(0x100), Some(Slot::Instr { instr: Instr::BW { offset: 0 }, size: 4 }));
    }

    #[test]
    fn zero_halfword_honors_config() {
        let bytes = [0u8; 2];
        let img = PredecodedImage::from_bytes(0, &bytes, CFG);
        assert!(matches!(img.slot(0), Some(Slot::Instr { size: 2, .. })));
        let img = PredecodedImage::from_bytes(0, &bytes, Config { zero_is_invalid: true, ..CFG });
        assert_eq!(img.slot(0), Some(Slot::Undefined { hw: 0, hw2: None }));
    }

    #[test]
    fn invalidate_downgrades_dependent_slots() {
        let bytes = [0x01, 0x20, 0x02, 0x20, 0x03, 0x20];
        let mut img = PredecodedImage::from_bytes(0x100, &bytes, CFG);
        img.invalidate(0x102);
        assert_eq!(img.slot(0x100), Some(Slot::Live), "predecessor may embed the halfword");
        assert_eq!(img.slot(0x102), Some(Slot::Live));
        assert!(matches!(img.slot(0x104), Some(Slot::Instr { .. })), "successor unaffected");
    }

    #[test]
    fn invalidate_at_base_does_not_underflow() {
        let bytes = [0x01, 0x20];
        let mut img = PredecodedImage::from_bytes(0, &bytes, CFG);
        img.invalidate(0);
        assert_eq!(img.slot(0), Some(Slot::Live));
    }

    #[test]
    fn invalidate_range_at_zero_base_does_not_underflow() {
        let bytes = [0x01, 0x20, 0x02, 0x20];
        let pristine = PredecodedImage::from_bytes(0, &bytes, CFG);
        // A range touching byte 0 downgrades exactly slot 0.
        let mut img = pristine.clone();
        img.invalidate_range(0, 2);
        assert_eq!(img.slot(0), Some(Slot::Live));
        assert!(matches!(img.slot(2), Some(Slot::Instr { .. })));
        // addr < 2 with a zero length never reaches slot 0 through the
        // saturating prefix-predecessor arithmetic.
        let mut img = pristine.clone();
        img.invalidate_range(1, 0);
        assert_eq!(img, pristine);
        // Healing the same underflow-prone range is a no-op too.
        let mut img = pristine.clone();
        img.invalidate_range(0, 2);
        img.heal_range(&pristine, 0, 2);
        assert_eq!(img, pristine);
    }

    #[test]
    fn odd_trailing_byte_is_dropped() {
        let img = PredecodedImage::from_bytes(0, &[0x01, 0x20, 0xFF], CFG);
        assert_eq!(img.len(), 1);
    }

    // movs r0,#1 ; movs r0,#2 ; bl (32-bit F000 F800) ; movs r0,#3
    const RANGE_BYTES: [u8; 10] = [0x01, 0x20, 0x02, 0x20, 0x00, 0xF0, 0x00, 0xF8, 0x03, 0x20];

    #[test]
    fn invalidate_range_covers_every_touched_halfword_and_the_prefix_predecessor() {
        let mut img = PredecodedImage::from_bytes(0x100, &RANGE_BYTES, CFG);
        // Two faults straddling the wide bl: its prefix (0x104) and its
        // suffix (0x106), invalidated as one 4-byte range.
        img.invalidate_range(0x104, 4);
        assert_eq!(img.slot(0x102), Some(Slot::Live), "prefix predecessor downgraded");
        assert_eq!(img.slot(0x104), Some(Slot::Live));
        assert_eq!(img.slot(0x106), Some(Slot::Live));
        assert!(matches!(img.slot(0x100), Some(Slot::Instr { .. })), "before range untouched");
        assert!(matches!(img.slot(0x108), Some(Slot::Instr { .. })), "after range untouched");
    }

    #[test]
    fn invalidate_range_with_odd_length_still_covers_the_last_byte() {
        let mut img = PredecodedImage::from_bytes(0x100, &RANGE_BYTES, CFG);
        // Bytes [0x102, 0x105): halfwords 0x102 and 0x104, plus 0x100.
        img.invalidate_range(0x102, 3);
        assert_eq!(img.slot(0x100), Some(Slot::Live));
        assert_eq!(img.slot(0x102), Some(Slot::Live));
        assert_eq!(img.slot(0x104), Some(Slot::Live));
        assert_ne!(img.slot(0x106), Some(Slot::Live), "beyond the range stays cached");
    }

    #[test]
    fn invalidate_range_of_zero_length_is_a_no_op() {
        let pristine = PredecodedImage::from_bytes(0x100, &RANGE_BYTES, CFG);
        let mut img = pristine.clone();
        img.invalidate_range(0x104, 0);
        assert_eq!(img, pristine);
    }

    #[test]
    fn invalidate_range_clamps_to_the_table() {
        let mut img = PredecodedImage::from_bytes(0x100, &RANGE_BYTES, CFG);
        img.invalidate_range(0x0, 0x40); // entirely below base
        assert!(matches!(img.slot(0x100), Some(Slot::Instr { .. })));
        img.invalidate_range(0x108, 0x1000); // runs past the end
        assert_eq!(img.slot(0x108), Some(Slot::Live));
        img.invalidate_range(u32::MAX - 1, 8); // would overflow u32
        assert!(matches!(img.slot(0x100), Some(Slot::Instr { .. })));
    }

    #[test]
    fn heal_range_restores_exactly_the_invalidated_slots() {
        let pristine = PredecodedImage::from_bytes(0x100, &RANGE_BYTES, CFG);
        let mut img = pristine.clone();
        img.invalidate_range(0x104, 4);
        img.invalidate_range(0x108, 2);
        assert_ne!(img, pristine);
        img.heal_range(&pristine, 0x104, 4);
        img.heal_range(&pristine, 0x108, 2);
        assert_eq!(img, pristine, "healing undoes the downgrade slot for slot");
    }
}
