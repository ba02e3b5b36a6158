//! Raw `.bin` ingestion: a flash dump beginning with a Cortex-M vector
//! table.
//!
//! The only structure a raw dump guarantees is the vector table the boot
//! ROM itself relies on: word 0 is the initial stack pointer, word 1 the
//! reset vector (Thumb bit set), and subsequent words are exception /
//! interrupt handlers. Handler words that point back into the image
//! (Thumb bit set) are treated as routine entries for extent inference;
//! the scan stops at the first word that does not, which is where the
//! table ends and code begins on every image the tooling targets.

use std::collections::BTreeMap;

use gd_backend::{FirmwareImage, SectionSizes};

use crate::extents::infer_extents;
use crate::{metrics, Format, IngestError, Ingested};

/// Longest vector table scanned: 16 system exceptions + 32 IRQs covers
/// every Cortex-M0 part; scanning further only risks misreading code
/// words as handlers.
pub const MAX_VECTORS: usize = 48;

fn word(bytes: &[u8], i: usize) -> Option<u32> {
    let b = bytes.get(i * 4..i * 4 + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Ingests a raw flash dump loaded at `base`.
///
/// # Errors
///
/// Rejects dumps shorter than a two-word vector table, with an
/// implausible initial SP (zero or not 4-aligned), with a reset vector
/// that is not a Thumb-bit address inside the dump, or whose reset
/// handler yields no decodable code.
pub fn ingest_bin(bytes: &[u8], base: u32) -> Result<Ingested, IngestError> {
    if bytes.len() < 8 {
        return Err(IngestError::Truncated { what: "vector table" });
    }
    let end = base + bytes.len() as u32;
    let sp = word(bytes, 0).expect("length checked");
    if sp == 0 || !sp.is_multiple_of(4) {
        return Err(IngestError::BadStackPointer { sp });
    }
    let reset = word(bytes, 1).expect("length checked");
    let in_image = |w: u32| w & 1 == 1 && (w & !1) >= base && (w & !1) < end;
    if !in_image(reset) {
        return Err(IngestError::BadResetVector { vector: reset });
    }
    let entry = reset & !1;

    // Handler slots after the reset vector, while they keep looking like
    // Thumb pointers into the image. Slot 0 names the reset handler.
    let mut starts: Vec<(String, u32)> = vec![("reset".to_owned(), entry)];
    for i in 2..MAX_VECTORS {
        match word(bytes, i) {
            Some(w) if in_image(w) => {
                let target = w & !1;
                if !starts.iter().any(|(_, a)| *a == target) {
                    starts.push((format!("handler_{i}"), target));
                }
            }
            _ => break,
        }
    }

    let extents = infer_extents(bytes, base, &starts);
    if extents.iter().all(|e| e.code_end == e.base) {
        return Err(IngestError::NoCode);
    }
    let symbols: BTreeMap<String, u32> = extents.iter().map(|e| (e.name.clone(), e.base)).collect();
    let image = FirmwareImage {
        text: bytes.to_vec(),
        text_base: base,
        data: Vec::new(),
        symbols,
        entry,
        sizes: SectionSizes { text: bytes.len() as u32, ..SectionSizes::default() },
        global_sections: BTreeMap::new(),
        extents,
    };
    let ingested = Ingested { format: Format::Bin, image, sp };
    metrics::record(&ingested);
    Ok(ingested)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testimg;

    #[test]
    fn demo_bin_ingests_with_expected_shape() {
        let (bytes, base) = (testimg::demo_bin(), testimg::DEMO_BASE);
        let ing = ingest_bin(&bytes, base).expect("demo ingests");
        assert_eq!(ing.format, Format::Bin);
        assert_eq!(ing.sp, testimg::DEMO_SP);
        assert_eq!(ing.image.entry, testimg::DEMO_ENTRY);
        assert_eq!(ing.image.text_base, base);
        let reset = ing.image.extent("reset").expect("reset extent");
        assert_eq!(reset.base, testimg::DEMO_ENTRY);
        assert!(reset.code_end > reset.base, "code was inferred");
        assert!(reset.end > reset.code_end, "literal pool was excluded");
    }

    #[test]
    fn truncated_and_malformed_tables_are_rejected() {
        assert_eq!(
            ingest_bin(&[0; 7], 0).unwrap_err(),
            IngestError::Truncated { what: "vector table" }
        );
        // SP of zero.
        let mut v = vec![0u8; 16];
        v[4..8].copy_from_slice(&0x0000_0009u32.to_le_bytes());
        assert_eq!(ingest_bin(&v, 0).unwrap_err(), IngestError::BadStackPointer { sp: 0 });
        // Reset vector without the Thumb bit.
        let mut v = vec![0u8; 16];
        v[0..4].copy_from_slice(&0x2000_0400u32.to_le_bytes());
        v[4..8].copy_from_slice(&0x0000_0008u32.to_le_bytes());
        assert_eq!(ingest_bin(&v, 0).unwrap_err(), IngestError::BadResetVector { vector: 8 });
        // Reset vector pointing outside the dump.
        let mut v = vec![0u8; 16];
        v[0..4].copy_from_slice(&0x2000_0400u32.to_le_bytes());
        v[4..8].copy_from_slice(&0x0000_1001u32.to_le_bytes());
        assert_eq!(ingest_bin(&v, 0).unwrap_err(), IngestError::BadResetVector { vector: 0x1001 });
    }

    #[test]
    fn undecodable_reset_handler_is_no_code() {
        let mut v = Vec::new();
        v.extend_from_slice(&0x2000_0400u32.to_le_bytes());
        v.extend_from_slice(&0x0000_0009u32.to_le_bytes());
        v.extend_from_slice(&[0x01, 0xE8, 0x00, 0x00]); // undefined wide
        assert_eq!(ingest_bin(&v, 0).unwrap_err(), IngestError::NoCode);
    }
}
