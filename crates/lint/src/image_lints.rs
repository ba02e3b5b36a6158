//! Image-level glitch-surface lints (`GL02xx`).
//!
//! These run over a lowered [`gd_backend::FirmwareImage`]: every
//! conditional branch in every routine's code extent gets its sixteen
//! unidirectional single-bit flips enumerated and classified per the
//! paper's §IV taxonomy ([`gd_glitch_emu::classify`]). Literal pools are
//! excluded via the extent table, so data never masquerades as code, and
//! findings are located as `function+0xoffset` through the image's symbol
//! map.

use std::collections::BTreeMap;

use gd_backend::FirmwareImage;
use gd_glitch_emu::classify::{branch_flips_with, FlipClass};
use gd_thumb::is_32bit_prefix;

use crate::engine::Finding;

/// Glitch-sensitivity totals for one routine (the `GL0202` report row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSensitivity {
    /// Conditional branches in the routine.
    pub branches: usize,
    /// Flips that yield the inverted branch.
    pub inverted: usize,
    /// Flips that yield an unconditional branch.
    pub unconditional: usize,
    /// Flips that decode to a non-branch (fall-through).
    pub fall_through: usize,
}

impl FnSensitivity {
    /// Total control-flow-diverting flips.
    pub fn diversions(&self) -> usize {
        self.inverted + self.unconditional + self.fall_through
    }
}

/// Runs the `GL02xx` lints, returning findings plus the per-routine
/// sensitivity table (sorted by routine name).
pub fn lint_image(image: &FirmwareImage) -> (Vec<Finding>, BTreeMap<String, FnSensitivity>) {
    let mut findings = Vec::new();
    let mut table: BTreeMap<String, FnSensitivity> = BTreeMap::new();
    for extent in &image.extents {
        let mut sens = FnSensitivity::default();
        let mut addr = extent.base;
        while addr + 2 <= extent.code_end {
            let off = (addr - image.text_base) as usize;
            let hw = u16::from_le_bytes([image.text[off], image.text[off + 1]]);
            if is_32bit_prefix(hw) {
                addr += 4; // skip both halves of a wide encoding (BL)
                continue;
            }
            // The halfword the pipeline would fetch after this one: flips
            // into the 32-bit prefix space consume it, so prefix flips
            // classify as what the resulting *wide* instruction does.
            // Only the very last halfword of the image has no successor.
            let hw2 = image.text.get(off + 2..off + 4).map(|b| u16::from_le_bytes([b[0], b[1]]));
            if let Some(profile) = branch_flips_with(hw, hw2) {
                let (i, u, f) = (
                    profile.count(FlipClass::InvertedBranch),
                    profile.count(FlipClass::UnconditionalBranch),
                    profile.count(FlipClass::FallThrough),
                );
                sens.branches += 1;
                sens.inverted += i;
                sens.unconditional += u;
                sens.fall_through += f;
                let off = addr - extent.base;
                findings.push(
                    Finding::new(
                        "GL0201",
                        &extent.name,
                        &format!("+{off:#x}"),
                        format!(
                            "b{} has {} diverting single-bit flips \
                             ({i} inverted, {u} unconditional, {f} fall-through)",
                            profile.cond,
                            profile.diversions(),
                        ),
                    )
                    .with_span(off, off + 2),
                );
            }
            addr += 2;
        }
        if sens.branches > 0 {
            findings.push(Finding::new(
                "GL0202",
                &extent.name,
                "",
                format!(
                    "{} conditional branches expose {} diverting flips \
                     ({} inverted, {} unconditional, {} fall-through)",
                    sens.branches,
                    sens.diversions(),
                    sens.inverted,
                    sens.unconditional,
                    sens.fall_through,
                ),
            ));
            table.insert(extent.name.clone(), sens);
        }
    }
    (findings, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_backend::compile;
    use gd_ir::parse_module;

    const SRC: &str = "
fn @decide(%a: i32) -> i32 {
entry:
  %c = icmp eq i32 %a, 7
  br %c, yes, no
yes:
  ret i32 1
no:
  ret i32 0
}
fn @main() -> i32 {
entry:
  %r = call i32 @decide(7)
  ret i32 %r
}
";

    #[test]
    fn every_conditional_branch_is_profiled_and_located() {
        let m = parse_module(SRC).unwrap();
        let image = compile(&m, "main").unwrap();
        let (findings, table) = lint_image(&image);
        let decide = table.get("decide").expect("decide has a conditional branch");
        assert!(decide.branches >= 1);
        assert!(decide.inverted >= decide.branches, "each branch has its inverse flip");
        assert!(
            !table.contains_key("main") || table["main"].branches > 0,
            "straight-line main has no row unless lowering branched"
        );
        // Locations resolve back through the symbol table.
        for f in findings.iter().filter(|f| f.lint == "GL0201") {
            let off =
                u32::from_str_radix(f.location.trim_start_matches("+0x"), 16).expect("+0x offset");
            let addr = image.symbol(&f.function) + off;
            assert_eq!(
                image.symbolize(addr).map(|(n, o)| (n.to_owned(), o)),
                Some((f.function.clone(), off))
            );
        }
        // Exactly one GL0202 row per table entry.
        let rows = findings.iter().filter(|f| f.lint == "GL0202").count();
        assert_eq!(rows, table.len());
    }

    #[test]
    fn literal_pools_are_not_scanned() {
        // 0xD3B9AEC6 contains 0xAEC6; scanned bytes could alias a branch
        // encoding (0xD3B9 *is* a bcc). Pools sit past code_end, so no
        // finding may point into one.
        let src = "
fn @main() -> i32 {
entry:
  %x = add i32 0xD3B9AEC6, 1
  ret i32 %x
}
";
        let m = parse_module(src).unwrap();
        let image = compile(&m, "main").unwrap();
        let (findings, _) = lint_image(&image);
        let main = image.extent("main").unwrap();
        assert!(main.code_end < main.end, "literal pool exists");
        for f in findings.iter().filter(|f| f.lint == "GL0201" && f.function == "main") {
            let off = u32::from_str_radix(f.location.trim_start_matches("+0x"), 16).unwrap();
            assert!(main.base + off < main.code_end, "{f:?} points into the pool");
        }
    }
}
