//! Disassembly: canonical textual form for every instruction.
//!
//! The printed syntax round-trips through the [`asm`](crate::asm) assembler.
//! Branch targets print as `.<offset>` where `<offset>` is the byte offset
//! from the branch's PC (instruction address + 4), e.g. `beq .+6`.

use core::fmt;

use crate::instr::{ShiftOp, Width};
use crate::{Instr, Reg};

fn reg_list(f: &mut fmt::Formatter<'_>, rlist: u8, extra: Option<Reg>) -> fmt::Result {
    f.write_str("{")?;
    let mut first = true;
    for i in 0..8 {
        if rlist & (1 << i) != 0 {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "r{i}")?;
            first = false;
        }
    }
    if let Some(reg) = extra {
        if !first {
            f.write_str(", ")?;
        }
        write!(f, "{reg}")?;
    }
    f.write_str("}")
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::ShiftImm { op, rd, rm, imm5 } => {
                // lsr/asr encode a 32-bit shift as imm5 = 0.
                let amount = match (op, imm5) {
                    (ShiftOp::Lsr | ShiftOp::Asr, 0) => 32,
                    _ => u32::from(imm5),
                };
                write!(f, "{} {rd}, {rm}, #{amount}", op.mnemonic())
            }
            Instr::AddReg3 { rd, rn, rm } => write!(f, "adds {rd}, {rn}, {rm}"),
            Instr::SubReg3 { rd, rn, rm } => write!(f, "subs {rd}, {rn}, {rm}"),
            Instr::AddImm3 { rd, rn, imm3 } => write!(f, "adds {rd}, {rn}, #{imm3}"),
            Instr::SubImm3 { rd, rn, imm3 } => write!(f, "subs {rd}, {rn}, #{imm3}"),
            Instr::MovImm { rd, imm8 } => write!(f, "movs {rd}, #{imm8}"),
            Instr::CmpImm { rn, imm8 } => write!(f, "cmp {rn}, #{imm8}"),
            Instr::AddImm8 { rdn, imm8 } => write!(f, "adds {rdn}, #{imm8}"),
            Instr::SubImm8 { rdn, imm8 } => write!(f, "subs {rdn}, #{imm8}"),
            Instr::Alu { op, rdn, rm } => write!(f, "{} {rdn}, {rm}", op.mnemonic()),
            Instr::AddHi { rdn, rm } => write!(f, "add {rdn}, {rm}"),
            Instr::CmpHi { rn, rm } => write!(f, "cmp {rn}, {rm}"),
            Instr::MovHi { rd, rm } => write!(f, "mov {rd}, {rm}"),
            Instr::Bx { rm } => write!(f, "bx {rm}"),
            Instr::Blx { rm } => write!(f, "blx {rm}"),
            Instr::LdrLit { rt, imm8 } => write!(f, "ldr {rt}, [pc, #{}]", u32::from(imm8) * 4),
            Instr::StoreReg { width, rt, rn, rm } => {
                write!(f, "str{} {rt}, [{rn}, {rm}]", width_suffix(width))
            }
            Instr::LoadReg { width, rt, rn, rm } => {
                write!(f, "ldr{} {rt}, [{rn}, {rm}]", width_suffix(width))
            }
            Instr::LdrsbReg { rt, rn, rm } => write!(f, "ldrsb {rt}, [{rn}, {rm}]"),
            Instr::LdrshReg { rt, rn, rm } => write!(f, "ldrsh {rt}, [{rn}, {rm}]"),
            Instr::StoreImm { width, rt, rn, imm5 } => {
                let off = u32::from(imm5) * width.bytes();
                write!(f, "str{} {rt}, [{rn}, #{off}]", width_suffix(width))
            }
            Instr::LoadImm { width, rt, rn, imm5 } => {
                let off = u32::from(imm5) * width.bytes();
                write!(f, "ldr{} {rt}, [{rn}, #{off}]", width_suffix(width))
            }
            Instr::StrSp { rt, imm8 } => write!(f, "str {rt}, [sp, #{}]", u32::from(imm8) * 4),
            Instr::LdrSp { rt, imm8 } => write!(f, "ldr {rt}, [sp, #{}]", u32::from(imm8) * 4),
            Instr::Adr { rd, imm8 } => write!(f, "adr {rd}, #{}", u32::from(imm8) * 4),
            Instr::AddSpImm { rd, imm8 } => write!(f, "add {rd}, sp, #{}", u32::from(imm8) * 4),
            Instr::AddSp { imm7 } => write!(f, "add sp, #{}", u32::from(imm7) * 4),
            Instr::SubSp { imm7 } => write!(f, "sub sp, #{}", u32::from(imm7) * 4),
            Instr::Sxth { rd, rm } => write!(f, "sxth {rd}, {rm}"),
            Instr::Sxtb { rd, rm } => write!(f, "sxtb {rd}, {rm}"),
            Instr::Uxth { rd, rm } => write!(f, "uxth {rd}, {rm}"),
            Instr::Uxtb { rd, rm } => write!(f, "uxtb {rd}, {rm}"),
            Instr::Rev { rd, rm } => write!(f, "rev {rd}, {rm}"),
            Instr::Rev16 { rd, rm } => write!(f, "rev16 {rd}, {rm}"),
            Instr::Revsh { rd, rm } => write!(f, "revsh {rd}, {rm}"),
            Instr::Push { rlist, lr } => {
                f.write_str("push ")?;
                reg_list(f, rlist, lr.then_some(Reg::LR))
            }
            Instr::Pop { rlist, pc } => {
                f.write_str("pop ")?;
                reg_list(f, rlist, pc.then_some(Reg::PC))
            }
            Instr::Bkpt { imm8 } => write!(f, "bkpt #{imm8}"),
            Instr::Hint { hint } => f.write_str(hint.mnemonic()),
            Instr::Cps { disable } => f.write_str(if disable { "cpsid i" } else { "cpsie i" }),
            Instr::Stm { rn, rlist } => {
                write!(f, "stmia {rn}!, ")?;
                reg_list(f, rlist, None)
            }
            Instr::Ldm { rn, rlist } => {
                write!(f, "ldmia {rn}!, ")?;
                reg_list(f, rlist, None)
            }
            Instr::BCond { cond, offset } => write!(f, "b{cond} .{offset:+}"),
            Instr::Udf { imm8 } => write!(f, "udf #{imm8}"),
            Instr::Svc { imm8 } => write!(f, "svc #{imm8}"),
            Instr::B { offset } => write!(f, "b .{offset:+}"),
            Instr::Bl { offset } => write!(f, "bl .{offset:+}"),
            Instr::BW { offset } => write!(f, "b.w .{offset:+}"),
            Instr::BCondW { cond, offset } => write!(f, "b{cond}.w .{offset:+}"),
            Instr::DpImm { op, s, rn, rd, imm12 } => {
                let imm = crate::instr::thumb_expand_imm(imm12);
                if rd == Reg::PC {
                    let mnem = op.discard_mnemonic().unwrap_or(op.mnemonic());
                    write!(f, "{mnem}.w {rn}, #{imm:#x}")
                } else if rn == Reg::PC {
                    let mnem = if op == crate::instr::WideDpOp::Orr { "mov" } else { "mvn" };
                    write!(f, "{mnem}{}.w {rd}, #{imm:#x}", if s { "s" } else { "" })
                } else {
                    let s = if s { "s" } else { "" };
                    write!(f, "{}{s}.w {rd}, {rn}, #{imm:#x}", op.mnemonic())
                }
            }
            Instr::MovW { rd, imm16 } => write!(f, "movw {rd}, #{imm16:#x}"),
            Instr::MovT { rd, imm16 } => write!(f, "movt {rd}, #{imm16:#x}"),
            Instr::LdrW { rt, rn, imm12 } => write!(f, "ldr.w {rt}, [{rn}, #{imm12}]"),
            Instr::StrW { rt, rn, imm12 } => write!(f, "str.w {rt}, [{rn}, #{imm12}]"),
        }
    }
}

fn width_suffix(width: Width) -> &'static str {
    match width {
        Width::Byte => "b",
        Width::Half => "h",
        Width::Word => "",
    }
}

/// Disassembles a code buffer, yielding `(byte offset, text)` lines.
///
/// Undefined patterns render as `.hword 0x....` so the output always covers
/// the whole buffer.
///
/// ```
/// use gd_thumb::fmt::disassemble;
/// let lines = disassemble(&[0xAA, 0x20, 0x00, 0xBF]);
/// assert_eq!(lines[0], (0, "movs r0, #170".to_owned()));
/// assert_eq!(lines[1], (2, "nop".to_owned()));
/// ```
pub fn disassemble(code: &[u8]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset + 1 < code.len() {
        match crate::decode::decode_bytes(&code[offset..]) {
            Ok((instr, size)) => {
                out.push((offset as u32, instr.to_string()));
                offset += size as usize;
            }
            Err(_) => {
                let hw = u16::from_le_bytes([code[offset], code[offset + 1]]);
                out.push((offset as u32, format!(".hword {hw:#06x}")));
                offset += 2;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Hint};
    use crate::Cond;

    #[test]
    fn canonical_text() {
        let cases: Vec<(Instr, &str)> = vec![
            (Instr::MovImm { rd: Reg::R0, imm8: 170 }, "movs r0, #170"),
            (Instr::Alu { op: AluOp::Cmp, rdn: Reg::R2, rm: Reg::R3 }, "cmp r2, r3"),
            (Instr::MovHi { rd: Reg::R3, rm: Reg::SP }, "mov r3, sp"),
            (Instr::BCond { cond: Cond::Eq, offset: 6 }, "beq .+6"),
            (Instr::B { offset: -4 }, "b .-4"),
            (
                Instr::LoadImm { width: Width::Byte, rt: Reg::R3, rn: Reg::R3, imm5: 0 },
                "ldrb r3, [r3, #0]",
            ),
            (
                Instr::LoadImm { width: Width::Word, rt: Reg::R2, rn: Reg::R1, imm5: 4 },
                "ldr r2, [r1, #16]",
            ),
            (Instr::Push { rlist: 0b0001_0001, lr: true }, "push {r0, r4, lr}"),
            (Instr::Pop { rlist: 0, pc: true }, "pop {pc}"),
            (Instr::Hint { hint: Hint::Wfi }, "wfi"),
            (Instr::LdrSp { rt: Reg::R1, imm8: 3 }, "ldr r1, [sp, #12]"),
            (Instr::Stm { rn: Reg::R0, rlist: 0b110 }, "stmia r0!, {r1, r2}"),
            (Instr::Cps { disable: true }, "cpsid i"),
            (Instr::Bl { offset: 8 }, "bl .+8"),
        ];
        for (instr, text) in cases {
            assert_eq!(instr.to_string(), text);
        }
    }

    #[test]
    fn disassemble_covers_undefined_gaps() {
        // movs r0, #1 ; <undefined B100> ; nop
        let code = [0x01, 0x20, 0x00, 0xB1, 0x00, 0xBF];
        let lines = disassemble(&code);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].1, ".hword 0xb100");
        assert_eq!(lines[2], (4, "nop".to_owned()));
    }
}
