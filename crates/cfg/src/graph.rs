//! Machine-level CFG recovery over a [`FirmwareImage`].
//!
//! The walk decodes through the shared [`gd_emu::classify`] path (so the
//! recovered graph and the emulator can never disagree about what a
//! halfword means), splits at leaders, and types every edge. Literal
//! pools are respected two ways: linear flow never crosses an extent's
//! `code_end`, and words referenced by PC-relative loads are never
//! decoded even inside regions discovered past `code_end`.
//!
//! Recovery iterates to a fixpoint with the constant-propagation domain
//! (`crate::dataflow`): each round resolves computed branches whose
//! operand the lattice pins to a single value, which can expose new
//! leaders for the next round's walk.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gd_backend::FirmwareImage;
use gd_emu::{classify, Config, Slot};
use gd_thumb::{Hint, Instr, Reg};

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Execution continues at [`Block::end`] (the next leader).
    Fall,
    /// Conditional branch: `taken` on true, [`Block::end`] on false.
    Cond {
        /// Branch target when the condition holds.
        taken: u32,
    },
    /// Unconditional branch.
    Uncond {
        /// Branch target.
        target: u32,
    },
    /// Call; the continuation is [`Block::end`]. `target` is `None` for
    /// a computed call (`BLX Rm`) the dataflow could not resolve.
    Call {
        /// Static callee entry, when known.
        target: Option<u32>,
    },
    /// Function return (`BX LR` / `POP {.., pc}`).
    Ret,
    /// Computed branch (`BX Rm`, `MOV PC, Rm`, `ADD PC, Rm`,
    /// `LDR.W PC, [..]`). `target` is `Some` once resolved.
    Computed {
        /// Resolved target, when the dataflow pinned the operand.
        target: Option<u32>,
    },
    /// Execution stops here (`BKPT`, `UDF`, `SVC`, `WFI`, `WFE`).
    Stop,
}

/// Edge type between two blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Straight-line flow into the next leader.
    Fall,
    /// Conditional branch, condition true.
    CondTaken,
    /// Conditional branch, condition false.
    CondFall,
    /// Unconditional branch.
    Uncond,
    /// Call into a routine entry.
    Call,
    /// Call-site to its continuation (the callee was entered and
    /// returned). Added only when the callee can actually return.
    CallReturn,
    /// Resolved computed branch.
    Computed,
}

/// One recovered basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Address one past the last instruction.
    pub end: u32,
    /// Instructions as `(address, instr, size)`.
    pub instrs: Vec<(u32, Instr, u32)>,
    /// How the block ends.
    pub term: Term,
}

impl Block {
    /// The terminator's address (the last instruction).
    pub fn term_addr(&self) -> u32 {
        self.instrs.last().expect("blocks are non-empty").0
    }
}

/// A callee-exit edge: `from` (a return block of the callee) transfers
/// to `to` (the continuation of `call`). Traversals gate it on the call
/// site being live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReturnEdge {
    /// Returning block (its terminator is [`Term::Ret`]).
    pub from: usize,
    /// Continuation block after the call.
    pub to: usize,
    /// The calling block.
    pub call: usize,
}

/// The recovered whole-image control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Decode configuration the recovery ran under.
    pub emu_cfg: Config,
    /// Blocks in ascending start order.
    pub blocks: Vec<Block>,
    /// Block start address → block index.
    pub index: BTreeMap<u32, usize>,
    /// Instruction address → `(block, position)`.
    pub instr_blocks: BTreeMap<u32, (usize, usize)>,
    /// Successor lists (no return edges; see [`Cfg::return_edges`]).
    pub succs: Vec<Vec<(usize, EdgeKind)>>,
    /// Predecessor lists, mirroring [`Cfg::succs`].
    pub preds: Vec<Vec<(usize, EdgeKind)>>,
    /// Gated callee-exit edges.
    pub return_edges: Vec<ReturnEdge>,
    /// Computed-branch sites resolved by the dataflow (site → target).
    pub resolved: BTreeMap<u32, u32>,
    /// Computed-branch/call sites the dataflow could not resolve.
    pub unresolved: Vec<u32>,
    /// Outer walk/dataflow rounds until the leader set stabilized.
    pub rounds: u64,
    /// Worklist iterations spent in the constant-propagation fixpoint.
    pub fixpoint_iterations: u64,
}

/// Where one instruction sends control, before block structure exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Falls through to the next instruction.
    Next,
    /// Conditional branch to `target`, falling through otherwise.
    CondBranch {
        /// Taken target.
        target: u32,
    },
    /// Unconditional branch to `target`.
    Branch {
        /// The target.
        target: u32,
    },
    /// Call; `None` when the callee is computed and unresolved.
    Call {
        /// Static callee entry, when known.
        target: Option<u32>,
    },
    /// Function return.
    Ret,
    /// Computed branch; `Some` only for memory-indirect targets readable
    /// straight out of the image.
    Computed {
        /// Statically known target.
        target: Option<u32>,
    },
    /// Execution stops.
    Stop,
}

/// Classifies where `instr` at `addr` sends control. `image` is
/// consulted only for `LDR.W PC, [PC, #imm]`, whose pool word is
/// constant in the image.
pub fn flow_of(instr: Instr, addr: u32, image: &FirmwareImage) -> Flow {
    let pc = addr.wrapping_add(4);
    match instr {
        Instr::BCond { offset, .. } => Flow::CondBranch { target: pc.wrapping_add(offset as u32) },
        Instr::BCondW { offset, .. } => Flow::CondBranch { target: pc.wrapping_add(offset as u32) },
        Instr::B { offset } | Instr::BW { offset } => {
            Flow::Branch { target: pc.wrapping_add(offset as u32) }
        }
        Instr::Bl { offset } => Flow::Call { target: Some(pc.wrapping_add(offset as u32)) },
        Instr::Blx { .. } => Flow::Call { target: None },
        Instr::Bx { rm: Reg::LR } => Flow::Ret,
        Instr::Bx { .. } => Flow::Computed { target: None },
        Instr::MovHi { rd: Reg::PC, .. } | Instr::AddHi { rdn: Reg::PC, .. } => {
            Flow::Computed { target: None }
        }
        Instr::Pop { pc: true, .. } => Flow::Ret,
        Instr::LdrW { rt: Reg::PC, rn, imm12 } => {
            if rn == Reg::PC {
                let slot = (pc & !3).wrapping_add(u32::from(imm12));
                match read_text_word(image, slot) {
                    // Even targets take an interworking fault; execution
                    // never continues, so the site behaves like a stop.
                    Some(v) if v & 1 == 1 => Flow::Computed { target: Some(v & !1) },
                    Some(_) => Flow::Stop,
                    None => Flow::Computed { target: None },
                }
            } else {
                Flow::Computed { target: None }
            }
        }
        Instr::Bkpt { .. }
        | Instr::Udf { .. }
        | Instr::Svc { .. }
        | Instr::Hint { hint: Hint::Wfi }
        | Instr::Hint { hint: Hint::Wfe } => Flow::Stop,
        _ => Flow::Next,
    }
}

/// Reads a little-endian word from the text section.
pub fn read_text_word(image: &FirmwareImage, addr: u32) -> Option<u32> {
    let off = addr.checked_sub(image.text_base)? as usize;
    let bytes = image.text.get(off..off + 4)?;
    Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Words referenced by PC-relative loads of `instr` at `addr` (literal
/// pool slots that must never be decoded as code).
fn pool_ref(instr: Instr, addr: u32) -> Option<u32> {
    let base = addr.wrapping_add(4) & !3;
    match instr {
        Instr::LdrLit { imm8, .. } => Some(base.wrapping_add(u32::from(imm8) * 4)),
        Instr::LdrW { rn: Reg::PC, imm12, .. } => Some(base.wrapping_add(u32::from(imm12)) & !3),
        _ => None,
    }
}

struct Builder<'a> {
    image: &'a FirmwareImage,
    emu_cfg: Config,
    resolved: &'a BTreeMap<u32, u32>,
    /// Decoded instruction starts.
    walked: BTreeMap<u32, (Instr, u32)>,
    /// Block boundaries.
    leaders: BTreeSet<u32>,
    /// Literal-pool words referenced by decoded loads.
    pool: BTreeSet<u32>,
    /// Pending walk starts: `(addr, past_code_end_allowed)`.
    queue: VecDeque<(u32, bool)>,
    queued: BTreeSet<u32>,
}

impl<'a> Builder<'a> {
    fn containing_extent(&self, addr: u32) -> Option<&gd_backend::FuncExtent> {
        let idx = self.image.extents.partition_point(|e| e.base <= addr).checked_sub(1)?;
        let e = &self.image.extents[idx];
        (addr < e.end).then_some(e)
    }

    fn enqueue(&mut self, addr: u32) {
        if self.queued.insert(addr) {
            // Targets landing past their extent's inferred code_end are
            // discovered code (e.g. reached only via computed branches);
            // the walk may continue there, guarded by referenced pool
            // words instead of the code_end boundary.
            let past = self.containing_extent(addr).is_some_and(|e| addr >= e.code_end);
            self.queue.push_back((addr, past));
        }
    }

    fn target(&mut self, addr: u32) {
        self.leaders.insert(addr);
        self.enqueue(addr);
    }

    fn in_pool(&self, addr: u32) -> bool {
        self.pool.contains(&(addr & !3))
    }

    /// Decodes linearly from `start` until a terminator, an already
    /// walked address, a decode failure, or a layout boundary.
    fn walk(&mut self, start: u32, past_code_end: bool) {
        let mut addr = start;
        loop {
            if self.walked.contains_key(&addr) || self.in_pool(addr) {
                return;
            }
            let Some(extent) = self.containing_extent(addr) else { return };
            let limit = if past_code_end { extent.end } else { extent.code_end };
            if addr + 2 > limit {
                return;
            }
            let off = (addr - self.image.text_base) as usize;
            let hw = u16::from_le_bytes([self.image.text[off], self.image.text[off + 1]]);
            let hw2 =
                self.image.text.get(off + 2..off + 4).map(|b| u16::from_le_bytes([b[0], b[1]]));
            let (instr, size) = match classify(hw, hw2, self.emu_cfg) {
                Slot::Instr { instr, size } => (instr, size),
                _ => return,
            };
            if addr + size > limit {
                return;
            }
            self.walked.insert(addr, (instr, size));
            if let Some(slot) = pool_ref(instr, addr) {
                self.pool.insert(slot);
            }
            let next = addr + size;
            match flow_of(instr, addr, self.image) {
                Flow::Next => addr = next,
                Flow::CondBranch { target } => {
                    self.target(target);
                    self.leaders.insert(next);
                    addr = next;
                }
                Flow::Branch { target } => {
                    self.target(target);
                    return;
                }
                Flow::Call { target } => {
                    if let Some(t) = target.or_else(|| self.resolved.get(&addr).copied()) {
                        self.target(t);
                    }
                    self.leaders.insert(next);
                    addr = next;
                }
                Flow::Computed { target } => {
                    if let Some(t) = target.or_else(|| self.resolved.get(&addr).copied()) {
                        self.target(t);
                    }
                    return;
                }
                Flow::Ret | Flow::Stop => return,
            }
        }
    }

    fn run(mut self) -> Cfg {
        while let Some((addr, past)) = self.queue.pop_front() {
            self.walk(addr, past);
        }
        self.assemble()
    }

    /// Splits the walked instructions into blocks and builds the edges.
    fn assemble(&mut self) -> Cfg {
        let mut blocks: Vec<Block> = Vec::new();
        let mut current: Vec<(u32, Instr, u32)> = Vec::new();
        let mut flush = |instrs: &mut Vec<(u32, Instr, u32)>, term: Term| {
            if let (Some(&(first, ..)), Some(&(last, _, size))) = (instrs.first(), instrs.last()) {
                blocks.push(Block {
                    start: first,
                    end: last + size,
                    instrs: std::mem::take(instrs),
                    term,
                });
            }
        };
        let walked = std::mem::take(&mut self.walked);
        let mut iter = walked.iter().peekable();
        while let Some((&addr, &(instr, size))) = iter.next() {
            if let Some(&(prev, _, psize)) = current.last() {
                if prev + psize != addr || self.leaders.contains(&addr) {
                    flush(&mut current, Term::Fall);
                }
            }
            current.push((addr, instr, size));
            let next = addr + size;
            let term = match flow_of(instr, addr, self.image) {
                Flow::Next => {
                    let boundary = self.leaders.contains(&next)
                        || iter.peek().is_none_or(|&(&a, _)| a != next);
                    if boundary {
                        Some(Term::Fall)
                    } else {
                        None
                    }
                }
                Flow::CondBranch { target } => Some(Term::Cond { taken: target }),
                Flow::Branch { target } => Some(Term::Uncond { target }),
                Flow::Call { target } => Some(Term::Call {
                    target: target.or_else(|| self.resolved.get(&addr).copied()),
                }),
                Flow::Ret => Some(Term::Ret),
                Flow::Computed { target } => Some(Term::Computed {
                    target: target.or_else(|| self.resolved.get(&addr).copied()),
                }),
                Flow::Stop => Some(Term::Stop),
            };
            if let Some(term) = term {
                flush(&mut current, term);
            }
        }
        flush(&mut current, Term::Fall);

        let index: BTreeMap<u32, usize> =
            blocks.iter().enumerate().map(|(i, b)| (b.start, i)).collect();
        let mut instr_blocks = BTreeMap::new();
        for (i, b) in blocks.iter().enumerate() {
            for (pos, &(a, ..)) in b.instrs.iter().enumerate() {
                instr_blocks.insert(a, (i, pos));
            }
        }

        let mut succs: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); blocks.len()];
        let mut unresolved = Vec::new();
        let mut calls: Vec<(usize, Option<usize>)> = Vec::new(); // (call block, callee entry)
        for (i, b) in blocks.iter().enumerate() {
            let edge = |to: u32, kind: EdgeKind, succs: &mut Vec<Vec<(usize, EdgeKind)>>| {
                if let Some(&t) = index.get(&to) {
                    succs[i].push((t, kind));
                }
            };
            match b.term {
                Term::Fall => edge(b.end, EdgeKind::Fall, &mut succs),
                Term::Cond { taken } => {
                    edge(taken, EdgeKind::CondTaken, &mut succs);
                    edge(b.end, EdgeKind::CondFall, &mut succs);
                }
                Term::Uncond { target } => edge(target, EdgeKind::Uncond, &mut succs),
                Term::Call { target } => {
                    let callee = target.and_then(|t| index.get(&t).copied());
                    if let Some(c) = callee {
                        succs[i].push((c, EdgeKind::Call));
                    } else {
                        unresolved.push(b.term_addr());
                    }
                    calls.push((i, callee));
                }
                Term::Computed { target: Some(t) } => edge(t, EdgeKind::Computed, &mut succs),
                Term::Computed { target: None } => unresolved.push(b.term_addr()),
                Term::Ret | Term::Stop => {}
            }
        }

        // Call continuations: a `CallReturn` edge models "the callee ran
        // and returned", so it exists only when a return block of the
        // callee is intraprocedurally reachable from its entry. Unknown
        // callees are conservatively assumed to return. The check is a
        // fixpoint because reaching a return may require crossing nested
        // calls' own CallReturn edges.
        let mut pending: Vec<(usize, Option<usize>)> = calls.clone();
        loop {
            let mut changed = false;
            pending.retain(|&(call, callee)| {
                let returns = match callee {
                    None => true,
                    Some(entry) => intra_reach(&blocks, &succs, entry)
                        .iter()
                        .any(|&bi| blocks[bi].term == Term::Ret),
                };
                if returns {
                    if let Some(&cont) = index.get(&blocks[call].end) {
                        succs[call].push((cont, EdgeKind::CallReturn));
                    }
                    changed = true;
                    false
                } else {
                    true
                }
            });
            if !changed {
                break;
            }
        }

        // Callee-exit edges, gated at traversal time on the call site.
        let mut return_edges = BTreeSet::new();
        for &(call, callee) in &calls {
            let Some(entry) = callee else { continue };
            let Some(&cont) = index.get(&blocks[call].end) else { continue };
            for bi in intra_reach(&blocks, &succs, entry) {
                if blocks[bi].term == Term::Ret {
                    return_edges.insert(ReturnEdge { from: bi, to: cont, call });
                }
            }
        }

        let mut preds: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); blocks.len()];
        for (i, out) in succs.iter().enumerate() {
            for &(t, kind) in out {
                preds[t].push((i, kind));
            }
        }

        Cfg {
            emu_cfg: self.emu_cfg,
            blocks,
            index,
            instr_blocks,
            succs,
            preds,
            return_edges: return_edges.into_iter().collect(),
            resolved: self.resolved.clone(),
            unresolved,
            rounds: 0,
            fixpoint_iterations: 0,
        }
    }
}

/// Blocks intraprocedurally reachable from `entry` (no `Call` edges, no
/// return edges; `CallReturn` edges are local flow).
fn intra_reach(blocks: &[Block], succs: &[Vec<(usize, EdgeKind)>], entry: usize) -> Vec<usize> {
    let mut seen = vec![false; blocks.len()];
    let mut queue = vec![entry];
    seen[entry] = true;
    let mut out = Vec::new();
    while let Some(b) = queue.pop() {
        out.push(b);
        for &(t, kind) in &succs[b] {
            if kind != EdgeKind::Call && !seen[t] {
                seen[t] = true;
                queue.push(t);
            }
        }
    }
    out
}

/// One pass of the decode walk with a fixed computed-branch resolution.
pub(crate) fn build(image: &FirmwareImage, emu_cfg: Config, resolved: &BTreeMap<u32, u32>) -> Cfg {
    let mut b = Builder {
        image,
        emu_cfg,
        resolved,
        walked: BTreeMap::new(),
        leaders: BTreeSet::new(),
        pool: BTreeSet::new(),
        queue: VecDeque::new(),
        queued: BTreeSet::new(),
    };
    b.leaders.insert(image.entry);
    b.enqueue(image.entry);
    for e in &image.extents {
        b.leaders.insert(e.base);
        b.enqueue(e.base);
    }
    b.run()
}

impl Cfg {
    /// Whether `(from → to)` is a transition the graph explains: either
    /// consecutive within a block, or an edge (including gated return
    /// edges) out of `from`'s block with `from` as the terminator.
    pub fn has_transition(&self, from: u32, to: u32) -> bool {
        let Some(&(bi, pos)) = self.instr_blocks.get(&from) else { return false };
        let b = &self.blocks[bi];
        if pos + 1 < b.instrs.len() {
            return b.instrs[pos + 1].0 == to;
        }
        if self.succs[bi].iter().any(|&(t, _)| self.blocks[t].start == to) {
            return true;
        }
        self.return_edges.iter().any(|re| re.from == bi && self.blocks[re.to].start == to)
    }
}
