//! The `GL03xx` glitch-reachability lints: static verdicts for every
//! single-bit flip and instruction skip, cross-validated against the
//! fault simulator by `gd-bench`'s agreement harness.
//!
//! The verdicts are sound in one direction only: a fault the simulator
//! proves *Successful* must never come back [`Verdict::Safe`]. To hold
//! that line against data-corrupting faults (not just control-flow
//! diversion), reachability takes *both* arms of every conditional — a
//! fault upstream of a deciding branch may flip the data the condition
//! reads, so the sink is considered reachable from any point whose
//! continuation passes through the branch. The price is
//! over-approximation downstream of the sink decision, which the
//! agreement tables measure instead of hiding.

use gd_backend::{FirmwareImage, FuncExtent};
use gd_emu::Slot;
use gd_lint::Finding;
use gd_thumb::{Hint, Instr, Reg};

use crate::dom;
use crate::graph::{Cfg, Term};
use crate::reach::{entry_context, reach};

/// Why a fault is statically harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeReason {
    /// The faulted halfword does not decode; the core takes an
    /// undefined-instruction trap.
    Undefined,
    /// The faulted instruction halts (`BKPT`, `UDF`, `SVC`, `WFI`,
    /// `WFE`).
    Stop,
    /// Every successor either faults on fetch or reaches no sink block
    /// under the over-approximating traversal.
    NoPath,
}

/// Why a fault is statically dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Danger {
    /// A path into the sensitive sink exists.
    Sink,
    /// Control flow cannot be bounded (computed target, unmapped
    /// landing, unresolved callee) — assumed dangerous.
    Unknown,
}

/// Static classification of one fault instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Provably cannot reach the sink.
    Safe(SafeReason),
    /// May reach the sink (or cannot be bounded).
    Dangerous(Danger),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Dangerous`].
    pub fn dangerous(self) -> bool {
        matches!(self, Verdict::Dangerous(_))
    }
}

/// One faultable instruction site, as the models see it.
#[derive(Debug, Clone, Copy)]
pub struct SiteDesc {
    /// Address of the first halfword.
    pub addr: u32,
    /// That halfword as laid out in the image.
    pub hw: u16,
    /// The following halfword, when one exists.
    pub hw2: Option<u16>,
    /// Encoding size in bytes (2 or 4).
    pub size: u32,
}

/// The sensitive region faults must not reach.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Short name used in finding messages.
    pub label: String,
    /// Absolute address spans `[start, end)`.
    pub spans: Vec<(u32, u32)>,
}

impl Sink {
    /// Whether `addr` falls inside the sink.
    pub fn contains(&self, addr: u32) -> bool {
        self.spans.iter().any(|&(s, e)| addr >= s && addr < e)
    }
}

/// Builds the sink for a compiled image from a named IR block: the span
/// runs from that block's machine start through the end of the first
/// call-terminated machine block on the fall chain (the call that acts
/// on the sensitive value), *excluding* the call's continuation — the
/// continuation is where legitimate return edges land, and code there
/// no longer performs the sensitive action.
pub fn compiled_sink(
    g: &Cfg,
    image: &FirmwareImage,
    func: &str,
    block: &str,
    label: &str,
) -> Option<Sink> {
    let extent = image.extent(func)?;
    let &(_, off) = extent.blocks.iter().find(|(name, _)| name == block)?;
    let start = extent.base + off;
    let mut bi = *g.index.get(&start)?;
    let end = loop {
        match g.blocks[bi].term {
            Term::Call { .. } => break g.blocks[bi].end,
            Term::Fall => match g.index.get(&g.blocks[bi].end) {
                Some(&next) => bi = next,
                None => break g.blocks[bi].end,
            },
            _ => break g.blocks[bi].end,
        }
    };
    Some(Sink { label: label.to_owned(), spans: vec![(start, end)] })
}

/// One guard re-check and the site it protects, in machine coordinates.
#[derive(Debug, Clone)]
pub struct GuardCheck {
    /// Routine containing the guard.
    pub func: String,
    /// Absolute span of the protected (branching) block.
    pub site_span: (u32, u32),
    /// Absolute start of the re-check block.
    pub check: u32,
    /// `"branch"`, `"loop"`, or `"pattern"` (matched, not recorded).
    pub kind: &'static str,
}

/// All guard metadata for an image, in machine coordinates.
#[derive(Debug, Clone, Default)]
pub struct GuardChecks {
    /// Re-checks with the spans they protect.
    pub checks: Vec<GuardCheck>,
    /// Absolute spans of detection trampolines and other
    /// hardening-synthesized blocks.
    pub detect_spans: Vec<(u32, u32)>,
}

/// Machine span of IR block `bb` inside `extent` (next recorded block
/// offset, or `code_end`, bounds it).
fn block_span(extent: &FuncExtent, bb: usize) -> Option<(u32, u32)> {
    let &(_, off) = extent.blocks.get(bb)?;
    let end = extent.blocks.get(bb + 1).map_or(extent.code_end, |&(_, next)| extent.base + next);
    Some((extent.base + off, end))
}

impl GuardChecks {
    /// Reads compiled guard metadata: IR block ids from each function's
    /// [`gd_ir::GuardInfo`] resolve positionally through the extent's
    /// recorded block layout.
    pub fn from_module(module: &gd_ir::Module, image: &FirmwareImage) -> GuardChecks {
        let mut out = GuardChecks::default();
        for func in &module.funcs {
            let Some(extent) = image.extent(&func.name) else { continue };
            if extent.blocks.is_empty() {
                continue;
            }
            let lists =
                [("branch", &func.guards.branch_checks), ("loop", &func.guards.loop_checks)];
            for (kind, checks) in lists {
                for bc in checks {
                    let (Some(site_span), Some(check_span)) =
                        (block_span(extent, bc.site.index()), block_span(extent, bc.check.index()))
                    else {
                        continue;
                    };
                    out.checks.push(GuardCheck {
                        func: func.name.clone(),
                        site_span,
                        check: check_span.0,
                        kind,
                    });
                }
            }
            for &gb in &func.guards.guard_blocks {
                if let Some(span) = block_span(extent, gb.index()) {
                    out.detect_spans.push(span);
                }
            }
        }
        out
    }

    /// Pattern-matches re-check sequences on images without compiled
    /// guard metadata (ingested firmware): a conditional block one of
    /// whose arms is a trap block, fed by a predecessor that itself ends
    /// in a conditional branch (the original decision).
    pub fn pattern_rechecks(g: &Cfg, image: &FirmwareImage) -> GuardChecks {
        let mut out = GuardChecks::default();
        let trap = |bi: usize| {
            let b = &g.blocks[bi];
            match b.term {
                Term::Stop => true,
                Term::Uncond { target } => target == b.start, // spin loop
                _ => false,
            }
        };
        for (bi, b) in g.blocks.iter().enumerate() {
            if !matches!(b.term, Term::Cond { .. }) {
                continue;
            }
            if !g.succs[bi].iter().any(|&(t, _)| trap(t)) {
                continue;
            }
            let Some((name, _)) = image.symbolize(b.start) else { continue };
            for &(p, _) in &g.preds[bi] {
                let pb = &g.blocks[p];
                if matches!(pb.term, Term::Cond { .. }) {
                    out.checks.push(GuardCheck {
                        func: name.to_owned(),
                        site_span: (pb.start, pb.end),
                        check: b.start,
                        kind: "pattern",
                    });
                }
            }
            for &(t, _) in &g.succs[bi] {
                if trap(t) {
                    out.detect_spans.push((g.blocks[t].start, g.blocks[t].end));
                }
            }
        }
        out
    }

    /// Whether `addr` lies in a detection trampoline.
    pub fn in_detect(&self, addr: u32) -> bool {
        self.detect_spans.iter().any(|&(s, e)| addr >= s && addr < e)
    }
}

/// Everything a fault classification query needs.
pub struct FaultCtx<'a> {
    /// The recovered graph.
    pub g: &'a Cfg,
    /// The image under analysis.
    pub image: &'a FirmwareImage,
    /// The sensitive sink.
    pub sink: &'a Sink,
    /// Guard metadata (compiled or pattern-matched).
    pub guards: &'a GuardChecks,
    /// Blocks live under the over-approximating entry traversal.
    pub context: Vec<bool>,
}

impl<'a> FaultCtx<'a> {
    /// Builds the context (one entry-reachability query).
    pub fn new(
        g: &'a Cfg,
        image: &'a FirmwareImage,
        sink: &'a Sink,
        guards: &'a GuardChecks,
    ) -> FaultCtx<'a> {
        let context = entry_context(g, image.entry);
        FaultCtx { g, image, sink, guards, context }
    }

    /// Classifies corrupting the site's first halfword with `site.hw ^
    /// mask` (the xor1.t model enumerates the sixteen single-bit masks).
    pub fn classify_flip(&self, site: &SiteDesc, mask: u16) -> Verdict {
        match gd_emu::classify(site.hw ^ mask, site.hw2, self.g.emu_cfg) {
            Slot::Undefined { .. } => Verdict::Safe(SafeReason::Undefined),
            // A wide prefix at the end of text: the second fetch runs
            // off the image. The emulator faults, but decoding is
            // config-sensitive enough that we do not bet on it.
            Slot::Incomplete { .. } => Verdict::Dangerous(Danger::Unknown),
            // `classify` on raw halfwords never yields `Live` (that is
            // the invalidated-table marker), but be conservative.
            Slot::Live => Verdict::Dangerous(Danger::Unknown),
            Slot::Instr { instr, size } => self.faulted_instr(site, instr, size),
        }
    }

    /// Classifies skipping the site (the skip.t model): execution
    /// resumes at the next instruction with the site's effects missing.
    pub fn classify_skip(&self, site: &SiteDesc) -> Verdict {
        self.verdict_from(site, &[site.addr + site.size], false)
    }

    fn faulted_instr(&self, site: &SiteDesc, instr: Instr, size: u32) -> Verdict {
        if matches!(instr, Instr::Bkpt { .. } | Instr::Udf { .. } | Instr::Svc { .. })
            || matches!(instr, Instr::Hint { hint: Hint::Wfi | Hint::Wfe })
        {
            return Verdict::Safe(SafeReason::Stop);
        }
        let pc = site.addr.wrapping_add(4);
        let direct_branch = matches!(
            instr,
            Instr::BCond { .. } | Instr::BCondW { .. } | Instr::B { .. } | Instr::BW { .. }
        );
        let addrs: Vec<u32> = match instr {
            Instr::BCond { offset, .. } | Instr::BCondW { offset, .. } => {
                vec![pc.wrapping_add(offset as u32), site.addr + size]
            }
            Instr::B { offset } | Instr::BW { offset } => vec![pc.wrapping_add(offset as u32)],
            Instr::Bl { offset } => vec![pc.wrapping_add(offset as u32), site.addr + 4],
            Instr::Bx { rm: Reg::LR } => return self.early_return(site),
            // Register-indirect control transfer under a corrupted
            // register file: unboundable.
            Instr::Bx { .. }
            | Instr::Blx { .. }
            | Instr::MovHi { rd: Reg::PC, .. }
            | Instr::AddHi { rdn: Reg::PC, .. }
            | Instr::Pop { pc: true, .. }
            | Instr::LdrW { rt: Reg::PC, .. } => return Verdict::Dangerous(Danger::Unknown),
            _ => vec![site.addr + size],
        };
        self.verdict_from(site, &addrs, direct_branch)
    }

    /// A flipped `BX LR` returns early. Mid-routine, LR holds either the
    /// caller's return address or the continuation of the last call this
    /// routine made — so the landing set is every caller continuation
    /// (gated on the call frame being live in the context) plus every
    /// call continuation inside the routine.
    fn early_return(&self, site: &SiteDesc) -> Verdict {
        let Some(extent) = containing_extent(self.image, site.addr) else {
            return Verdict::Dangerous(Danger::Unknown);
        };
        let in_routine = |start: u32| start >= extent.base && start < extent.end;
        let mut starts = Vec::new();
        for re in &self.g.return_edges {
            if in_routine(self.g.blocks[re.from].start) && self.context[re.call] {
                starts.push(re.to);
            }
        }
        for (bi, b) in self.g.blocks.iter().enumerate() {
            let _ = bi;
            if in_routine(b.start) && matches!(b.term, Term::Call { .. }) {
                if let Some(&cont) = self.g.index.get(&b.end) {
                    starts.push(cont);
                }
            }
        }
        if starts.is_empty() {
            return Verdict::Safe(SafeReason::NoPath);
        }
        self.reach_verdict(&starts)
    }

    /// Maps landing addresses to blocks and runs the reachability query.
    fn verdict_from(&self, site: &SiteDesc, addrs: &[u32], direct_branch: bool) -> Verdict {
        let site_extent = containing_extent(self.image, site.addr).map(|e| e.base);
        let mut starts = Vec::new();
        for &a in addrs {
            // Landing outside the text section fetch-faults: safe.
            if !self.in_text(a) {
                continue;
            }
            // A direct branch carries honest registers. When it fires
            // from inside a guarded block straight into that block's own
            // re-check, the re-check sees consistent data and either
            // detects the diversion or continues exactly as the honest
            // path would — either way, no new behavior. (Checks guarding
            // *other* sites get no such credit: a data fault can corrupt
            // the value a foreign check recomputes its complement from.)
            if direct_branch && self.caught(site.addr, a) {
                continue;
            }
            if self.sink.contains(a) {
                return Verdict::Dangerous(Danger::Sink);
            }
            // Landing in a *foreign* routine runs that body on the
            // faulting routine's frame: its epilogue returns through the
            // faulting routine's live LR (or pops arbitrary stack slots),
            // landings the callee's own return edges cannot model.
            if containing_extent(self.image, a).map(|e| e.base) != site_extent {
                return Verdict::Dangerous(Danger::Unknown);
            }
            match self.g.instr_blocks.get(&a) {
                Some(&(bi, _)) => starts.push(bi),
                // In text but not a decoded instruction start (literal
                // pool, misaligned landing): unboundable.
                None => return Verdict::Dangerous(Danger::Unknown),
            }
        }
        if starts.is_empty() {
            return Verdict::Safe(SafeReason::NoPath);
        }
        self.reach_verdict(&starts)
    }

    fn reach_verdict(&self, starts: &[usize]) -> Verdict {
        let r = reach(self.g, starts, &self.context);
        if r.hit_unresolved {
            return Verdict::Dangerous(Danger::Unknown);
        }
        for (bi, b) in self.g.blocks.iter().enumerate() {
            if r.blocks[bi] && self.sink.contains(b.start) {
                return Verdict::Dangerous(Danger::Sink);
            }
        }
        Verdict::Safe(SafeReason::NoPath)
    }

    fn in_text(&self, addr: u32) -> bool {
        addr >= self.image.text_base
            && (addr - self.image.text_base) as usize + 2 <= self.image.text.len()
    }

    fn caught(&self, site: u32, succ: u32) -> bool {
        self.guards
            .checks
            .iter()
            .any(|gc| site >= gc.site_span.0 && site < gc.site_span.1 && succ == gc.check)
    }

    /// Site descriptor for the instruction at `(block, pos)`.
    pub fn site_at(&self, bi: usize, pos: usize) -> SiteDesc {
        let (addr, _, size) = self.g.blocks[bi].instrs[pos];
        let off = (addr - self.image.text_base) as usize;
        let hw = u16::from_le_bytes([self.image.text[off], self.image.text[off + 1]]);
        let hw2 = self.image.text.get(off + 2..off + 4).map(|b| u16::from_le_bytes([b[0], b[1]]));
        SiteDesc { addr, hw, hw2, size }
    }
}

fn containing_extent(image: &FirmwareImage, addr: u32) -> Option<&FuncExtent> {
    let idx = image.extents.partition_point(|e| e.base <= addr).checked_sub(1)?;
    let e = &image.extents[idx];
    (addr < e.end).then_some(e)
}

/// The sixteen single-bit masks of the xor1.t model.
pub fn bit_masks() -> impl Iterator<Item = u16> {
    (0..16).map(|i| 1u16 << i)
}

/// Runs the `GL03xx` lints over a classified image.
pub fn lint_cfg(ctx: &FaultCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let routines = dom::routines(ctx.g, ctx.image);

    // GL0301: conditional-branch sites where a single-bit flip opens a
    // path into the sink. GL0304: call sites inside a detection
    // trampoline whose skip bypasses the guard entirely.
    for (bi, b) in ctx.g.blocks.iter().enumerate() {
        let Some((func, off)) = ctx.image.symbolize(b.term_addr()) else { continue };
        let (func, off) = (func.to_owned(), off);
        let pos = b.instrs.len() - 1;
        let site = ctx.site_at(bi, pos);
        match b.term {
            Term::Cond { .. } => {
                let dangerous =
                    bit_masks().filter(|&m| ctx.classify_flip(&site, m).dangerous()).count();
                if dangerous > 0 {
                    findings.push(
                        Finding::new(
                            "GL0301",
                            &func,
                            &format!("+{off:#x}"),
                            format!(
                                "{dangerous} of 16 single-bit flips open a path to {} \
                                 crossing no re-check",
                                ctx.sink.label,
                            ),
                        )
                        .with_span(off, off + site.size),
                    );
                }
            }
            Term::Call { .. }
                if ctx.guards.in_detect(site.addr) && ctx.classify_skip(&site).dangerous() =>
            {
                findings.push(
                    Finding::new(
                        "GL0304",
                        &func,
                        &format!("+{off:#x}"),
                        format!(
                            "skipping this call bypasses the guard and opens a path to {}",
                            ctx.sink.label,
                        ),
                    )
                    .with_span(off, off + site.size),
                );
            }
            _ => {}
        }
    }

    // GL0302/GL0303: structural health of every recorded guard.
    for gc in &ctx.guards.checks {
        let Some(routine) = routines.iter().find(|r| r.name == gc.func) else { continue };
        let Some(&check_bi) = ctx.g.index.get(&gc.check) else { continue };
        let (span_lo, span_hi) = gc.site_span;
        let rel = |a: u32| a - ctx.image.extent(&gc.func).map_or(0, |e| e.base);
        let loc = format!("+{:#x}", rel(gc.check));
        let check_span = (rel(gc.check), rel(ctx.g.blocks[check_bi].end));

        let has_edge = ctx
            .g
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.start >= span_lo && b.start < span_hi)
            .any(|(bi, _)| ctx.g.succs[bi].iter().any(|&(t, _)| t == check_bi));
        if !has_edge {
            findings.push(
                Finding::new(
                    "GL0302",
                    &gc.func,
                    &loc,
                    format!(
                        "{} re-check has no machine edge from the site it protects \
                         (+{:#x}..+{:#x})",
                        gc.kind,
                        rel(span_lo),
                        rel(span_hi),
                    ),
                )
                .with_span(check_span.0, check_span.1),
            );
        } else if let (Some(check_l), Some(dom)) = (routine.local(check_bi), routine.dominators()) {
            // The check must strictly dominate each protected (non-
            // detect) target it forwards to.
            for &(t, _) in &ctx.g.succs[check_bi] {
                let tb = &ctx.g.blocks[t];
                if ctx.guards.in_detect(tb.start) {
                    continue;
                }
                let Some(t_l) = routine.local(t) else { continue };
                if t_l == check_l || !dom.dominates(check_l, t_l) {
                    findings.push(
                        Finding::new(
                            "GL0302",
                            &gc.func,
                            &loc,
                            format!(
                                "{} re-check does not strictly dominate its protected \
                                 target +{:#x}",
                                gc.kind,
                                rel(tb.start),
                            ),
                        )
                        .with_span(check_span.0, check_span.1),
                    );
                }
            }
        }
        if !ctx.context.get(check_bi).copied().unwrap_or(false) {
            findings.push(
                Finding::new(
                    "GL0303",
                    &gc.func,
                    &loc,
                    format!("{} re-check is unreachable from the image entry", gc.kind),
                )
                .with_span(check_span.0, check_span.1),
            );
        }
    }

    findings.sort_by(|a, b| {
        (a.lint, &a.function, &a.location, &a.message).cmp(&(
            b.lint,
            &b.function,
            &b.location,
            &b.message,
        ))
    });
    findings.dedup();
    findings
}
