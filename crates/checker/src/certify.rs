//! Independent slice certifier: one forward sweep that re-checks a
//! backward slice against the trace it came from.
//!
//! The slicer emits a dependence witness (see `wasteprof-slicer`'s
//! `Witnesses`): one row per slice member naming the live fact the member
//! defined and the downstream member or criterion that consumed it, the
//! CDG edge for control-dependence members, or the contained member for
//! dynamic calls. [`certify`] replays those claims *forward* over the
//! packed columns — no `Instr` materialization, the same streaming
//! style as the race detector — and shares no code with the backward
//! walk, so a bug in the slicer's liveness machinery cannot hide itself.
//! [`certify_source`] runs the identical sweep from a `WPTRACE2` reader
//! without ever holding the whole trace in memory.
//!
//! Two properties are checked:
//!
//! - **Soundness of every edge.** A `mem`/`reg` row claims its member is
//!   the *last* write to those bytes / that register before the consumer
//!   (registers on the consumer's own thread); the sweep tracks
//!   last-writer shadows and compares at the consumer ([`Code::CertifyStaleDef`]).
//!   `control` rows must be real edges of the recovered control-dependence
//!   graph, `call` rows must match the dynamic call stack, and `criterion`
//!   rows must anchor a real `include_instr` criterion
//!   ([`Code::CertifyBadEdge`]).
//! - **Complement safety.** Wherever a slice member or criterion consumes
//!   bytes or a register, the last writer must itself be in the slice (or
//!   the bytes were never written). A non-slice last writer means the
//!   slicer wrongly excluded an instruction whose value reached the
//!   criteria ([`Code::CertifyLiveLeak`]).
//!
//! Together these imply slice soundness: every value flowing into the
//! criteria is produced inside the slice, and every member has a checked
//! reason to be there. Bookkeeping defects — missing table, row counts
//! disagreeing with the slice population, rows whose member is not in the
//! bitmap, a prefix too long for `u32` positions — report
//! [`Code::CertifyMismatch`].
//!
//! The per-access cost is the shadow update, so the sweep's state is kept
//! flat: memory is a `shadow::LastWriter` (byte-granular `u32` writer
//! pages for small-operand regions, an interval map for large-buffer
//! regions), member facts live in a `Vec` aligned with the sorted
//! positions that need them, and the per-position loop allocates nothing
//! — diagnostic text is formatted only when a diagnostic is emitted.

use std::fmt;

use wasteprof_slicer::{
    ControlDeps, Criteria, ForwardPass, SliceResult, SlicingCriterion, WitnessKind, WitnessRow,
    Witnesses,
};
use wasteprof_trace::{
    ColumnCursor, FuncId, InstrKind, Pc, RegSet, ThreadId, Trace, TraceIoError, TracePos,
    TraceSource,
};

use crate::diag::{sort_diags, Code, Diag};
use crate::shadow::LastWriter;

/// Static facts about one instruction of interest (a witness member or
/// consumer), captured when the forward sweep passes its position.
///
/// Edge checks at a consumer need the member side's thread, location, and
/// opcode class — positions an out-of-core sweep has already evicted. Since
/// every member precedes its consumer in an honest table, capturing these
/// five fields at member time makes the edge checks window-local; a row
/// whose member does *not* precede its consumer finds no meta and fails
/// the check, exactly as it should.
#[derive(Clone, Copy)]
struct MemberMeta {
    tid: ThreadId,
    func: FuncId,
    pc: Pc,
    is_branch: bool,
    is_call: bool,
}

/// Who consumed a checked fact, for complement-leak messages. Rendered
/// only when a leak is reported.
#[derive(Clone, Copy)]
enum ReadBy {
    Member(usize),
    Criterion(TracePos),
}

impl fmt::Display for ReadBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadBy::Member(idx) => write!(f, "slice member {}", TracePos(*idx as u64)),
            ReadBy::Criterion(pos) => write!(f, "the criterion at {pos}"),
        }
    }
}

/// The sweep stores positions as `u32`, and `u32::MAX` is the shadow's
/// never-written sentinel, so it accepts considered prefixes of at most
/// `u32::MAX - 1` instructions: every position it sees is then exact in a
/// `u32` and distinct from the sentinel. Returns the prefix length.
fn position_domain(considered: u64) -> Result<usize, Diag> {
    if considered >= u32::MAX as u64 {
        return Err(Diag::at_end(
            Code::CertifyMismatch,
            format!(
                "{considered} considered instructions exceed the certifier's \
                 u32 position domain"
            ),
        ));
    }
    Ok(considered as usize)
}

/// Sort key grouping witness rows by consumer position; at one position,
/// member-consumer rows sort before criterion-consumer rows. Exact for
/// every position up to `u32::MAX`.
fn consumer_key(pos: u64, is_criterion: bool) -> u64 {
    (pos << 1) | is_criterion as u64
}

/// Merges two ascending sequences into one ascending, duplicate-free list.
fn merge_dedup(a: &[u32], b: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(a.len());
    let mut push = |x: u32| {
        if out.last() != Some(&x) {
            out.push(x);
        }
    };
    let mut a = a.iter().copied().peekable();
    for y in b {
        while let Some(x) = a.next_if(|&x| x <= y) {
            push(x);
        }
        push(y);
    }
    a.for_each(&mut push);
    out
}

/// Sweep state shared by the edge and complement checks. Fed forward one
/// [`ColumnCursor`] window at a time — the whole-trace cursor in
/// [`certify`], bounded disk chunks from a reader — so it never
/// needs random access outside the current window.
struct Certifier<'a> {
    w: &'a Witnesses,
    deps: &'a ControlDeps,
    items: &'a [SlicingCriterion],
    result: &'a SliceResult,
    /// Considered prefix length: the sweep covers `0..n`.
    n: usize,
    /// `(consumer_key, row index)` of every valid row, sorted.
    by_consumer: Vec<(u64, u32)>,
    /// Members whose own reads entered the live sets, sorted.
    gen_members: Vec<u32>,
    /// Positions of `include_instr` criteria inside the prefix.
    include_crit: Vec<u32>,
    /// Sorted, deduplicated member/consumer positions needing meta.
    interesting: Vec<u32>,
    /// Meta of `interesting[..meta.len()]`, captured as the sweep passes
    /// each position.
    meta: Vec<MemberMeta>,
    mem: LastWriter,
    regs: Vec<[Option<u32>; 16]>,
    stacks: Vec<Vec<u32>>,
    cons_cur: usize,
    gen_cur: usize,
    crit_cur: usize,
    out: Vec<Diag>,
}

impl Certifier<'_> {
    /// Meta of `pos`, if the sweep has passed it and it is interesting.
    fn meta_of(&self, pos: usize) -> Option<MemberMeta> {
        let seen = &self.interesting[..self.meta.len()];
        let k = seen.binary_search(&u32::try_from(pos).ok()?).ok()?;
        Some(self.meta[k])
    }

    /// Checks one witness row at its consumer position (the index the
    /// cursor is currently on). `mem`/`reg` rows compare against the
    /// last-writer shadows (called before the consumer's own writes for
    /// member consumers, after them for criterion consumers — a criterion
    /// observes memory *after* its anchor instruction executes, matching
    /// the backward walk's event order). Structural rows check the CDG,
    /// the dynamic call stack, or the criteria list, reading the member
    /// side from the captured [`MemberMeta`].
    fn check_edge(&mut self, row: &WitnessRow, cur: &ColumnCursor<'_>) {
        let m = row.member.index();
        let c = row.consumer.index();
        match row.kind {
            WitnessKind::Mem => {
                if row.fact_lo >= row.fact_hi {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!("empty mem fact {:#x}..{:#x}", row.fact_lo, row.fact_hi),
                    ));
                    return;
                }
                let mut bad: Option<(u64, u64, Option<u32>)> = None;
                self.mem.for_range(row.fact_lo, row.fact_hi, |lo, hi, wr| {
                    if bad.is_none() && wr.map(|w| w as usize) != Some(m) {
                        bad = Some((lo, hi, wr));
                    }
                });
                if let Some((lo, hi, wr)) = bad {
                    let actual = match wr {
                        Some(w) => format!("{}", TracePos(w as u64)),
                        None => "never written".to_owned(),
                    };
                    self.out.push(Diag::at(
                        Code::CertifyStaleDef,
                        m,
                        format!(
                            "claims the last write to {lo:#x}..{hi:#x} before {}, \
                             but that is {actual}",
                            row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Reg => {
                let ri = row.fact_lo as usize;
                if ri >= 16 {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!("register index {ri} out of range"),
                    ));
                    return;
                }
                let tid_c = cur.tid(c);
                let ti = tid_c.index();
                if let Some(mm) = self.meta_of(m) {
                    if mm.tid != tid_c {
                        self.out.push(Diag::at(
                            Code::CertifyStaleDef,
                            m,
                            format!(
                                "register fact crosses threads: def on {:?}, use at {} on {:?}",
                                mm.tid, row.consumer, tid_c
                            ),
                        ));
                        return;
                    }
                }
                let last = self.regs[ti][ri];
                if last.map(|w| w as usize) != Some(m) {
                    let actual = match last {
                        Some(w) => format!("{}", TracePos(w as u64)),
                        None => "never written".to_owned(),
                    };
                    self.out.push(Diag::at(
                        Code::CertifyStaleDef,
                        m,
                        format!(
                            "claims the last write to register {ri} before {}, \
                             but that is {actual}",
                            row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Control => {
                let ok = m < c
                    && self.meta_of(m).is_some_and(|mm| {
                        mm.is_branch
                            && mm.tid == cur.tid(c)
                            && mm.func == cur.func(c)
                            && self
                                .deps
                                .controllers(cur.func(c), cur.pc(c))
                                .contains(&mm.pc)
                    });
                if !ok {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "control edge {} -> {} is not in the recovered CDG",
                            row.member, row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Call => {
                let ti = cur.tid(c).index();
                let ok = m < c
                    && self
                        .meta_of(m)
                        .is_some_and(|mm| mm.is_call && mm.tid == cur.tid(c))
                    && self.stacks[ti].last().map(|&p| p as usize) == Some(m);
                if !ok {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "call edge {} -> {} does not match the dynamic call stack",
                            row.member, row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Criterion => {
                let anchor = u32::try_from(m).is_ok_and(|p| self.include_crit.contains(&p));
                if row.consumer != row.member || !anchor {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "{} is not an include-instruction criterion anchor",
                            row.member
                        ),
                    ));
                }
            }
        }
    }

    /// Complement safety for one consumed byte range: every last writer
    /// must be a slice member or nonexistent. Leaks are reported as the
    /// shadow visits them.
    fn check_mem_complement(&mut self, lo: u64, hi: u64, by: ReadBy) {
        let (result, out) = (self.result, &mut self.out);
        self.mem.for_range(lo, hi, |s, e, wr| {
            if let Some(w) = wr {
                if !result.contains(TracePos(w as u64)) {
                    out.push(Diag::at(
                        Code::CertifyLiveLeak,
                        w as usize,
                        format!("non-slice write to {s:#x}..{e:#x} read by {by}"),
                    ));
                }
            }
        });
    }

    /// Complement safety for the registers `regs` consumed on thread `ti`.
    fn check_reg_complement(&mut self, ti: usize, regs: RegSet, by: ReadBy) {
        for r in regs.iter() {
            if let Some(wr) = self.regs[ti][r.index()] {
                if !self.result.contains(TracePos(wr as u64)) {
                    self.out.push(Diag::at(
                        Code::CertifyLiveLeak,
                        wr as usize,
                        format!("non-slice write to {r:?} read by {by}"),
                    ));
                }
            }
        }
    }

    /// Checks the edges of the next rows in consumer order whose key is
    /// `key`.
    fn check_edges_at(&mut self, key: u64, cur: &ColumnCursor<'_>) {
        while let Some(&(k, i)) = self.by_consumer.get(self.cons_cur) {
            if k != key {
                break;
            }
            self.cons_cur += 1;
            let row = self.w.row(i as usize);
            self.check_edge(&row, cur);
        }
    }

    /// Advances the sweep over one cursor window, running every check
    /// whose position falls inside it.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.lo()..cur.hi() {
            let ti = cur.tid(idx).index();
            // `idx < n < u32::MAX` (see `position_domain`), so this is exact.
            let pos = idx as u32;

            // 0. Capture member/consumer meta the edge checks will need
            // once the window has moved past this position.
            if self.interesting.get(self.meta.len()) == Some(&pos) {
                let kind = cur.kind(idx);
                self.meta.push(MemberMeta {
                    tid: cur.tid(idx),
                    func: cur.func(idx),
                    pc: cur.pc(idx),
                    is_branch: kind.is_branch(),
                    is_call: matches!(kind, InstrKind::Call { .. }),
                });
            }

            // 1. Edges whose consumer is the member at `idx`: the member's
            // reads happen before its writes, so check against the shadows
            // as they stand.
            self.check_edges_at(consumer_key(idx as u64, false), cur);

            // 2. Complement safety for members whose reads entered the live
            // sets: their last writers must be members (or nothing).
            if self.gen_members.get(self.gen_cur) == Some(&pos) {
                self.gen_cur += 1;
                let by = ReadBy::Member(idx);
                for &rd in cur.mem_reads(idx) {
                    self.check_mem_complement(rd.start().raw(), rd.end().raw(), by);
                }
                self.check_reg_complement(ti, cur.reg_reads(idx), by);
            }

            // 3. The instruction's own writes become the last writers.
            for &wr in cur.mem_writes(idx) {
                self.mem.write(wr.start().raw(), wr.end().raw(), pos);
            }
            for r in cur.reg_writes(idx).iter() {
                self.regs[ti][r.index()] = Some(pos);
            }

            // 4. Edges whose consumer is a criterion anchored here: criteria
            // observe state after the anchor executes.
            self.check_edges_at(consumer_key(idx as u64, true), cur);

            // 5. Complement safety for the criteria themselves.
            let items = self.items;
            while let Some(c) = items.get(self.crit_cur) {
                if c.pos.index() != idx {
                    break;
                }
                self.crit_cur += 1;
                let by = ReadBy::Criterion(c.pos);
                for &range in &c.mem {
                    self.check_mem_complement(range.start().raw(), range.end().raw(), by);
                }
                self.check_reg_complement(ti, c.regs, by);
            }

            // 6. Dynamic call stack maintenance.
            match cur.kind(idx) {
                InstrKind::Call { .. } => self.stacks[ti].push(pos),
                InstrKind::Ret => {
                    self.stacks[ti].pop();
                }
                _ => {}
            }
        }
    }

    fn finish(mut self) -> Vec<Diag> {
        sort_diags(&mut self.out);
        self.out
    }
}

/// Builds the sweep state from the witness table, or returns the
/// diagnostics directly when there is no table to sweep.
fn prepare<'a>(
    forward: &'a ForwardPass,
    criteria: &'a Criteria,
    result: &'a SliceResult,
) -> Result<Certifier<'a>, Vec<Diag>> {
    let n = position_domain(result.considered()).map_err(|d| vec![d])?;
    let mut out = Vec::new();

    let Some(w) = result.witness() else {
        out.push(Diag::at_end(
            Code::CertifyMismatch,
            "slice carries no witness table".to_owned(),
        ));
        return Err(out);
    };
    if w.len() as u64 != result.slice_count() {
        out.push(Diag::at_end(
            Code::CertifyMismatch,
            format!(
                "witness has {} rows for {} slice members",
                w.len(),
                result.slice_count()
            ),
        ));
    }

    // Row sanity: positions inside the considered prefix, members in the
    // slice bitmap. Defective rows are reported and left out of the sweep.
    // Valid rows feed the consumer order, the member list, and the
    // members whose own reads entered the live sets.
    let mut by_consumer: Vec<(u64, u32)> = Vec::with_capacity(w.len());
    let mut members: Vec<u32> = Vec::with_capacity(w.len());
    let mut gen_members: Vec<u32> = Vec::new();
    for (i, row) in w.rows().enumerate() {
        if row.member.index() >= n || row.consumer.index() >= n {
            out.push(Diag::at_end(
                Code::CertifyMismatch,
                format!(
                    "witness row {i} ({} -> {}) outside the {} considered instructions",
                    row.member, row.consumer, n
                ),
            ));
        } else if !result.contains(row.member) {
            out.push(Diag::at(
                Code::CertifyMismatch,
                row.member.index(),
                format!("witness row for {} which is not in the slice", row.member),
            ));
        } else {
            // Both positions are below `n`, so these casts are exact.
            by_consumer.push((
                consumer_key(row.consumer.0, row.consumer_is_criterion),
                i as u32,
            ));
            members.push(row.member.0 as u32);
            if row.genned_reads {
                gen_members.push(row.member.0 as u32);
            }
        }
    }
    // Ties on the key keep row order, as the row index is the second
    // tuple component.
    by_consumer.sort_unstable();
    // Honest tables are member-sorted and duplicate-free already; sorting
    // defensively keeps the sweep cursors correct on mutated tables too.
    members.sort_unstable();
    members.dedup();
    gen_members.sort_unstable();
    gen_members.dedup();
    let include_crit: Vec<u32> = criteria
        .items()
        .iter()
        .filter(|c| c.include_instr && c.pos.index() < n)
        .map(|c| c.pos.0 as u32)
        .collect();
    // Positions the edge checks need static facts for, once the sweep
    // window has moved on: every valid row's member and consumer.
    let interesting = merge_dedup(&members, by_consumer.iter().map(|&(k, _)| (k >> 1) as u32));

    Ok(Certifier {
        w,
        deps: forward.control_deps(),
        items: criteria.items(),
        result,
        n,
        by_consumer,
        gen_members,
        include_crit,
        meta: Vec::with_capacity(interesting.len()),
        interesting,
        mem: LastWriter::default(),
        regs: vec![[None; 16]; 256],
        stacks: vec![Vec::new(); 256],
        cons_cur: 0,
        gen_cur: 0,
        // Criteria with positions beyond the considered prefix never match
        // an `idx` and are skipped, mirroring the slicer.
        crit_cur: 0,
        out,
    })
}

/// Certifies `result` — a slice of `src` under `criteria`, carrying a
/// witness table — in one forward sweep. Returns diagnostics in canonical
/// sorted order; empty means the slice and its complement check out.
/// Over a `WPTRACE2` reader the sweep holds only the reader's bounded
/// chunk window (plus per-position meta for witness rows) in memory.
///
/// `forward` must be the same forward pass the slice was built from (the
/// control-dependence edges are checked against its recovered CDG).
///
/// # Errors
///
/// A chunk read or decode error of a streamed source.
pub fn certify_source<S: TraceSource>(
    src: &mut S,
    forward: &ForwardPass,
    criteria: &Criteria,
    result: &SliceResult,
) -> Result<Vec<Diag>, TraceIoError> {
    match prepare(forward, criteria, result) {
        Err(out) => Ok(out),
        Ok(mut c) => {
            let n = c.n;
            src.scan(0, n, |cur| c.feed(cur))?;
            Ok(c.finish())
        }
    }
}

/// [`certify_source`] over a resident trace.
pub fn certify(
    trace: &Trace,
    forward: &ForwardPass,
    criteria: &Criteria,
    result: &SliceResult,
) -> Vec<Diag> {
    certify_source(&mut &*trace, forward, criteria, result)
        .expect("a resident trace never fails to scan")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_domain_stops_below_the_sentinel() {
        assert_eq!(position_domain(0), Ok(0));
        let last = u32::MAX as u64 - 1;
        assert_eq!(position_domain(last), Ok(last as usize));
        for too_long in [u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX] {
            let d = position_domain(too_long).expect_err("prefix past the u32 domain");
            assert_eq!(d.code, Code::CertifyMismatch);
            assert_eq!(d.pos, None);
        }
    }

    #[test]
    fn merge_dedup_merges_sorted_lists() {
        assert_eq!(
            merge_dedup(&[1, 3, 3, 7], [0, 3, 4, 9, 9]),
            vec![0, 1, 3, 4, 7, 9]
        );
        assert_eq!(merge_dedup(&[], [2, 2]), vec![2]);
        assert_eq!(merge_dedup(&[5], []), vec![5]);
    }
}
