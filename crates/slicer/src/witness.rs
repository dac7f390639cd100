//! Dependence-witness emission: *why* each slice member joined.
//!
//! A slice alone is unauditable — the only way to re-check it is to run
//! the slicer again. A *witness* makes it checkable by an independent
//! pass: for every member the slicer records the one dependence edge that
//! pulled it in — the live fact (byte range or register) it defined and
//! the downstream member or criterion that consumed that fact, the CDG
//! edge for control-dependence members, or the contained member for
//! dynamic calls. The checker crate replays these edges in a single
//! *forward* sweep (`wasteprof-checker`'s `certify`), which shares no
//! code with the backward walk that produced them.
//!
//! Emission is a backward *replay* over the final slice bitmap. It leans
//! on a structural invariant of the sequential walk: the live sets are
//! mutated only by criteria applications, pending-branch probes, and
//! members' kill/gen — a non-member never changes them (if its writes hit
//! live state it would have joined). The replay therefore re-runs only
//! the member mutations, in the exact event order of the sequential walk,
//! and reads off the consumer of each killed fact. Because it is a pure
//! function of `(trace, criteria, final bitmap)`, the witness table is
//! byte-identical at any segment count K — the segment-parallel and
//! sequential paths produce the same bitmap, hence the same witnesses.

use std::collections::{BTreeMap, HashMap};

use wasteprof_trace::{ColumnCursor, FuncId, InstrKind, TraceIoError, TracePos};

use crate::cdg::ControlDeps;
use crate::criteria::Criteria;
use crate::slice::{FibBuild, SliceResult};
use crate::source::RowSource;

/// The kind of dependence edge that pulled a member into the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessKind {
    /// The member wrote live bytes `[fact_lo, fact_hi)`; the consumer read
    /// them (its last write to those bytes before the consumer).
    Mem,
    /// The member wrote live register `fact_lo` (register index) in the
    /// consumer's thread context.
    Reg,
    /// The member is a branch the consumer is control-dependent on
    /// (`fact_lo` carries the branch PC for display; the edge itself is
    /// checked against the recovered CDG).
    Control,
    /// The member is a `Call` whose dynamic callee frame contains the
    /// consumer.
    Call,
    /// The member is the anchor of an `include_instr` criterion; the
    /// consumer is the member itself.
    Criterion,
}

impl WitnessKind {
    /// Short name used in rendered diagnostics and reports.
    pub const fn name(self) -> &'static str {
        match self {
            WitnessKind::Mem => "mem",
            WitnessKind::Reg => "reg",
            WitnessKind::Control => "control",
            WitnessKind::Call => "call",
            WitnessKind::Criterion => "criterion",
        }
    }
}

/// One decoded witness row: why `member` is in the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessRow {
    /// The slice member this row justifies.
    pub member: TracePos,
    /// The kind of dependence edge.
    pub kind: WitnessKind,
    /// First byte of the defined range ([`WitnessKind::Mem`]), register
    /// index ([`WitnessKind::Reg`]), or branch PC ([`WitnessKind::Control`],
    /// informational); `0` otherwise.
    pub fact_lo: u64,
    /// One past the last byte of the defined range ([`WitnessKind::Mem`]);
    /// `0` otherwise.
    pub fact_hi: u64,
    /// The position that consumed the fact: a downstream member, the
    /// anchor of a criterion, or (for [`WitnessKind::Control`]) the
    /// control-dependent member that armed the branch.
    pub consumer: TracePos,
    /// True when the fact was consumed by a *criterion* at `consumer`
    /// rather than by a member's reads.
    pub consumer_is_criterion: bool,
    /// True when this member's own reads entered the live sets (kill/gen
    /// and pending-branch members): the certifier must check those reads
    /// against the slice complement.
    pub genned_reads: bool,
}

const FLAG_CRIT_CONSUMER: u8 = 1;
const FLAG_GENNED_READS: u8 = 2;

/// Columnar witness side-table: one row per slice member, sorted by
/// member position. Stored struct-of-arrays next to [`SliceResult`] so
/// multi-million-member tables stay compact and comparisons are cheap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witnesses {
    members: Vec<u32>,
    kinds: Vec<WitnessKind>,
    fact_lo: Vec<u64>,
    fact_hi: Vec<u64>,
    consumers: Vec<u32>,
    flags: Vec<u8>,
}

impl Witnesses {
    /// Number of rows (equals the slice count for an honest witness).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Decodes row `i`.
    pub fn row(&self, i: usize) -> WitnessRow {
        WitnessRow {
            member: TracePos(self.members[i] as u64),
            kind: self.kinds[i],
            fact_lo: self.fact_lo[i],
            fact_hi: self.fact_hi[i],
            consumer: TracePos(self.consumers[i] as u64),
            consumer_is_criterion: self.flags[i] & FLAG_CRIT_CONSUMER != 0,
            genned_reads: self.flags[i] & FLAG_GENNED_READS != 0,
        }
    }

    /// Iterates over all rows in member order.
    pub fn rows(&self) -> impl Iterator<Item = WitnessRow> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Rebuilds a table from decoded rows (fault-injection support: the
    /// checker's differential tests corrupt one row and re-encode).
    pub fn from_rows(rows: impl IntoIterator<Item = WitnessRow>) -> Witnesses {
        let mut w = Witnesses::default();
        for r in rows {
            w.push(r);
        }
        w
    }

    fn push(&mut self, r: WitnessRow) {
        self.members.push(r.member.0 as u32);
        self.kinds.push(r.kind);
        self.fact_lo.push(r.fact_lo);
        self.fact_hi.push(r.fact_hi);
        self.consumers.push(r.consumer.0 as u32);
        let mut flags = 0u8;
        if r.consumer_is_criterion {
            flags |= FLAG_CRIT_CONSUMER;
        }
        if r.genned_reads {
            flags |= FLAG_GENNED_READS;
        }
        self.flags.push(flags);
    }
}

/// A live fact's consumer: the position that declared the bytes/register
/// live, and whether that position is a criterion anchor or a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    pos: u32,
    crit: bool,
}

/// Interval map of live bytes → consumer, keyed by interval start.
/// Same shape as the checker's shadow map: disjoint `[start, end)`
/// entries, split on demand.
#[derive(Default)]
struct FactMap {
    map: BTreeMap<u64, (u64, Fact)>,
}

impl FactMap {
    /// Splits any entry straddling `at` so no interval crosses it.
    fn split_at(&mut self, at: u64) {
        let split = match self.map.range(..at).next_back() {
            Some((&s, &(end, fact))) if end > at => Some((s, end, fact)),
            _ => None,
        };
        if let Some((s, end, fact)) = split {
            self.map.get_mut(&s).expect("entry just observed").0 = at;
            self.map.insert(at, (end, fact));
        }
    }

    /// Marks `[lo, hi)` live with `fact`, overwriting any previous
    /// consumer of those bytes (last insertion in replay order wins —
    /// deterministic, and still a valid def→use edge for the certifier).
    fn insert(&mut self, lo: u64, hi: u64, fact: Fact) {
        if lo >= hi {
            return;
        }
        self.split_at(lo);
        self.split_at(hi);
        let doomed: Vec<u64> = self.map.range(lo..hi).map(|(&s, _)| s).collect();
        for s in doomed {
            self.map.remove(&s);
        }
        self.map.insert(lo, (hi, fact));
    }

    /// Kills `[lo, hi)` (the bytes are no longer live).
    fn remove(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        self.split_at(lo);
        self.split_at(hi);
        let doomed: Vec<u64> = self.map.range(lo..hi).map(|(&s, _)| s).collect();
        for s in doomed {
            self.map.remove(&s);
        }
    }

    /// The lowest-address live sub-interval of `[lo, hi)`, clipped to the
    /// query, with its consumer.
    fn first_overlap(&self, lo: u64, hi: u64) -> Option<(u64, u64, Fact)> {
        if let Some((_, &(end, fact))) = self.map.range(..=lo).next_back() {
            if end > lo {
                return Some((lo, end.min(hi), fact));
            }
        }
        self.map
            .range(lo..hi)
            .next()
            .map(|(&s, &(end, fact))| (s, end.min(hi), fact))
    }
}

/// One dynamic frame of the replay: the running function and the first
/// (in replay order) member found inside it, if any.
struct WFrame {
    func: FuncId,
    any_slice: Option<u32>,
}

/// The witness replay, restructured around [`Emitter::feed`] so the same
/// per-instruction step runs over either one in-memory cursor or a
/// sequence of streamed chunk cursors. Protocol mirrors the backward
/// walk's: `prescan` forward, `seal_frames`, `feed` backward (last window
/// first), `finish`.
struct Emitter<'a> {
    deps: &'a ControlDeps,
    result: &'a SliceResult,
    n: usize,
    criteria: Vec<&'a crate::criteria::SlicingCriterion>,
    crit_idx: usize,
    mem: FactMap,
    regs: Vec<[Option<Fact>; 16]>,
    pending: HashMap<(wasteprof_trace::ThreadId, FuncId, wasteprof_trace::Pc), u32, FibBuild>,
    open: Vec<Vec<FuncId>>,
    frames: Vec<Vec<WFrame>>,
    /// Rows in *descending* member order (reversed at the end): each
    /// member joins exactly at its own index of the backward walk.
    rows: Vec<WitnessRow>,
    joined: Vec<u64>,
    current_row: Option<usize>,
}

impl<'a> Emitter<'a> {
    fn new(deps: &'a ControlDeps, criteria: &'a Criteria, result: &'a SliceResult) -> Self {
        let n = result.considered() as usize;
        assert!(
            n <= u32::MAX as usize,
            "witness table uses 32-bit positions"
        );
        let criteria: Vec<&crate::criteria::SlicingCriterion> = criteria.items().iter().collect();
        let mut crit_idx = criteria.len();
        while crit_idx > 0 && criteria[crit_idx - 1].pos.index() >= n {
            crit_idx -= 1;
        }
        Emitter {
            deps,
            result,
            n,
            criteria,
            crit_idx,
            mem: FactMap::default(),
            regs: vec![[None; 16]; 256],
            pending: HashMap::default(),
            open: vec![Vec::new(); 256],
            frames: Vec::new(),
            rows: Vec::with_capacity(result.slice_count() as usize),
            joined: vec![0; n.div_ceil(64)],
            current_row: None,
        }
    }

    /// Forward pre-scan over one window: collects calls still open at the
    /// cut, like the backward walk does.
    fn prescan(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.lo()..cur.hi() {
            match cur.kind(idx) {
                InstrKind::Call { callee } => self.open[cur.tid(idx).index()].push(callee),
                InstrKind::Ret => {
                    self.open[cur.tid(idx).index()].pop();
                }
                _ => {}
            }
        }
    }

    /// Converts the pre-scan's open-call stacks into live frames.
    fn seal_frames(&mut self) {
        self.frames = std::mem::take(&mut self.open)
            .into_iter()
            .map(|fs| {
                fs.into_iter()
                    .map(|func| WFrame {
                        func,
                        any_slice: None,
                    })
                    .collect()
            })
            .collect();
    }

    fn in_slice(&self, idx: usize) -> bool {
        self.result.contains(TracePos(idx as u64))
    }

    /// Records the member's witness row on its first join of this replay,
    /// then arms its controllers and marks its enclosing frame — the same
    /// side effects as the sequential walk's `join_slice`, with consumers
    /// attached (keep-first, deterministic).
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        idx: usize,
        tid: wasteprof_trace::ThreadId,
        func: FuncId,
        pc: wasteprof_trace::Pc,
        kind: WitnessKind,
        fact_lo: u64,
        fact_hi: u64,
        consumer: Fact,
    ) {
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.joined[word] & bit != 0 {
            return;
        }
        self.joined[word] |= bit;
        debug_assert!(
            self.in_slice(idx),
            "witness replay joined non-member {idx}: live-set invariant broken"
        );
        self.current_row = Some(self.rows.len());
        self.rows.push(WitnessRow {
            member: TracePos(idx as u64),
            kind,
            fact_lo,
            fact_hi,
            consumer: TracePos(consumer.pos as u64),
            consumer_is_criterion: consumer.crit,
            genned_reads: false,
        });
        for &bpc in self.deps.controllers(func, pc) {
            self.pending.entry((tid, func, bpc)).or_insert(idx as u32);
        }
        if let Some(frame) = self.frames[tid.index()].last_mut() {
            frame.any_slice.get_or_insert(idx as u32);
        }
    }

    /// Marks the current member's row as having genned its reads.
    fn mark_genned(&mut self) {
        if let Some(r) = self.current_row {
            self.rows[r].genned_reads = true;
        }
    }

    /// The backward replay over one window, highest indices first.
    /// Windows must arrive in reverse trace order and tile `[0, n)`.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.rev_indices() {
            self.current_row = None;
            let tid = cur.tid(idx);
            let ti = tid.index();
            let func = cur.func(idx);
            let pc = cur.pc(idx);
            let kind = cur.kind(idx);

            if matches!(kind, InstrKind::Ret) {
                self.frames[ti].push(WFrame {
                    func,
                    any_slice: None,
                });
            }

            while self.crit_idx > 0 && self.criteria[self.crit_idx - 1].pos.index() == idx {
                self.crit_idx -= 1;
                let c = self.criteria[self.crit_idx];
                let fact = Fact {
                    pos: idx as u32,
                    crit: true,
                };
                for &range in &c.mem {
                    self.mem
                        .insert(range.start().raw(), range.end().raw(), fact);
                }
                for r in c.regs.iter() {
                    self.regs[ti][r.index()] = Some(fact);
                }
                if c.include_instr {
                    self.join(idx, tid, func, pc, WitnessKind::Criterion, 0, 0, fact);
                }
            }

            let pending_armer = if kind.is_branch() {
                self.pending.remove(&(tid, func, pc))
            } else {
                None
            };
            if let Some(armer) = pending_armer {
                self.join(
                    idx,
                    tid,
                    func,
                    pc,
                    WitnessKind::Control,
                    pc.0 as u64,
                    0,
                    Fact {
                        pos: armer,
                        crit: false,
                    },
                );
                let gen = Fact {
                    pos: idx as u32,
                    crit: false,
                };
                for &r in cur.mem_reads(idx) {
                    self.mem.insert(r.start().raw(), r.end().raw(), gen);
                }
                for r in cur.reg_reads(idx).iter() {
                    self.regs[ti][r.index()] = Some(gen);
                }
                self.mark_genned();
            } else if self.in_slice(idx) {
                // Kill/gen runs only for members: a non-member never writes
                // live state (it would have joined), so skipping it here
                // keeps the replay proportional to the slice, not the
                // trace.
                let reg_writes = cur.reg_writes(idx);
                let mem_writes = cur.mem_writes(idx);
                let reg_fact = reg_writes
                    .iter()
                    .find_map(|r| self.regs[ti][r.index()].map(|f| (r, f)));
                let mem_fact = if reg_fact.is_none() {
                    mem_writes
                        .iter()
                        .find_map(|w| self.mem.first_overlap(w.start().raw(), w.end().raw()))
                } else {
                    None
                };
                if reg_fact.is_some() || mem_fact.is_some() {
                    if let Some((r, f)) = reg_fact {
                        self.join(idx, tid, func, pc, WitnessKind::Reg, r.index() as u64, 0, f);
                    } else if let Some((lo, hi, f)) = mem_fact {
                        self.join(idx, tid, func, pc, WitnessKind::Mem, lo, hi, f);
                    }
                    for r in reg_writes.iter() {
                        self.regs[ti][r.index()] = None;
                    }
                    for &w in mem_writes {
                        self.mem.remove(w.start().raw(), w.end().raw());
                    }
                    let gen = Fact {
                        pos: idx as u32,
                        crit: false,
                    };
                    for &r in cur.mem_reads(idx) {
                        self.mem.insert(r.start().raw(), r.end().raw(), gen);
                    }
                    for r in cur.reg_reads(idx).iter() {
                        self.regs[ti][r.index()] = Some(gen);
                    }
                    self.mark_genned();
                }
            }

            if let InstrKind::Call { callee } = kind {
                let closed = self.frames[ti].pop();
                if let Some(consumer) = closed.and_then(|f| f.any_slice) {
                    self.join(
                        idx,
                        tid,
                        func,
                        pc,
                        WitnessKind::Call,
                        0,
                        0,
                        Fact {
                            pos: consumer,
                            crit: false,
                        },
                    );
                }
                if self.in_slice(idx) {
                    if let Some(frame) = self.frames[ti].last_mut() {
                        frame.any_slice.get_or_insert(idx as u32);
                    }
                }
                if !self.frames[ti].iter().any(|f| f.func == callee) {
                    self.pending.retain(|&(t, f, _), _| t != tid || f != callee);
                }
            }
        }
    }

    fn finish(mut self) -> Witnesses {
        self.rows.reverse();
        debug_assert_eq!(
            self.rows.len() as u64,
            self.result.slice_count(),
            "witness replay diverged from the slice it explains"
        );
        Witnesses::from_rows(self.rows)
    }
}

/// Replays the member mutations of the backward walk over the final
/// bitmap and returns the witness table (one row per member, ascending).
pub(crate) fn emit<S: RowSource>(
    src: &mut S,
    deps: &ControlDeps,
    criteria: &Criteria,
    result: &SliceResult,
) -> Result<Witnesses, TraceIoError> {
    let mut em = Emitter::new(deps, criteria, result);
    let n = em.n;
    src.scan(0, n, |cur| em.prescan(cur))?;
    em.seal_frames();
    src.scan_rev(0, n, |cur| em.feed(cur))?;
    Ok(em.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::pixel_criteria;
    use crate::slice::{slice, ForwardPass, SliceOptions};
    use wasteprof_trace::{site, Recorder, Region, ThreadKind, Trace};

    /// A small multi-thread session with data flow, control dependence,
    /// calls, and dead code.
    fn rich_trace() -> Trace {
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Raster(0), "root");
        let cond = rec.alloc_cell(Region::Heap);
        let shared = rec.alloc_cell(Region::Heap);
        let dead = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        let f = rec.intern_func("guarded");
        rec.switch_to(t0);
        rec.compute(site!(), &[], &[cond.into()]);
        rec.compute(site!(), &[], &[dead.into()]); // never feeds the pixels
        let br = site!();
        let body = site!();
        let join = site!();
        rec.in_func(site!(), f, |rec| {
            rec.branch_mem(br, cond, true);
            rec.compute(body, &[], &[shared.into()]);
            rec.compute(join, &[], &[]);
        });
        rec.in_func(site!(), f, |rec| {
            rec.branch_mem(br, cond, false);
            rec.compute(join, &[], &[]);
        });
        rec.switch_to(t1);
        rec.compute(site!(), &[shared.into()], &[tile]);
        rec.marker(site!(), tile);
        rec.finish()
    }

    #[test]
    fn witness_covers_every_member_and_is_segment_invariant() {
        let trace = rich_trace();
        let fwd = ForwardPass::build(&trace);
        let criteria = pixel_criteria(&trace);
        let opts = |segments| SliceOptions {
            witness: true,
            segments,
            ..Default::default()
        };
        let k1 = slice(&trace, &fwd, &criteria, &opts(1));
        let k8 = slice(&trace, &fwd, &criteria, &opts(8));
        assert_eq!(k1, k8, "witnessed results must be identical at any K");

        let w = k1.witness().expect("witness requested");
        assert_eq!(w.len() as u64, k1.slice_count(), "one row per member");
        let mut prev = None;
        for row in w.rows() {
            assert!(k1.contains(row.member), "row member must be in the slice");
            assert!(
                prev.is_none_or(|p| p < row.member),
                "rows sorted by member, no duplicates"
            );
            prev = Some(row.member);
            // Consumers are criteria anchors or members themselves.
            if !row.consumer_is_criterion && row.kind != WitnessKind::Criterion {
                assert!(
                    k1.contains(row.consumer),
                    "non-criterion consumer {:?} of {:?} must be a member",
                    row.consumer,
                    row.member
                );
            }
        }
        // The session has all the interesting edge kinds.
        for kind in [WitnessKind::Mem, WitnessKind::Control, WitnessKind::Call] {
            assert!(
                w.rows().any(|r| r.kind == kind),
                "expected at least one {} row",
                kind.name()
            );
        }
    }

    #[test]
    fn witness_off_by_default() {
        let trace = rich_trace();
        let fwd = ForwardPass::build(&trace);
        let r = slice(
            &trace,
            &fwd,
            &pixel_criteria(&trace),
            &SliceOptions::default(),
        );
        assert!(r.witness().is_none());
    }

    #[test]
    fn fact_map_overwrites_and_clips() {
        let mut m = FactMap::default();
        let f = |p| Fact {
            pos: p,
            crit: false,
        };
        m.insert(10, 20, f(1));
        m.insert(15, 30, f(2));
        assert_eq!(m.first_overlap(0, 100), Some((10, 15, f(1))));
        assert_eq!(m.first_overlap(16, 18), Some((16, 18, f(2))));
        m.remove(12, 17);
        assert_eq!(m.first_overlap(11, 40), Some((11, 12, f(1))));
        assert_eq!(m.first_overlap(12, 17), None);
        assert_eq!(m.first_overlap(17, 40), Some((17, 30, f(2))));
    }

    #[test]
    fn rows_roundtrip_through_columns() {
        let rows = vec![
            WitnessRow {
                member: TracePos(3),
                kind: WitnessKind::Mem,
                fact_lo: 100,
                fact_hi: 164,
                consumer: TracePos(9),
                consumer_is_criterion: true,
                genned_reads: true,
            },
            WitnessRow {
                member: TracePos(5),
                kind: WitnessKind::Control,
                fact_lo: 0xabc,
                fact_hi: 0,
                consumer: TracePos(7),
                consumer_is_criterion: false,
                genned_reads: false,
            },
        ];
        let w = Witnesses::from_rows(rows.clone());
        assert_eq!(w.len(), 2);
        assert_eq!(w.rows().collect::<Vec<_>>(), rows);
    }
}
