//! Dependence-witness tables: *why* each slice member joined.
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
//! The rows come out of the sequential walk itself: when witnesses are
//! requested, the walk carries a [`Sink`] next to its live sets. The sink
//! records the consumer of every live register and byte, and it changes
//! only where the walk already mutates liveness for a member — criteria,
//! pending branches, kill/gen and calls — so each row is written at the
//! moment its member joins, with no second pass over the trace. Live
//! bytes route by region like the live sets: small-operand regions go to
//! 4 KiB pages of consumer slots, large-buffer regions to an interval
//! map, and both report the same fact boundaries. The table is a pure
//! function of `(trace, criteria)`, and it is byte-identical at any
//! segment count K because every path takes it from this one walk (the
//! segment driver re-walks for it and asserts the bitmaps agree).

use std::collections::{BTreeMap, HashMap};

use wasteprof_trace::{AddrRange, RegSet, TraceIoError, TracePos};

use crate::criteria::SlicingCriterion;
use crate::live::routes_to_intervals;

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
/// member position. Stored struct-of-arrays next to [`crate::SliceResult`] so
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

    /// A 64-bit FNV-1a digest over the six columns, one column after
    /// another: two tables are byte-identical exactly when their digests
    /// agree (up to hash collisions), so runs on different paths can be
    /// compared by one printed number.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        self.members.iter().for_each(|m| eat(&m.to_le_bytes()));
        self.kinds.iter().for_each(|&k| eat(&[k as u8]));
        self.fact_lo.iter().for_each(|v| eat(&v.to_le_bytes()));
        self.fact_hi.iter().for_each(|v| eat(&v.to_le_bytes()));
        self.consumers.iter().for_each(|c| eat(&c.to_le_bytes()));
        eat(&self.flags);
        h
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

/// Checks that a witnessed prefix of `n` instructions fits the table's
/// `u32` positions. Every position is then below `u32::MAX`, which the
/// fact map keeps free as its dead-slot marker.
///
/// # Errors
///
/// [`TraceIoError::Format`] when `n` exceeds `u32::MAX`.
pub(crate) fn position_bound(n: usize) -> Result<(), TraceIoError> {
    if n as u64 > u32::MAX as u64 {
        return Err(TraceIoError::Format(format!(
            "a witnessed slice covers at most {} instructions (u32 positions), \
             this prefix has {n}",
            u32::MAX
        )));
    }
    Ok(())
}

/// A live fact's consumer: the position that declared the bytes/register
/// live, and whether that position is a criterion anchor or a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    pos: u32,
    crit: bool,
}

/// Interval map of live bytes → consumer, keyed by interval start:
/// disjoint `[start, end)` entries, split on demand and never merged, so
/// neighbouring facts with the same consumer stay separate entries. The
/// large-buffer half of [`FactMap`], and the oracle its paged half is
/// tested against.
#[derive(Default)]
struct IntervalFacts {
    map: BTreeMap<u64, (u64, Fact)>,
    /// Reused buffer for the entry starts an insert or kill replaces.
    scratch: Vec<u64>,
}

impl IntervalFacts {
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

    fn insert(&mut self, lo: u64, hi: u64, fact: Fact) {
        self.remove(lo, hi);
        self.map.insert(lo, (hi, fact));
    }

    /// Drops every entry inside `[lo, hi)`, splitting the ones that
    /// straddle either end.
    fn remove(&mut self, lo: u64, hi: u64) {
        self.split_at(lo);
        self.split_at(hi);
        self.scratch.clear();
        self.scratch.extend(self.map.range(lo..hi).map(|(&s, _)| s));
        for s in &self.scratch {
            self.map.remove(s);
        }
    }

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

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_BYTES as u64 - 1;
const PAGE_WORDS: usize = PAGE_BYTES / 64;

/// Consumer slot of a byte that is not live. Positions stay below it
/// (see [`position_bound`]).
const DEAD: u32 = u32::MAX;

/// One 4 KiB page of the fact map: a consumer slot per byte, plus a
/// criterion bit and an entry-start bit per byte. A live byte whose start
/// bit is clear continues the entry of the byte before it. The bits of a
/// dead byte mean nothing: an insert rewrites them before the byte is
/// live again.
struct FactPage {
    consumers: [u32; PAGE_BYTES],
    crit: [u64; PAGE_WORDS],
    starts: [u64; PAGE_WORDS],
}

impl FactPage {
    fn fresh() -> Box<FactPage> {
        Box::new(FactPage {
            consumers: [DEAD; PAGE_BYTES],
            crit: [0; PAGE_WORDS],
            starts: [0; PAGE_WORDS],
        })
    }

    fn fact(&self, off: usize) -> Fact {
        Fact {
            pos: self.consumers[off],
            crit: self.crit[off / 64] & (1 << (off % 64)) != 0,
        }
    }

    /// True if the byte at `off` is live and continues the entry of the
    /// byte before it.
    fn continues(&self, off: usize) -> bool {
        self.consumers[off] != DEAD && self.starts[off / 64] & (1 << (off % 64)) == 0
    }
}

/// Sets (`on`) or clears bits `[off, off + len)` of a page bitmap.
fn set_bits(bits: &mut [u64; PAGE_WORDS], off: usize, len: usize, on: bool) {
    let (mut i, end) = (off, off + len);
    while i < end {
        let n = (64 - i % 64).min(end - i);
        let mask = if n == 64 {
            !0
        } else {
            ((1u64 << n) - 1) << (i % 64)
        };
        if on {
            bits[i / 64] |= mask;
        } else {
            bits[i / 64] &= !mask;
        }
        i += n;
    }
}

/// Bytes of `[at, hi)` that lie on `at`'s page.
#[inline]
fn on_page(at: u64, hi: u64) -> usize {
    (PAGE_BYTES as u64 - (at & PAGE_MASK)).min(hi - at) as usize
}

/// Live bytes → consumer, routed by region like the live sets: code,
/// heap, stack and debug-ring bytes go to [`FactPage`]s, large-buffer
/// regions (pixel tiles, channels, input, framebuffer) to
/// [`IntervalFacts`]. Both halves keep the same entries, so
/// [`FactMap::first_overlap`] returns what a single interval map would.
/// Operations route by their first byte (a trace operand never crosses a
/// region).
#[derive(Default)]
struct FactMap {
    /// Page number (`addr >> PAGE_SHIFT`) to its page. Page numbers come
    /// from trace files, so the map keeps std's collision-resistant hasher.
    pages: HashMap<u64, Box<FactPage>>,
    spans: IntervalFacts,
}

impl FactMap {
    /// Marks `[lo, hi)` live with `fact` as one entry, overwriting any
    /// previous consumer of those bytes.
    fn insert(&mut self, lo: u64, hi: u64, fact: Fact) {
        if lo >= hi {
            return;
        }
        if routes_to_intervals(lo) {
            return self.spans.insert(lo, hi, fact);
        }
        let mut at = lo;
        while at < hi {
            let (off, len) = ((at & PAGE_MASK) as usize, on_page(at, hi));
            let page = self
                .pages
                .entry(at >> PAGE_SHIFT)
                .or_insert_with(FactPage::fresh);
            page.consumers[off..off + len].fill(fact.pos);
            set_bits(&mut page.crit, off, len, fact.crit);
            set_bits(&mut page.starts, off, len, false);
            at += len as u64;
        }
        self.split_at(lo);
        self.split_at(hi);
    }

    /// Kills `[lo, hi)` (the bytes are no longer live). A live byte at
    /// `hi` needs no start bit: a run never continues past a dead byte.
    fn remove(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        if routes_to_intervals(lo) {
            return self.spans.remove(lo, hi);
        }
        let mut at = lo;
        while at < hi {
            let (off, len) = ((at & PAGE_MASK) as usize, on_page(at, hi));
            if let Some(page) = self.pages.get_mut(&(at >> PAGE_SHIFT)) {
                page.consumers[off..off + len].fill(DEAD);
            }
            at += len as u64;
        }
    }

    /// Marks a live byte at `at` as the start of an entry: whatever entry
    /// held `at - 1` ends there.
    fn split_at(&mut self, at: u64) {
        if let Some(page) = self.pages.get_mut(&(at >> PAGE_SHIFT)) {
            let off = (at & PAGE_MASK) as usize;
            if page.consumers[off] != DEAD {
                page.starts[off / 64] |= 1 << (off % 64);
            }
        }
    }

    /// The lowest-address live entry piece of `[lo, hi)`, clipped to the
    /// query, with its consumer.
    fn first_overlap(&self, lo: u64, hi: u64) -> Option<(u64, u64, Fact)> {
        if routes_to_intervals(lo) {
            return self.spans.first_overlap(lo, hi);
        }
        let mut at = lo;
        let (start, fact) = loop {
            if at >= hi {
                return None;
            }
            let (off, len) = ((at & PAGE_MASK) as usize, on_page(at, hi));
            if let Some(page) = self.pages.get(&(at >> PAGE_SHIFT)) {
                let live = page.consumers[off..off + len]
                    .iter()
                    .position(|&c| c != DEAD);
                if let Some(k) = live {
                    break (at + k as u64, page.fact(off + k));
                }
            }
            at += len as u64;
        };
        let mut end = start + 1;
        while end < hi {
            let (off, len) = ((end & PAGE_MASK) as usize, on_page(end, hi));
            let Some(page) = self.pages.get(&(end >> PAGE_SHIFT)) else {
                break;
            };
            let run = (off..off + len).take_while(|&o| page.continues(o)).count();
            end += run as u64;
            if run < len {
                break;
            }
        }
        Some((start, end, fact))
    }
}

/// The edge a member records when it joins: its row minus the member
/// position and the genned-reads flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    kind: WitnessKind,
    fact_lo: u64,
    fact_hi: u64,
    consumer: Fact,
}

impl Edge {
    fn new(kind: WitnessKind, fact_lo: u64, pos: u32, crit: bool) -> Edge {
        Edge {
            kind,
            fact_lo,
            fact_hi: 0,
            consumer: Fact { pos, crit },
        }
    }

    /// The anchor of an `include_instr` criterion at `idx`.
    pub(crate) fn criterion(idx: usize) -> Edge {
        Edge::new(WitnessKind::Criterion, 0, idx as u32, true)
    }

    /// A pending branch at `pc`, armed first by the member at `armer`.
    pub(crate) fn control(pc: u64, armer: u32) -> Edge {
        Edge::new(WitnessKind::Control, pc, armer, false)
    }

    /// A call whose callee frame first saw the member at `inner`.
    pub(crate) fn call(inner: u32) -> Edge {
        Edge::new(WitnessKind::Call, 0, inner, false)
    }
}

/// The witness half of the sequential walk: the consumer of every live
/// register and byte, and the rows written so far. The walk calls it only
/// where it mutates liveness for a member, so the consumers mirror its
/// live sets exactly.
pub(crate) struct Sink {
    facts: FactMap,
    regs: Vec<[Option<Fact>; 16]>,
    /// Rows in *descending* member order (reversed by
    /// [`Sink::finish`]): each member joins at its own index of the walk.
    rows: Witnesses,
}

impl Sink {
    /// A sink for a walk over `n` instructions.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Format`] when `n` does not fit the table's `u32`
    /// positions ([`position_bound`]).
    pub(crate) fn new(n: usize) -> Result<Sink, TraceIoError> {
        position_bound(n)?;
        Ok(Sink {
            facts: FactMap::default(),
            regs: vec![[None; 16]; 256],
            rows: Witnesses::default(),
        })
    }

    /// Seeds the facts of criterion `c`, anchored at `idx` in thread `ti`.
    pub(crate) fn criterion(&mut self, idx: usize, ti: usize, c: &SlicingCriterion) {
        let fact = Fact {
            pos: idx as u32,
            crit: true,
        };
        for range in &c.mem {
            self.facts
                .insert(range.start().raw(), range.end().raw(), fact);
        }
        for r in c.regs.iter() {
            self.regs[ti][r.index()] = Some(fact);
        }
    }

    /// The edge a kill/gen member records before its writes are killed:
    /// the first live register it writes, else the first live byte piece.
    pub(crate) fn kill_edge(&self, ti: usize, regs: RegSet, mem: &[AddrRange]) -> Option<Edge> {
        if let Some((r, f)) = regs
            .iter()
            .find_map(|r| self.regs[ti][r.index()].map(|f| (r, f)))
        {
            return Some(Edge::new(WitnessKind::Reg, r.index() as u64, f.pos, f.crit));
        }
        let (lo, hi, f) = mem
            .iter()
            .find_map(|w| self.facts.first_overlap(w.start().raw(), w.end().raw()))?;
        Some(Edge {
            kind: WitnessKind::Mem,
            fact_lo: lo,
            fact_hi: hi,
            consumer: f,
        })
    }

    /// Writes the row of the member joining at `idx`.
    pub(crate) fn join(&mut self, idx: usize, e: Edge) {
        self.rows.push(WitnessRow {
            member: TracePos(idx as u64),
            kind: e.kind,
            fact_lo: e.fact_lo,
            fact_hi: e.fact_hi,
            consumer: TracePos(e.consumer.pos as u64),
            consumer_is_criterion: e.consumer.crit,
            genned_reads: false,
        });
    }

    /// Kills the member's written registers and bytes in thread `ti`.
    pub(crate) fn kill(&mut self, ti: usize, regs: RegSet, mem: &[AddrRange]) {
        for r in regs.iter() {
            self.regs[ti][r.index()] = None;
        }
        for w in mem {
            self.facts.remove(w.start().raw(), w.end().raw());
        }
    }

    /// Makes the reads of the member at `idx` live with it as consumer
    /// and flags its row as having genned them.
    pub(crate) fn gen(&mut self, idx: usize, ti: usize, regs: RegSet, mem: &[AddrRange]) {
        let fact = Fact {
            pos: idx as u32,
            crit: false,
        };
        for r in mem {
            self.facts.insert(r.start().raw(), r.end().raw(), fact);
        }
        for r in regs.iter() {
            self.regs[ti][r.index()] = Some(fact);
        }
        if self.rows.members.last() == Some(&(idx as u32)) {
            *self.rows.flags.last_mut().expect("a row per member") |= FLAG_GENNED_READS;
        }
    }

    /// The finished table, in ascending member order. The columns keep
    /// their growth slack: the slack is never touched, so it costs address
    /// space but no resident memory, while shrinking them reallocates
    /// mid-run and raised the streamed profile's peak RSS.
    pub(crate) fn finish(self) -> Witnesses {
        let mut w = self.rows;
        w.members.reverse();
        w.kinds.reverse();
        w.fact_lo.reverse();
        w.fact_hi.reverse();
        w.consumers.reverse();
        w.flags.reverse();
        w
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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
    fn fact_map_keeps_same_consumer_neighbours_apart_across_pages() {
        let heap = Region::Heap.base().raw();
        let page = PAGE_BYTES as u64;
        let f = Fact {
            pos: 4,
            crit: false,
        };
        let mut m = FactMap::default();
        m.insert(heap + page - 4, heap + page + 4, f);
        m.insert(heap + page + 4, heap + page + 12, f);
        assert_eq!(
            m.first_overlap(heap, heap + 2 * page),
            Some((heap + page - 4, heap + page + 4, f))
        );
        assert_eq!(
            m.first_overlap(heap + page + 2, heap + 2 * page),
            Some((heap + page + 2, heap + page + 4, f))
        );
        // A criterion fact over the same bytes is a different consumer.
        let c = Fact { pos: 4, crit: true };
        m.insert(heap + page, heap + page + 8, c);
        assert_eq!(
            m.first_overlap(heap + page - 2, heap + page + 12),
            Some((heap + page - 2, heap + page, f))
        );
        assert_eq!(
            m.first_overlap(heap + page, heap + page + 12),
            Some((heap + page, heap + page + 8, c))
        );
        assert_eq!(
            m.first_overlap(heap + page + 8, heap + page + 12),
            Some((heap + page + 8, heap + page + 12, f))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The paged half answers every query exactly as the interval map
        /// it replaces for small-operand regions.
        #[test]
        fn paged_fact_map_matches_interval_oracle(
            ops in proptest::collection::vec(
                ((0..4u8, 0..3u64, 0..48u64), (0..8u8, 1..24u64, 0..3u32, any::<bool>())),
                1..64,
            ),
        ) {
            let heap = Region::Heap.base().raw();
            let mut hybrid = FactMap::default();
            let mut oracle = IntervalFacts::default();
            for ((op, page, delta), (size, len, pos, crit)) in ops {
                // Starts cluster around page boundaries, so short ranges
                // straddle them; one op in eight spans pages. Few
                // consumers, so neighbouring entries often share one.
                let lo = heap + (page * PAGE_BYTES as u64 + delta).saturating_sub(24);
                let hi = lo + if size == 0 { len * 700 } else { len };
                let fact = Fact { pos, crit };
                match op {
                    0 => {}
                    1 | 2 => {
                        hybrid.insert(lo, hi, fact);
                        oracle.insert(lo, hi, fact);
                    }
                    _ => {
                        hybrid.remove(lo, hi);
                        oracle.remove(lo, hi);
                    }
                }
                prop_assert_eq!(hybrid.first_overlap(lo, hi), oracle.first_overlap(lo, hi));
                // Every entry piece of a wider window, one query after
                // another from the end of the last piece.
                let (wlo, whi) = (lo.saturating_sub(40).max(heap), hi + 40);
                let mut at = wlo;
                while at < whi {
                    let want = oracle.first_overlap(at, whi);
                    prop_assert_eq!(hybrid.first_overlap(at, whi), want);
                    match want {
                        Some((_, end, _)) => at = end,
                        None => break,
                    }
                }
            }
        }
    }

    #[test]
    fn position_bound_stops_at_u32_positions() {
        assert!(position_bound(0).is_ok());
        assert!(position_bound(u32::MAX as usize).is_ok());
        match position_bound(u32::MAX as usize + 1) {
            Err(TraceIoError::Format(m)) => assert!(m.contains("u32"), "{m}"),
            other => panic!("a prefix past u32 positions must be refused: {other:?}"),
        }
    }

    #[test]
    fn digest_tracks_every_column() {
        let row = WitnessRow {
            member: TracePos(3),
            kind: WitnessKind::Mem,
            fact_lo: 100,
            fact_hi: 164,
            consumer: TracePos(9),
            consumer_is_criterion: true,
            genned_reads: true,
        };
        let base = Witnesses::from_rows([row]).digest();
        assert_eq!(base, Witnesses::from_rows([row]).digest(), "stable");
        assert_ne!(base, Witnesses::default().digest());
        let variants = [
            WitnessRow {
                member: TracePos(4),
                ..row
            },
            WitnessRow {
                kind: WitnessKind::Reg,
                ..row
            },
            WitnessRow {
                fact_lo: 101,
                ..row
            },
            WitnessRow {
                fact_hi: 165,
                ..row
            },
            WitnessRow {
                consumer: TracePos(8),
                ..row
            },
            WitnessRow {
                genned_reads: false,
                ..row
            },
        ];
        for v in variants {
            assert_ne!(Witnesses::from_rows([v]).digest(), base, "{v:?}");
        }
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
