//! Last-writer shadow memory for the certifier's forward sweep.
//!
//! [`LastWriter`] maps every byte of the traced address space to the
//! position of the instruction that last wrote it. It is a hybrid picked
//! per address region, in the same spirit as the slicer's live sets but
//! built independently — the certifier shares no code with the walk it
//! checks:
//!
//! - **Small-operand regions** (code, heap, stacks, debug rings, and the
//!   space below every region) are 4 KiB pages of `u32` writer slots, one
//!   slot per byte, [`NEVER`] for bytes never written. The sweep's traffic
//!   is dominated by 8-byte cells and stack slots, so a write is one page
//!   lookup plus a `fill` and a query is a short slot scan: no tree
//!   rebalancing, and no allocation once a page exists.
//! - **Large-buffer regions** (pixel tiles, IPC channels, network input,
//!   the framebuffer) keep an interval map from `[start, end)` spans to
//!   their writer, where a 256 KiB tile write is one entry instead of 64
//!   pages of slots.
//!
//! Regions are disjoint, so every byte lives in exactly one half. Writes
//! and queries are routed by their first byte (`addr >> REGION_SHIFT`).
//! A trace operand never crosses a region boundary — the `WP0004` lint
//! rejects traces where one does — and debug builds assert it on every
//! write.
//!
//! Writers are `u32` positions strictly below [`NEVER`]; the certifier
//! refuses prefixes longer than that before its sweep starts.

use std::collections::{BTreeMap, HashMap};

use wasteprof_trace::{Region, REGION_SHIFT};

/// Slot value of a byte nothing has written.
const NEVER: u32 = u32::MAX;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_BYTES as u64 - 1;

/// Writer slots of one page, one per byte.
type Page = Box<[u32; PAGE_BYTES]>;

/// True if `start`'s region holds large buffers (tiles, channels, network
/// input, framebuffer) and routes to the interval half of the shadow.
#[inline]
fn routes_to_spans(start: u64) -> bool {
    const PIXEL_TILE: u64 = Region::PixelTile.index();
    const CHANNEL: u64 = Region::Channel.index();
    const INPUT: u64 = Region::Input.index();
    const FRAMEBUFFER: u64 = Region::Framebuffer.index();
    matches!(
        start >> REGION_SHIFT,
        PIXEL_TILE | CHANNEL | INPUT | FRAMEBUFFER
    )
}

/// Bytes of `[at, hi)` that lie on `at`'s page.
#[inline]
fn on_page(at: u64, hi: u64) -> u64 {
    (PAGE_BYTES as u64 - (at & PAGE_MASK)).min(hi - at)
}

/// Byte-granular last-writer shadow over the whole address space.
#[derive(Default)]
pub(crate) struct LastWriter {
    /// Page number (`addr >> PAGE_SHIFT`) to its writer slots.
    pages: HashMap<u64, Page>,
    spans: SpanMap,
}

impl LastWriter {
    /// Records `writer` as the last writer of `[lo, hi)`.
    pub(crate) fn write(&mut self, lo: u64, hi: u64, writer: u32) {
        debug_assert_ne!(writer, NEVER, "writer collides with the sentinel");
        if lo >= hi {
            return;
        }
        debug_assert_eq!(
            lo >> REGION_SHIFT,
            (hi - 1) >> REGION_SHIFT,
            "operand {lo:#x}..{hi:#x} crosses a region boundary"
        );
        if routes_to_spans(lo) {
            self.spans.write(lo, hi, writer);
            return;
        }
        let mut at = lo;
        while at < hi {
            let len = on_page(at, hi);
            let off = (at & PAGE_MASK) as usize;
            let page = self.page_mut(at >> PAGE_SHIFT);
            page[off..off + len as usize].fill(writer);
            at += len;
        }
    }

    /// Visits `[lo, hi)` as maximal runs of one last writer, in address
    /// order; `None` for bytes never written. The runs tile the query
    /// exactly, so every byte is reported once.
    pub(crate) fn for_range(&self, lo: u64, hi: u64, f: impl FnMut(u64, u64, Option<u32>)) {
        if lo >= hi {
            return;
        }
        let mut runs = Runs::new(lo, f);
        if routes_to_spans(lo) {
            self.spans.for_range(lo, hi, &mut runs);
        } else {
            let mut at = lo;
            while at < hi {
                let len = on_page(at, hi);
                match self.pages.get(&(at >> PAGE_SHIFT)) {
                    None => runs.push(at + len, NEVER),
                    Some(page) => {
                        let off = (at & PAGE_MASK) as usize;
                        let slots = &page[off..off + len as usize];
                        let mut k = 0;
                        while k < slots.len() {
                            let w = slots[k];
                            k += slots[k..].iter().take_while(|&&s| s == w).count();
                            runs.push(at + k as u64, w);
                        }
                    }
                }
                at += len;
            }
        }
        runs.finish();
    }

    fn page_mut(&mut self, number: u64) -> &mut Page {
        self.pages.entry(number).or_insert_with(|| {
            let fresh = vec![NEVER; PAGE_BYTES].into_boxed_slice();
            fresh.try_into().expect("a page has PAGE_BYTES slots")
        })
    }
}

/// Coalesces consecutive pieces of one writer into maximal runs before
/// handing them to the caller's visitor. Pieces arrive in address order
/// and tile the query: each [`Runs::push`] extends coverage to `end`.
struct Runs<F: FnMut(u64, u64, Option<u32>)> {
    f: F,
    /// Start of the open run.
    start: u64,
    /// End of coverage so far (one past the open run).
    end: u64,
    /// Writer of the open run.
    writer: u32,
}

impl<F: FnMut(u64, u64, Option<u32>)> Runs<F> {
    fn new(lo: u64, f: F) -> Self {
        Runs {
            f,
            start: lo,
            end: lo,
            writer: NEVER,
        }
    }

    /// Covers `[self.end, end)` with bytes last written by `writer`.
    fn push(&mut self, end: u64, writer: u32) {
        debug_assert!(end >= self.end, "pieces must arrive in address order");
        if end == self.end {
            return;
        }
        if writer != self.writer {
            self.flush();
            self.writer = writer;
        }
        self.end = end;
    }

    fn flush(&mut self) {
        if self.start < self.end {
            let w = (self.writer != NEVER).then_some(self.writer);
            (self.f)(self.start, self.end, w);
            self.start = self.end;
        }
    }

    fn finish(mut self) {
        self.flush();
    }
}

/// Interval half of the shadow: disjoint `[start, end)` spans mapping to
/// the position that last wrote them.
#[derive(Default)]
struct SpanMap {
    /// start -> (end, writer).
    map: BTreeMap<u64, (u64, u32)>,
    /// Reused buffer for the span starts a write replaces.
    scratch: Vec<u64>,
}

impl SpanMap {
    /// Splits any span straddling `at` so no span crosses it.
    fn split_at(&mut self, at: u64) {
        let split = match self.map.range(..at).next_back() {
            Some((&s, &(end, wr))) if end > at => Some((s, end, wr)),
            _ => None,
        };
        if let Some((s, end, wr)) = split {
            self.map.get_mut(&s).expect("entry just observed").0 = at;
            self.map.insert(at, (end, wr));
        }
    }

    fn write(&mut self, lo: u64, hi: u64, writer: u32) {
        self.split_at(lo);
        self.split_at(hi);
        self.scratch.clear();
        self.scratch.extend(self.map.range(lo..hi).map(|(&s, _)| s));
        for s in &self.scratch {
            self.map.remove(s);
        }
        self.map.insert(lo, (hi, writer));
    }

    fn for_range<F: FnMut(u64, u64, Option<u32>)>(&self, lo: u64, hi: u64, runs: &mut Runs<F>) {
        // The span holding `lo`, if any, then every span starting inside.
        if let Some((_, &(end, wr))) = self.map.range(..=lo).next_back() {
            if end > lo {
                runs.push(end.min(hi), wr);
            }
        }
        for (&s, &(end, wr)) in self.map.range(lo + 1..hi) {
            runs.push(s, NEVER);
            runs.push(end.min(hi), wr);
        }
        runs.push(hi, NEVER);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// Naive per-byte oracle: the maximal runs of one writer over
    /// `[lo, hi)`, in address order.
    fn oracle_runs(bytes: &BTreeMap<u64, u32>, lo: u64, hi: u64) -> Vec<(u64, u64, Option<u32>)> {
        let mut runs: Vec<(u64, u64, Option<u32>)> = Vec::new();
        for b in lo..hi {
            let w = bytes.get(&b).copied();
            match runs.last_mut() {
                Some(last) if last.2 == w => last.1 = b + 1,
                _ => runs.push((b, b + 1, w)),
            }
        }
        runs
    }

    fn shadow_runs(shadow: &LastWriter, lo: u64, hi: u64) -> Vec<(u64, u64, Option<u32>)> {
        let mut runs = Vec::new();
        shadow.for_range(lo, hi, |s, e, w| runs.push((s, e, w)));
        runs
    }

    /// Paged regions (heap, stack) and interval regions (pixel tile,
    /// network input).
    const REGIONS: [Region; 4] = [
        Region::Heap,
        Region::Stack,
        Region::PixelTile,
        Region::Input,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hybrid_shadow_matches_per_byte_oracle(
            ops in proptest::collection::vec(
                ((0..3u8, 0..4usize, 0..4u64, 0..48u64), (0..8u8, 0..24u64, 0..5u32)),
                1..48,
            ),
        ) {
            let mut shadow = LastWriter::default();
            let mut bytes: BTreeMap<u64, u32> = BTreeMap::new();
            for ((op, region, page, delta), (size, len, writer)) in ops {
                // Starts cluster just below and above page boundaries, so
                // short ranges straddle them; one op in eight spans pages.
                let base = REGIONS[region].base().raw();
                let lo = base + (page * PAGE_BYTES as u64 + delta).saturating_sub(24);
                let len = if size == 0 { len * 700 } else { len };
                let hi = lo + len;
                // Op 0 only queries; the others write first.
                if op != 0 {
                    shadow.write(lo, hi, writer);
                    for b in lo..hi {
                        bytes.insert(b, writer);
                    }
                }
                prop_assert_eq!(shadow_runs(&shadow, lo, hi), oracle_runs(&bytes, lo, hi));
                // A wider window around the op, inside its region, sees
                // the untouched neighbours and coalescing across earlier
                // writes.
                let (wlo, whi) = (lo.saturating_sub(40).max(base), hi + 40);
                prop_assert_eq!(shadow_runs(&shadow, wlo, whi), oracle_runs(&bytes, wlo, whi));
            }
        }
    }

    #[test]
    fn pages_and_spans_report_runs_across_boundaries() {
        let heap = Region::Heap.base().raw();
        let mut s = LastWriter::default();
        s.write(heap + 4090, heap + 4100, 7);
        s.write(heap + 4094, heap + 4096, 8);
        assert_eq!(
            shadow_runs(&s, heap + 4088, heap + 4102),
            vec![
                (heap + 4088, heap + 4090, None),
                (heap + 4090, heap + 4094, Some(7)),
                (heap + 4094, heap + 4096, Some(8)),
                (heap + 4096, heap + 4100, Some(7)),
                (heap + 4100, heap + 4102, None),
            ]
        );
        let tile = Region::PixelTile.base().raw();
        s.write(tile, tile + 64, 3);
        s.write(tile + 64, tile + 128, 3);
        assert_eq!(
            shadow_runs(&s, tile, tile + 200),
            vec![(tile, tile + 128, Some(3)), (tile + 128, tile + 200, None)]
        );
        assert!(shadow_runs(&s, tile + 5, tile + 5).is_empty());
    }
}
