//! Hand-built certifier fixture: a heap operand straddling a 4 KiB page
//! boundary (both halves of the certifier's paged shadow) feeding a
//! pixel-tile write (its interval half) that a pixel criterion consumes.
//!
//! The honest witnessed slice certifies clean. Dropping either writer from
//! the slice bitmap must produce exactly the (code, position) pairs the
//! `BTreeMap`-shadow certifier reported for the same corruption.

use wasteprof_checker::{certify, Code, Diag};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions, SliceResult};
use wasteprof_trace::{site, Recorder, Reg, RegSet, Region, ThreadKind, Trace, TracePos};

/// Page granule of the certifier's small-operand shadow.
const PAGE: u64 = 4096;

struct Fixture {
    trace: Trace,
    heap_writer: TracePos,
    tile_writer: TracePos,
}

fn fixture() -> Fixture {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main_root");
    rec.switch_to(main);
    // Pad the heap so the next 16-byte operand covers [4088, 4104) of the
    // region: 8 bytes on each side of a page boundary.
    rec.alloc(Region::Heap, (PAGE - 8) as u32);
    let straddle = rec.alloc(Region::Heap, 16);
    let lo = straddle.start().raw();
    assert_ne!(lo / PAGE, (straddle.end().raw() - 1) / PAGE);
    let tile = rec.alloc(Region::PixelTile, 64);

    rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
    let heap_writer = rec.store(site!(), straddle, Reg::Rax);
    rec.load(site!(), Reg::Rbx, straddle);
    let tile_writer = rec.store(site!(), tile, Reg::Rbx);
    rec.marker(site!(), tile);
    Fixture {
        trace: rec.finish(),
        heap_writer,
        tile_writer,
    }
}

fn witnessed_slice(f: &Fixture) -> (ForwardPass, SliceResult) {
    let fwd = ForwardPass::build(&f.trace);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let result = slice(&f.trace, &fwd, &pixel_criteria(&f.trace), &opts);
    (fwd, result)
}

/// Distinct `(code, position)` pairs, in canonical order.
fn pairs(diags: &[Diag]) -> Vec<(Code, Option<u64>)> {
    let mut out: Vec<(Code, Option<u64>)> =
        diags.iter().map(|d| (d.code, d.pos.map(|p| p.0))).collect();
    out.dedup();
    out
}

fn certify_without(f: &Fixture, writer: TracePos) -> Vec<(Code, Option<u64>)> {
    let (fwd, mut result) = witnessed_slice(f);
    assert!(
        result.remove_member(writer),
        "{writer} was not a slice member"
    );
    pairs(&certify(&f.trace, &fwd, &pixel_criteria(&f.trace), &result))
}

#[test]
fn honest_slice_certifies_clean() {
    let f = fixture();
    let (fwd, result) = witnessed_slice(&f);
    assert!(result.contains(f.heap_writer) && result.contains(f.tile_writer));
    let diags = certify(&f.trace, &fwd, &pixel_criteria(&f.trace), &result);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn dropping_the_page_straddling_heap_writer_leaks() {
    let f = fixture();
    assert_eq!(f.heap_writer, TracePos(1));
    assert_eq!(
        certify_without(&f, f.heap_writer),
        vec![
            (Code::CertifyLiveLeak, Some(1)),
            (Code::CertifyMismatch, Some(1)),
            (Code::CertifyMismatch, None),
        ]
    );
}

#[test]
fn dropping_the_pixel_tile_writer_leaks() {
    let f = fixture();
    assert_eq!(f.tile_writer, TracePos(3));
    assert_eq!(
        certify_without(&f, f.tile_writer),
        vec![
            (Code::CertifyLiveLeak, Some(3)),
            (Code::CertifyMismatch, Some(3)),
            (Code::CertifyMismatch, None),
        ]
    );
}
