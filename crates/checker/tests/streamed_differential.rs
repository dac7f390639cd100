//! Differential tests: the out-of-core checker paths match the in-memory
//! ones over clean *and* corrupted traces.
//!
//! Every trace is serialized as WPTRACE2 with a tiny 64-instruction
//! segment size — so disk-chunk boundaries fall inside lint windows — and
//! checked both ways. Codes and positions must always match exactly; for
//! the race detector, the message of a cross-chunk race may render the
//! evicted earlier side as a bare position in streamed mode, so message
//! equality is asserted for every non-race diagnostic only.

use std::io::Cursor;

use wasteprof_browser::Sched;
use wasteprof_checker::{
    certify, certify_streamed, dead_writes, dead_writes_streamed, verify, verify_source, Code,
    Diag, Mutation, SliceMutation, TraceMutator,
};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
use wasteprof_trace::{site, Recorder, Region, ThreadKind, Trace, Trace2Writer, TraceReader};

/// Serializes `trace` as WPTRACE2 with 64-instruction segments and opens a
/// reader over the bytes, forcing multi-chunk streaming on short fixtures.
fn reader_for(trace: &Trace) -> TraceReader<Cursor<Vec<u8>>> {
    let mut buf = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
    let cols = trace.columns();
    for idx in 0..cols.len() {
        w.push(
            cols.tid(idx),
            cols.func(idx),
            cols.pc(idx),
            cols.kind(idx),
            cols.reg_reads(idx),
            cols.reg_writes(idx),
            cols.mem_reads(idx),
            cols.mem_writes(idx),
        )
        .unwrap();
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .unwrap();
    TraceReader::open(Cursor::new(buf)).unwrap()
}

/// Asserts the streamed battery agrees with the in-memory one on `trace`:
/// identical `(code, pos)` sequences, and identical messages everywhere
/// except `WP0001` (whose earlier-side description legitimately degrades
/// across evicted chunks).
fn check_verify(trace: &Trace, label: &str) -> Vec<Diag> {
    let mem = verify(trace);
    let st = verify_source(&mut reader_for(trace)).unwrap();
    let key = |d: &Diag| (d.code, d.pos);
    assert_eq!(
        st.iter().map(key).collect::<Vec<_>>(),
        mem.iter().map(key).collect::<Vec<_>>(),
        "{label}: codes/positions diverged\nstreamed: {st:#?}\nin-memory: {mem:#?}"
    );
    let msgs = |diags: &[Diag]| {
        diags
            .iter()
            .filter(|d| d.code != Code::Race)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(msgs(&st), msgs(&mem), "{label}: non-race messages diverged");
    mem
}

/// The synthetic cross-thread session the mutation proptests use: all
/// shared traffic rides the scheduler's lock hand-off, so the pristine
/// trace is race-free and carries every mutation's injection site.
fn session() -> Trace {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main_root");
    let workers = [
        rec.spawn_thread(ThreadKind::Compositor, "comp_root"),
        rec.spawn_thread(ThreadKind::Raster(0), "raster_root"),
        rec.spawn_thread(ThreadKind::Io, "io_root"),
    ];
    rec.switch_to(main);
    let mut sched = Sched::new(&mut rec, 4);
    let shared = rec.alloc_cell(Region::Heap);
    let input = rec.alloc(Region::Input, 64);
    let tile = rec.alloc(Region::PixelTile, 64);
    let work = rec.intern_func("worker::Work");

    rec.compute(site!(), &[], &[input]);
    rec.compute(site!(), &[input], &[shared.into()]);
    for hop in 0..12 {
        sched.post_task(&mut rec, workers[hop % 3]);
        rec.in_func(site!(), work, |rec| {
            rec.compute_weighted(site!(), &[shared.into()], &[shared.into()], 3);
        });
        sched.post_task(&mut rec, main);
    }
    rec.compute(site!(), &[shared.into()], &[tile]);
    rec.marker(site!(), tile);
    sched.ipc_send(&mut rec, &[tile], 2);
    rec.finish()
}

#[test]
fn streamed_verify_matches_in_memory_on_clean_and_mutated_traces() {
    let trace = session();
    let clean = check_verify(&trace, "pristine");
    assert!(clean.is_empty(), "pristine session not clean: {clean:#?}");

    for &m in &Mutation::ALL {
        let mutated = TraceMutator::new(&trace)
            .apply(m)
            .unwrap_or_else(|| panic!("{}: no injection site", m.name()));
        let diags = check_verify(&mutated, m.name());
        assert!(!diags.is_empty(), "{} went undetected", m.name());
    }
}

#[test]
fn streamed_certify_matches_in_memory_on_clean_and_mutated_slices() {
    let trace = session();
    let fwd = ForwardPass::build(&trace);
    let criteria = pixel_criteria(&trace);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let result = slice(&trace, &fwd, &criteria, &opts);

    // Both certifiers run the same meta-driven sweep, so clean and
    // mutated witnesses alike must agree byte for byte.
    let mem = certify(&trace, &fwd, &criteria, &result);
    let st = certify_streamed(&mut reader_for(&trace), &fwd, &criteria, &result).unwrap();
    assert!(
        mem.is_empty(),
        "pristine slice failed certification: {mem:#?}"
    );
    assert_eq!(st, mem, "pristine certify diverged");

    for &m in &SliceMutation::ALL {
        let mutated = TraceMutator::new(&trace)
            .apply_slice(m, &result)
            .unwrap_or_else(|| panic!("{}: no injection site", m.name()));
        let mem = certify(&trace, &fwd, &criteria, &mutated);
        let st = certify_streamed(&mut reader_for(&trace), &fwd, &criteria, &mutated).unwrap();
        assert!(!mem.is_empty(), "{} went undetected", m.name());
        assert_eq!(st, mem, "{}: certify diverged", m.name());
    }
}

#[test]
fn streamed_dead_writes_match_in_memory() {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "root");
    let ch = rec.alloc(Region::Channel, 16);
    for _ in 0..80 {
        rec.compute(site!(), &[], &[ch]); // overwritten unread: dead
    }
    rec.compute(site!(), &[ch], &[]);
    let trace = rec.finish();

    let mem = dead_writes(&trace);
    let st = dead_writes_streamed(&mut reader_for(&trace)).unwrap();
    assert!(!mem.is_empty());
    assert_eq!(st, mem, "dead-write lint diverged");
}
