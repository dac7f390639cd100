//! The `live_browse` workload: a live profiler following one browse
//! session, re-slicing after every user action through a carried
//! `SummaryCache`, then saving the cache and resuming from it as a
//! restarted profiler would.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wasteprof_slicer::{
    pixel_criteria, slice, CfgSet, ControlDeps, ForwardPass, SegmentHashes, SliceOptions,
    SliceResult, SummaryCache,
};
use wasteprof_trace::{write_trace, Trace};
use wasteprof_workloads::FrameSession;

use crate::inputs::{fnv1a, record_frames};
use crate::spans::{reset_peak_rss, status_kb, Tracer};
use crate::{Pass, Tally, Workload};

/// The summary byte budget of `SummaryCache::new`.
const CACHE_BUDGET: u64 = 256 << 20;

pub struct LiveBrowse {
    frames: FrameSession,
    /// From-scratch slice of every frame: each incremental result must
    /// equal its frame's.
    refs: Vec<SliceResult>,
    work_dir: PathBuf,
    /// The cache directory of the previous round, removed by the next.
    last_cache: Option<PathBuf>,
    rounds: usize,
}

impl LiveBrowse {
    pub fn setup(
        seed: u64,
        dir: &Path,
        t: &mut Tracer,
    ) -> std::io::Result<(LiveBrowse, Vec<(String, u64)>)> {
        let frames = t.span("workloads.record", |_| record_frames(seed));
        // The session is digested in its stored form; the frame ends are
        // part of the input too.
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &frames.session.trace).map_err(std::io::Error::other)?;
        for end in &frames.frame_ends {
            bytes.extend_from_slice(&(*end as u64).to_le_bytes());
        }
        let digests = vec![("bing_frames".to_owned(), fnv1a(&bytes))];
        let live = LiveBrowse {
            frames,
            refs: Vec::new(),
            work_dir: dir.to_path_buf(),
            last_cache: None,
            rounds: 0,
        };
        Ok((live, digests))
    }
}

/// From-scratch layer splits on the final frame (traced passes only).
fn split_final(t: &mut Tracer, frame: &Trace) {
    let cfgs = t.span("slicer.cfg_fold", |_| CfgSet::build(frame));
    black_box(t.span("slicer.control_deps", |_| ControlDeps::compute(&cfgs)));
    let forward = ForwardPass::build(frame);
    let criteria = pixel_criteria(frame);
    let witnessed = SliceOptions {
        witness: true,
        ..SliceOptions::default()
    };
    let k1 = SliceOptions {
        segments: 1,
        ..SliceOptions::default()
    };
    for (name, opts) in [
        ("slicer.slice", witnessed),
        ("slicer.slice_k1", k1),
        ("slicer.slice_auto", SliceOptions::default()),
    ] {
        black_box(t.span(name, |_| slice(frame, &forward, &criteria, &opts)));
    }
}

impl Workload for LiveBrowse {
    fn prepare(&mut self, _tally: &mut Tally) {
        for k in 0..self.frames.frames() {
            let frame = self.frames.frame_trace(k);
            let forward = ForwardPass::build(&frame);
            let reference = slice(
                &frame,
                &forward,
                &pixel_criteria(&frame),
                &SliceOptions::default(),
            );
            self.refs.push(reference);
        }
    }

    fn pass(&mut self, t: &mut Tracer, tally: &mut Tally, pass: &mut Pass, _faults: bool) {
        let opts = SliceOptions::default();
        let last = self.frames.frames() - 1;
        let mut cache = SummaryCache::new();
        let mut hashes: Option<SegmentHashes> = None;
        reset_peak_rss();
        for k in 0..=last {
            // The frame arrives: materializing its trace is the browser's
            // work, not the profiler's.
            let frame = self.frames.frame_trace(k);
            let before = cache.stats();
            t.next_op();
            let started = Instant::now();
            let result = t.span("bench.op", |t| {
                let h = t.span("slicer.hash", |_| match &hashes {
                    None => SegmentHashes::compute(&frame),
                    Some(prev) => prev.extend_appended(&frame),
                });
                let criteria = t.span("slicer.criteria", |_| pixel_criteria(&frame));
                let result = t.span("slicer.incr_slice", |_| {
                    cache.slice_with_hashes(&frame, &h, &criteria, &opts)
                });
                hashes = Some(h);
                result
            });
            pass.op(started.elapsed().as_secs_f64() * 1e3, frame.len() as u64);
            let after = cache.stats();
            let hits = (after.hits - before.hits) as f64;
            let misses = (after.misses - before.misses) as f64;
            let stitch = (after.stitch_reused - before.stitch_reused) as f64;
            let evictions = (after.evictions - before.evictions) as f64;
            pass.add("slicer.cache_hits", hits);
            pass.add("slicer.cache_misses", misses);
            pass.add("slicer.stitch_reused", stitch);
            pass.add("slicer.cache_evictions", evictions);
            pass.add("slicer.slice_count", result.slice_count() as f64);
            pass.add("slicer.considered", result.considered() as f64);
            t.counter(
                "slicer.cache",
                &[
                    ("hits", hits),
                    ("misses", misses),
                    ("stitch_reused", stitch),
                    ("bytes_held", after.bytes_held as f64),
                ],
            );
            if result == self.refs[k] {
                tally.ok();
            } else {
                tally.fail(format!("frame {k}: incremental slice differs from scratch"));
            }
        }
        pass.set("slicer.cache_bytes", cache.stats().bytes_held as f64);
        pass.peak_kb = pass.peak_kb.max(status_kb("VmHWM:"));

        // The profiler persists its cache and restarts from it. Each round
        // saves into a new directory (see `inputs::fresh_file` on why
        // files are not rewritten in place).
        self.rounds += 1;
        let cache_dir = self.work_dir.join(format!("cache-{}", self.rounds));
        if let Some(previous) = self.last_cache.replace(cache_dir.clone()) {
            let _ = std::fs::remove_dir_all(previous);
        }
        let started = Instant::now();
        let saved = t.span("slicer.cache_save", |_| cache.save(&cache_dir));
        pass.add(
            "slicer.cache_save_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        drop(cache);
        if let Err(e) = saved {
            tally.fail(format!("cache save: {e}"));
            return;
        }
        let frame = self.frames.frame_trace(last);
        t.next_op();
        let started = Instant::now();
        let resumed = t.span("bench.resume_op", |t| {
            let mut cache = t.span("slicer.cache_load", |_| {
                SummaryCache::load(&cache_dir, CACHE_BUDGET)
            });
            let criteria = t.span("slicer.criteria", |_| pixel_criteria(&frame));
            let result = t.span("slicer.resume_slice", |_| {
                cache.slice(&frame, &criteria, &opts)
            });
            (result, cache.stats())
        });
        pass.add("slicer.resume_ms", started.elapsed().as_secs_f64() * 1e3);
        let (result, stats) = resumed;
        if result != self.refs[last] {
            tally.fail("resumed slice differs from scratch".to_owned());
        } else if stats.hits == 0 {
            tally.fail("resumed cache served no summaries".to_owned());
        } else {
            tally.ok();
        }
        if t.enabled() {
            split_final(t, &frame);
        }
    }
}
