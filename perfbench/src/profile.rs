//! The `cold_profile` and `out_of_core` workloads: the paper's profiler
//! run end to end over the four recorded sites, from a `WPTRACE1` trace
//! loaded into memory, or from a `WPTRACE2` file through the `_streamed`
//! entry points.

use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wasteprof_analysis::{
    Category, CategoryAnalysis, CategoryBreakdown, WasteAnalysis, WasteBreakdown,
};
use wasteprof_checker::{certify, certify_streamed, DeadWriteLint, Diag, Registry};
use wasteprof_slicer::{
    pixel_criteria, pixel_criteria_streamed, slice, slice_streamed, strip_allocator_deps, CfgSet,
    ControlDeps, Criteria, ForwardPass, SliceOptions, SliceResult,
};
use wasteprof_staticjs::{analyze_sources, compare};
use wasteprof_trace::{
    read_trace, write_trace2, AnalysisDriver, Trace, TraceAnalysis, TraceIoError, TracePos,
    TraceReader,
};

use crate::inputs::{file_digest, fresh_file, record_sites, SiteInput};
use crate::spans::{reset_peak_rss, status_kb, Tracer};
use crate::{Pass, Tally, Workload};

fn witnessed() -> SliceOptions {
    SliceOptions {
        witness: true,
        ..SliceOptions::default()
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Outputs of the four subscribers of the fused analysis sweep.
struct Fused {
    verify: Vec<Diag>,
    dead: Vec<Diag>,
    category: CategoryBreakdown,
    waste: WasteBreakdown,
}

impl Fused {
    fn same(&self, other: &Fused) -> bool {
        let (a, b) = (&self.category, &other.category);
        self.verify == other.verify
            && self.dead == other.dead
            && a.total_unnecessary == b.total_unnecessary
            && a.uncategorized == b.uncategorized
            && Category::ALL.iter().all(|&c| a.count(c) == b.count(c))
            && self.waste == other.waste
    }
}

/// One `AnalysisDriver` sweep carrying the lint battery, the dead-write
/// lint, the category breakdown and the waste breakdown; `sweep` runs the
/// driver in memory or over a reader.
fn fused(
    pixel: &SliceResult,
    sweep: impl FnOnce(&mut AnalysisDriver<'_>) -> Result<(), TraceIoError>,
) -> Result<Fused, TraceIoError> {
    let mut verify_reg = Registry::with_default_lints();
    let mut dead_reg = Registry::new();
    dead_reg.register(Box::new(DeadWriteLint::default()));
    let mut verify = verify_reg.as_analysis("verify");
    let mut dead = dead_reg.as_analysis("dead-writes");
    let mut category = CategoryAnalysis::new(pixel);
    let mut waste = WasteAnalysis::new(pixel);
    let mut driver = AnalysisDriver::new();
    driver.register(&mut verify);
    driver.register(&mut dead);
    driver.register(&mut category);
    driver.register(&mut waste);
    sweep(&mut driver)?;
    drop(driver);
    Ok(Fused {
        verify: verify.take_diags(),
        dead: dead.take_diags(),
        category: category.into_breakdown(),
        waste: waste.into_breakdown(),
    })
}

/// [`fused`] over an in-memory trace.
fn fused_in_memory(trace: &Trace, pixel: &SliceResult) -> Fused {
    fused(pixel, |d| {
        d.run(trace);
        Ok(())
    })
    .expect("an in-memory sweep does no I/O")
}

/// Runs one analysis alone over a reader (the streamed solo reference).
fn solo_streamed<R: Read + Seek>(
    reader: &mut TraceReader<R>,
    analysis: &mut dyn TraceAnalysis,
) -> Result<(), TraceIoError> {
    let mut driver = AnalysisDriver::new();
    driver.register(analysis);
    driver.run_streamed(reader)
}

/// The fault the `cold_profile` self-check injects: drop the first slice
/// member before certification.
fn drop_first_member(result: &mut SliceResult) {
    let first = (0..result.considered())
        .map(TracePos)
        .find(|&p| result.contains(p))
        .expect("a pixel slice has members");
    result.remove_member(first);
}

/// The fault the `out_of_core` self-check injects: flip one byte in the
/// middle of the first segment's payload.
fn flip_payload_byte(path: &Path) -> Result<(), String> {
    let reader =
        TraceReader::open(BufReader::new(File::open(path).map_err(io_err)?)).map_err(io_err)?;
    let meta = reader.chunk_meta(0);
    let at = meta.offset + meta.byte_len / 2;
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(io_err)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(at)).map_err(io_err)?;
    f.read_exact(&mut b).map_err(io_err)?;
    b[0] ^= 0x5A;
    f.seek(SeekFrom::Start(at)).map_err(io_err)?;
    f.write_all(&b).map_err(io_err)
}

/// Static analysis of the site's scripts plus the static-vs-dynamic
/// referee against the allocator-stripped pixel slice of `trace`.
/// Returns (claims, soundness violations).
fn static_referee(t: &mut Tracer, site: &SiteInput, trace: &Trace) -> Result<(u64, u64), String> {
    let analysis = t.span("staticjs.analyze", |_| analyze_sources(&site.scripts))?;
    let report = t.span("staticjs.referee", |_| {
        let stripped = strip_allocator_deps(trace);
        let forward = ForwardPass::build(&stripped);
        let pixel = slice(
            &stripped,
            &forward,
            &pixel_criteria(&stripped),
            &SliceOptions::default(),
        );
        compare(&analysis, &site.js_witness, &|p| {
            pixel.contains(TracePos(p))
        })
    });
    let claims = report.unreachable.predicted
        + report.dead_stores.predicted
        + report.useless_calls.predicted
        + report.uncallable.predicted;
    Ok((claims, report.soundness_violations()))
}

fn read1(path: &Path) -> Result<Trace, TraceIoError> {
    read_trace(&mut BufReader::new(File::open(path)?))
}

/// Digests of the stored input files.
fn digests(sites: &[SiteInput]) -> std::io::Result<Vec<(String, u64)>> {
    sites
        .iter()
        .map(|s| Ok((s.bench.short_name().to_owned(), file_digest(&s.path)?)))
        .collect()
}

/// Adds the per-site slice accounting to the pass counters.
fn count_slice(pass: &mut Pass, result: &SliceResult) {
    pass.add("slicer.slice_count", result.slice_count() as f64);
    pass.add("slicer.considered", result.considered() as f64);
    pass.add(
        "checker.witness_rows",
        result.witness().map_or(0, |w| w.len()) as f64,
    );
}

// ----- cold_profile ------------------------------------------------------

/// Each site's stored `WPTRACE1` trace profiled end to end in memory, then
/// the static analyzer and its referee over the site's scripts.
pub struct ColdProfile {
    sites: Vec<SiteInput>,
}

impl ColdProfile {
    pub fn setup(
        seed: u64,
        dir: &Path,
        t: &mut Tracer,
    ) -> std::io::Result<(ColdProfile, Vec<(String, u64)>)> {
        let sites = t.span("workloads.record", |_| record_sites(seed, dir))?;
        let digests = digests(&sites)?;
        Ok((ColdProfile { sites }, digests))
    }
}

/// Everything one in-memory site profile produced.
struct Profiled {
    trace: Trace,
    forward: ForwardPass,
    criteria: Criteria,
    result: SliceResult,
    diags: usize,
}

fn profile_in_memory(t: &mut Tracer, path: &Path, fault: bool) -> Result<Profiled, String> {
    let trace = t.span("trace.read1", |_| read1(path)).map_err(io_err)?;
    let forward = t.span("slicer.forward", |_| ForwardPass::build(&trace));
    let criteria = t.span("slicer.criteria", |_| pixel_criteria(&trace));
    let mut result = t.span("slicer.slice", |_| {
        slice(&trace, &forward, &criteria, &witnessed())
    });
    black_box(t.span("trace.driver", |_| fused_in_memory(&trace, &result)));
    if fault {
        drop_first_member(&mut result);
    }
    let diags = t.span("checker.certify", |_| {
        certify(&trace, &forward, &criteria, &result)
    });
    Ok(Profiled {
        trace,
        forward,
        criteria,
        result,
        diags: diags.len(),
    })
}

/// Reference calls that split a layer, run as spans of their own outside
/// the timed operation (traced passes only).
fn split_in_memory(t: &mut Tracer, p: &Profiled) {
    let cfgs = t.span("slicer.cfg_fold", |_| CfgSet::build(&p.trace));
    black_box(t.span("slicer.control_deps", |_| ControlDeps::compute(&cfgs)));
    let k1 = SliceOptions {
        segments: 1,
        ..SliceOptions::default()
    };
    black_box(t.span("slicer.slice_k1", |_| {
        slice(&p.trace, &p.forward, &p.criteria, &k1)
    }));
    black_box(t.span("slicer.slice_auto", |_| {
        slice(&p.trace, &p.forward, &p.criteria, &SliceOptions::default())
    }));
    black_box(t.span("checker.lints", |_| wasteprof_checker::verify(&p.trace)));
    black_box(t.span("checker.dead_writes", |_| {
        wasteprof_checker::dead_writes(&p.trace)
    }));
    black_box(t.span("analysis.category", |_| {
        CategoryBreakdown::compute(&p.trace, &p.result)
    }));
    black_box(t.span("analysis.waste", |_| {
        WasteBreakdown::compute(&p.trace, &p.result)
    }));
}

impl Workload for ColdProfile {
    fn pass(&mut self, t: &mut Tracer, tally: &mut Tally, pass: &mut Pass, faults: bool) {
        reset_peak_rss();
        for (i, site) in self.sites.iter().enumerate() {
            t.next_op();
            let started = Instant::now();
            let profiled = t.span("bench.op", |t| {
                profile_in_memory(t, &site.path, faults && i == 0)
            });
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let p = match profiled {
                Ok(p) => p,
                Err(e) => {
                    tally.fail(format!("{}: {e}", site.bench.short_name()));
                    continue;
                }
            };
            if p.diags == 0 {
                tally.ok();
            } else {
                tally.fail(format!(
                    "{}: certifier reported {} diagnostics",
                    site.bench.short_name(),
                    p.diags
                ));
            }
            pass.op(ms, site.instrs);
            count_slice(pass, &p.result);

            let started = Instant::now();
            let referee = t.span("bench.static_op", |t| static_referee(t, site, &p.trace));
            pass.add("staticjs.static_ms", started.elapsed().as_secs_f64() * 1e3);
            match referee {
                Ok((claims, 0)) => {
                    tally.ok();
                    pass.add("staticjs.claims", claims as f64);
                }
                Ok((claims, violations)) => {
                    tally.fail(format!(
                        "{}: {violations} of {claims} static claims refuted",
                        site.bench.short_name()
                    ));
                    pass.add("staticjs.claims", claims as f64);
                    pass.add("staticjs.violations", violations as f64);
                }
                Err(e) => tally.fail(format!("{}: static: {e}", site.bench.short_name())),
            }
            if t.enabled() {
                split_in_memory(t, &p);
            }
        }
        pass.peak_kb = pass.peak_kb.max(status_kb("VmHWM:"));
    }
}

// ----- out_of_core -------------------------------------------------------

/// What the in-memory pipeline produced for one site: the streamed
/// results must equal it.
struct Reference {
    result: SliceResult,
    fused: Fused,
}

/// Each site written as `WPTRACE2`, then profiled from disk through the
/// `_streamed` entry points; results must equal the in-memory pipeline's.
pub struct OutOfCore {
    sites: Vec<SiteInput>,
    refs: Vec<Reference>,
    paths2: Vec<PathBuf>,
}

impl OutOfCore {
    pub fn setup(
        seed: u64,
        dir: &Path,
        t: &mut Tracer,
    ) -> std::io::Result<(OutOfCore, Vec<(String, u64)>)> {
        let sites = t.span("workloads.record", |_| record_sites(seed, dir))?;
        let digests = digests(&sites)?;
        let paths2 = sites
            .iter()
            .map(|s| s.path.with_extension("wptrace2"))
            .collect();
        Ok((
            OutOfCore {
                sites,
                refs: Vec::new(),
                paths2,
            },
            digests,
        ))
    }
}

/// Results of one streamed site profile.
struct Streamed {
    result: SliceResult,
    fused: Fused,
    diags: usize,
    stats: wasteprof_trace::DecodeStats,
}

fn open2(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceIoError> {
    TraceReader::open(BufReader::new(File::open(path)?))
}

fn profile_streamed(t: &mut Tracer, path: &Path) -> Result<Streamed, TraceIoError> {
    let mut reader = t.span("trace.open2", |_| open2(path))?;
    let forward = t.span("slicer.forward", |_| {
        ForwardPass::build_streamed(&mut reader)
    })?;
    let criteria = t.span("slicer.criteria", |_| pixel_criteria_streamed(&reader));
    let result = t.span("slicer.slice", |_| {
        slice_streamed(&mut reader, &forward, &criteria, &witnessed())
    })?;
    let fused = t.span("trace.driver", |_| {
        fused(&result, |d| d.run_streamed(&mut reader))
    })?;
    let diags = t.span("checker.certify", |_| {
        certify_streamed(&mut reader, &forward, &criteria, &result)
    })?;
    Ok(Streamed {
        result,
        fused,
        diags: diags.len(),
        stats: reader.decode_stats(),
    })
}

/// The streamed layer splits (traced passes only).
fn split_streamed(t: &mut Tracer, path: &Path, pixel: &SliceResult) -> Result<(), TraceIoError> {
    let mut reader = open2(path)?;
    let cfgs = t.span("slicer.cfg_fold", |_| CfgSet::build_streamed(&mut reader))?;
    let deps = t.span("slicer.control_deps", |_| ControlDeps::compute(&cfgs));
    black_box(deps);
    let forward = ForwardPass::build_streamed(&mut reader)?;
    let criteria = pixel_criteria_streamed(&reader);
    for (name, segments) in [("slicer.slice_k1", 1), ("slicer.slice_auto", 0)] {
        let opts = SliceOptions {
            segments,
            ..SliceOptions::default()
        };
        let r = t.span(name, |_| {
            slice_streamed(&mut reader, &forward, &criteria, &opts)
        })?;
        black_box(r);
    }
    t.span("checker.lints", |_| {
        Registry::with_default_lints().run_streamed(&mut reader)
    })?;
    t.span("checker.dead_writes", |_| {
        wasteprof_checker::dead_writes_streamed(&mut reader)
    })?;
    let mut category = CategoryAnalysis::new(pixel);
    t.span("analysis.category", |_| {
        solo_streamed(&mut reader, &mut category)
    })?;
    let mut waste = WasteAnalysis::new(pixel);
    t.span("analysis.waste", |_| solo_streamed(&mut reader, &mut waste))?;
    Ok(())
}

impl Workload for OutOfCore {
    fn prepare(&mut self, tally: &mut Tally) {
        for site in &self.sites {
            let reference = read1(&site.path).map(|trace| {
                let forward = ForwardPass::build(&trace);
                let result = slice(
                    &trace,
                    &forward,
                    &pixel_criteria(&trace),
                    &SliceOptions::default(),
                );
                let fused = fused_in_memory(&trace, &result);
                Reference { result, fused }
            });
            match reference {
                Ok(r) => self.refs.push(r),
                Err(e) => tally.fail(format!("{}: reference: {e}", site.bench.short_name())),
            }
        }
    }

    fn pass(&mut self, t: &mut Tracer, tally: &mut Tally, pass: &mut Pass, faults: bool) {
        // Write phase: each stored trace is loaded and written as WPTRACE2.
        for (i, site) in self.sites.iter().enumerate() {
            let name = site.bench.short_name();
            let trace = match t.span("trace.read1", |_| read1(&site.path)) {
                Ok(trace) => trace,
                Err(e) => {
                    tally.fail(format!("{name}: {e}"));
                    continue;
                }
            };
            t.next_op();
            let started = Instant::now();
            let written = t.span("bench.write_op", |t| {
                t.span("trace.write2", |_| -> Result<_, TraceIoError> {
                    let mut w = BufWriter::new(fresh_file(&self.paths2[i])?);
                    let stats = write_trace2(&mut w, &trace)?;
                    w.flush()?;
                    Ok(stats)
                })
            });
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match written {
                Ok(stats) => {
                    tally.ok();
                    pass.add("trace.write2_ms", ms);
                    pass.add("trace.write2_instrs", stats.instrs as f64);
                    pass.add("trace.write2_bytes", stats.file_bytes as f64);
                }
                Err(e) => tally.fail(format!("{name}: write: {e}")),
            }
            if faults && i == 0 {
                if let Err(e) = flip_payload_byte(&self.paths2[i]) {
                    tally.fail(format!("{name}: fault injection: {e}"));
                }
            }
        }

        // Profile phase: nothing but the reader's chunk window and the
        // results is resident, which is what peak RSS reports here.
        reset_peak_rss();
        for (i, site) in self.sites.iter().enumerate() {
            let name = site.bench.short_name();
            t.next_op();
            let started = Instant::now();
            let streamed = t.span("bench.op", |t| profile_streamed(t, &self.paths2[i]));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let mut s = match streamed {
                Ok(s) => s,
                Err(e) => {
                    tally.fail(format!("{name}: streamed profile: {e}"));
                    continue;
                }
            };
            pass.op(ms, site.instrs);
            count_slice(pass, &s.result);
            pass.add("trace.chunks_decoded", s.stats.chunks_decoded as f64);
            pass.add("trace.decoded_bytes", s.stats.decoded_stream_bytes as f64);
            pass.add("trace.skipped_bytes", s.stats.skipped_stream_bytes as f64);
            s.result.set_witness(None);
            let reference = self.refs.get(i);
            if s.diags > 0 {
                tally.fail(format!(
                    "{name}: certifier reported {} diagnostics",
                    s.diags
                ));
            } else if reference.is_none_or(|r| r.result != s.result || !r.fused.same(&s.fused)) {
                tally.fail(format!("{name}: streamed results differ from in-memory"));
            } else {
                tally.ok();
            }
            if t.enabled() {
                if let Err(e) = split_streamed(t, &self.paths2[i], &s.result) {
                    tally.fail(format!("{name}: streamed reference split: {e}"));
                }
            }
        }
        pass.peak_kb = pass.peak_kb.max(status_kb("VmHWM:"));
    }
}
