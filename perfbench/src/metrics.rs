//! Metric definitions, the human-readable report, provenance, and the
//! result line. The metric names and units here are the ones
//! `BENCHMARK.json` lists.

use std::fmt::Write as _;
use std::path::Path;

use crate::spans::escape;
use crate::{Pass, Run, SETUP_PASS};

/// End-to-end metrics (`--trace 0`), each defined on every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("profile_minstr_s", "Minstr/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
];

/// Per-layer time metrics: metric name and the span whose per-pass total
/// it reports.
const LAYER_TIMES: [(&str, &str); 25] = [
    ("trace.read1_ms", "trace.read1"),
    ("trace.write2_ms", "trace.write2"),
    ("trace.driver_ms", "trace.driver"),
    ("slicer.forward_ms", "slicer.forward"),
    ("slicer.criteria_ms", "slicer.criteria"),
    ("slicer.cfg_fold_ms", "slicer.cfg_fold"),
    ("slicer.control_deps_ms", "slicer.control_deps"),
    ("slicer.slice_ms", "slicer.slice"),
    ("slicer.slice_k1_ms", "slicer.slice_k1"),
    ("slicer.slice_auto_ms", "slicer.slice_auto"),
    ("slicer.hash_ms", "slicer.hash"),
    ("slicer.incr_slice_ms", "slicer.incr_slice"),
    ("slicer.cache_save_ms", "slicer.cache_save"),
    ("slicer.cache_load_ms", "slicer.cache_load"),
    ("slicer.resume_ms", "bench.resume_op"),
    ("checker.certify_ms", "checker.certify"),
    ("checker.lints_ms", "checker.lints"),
    ("checker.dead_writes_ms", "checker.dead_writes"),
    ("analysis.category_ms", "analysis.category"),
    ("analysis.waste_ms", "analysis.waste"),
    ("staticjs.analyze_ms", "staticjs.analyze"),
    ("staticjs.referee_ms", "staticjs.referee"),
    ("staticjs.static_ms", "bench.static_op"),
    ("workloads.record_ms", "workloads.record"),
    ("bench.op_ms", "bench.op"),
];

/// Per-layer counters: metric name, unit, and the per-pass value key.
const LAYER_COUNTS: [(&str, &str, &str); 11] = [
    ("trace.decoded_bytes", "B", "trace.decoded_bytes"),
    ("trace.skipped_bytes", "B", "trace.skipped_bytes"),
    ("trace.chunks_decoded", "count", "trace.chunks_decoded"),
    ("slicer.cache_hits", "count", "slicer.cache_hits"),
    ("slicer.cache_misses", "count", "slicer.cache_misses"),
    ("slicer.stitch_reused", "count", "slicer.stitch_reused"),
    ("slicer.cache_bytes", "B", "slicer.cache_bytes"),
    ("slicer.cache_evictions", "count", "slicer.cache_evictions"),
    ("checker.witness_rows", "count", "checker.witness_rows"),
    ("staticjs.claims", "count", "staticjs.claims"),
    ("staticjs.violations", "count", "staticjs.violations"),
];

/// Calls whose peak-RSS growth is reported as `<call>_rss_mb`: the ones
/// `out_of_core` runs through the streamed entry points.
const LAYER_RSS: [&str; 4] = [
    "slicer.forward",
    "slicer.slice",
    "trace.driver",
    "checker.certify",
];

/// Derived per-layer metrics, computed in [`per_layer`].
const LAYER_DERIVED: [(&str, &str); 7] = [
    ("slicer.witness_ms", "ms"),
    ("slicer.slice_fraction", "ratio"),
    ("slicer.cache_hit_rate", "ratio"),
    ("trace.write_minstr_s", "Minstr/s"),
    ("trace.bytes_per_instr", "B/instr"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
];

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    out.extend(LAYER_TIMES.iter().map(|(n, _)| (n.to_string(), "ms")));
    out.extend(LAYER_COUNTS.iter().map(|(n, u, _)| (n.to_string(), *u)));
    out.extend(LAYER_RSS.iter().map(|n| (format!("{n}_rss_mb"), "MB")));
    out.extend(LAYER_DERIVED.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Instructions profiled per second over one pass, in millions.
fn pass_minstr_s(p: &Pass) -> f64 {
    let ms: f64 = p.ops_ms.iter().sum();
    p.instrs as f64 / (ms * 1e3).max(1e-9)
}

/// End-to-end metric values of a run's untraced passes.
fn end_to_end(run: &Run) -> Vec<f64> {
    let passes: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    let t = &run.tally;
    vec![
        median(&run.setup_s),
        passes.iter().map(|p| p.peak_kb).max().unwrap_or(0) as f64 / 1024.0,
        (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
        median(&passes.iter().map(|p| pass_minstr_s(p)).collect::<Vec<_>>()),
        quantile(&ops, 0.5),
        quantile(&ops, 0.9),
    ]
}

/// Per-layer metric values, from the traced passes (and the set-ups for
/// `workloads.record_ms`), in [`per_layer_names`] order.
fn per_layer(run: &Run) -> Vec<f64> {
    let traced: Vec<&Pass> = run.passes.iter().filter(|p| p.traced).collect();
    let traced_ids: Vec<usize> = (0..run.passes.len())
        .filter(|&i| run.passes[i].traced)
        .collect();
    let spans = run.tracer.spans();
    // Median over passes of the per-pass total time of `span`.
    let span_ms = |span: &str| {
        let ids: Vec<usize> = if span == "workloads.record" {
            (0..run.setup_s.len()).map(|r| SETUP_PASS + r).collect()
        } else {
            traced_ids.clone()
        };
        let totals: Vec<f64> = ids
            .iter()
            .map(|&id| {
                spans
                    .iter()
                    .filter(|s| s.pass == id && s.name == span)
                    .map(|s| s.ms())
                    .sum()
            })
            .collect();
        median(&totals)
    };
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let ratio = |num: &str, den: &str| {
        per_pass(&|p| {
            let d = p.get(den);
            if d == 0.0 {
                0.0
            } else {
                p.get(num) / d
            }
        })
    };

    let mut out: Vec<f64> = LAYER_TIMES.iter().map(|(_, span)| span_ms(span)).collect();
    out.extend(
        LAYER_COUNTS
            .iter()
            .map(|(_, _, key)| per_pass(&|p| p.get(key))),
    );
    out.extend(LAYER_RSS.iter().map(|call| {
        spans
            .iter()
            .filter(|s| s.name == *call)
            .map(|s| s.rss_mb)
            .fold(0.0, f64::max)
    }));
    let untraced: Vec<f64> = run
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.ops_ms.iter().sum())
        .collect();
    let traced_ops: Vec<f64> = traced.iter().map(|p| p.ops_ms.iter().sum()).collect();
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        median(&traced_ops) / median(&untraced).max(1e-9) - 1.0
    };
    let t = &run.tally;
    out.extend([
        span_ms("slicer.slice") - span_ms("slicer.slice_auto"),
        ratio("slicer.slice_count", "slicer.considered"),
        per_pass(&|p| {
            let (h, m) = (p.get("slicer.cache_hits"), p.get("slicer.cache_misses"));
            if h + m == 0.0 {
                0.0
            } else {
                h / (h + m)
            }
        }),
        per_pass(&|p| {
            let ms = p.get("trace.write2_ms");
            if ms == 0.0 {
                0.0
            } else {
                p.get("trace.write2_instrs") / (ms * 1e3)
            }
        }),
        ratio("trace.write2_bytes", "trace.write2_instrs"),
        overhead,
        t.failed as f64 / t.attempted.max(1) as f64,
    ]);
    out
}

/// Host and build facts stamped on every result: numbers taken under
/// different provenance are not comparable.
fn provenance(run: &Run) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload".into(), run.workload.clone()),
        ("seed".into(), run.seed.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), cpu),
        ("rustc".into(), env!("PERFBENCH_RUSTC").to_owned()),
        ("git_rev".into(), env("PERFBENCH_GIT_REV")),
        ("source_digest".into(), env("PERFBENCH_SOURCE_DIGEST")),
        ("input_fs".into(), filesystem_of(&run.work_dir)),
        (
            "rayon_num_threads".into(),
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
    ]
}

/// Filesystem type of the mount holding `path` (from mountinfo).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The end-to-end report under each workload's own metric names.
fn human_report(run: &Run, e2e: &[f64]) -> String {
    let passes: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let per_pass = |key: &str| median(&passes.iter().map(|p| p.get(key)).collect::<Vec<_>>());
    let n_ops: usize = passes.iter().map(|p| p.ops_ms.len()).sum();
    let t = &run.tally;
    let mut out = String::new();
    let mut line = |name: &str, value: f64, unit: &str, note: &str| {
        let _ = writeln!(out, "  {name:<22} {value:>14.4} {unit:<10} {note}");
    };
    line(
        "setup_s",
        e2e[0],
        "s",
        &format!("median of {} set-ups", run.setup_s.len()),
    );
    line("peak_rss_mb", e2e[1], "MB", "VmHWM over the profile phase");
    line(
        "error_rate",
        t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
        &format!("{} failed of {} attempted", t.failed, t.attempted),
    );
    let ops = format!("{n_ops} operations over {} passes", passes.len());
    match run.workload.as_str() {
        "live_browse" => {
            line(
                "profile_minstr_s",
                e2e[3],
                "Minstr/s",
                "frame instructions re-sliced",
            );
            line("frame_ms_p50", e2e[4], "ms", &ops);
            line("frame_ms_p90", e2e[5], "ms", &ops);
            line(
                "resume_ms",
                per_pass("slicer.resume_ms"),
                "ms",
                "load + re-slice final frame",
            );
        }
        workload => {
            line("profile_minstr_s", e2e[3], "Minstr/s", "median over passes");
            line("op_ms_p50", e2e[4], "ms", &ops);
            line("op_ms_p90", e2e[5], "ms", &ops);
            if workload == "cold_profile" {
                line(
                    "static_ms",
                    per_pass("staticjs.static_ms"),
                    "ms",
                    "per site set",
                );
            } else {
                let ms = per_pass("trace.write2_ms");
                let instrs = per_pass("trace.write2_instrs");
                line(
                    "write_minstr_s",
                    instrs / (ms * 1e3).max(1e-9),
                    "Minstr/s",
                    "write_trace2",
                );
                let bytes = per_pass("trace.write2_bytes");
                line(
                    "trace_bytes_per_instr",
                    bytes / instrs.max(1.0),
                    "B/instr",
                    "exact",
                );
            }
        }
    }
    out
}

/// Computes the metrics, prints the report to standard error, writes
/// the result record (and the Chrome trace of a traced run) to
/// `out_dir`, and returns the result line.
pub fn report(run: &Run, out_dir: &Path) -> String {
    let prov = provenance(run);
    let (names, values): (Vec<(String, &str)>, Vec<f64>) = if run.trace {
        (per_layer_names(), per_layer(run))
    } else {
        let names = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        (names, end_to_end(run))
    };
    let correct = run.tally.failed == 0;

    let mut err = String::new();
    let _ = writeln!(
        err,
        "== perfbench {} seed {} trace {}",
        run.workload, run.seed, run.trace as u8
    );
    for (k, v) in &prov {
        let _ = writeln!(err, "  {k:<18} {v}");
    }
    for (name, digest) in &run.digests {
        let _ = writeln!(err, "  input {name:<12} fnv1a64 {digest:016x}");
    }
    if run.trace {
        let _ = writeln!(err, "-- per-layer self time (traced passes)");
        err.push_str(&run.tracer.self_time_table());
        let overhead = values[names
            .iter()
            .position(|(n, _)| n == "bench.tracing_overhead")
            .expect("listed")];
        let _ = writeln!(
            err,
            "-- tracing overhead: traced passes' operations took {:+.2}% vs untraced",
            overhead * 100.0
        );
    } else {
        let _ = writeln!(err, "-- end-to-end metrics (tracing off)");
        err.push_str(&human_report(run, &values));
    }
    for e in &run.tally.errors {
        let _ = writeln!(err, "  FAILED: {e}");
    }
    eprint!("{err}");

    let metrics: Vec<String> = names
        .iter()
        .zip(&values)
        .map(|((n, u), v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted,
        run.tally.failed,
        metrics.join(", ")
    );

    let stem = format!("{}-seed{}-trace{}", run.workload, run.seed, run.trace as u8);
    let mut record = String::from("{\"provenance\": {");
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    record.push_str(&prov_json.join(", "));
    record.push_str("}, \"inputs\": {");
    let digests: Vec<String> = run
        .digests
        .iter()
        .map(|(n, d)| format!("\"{n}\": \"{d:016x}\""))
        .collect();
    record.push_str(&digests.join(", "));
    let _ = writeln!(
        record,
        "}}, \"setup_s\": {:?}, \"result\": {line}}}",
        run.setup_s
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(out_dir.join(format!("{stem}.json")), record))
        .and_then(|_| {
            if run.trace {
                let trace = run.tracer.chrome_trace(&prov);
                std::fs::write(out_dir.join(format!("{stem}.trace.json")), trace)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results to {}: {e}",
            out_dir.display()
        );
    }
    line
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
