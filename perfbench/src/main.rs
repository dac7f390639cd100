//! wasteprof's benchmark: three seeded workloads driven through the
//! profiler's public entry points, every answer checked by an independent
//! referee, and a traced mode that times each call into a layer.
//!
//! ```text
//! perfbench --workload <cold_profile|live_browse|out_of_core> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject-faults]
//! ```
//!
//! Everything runs in one process as one client in a closed loop: one
//! operation (a site profile, or a frame re-slice) at a time, with the
//! program's default thread budget. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! human-readable report, provenance and self-time table go to standard
//! error; result records and the Chrome trace go to `.bench_out/`.
//! See `perfbench/README.md` for the metric definitions.

mod inputs;
mod live;
mod metrics;
mod profile;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::WorkDir;
use spans::Tracer;

/// Set-ups per run; `setup_s` is their median, and every repetition must
/// produce byte-identical inputs.
const SETUP_REPS: usize = 3;

/// Span pass ids of the set-up repetitions, apart from measurement passes.
const SETUP_PASS: usize = 1 << 20;

pub const WORKLOADS: [&str; 3] = ["cold_profile", "live_browse", "out_of_core"];

/// Measurements of one pass: one sweep over the site set, or one round
/// of frames.
#[derive(Default)]
pub struct Pass {
    pub traced: bool,
    /// Latency of each profile operation (site profile or frame).
    pub ops_ms: Vec<f64>,
    /// Instructions those operations profiled.
    pub instrs: u64,
    /// Peak RSS over the pass's profile phase, in kB.
    pub peak_kb: u64,
    /// Per-pass counters and timings, by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn op(&mut self, ms: f64, instrs: u64) {
        self.ops_ms.push(ms);
        self.instrs += instrs;
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_default() += v;
    }

    pub fn set(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub panics: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

pub trait Workload {
    /// Computes the references the measured results are checked against.
    fn prepare(&mut self, _tally: &mut Tally) {}

    /// Runs one pass. With `faults`, injects the workload's fault into
    /// its first operation.
    fn pass(&mut self, t: &mut Tracer, tally: &mut Tally, pass: &mut Pass, faults: bool);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_faults: bool,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--inject-faults]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        inject_faults: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-faults" {
            args.inject_faults = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.inject_faults && args.workload == "live_browse" {
        return Err("--inject-faults applies to cold_profile and out_of_core".into());
    }
    Ok(args)
}

type Setup = std::io::Result<(Box<dyn Workload>, Vec<(String, u64)>)>;

fn setup(name: &str, seed: u64, dir: &Path, t: &mut Tracer) -> Setup {
    fn boxed<W: Workload + 'static>(r: std::io::Result<(W, Vec<(String, u64)>)>) -> Setup {
        r.map(|(w, d)| (Box::new(w) as Box<dyn Workload>, d))
    }
    match name {
        "cold_profile" => boxed(profile::ColdProfile::setup(seed, dir, t)),
        "out_of_core" => boxed(profile::OutOfCore::setup(seed, dir, t)),
        _ => boxed(live::LiveBrowse::setup(seed, dir, t)),
    }
}

/// What a finished run hands to the report.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub setup_s: Vec<f64>,
    pub digests: Vec<(String, u64)>,
    pub passes: Vec<Pass>,
    pub tally: Tally,
    pub tracer: Tracer,
    pub work_dir: PathBuf,
}

fn main() -> ExitCode {
    // The program gets a one-thread budget. On a small shared host a
    // two-way split waits for whichever half the host interrupted, which
    // made two-thread runs spread 6-12% from run to run; a single thread
    // spreads a few percent.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let dir = match WorkDir::create(&root.join(".bench_work"), &args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(1);
        }
    };

    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut digests: Vec<(String, u64)> = Vec::new();
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        tracer.set_enabled(args.trace);
        tracer.set_pass(SETUP_PASS + rep);
        // The previous repetition's inputs are released first, so each
        // set-up starts from the same state.
        drop(workload.take());
        let started = Instant::now();
        let made = setup(&args.workload, args.seed, dir.path(), &mut tracer);
        setup_s.push(started.elapsed().as_secs_f64());
        match made {
            Ok((w, d)) => {
                if rep > 0 && d != digests {
                    tally.fail(format!("set-up {rep} produced different inputs"));
                }
                digests = d;
                workload = Some(w);
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut workload = workload.expect("SETUP_REPS > 0");
    tracer.set_enabled(false);
    workload.prepare(&mut tally);

    let window = Duration::from_secs(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || started.elapsed() < window {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured under the same conditions.
        let traced = args.trace && passes.len().is_multiple_of(2);
        tracer.set_enabled(traced);
        tracer.set_pass(passes.len());
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let done = catch_unwind(AssertUnwindSafe(|| {
            workload.pass(&mut tracer, &mut tally, &mut pass, args.inject_faults)
        }));
        if done.is_err() {
            tracer.recover();
            tally.panics += 1;
            tally.fail(format!("pass {} panicked", passes.len()));
        }
        passes.push(pass);
        if args.inject_faults {
            break;
        }
    }
    tracer.set_enabled(false);
    drop(workload);

    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        setup_s,
        digests,
        passes,
        tally,
        tracer,
        work_dir: dir.path().to_path_buf(),
    };
    let out_dir = root.join(".bench_out");
    let line = metrics::report(&run, &out_dir);
    drop(dir);

    if args.inject_faults {
        // The self-check passes when the one injected fault was counted
        // as a failed operation, nothing else failed, and nothing panicked.
        let detected = run.tally.failed == 1 && run.tally.panics == 0;
        eprintln!(
            "fault-injection self-check ({}): {} of {} operations failed, error_rate {:.4}: {}",
            run.workload,
            run.tally.failed,
            run.tally.attempted,
            run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
            if detected { "DETECTED" } else { "MISSED" }
        );
        println!("{line}");
        return if detected {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    println!("{line}");
    ExitCode::SUCCESS
}
