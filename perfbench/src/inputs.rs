//! Seeded input generation: the recorded browser sessions the workloads
//! profile, and the files they are stored in.
//!
//! The workload seed reaches the program only through the inputs: it sets
//! every profiled site's `SiteSpec::seed` (page text and style sheet, via
//! `build_site`), and the think times and animation frames of the live
//! session's script, which is driven through the public `Tab` API. The
//! program sees only the generated traces.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use wasteprof_browser::{Session, Tab};
use wasteprof_js::JsWitness;
use wasteprof_trace::write_trace;
use wasteprof_workloads::{bing_browse, build_site, Benchmark, FrameSession, SiteSpec};

/// Frames in one live session.
pub const FRAMES: usize = 28;

/// One splitmix64 step: mixes the workload seed into a site seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical site spec of `bench` with its seed mixed with the
/// workload seed.
fn seeded_spec(bench: Benchmark, seed: u64) -> SiteSpec {
    let mut spec = bench.spec();
    spec.seed = splitmix64(spec.seed ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    spec
}

/// Vsync ticks after load and utility chunks of each site; the values of
/// `Benchmark::run`'s post-load timeline.
fn post_load(bench: Benchmark) -> (u32, u32) {
    match bench {
        Benchmark::AmazonDesktop => (260, 140),
        Benchmark::AmazonMobile => (240, 40),
        Benchmark::GoogleMaps => (220, 330),
        Benchmark::Bing => (200, 240),
    }
}

/// A tab with the seeded site loaded and the shared post-load timeline
/// played, as `Benchmark::run` does for the canonical site.
fn loaded_tab(bench: Benchmark, spec: &SiteSpec) -> Tab {
    let (vsync, utility) = post_load(bench);
    let mut tab = Tab::new(bench.browser_config());
    tab.load(build_site(spec));
    tab.pump_vsync(vsync / 3);
    tab.set_animation("photo", true);
    tab.pump_vsync(vsync);
    tab.pump_utility(utility);
    tab.run_timers();
    tab
}

/// The JavaScript sources a site serves, as `(url, source)` pairs.
fn scripts(spec: &SiteSpec) -> Vec<(String, String)> {
    build_site(spec)
        .resources
        .into_iter()
        .filter(|r| r.kind == wasteprof_browser::ResourceKind::Js)
        .map(|r| (r.url, r.content))
        .collect()
}

/// One recorded site session, stored as a `WPTRACE1` file.
pub struct SiteInput {
    pub bench: Benchmark,
    pub instrs: u64,
    pub path: PathBuf,
    /// Script sources, for the static analyzer.
    pub scripts: Vec<(String, String)>,
    /// The execution witness the static referee joins against.
    pub js_witness: JsWitness,
}

/// Records the four paper sites at `seed` (Bing with its browse session,
/// as in Table II) and stores each trace under `dir` as `WPTRACE1`.
pub fn record_sites(seed: u64, dir: &Path) -> std::io::Result<Vec<SiteInput>> {
    let mut out = Vec::new();
    for bench in Benchmark::ALL {
        let spec = seeded_spec(bench, seed);
        let mut tab = loaded_tab(bench, &spec);
        if bench == Benchmark::Bing {
            bing_browse(&mut tab);
        }
        let Session {
            trace, js_witness, ..
        } = tab.finish();
        let path = dir.join(format!("{}.wptrace", bench.short_name()));
        let mut w = BufWriter::new(fresh_file(&path)?);
        write_trace(&mut w, &trace).map_err(std::io::Error::other)?;
        w.flush()?;
        out.push(SiteInput {
            bench,
            instrs: trace.len() as u64,
            path,
            scripts: scripts(&spec),
            js_witness,
        });
    }
    Ok(out)
}

/// Records a seeded Bing load-and-browse session cut into [`FRAMES`]
/// session snapshots: frame 0 is the loaded page and every later frame
/// appends one interaction block of the canonical `bing_frames` script.
///
/// The seed sets the script's timing: the think time before each action
/// and the animation frames pumped after it. It does not change the page:
/// whether a typing frame invalidates cached summaries flips with the page
/// text, which moved per-frame latencies by 20-40% between seeds.
pub fn record_frames(seed: u64) -> FrameSession {
    let bench = Benchmark::Bing;
    let mut tab = loaded_tab(bench, &bench.spec());
    let mut frame_ends = vec![tab.trace_len() as usize];
    let mut state = splitmix64(seed);
    for k in 1..FRAMES {
        state = splitmix64(state);
        interaction(&mut tab, k, state);
        frame_ends.push(tab.trace_len() as usize);
    }
    let session = tab.finish();
    // The recorder may close the session with a few trailing rows; the
    // final frame covers them.
    *frame_ends.last_mut().expect("at least one frame") = session.trace.len();
    FrameSession {
        session,
        frame_ends,
    }
}

/// One interaction block of the canonical frame script (menu poke, news
/// roll, scroll, search typing by `k % 4`), its think time and animation
/// frames drawn from `draw`.
fn interaction(tab: &mut Tab, k: usize, draw: u64) {
    tab.idle(30_000 + draw % 40_000);
    let vsync = 16 + (draw >> 32) as u32 % 24;
    match k % 4 {
        0 => {
            tab.click("menu-btn");
            tab.pump_vsync(vsync);
            tab.click("menu-btn");
        }
        1 => {
            tab.click("news-roll");
            tab.pump_vsync(vsync);
        }
        2 => {
            tab.scroll(if k % 8 < 4 { 240.0 } else { -180.0 });
            tab.pump_vsync(vsync);
        }
        _ => {
            if k == 3 {
                // The first typed character pulls the suggestion module.
                tab.fetch_extra("suggest.js");
            }
            let terms = ["weather today", "news near me", "flight status"];
            tab.type_text("search", terms[(k / 4) % terms.len()]);
            tab.pump_vsync(vsync);
        }
    }
    if k.is_multiple_of(5) {
        tab.pump_utility(40);
    }
    tab.run_timers();
}

/// Creates `path` as a new file, unlinking any previous one first.
///
/// Truncating a file that still has dirty pages makes ext4 flush them on
/// close (`auto_da_alloc`), which turns every rewrite into a synchronous
/// disk write; unlinking drops them instead, so rewrites cost what the
/// program does, not what the disk does.
pub fn fresh_file(path: &Path) -> std::io::Result<File> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    File::create(path)
}

/// 64-bit FNV-1a, for input digests (identity, not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a file's bytes.
pub fn file_digest(path: &Path) -> std::io::Result<u64> {
    Ok(fnv1a(&std::fs::read(path)?))
}

/// A directory for generated files, removed with the value.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path, name: &str) -> std::io::Result<WorkDir> {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
