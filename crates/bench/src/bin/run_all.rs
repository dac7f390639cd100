//! Runs every experiment in one process over a shared, memoized session
//! store, regenerating every table and figure of the paper's evaluation.
//!
//! Each benchmark session and forward pass is computed exactly once and
//! shared by every experiment that needs it; independent slicing runs fan
//! out across a thread pool (`RAYON_NUM_THREADS` bounds it). Artifacts are
//! emitted sequentially in a fixed order, so `results/` text and CSV files
//! are byte-identical no matter the thread count. Per-stage timing lands
//! in `results/perf.txt` and `results/bench_engine.json`.

use wasteprof_bench::engine;
use wasteprof_bench::save;

fn main() {
    let report = engine::run();
    for view in &report.views {
        println!("\n=== {} ===", view.name);
        println!("{}", view.stdout);
        for (name, content) in &view.artifacts {
            save(name, content);
        }
    }
    // Timing artifacts vary run to run by nature; they are excluded from
    // byte-for-byte determinism comparisons.
    save("perf.txt", &report.perf_text());
    save("bench_engine.json", &report.to_json());
    println!("\n{}", report.perf_text());
    println!("all experiments complete; artifacts in results/");
}
