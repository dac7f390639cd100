//! Per-segment dispatch of the segment driver's backward passes.

use rayon::prelude::*;
use wasteprof_trace::{ColumnCursor, TraceIoError, TraceSource};

/// One backward pass per range: `init(i)` builds the pass for
/// `ranges[i]`, `feed` receives its windows in descending order, and
/// `done` turns it into the output. Outputs come back in range order.
///
/// A resident trace runs the passes in parallel over zero-copy cursors;
/// a streamed source runs them one at a time through its chunk window.
pub(crate) fn per_segment<S: TraceSource, T, U: Send>(
    src: &mut S,
    ranges: &[(usize, usize)],
    init: impl Fn(usize) -> T + Sync,
    feed: impl Fn(&mut T, &ColumnCursor<'_>) + Sync,
    done: impl Fn(T) -> U + Sync,
) -> Result<Vec<U>, TraceIoError> {
    if let Some(trace) = src.resident() {
        let cols = trace.columns();
        let jobs: Vec<usize> = (0..ranges.len()).collect();
        return Ok(jobs
            .par_iter()
            .map(|&i| {
                let mut pass = init(i);
                feed(&mut pass, &cols.cursor(ranges[i].0, ranges[i].1));
                done(pass)
            })
            .collect());
    }
    let mut out = Vec::with_capacity(ranges.len());
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        let mut pass = init(i);
        src.scan_rev(lo, hi, |cur| feed(&mut pass, cur))?;
        out.push(done(pass));
    }
    Ok(out)
}
