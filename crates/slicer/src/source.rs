//! The rows a slicing pass runs over. A resident [`Trace`] hands out
//! zero-copy cursors, so the segment driver's per-segment passes run in
//! parallel over it; a `WPTRACE2` [`TraceReader`] streams windows through
//! its bounded chunk cache, one segment at a time. The sequential walk
//! (which also writes the witness table), the CFG fold and the summarize →
//! stitch → replay driver ([`crate::SummaryCache`]) are each written once
//! against this trait.

use std::io::{Read, Seek};

use rayon::prelude::*;
use wasteprof_trace::{ColumnCursor, ContentHasher, Trace, TraceIoError, TraceReader};

/// Reading rows can fail only for a streamed source.
type Result<T> = std::result::Result<T, TraceIoError>;

pub(crate) trait RowSource {
    /// Rows in the source.
    fn len(&self) -> usize;

    /// Size of the function table.
    fn nfuncs(&self) -> usize;

    /// Feeds `[lo, hi)` through `f` as ascending windows that tile it.
    fn scan(&mut self, lo: usize, hi: usize, f: impl FnMut(&ColumnCursor<'_>)) -> Result<()>;

    /// [`scan`](RowSource::scan) with the windows in descending order
    /// (backward passes walk each window's indices in reverse).
    fn scan_rev(&mut self, lo: usize, hi: usize, f: impl FnMut(&ColumnCursor<'_>)) -> Result<()>;

    /// One backward pass per range: `init(i)` builds the pass for
    /// `ranges[i]`, `feed` receives its windows in descending order, and
    /// `done` turns it into the output. Outputs come back in range order.
    fn per_segment<T, U: Send>(
        &mut self,
        ranges: &[(usize, usize)],
        init: impl Fn(usize) -> T + Sync,
        feed: impl Fn(&mut T, &ColumnCursor<'_>) + Sync,
        done: impl Fn(T) -> U + Sync,
    ) -> Result<Vec<U>> {
        let mut out = Vec::with_capacity(ranges.len());
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let mut pass = init(i);
            self.scan_rev(lo, hi, |cur| feed(&mut pass, cur))?;
            out.push(done(pass));
        }
        Ok(out)
    }

    /// A content hash of the rows `[lo, hi)` the source already holds.
    fn stored_hash(&self, _lo: usize, _hi: usize) -> Option<[u64; 2]> {
        None
    }

    /// [`wasteprof_trace::segment_content_hash`] of the rows `[lo, hi)`.
    fn seg_hash(&mut self, lo: usize, hi: usize) -> Result<[u64; 2]> {
        if let Some(h) = self.stored_hash(lo, hi) {
            return Ok(h);
        }
        let mut h = ContentHasher::new();
        self.scan(lo, hi, |cur| h.fold_cursor(cur))?;
        Ok(h.finish((hi - lo) as u64))
    }
}

impl RowSource for &Trace {
    fn len(&self) -> usize {
        Trace::len(self)
    }

    fn nfuncs(&self) -> usize {
        self.functions().len()
    }

    fn scan(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&ColumnCursor<'_>)) -> Result<()> {
        f(&self.columns().cursor(lo, hi));
        Ok(())
    }

    fn scan_rev(&mut self, lo: usize, hi: usize, f: impl FnMut(&ColumnCursor<'_>)) -> Result<()> {
        self.scan(lo, hi, f)
    }

    fn per_segment<T, U: Send>(
        &mut self,
        ranges: &[(usize, usize)],
        init: impl Fn(usize) -> T + Sync,
        feed: impl Fn(&mut T, &ColumnCursor<'_>) + Sync,
        done: impl Fn(T) -> U + Sync,
    ) -> Result<Vec<U>> {
        let cols = self.columns();
        let jobs: Vec<usize> = (0..ranges.len()).collect();
        Ok(jobs
            .par_iter()
            .map(|&i| {
                let mut pass = init(i);
                feed(&mut pass, &cols.cursor(ranges[i].0, ranges[i].1));
                done(pass)
            })
            .collect())
    }
}

impl<R: Read + Seek> RowSource for TraceReader<R> {
    fn len(&self) -> usize {
        TraceReader::len(self)
    }

    fn nfuncs(&self) -> usize {
        self.functions().len()
    }

    fn scan(&mut self, lo: usize, hi: usize, f: impl FnMut(&ColumnCursor<'_>)) -> Result<()> {
        self.stream_range(lo, hi, f)
    }

    fn scan_rev(&mut self, lo: usize, hi: usize, f: impl FnMut(&ColumnCursor<'_>)) -> Result<()> {
        self.stream_range_rev(lo, hi, f)
    }

    /// A segment that is exactly one disk chunk has its hash in the
    /// footer, which the reader checks against the rows on decode.
    fn stored_hash(&self, lo: usize, hi: usize) -> Option<[u64; 2]> {
        let meta = self.chunk_meta(self.chunk_of(lo));
        let whole = meta.first_instr == lo as u64 && meta.n_instr == (hi - lo) as u64;
        whole.then_some(meta.content_hash)
    }
}
