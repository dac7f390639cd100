//! The rows every profiler pass runs over, in either storage tier.

use std::io::{Read, Seek};

use crate::analysis::ColumnMask;
use crate::columns::ColumnCursor;
use crate::func::FunctionRegistry;
use crate::io::TraceIoError;
use crate::reader::{DecodeStats, TraceReader};
use crate::segment::ContentHasher;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

/// A trace as the profiler's passes read it: its tables plus its rows,
/// fed through a callback as column windows.
///
/// A resident [`Trace`] (through `&Trace`) hands out one zero-copy window
/// per request; a `WPTRACE2` [`TraceReader`] streams windows through its
/// bounded chunk cache, so the whole trace never lives in memory. Every
/// pass — the forward CFG fold, the backward walk, the segment driver,
/// the criteria builders, the fused analysis sweep and the certifier — is
/// written once against this trait, and the tier is a property of the
/// value passed in.
///
/// Reading rows can fail only for a streamed source; a resident trace
/// always returns `Ok`.
pub trait TraceSource {
    /// Rows in the trace.
    fn len(&self) -> usize;

    /// True if the trace has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol table.
    fn functions(&self) -> &FunctionRegistry;

    /// The thread table.
    fn threads(&self) -> &ThreadTable;

    /// The marker (tile-log) records, in trace order.
    fn markers(&self) -> &[MarkerRecord];

    /// Column groups a scan fills in; see [`TraceSource::set_decode_mask`].
    fn decode_mask(&self) -> ColumnMask {
        ColumnMask::ALL
    }

    /// Narrows (or restores) the column groups later scans must fill in.
    /// A streamed source skips the other column streams instead of
    /// decompressing them, and they read back as default values; a
    /// resident trace has every column decoded already and ignores the
    /// mask.
    fn set_decode_mask(&mut self, _mask: ColumnMask) {}

    /// What scans have decoded so far (all zero for a resident trace).
    fn decode_stats(&self) -> DecodeStats {
        DecodeStats::default()
    }

    /// Feeds `[lo, hi)` through `f` as ascending windows that tile it.
    /// Window indices are true trace positions.
    ///
    /// # Errors
    ///
    /// A chunk read or decode error of a streamed source.
    fn scan(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError>;

    /// [`scan`](TraceSource::scan) with the windows in descending order
    /// (backward passes walk each window's indices in reverse).
    ///
    /// # Errors
    ///
    /// As [`TraceSource::scan`].
    fn scan_rev(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError>;

    /// The [`segment_content_hash`](crate::segment_content_hash) of the
    /// rows `[lo, hi)` when the source already stores it.
    fn stored_hash(&self, _lo: usize, _hi: usize) -> Option<[u64; 2]> {
        None
    }

    /// The [`segment_content_hash`](crate::segment_content_hash) of the
    /// rows `[lo, hi)`: the stored one if there is one, else hashed from
    /// a scan.
    ///
    /// # Errors
    ///
    /// As [`TraceSource::scan`].
    fn content_hash(&mut self, lo: usize, hi: usize) -> Result<[u64; 2], TraceIoError> {
        if let Some(h) = self.stored_hash(lo, hi) {
            return Ok(h);
        }
        let mut h = ContentHasher::new();
        self.scan(lo, hi, |cur| h.fold_cursor(cur))?;
        Ok(h.finish((hi - lo) as u64))
    }

    /// The whole trace, when it is resident: passes that can split the
    /// rows across threads do so only then.
    fn resident(&self) -> Option<&Trace> {
        None
    }
}

impl TraceSource for &Trace {
    fn len(&self) -> usize {
        Trace::len(self)
    }

    fn functions(&self) -> &FunctionRegistry {
        Trace::functions(self)
    }

    fn threads(&self) -> &ThreadTable {
        Trace::threads(self)
    }

    fn markers(&self) -> &[MarkerRecord] {
        Trace::markers(self)
    }

    fn scan(
        &mut self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        f(&self.columns().cursor(lo, hi));
        Ok(())
    }

    fn scan_rev(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        self.scan(lo, hi, f)
    }

    fn resident(&self) -> Option<&Trace> {
        Some(self)
    }
}

impl<R: Read + Seek> TraceSource for TraceReader<R> {
    fn len(&self) -> usize {
        TraceReader::len(self)
    }

    fn functions(&self) -> &FunctionRegistry {
        TraceReader::functions(self)
    }

    fn threads(&self) -> &ThreadTable {
        TraceReader::threads(self)
    }

    fn markers(&self) -> &[MarkerRecord] {
        TraceReader::markers(self)
    }

    fn decode_mask(&self) -> ColumnMask {
        TraceReader::decode_mask(self)
    }

    fn set_decode_mask(&mut self, mask: ColumnMask) {
        TraceReader::set_decode_mask(self, mask);
    }

    fn decode_stats(&self) -> DecodeStats {
        TraceReader::decode_stats(self)
    }

    fn scan(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        self.stream_range(lo, hi, f)
    }

    fn scan_rev(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        self.stream_range_rev(lo, hi, f)
    }

    /// A range that is exactly one disk chunk has its hash in the footer,
    /// which the reader checks against the rows on decode.
    fn stored_hash(&self, lo: usize, hi: usize) -> Option<[u64; 2]> {
        let meta = self.chunk_meta(self.chunk_of(lo));
        let whole = meta.first_instr == lo as u64 && meta.n_instr == (hi - lo) as u64;
        whole.then_some(meta.content_hash)
    }
}
