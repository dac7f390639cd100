//! Compact binary serialization of traces.
//!
//! The paper stores collected traces in stable storage and re-reads them for
//! different slicing criteria (§III-A). This module provides the same
//! workflow: [`write_trace`] / [`read_trace`] round-trip a [`Trace`] through
//! any `Write`/`Read`, using a simple little-endian format.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::addr::{Addr, AddrRange};
use crate::columns::Columns;
use crate::func::{FuncId, FunctionRegistry};
use crate::instr::{InstrKind, TracePos};
use crate::pc::Pc;
use crate::reg::RegSet;
use crate::segment::MAGIC2;
use crate::syscall::Syscall;
use crate::thread::{ThreadId, ThreadKind, ThreadTable};
use crate::trace::{MarkerRecord, Trace};

const MAGIC: &[u8; 8] = b"WPTRACE1";

/// The two on-disk trace tiers, told apart by their 8-byte magic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTier {
    /// `WPTRACE1`: one stream, read whole into memory by [`read_trace`].
    Resident,
    /// `WPTRACE2`: compressed chunks, streamed by a
    /// [`TraceReader`](crate::TraceReader).
    Chunked,
}

/// Reads which tier `r` holds from the magic at its start, then rewinds
/// `r` to the start for the tier's reader.
///
/// # Errors
///
/// [`TraceIoError::Format`] if the magic is neither tier's;
/// [`TraceIoError::Io`] if the first 8 bytes cannot be read.
pub fn trace_tier(r: &mut (impl Read + Seek)) -> Result<TraceTier, TraceIoError> {
    let mut magic = [0u8; 8];
    r.seek(SeekFrom::Start(0))?;
    r.read_exact(&mut magic)?;
    r.seek(SeekFrom::Start(0))?;
    match &magic {
        MAGIC => Ok(TraceTier::Resident),
        MAGIC2 => Ok(TraceTier::Chunked),
        _ => Err(bad("bad magic (neither WPTRACE1 nor WPTRACE2)")),
    }
}

/// Errors produced while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a wasteprof trace or is structurally corrupt.
    Format(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Format(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> TraceIoError {
    TraceIoError::Format(msg.into())
}

/// Longest symbol name either format accepts, writer- and reader-side.
pub(crate) const MAX_NAME_LEN: usize = 1 << 20;

/// Checked narrowing for header count fields: a count that does not fit
/// its wire field is a loud [`TraceIoError::Format`], never a silent
/// truncation.
pub(crate) fn count_u32(n: usize, what: &str) -> Result<u32, TraceIoError> {
    u32::try_from(n).map_err(|_| bad(format!("{what} count {n} exceeds the u32 wire field")))
}

/// Checked narrowing for per-instruction operand counts.
fn count_u16(n: usize, what: &str) -> Result<u16, TraceIoError> {
    u16::try_from(n).map_err(|_| bad(format!("{what} count {n} exceeds the u16 wire field")))
}

// ----- primitive writers/readers ---------------------------------------

fn w_u8(w: &mut impl Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}
fn w_u16(w: &mut impl Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn w_str(w: &mut impl Write, s: &str) -> Result<(), TraceIoError> {
    if s.len() > MAX_NAME_LEN {
        return Err(bad(format!("symbol name of {} bytes too long", s.len())));
    }
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}
fn w_range(w: &mut impl Write, r: AddrRange) -> io::Result<()> {
    w_u64(w, r.start().raw())?;
    w_u32(w, r.len())
}

fn r_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
fn r_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_str(r: &mut impl Read) -> Result<String, TraceIoError> {
    let len = r_u32(r)? as usize;
    if len > MAX_NAME_LEN {
        return Err(bad("string too long"));
    }
    // Grow with the bytes that actually arrive instead of pre-allocating
    // from the (possibly corrupt) length field: `take` caps the read, and
    // a short stream is a truncation (`Io`), not an allocation.
    let mut buf = Vec::new();
    let got = r.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if got != len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated string").into());
    }
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8 in symbol name"))
}
fn r_range(r: &mut impl Read) -> Result<AddrRange, TraceIoError> {
    let start = r_u64(r)?;
    let len = r_u32(r)?;
    if len == 0 {
        return Err(bad("zero-length memory operand"));
    }
    Ok(AddrRange::new(Addr::new(start), len))
}

// ----- trace encoding ----------------------------------------------------

pub(crate) fn thread_kind_tag(kind: ThreadKind) -> (u8, u8) {
    match kind {
        ThreadKind::Main => (0, 0),
        ThreadKind::Compositor => (1, 0),
        ThreadKind::Raster(i) => (2, i),
        ThreadKind::Io => (3, 0),
        ThreadKind::Other => (4, 0),
    }
}

pub(crate) fn thread_kind_from(tag: u8, payload: u8) -> Result<ThreadKind, TraceIoError> {
    Ok(match tag {
        0 => ThreadKind::Main,
        1 => ThreadKind::Compositor,
        2 => ThreadKind::Raster(payload),
        3 => ThreadKind::Io,
        4 => ThreadKind::Other,
        _ => return Err(bad(format!("unknown thread kind tag {tag}"))),
    })
}

/// Serializes `trace` to `w`.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if writing fails, or
/// [`TraceIoError::Format`] if a table or operand count does not fit its
/// wire field (the format never silently truncates a count).
pub fn write_trace(w: &mut impl Write, trace: &Trace) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;

    w_u32(w, count_u32(trace.functions().len(), "function")?)?;
    for (_, info) in trace.functions().iter() {
        w_str(w, info.name())?;
    }

    w_u32(w, count_u32(trace.threads().len(), "thread")?)?;
    for t in trace.threads().iter() {
        let (tag, payload) = thread_kind_tag(t.kind());
        w_u8(w, tag)?;
        w_u8(w, payload)?;
    }

    w_u32(w, count_u32(trace.markers().len(), "marker")?)?;
    for m in trace.markers() {
        w_u64(w, m.pos.0)?;
        w_range(w, m.tile)?;
    }

    w_u64(w, trace.len() as u64)?;
    let cols = trace.columns();
    for idx in 0..cols.len() {
        let kind = cols.kind(idx);
        w_u8(w, cols.tid(idx).0)?;
        w_u8(w, crate::columns::kind_to_tag(kind).0)?;
        w_u32(w, cols.func(idx).0)?;
        w_u32(w, cols.pc(idx).0)?;
        w_u16(w, cols.reg_reads(idx).bits())?;
        w_u16(w, cols.reg_writes(idx).bits())?;
        match kind {
            InstrKind::Branch { taken } => w_u8(w, taken as u8)?,
            InstrKind::Call { callee } => w_u32(w, callee.0)?,
            InstrKind::Syscall { nr } => w_u32(w, nr.number())?,

            _ => {}
        }
        let reads = cols.mem_reads(idx);
        let writes = cols.mem_writes(idx);
        // u16 counts: the columns enforce this on push, but the format must
        // not panic or silently truncate if that ever changed.
        w_u16(w, count_u16(reads.len(), "memory read operand")?)?;
        w_u16(w, count_u16(writes.len(), "memory write operand")?)?;
        for r in reads {
            w_range(w, *r)?;
        }
        for r in writes {
            w_range(w, *r)?;
        }
    }
    Ok(())
}

/// Deserializes a trace from `r`.
///
/// # Errors
///
/// Returns [`TraceIoError::Format`] if the input is not a valid trace file,
/// or [`TraceIoError::Io`] on read failure.
pub fn read_trace(r: &mut impl Read) -> Result<Trace, TraceIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }

    let nfuncs = r_u32(r)?;
    let mut funcs = FunctionRegistry::new();
    for _ in 0..nfuncs {
        let name = r_str(r)?;
        funcs.intern(&name);
    }

    let nthreads = r_u32(r)?;
    // ThreadTable holds at most 256 threads; a larger count is a corrupt
    // header and must be an error, not a register() panic.
    if nthreads > 256 {
        return Err(bad("thread count exceeds 256"));
    }
    let mut threads = ThreadTable::new();
    for _ in 0..nthreads {
        let tag = r_u8(r)?;
        let payload = r_u8(r)?;
        threads.register(thread_kind_from(tag, payload)?);
    }

    let nmarkers = r_u32(r)?;
    // No pre-allocation from the count field: each record costs 20 stream
    // bytes, so the vector can only grow as far as the input actually goes.
    let mut markers = Vec::new();
    for _ in 0..nmarkers {
        let pos = TracePos(r_u64(r)?);
        let tile = r_range(r)?;
        markers.push(MarkerRecord { pos, tile });
    }

    let ninstrs = r_u64(r)?;
    // Never trust a length field with the allocator: the columns grow as
    // bytes actually arrive. The two operand buffers are reused across
    // instructions — reading allocates no more than recording does.
    let mut cols = Columns::default();
    let mut reads: Vec<AddrRange> = Vec::new();
    let mut writes: Vec<AddrRange> = Vec::new();
    for _ in 0..ninstrs {
        let tid = ThreadId(r_u8(r)?);
        let tag = r_u8(r)?;
        let func = FuncId(r_u32(r)?);
        let pc = Pc(r_u32(r)?);
        let reg_reads = RegSet::from_bits(r_u16(r)?);
        let reg_writes = RegSet::from_bits(r_u16(r)?);
        let kind = match tag {
            0 => InstrKind::Op,
            1 => InstrKind::Load,
            2 => InstrKind::Store,
            3 => InstrKind::Branch {
                taken: r_u8(r)? != 0,
            },
            4 => InstrKind::Call {
                callee: FuncId(r_u32(r)?),
            },
            5 => InstrKind::Ret,
            6 => {
                let nr = r_u32(r)?;
                InstrKind::Syscall {
                    nr: Syscall::from_number(nr)
                        .ok_or_else(|| bad(format!("unknown syscall {nr}")))?,
                }
            }
            7 => InstrKind::Marker,
            _ => return Err(bad(format!("unknown instr tag {tag}"))),
        };
        let nreads = r_u16(r)? as usize;
        let nwrites = r_u16(r)? as usize;
        reads.clear();
        for _ in 0..nreads {
            reads.push(r_range(r)?);
        }
        writes.clear();
        for _ in 0..nwrites {
            writes.push(r_range(r)?);
        }
        cols.push(tid, func, pc, kind, reg_reads, reg_writes, &reads, &writes);
    }

    let trace = Trace::from_columns(cols, funcs, threads, markers);
    trace.validate().map_err(bad)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::site;
    use crate::Region;

    fn sample() -> Trace {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        rec.spawn_thread(ThreadKind::Raster(0), "cc::RasterMain");
        rec.switch_to(ThreadId::MAIN);
        let f = rec.intern_func("blink::Parse");
        let cell = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 128);
        rec.in_func(site!(), f, |rec| {
            rec.compute(site!(), &[cell.into()], &[tile]);
            rec.branch_mem(site!(), cell, true);
            rec.syscall(site!(), Syscall::Writev, &[cell.into()], vec![tile], vec![]);
        });
        rec.switch_to(ThreadId(1));
        rec.marker(site!(), tile);
        rec.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.markers(), t.markers());
        assert_eq!(back.functions().len(), t.functions().len());
        assert_eq!(back.threads().len(), t.threads().len());
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rejects_oversized_thread_count() {
        // magic + nfuncs=0 + nthreads=257: must be a Format error, not a
        // ThreadTable assertion failure.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"WPTRACE1");
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&257u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 2 * 257]);
        let err = read_trace(&mut buf.as_slice()).expect_err("corrupt header");
        assert!(matches!(err, TraceIoError::Format(_)), "got {err:?}");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = b"NOTATRACE".to_vec();
        buf.extend_from_slice(&[0; 64]);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
    }

    #[test]
    fn rejects_truncated_input() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn error_display_is_informative() {
        let e = bad("boom");
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn count_fields_never_truncate() {
        assert_eq!(count_u32(7, "x").unwrap(), 7);
        let err = count_u32(u32::MAX as usize + 1, "function").unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
        assert_eq!(count_u16(7, "x").unwrap(), 7);
        let err = count_u16(u16::MAX as usize + 1, "operand").unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn writer_rejects_oversized_symbol_name() {
        let name = "x".repeat(MAX_NAME_LEN + 1);
        let mut buf = Vec::new();
        let err = w_str(&mut buf, &name).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn truncated_symbol_name_is_io_not_oom() {
        // Header claims a 100-byte name but the stream carries 3 bytes:
        // the reader must report truncation, not read garbage.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"WPTRACE1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)), "{err:?}");
    }

    #[test]
    fn huge_string_length_is_rejected_without_allocating() {
        // A 4 GiB name length must be a Format error up front, never a
        // 4 GiB buffer.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"WPTRACE1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }
}
