//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call into a wasteprof layer: name, start, end, parent span, the
//! operation they belong to (one site profile or one frame), and the peak
//! resident-set growth over the call. Nothing is written while the run is
//! measuring; [`Tracer::chrome_trace`] exports everything at the end
//! as Chrome trace-event JSON, which Perfetto and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
pub struct Span {
    /// Layer-qualified call name, e.g. `slicer.slice`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Operation id (one site profile or one frame); 0 outside operations.
    pub op: u64,
    /// Measurement pass (one sweep over the site set, or one round of frames).
    pub pass: usize,
    /// Peak RSS during the span minus RSS at its start, in MiB.
    pub rss_mb: f64,
}

impl Span {
    /// Wall duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// One sample of a named group of counters.
struct CounterSample {
    name: &'static str,
    ts_us: f64,
    values: Vec<(&'static str, f64)>,
}

struct Open {
    idx: usize,
    rss_kb: u64,
    child_peak_kb: u64,
}

/// Records spans while enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
    open: Vec<Open>,
    op: u64,
    pass: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; only between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Closes the spans a panic left open, at the current time.
    pub fn recover(&mut self) {
        let now = self.now_us();
        for open in self.open.drain(..) {
            self.spans[open.idx].end_us = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name` (just runs it when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map(|o| o.idx);
        // Reset the kernel's high-water mark so the peak seen at the end
        // belongs to this span; the enclosing span keeps the peak it
        // reached so far, and children report their peaks upward.
        if let Some(up) = self.open.last_mut() {
            up.child_peak_kb = up.child_peak_kb.max(status_kb("VmHWM:"));
        }
        reset_peak_rss();
        self.open.push(Open {
            idx,
            rss_kb: status_kb("VmRSS:"),
            child_peak_kb: 0,
        });
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent,
            op: self.op,
            pass: self.pass,
            rss_mb: 0.0,
        });
        let out = f(self);
        let end_us = self.now_us();
        let open = self.open.pop().expect("span stack is balanced");
        let peak_kb = status_kb("VmHWM:").max(open.child_peak_kb);
        if let Some(up) = self.open.last_mut() {
            up.child_peak_kb = up.child_peak_kb.max(peak_kb);
        }
        let span = &mut self.spans[idx];
        span.end_us = end_us;
        span.rss_mb = peak_kb.saturating_sub(open.rss_kb) as f64 / 1024.0;
        out
    }

    /// Records one sample of a counter group (dropped when disabled).
    pub fn counter(&mut self, name: &'static str, values: &[(&'static str, f64)]) {
        if self.enabled {
            let ts_us = self.now_us();
            self.counters.push(CounterSample {
                name,
                ts_us,
                values: values.to_vec(),
            });
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Time of `span` not covered by its child spans, in milliseconds.
    /// Children run one after another on this thread, so their durations
    /// add up to the part of the parent they cover.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Per-name table of calls, total and self time, sorted by self time.
    pub fn self_time_table(&self) -> String {
        let own = self.self_ms();
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ms();
            row.2 += own;
        }
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<24} {:>7} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in rows {
            let _ = writeln!(out, "{name:<24} {calls:>7} {total:>12.1} {own:>12.1}");
        }
        out
    }

    /// Chrome trace-event JSON of every span ("X" events) and counter
    /// sample ("C" events); `other` lands in the `otherData` block.
    pub fn chrome_trace(&self, other: &[(String, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
        for (i, (k, v)) in other.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("},\n\"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let cat = s.name.split('.').next().unwrap_or("bench");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"op\": {}, \"pass\": {}, \"rss_mb\": {:.3}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.op,
                s.pass,
                s.rss_mb
            );
        }
        for c in &self.counters {
            sep(&mut out);
            let args: Vec<String> = c
                .values
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"args\": {{{}}}}}",
                c.name,
                c.ts_us,
                args.join(", ")
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// JSON string escaping for the few free-text fields (CPU model, paths).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`); 0 if absent.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns false where `/proc/self/clear_refs` is not writable, in which
/// case peaks cover the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
