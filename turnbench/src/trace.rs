//! Spans of a traced run: kept in memory while the run measures and
//! written as JSON lines when it ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::queues::Mode;

/// One timed interval: a sampled public call, a workload phase, a window
/// or a round.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span (0 for a round).
    pub parent: u64,
    pub name: &'static str,
    pub mode: Mode,
    /// Worker index; [`MAIN`] for spans the coordinating thread records.
    pub thread: u8,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub const MAIN: u8 = 255;

/// Id source of one thread within one window: `window << 24 |
/// thread << 16 | n`, so ids are unique within a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanIds {
    /// The window span this thread's phases belong to.
    pub window: u64,
    base: u64,
    n: u64,
}

impl SpanIds {
    pub fn new(window_index: u64, thread: u8) -> Self {
        SpanIds {
            window: window_index << 24 | u64::from(MAIN) << 16,
            base: window_index << 24 | u64::from(thread) << 16,
            n: 0,
        }
    }

    pub fn next(&mut self) -> u64 {
        self.n = (self.n + 1) & 0xFFFF;
        self.base | self.n
    }
}

/// Write `spans` as JSON lines after a `header` line; every span carries
/// the run id and names its parent.
pub fn write(path: &Path, header: &str, run: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 128 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for s in spans {
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{{\"run\":\"{run}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"mode\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.mode.name(),
            if s.thread == MAIN { -1 } else { i32::from(s.thread) },
            s.start_ns,
            s.dur_ns
        );
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.sync_all()
}
