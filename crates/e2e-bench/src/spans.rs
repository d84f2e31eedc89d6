//! Spans of the traced run, recorded by the harness around its calls
//! into the system: kept in memory while the run measures and written
//! out as one JSON file when it ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `client.encode_write`, `probe.statelog.append_ns`, ...
    pub name: String,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, same clock.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (broadcast, probe) the span belongs to.
    pub op_id: u64,
}

/// An in-memory span list with its own clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Records a finished span and returns its index (a `parent` for
    /// its children).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: crate::util::micros(start.duration_since(self.epoch)),
            end_us: crate::util::micros(end.duration_since(self.epoch)),
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path` as `{"spans":[{...},...]}`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"op_id\":{}}}{}",
                s.name,
                s.start_us,
                s.end_us,
                parent,
                s.op_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
