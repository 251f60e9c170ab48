//! Pluggable record consumers: memory, stderr, JSON-Lines and Chrome
//! trace-event sinks.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::record::Record;

/// A consumer of observability [`Record`]s.
///
/// Sinks must be cheap and non-blocking-ish: they are invoked inline
/// from instrumented code (only when the active filter enables the
/// record, so the disabled path never reaches a sink).
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn record(&self, record: &Record);

    /// Flushes buffered output (files, trace JSON). Default: no-op.
    fn flush(&self) {}
}

/// Collects records in memory; the backbone of tests and of report
/// post-processing.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of everything recorded so far.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Drains and returns everything recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().expect("memory sink poisoned"))
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, record: &Record) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

/// Human-readable tree logger on stderr.
///
/// Spans print as an indented open/close pair with wall time; events
/// print at their span's depth with level and fields:
///
/// ```text
///   12.301ms INFO qdi_core::flow > place_and_route strategy=flat
///   14.552ms WARN qdi_pnr::criterion | criterion alert net=ack.1 d_a=0.2100
///   89.120ms INFO qdi_core::flow < place_and_route (76.819ms)
/// ```
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    /// A new stderr logger.
    #[must_use]
    pub fn new() -> StderrSink {
        StderrSink
    }
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn ms(ts_us: u64) -> f64 {
    ts_us as f64 / 1e3
}

impl Sink for StderrSink {
    fn record(&self, record: &Record) {
        let line = match record {
            Record::SpanOpen {
                depth,
                target,
                name,
                fields,
                ts_us,
                ..
            } => format!(
                "{:>10.3}ms {:5} {} {}> {}{}",
                ms(*ts_us),
                "SPAN",
                target,
                indent(*depth),
                name,
                Record::fields_pretty(fields),
            ),
            Record::SpanClose {
                depth,
                target,
                name,
                fields,
                ts_us,
                dur_us,
                ..
            } => format!(
                "{:>10.3}ms {:5} {} {}< {} ({:.3}ms){}",
                ms(ts_us + dur_us),
                "SPAN",
                target,
                indent(*depth),
                name,
                *dur_us as f64 / 1e3,
                Record::fields_pretty(fields),
            ),
            Record::Event {
                level,
                target,
                message,
                fields,
                depth,
                ts_us,
                ..
            } => format!(
                "{:>10.3}ms {:5} {} {}| {}{}",
                ms(*ts_us),
                level.label(),
                target,
                indent(*depth),
                message,
                Record::fields_pretty(fields),
            ),
        };
        eprintln!("{line}");
    }
}

/// Streams every record as one JSON object per line (JSON-Lines).
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("path", &self.path)
            .finish()
    }
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The file this sink writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn record(&self, record: &Record) {
        let Ok(line) = serde_json::to_string(record) else {
            return;
        };
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    /// Flushes the buffered tail so aborted runs (early `FlowError`
    /// returns, panics that unwind) keep their last records.
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Accumulates spans as Chrome trace-event "X" (complete) entries and
/// events as "i" (instant) entries; [`Sink::flush`] writes a JSON file
/// loadable in `chrome://tracing` or Perfetto.
pub struct ChromeTraceSink {
    path: PathBuf,
    entries: Mutex<Vec<String>>,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("path", &self.path)
            .finish()
    }
}

impl ChromeTraceSink {
    /// A trace profile that will be written to `path` on flush.
    #[must_use]
    pub fn new(path: impl AsRef<Path>) -> ChromeTraceSink {
        ChromeTraceSink {
            path: path.as_ref().to_path_buf(),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The file the profile is written to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for ChromeTraceSink {
    fn record(&self, record: &Record) {
        let pid = std::process::id();
        let entry = match record {
            // Spans become complete events at close, when the duration
            // is known; opens carry no extra information for the profile.
            Record::SpanOpen { .. } => return,
            Record::SpanClose {
                target,
                name,
                fields,
                ts_us,
                dur_us,
                thread,
                ..
            } => crate::json::chrome_complete(pid, *thread, target, name, fields, *ts_us, *dur_us),
            Record::Event {
                level,
                target,
                message,
                fields,
                ts_us,
                thread,
                ..
            } => crate::json::chrome_instant(pid, *thread, target, *level, message, fields, *ts_us),
        };
        self.entries
            .lock()
            .expect("chrome sink poisoned")
            .push(entry);
    }

    fn flush(&self) {
        let entries = self.entries.lock().expect("chrome sink poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, entry) in entries.iter().enumerate() {
            out.push_str(entry);
            if i + 1 < entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        let _ = std::fs::write(&self.path, out);
    }
}

impl Drop for ChromeTraceSink {
    /// Writes the accumulated profile; without this, a run that never
    /// reached an explicit [`crate::flush`] would lose the entire trace.
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_record() -> Record {
        Record::SpanClose {
            id: 1,
            depth: 0,
            target: "obs.test".into(),
            name: "drop".into(),
            fields: vec![],
            ts_us: 0,
            dur_us: 42,
            thread: 0,
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join("qdi_obs_jsonl_drop_test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&close_record());
            // No explicit flush: dropping the sink must persist the line.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"drop\""), "buffered record survived drop");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chrome_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join("qdi_obs_chrome_drop_test.json");
        {
            let sink = ChromeTraceSink::new(&path);
            sink.record(&close_record());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"drop\""), "profile written on drop");
        let _ = std::fs::remove_file(&path);
    }
}
