//! Assembling HTML reports from a recorded run.
//!
//! A run leaves up to three files next to each other (the flow's
//! telemetry JSONL plus the optional sidecars `examples/secure_flow.rs`
//! writes):
//!
//! ```text
//! secure_flow.telemetry.jsonl    span/event records (one JSON per line)
//! secure_flow.timeseries.json    TimeseriesSnapshot (ring buffers)
//! secure_flow.metrics.json       MetricsSnapshot (final readings)
//! ```
//!
//! [`build`] stitches whatever subset exists into one self-contained
//! HTML page; unreadable JSONL lines are skipped (and counted) rather
//! than failing the report, so a truncated run still renders.

use std::path::{Path, PathBuf};

use qdi_obs::html::{self, ReportInputs, SpanRow};
use qdi_obs::metrics::MetricsSnapshot;
use qdi_obs::record::Record;
use qdi_obs::timeseries::TimeseriesSnapshot;

/// Telemetry records parsed from a JSONL file.
#[derive(Debug, Default)]
pub struct LoadedRecords {
    /// Successfully parsed records, in file order.
    pub records: Vec<Record>,
    /// Lines that failed to parse (torn tail of an aborted run).
    pub skipped: usize,
}

/// Parses a telemetry JSONL file, skipping unparseable lines.
///
/// # Errors
///
/// Returns a description when the file itself is unreadable.
pub fn load_records(path: &Path) -> Result<LoadedRecords, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = LoadedRecords::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<Record>(line) {
            Ok(record) => out.records.push(record),
            Err(_) => out.skipped += 1,
        }
    }
    Ok(out)
}

/// The sibling path `<base>.<suffix>` where `<base>` is the file name
/// up to its first dot (`secure_flow.telemetry.jsonl` →
/// `secure_flow.timeseries.json` for suffix `timeseries.json`).
#[must_use]
pub fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .map_or("run", |n| n.split('.').next().unwrap_or("run"));
    path.with_file_name(format!("{stem}.{suffix}"))
}

fn load_timeseries(path: &Path) -> Option<TimeseriesSnapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn load_metrics(path: &Path) -> Option<MetricsSnapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut snap: MetricsSnapshot = serde_json::from_str(&text).ok()?;
    // External JSON carries no ordering guarantee; restore the invariant.
    snap.normalize();
    Some(snap)
}

/// Builds the self-contained HTML report for a recorded run.
///
/// # Errors
///
/// Returns a description when the telemetry file is unreadable.
pub fn build(telemetry: &Path, top: usize, title: &str) -> Result<String, String> {
    let loaded = load_records(telemetry)?;
    let spans: Vec<SpanRow> = html::slowest_spans(&loaded.records, top);
    let timeseries = load_timeseries(&sidecar(telemetry, "timeseries.json"));
    let metrics = load_metrics(&sidecar(telemetry, "metrics.json"));

    let span_closes = loaded
        .records
        .iter()
        .filter(|r| matches!(r, Record::SpanClose { .. }))
        .count();
    let events = loaded
        .records
        .iter()
        .filter(|r| matches!(r, Record::Event { .. }))
        .count();
    let mut summary = vec![
        ("telemetry".to_string(), telemetry.display().to_string()),
        ("records".to_string(), loaded.records.len().to_string()),
        ("span closes".to_string(), span_closes.to_string()),
        ("events".to_string(), events.to_string()),
    ];
    if loaded.skipped > 0 {
        summary.push(("skipped lines".to_string(), loaded.skipped.to_string()));
    }
    summary.push((
        "timeseries sidecar".to_string(),
        if timeseries.is_some() {
            "loaded"
        } else {
            "absent"
        }
        .to_string(),
    ));
    summary.push((
        "metrics sidecar".to_string(),
        if metrics.is_some() {
            "loaded"
        } else {
            "absent"
        }
        .to_string(),
    ));

    Ok(html::render(&ReportInputs {
        title,
        summary: &summary,
        timeseries: timeseries.as_ref(),
        metrics: metrics.as_ref(),
        spans: &spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn sidecar_replaces_everything_after_the_first_dot() {
        let p = Path::new("/tmp/secure_flow.telemetry.jsonl");
        assert_eq!(
            sidecar(p, "timeseries.json"),
            Path::new("/tmp/secure_flow.timeseries.json")
        );
        assert_eq!(
            sidecar(Path::new("run"), "metrics.json"),
            Path::new("run.metrics.json")
        );
    }

    #[test]
    fn report_builds_from_jsonl_with_bad_lines_skipped() {
        let jsonl = temp("qdi_mon_report_test.telemetry.jsonl");
        let mut f = std::fs::File::create(&jsonl).unwrap();
        let record = Record::SpanClose {
            id: 1,
            depth: 0,
            target: "t".into(),
            name: "campaign".into(),
            fields: vec![],
            ts_us: 0,
            dur_us: 1234,
            thread: 0,
        };
        writeln!(f, "{}", serde_json::to_string(&record).unwrap()).unwrap();
        writeln!(f, "this line is torn garba").unwrap();
        drop(f);

        let loaded = load_records(&jsonl).unwrap();
        assert_eq!(loaded.skipped, 1);

        let html = build(&jsonl, 5, "test run").unwrap();
        assert!(html.contains("test run"));
        assert!(html.contains("campaign"));
        assert!(html.contains("skipped lines"));
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn missing_telemetry_is_an_error() {
        assert!(build(Path::new("/nonexistent/x.jsonl"), 5, "t").is_err());
    }
}
