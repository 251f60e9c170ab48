//! Distributed tracing: W3C-traceparent-style context propagation and
//! durable span records that survive process boundaries.
//!
//! A [`crate::span()`] joins a trace through
//! [`crate::SpanBuilder::traced`], and is then also written as a
//! [`SpanRecord`] when it closes. This module holds the cross-process
//! side the campaign server needs:
//!
//! * [`TraceContext`] — a 128-bit trace id + 64-bit span id + flags,
//!   rendered to and parsed from the W3C `traceparent` header shape
//!   (`00-<32 hex>-<16 hex>-<2 hex>`), so `qdi-client` can mint a
//!   context and the HTTP edge can continue it.
//! * [`SpanRecord`] — a serializable span (service, name, UNIX-epoch
//!   timestamps, attributes, point events, parent and [`SpanLink`]s)
//!   written as JSON Lines by a process-global [`set_writer`]. Links
//!   carry a `kind` so a job resumed after `kill -9` can point its new
//!   lease span at the pre-crash one (`kind = "resume"`) without
//!   pretending the dead process was its parent.
//!
//! Timestamps are UNIX-epoch microseconds (not the process-local
//! [`crate::now_us`] clock) precisely so spans from different processes
//! — client, first server, restarted server — line up on one axis.
//!
//! Ids are minted from a SplitMix64 finalizer over wall clock, pid and
//! the crate's span-id counter: no `rand` dependency, negligible
//! collision odds for the fleet sizes involved, and never zero (the
//! W3C invalid value).

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};
use std::time::SystemTime;

use serde::{Deserialize, Serialize};

use crate::record::Fields;

/// Trace flags: the context was sampled (always set by [`mint`]).
pub const FLAG_SAMPLED: u8 = 0x01;

/// Link kind connecting a resumed job's lease span to the lease span
/// that was interrupted (crash, drain or fair-share requeue).
pub const LINK_RESUME: &str = "resume";

// ---------------------------------------------------------------------------
// Ids and context
// ---------------------------------------------------------------------------

/// A 128-bit trace id, never zero. Renders as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

/// A 64-bit span id, never zero. Renders as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for TraceId {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceId, String> {
        if s.len() != 32 {
            return Err(format!("trace id must be 32 hex digits, got `{s}`"));
        }
        let v = u128::from_str_radix(s, 16).map_err(|e| format!("bad trace id `{s}`: {e}"))?;
        if v == 0 {
            return Err("trace id must not be zero".to_string());
        }
        Ok(TraceId(v))
    }
}

impl std::str::FromStr for SpanId {
    type Err = String;

    fn from_str(s: &str) -> Result<SpanId, String> {
        if s.len() != 16 {
            return Err(format!("span id must be 16 hex digits, got `{s}`"));
        }
        let v = u64::from_str_radix(s, 16).map_err(|e| format!("bad span id `{s}`: {e}"))?;
        if v == 0 {
            return Err("span id must not be zero".to_string());
        }
        Ok(SpanId(v))
    }
}

/// The propagated slice of a trace: which trace, which span is the
/// current parent, and the option flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span in this request chain shares.
    pub trace_id: TraceId,
    /// The caller's span: the parent of whatever span is opened next.
    pub span_id: SpanId,
    /// W3C trace flags ([`FLAG_SAMPLED`] is bit 0).
    pub flags: u8,
}

impl TraceContext {
    /// Renders the context in the W3C `traceparent` header format,
    /// version 00: `00-<trace id>-<span id>-<flags>`.
    #[must_use]
    pub fn to_traceparent(&self) -> String {
        format!("00-{}-{}-{:02x}", self.trace_id, self.span_id, self.flags)
    }

    /// Parses a `traceparent` header value. Only version `00` is
    /// accepted; all-zero ids are rejected per the W3C spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn parse_traceparent(header: &str) -> Result<TraceContext, String> {
        let mut parts = header.trim().split('-');
        let version = parts.next().unwrap_or("");
        if version != "00" {
            return Err(format!("unsupported traceparent version `{version}`"));
        }
        let trace_id: TraceId = parts
            .next()
            .ok_or("traceparent missing trace id")?
            .parse()?;
        let span_id: SpanId = parts.next().ok_or("traceparent missing span id")?.parse()?;
        let flags_hex = parts.next().ok_or("traceparent missing flags")?;
        if flags_hex.len() != 2 {
            return Err(format!(
                "trace flags must be 2 hex digits, got `{flags_hex}`"
            ));
        }
        let flags =
            u8::from_str_radix(flags_hex, 16).map_err(|e| format!("bad trace flags: {e}"))?;
        if parts.next().is_some() {
            return Err("trailing fields after trace flags".to_string());
        }
        Ok(TraceContext {
            trace_id,
            span_id,
            flags,
        })
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn entropy_word() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
        .unwrap_or(0);
    let salt = crate::NEXT_ID.fetch_add(1, Ordering::Relaxed);
    mix64(
        nanos
            ^ u64::from(std::process::id()).rotate_left(32)
            ^ salt.wrapping_mul(0xa076_1d64_78bd_642f),
    )
}

/// Mints a fresh non-zero span id.
#[must_use]
pub fn new_span_id() -> SpanId {
    loop {
        let v = entropy_word();
        if v != 0 {
            return SpanId(v);
        }
    }
}

/// Mints a fresh non-zero 128-bit trace id.
#[must_use]
pub fn new_trace_id() -> TraceId {
    loop {
        let v = (u128::from(entropy_word()) << 64) | u128::from(entropy_word());
        if v != 0 {
            return TraceId(v);
        }
    }
}

/// Mints a brand-new sampled context (fresh trace, fresh span).
#[must_use]
pub fn mint() -> TraceContext {
    TraceContext {
        trace_id: new_trace_id(),
        span_id: new_span_id(),
        flags: FLAG_SAMPLED,
    }
}

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

/// A causal link to a span in the same or another trace. Unlike a
/// parent, a link does not imply the linked span encloses this one —
/// it records "continues the work of" (see [`LINK_RESUME`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanLink {
    /// Linked trace id, 32 hex digits.
    pub trace_id: String,
    /// Linked span id, 16 hex digits.
    pub span_id: String,
    /// Why the link exists, e.g. [`LINK_RESUME`].
    pub kind: String,
}

/// A point-in-time event on a span (chunk completed, yield, requeue).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// UNIX-epoch microseconds of the event.
    pub ts_us: u64,
    /// Event name, e.g. `sched.yield`.
    pub name: String,
    /// `key = value` attachments.
    #[serde(default)]
    pub attrs: Vec<(String, String)>,
}

/// One finished span, as persisted to the span JSONL file. Ids are hex
/// strings so records stay greppable and schema-stable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace id, 32 hex digits.
    pub trace_id: String,
    /// This span's id, 16 hex digits.
    pub span_id: String,
    /// Enclosing span id within the same trace, when there is one.
    #[serde(default)]
    pub parent_id: Option<String>,
    /// Causal links ([`SpanLink`]) to spans this one continues.
    #[serde(default)]
    pub links: Vec<SpanLink>,
    /// Emitting service, e.g. `qdi-client`, `qdi-serve`.
    pub service: String,
    /// Span name, e.g. `POST /v1/jobs` or `lease`.
    pub name: String,
    /// UNIX-epoch microseconds at span start (cross-process axis).
    pub start_unix_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// `key = value` attachments.
    #[serde(default)]
    pub attrs: Vec<(String, String)>,
    /// Point events that happened inside the span.
    #[serde(default)]
    pub events: Vec<SpanEvent>,
}

pub(crate) fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The W3C side of a traced [`crate::SpanGuard`]: its context, and
/// the [`SpanRecord`] it is written as when it closes (on any exit
/// path, early returns and panics included).
#[derive(Debug)]
pub(crate) struct TracedSpan {
    pub(crate) ctx: TraceContext,
    pub(crate) record: SpanRecord,
}

impl TracedSpan {
    /// A span under `parent`, or the root of a fresh trace.
    pub(crate) fn new(parent: Option<&TraceContext>) -> TracedSpan {
        let ctx = TraceContext {
            trace_id: parent.map_or_else(new_trace_id, |p| p.trace_id),
            span_id: new_span_id(),
            flags: FLAG_SAMPLED,
        };
        let record = SpanRecord {
            trace_id: ctx.trace_id.to_string(),
            span_id: ctx.span_id.to_string(),
            parent_id: parent.map(|p| p.span_id.to_string()),
            start_unix_us: unix_us(),
            ..SpanRecord::default()
        };
        TracedSpan { ctx, record }
    }

    /// Writes the finished span through the global writer. The service
    /// is the target's crate in its package spelling
    /// (`qdi_serve::runner` → `qdi-serve`); fields become attributes.
    pub(crate) fn write(mut self, target: &str, name: &str, fields: &Fields, dur_us: u64) {
        let crate_name = target.split("::").next().unwrap_or(target);
        self.record.service = crate_name.replace('_', "-");
        self.record.name = name.to_string();
        self.record.dur_us = dur_us;
        self.record.attrs = fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        write_record(&self.record);
    }
}

// ---------------------------------------------------------------------------
// The process-global span writer
// ---------------------------------------------------------------------------

fn writer_slot() -> &'static Mutex<Option<PathBuf>> {
    static WRITER: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    WRITER.get_or_init(|| Mutex::new(None))
}

/// Routes every finished span to `path` as appended JSON Lines. The
/// parent directory is created eagerly so the first span cannot race a
/// missing directory. Appends are one `write` per record, so a crashed
/// process tears at most the final line (readers skip torn lines).
pub fn set_writer(path: impl Into<PathBuf>) {
    let path = path.into();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    *writer_slot().lock().expect("trace writer poisoned") = Some(path);
}

/// The current span writer path, when one is installed.
#[must_use]
pub fn writer_path() -> Option<PathBuf> {
    writer_slot().lock().expect("trace writer poisoned").clone()
}

/// Installs the writer from the `QDI_TRACE` environment variable when
/// set and no writer is installed yet (binaries call this once).
pub fn init_from_env() {
    if writer_path().is_some() {
        return;
    }
    if let Ok(path) = std::env::var("QDI_TRACE") {
        if !path.is_empty() {
            set_writer(path);
        }
    }
}

/// Appends one span record to the installed writer (no-op without
/// one). IO errors are swallowed: tracing must never take down the
/// traced service.
pub fn write_record(record: &SpanRecord) {
    let Some(path) = writer_path() else {
        return;
    };
    let Ok(json) = serde_json::to_string(record) else {
        return;
    };
    use std::io::Write;
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = file.write_all(format!("{json}\n").as_bytes());
    }
}

/// Reads span records back from a JSONL file, skipping lines that do
/// not parse (a `kill -9` can tear the final line mid-write; that must
/// not hide every span written before it).
///
/// # Errors
///
/// Returns a description when the file itself cannot be read.
pub fn read_spans(path: &Path) -> Result<Vec<SpanRecord>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| serde_json::from_str::<SpanRecord>(line).ok())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = mint();
        let header = ctx.to_traceparent();
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let parsed = TraceContext::parse_traceparent(&header).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn traceparent_accepts_the_w3c_example() {
        let ctx = TraceContext::parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        )
        .unwrap();
        assert_eq!(ctx.trace_id.to_string(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(ctx.span_id.to_string(), "00f067aa0ba902b7");
        assert_eq!(ctx.flags, FLAG_SAMPLED);
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "00",
            "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0z",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_err(),
                "must reject `{bad}`"
            );
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint();
        let b = mint();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        assert_ne!(a.trace_id.0, 0);
        assert_ne!(a.span_id.0, 0);
    }

    #[test]
    fn spans_nest_link_and_round_trip_through_jsonl() {
        let dir = std::env::temp_dir().join(format!("qdi_obs_trace_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("spans.jsonl");
        set_writer(&path);

        let mut root = crate::span("qdi_client", "submit").traced(None).enter();
        root.record("job", "j000001");
        let ctx = root.context().expect("traced span has a context");
        let mut child = crate::span("qdi_serve::server", "POST /v1/jobs")
            .traced(Some(&ctx))
            .enter();
        child.add_event("sched.enqueue", &[("tenant", "alice".to_string())]);
        let prior = mint();
        child.add_link(&prior, LINK_RESUME);
        let child_ctx = child.context().expect("traced span has a context");
        drop(child);
        drop(root);

        // Other tests share the global writer; judge only our trace.
        let ours = |spans: &[SpanRecord]| -> Vec<SpanRecord> {
            spans
                .iter()
                .filter(|s| s.trace_id == ctx.trace_id.to_string())
                .cloned()
                .collect()
        };
        let read = ours(&read_spans(&path).unwrap());
        assert_eq!(read.len(), 2);
        let (child_rec, root_rec) = (&read[0], &read[1]);
        assert_eq!(child_rec.span_id, child_ctx.span_id.to_string());
        assert_eq!(root_rec.span_id, ctx.span_id.to_string());
        assert_eq!(
            (root_rec.service.as_str(), root_rec.name.as_str()),
            ("qdi-client", "submit")
        );
        assert_eq!(
            root_rec.attrs,
            vec![("job".to_string(), "j000001".to_string())]
        );
        assert_eq!(root_rec.parent_id, None);
        assert_eq!(child_rec.service, "qdi-serve");
        assert_eq!(
            child_rec.parent_id.as_deref(),
            Some(root_rec.span_id.as_str())
        );
        assert_eq!(child_rec.links[0].kind, LINK_RESUME);
        assert_eq!(child_rec.links[0].span_id, prior.span_id.to_string());
        assert_eq!(child_rec.events[0].name, "sched.enqueue");

        // A torn final line (kill -9 mid-append) hides only itself.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"trace_id\":\"torn").unwrap();
        drop(f);
        assert_eq!(ours(&read_spans(&path).unwrap()).len(), 2);

        *writer_slot().lock().unwrap() = None;
        std::fs::remove_dir_all(&dir).ok();
    }
}
