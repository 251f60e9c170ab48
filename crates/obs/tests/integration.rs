//! End-to-end tests of the span/event pipeline through real sinks.
//!
//! The filter and sink registry are process-global, so every test takes
//! `PIPELINE` to serialize against the others and restores the globals
//! before releasing it.

use std::sync::{Arc, Mutex};

use qdi_obs::{Filter, Level, MemorySink, Record};

static PIPELINE: Mutex<()> = Mutex::new(());

/// Installs a fresh memory sink + trace-everything filter, runs `f`,
/// restores the globals, and returns what the sink saw.
fn capture(f: impl FnOnce()) -> Vec<Record> {
    let _guard = PIPELINE.lock().expect("pipeline lock poisoned");
    let sink = Arc::new(MemorySink::new());
    qdi_obs::set_filter(Filter::parse("trace").expect("valid filter"));
    qdi_obs::set_sinks(vec![sink.clone()]);
    f();
    qdi_obs::set_sinks(Vec::new());
    qdi_obs::set_filter(Filter::off());
    sink.take()
}

#[test]
fn nested_spans_emit_ordered_parented_records() {
    let records = capture(|| {
        let mut outer = qdi_obs::span("obs_it::outer", "outer")
            .field("k", 1u64)
            .enter();
        {
            let inner = qdi_obs::span_at(Level::Debug, "obs_it::inner", "inner").enter();
            qdi_obs::info!(target: "obs_it::inner", n = 7u64, "inside inner");
            drop(inner);
        }
        outer.record("done", true);
    });

    assert_eq!(records.len(), 5, "open/open/event/close/close: {records:?}");
    let (outer_id, outer_depth) = match &records[0] {
        Record::SpanOpen {
            id,
            parent: None,
            depth,
            name,
            ..
        } if name == "outer" => (*id, *depth),
        other => panic!("expected outer SpanOpen first, got {other:?}"),
    };
    assert_eq!(outer_depth, 0);
    let inner_id = match &records[1] {
        Record::SpanOpen {
            id,
            parent,
            depth,
            name,
            ..
        } if name == "inner" => {
            assert_eq!(*parent, Some(outer_id), "inner must parent to outer");
            assert_eq!(*depth, 1);
            *id
        }
        other => panic!("expected inner SpanOpen second, got {other:?}"),
    };
    match &records[2] {
        Record::Event {
            level,
            span,
            message,
            fields,
            ..
        } => {
            assert_eq!(*level, Level::Info);
            assert_eq!(
                *span,
                Some(inner_id),
                "event must attach to the innermost span"
            );
            assert_eq!(message, "inside inner");
            assert!(fields.iter().any(|(k, _)| k == "n"));
        }
        other => panic!("expected the event third, got {other:?}"),
    }
    match &records[3] {
        Record::SpanClose { id, name, .. } => {
            assert_eq!(*id, inner_id, "inner must close before outer");
            assert_eq!(name, "inner");
        }
        other => panic!("expected inner SpanClose fourth, got {other:?}"),
    }
    match &records[4] {
        Record::SpanClose { id, fields, .. } => {
            assert_eq!(*id, outer_id);
            assert!(
                fields.iter().any(|(k, _)| k == "done"),
                "SpanGuard::record fields must reach the close record"
            );
        }
        other => panic!("expected outer SpanClose last, got {other:?}"),
    }

    // Close records carry the span's *start* timestamp (plus a duration),
    // so only the opens and the event are expected to be monotone.
    let ts: Vec<u64> = records[..3].iter().map(Record::ts_us).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(
        ts, sorted,
        "open/event records must carry monotone timestamps"
    );
}

#[test]
fn filter_downgrades_suppress_span_and_event() {
    let records = capture(|| {
        qdi_obs::set_filter(Filter::parse("warn,obs_it::loud=trace").expect("valid"));
        let quiet = qdi_obs::span_at(Level::Debug, "obs_it::quiet", "quiet").enter();
        assert!(!quiet.is_enabled());
        qdi_obs::debug!(target: "obs_it::quiet", "dropped");
        qdi_obs::debug!(target: "obs_it::loud", "kept");
        qdi_obs::warn!(target: "obs_it::quiet", "kept too");
    });
    let messages: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(messages, vec!["kept", "kept too"]);
    assert!(
        !records
            .iter()
            .any(|r| matches!(r, Record::SpanOpen { .. } | Record::SpanClose { .. })),
        "disabled span must not emit records: {records:?}"
    );
}

#[test]
fn jsonl_round_trips_every_record_kind() {
    let records = capture(|| {
        let mut span = qdi_obs::span("obs_it::rt", "round_trip")
            .field("count", 3u64)
            .field("ratio", 0.25f64)
            .field("label", "x")
            .field("ok", true)
            .enter();
        qdi_obs::warn!(target: "obs_it::rt", net = "ack.1", d_a = 0.5f64, "alert fired");
        span.record("signed", -4i64);
    });
    assert_eq!(records.len(), 3);
    for record in &records {
        let line = qdi_obs::json::record_to_json(record);
        assert!(!line.contains('\n'), "JSONL must be one line: {line}");
        let back: Record = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("reparse failed for {line}: {e:?}"));
        assert_eq!(&back, record, "JSONL round-trip must be lossless");
    }
}

/// One span, three consumers: a traced span and its child, closed with
/// the profiler on, a memory sink installed and a span writer set, must
/// tell the call tree, the `SpanClose` records and the `SpanRecord`s
/// the same story — names, parents and durations.
#[test]
fn one_span_feeds_call_tree_sinks_and_span_writer_alike() {
    let path = std::env::temp_dir().join(format!("qdi_obs_it_spans_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    qdi_obs::trace::set_writer(&path);
    qdi_obs::prof::reset();
    qdi_obs::prof::set_enabled(true);
    let mut ctx = None;
    let records = capture(|| {
        let parent = qdi_obs::span("obs_it::traced", "obs_it.parent")
            .traced(None)
            .enter();
        ctx = parent.context();
        let child = qdi_obs::span("obs_it::traced", "obs_it.child")
            .traced(ctx.as_ref())
            .enter();
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(child);
    });
    qdi_obs::prof::set_enabled(false);
    let ctx = ctx.expect("traced span has a context");

    let opens: Vec<(u64, Option<u64>, String)> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanOpen {
                id, parent, name, ..
            } => Some((*id, *parent, name.clone())),
            _ => None,
        })
        .collect();
    let closes: Vec<(u64, String, u64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanClose {
                id, name, dur_us, ..
            } => Some((*id, name.clone(), *dur_us)),
            _ => None,
        })
        .collect();
    let tree = qdi_obs::prof::report().regions;
    let spans: Vec<qdi_obs::SpanRecord> = qdi_obs::trace::read_spans(&path)
        .expect("span file readable")
        .into_iter()
        .filter(|s| s.trace_id == ctx.trace_id.to_string())
        .collect();
    assert_eq!(opens.len(), 2, "{records:?}");
    assert_eq!(closes.len(), 2, "{records:?}");
    assert_eq!(spans.len(), 2, "{spans:?}");

    for (path_in_tree, name, parent_name) in [
        ("obs_it.parent", "obs_it.parent", None),
        (
            "obs_it.parent;obs_it.child",
            "obs_it.child",
            Some("obs_it.parent"),
        ),
    ] {
        let node = tree
            .regions
            .iter()
            .find(|r| r.path == path_in_tree)
            .unwrap_or_else(|| panic!("call-tree node `{path_in_tree}` missing"));
        let &(id, parent, _) = opens.iter().find(|o| o.2 == name).expect("opened");
        let &(_, _, dur_us) = closes.iter().find(|c| c.0 == id).expect("closed");
        let span = spans.iter().find(|s| s.name == name).expect("written");

        // One id: the record id is the span's W3C id.
        assert_eq!(format!("{id:016x}"), span.span_id);
        // Names and parents agree.
        assert_eq!(node.name, name);
        let record_parent =
            parent.map(|p| opens.iter().find(|o| o.0 == p).expect("parent").2.as_str());
        assert_eq!(record_parent, parent_name);
        let written_parent = span.parent_id.as_ref().map(|p| {
            spans
                .iter()
                .find(|s| &s.span_id == p)
                .expect("parent")
                .name
                .as_str()
        });
        assert_eq!(written_parent, parent_name);
        // Durations agree.
        assert_eq!(node.count, 1);
        assert_eq!(node.total_ns / 1000, dur_us, "{name}: tree vs SpanClose");
        assert_eq!(span.dur_us, dur_us, "{name}: SpanRecord vs SpanClose");
        assert!(dur_us >= 2000, "{name} spans the 2 ms sleep: {dur_us} µs");
    }
    qdi_obs::prof::reset();
    std::fs::remove_file(&path).ok();
}
