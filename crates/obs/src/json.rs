//! Chrome trace-event entries for [`crate::sink::ChromeTraceSink`].
//!
//! Every other JSON string the workspace writes — JSONL records,
//! diagnostics, reports — is `serde_json::to_string` of a `Serialize`
//! value; the trace entries are built here as [`Value`] maps and
//! rendered the same way.

use serde::Value;

use crate::level::Level;
use crate::record::{FieldValue, Fields};

/// Span or event fields as bare scalars, not the externally-tagged enum
/// encoding: trace viewers show `args` verbatim.
fn args(fields: &Fields) -> Value {
    Value::Map(
        fields
            .iter()
            .map(|(key, value)| {
                let scalar = match value {
                    FieldValue::Int(v) => Value::Int(*v),
                    FieldValue::UInt(v) => Value::UInt(*v),
                    FieldValue::Float(v) => Value::Float(*v),
                    FieldValue::Bool(v) => Value::Bool(*v),
                    FieldValue::Str(v) => Value::Str(v.clone()),
                };
                (key.clone(), scalar)
            })
            .collect(),
    )
}

/// Renders one trace entry from its `(key, value)` pairs, in order.
fn entry(pairs: Vec<(&str, Value)>) -> String {
    let map = Value::Map(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
    serde_json::to_string(&map).expect("a Value tree always renders")
}

/// One Chrome trace-event "X" (complete) entry for a closed span.
pub(crate) fn chrome_complete(
    pid: u32,
    tid: u64,
    target: &str,
    name: &str,
    fields: &Fields,
    ts_us: u64,
    dur_us: u64,
) -> String {
    entry(vec![
        ("name", Value::Str(name.to_owned())),
        ("cat", Value::Str(target.to_owned())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::UInt(ts_us)),
        ("dur", Value::UInt(dur_us)),
        ("pid", Value::UInt(u64::from(pid))),
        ("tid", Value::UInt(tid)),
        ("args", args(fields)),
    ])
}

/// One Chrome trace-event "i" (instant) entry for a leveled event.
pub(crate) fn chrome_instant(
    pid: u32,
    tid: u64,
    target: &str,
    level: Level,
    message: &str,
    fields: &Fields,
    ts_us: u64,
) -> String {
    entry(vec![
        ("name", Value::Str(format!("{} {message}", level.label()))),
        ("cat", Value::Str(target.to_owned())),
        ("ph", Value::Str("i".into())),
        ("s", Value::Str("t".into())),
        ("ts", Value::UInt(ts_us)),
        ("pid", Value::UInt(u64::from(pid))),
        ("tid", Value::UInt(tid)),
        ("args", args(fields)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let out = serde_json::to_string("a\"b\\c\nd\u{1}").expect("renders");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(serde_json::to_string(&2.0f64).expect("renders"), "2.0");
        assert_eq!(serde_json::to_string(&f64::NAN).expect("renders"), "null");
    }

    #[test]
    fn chrome_entries_are_json_objects() {
        let fields = vec![("n".to_string(), FieldValue::UInt(3))];
        let x = chrome_complete(7, 0, "qdi_pnr::place", "anneal", &fields, 10, 20);
        assert_eq!(
            x,
            "{\"name\":\"anneal\",\"cat\":\"qdi_pnr::place\",\"ph\":\"X\",\"ts\":10,\
             \"dur\":20,\"pid\":7,\"tid\":0,\"args\":{\"n\":3}}"
        );
        let i = chrome_instant(7, 0, "qdi_sim", Level::Warn, "hazard", &fields, 10);
        assert!(i.contains("\"ph\":\"i\""), "{i}");
        assert!(i.contains("WARN hazard"), "{i}");
    }
}
