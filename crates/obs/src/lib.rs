//! `qdi-obs`: structured tracing, metrics and profiling for the QDI
//! secure design flow.
//!
//! The crate provides three cooperating facilities, all dependency-free
//! beyond `std` and the workspace `serde` data model:
//!
//! * **Spans and events** — one span primitive, [`span()`] /
//!   [`span_at`] → [`SpanGuard`], with `key = value` [`FieldValue`]s
//!   and monotonic wall time; leveled [`event!`]s attach to the
//!   enclosing span. A closing span feeds the [`prof`] call tree
//!   (profiling on), the [`Sink`]s (when the `QDI_LOG` filter enables
//!   its level; `RUST_LOG` syntax, see [`filter::Filter`]) and, when
//!   [traced](SpanBuilder::traced), the [`trace::set_writer`] file.
//! * **Metrics** — process-wide [`metrics::counter`]s,
//!   [`metrics::gauge`]s and fixed-bucket [`metrics::histogram`]s with
//!   cheap `Arc`-backed handles, snapshotted via
//!   [`metrics::MetricsSnapshot`].
//! * **Sinks** — pluggable [`Sink`]s consume every enabled record:
//!   [`MemorySink`] (tests, report post-processing), [`StderrSink`]
//!   (human-readable tree), [`JsonlSink`] (JSON-Lines export) and
//!   [`ChromeTraceSink`] (a `chrome://tracing` / Perfetto profile).
//!
//! With no consumer on, a span costs one relaxed atomic load and a
//! branch, so instrumented hot paths cost effectively nothing.
//!
//! ```
//! use qdi_obs::{metrics, Level};
//!
//! qdi_obs::set_filter(qdi_obs::filter::Filter::at(Level::Debug));
//! let traces = metrics::counter("dpa.traces");
//! {
//!     let mut span = qdi_obs::span("qdi_dpa::campaign", "acquire").enter();
//!     traces.add(1000);
//!     span.record("traces", 1000u64);
//! }
//! qdi_obs::event!(Level::Info, target: "qdi_dpa::campaign", "campaign done");
//! ```

#![forbid(unsafe_code)]

pub mod durable;
pub mod filter;
pub mod flame;
pub mod html;
pub mod json;
pub mod level;
pub mod metrics;
pub mod prof;
pub mod progress;
pub mod prometheus;
pub mod record;
pub mod sink;
pub mod slo;
pub mod telemetry;
pub mod timeseries;
pub mod trace;

pub use durable::{Durability, DurableError, Recovered};
pub use filter::Filter;
pub use flame::{flamegraph_svg, timeline_svg};
pub use level::Level;
pub use prof::{ProfReport, ProfSummary, RegionProfile};
pub use progress::{ProgressSnapshot, ProgressTask};
pub use record::{FieldValue, Fields, Record};
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, Sink, StderrSink};
pub use slo::{SloConfig, SloReport, SloVerdict};
pub use telemetry::{StepTelemetry, Telemetry};
pub use timeseries::{Recorder, TimeseriesSnapshot, TimeseriesSummary};
pub use trace::{SpanLink, SpanRecord, TraceContext};

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Interest: which consumers are on
// ---------------------------------------------------------------------------

/// [`INTEREST`] bits holding `Level::as_u8` of the most verbose level
/// the filter enables (0 = logging off).
const INTEREST_LEVEL: u8 = 0x07;
/// [`INTEREST`] bit set while the profiler is on ([`prof::set_enabled`]).
const INTEREST_PROF: u8 = 0x08;

/// The one word every span and event check loads: the filter's level
/// ceiling plus the profiler switch. Relaxed suffices: the word only
/// gates a fast path, and the filter it summarizes is read under its
/// own lock.
static INTEREST: AtomicU8 = AtomicU8::new(0);
static INIT: Once = Once::new();

/// The interest word, once `QDI_LOG` has been read.
#[inline]
fn interest() -> u8 {
    init_from_env();
    INTEREST.load(Ordering::Relaxed)
}

fn filter_slot() -> &'static RwLock<Filter> {
    static FILTER: OnceLock<RwLock<Filter>> = OnceLock::new();
    FILTER.get_or_init(|| RwLock::new(Filter::off()))
}

fn install_filter(filter: Filter) {
    let max = filter.max_level().map_or(0, Level::as_u8);
    *filter_slot().write().expect("filter lock poisoned") = filter;
    let _ = INTEREST.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
        Some((word & INTEREST_PROF) | max)
    });
}

/// Parses `QDI_LOG` on first call; later calls are a no-op. Invoked
/// automatically by every [`enabled`] check, so instrumented libraries
/// need no explicit initialization.
#[inline]
pub fn init_from_env() {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("QDI_LOG") {
            match Filter::parse(&spec) {
                Ok(filter) => install_filter(filter),
                Err(err) => eprintln!("qdi-obs: ignoring invalid QDI_LOG: {err}"),
            }
        }
    });
}

/// Replaces the active filter programmatically (tests, embedding
/// applications), overriding whatever `QDI_LOG` said.
pub fn set_filter(filter: Filter) {
    INIT.call_once(|| {});
    install_filter(filter);
}

/// Whether the filter enables `level` for `target` under interest
/// word `word`.
#[inline]
fn level_enabled(word: u8, level: Level, target: &str) -> bool {
    level.as_u8() <= word & INTEREST_LEVEL && filter_enables(level, target)
}

fn filter_enables(level: Level, target: &str) -> bool {
    let filter = filter_slot().read().expect("filter lock poisoned");
    filter.enabled(level, target)
}

/// Whether a record at `level` from `target` would currently be emitted.
#[must_use]
pub fn enabled(level: Level, target: &str) -> bool {
    level_enabled(interest(), level, target)
}

// ---------------------------------------------------------------------------
// Clock and thread identity
// ---------------------------------------------------------------------------

/// Microseconds elapsed on the process-wide monotonic clock (anchored
/// at the first observability call in the process).
#[must_use]
pub fn now_us() -> u64 {
    clock_us(Instant::now())
}

/// `at` on the [`now_us`] clock.
fn clock_us(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(at.saturating_duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// Dense per-thread id (first observed thread = 0), used as `tid` in
/// trace profiles.
#[must_use]
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs an additional sink.
pub fn add_sink(sink: Arc<dyn Sink>) {
    sinks().write().expect("sink lock poisoned").push(sink);
}

/// Replaces the whole sink set (use `vec![]` to restore the default
/// stderr fallback).
pub fn set_sinks(new: Vec<Arc<dyn Sink>>) {
    *sinks().write().expect("sink lock poisoned") = new;
}

/// Flushes every installed sink (file buffers, trace profiles).
pub fn flush() {
    for sink in sinks().read().expect("sink lock poisoned").iter() {
        sink.flush();
    }
}

/// Flushes every sink (and any streamed progress file) when dropped —
/// including on early `?` returns and panics, which a trailing
/// [`flush`] call at the end of `main` misses. Binaries that install
/// file sinks should take one of these right after wiring them up:
///
/// ```no_run
/// fn main() -> Result<(), String> {
///     // ... qdi_obs::add_sink(...) ...
///     let _flush = qdi_obs::flush_on_drop();
///     // every exit path below now flushes the sinks
///     Ok(())
/// }
/// ```
#[derive(Debug)]
#[must_use = "the guard flushes when dropped; binding it to `_` drops it immediately"]
pub struct FlushGuard(());

impl Drop for FlushGuard {
    fn drop(&mut self) {
        progress::write_now();
        flush();
    }
}

/// Returns a [`FlushGuard`] that flushes all sinks on scope exit.
pub fn flush_on_drop() -> FlushGuard {
    FlushGuard(())
}

fn dispatch(record: &Record) {
    let installed = sinks().read().expect("sink lock poisoned");
    if installed.is_empty() {
        // No sink installed but the filter enabled the record: fall back
        // to stderr so `QDI_LOG=debug <any binary>` is always visible.
        static FALLBACK: StderrSink = StderrSink;
        FALLBACK.record(record);
        return;
    }
    for sink in installed.iter() {
        sink.record(record);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One open span on its thread's stack; the guard holds only its id.
struct Frame {
    id: u64,
    start: Instant,
    /// Call-tree node, or [`prof::NO_NODE`] when the profiler is not fed.
    node: usize,
    /// Wall time of closed child spans, ns (self time = total − this).
    child_ns: u64,
    /// What the sinks and the span writer need; `None` when the
    /// profiler is the span's only consumer.
    meta: Option<Box<SpanMeta>>,
}

struct SpanMeta {
    target: &'static str,
    name: Cow<'static, str>,
    fields: Fields,
    /// Record nesting depth; `Some` exactly when the span feeds the sinks.
    depth: Option<usize>,
    trace: Option<Box<trace::TracedSpan>>,
}

/// One thread's open spans (outermost first), call tree (registered by
/// its first profiled span) and unused block of span ids.
struct ThreadSpans {
    frames: Vec<Frame>,
    tree: Option<Arc<Mutex<prof::CallTree>>>,
    ids: std::ops::Range<u64>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { frames: Vec::new(), tree: None, ids: 0..0 })
    };
}

/// Id and depth of the innermost open span that feeds the sinks.
fn sink_parent(frames: &[Frame]) -> Option<(u64, usize)> {
    let mut frames = frames.iter().rev();
    frames.find_map(|f| Some((f.id, f.meta.as_ref()?.depth?)))
}

/// The one id source: span ids and the salt of minted W3C ids. A
/// thread takes span ids from it in blocks of [`ID_BLOCK`], so opening
/// a span costs no shared atomic.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
const ID_BLOCK: u64 = 4096;

/// Builder returned by [`span()`] / [`span_at`]; attach fields with
/// [`SpanBuilder::field`], then [`SpanBuilder::enter`].
#[must_use = "a span builder does nothing until entered"]
pub struct SpanBuilder {
    profiled: bool,
    meta: SpanMeta,
}

impl SpanBuilder {
    /// Places the span in a distributed trace, under `parent` or as the
    /// root of a fresh one. A traced span always mints W3C ids, which
    /// callers propagate and persist, and is written as a [`SpanRecord`]
    /// when it closes. Call this before [`SpanBuilder::field`].
    pub fn traced(mut self, parent: Option<&TraceContext>) -> SpanBuilder {
        self.meta.trace = Some(Box::new(trace::TracedSpan::new(parent)));
        self
    }

    /// Attaches a `key = value` field (no-op unless the sinks or the
    /// span writer will see it).
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> SpanBuilder {
        if self.meta.depth.is_some() || self.meta.trace.is_some() {
            self.meta.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Enters the span: pushes it on the thread's span stack, emits
    /// [`Record::SpanOpen`] when the sinks are fed, and returns the
    /// RAII guard that closes it.
    #[inline(always)]
    pub fn enter(self) -> SpanGuard {
        let live = self.profiled || self.meta.depth.is_some() || self.meta.trace.is_some();
        let id = if live {
            self.open()
        } else {
            // A partial move makes the rest drop field by field, which
            // inlines to nothing on this path.
            drop(self.meta.trace);
            0
        };
        SpanGuard {
            id,
            _not_send: PhantomData,
        }
    }

    #[inline(never)]
    fn open(self) -> u64 {
        let SpanBuilder { profiled, mut meta } = self;
        let sinks = meta.depth.is_some();
        let opened = sinks.then(|| (meta.target, meta.name.to_string(), meta.fields.clone()));
        let (id, parent, depth, start) = SPANS.with(move |spans| {
            let spans = &mut *spans.borrow_mut();
            if spans.ids.is_empty() {
                let first = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
                spans.ids = first..first + ID_BLOCK;
            }
            let id = match &meta.trace {
                Some(traced) => traced.ctx.span_id.0,
                None => spans.ids.next().expect("the block was just refilled"),
            };
            let parent = sinks.then(|| sink_parent(&spans.frames)).flatten();
            let depth = parent.map_or(0, |(_, depth)| depth + 1);
            meta.depth = sinks.then_some(depth);
            let node = if profiled {
                let parent = spans.frames.last().map_or(prof::NO_NODE, |f| f.node);
                let tree = spans.tree.get_or_insert_with(prof::register_thread_tree);
                tree.lock()
                    .expect("prof nodes poisoned")
                    .node(parent, meta.name.clone())
            } else {
                prof::NO_NODE
            };
            let meta = (sinks || meta.trace.is_some()).then(|| Box::new(meta));
            let start = Instant::now();
            spans.frames.push(Frame {
                id,
                start,
                node,
                child_ns: 0,
                meta,
            });
            (id, parent.map(|(id, _)| id), depth, start)
        });
        if let Some((target, name, fields)) = opened {
            dispatch(&Record::SpanOpen {
                id,
                parent,
                depth,
                target: target.to_string(),
                name,
                fields,
                ts_us: clock_us(start),
                thread: thread_id(),
            });
        }
        id
    }
}

/// RAII guard for an entered span. Dropping it closes the span and
/// feeds its consumers: the profiler's call tree ([`prof::report`]),
/// the sinks ([`Record::SpanClose`]) and, for a traced span, the span
/// writer ([`SpanRecord`]). All three see the same duration.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// The frame's id on this thread's stack; 0 for a disabled span.
    id: u64,
    /// Span guards must close on the thread that opened them.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn with_meta<R>(&self, f: impl FnOnce(&mut SpanMeta) -> R) -> Option<R> {
        SPANS.with(|spans| {
            let mut spans = spans.borrow_mut();
            let frame = spans.frames.iter_mut().rev().find(|f| f.id == self.id)?;
            frame.meta.as_deref_mut().map(f)
        })
    }

    /// Adds a field that will appear on the close record (e.g. results
    /// computed inside the span); a traced span records it as an
    /// attribute.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        self.with_meta(|meta| meta.fields.push((key.to_string(), value.into())));
    }

    /// Whether the span is actually being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.id != 0
    }

    /// The context to propagate to children, when the span is traced.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.with_meta(|meta| meta.trace.as_ref().map(|t| t.ctx))
            .flatten()
    }

    /// Adds a causal link (see [`SpanLink`]) to a traced span.
    pub fn add_link(&mut self, ctx: &TraceContext, kind: &str) {
        let link = SpanLink {
            trace_id: ctx.trace_id.to_string(),
            span_id: ctx.span_id.to_string(),
            kind: kind.to_string(),
        };
        self.with_meta(|meta| meta.trace.as_mut().map(|t| t.record.links.push(link)));
    }

    /// Records a point event with attributes on a traced span.
    pub fn add_event(&mut self, name: &str, attrs: &[(&str, String)]) {
        let event = trace::SpanEvent {
            ts_us: trace::unix_us(),
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        };
        self.with_meta(|meta| meta.trace.as_mut().map(|t| t.record.events.push(event)));
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            close_span(self.id);
        }
    }
}

#[inline(never)]
fn close_span(id: u64) {
    let closed = SPANS.with(|spans| {
        let spans = &mut *spans.borrow_mut();
        // Found wherever it sits, so an out-of-order drop cannot
        // corrupt the stack.
        let pos = spans.frames.iter().rposition(|f| f.id == id)?;
        let frame = spans.frames.remove(pos);
        let dur_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(parent) = spans.frames[..pos].last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(dur_ns);
        }
        if let Some(tree) = spans.tree.as_ref().filter(|_| frame.node != prof::NO_NODE) {
            let mut tree = tree.lock().expect("prof nodes poisoned");
            tree.close(frame.node, dur_ns, frame.child_ns);
        }
        Some((frame.start, frame.meta?, dur_ns))
    });
    let Some((start, meta, dur_ns)) = closed else {
        return;
    };
    let meta = *meta;
    if let Some(traced) = meta.trace {
        traced.write(meta.target, &meta.name, &meta.fields, dur_ns / 1000);
    }
    if let Some(depth) = meta.depth {
        dispatch(&Record::SpanClose {
            id,
            depth,
            target: meta.target.to_string(),
            name: meta.name.into_owned(),
            fields: meta.fields,
            ts_us: clock_us(start),
            dur_us: dur_ns / 1000,
            thread: thread_id(),
        });
    }
}

/// Starts building a span at the given level. One relaxed load of the
/// interest word fixes its consumers: the call tree while profiling is
/// on, the sinks when the filter enables `level` for `target`. A span
/// with neither, and not [traced](SpanBuilder::traced), allocates
/// nothing. Dotted names (`"sim.run"`) read well as flamegraph frames.
#[inline]
pub fn span_at(
    level: Level,
    target: &'static str,
    name: impl Into<Cow<'static, str>>,
) -> SpanBuilder {
    let word = interest();
    SpanBuilder {
        profiled: word & INTEREST_PROF != 0,
        meta: SpanMeta {
            target,
            name: name.into(),
            fields: Vec::new(),
            depth: level_enabled(word, level, target).then_some(0),
            trace: None,
        },
    }
}

/// Starts building an [`Level::Info`] span.
#[inline]
pub fn span(target: &'static str, name: impl Into<Cow<'static, str>>) -> SpanBuilder {
    span_at(Level::Info, target, name)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emits a leveled event. Prefer the [`event!`] / [`warn!`] macros,
/// which check [`enabled`] before building the message and fields.
pub fn emit_event(level: Level, target: &str, message: String, fields: Fields) {
    let parent = SPANS.with(|spans| sink_parent(&spans.borrow().frames));
    dispatch(&Record::Event {
        level,
        target: target.to_string(),
        message,
        fields,
        span: parent.map(|(id, _)| id),
        depth: parent.map_or(0, |(_, depth)| depth + 1),
        ts_us: now_us(),
        thread: thread_id(),
    });
}

/// Emits a leveled, structured event when the filter enables it:
///
/// ```
/// use qdi_obs::Level;
/// qdi_obs::event!(Level::Warn, target: "qdi_sim::hazard",
///                 glitches = 3usize, "hazard check flagged glitches");
/// ```
///
/// Fields (`key = value,`*) come first, then a format string with
/// optional arguments, as in `tracing`.
#[macro_export]
macro_rules! event {
    ($level:expr, target: $target:expr, $($key:ident = $value:expr),+ , $fmt:literal $(, $arg:expr)* $(,)?) => {{
        let __level = $level;
        let __target = $target;
        if $crate::enabled(__level, __target) {
            $crate::emit_event(
                __level,
                __target,
                format!($fmt $(, $arg)*),
                vec![$((stringify!($key).to_string(), $crate::FieldValue::from($value))),+],
            );
        }
    }};
    ($level:expr, target: $target:expr, $fmt:literal $(, $arg:expr)* $(,)?) => {{
        let __level = $level;
        let __target = $target;
        if $crate::enabled(__level, __target) {
            $crate::emit_event(__level, __target, format!($fmt $(, $arg)*), vec![]);
        }
    }};
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Error, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Warn, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Info, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Debug, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Trace, target: $target, $($rest)*)
    };
}

/// Opens a span with inline fields and enters it:
///
/// ```
/// let _guard = qdi_obs::span!(target: "qdi_pnr::place", "anneal", gates = 128usize);
/// ```
#[macro_export]
macro_rules! span {
    ($level:expr, target: $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span_at($level, $target, $name)$(.field(stringify!($key), $value))*.enter()
    };
    (target: $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span!($crate::Level::Info, target: $target, $name $(, $key = $value)*)
    };
}
