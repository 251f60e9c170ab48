//! Span overhead on the profiler path: the disabled-cost contract pins
//! a disabled enter/exit pair at the same order as a disabled progress
//! handle — one relaxed load of the interest word plus a branch on
//! drop, ~ns. The enabled variants measure what a profiled run
//! actually pays per span visit (call-tree node hit, thread stack
//! push/pop and two clock reads), so hot-path instrumentation stays
//! honest about its observer effect.
//!
//! The spans are at `Level::Trace`, like the library's hot-path spans,
//! and `QDI_LOG` is expected unset: the call tree is their only
//! consumer. The case names predate the span merge and are kept so
//! runs stay comparable.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qdi_obs::{span_at, Level};

const TARGET: &str = "qdi_bench::prof_overhead";

fn bench_prof_overhead(c: &mut Criterion) {
    // Baseline: the loop body with no span at all.
    let mut acc = 0u64;
    c.bench_function("prof_baseline_no_region", |b| {
        b.iter(|| {
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Disabled: one relaxed load in `span_at`, one branch in the
    // guard's drop. This is what every instrumented hot path (simulator
    // event loop, `.qtrs` codec, pool dispatch) pays in production.
    qdi_obs::prof::set_enabled(false);
    c.bench_function("prof_region_disabled", |b| {
        b.iter(|| {
            let _r = span_at(Level::Trace, TARGET, "bench.prof.disabled").enter();
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Enabled, flat: node-table hit, frame push/pop, two Instant reads.
    qdi_obs::prof::set_enabled(true);
    c.bench_function("prof_region_enabled", |b| {
        b.iter(|| {
            let _r = span_at(Level::Trace, TARGET, "bench.prof.enabled").enter();
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Enabled, nested: the realistic shape — a leaf span under an open
    // parent, exercising the child-time attribution path.
    c.bench_function("prof_region_enabled_nested", |b| {
        let _outer = span_at(Level::Trace, TARGET, "bench.prof.outer").enter();
        b.iter(|| {
            let _r = span_at(Level::Trace, TARGET, "bench.prof.inner").enter();
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });
    qdi_obs::prof::set_enabled(false);
    qdi_obs::prof::reset();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_prof_overhead
}
criterion_main!(benches);
