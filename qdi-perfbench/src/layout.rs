//! `layout_flow`: the secure layout flow of Table 2 on the full AES
//! column datapath, flat and hierarchical.
//!
//! Untraced, it repeats `run_static_flow` pairs (flat + hierarchical)
//! for the budget. Traced, it calls the flow's stages in flow order —
//! structural lint, symbolic check, place and route, electrical lint,
//! criterion table, leakage ranking — with a span around each.

use std::time::Instant;

use qdi_core::{rank_channel_leakage, run_static_flow, FlowConfig, StaticFlowReport};
use qdi_crypto::gatelevel::column::{aes_column_datapath, AesColumn};
use qdi_lint::Registry;
use qdi_netlist::Netlist;
use qdi_pnr::{criterion, place_and_route, Strategy};

use crate::metrics::{Outcome, PassValues};
use crate::span::{SpanId, Tracer};
use crate::stats::{median, percentile};
use crate::RunCtx;

/// Annealing effort, as in `examples/secure_flow.rs`.
const MOVES_PER_GATE: usize = 60;
/// Column builds whose median is `setup_s`.
const SETUP_REPS: usize = 7;
const STRATEGIES: [Strategy; 2] = [Strategy::Flat, Strategy::Hierarchical];

fn flow_config(strategy: Strategy, seed: u64) -> FlowConfig {
    let mut cfg = FlowConfig::new(strategy, 0);
    cfg.pnr.anneal.moves_per_gate = MOVES_PER_GATE;
    cfg.pnr.anneal.seed = seed;
    cfg
}

/// Builds the column [`SETUP_REPS`] times; returns it with the median
/// build time in seconds.
fn setup(mut tracer: Option<&mut Tracer>) -> (AesColumn, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut column = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = aes_column_datapath("aes_column").expect("the column datapath builds");
        let end = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("crypto.column_build", None, t, end);
        }
        times.push((end - t).as_secs_f64());
        column = Some(built);
    }
    (
        column.expect("set-up ran"),
        median(&times).expect("set-up ran"),
    )
}

/// Results of one strategy that must agree however they were computed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlowFacts {
    max_da: f64,
    findings: usize,
    wirelength_um: f64,
}

impl From<&StaticFlowReport> for FlowFacts {
    fn from(r: &StaticFlowReport) -> FlowFacts {
        FlowFacts {
            max_da: r.max_criterion,
            findings: r.lint.len(),
            wirelength_um: r.total_wirelength_um,
        }
    }
}

/// One untimed-netlist-copy flow through the library entry point.
fn static_flow(
    netlist: &Netlist,
    strategy: Strategy,
    seed: u64,
) -> Result<(FlowFacts, f64), String> {
    let mut nl = netlist.clone();
    let cfg = flow_config(strategy, seed);
    let t = Instant::now();
    let report = run_static_flow(&mut nl, &cfg).map_err(|e| format!("{e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if report.incomplete_steps().next().is_some() {
        return Err(format!("{strategy:?} flow left incomplete steps"));
    }
    Ok((FlowFacts::from(&report), secs))
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome {
        workers: vec![("flow_workers", 1)],
        ..Outcome::default()
    };
    if ctx.traced {
        traced(ctx, &mut out);
    } else {
        untraced(ctx, &mut out);
    }
    out.finish(ctx.traced);
    out
}

fn table2_check(out: &mut Outcome, flat: FlowFacts, hier: FlowFacts) {
    out.check(
        "hierarchical_da_below_flat",
        hier.max_da < flat.max_da,
        format!(
            "max dA hierarchical {:.4} < flat {:.4}",
            hier.max_da, flat.max_da
        ),
    );
}

fn untraced(ctx: &RunCtx, out: &mut Outcome) {
    let (column, setup_s) = setup(None);
    out.set("setup_s", setup_s);
    let start = Instant::now();
    let mut pairs_s = Vec::new();
    let mut facts = Vec::new();
    while pairs_s.len() < 3 || start.elapsed() < ctx.budget {
        let mut pair = 0.0;
        let mut this = Vec::new();
        for strategy in STRATEGIES {
            match static_flow(&column.netlist, strategy, ctx.seed) {
                Ok((f, secs)) => {
                    out.tally.record(true);
                    pair += secs;
                    this.push(f);
                }
                Err(e) => {
                    out.tally.record(false);
                    out.check("flow_runs", false, e);
                    return;
                }
            }
        }
        pairs_s.push(pair);
        facts.push((this[0], this[1]));
    }
    let (flat, hier) = facts[0];
    table2_check(out, flat, hier);
    out.check(
        "flow_repeats_exactly",
        facts.iter().all(|f| *f == facts[0]),
        format!(
            "{} pairs with identical dA, findings and wirelength",
            facts.len()
        ),
    );
    let gates = (2 * column.netlist.gate_count()) as f64;
    let flow_s = median(&pairs_s).expect("pairs ran");
    out.set("throughput_per_s", gates / flow_s);
    out.set("latency_p50_ms", flow_s * 1e3);
    out.series = vec![("flow_s", pairs_s.clone())];
    out.report = vec![
        ("flow_s", flow_s, "s"),
        (
            "flow_p90_s",
            percentile(&pairs_s, 90.0).expect("pairs ran"),
            "s",
        ),
        ("pairs", pairs_s.len() as f64, "count"),
    ];
    push_counts(out, flat, hier);
}

fn push_counts(out: &mut Outcome, flat: FlowFacts, hier: FlowFacts) {
    out.count("lint.findings", (flat.findings + hier.findings) as f64);
    out.count("pnr.max_da_flat", flat.max_da);
    out.count("pnr.max_da_hier", hier.max_da);
    out.count("pnr.wirelength_um", flat.wirelength_um + hier.wirelength_um);
}

/// The flow's stages, called one by one in flow order under `parent`.
fn traced_flow(
    tr: &mut Tracer,
    parent: SpanId,
    netlist: &mut Netlist,
    cfg: &FlowConfig,
) -> FlowFacts {
    let structural = tr.time("lint.structural", Some(parent), || {
        Registry::structural().run(netlist, &cfg.lint)
    });
    let symbolic = tr.time("sym.check", Some(parent), || {
        Registry::symbolic().run(netlist, &cfg.lint)
    });
    let pnr = tr.time("pnr.place_route", Some(parent), || {
        place_and_route(netlist, cfg.strategy, &cfg.pnr)
    });
    let mut electrical_cfg = cfg.lint.clone();
    electrical_cfg.da_warn = cfg.criterion_alert;
    let electrical = tr.time("lint.electrical", Some(parent), || {
        Registry::electrical().run(netlist, &electrical_cfg)
    });
    let table = tr.time("pnr.criterion", Some(parent), || {
        criterion::criterion_table(netlist)
    });
    let leakage = tr.time("core.leakage", Some(parent), || {
        rank_channel_leakage(netlist)
    });
    std::hint::black_box(leakage);
    FlowFacts {
        max_da: table.first().map_or(0.0, |c| c.d),
        findings: structural.len() + symbolic.len() + electrical.len(),
        wirelength_um: pnr.total_wirelength_um,
    }
}

const STAGES: [(&str, &str); 6] = [
    ("lint.structural", "lint.structural_ms"),
    ("sym.check", "sym.check_ms"),
    ("pnr.place_route", "pnr.place_route_ms"),
    ("lint.electrical", "lint.electrical_ms"),
    ("pnr.criterion", "pnr.criterion_ms"),
    ("core.leakage", "core.leakage_ms"),
];

fn traced(ctx: &RunCtx, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let (column, _) = setup(Some(&mut tr));
    let build_ms: Vec<f64> = tr
        .spans()
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    out.set(
        "crypto.column_build_ms",
        median(&build_ms).expect("set-up ran"),
    );

    let start = Instant::now();
    let mut per_pass: Vec<PassValues> = Vec::new();
    let mut facts = None;
    while per_pass.is_empty() || start.elapsed() < ctx.budget {
        // Untraced reference pair through the library entry point.
        let mut untraced_s = 0.0;
        let mut library = Vec::new();
        for strategy in STRATEGIES {
            match static_flow(&column.netlist, strategy, ctx.seed) {
                Ok((f, secs)) => {
                    out.tally.record(true);
                    untraced_s += secs;
                    library.push(f);
                }
                Err(e) => {
                    out.tally.record(false);
                    out.check("flow_runs", false, e);
                    return;
                }
            }
        }
        // Traced pair: the same stages, one span each.
        let pair = tr.start("flow.pair", None);
        let mut flows = Vec::new();
        let mut replica = Vec::new();
        for strategy in STRATEGIES {
            let mut nl = column.netlist.clone();
            let cfg = flow_config(strategy, ctx.seed);
            let name = if strategy == Strategy::Flat {
                "flow.flat"
            } else {
                "flow.hier"
            };
            let flow = tr.start(name, Some(pair));
            replica.push(traced_flow(&mut tr, flow, &mut nl, &cfg));
            tr.end(flow);
            flows.push(flow);
            out.tally.record(true);
        }
        tr.end(pair);
        out.check(
            "traced_stages_match_library_flow",
            replica == library,
            format!("stage-by-stage replica {replica:?} vs run_static_flow {library:?}"),
        );
        let pair_ns = tr.span(pair).duration_ns() as f64;
        let mut values = Vec::new();
        for (span, metric) in STAGES {
            let ns: u64 = flows
                .iter()
                .flat_map(|&f| tr.durations_under(span, f))
                .sum();
            values.push((metric, ns as f64 / 1e6));
        }
        let flow_self: u64 = flows.iter().map(|&f| tr.self_ns(f)).sum();
        values.push(("flow.unattributed_ms", flow_self as f64 / 1e6));
        let flows_ns: u64 = flows.iter().map(|&f| tr.span(f).duration_ns()).sum();
        values.push((
            "trace.overhead_pct",
            (flows_ns as f64 / 1e9 / untraced_s - 1.0) * 100.0,
        ));
        values.push((
            "trace.unattributed_pct",
            (flow_self + tr.self_ns(pair)) as f64 / pair_ns * 100.0,
        ));
        per_pass.push(values);
        facts = Some((replica[0], replica[1]));
    }
    out.set_medians(&per_pass);
    let (flat, hier) = facts.expect("one pass ran");
    table2_check(out, flat, hier);
    push_counts(out, flat, hier);
    let spans = ctx.work_dir.join("layout_flow.spans.jsonl");
    if let Err(e) = tr.write_jsonl(&spans) {
        eprintln!("qdi-perfbench: write {}: {e}", spans.display());
    }
}
