//! End-to-end tests of the `qdi-mon` binary: exit-code discipline and
//! output shapes for every subcommand.

use std::path::PathBuf;
use std::process::{Command, Output};

use qdi_obs::metrics::{MetricSample, MetricsSnapshot};
use qdi_obs::progress::{ProgressSnapshot, TaskSnapshot};

fn qdi_mon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdi-mon"))
        .args(args)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-mon runs")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

fn write_progress(path: &PathBuf, completed: u64, done: bool) {
    let snap = ProgressSnapshot {
        ts_us: 1_000_000,
        tasks: vec![TaskSnapshot {
            name: "dpa.campaign".into(),
            completed,
            total: 100,
            elapsed_s: 1.0,
            rate: completed as f64,
            ewma_rate: completed as f64,
            eta_s: if done { 0.0 } else { 2.0 },
            done,
        }],
        pool: vec![MetricSample {
            name: "exec.pool.workers".into(),
            value: 4.0,
        }],
    };
    snap.save(path).unwrap();
}

#[test]
fn no_args_is_usage_error() {
    let out = qdi_mon(&[]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_is_usage_error() {
    assert_eq!(code(&qdi_mon(&["frobnicate"])), 2);
}

#[test]
fn watch_once_renders_a_frame() {
    let path = temp("qdi_mon_cli_watch.json");
    write_progress(&path, 25, false);
    let out = qdi_mon(&["watch", "--once", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dpa.campaign"));
    assert!(stdout.contains("25/100"));
    assert!(stdout.contains("eta"));
    assert!(stdout.contains("exec.pool.workers"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn watch_exits_when_all_tasks_done() {
    let path = temp("qdi_mon_cli_watch_done.json");
    write_progress(&path, 100, true);
    let out = qdi_mon(&["watch", "--interval-ms", "10", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "watch returns once every task is done");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn watch_missing_file_is_load_error() {
    assert_eq!(
        code(&qdi_mon(&["watch", "--once", "/nonexistent/p.json"])),
        2
    );
}

#[test]
fn report_builds_html_from_jsonl() {
    let dir = std::env::temp_dir();
    let jsonl = dir.join("qdi_mon_cli_run.telemetry.jsonl");
    let record = qdi_obs::Record::SpanClose {
        id: 1,
        depth: 0,
        target: "qdi_core::flow".into(),
        name: "campaign".into(),
        fields: vec![],
        ts_us: 0,
        dur_us: 2_000,
        thread: 0,
    };
    std::fs::write(&jsonl, serde_json::to_string(&record).unwrap() + "\n").unwrap();
    let out_html = dir.join("qdi_mon_cli_run.report.html");
    let out = qdi_mon(&[
        "report",
        "--out",
        out_html.to_str().unwrap(),
        "--title",
        "cli test",
        jsonl.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let html = std::fs::read_to_string(&out_html).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("cli test"));
    assert!(html.contains("campaign"));
    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&out_html);
}

#[test]
fn report_missing_telemetry_is_load_error() {
    assert_eq!(code(&qdi_mon(&["report", "/nonexistent/t.jsonl"])), 2);
}

#[test]
fn export_round_trips_through_prometheus_text() {
    let path = temp("qdi_mon_cli_metrics.json");
    let snap = MetricsSnapshot {
        samples: vec![
            MetricSample {
                name: "dpa.traces".into(),
                value: 10_000.0,
            },
            MetricSample {
                name: "sim.queue.max".into(),
                value: 42.0,
            },
        ],
        histograms: Vec::new(),
    };
    std::fs::write(&path, serde_json::to_string_pretty(&snap).unwrap()).unwrap();
    let out = qdi_mon(&["export", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# TYPE qdi_dpa_traces gauge"));
    let parsed = qdi_obs::prometheus::parse(&text).unwrap();
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].name, "qdi_dpa_traces");
    assert_eq!(parsed[0].value, 10_000.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn export_rejects_non_snapshot_json() {
    let path = temp("qdi_mon_cli_not_metrics.json");
    std::fs::write(&path, "[1,2,3]").unwrap();
    assert_eq!(code(&qdi_mon(&["export", path.to_str().unwrap()])), 2);
    let _ = std::fs::remove_file(&path);
}

fn bench_json(serial: f64, parallel: f64, bias: bool) -> String {
    format!(
        "{{\"bench\":\"parallel_campaign\",\"serial_traces_per_s\":{serial},\
         \"parallel_traces_per_s\":{parallel},\"bias_bit_identical\":{bias}}}"
    )
}

#[test]
fn bench_diff_passes_within_threshold_and_fails_past_it() {
    let base = temp("qdi_mon_cli_baseline.json");
    let cur = temp("qdi_mon_cli_current.json");
    std::fs::write(&base, bench_json(100.0, 800.0, true)).unwrap();

    std::fs::write(&cur, bench_json(70.0, 600.0, true)).unwrap();
    let ok = qdi_mon(&[
        "bench-diff",
        "--baseline",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&ok), 0, "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("ok"));

    std::fs::write(&cur, bench_json(10.0, 600.0, true)).unwrap();
    let bad = qdi_mon(&[
        "bench-diff",
        "--baseline",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&bad), 1, "regression past threshold exits 1");
    assert!(String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"));

    // Tighter threshold flips the verdict for a mild drop.
    std::fs::write(&cur, bench_json(70.0, 600.0, true)).unwrap();
    let tight = qdi_mon(&[
        "bench-diff",
        "--baseline",
        base.to_str().unwrap(),
        "--threshold",
        "0.1",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&tight), 1);

    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
}

#[test]
fn bench_diff_fails_on_lost_bit_identity() {
    let base = temp("qdi_mon_cli_baseline_bias.json");
    let cur = temp("qdi_mon_cli_current_bias.json");
    std::fs::write(&base, bench_json(100.0, 800.0, true)).unwrap();
    std::fs::write(&cur, bench_json(100.0, 800.0, false)).unwrap();
    let out = qdi_mon(&[
        "bench-diff",
        "--baseline",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
}

#[test]
fn bench_diff_update_baseline_rewrites_the_file() {
    let base = temp("qdi_mon_cli_baseline_update.json");
    let cur = temp("qdi_mon_cli_current_update.json");
    let fresh = bench_json(250.0, 2000.0, true);
    std::fs::write(&cur, &fresh).unwrap();
    let _ = std::fs::remove_file(&base);
    let out = qdi_mon(&[
        "bench-diff",
        "--baseline",
        base.to_str().unwrap(),
        "--update-baseline",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read_to_string(&base).unwrap(), fresh);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
}

#[test]
fn bench_diff_missing_baseline_is_load_error() {
    let cur = temp("qdi_mon_cli_current_nobase.json");
    std::fs::write(&cur, bench_json(100.0, 800.0, true)).unwrap();
    let out = qdi_mon(&[
        "bench-diff",
        "--baseline",
        "/nonexistent/baseline.json",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    let _ = std::fs::remove_file(&cur);
}

// ---------------------------------------------------------------------------
// analyze / flame / timeline
// ---------------------------------------------------------------------------

/// A `.qprof` profile shaped like the committed baseline workload:
/// small jobs whose dispatch overhead exceeds half their mean duration
/// (55 µs mean vs 70 µs overhead), so `analyze` must name per-job
/// overhead as a concrete cause of the < 1.0 speedup.
fn overhead_dominated_profile() -> qdi_obs::prof::ProfReport {
    use qdi_obs::prof::{PoolRun, ProfReport, RegionProfile, WorkerLane, QPROF_VERSION};
    ProfReport {
        version: QPROF_VERSION,
        captured_us: 0,
        regions: RegionProfile::default(),
        pool_runs: vec![PoolRun {
            jobs: 100,
            workers: 2,
            wall_us: 6250,
            steals: 1,
            lanes: vec![
                WorkerLane {
                    worker: 0,
                    jobs: 50,
                    steals: 0,
                    busy_us: 2750,
                    queue_wait_us: 100,
                    idle_us: 3400,
                    segments: vec![],
                    segments_truncated: false,
                },
                WorkerLane {
                    worker: 1,
                    jobs: 50,
                    steals: 1,
                    busy_us: 2750,
                    queue_wait_us: 100,
                    idle_us: 3400,
                    segments: vec![],
                    segments_truncated: false,
                },
            ],
        }],
        dropped_pool_runs: 0,
    }
}

#[test]
fn analyze_names_per_job_overhead_on_the_baseline_workload() {
    let path = temp("qdi_mon_cli_analyze.qprof.json");
    overhead_dominated_profile().save(&path).unwrap();
    let out = qdi_mon(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallel efficiency"), "{stdout}");
    assert!(stdout.contains("idle fraction"), "{stdout}");
    assert!(stdout.contains("steal rate"), "{stdout}");
    assert!(stdout.contains("per-job overhead"), "{stdout}");
    assert!(
        stdout.contains("jobs are 55 µs mean but per-job overhead is 70 µs: batch work items"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_json_emits_the_analysis_structure() {
    let path = temp("qdi_mon_cli_analyze_json.qprof.json");
    overhead_dominated_profile().save(&path).unwrap();
    let out = qdi_mon(&["analyze", "--json", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let findings = value.get("findings").expect("findings array");
    assert!(findings.as_seq().is_some_and(|a| !a.is_empty()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_rejects_garbage_with_usage_exit() {
    let path = temp("qdi_mon_cli_analyze_garbage.qprof.json");
    std::fs::write(&path, "not json").unwrap();
    assert_eq!(code(&qdi_mon(&["analyze", path.to_str().unwrap()])), 2);
    let _ = std::fs::remove_file(&path);
}

/// The full loop on a real profile: run an instrumented pool bag,
/// save the `.qprof`, and drive all three profile subcommands.
#[test]
fn analyze_and_renderers_work_on_a_recorded_profile() {
    qdi_obs::prof::reset();
    qdi_obs::prof::set_enabled(true);
    let _ = qdi_exec::run_indexed(&qdi_exec::ExecConfig::with_workers(2), 64, |i| {
        // A busy-loop so lanes carry measurable time.
        let mut acc = i as u64;
        for k in 0..2_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    });
    qdi_obs::prof::set_enabled(false);
    let report = qdi_obs::prof::report();
    assert!(!report.pool_runs.is_empty(), "pool run recorded");
    let path = temp("qdi_mon_cli_recorded.qprof.json");
    report.save(&path).unwrap();

    let out = qdi_mon(&["analyze", path.to_str().unwrap()]);
    assert!(
        [0, 1].contains(&code(&out)),
        "analyze succeeds on real data: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pool runs judged"));

    let flame = temp("qdi_mon_cli_recorded.flame.svg");
    let out = qdi_mon(&[
        "flame",
        "--out",
        flame.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&flame).unwrap();
    assert!(svg.starts_with("<svg"), "flamegraph is an SVG document");
    assert!(svg.contains("exec.pool.job"), "job frames rendered");

    let lanes = temp("qdi_mon_cli_recorded.timeline.svg");
    let out = qdi_mon(&[
        "timeline",
        "--out",
        lanes.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&lanes).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("pool run"), "run header rendered");

    for f in [&path, &flame, &lanes] {
        let _ = std::fs::remove_file(f);
    }
    qdi_obs::prof::reset();
}

#[test]
fn flame_derives_output_path_from_profile_name() {
    let path = temp("qdi_mon_cli_derive.qprof.json");
    overhead_dominated_profile().save(&path).unwrap();
    let out = qdi_mon(&["flame", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let derived = temp("qdi_mon_cli_derive.flame.svg");
    assert!(derived.exists(), "foo.qprof.json -> foo.flame.svg");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&derived);
}

#[test]
fn trace_renders_a_waterfall_and_honors_exit_codes() {
    let spans = temp("qdi_mon_cli_spans.jsonl");
    let trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
    let records = [
        qdi_obs::trace::SpanRecord {
            trace_id: trace_id.into(),
            span_id: "00000000000000a1".into(),
            parent_id: None,
            links: Vec::new(),
            service: "qdi-client".into(),
            name: "submit".into(),
            start_unix_us: 1_000,
            dur_us: 9_000,
            attrs: Vec::new(),
            events: Vec::new(),
        },
        qdi_obs::trace::SpanRecord {
            trace_id: trace_id.into(),
            span_id: "00000000000000b2".into(),
            parent_id: Some("00000000000000a1".into()),
            links: vec![qdi_obs::trace::SpanLink {
                trace_id: trace_id.into(),
                span_id: "00000000000000ff".into(),
                kind: qdi_obs::trace::LINK_RESUME.into(),
            }],
            service: "qdi-serve".into(),
            name: "lease".into(),
            start_unix_us: 3_000,
            dur_us: 4_000,
            attrs: Vec::new(),
            events: Vec::new(),
        },
    ];
    let jsonl: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    std::fs::write(&spans, jsonl).unwrap();

    let svg_path = temp("qdi_mon_cli_trace.svg");
    let out = qdi_mon(&[
        "trace",
        "--out",
        svg_path.to_str().unwrap(),
        trace_id,
        spans.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("qdi-client") && svg.contains("qdi-serve"));
    assert!(svg.contains("stroke-dasharray"), "resume link rendered");

    // A parseable file without the trace is a data failure (1)...
    let missing = qdi_mon(&[
        "trace",
        "--out",
        svg_path.to_str().unwrap(),
        "000000000000000000000000deadbeef",
        spans.to_str().unwrap(),
    ]);
    assert_eq!(code(&missing), 1);
    // ...an unreadable file a usage/input error (2)...
    let unreadable = qdi_mon(&["trace", trace_id, "/nonexistent/spans.jsonl"]);
    assert_eq!(code(&unreadable), 2);
    // ...and no operands is usage (2).
    assert_eq!(code(&qdi_mon(&["trace", trace_id])), 2);

    let _ = std::fs::remove_file(&spans);
    let _ = std::fs::remove_file(&svg_path);
}

#[test]
fn slo_verdicts_follow_the_exit_code_discipline() {
    let metrics = temp("qdi_mon_cli_slo.prom");
    let mut exposition = String::new();
    qdi_obs::prometheus::render_histogram_samples(
        &mut exposition,
        qdi_obs::slo::ROUTE_LATENCY_MS,
        &[("route", "POST /v1/jobs"), ("tenant", "ci")],
        &[5.0, 50.0],
        &[8, 2, 0],
        120.0,
    );
    exposition.push_str(&qdi_obs::prometheus::render_labeled(
        qdi_obs::slo::ROUTE_REQUESTS,
        &[("route", "POST /v1/jobs"), ("tenant", "ci")],
        10.0,
    ));
    std::fs::write(&metrics, &exposition).unwrap();

    let passing = temp("qdi_mon_cli_slo_pass.json");
    std::fs::write(
        &passing,
        r#"{"slos":[{"name":"submit","route":"POST /v1/jobs","availability":0.9,"p99_ms":100000.0}]}"#,
    )
    .unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        passing.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // p99 above target: breach -> exit 1.
    let breached = temp("qdi_mon_cli_slo_breach.json");
    std::fs::write(
        &breached,
        r#"{"slos":[{"name":"submit","route":"POST /v1/jobs","p99_ms":1.0}]}"#,
    )
    .unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        breached.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BREACH"));

    // Malformed config -> usage error 2.
    let bad = temp("qdi_mon_cli_slo_bad.json");
    std::fs::write(&bad, "{\"slos\":[]}").unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        bad.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    // Missing --config -> usage error 2.
    assert_eq!(code(&qdi_mon(&["slo", metrics.to_str().unwrap()])), 2);

    for f in [&metrics, &passing, &breached, &bad] {
        let _ = std::fs::remove_file(f);
    }
}
