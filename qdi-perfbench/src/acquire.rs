//! `acquire_attack`: the paper's DPA evaluation (eqs. 7–12). A
//! full-codebook campaign on the skewed `XorSbox` first-round slice on
//! every core, then a 256-guess S-box attack.
//!
//! Untraced, it repeats campaign + attack rounds for the budget and
//! reports traces/s and attack latency. Traced, it replays acquisition
//! serially through the public calls (`Testbench`, `TraceSynthesizer`,
//! `Trace::add_gaussian_noise` with `qdi_exec::job_rng`) with a span
//! per stage, and times each layer on its own for half the budget; the
//! other half runs small campaigns as served jobs (`serve.rs`).

use std::time::Instant;

use qdi_analog::{Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::bit_values;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi_dpa::selection::{AesSboxSelect, SelectionFunction};
use qdi_dpa::{
    bias_signal_from_store, parallel_attack, parallel_bias_signal, run_parallel_campaign,
    BiasAccumulator, CampaignConfig, TraceSet, BIAS_SHARD,
};
use qdi_exec::{ExecConfig, StoreOptions, StoreReader, StoreWriter};
use qdi_sim::SimError;
use rand::{Rng, SeedableRng};

use crate::metrics::{Outcome, PassValues};
use crate::serve;
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::RunCtx;

/// The device's key byte.
const KEY: u8 = 0x6B;
/// Traces per campaign (16 full codebook passes).
const TRACES: usize = 4096;
/// The rail whose routing capacitance is skewed so the key leaks.
const SKEW_RAIL: &str = "sb.b0.h1";
const SKEW_FF: f64 = 40.0;
const NOISE_SIGMA: f64 = 0.05;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;
/// Indices the untraced run replays to check bit-identity.
const SAMPLED_REPLAYS: usize = 64;
/// Chunk size when streaming the bias back from a `.qtrs` store.
const STREAM_CHUNK: usize = 512;
const SELECTION: AesSboxSelect = AesSboxSelect { byte: 0, bit: 0 };

fn build_slice() -> AesByteSlice {
    let mut slice =
        aes_first_round_slice("s", SliceStage::XorSbox).expect("the first-round slice builds");
    let rail = slice
        .netlist
        .find_net(SKEW_RAIL)
        .expect("the generated slice has the skewed rail");
    slice.netlist.set_routing_cap(rail, SKEW_FF);
    slice
}

fn campaign(seed: u64, traces: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::full_codebook(KEY);
    cfg.traces = traces;
    cfg.seed = seed;
    cfg.synth.noise_sigma = NOISE_SIGMA;
    cfg
}

/// One acquisition through the public per-layer calls, with the
/// instants between stages: testbench set-up, simulation, synthesis,
/// noise. Noise comes from `job_rng(seed, index)`, as in the engine.
struct Acquired {
    trace: Trace,
    transitions: usize,
    end_time_ps: u64,
    marks: [Instant; 5],
}

fn acquire(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    synth: &TraceSynthesizer<'_>,
    pt: u8,
    index: usize,
) -> Result<Acquired, SimError> {
    let m0 = Instant::now();
    let mut tb = qdi_sim::Testbench::new(&slice.netlist, cfg.testbench)?;
    let (pbits, kbits) = (bit_values(pt), bit_values(cfg.key));
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    let m1 = Instant::now();
    let run = tb.run()?;
    let m2 = Instant::now();
    let mut trace = synth.synthesize(&run.transitions);
    let m3 = Instant::now();
    let mut rng = qdi_exec::job_rng(cfg.seed, index as u64);
    trace.add_gaussian_noise(&mut rng, cfg.synth.noise_sigma);
    let m4 = Instant::now();
    Ok(Acquired {
        trace,
        transitions: run.transitions.len(),
        end_time_ps: run.end_time_ps,
        marks: [m0, m1, m2, m3, m4],
    })
}

/// Builds the slice [`SETUP_REPS`] times; returns it with the median
/// build time in seconds.
fn setup(mut tracer: Option<&mut Tracer>) -> (AesByteSlice, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut slice = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = std::hint::black_box(build_slice());
        let end = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("crypto.slice_build", None, t, end);
        }
        times.push((end - t).as_secs_f64());
        slice = Some(built);
    }
    (
        slice.expect("set-up ran"),
        median(&times).expect("set-up ran"),
    )
}

/// The bias of the true key streamed back from a `.qtrs` store must be
/// bit-identical to the in-memory one.
fn check_store_bias(out: &mut Outcome, ctx: &RunCtx, set: &TraceSet, exec: ExecConfig) {
    let path = ctx
        .work_dir
        .join(format!("acquire-{}.qtrs", std::process::id()));
    let streamed = set
        .to_store(&path, StoreOptions::new())
        .map_err(|e| e.to_string())
        .and_then(|()| {
            bias_signal_from_store(&path, &SELECTION, u16::from(KEY), STREAM_CHUNK)
                .map_err(|e| e.to_string())
        });
    let _ = std::fs::remove_file(&path);
    let in_memory = parallel_bias_signal(set, &SELECTION, u16::from(KEY), exec);
    let identical = match (&streamed, &in_memory) {
        (Ok(Some(a)), Some(b)) => a.samples() == b.samples(),
        _ => false,
    };
    out.check(
        "bias_bit_identical",
        identical,
        format!("T = A0 - A1 streamed from .qtrs ({STREAM_CHUNK}-trace chunks) vs in memory"),
    );
}

/// Ranks the true key with a 256-guess attack; returns (rank, peak).
fn attack_rank(set: &TraceSet, exec: ExecConfig) -> (Option<usize>, f64) {
    let result = parallel_attack(set, &SELECTION, exec);
    let rank = result.rank_of(u16::from(KEY));
    let peak = rank.map_or(0.0, |r| result.scores[r].peak_abs);
    (rank, peak)
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    let exec = ExecConfig::new();
    let workers = exec.effective_workers(TRACES);
    let mut out = Outcome {
        workers: vec![("exec_workers", workers)],
        ..Outcome::default()
    };
    if ctx.traced {
        traced(ctx, &mut out, workers);
    } else {
        untraced(ctx, &mut out, exec);
    }
    out.finish(ctx.traced);
    out
}

fn untraced(ctx: &RunCtx, out: &mut Outcome, exec: ExecConfig) {
    let (slice, setup_s) = setup(None);
    out.set("setup_s", setup_s);
    let cfg = campaign(ctx.seed, TRACES);
    // Warm-up: fault in code and allocator pools before timing.
    let _ = run_parallel_campaign(&slice, &campaign(ctx.seed, 256), exec);

    let start = Instant::now();
    let (mut rates, mut attack_ms, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<TraceSet> = None;
    let mut peak = 0.0;
    while rates.len() < 3 || start.elapsed() < ctx.budget {
        let t = Instant::now();
        let set = match run_parallel_campaign(&slice, &cfg, exec) {
            Ok(set) => set,
            Err(e) => {
                out.tally.record_many(TRACES as u64, TRACES as u64);
                out.check("campaign_runs", false, format!("{e:?}"));
                return;
            }
        };
        let acq = t.elapsed().as_secs_f64();
        out.tally.record_many(TRACES as u64, 0);
        let t = Instant::now();
        let (rank, p) = attack_rank(&set, exec);
        attack_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.tally.record(rank == Some(0));
        rates.push(TRACES as f64 / acq);
        ranks.push(rank);
        peak = p;
        last = Some(set);
    }
    let set = last.expect("at least one round ran");
    out.check(
        "true_key_ranks_0",
        ranks.iter().all(|r| *r == Some(0)),
        format!(
            "ranks of 0x{KEY:02X} over {} rounds: {:?}",
            ranks.len(),
            dedup(&ranks)
        ),
    );

    // The traced run's serial replica must compute the same traces as
    // the engine at this worker count: replay index 0 (whose counts are
    // the fingerprint, as in the traced run) and sampled indices.
    let synth = TraceSynthesizer::new(&slice.netlist, cfg.synth);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x5eed);
    let mut identical = true;
    let mut first = None;
    let sampled: Vec<usize> = std::iter::once(0)
        .chain((1..SAMPLED_REPLAYS).map(|_| rng.gen_range(0..set.len())))
        .collect();
    for i in sampled {
        match acquire(&slice, &cfg, &synth, set.input(i)[0], i) {
            Ok(a) => {
                identical &= a.trace.samples() == set.trace(i).samples();
                first.get_or_insert((a.transitions, a.end_time_ps, a.trace.len()));
            }
            Err(_) => identical = false,
        }
    }
    out.check(
        "serial_replica_bit_identical",
        identical,
        format!(
            "{SAMPLED_REPLAYS} sampled indices replayed serially vs {}-worker set",
            exec.effective_workers(TRACES)
        ),
    );
    check_store_bias(out, ctx, &set, exec);

    let rate = median(&rates).expect("rounds ran");
    let attack = median(&attack_ms).expect("rounds ran");
    out.set("throughput_per_s", rate);
    out.set("latency_p50_ms", attack);
    out.series = vec![
        ("traces_per_s", rates.clone()),
        ("attack_ms", attack_ms.clone()),
    ];
    out.report = vec![
        ("traces_per_s", rate, "traces/s"),
        ("attack_s", attack / 1e3, "s"),
        (
            "attack_p90_s",
            percentile(&attack_ms, 90.0).expect("rounds ran") / 1e3,
            "s",
        ),
        ("rounds", rates.len() as f64, "count"),
    ];
    if let Some((transitions, end_time, samples)) = first {
        out.count("sim.transitions_per_trace", transitions as f64);
        out.count("sim.end_time_ps", end_time as f64);
        out.count("analog.samples_per_trace", samples as f64);
    }
    out.count("dpa.correct_key_rank", ranks[0].map_or(-1.0, |r| r as f64));
    out.count("dpa.bias_peak", peak);
}

fn dedup(ranks: &[Option<usize>]) -> Vec<Option<usize>> {
    let mut v = ranks.to_vec();
    v.dedup();
    v
}

/// Exact-repeat counts of one traced pass.
type Counts = Vec<(&'static str, f64)>;

fn traced(ctx: &RunCtx, out: &mut Outcome, workers: usize) {
    let mut tr = Tracer::new();
    let (slice, _) = setup(Some(&mut tr));
    let cfg = campaign(ctx.seed, TRACES);
    let _ = run_parallel_campaign(&slice, &campaign(ctx.seed, 256), ExecConfig::new());

    let start = Instant::now();
    let mut passes: Vec<PassValues> = Vec::new();
    let mut all_ok = true;
    let mut counts = Vec::new();
    while passes.is_empty() || start.elapsed() < ctx.budget / 2 {
        match traced_pass(ctx, &slice, &cfg, workers, &mut tr, out) {
            Ok((pass, c)) => {
                passes.push(pass);
                counts = c;
            }
            Err(e) => {
                all_ok = false;
                out.check("campaign_runs", false, e);
                break;
            }
        }
    }
    if all_ok {
        out.set_medians(&passes);
        for (name, v) in counts {
            out.count(name, v);
        }
    }
    let spans = ctx.work_dir.join("acquire_attack.spans.jsonl");
    if let Err(e) = tr.write_jsonl(&spans) {
        eprintln!("qdi-perfbench: write {}: {e}", spans.display());
    }

    // Served campaigns get a tracer of their own, so the replay's
    // root spans above alone set `trace.unattributed_pct`.
    let mut served = Tracer::new();
    serve::pass(ctx, ctx.budget / 2, out, &mut served);
    let spans = ctx.work_dir.join("served_jobs.spans.jsonl");
    if let Err(e) = served.write_jsonl(&spans) {
        eprintln!("qdi-perfbench: write {}: {e}", spans.display());
    }
}

/// One traced pass: untraced serial reference, traced serial replay,
/// store round trip, bias accumulation, attack, and the pool timed at
/// 1 and N workers.
#[allow(clippy::too_many_lines)]
fn traced_pass(
    ctx: &RunCtx,
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    workers: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(PassValues, Counts), String> {
    let mut pass = PassValues::new();
    let n = cfg.traces;
    let parallel = ExecConfig::with_workers(workers);
    let set = run_parallel_campaign(slice, cfg, parallel).map_err(|e| format!("{e:?}"))?;
    out.tally.record_many(n as u64, 0);

    // Untraced reference for the overhead figure: the engine, serially.
    let t = Instant::now();
    let reference =
        run_parallel_campaign(slice, cfg, ExecConfig::serial()).map_err(|e| format!("{e:?}"))?;
    let untraced_ns = t.elapsed().as_nanos() as f64;
    out.tally.record_many(n as u64, 0);
    drop(reference);

    // Traced serial replay through the public per-layer calls.
    let root = tr.start("acquire.replay", None);
    let synth = tr.time("analog.synth_new", Some(root), || {
        TraceSynthesizer::new(&slice.netlist, cfg.synth)
    });
    let (mut transitions, mut samples, mut identical) = (0usize, 0usize, true);
    let mut first = None;
    for i in 0..n {
        let a = acquire(slice, cfg, &synth, set.input(i)[0], i).map_err(|e| format!("{e:?}"))?;
        let [m0, m1, m2, m3, m4] = a.marks;
        tr.record("sim.setup", Some(root), m0, m1);
        tr.record("sim.run", Some(root), m1, m2);
        tr.record("analog.synth", Some(root), m2, m3);
        tr.record("analog.noise", Some(root), m3, m4);
        identical &= a.trace.samples() == set.trace(i).samples();
        transitions += a.transitions;
        samples += a.trace.len();
        first.get_or_insert((a.transitions, a.end_time_ps, a.trace.len()));
    }
    tr.end(root);
    out.tally.record_many(n as u64, 0);
    let replay = tr.span(root).duration_ns() as f64;
    pass.push(("trace.overhead_pct", (replay / untraced_ns - 1.0) * 100.0));
    pass.push((
        "trace.unattributed_pct",
        tr.self_ns(root) as f64 / replay * 100.0,
    ));
    // The tracer holds every pass; sum this pass's stage spans only.
    let stage_ns = |name: &str| tr.durations_under(name, root).iter().sum::<u64>() as f64;
    pass.push(("sim.setup_us", stage_ns("sim.setup") / n as f64 / 1e3));
    pass.push((
        "sim.run_ns_per_transition",
        stage_ns("sim.run") / transitions as f64,
    ));
    pass.push((
        "analog.synth_ns_per_pulse",
        stage_ns("analog.synth") / transitions as f64,
    ));
    pass.push((
        "analog.noise_ns_per_sample",
        stage_ns("analog.noise") / samples as f64,
    ));

    // `.qtrs` encode and decode.
    let path = ctx
        .work_dir
        .join(format!("acquire-{}.qtrs", std::process::id()));
    let first_trace = set.trace(0);
    let enc = tr.start("exec.store_encode", None);
    let mut writer = StoreWriter::create(
        &path,
        first_trace.t0_ps(),
        first_trace.dt_ps(),
        StoreOptions::new(),
    )
    .map_err(|e| e.to_string())?;
    for (input, trace) in set.iter() {
        writer.append(input, trace).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    tr.end(enc);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let dec = tr.start("exec.store_decode", None);
    let mut reader = StoreReader::open(&path).map_err(|e| e.to_string())?;
    let mut decoded = TraceSet::new();
    while let Some((input, trace)) = reader.next_record().map_err(|e| e.to_string())? {
        decoded.push(input, trace);
    }
    tr.end(dec);
    let _ = std::fs::remove_file(&path);
    let mb_s = |id| bytes / 1e6 / (tr.span(id).duration_ns() as f64 / 1e9);
    pass.push(("exec.store_encode_mb_s", mb_s(enc)));
    pass.push(("exec.store_decode_mb_s", mb_s(dec)));

    // Bias accumulation over the decoded records, sharded as the
    // engine shards it: must equal the in-memory parallel bias.
    let guess = u16::from(KEY);
    let bias = tr.start("dpa.bias", None);
    let mut total = BiasAccumulator::new();
    for lo in (0..n).step_by(BIAS_SHARD) {
        let mut shard = BiasAccumulator::new();
        for i in lo..(lo + BIAS_SHARD).min(n) {
            shard.accumulate(SELECTION.select(decoded.input(i), guess), decoded.trace(i));
        }
        total.merge(shard);
    }
    tr.end(bias);
    let streamed = total.finish();
    pass.push((
        "dpa.bias_ns_per_sample",
        tr.span(bias).duration_ns() as f64 / samples as f64,
    ));
    let in_memory = parallel_bias_signal(&set, &SELECTION, guess, parallel);
    let bias_identical = match (&streamed, &in_memory) {
        (Some(a), Some(b)) => a.samples() == b.samples(),
        _ => false,
    };

    let atk = tr.start("dpa.attack", None);
    let (rank, peak) = attack_rank(&set, parallel);
    tr.end(atk);
    out.tally.record(rank == Some(0));
    pass.push((
        "dpa.attack_ms_per_guess",
        tr.span(atk).duration_ns() as f64 / 1e6 / f64::from(SELECTION.guess_count()),
    ));

    // Per-job time inside a benchmark-owned pool closure, 1 vs N
    // workers: does a job get slower when others run beside it?
    let mut job_us = Vec::new();
    for (label, w) in [("exec.pool_1w", 1), ("exec.pool_nw", workers)] {
        let pool = tr.start(label, None);
        let jobs = qdi_exec::try_run_indexed(&ExecConfig::with_workers(w), n, |i| {
            let s = Instant::now();
            let a = acquire(slice, cfg, &synth, set.input(i)[0], i)?;
            Ok::<_, SimError>((a.trace, s, Instant::now()))
        })
        .map_err(|e| format!("{e:?}"))?;
        tr.end(pool);
        out.tally.record_many(n as u64, 0);
        let mut busy = 0u64;
        for (i, (trace, s, e)) in jobs.into_iter().enumerate() {
            identical &= trace.samples() == set.trace(i).samples();
            let id = tr.record("exec.job", Some(pool), s, e);
            busy += tr.span(id).duration_ns();
        }
        let wall = tr.span(pool).duration_ns() as f64;
        job_us.push(busy as f64 / n as f64 / 1e3);
        if w == workers {
            pass.push(("exec.pool_efficiency", busy as f64 / (w as f64 * wall)));
        }
    }
    pass.push(("exec.job_us_1w", job_us[0]));
    pass.push(("exec.job_us_nw", job_us[1]));
    pass.push(("exec.concurrency_slowdown", job_us[1] / job_us[0]));

    out.check(
        "serial_replica_bit_identical",
        identical,
        format!("all {n} traces: traced serial replay and 1-/{workers}-worker pools vs {workers}-worker engine"),
    );
    out.check(
        "bias_bit_identical",
        bias_identical,
        "T = A0 - A1 accumulated from decoded .qtrs records vs in memory",
    );
    out.check(
        "true_key_ranks_0",
        rank == Some(0),
        format!("rank of 0x{KEY:02X}: {rank:?}"),
    );
    let (t, e, s) = first.expect("traces were replayed");
    let counts = vec![
        ("sim.transitions_per_trace", t as f64),
        ("sim.end_time_ps", e as f64),
        ("analog.samples_per_trace", s as f64),
        ("dpa.correct_key_rank", rank.map_or(-1.0, |r| r as f64)),
        ("dpa.bias_peak", peak),
    ];
    Ok((pass, counts))
}
