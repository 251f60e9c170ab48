//! Served campaigns: the serve-layer pass of the `acquire_attack`
//! traced run. An in-process `qdi-serve` with 2 workers and its data dir
//! under the run directory, loaded by a closed loop of 2 client threads,
//! one per tenant. Each client submits a burst of 4 small DPA jobs,
//! waits until all 4 are terminal, fetches their reports, and repeats.
//! One watcher thread per job follows its server-sent event stream from
//! the moment the submit is acked, so every state change is seen when
//! the server emits it.
//!
//! All timings are taken client-side, as a tenant sees them. They are
//! per-layer figures, not gated ones: most of a job's latency waits on
//! `fsync`, whose cost on a shared host drifts tenfold over minutes
//! (README.md, "Why served jobs are not a gated workload").

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use qdi_dpa::{CampaignConfig, ResilienceConfig};
use qdi_serve::{
    AttackSpec, DpaJobSpec, DpaReport, JobKind, JobSpec, JobState, JobStatus, ServeClient,
    ServeConfig, Server,
};

use crate::metrics::Outcome;
use crate::provenance::filesystem_of;
use crate::span::Tracer;
use crate::stats::{median, percentile, samples_beyond, Tally};
use crate::RunCtx;

const SERVER_WORKERS: usize = 2;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const BURST: usize = 4;
const TRACES: usize = 512;
const CHECKPOINT_EVERY: usize = 128;
/// Shortest time from one round's start to the next (see [`Rounds`]).
const ROUND_PERIOD: Duration = Duration::from_millis(750);
/// Width of the per-round start offsets (see [`Rounds`]); a multiple of
/// the server's default 25 ms accept poll.
const PHASE_WINDOW: Duration = Duration::from_millis(100);
/// Rounds run before the measured ones; their jobs are gated but not
/// timed.
const WARMUP_ROUNDS: u32 = 3;
const NOISE_SIGMA: f64 = 0.05;
/// Cold servers whose median start time is `serve.start_ms`.
const SETUP_REPS: usize = 5;
/// Idle-gap `/healthz` probes.
const IDLE_PROBES: usize = 15;
const IDLE_GAP: Duration = Duration::from_millis(60);
/// Stream attempts after the first before a watcher gives up.
const MAX_HTTP_RETRIES: u64 = 5;

/// The `k`-th job spec of a burst. Campaign inputs come from the
/// workload seed and `k` only, so both tenants submit the same four
/// campaigns and every round repeats them.
fn spec_json(tenant: &str, k: usize, seed: u64) -> String {
    let job_seed = qdi_exec::derive_seed(seed, k as u64);
    let mut campaign = CampaignConfig::new((job_seed >> 56) as u8);
    campaign.traces = TRACES;
    campaign.seed = job_seed;
    campaign.synth.noise_sigma = NOISE_SIGMA;
    let spec = JobSpec {
        tenant: tenant.into(),
        name: Some(format!("perfbench-{k}")),
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign,
            resilience: Some(ResilienceConfig {
                checkpoint_every: CHECKPOINT_EVERY,
                ..ResilienceConfig::default()
            }),
            exec_workers: Some(1),
            attack: Some(AttackSpec {
                selection: "xor".into(),
                bit: 0,
                guesses: None,
            }),
        }),
    };
    serde_json::to_string(&spec).expect("job spec serializes")
}

/// What a client saw of one job.
struct JobObs {
    k: usize,
    /// Ran in a warm-up round: gated, not timed.
    warmup: bool,
    submitted: Instant,
    acked: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
    state: Option<JobState>,
    report_ms: Option<f64>,
    bias: Option<Vec<f64>>,
    requests: u64,
    http_errors: u64,
}

impl JobObs {
    fn new(k: usize, warmup: bool, submitted: Instant) -> JobObs {
        JobObs {
            k,
            warmup,
            submitted,
            acked: None,
            running: None,
            done: None,
            state: None,
            report_ms: None,
            bias: None,
            requests: 1,
            http_errors: 0,
        }
    }

    fn completed(&self) -> bool {
        self.state == Some(JobState::Completed) && self.bias.is_some()
    }

    fn latency_ms(&self) -> Option<f64> {
        self.done
            .filter(|_| self.completed())
            .map(|d| (d - self.submitted).as_secs_f64() * 1e3)
    }
}

/// Follows one job's server-sent events until it is terminal, so each
/// state change is seen when the server emits it.
fn watch(client: &ServeClient, id: &str, job: &mut JobObs) {
    for _ in 0..=MAX_HTTP_RETRIES {
        job.requests += 1;
        let streamed = client.stream_events(id, None, |event, data| {
            if event != "state" {
                return true;
            }
            let Ok(status) = serde_json::from_str::<JobStatus>(data) else {
                return true;
            };
            let now = Instant::now();
            if status.state == JobState::Running && job.running.is_none() {
                job.running = Some(now);
            }
            if status.state.is_terminal() {
                job.done = Some(now);
                job.state = Some(status.state);
                return false;
            }
            true
        });
        if streamed.is_ok() && job.state.is_some() {
            return;
        }
        job.http_errors += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Keeps the tenants' closed loops in lockstep: a round starts when
/// every client is ready, so each round has the same mix of contending
/// jobs. Free-running loops drift in and out of phase, and the share of
/// rounds in which both tenants' bursts overlap — which sets most of a
/// job's queue wait — then changes from run to run.
///
/// Rounds also start at most once per [`ROUND_PERIOD`]. Saturated, the
/// server's durable writes (about 6 MB/s) outrun the disk after about a
/// minute, and back-to-back runs then slow down one after another. At
/// about half load the latencies measure the server, not a disk backlog
/// left by the previous run.
///
/// Each round's start is further offset by a low-discrepancy share of
/// [`PHASE_WINDOW`]. A period that is a multiple of the accept loop's
/// poll would otherwise lock every submit of a run to one phase of that
/// poll, and the phase the run happened to start in would set its
/// latencies. The offsets spread the rounds evenly over the poll period.
struct Rounds {
    barrier: Barrier,
    budget: Duration,
    clock: Mutex<Clock>,
    round: AtomicU32,
    stop: AtomicBool,
}

struct Clock {
    next_start: Instant,
    index: u32,
    /// Start of the first measured round, once the warm-up is over.
    measured_from: Option<Instant>,
}

impl Rounds {
    fn new(start: Instant, budget: Duration) -> Rounds {
        Rounds {
            barrier: Barrier::new(TENANTS.len()),
            budget,
            clock: Mutex::new(Clock {
                next_start: start,
                index: 0,
                measured_from: None,
            }),
            round: AtomicU32::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Waits until every client has finished its round, runs `between`
    /// (off the measured path, while no job is in flight), then waits
    /// for the next round's start time. Returns whether that round is
    /// measured, or `None` once the budget is spent.
    fn next(&self, between: impl FnOnce()) -> Option<bool> {
        self.barrier.wait();
        between();
        if self.barrier.wait().is_leader() {
            let mut clock = self.clock.lock().expect("round clock lock");
            let wait = clock.next_start.saturating_duration_since(Instant::now());
            std::thread::sleep(wait);
            let now = Instant::now();
            if clock.index == WARMUP_ROUNDS {
                clock.measured_from = Some(now);
            }
            let over = clock.measured_from.is_some_and(|t| now >= t + self.budget);
            self.stop.store(over, Ordering::SeqCst);
            self.round.store(clock.index, Ordering::SeqCst);
            clock.index += 1;
            let phase = (f64::from(clock.index) * 0.618_033_988_749_895).fract();
            clock.next_start = now + ROUND_PERIOD + PHASE_WINDOW.mul_f64(phase);
        }
        self.barrier.wait();
        if self.stop.load(Ordering::SeqCst) {
            None
        } else {
            Some(self.round.load(Ordering::SeqCst) >= WARMUP_ROUNDS)
        }
    }

    /// Start of the first measured round.
    fn measured_from(&self) -> Option<Instant> {
        self.clock.lock().expect("round clock lock").measured_from
    }
}

/// The server under load.
struct Target {
    server: Server,
    base: String,
    data_dir: PathBuf,
}

/// Submits job `k` of a burst and follows it on a watcher thread from
/// the moment the submit is acked, so a job that finishes while later
/// ones are still being submitted is seen when it finishes.
fn submit_and_watch<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    client: &'s ServeClient,
    tenant: &str,
    k: usize,
    seed: u64,
    warmup: bool,
) -> std::thread::ScopedJoinHandle<'s, (Option<String>, JobObs)> {
    let body = spec_json(tenant, k, seed);
    let submitted = Instant::now();
    let id = client.submit(&body);
    let mut job = JobObs::new(k, warmup, submitted);
    match id {
        Ok(id) => {
            job.acked = Some(Instant::now());
            s.spawn(move || {
                watch(client, &id, &mut job);
                (Some(id), job)
            })
        }
        Err(_) => {
            job.http_errors += 1;
            s.spawn(move || (None, job))
        }
    }
}

/// One tenant's closed loop; returns every job it ran.
fn client_loop(target: &Target, tenant: &str, seed: u64, rounds: &Rounds) -> Vec<JobObs> {
    let client = ServeClient::new(&target.base);
    let jobs_dir = target.data_dir.join("tenants").join(tenant).join("jobs");
    let mut all = Vec::new();
    let mut done: Vec<String> = Vec::new();
    // A fetched job's artifacts are removed between rounds, while no
    // job is in flight, and the directory is synced so the deletes are
    // committed there rather than by the next round's durable writes.
    // The data dir stays small, and a run never ends with one large
    // delete whose disk work the next run would compete with.
    let cleanup = |done: &mut Vec<String>| {
        for id in done.drain(..) {
            let _ = std::fs::remove_dir_all(jobs_dir.join(id));
        }
        let _ = std::fs::File::open(&jobs_dir).and_then(|d| d.sync_all());
    };
    while let Some(measured) = rounds.next(|| cleanup(&mut done)) {
        let mut burst: Vec<(Option<String>, JobObs)> = std::thread::scope(|s| {
            let watchers: Vec<_> = (0..BURST)
                .map(|k| submit_and_watch(s, &client, tenant, k, seed, !measured))
                .collect();
            watchers
                .into_iter()
                .map(|w| w.join().expect("watcher thread panicked"))
                .collect()
        });
        for (id, job) in &mut burst {
            let Some(id) = id.as_deref() else { continue };
            if job.state != Some(JobState::Completed) {
                continue;
            }
            job.requests += 1;
            let t = Instant::now();
            let report = client
                .get(&format!("/v1/jobs/{id}/report"))
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    serde_json::from_str::<DpaReport>(&r.text()).map_err(|e| format!("{e:?}"))
                });
            match report {
                Ok(report) => {
                    job.report_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                    job.bias = report.guesses.first().map(|g| g.samples.clone());
                }
                Err(_) => job.http_errors += 1,
            }
        }
        for (id, job) in burst {
            done.extend(id);
            all.push(job);
        }
    }
    cleanup(&mut done);
    all
}

/// Runs both tenants' closed loops: [`WARMUP_ROUNDS`] rounds, then
/// rounds for `budget`. Returns every job and the measured wall time.
fn load(target: &Target, seed: u64, budget: Duration) -> (Vec<JobObs>, f64) {
    let rounds = Rounds::new(Instant::now(), budget);
    let jobs = std::thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|tenant| {
                let rounds = &rounds;
                s.spawn(move || client_loop(target, tenant, seed, rounds))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = rounds
        .measured_from()
        .map_or(f64::NAN, |t| t.elapsed().as_secs_f64());
    (jobs, wall_s)
}

/// Starts [`SETUP_REPS`] servers in fresh data dirs, runs one job on
/// each, and keeps the last server. Each start and first job is a span,
/// so work that a change moves out of the job path into start-up or
/// first use shows in `serve.start_ms`. The span writer is
/// process-global and belongs to the most recently started server.
fn setup(root: &Path, seed: u64, tr: &mut Tracer) -> Result<Target, String> {
    let mut servers = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let dir = root.join(format!("server-{i}"));
        let mut cfg = ServeConfig::new(&dir);
        cfg.workers = SERVER_WORKERS;
        let t = Instant::now();
        let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let started = Instant::now();
        let client = ServeClient::new(format!("http://{}", server.local_addr()));
        let id = client
            .submit(&spec_json(TENANTS[0], 0, seed))
            .map_err(|e| format!("first job: {e}"))?;
        let mut job = JobObs::new(0, false, t);
        watch(&client, &id, &mut job);
        let end = match (job.state, job.done) {
            (Some(JobState::Completed), Some(end)) => end,
            (state, _) => return Err(format!("first job ended {state:?}")),
        };
        let span = tr.record("serve.setup", None, t, end);
        tr.record("serve.start", Some(span), t, started);
        tr.record("serve.first_job", Some(span), started, end);
        servers.push((server, dir));
    }
    let (server, data_dir) = servers.pop().expect("servers started");
    for (other, _) in servers {
        other.shutdown();
    }
    let target = Target {
        base: format!("http://{}", server.local_addr()),
        data_dir,
        server,
    };
    Ok(target)
}

/// Summed value of a Prometheus sample, 0 when the counter was never
/// incremented.
fn scrape(client: &ServeClient, name: &str) -> Result<f64, String> {
    let text = client.get("/metrics").map_err(|e| e.to_string())?.text();
    let samples = qdi_obs::prometheus::parse(&text)?;
    Ok(samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum())
}

/// Runs the served-campaign pass: [`WARMUP_ROUNDS`] rounds, then rounds
/// for `budget`. Records its spans in `tr` and its gates, tally and
/// per-layer values in `out`.
pub fn pass(ctx: &RunCtx, budget: Duration, out: &mut Outcome, tr: &mut Tracer) {
    out.workers.extend([
        ("server_workers", SERVER_WORKERS),
        ("client_threads", TENANTS.len()),
        ("job_exec_workers", 1),
    ]);
    let root = ctx.work_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = std::fs::create_dir_all(&root) {
        out.check(
            "server_starts",
            false,
            format!("create {}: {e}", root.display()),
        );
        return;
    }
    out.notes
        .push(("serve_data_dir_filesystem", filesystem_of(&root)));
    match setup(&root, ctx.seed, tr) {
        Ok(target) => {
            measure(ctx.seed, budget, out, &target, tr);
            target.server.shutdown();
        }
        Err(e) => out.check("server_starts", false, e),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Gates every job of a run: all `Completed`, and every report of spec
/// `k` carries the same bias samples bit for bit (across rounds and
/// tenants). Returns the run's tally.
fn check_jobs(out: &mut Outcome, jobs: &[JobObs]) -> Tally {
    let mut tally = Tally::default();
    for job in jobs {
        tally.record(job.completed());
        tally.record_many(job.requests, job.http_errors);
    }
    let completed = jobs.iter().filter(|j| j.completed()).count();
    out.check(
        "every_job_completed",
        !jobs.is_empty() && completed == jobs.len(),
        format!("{completed} of {} jobs Completed", jobs.len()),
    );
    let mut identical = true;
    for k in 0..BURST {
        let mut reports = jobs
            .iter()
            .filter(|j| j.k == k)
            .filter_map(|j| j.bias.as_ref());
        if let Some(first) = reports.next() {
            identical &= reports.all(|b| b == first);
        }
    }
    out.check(
        "report_bias_bit_identical",
        identical,
        "repeated specs return identical report bias samples across rounds and tenants",
    );
    tally
}

/// Latencies of the measured (not warm-up) jobs.
fn latencies(jobs: &[JobObs]) -> Vec<f64> {
    jobs.iter()
        .filter(|j| !j.warmup)
        .filter_map(JobObs::latency_ms)
        .collect()
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// Loads the server for `budget` and sets the serve-layer values.
fn measure(seed: u64, budget: Duration, out: &mut Outcome, target: &Target, tr: &mut Tracer) {
    let start_ms: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "serve.start")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    out.set("serve.start_ms", p50(&start_ms));
    let client = ServeClient::new(&target.base);
    let counters = |client: &ServeClient| -> Result<(f64, f64, f64), String> {
        Ok((
            scrape(client, "qdi_serve_sched_yields")?,
            scrape(client, "qdi_serve_sched_leases")?,
            scrape(client, "qdi_serve_http_errors")?,
        ))
    };

    let before = counters(&client);
    let (jobs, wall_s) = load(target, seed, budget);
    let after = counters(&client);
    let tally = check_jobs(out, &jobs);
    out.tally.merge(tally);
    let lat = latencies(&jobs);
    let (p50_ms, p90_ms) = (p50(&lat), percentile(&lat, 90.0).unwrap_or(f64::NAN));
    out.set("serve.job_latency_ms_p50", p50_ms);
    out.set("serve.job_latency_ms_p90", p90_ms);
    let beyond_p90 = samples_beyond(&lat, 90.0) as f64;
    out.report.extend([
        ("job_latency_p50_ms", p50_ms, "ms"),
        ("job_latency_p90_ms", p90_ms, "ms"),
        ("jobs_per_s", lat.len() as f64 / wall_s, "jobs/s"),
        ("jobs", lat.len() as f64, "count"),
        ("samples_beyond_p90", beyond_p90, "count"),
    ]);
    out.series.push(("job_latency_ms", lat));

    for job in jobs.iter().filter(|j| !j.warmup) {
        let (Some(acked), Some(done)) = (job.acked, job.done) else {
            continue;
        };
        let root = tr.record("serve.job", None, job.submitted, done);
        tr.record("serve.submit", Some(root), job.submitted, acked);
        if let Some(running) = job.running {
            tr.record("serve.queue_wait", Some(root), acked, running);
            tr.record("serve.exec", Some(root), running, done);
        } else {
            tr.record("serve.wait", Some(root), acked, done);
        }
    }
    let durations = |name: &str| {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect::<Vec<_>>()
    };
    out.set("serve.submit_ms_p50", p50(&durations("serve.submit")));
    out.set(
        "serve.queue_wait_ms_p50",
        p50(&durations("serve.queue_wait")),
    );
    out.set("serve.exec_ms_p50", p50(&durations("serve.exec")));
    let report_ms: Vec<f64> = jobs
        .iter()
        .filter(|j| !j.warmup)
        .filter_map(|j| j.report_ms)
        .collect();
    out.set("serve.report_ms_p50", p50(&report_ms));
    match (before, after) {
        (Ok(b), Ok(a)) => {
            let n = jobs.len().max(1) as f64;
            out.set("serve.sched_yields_per_job", (a.0 - b.0) / n);
            out.set("serve.sched_leases_per_job", (a.1 - b.1) / n);
            let client_errors: u64 = jobs.iter().map(|j| j.http_errors).sum();
            out.set("serve.http_errors", a.2 - b.2 + client_errors as f64);
        }
        (Err(e), _) | (_, Err(e)) => out.check("metrics_scrape", false, e),
    }

    // Idle round trip: no request in flight for a gap, then `/healthz`.
    let mut rtt = Vec::with_capacity(IDLE_PROBES);
    for _ in 0..IDLE_PROBES {
        std::thread::sleep(IDLE_GAP);
        let t = Instant::now();
        let ok = client.get("/healthz").is_ok();
        let end = Instant::now();
        out.tally.record(ok);
        tr.record("serve.idle_rtt", None, t, end);
        rtt.push((end - t).as_secs_f64() * 1e3);
    }
    out.set("serve.idle_rtt_ms_p50", p50(&rtt));
}
