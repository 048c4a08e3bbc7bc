//! The `serve-overlap` workload: an in-process `qosrm_serve` daemon under a
//! closed loop of two clients.
//!
//! A run is a sequence of *rounds*. Each round starts a daemon on a fresh
//! data directory (set-up: `Server::start` to the first answered `/stats`)
//! and drives one fixed submission plan through it with two client threads,
//! each on its own connection per request. A client takes the next
//! submission, submits it, reads `/stream` up to the first outcome line and
//! on to the end (the stream closes when the run is terminal), checks the
//! status, fetches the merged result and repeats. Every reader of a
//! variant must see identical result bytes, and variant 0 must equal an
//! offline `stream::run` + `merge` of the same spec.
//!
//! `Client::stream` reads the whole body before it calls its sink, so it
//! cannot time the first line; the benchmark reads `/stream` with its own
//! incremental reader and uses `qosrm_serve::Client` for everything else.

use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::walk::{layer_values, result_bytes, secs, stream_and_merge, walk, LayerCounts};
use crate::workloads::{serve_plan, serve_variant};
use experiments::{ExperimentContext, SweepOptions};
use qosrm_serve::http::{PROTO_VERSION, PROTO_VERSION_HEADER};
use qosrm_serve::{Client, ClientError, ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Submissions per round (the plan's length).
const SUBMISSIONS_PER_ROUND: usize = 40;
/// Scenarios each submitted spec lowers to.
const SCENARIOS_PER_SPEC: u64 = 3;
/// Shard size requested with every submission.
const SHARD_SIZE: usize = 1;
/// Daemons started and stopped unloaded, for the set-up median.
const SETUP_PROBES: usize = 100;
/// How often a queue-full submission is retried before it counts as failed.
const QUEUE_FULL_RETRIES: u32 = 200;

/// What one submission observed.
#[derive(Debug, Clone)]
struct Sample {
    submit_s: f64,
    first_outcome_s: f64,
    result_s: f64,
}

/// Shared state of one round's client threads.
struct RoundShared<'a> {
    addr: SocketAddr,
    payloads: &'a [String],
    plan: &'a [usize],
    next: AtomicUsize,
    /// Result bytes per variant, as first seen.
    results: Mutex<HashMap<usize, Vec<u8>>>,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOutcome {
    samples: Vec<Sample>,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

/// What one round observed.
struct Round {
    setup_s: f64,
    wall_s: f64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    results: HashMap<usize, Vec<u8>>,
    stats: qosrm_serve::StatsReport,
    spans: Tracer,
}

/// Reads `/runs/{id}/stream` incrementally: returns when the first outcome
/// line arrived and how many lines the stream carried before it closed.
fn stream_outcomes(addr: SocketAddr, id: &str) -> Result<(Instant, usize), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("stream connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "GET /runs/{id}/stream?from=0 HTTP/1.0\r\n{PROTO_VERSION_HEADER}: {PROTO_VERSION}\r\n\
         Content-Length: 0\r\n\r\n"
    );
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("stream request: {e}"))?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    let mut body_at = None;
    let mut first = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("stream read: {e}"))?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if body_at.is_none() {
            body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            if let Some(at) = body_at {
                let status = String::from_utf8_lossy(&raw[..at]);
                if !status.starts_with("HTTP/1.0 200") && !status.starts_with("HTTP/1.1 200") {
                    return Err(format!(
                        "stream refused: {}",
                        status.lines().next().unwrap_or("")
                    ));
                }
            }
        }
        if first.is_none() {
            if let Some(at) = body_at {
                if raw[at..].contains(&b'\n') {
                    first = Some(Instant::now());
                }
            }
        }
    }
    let body = &raw[body_at.ok_or("stream response has no head")?..];
    let lines = body
        .split(|&b| b == b'\n')
        .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
        .count();
    Ok((first.ok_or("stream closed before any outcome")?, lines))
}

/// Submits with retries on backpressure; returns the run id.
fn submit(client: &Client, payload: &str, name: &str) -> Result<String, String> {
    let mut attempts = 0;
    loop {
        match client.submit(payload, name, true, SHARD_SIZE) {
            Ok((_, status)) => return Ok(status.id),
            Err(ClientError::Rejected { kind, .. }) if kind == "QueueFull" => {
                attempts += 1;
                if attempts > QUEUE_FULL_RETRIES {
                    return Err(format!("{name}: queue stayed full"));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("{name}: submission refused: {e}")),
        }
    }
}

/// One submission of the closed loop, with wire spans when traced.
fn one_submission(
    shared: &RoundShared<'_>,
    client: &Client,
    name: &str,
    k: usize,
    tracer: &mut Tracer,
) -> Result<Sample, String> {
    let variant = shared.plan[k];
    let group = k as u64;
    let root = tracer.open("serve.submission", None, group);
    let start = Instant::now();

    let span = tracer.open("serve.submit", Some(root), group);
    let id = submit(client, &shared.payloads[variant], name)?;
    tracer.close(span);
    let submit_s = secs(start);

    let stream_start = Instant::now();
    let (first, lines) = stream_outcomes(shared.addr, &id)?;
    let stream_end = Instant::now();
    tracer.record("serve.stream_first", Some(root), group, stream_start, first);
    tracer.record("serve.stream_rest", Some(root), group, first, stream_end);
    if lines as u64 != SCENARIOS_PER_SPEC {
        return Err(format!("{name}: run {id} streamed {lines} outcomes"));
    }

    let span = tracer.open("serve.status", Some(root), group);
    let status = client
        .status(&id)
        .map_err(|e| format!("{name}: status: {e}"))?;
    tracer.close(span);
    if status.state != "complete" {
        return Err(format!("{name}: run {id} ended {}", status.state));
    }

    let span = tracer.open("serve.result", Some(root), group);
    let bytes = client
        .result(&id)
        .map_err(|e| format!("{name}: result: {e}"))?;
    tracer.close(span);
    let result_s = secs(start);
    tracer.close(root);

    let mut results = shared.results.lock().expect("no client panics holding it");
    let seen = results.entry(variant).or_insert_with(|| bytes.clone());
    if *seen != bytes {
        return Err(format!("{name}: variant {variant} result bytes differ"));
    }
    Ok(Sample {
        submit_s,
        first_outcome_s: first.saturating_duration_since(start).as_secs_f64(),
        result_s,
    })
}

fn client_loop(shared: &RoundShared<'_>, index: usize, traced: bool) -> ClientOutcome {
    let client = Client::new(shared.addr).with_timeout(Duration::from_secs(60));
    let name = format!("bench-{index}");
    let mut tracer = Tracer::new(traced);
    let mut outcome = ClientOutcome::default();
    loop {
        let k = shared.next.fetch_add(1, Ordering::SeqCst);
        if k >= shared.plan.len() {
            break;
        }
        match one_submission(shared, &client, &name, k, &mut tracer) {
            Ok(sample) => outcome.samples.push(sample),
            Err(e) => outcome.failures.push(e),
        }
    }
    outcome.tracer = Some(tracer);
    outcome
}

/// Starts a daemon on a fresh `dir`; returns it with its set-up time (to
/// the first answered `/stats`).
fn start_daemon(dir: &Path) -> Result<(Server, Result<f64, String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.to_path_buf(),
        ..Default::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let stats = Client::new(server.addr()).stats();
    let setup_s = secs(start);
    Ok((
        server,
        stats
            .map(|_| setup_s)
            .map_err(|e| format!("first /stats: {e}")),
    ))
}

/// Set-up times of daemons started and stopped with no load, so the
/// set-up median rests on more samples than there are rounds.
fn setup_probes(dir: &Path, probes: usize) -> Result<Vec<f64>, String> {
    (0..probes)
        .map(|_| {
            let (mut server, setup) = start_daemon(dir)?;
            server.stop();
            let _ = std::fs::remove_dir_all(dir);
            setup
        })
        .collect()
}

fn round(payloads: &[String], plan: &[usize], dir: &Path, traced: bool) -> Result<Round, String> {
    let (mut server, first_stats) = start_daemon(dir)?;
    let client = Client::new(server.addr());
    let outcome = first_stats.and_then(|setup_s| {
        let shared = RoundShared {
            addr: server.addr(),
            payloads,
            plan,
            next: AtomicUsize::new(0),
            results: Mutex::new(HashMap::new()),
        };
        let loop_start = Instant::now();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let shared = &shared;
                    scope.spawn(move || client_loop(shared, i, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let wall_s = secs(loop_start);
        let stats = client.stats().map_err(|e| format!("/stats: {e}"))?;
        let mut spans = Tracer::new(traced);
        let (mut samples, mut failures) = (Vec::new(), Vec::new());
        for o in outcomes {
            samples.extend(o.samples);
            failures.extend(o.failures);
            spans.absorb(o.tracer.expect("set by every client"));
        }
        Ok(Round {
            setup_s,
            wall_s,
            samples,
            failures,
            results: shared.results.into_inner().expect("clients joined"),
            stats,
            spans,
        })
    });
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

/// The plan's payloads: every variant the plan names, serialized.
fn payloads(seed: u64, plan: &[usize]) -> Result<Vec<String>, String> {
    let variants = plan.iter().max().map_or(0, |m| m + 1);
    (0..variants)
        .map(|i| serde_json::to_string(&serve_variant(seed, i)).map_err(|e| e.to_string()))
        .collect()
}

/// Runs rounds until `seconds` have passed (at least one).
fn rounds(
    seed: u64,
    seconds: f64,
    work: &Path,
    traced: bool,
) -> Result<(Vec<Round>, Vec<usize>), String> {
    let mut out = Vec::new();
    let budget = Instant::now();
    while out.is_empty() || budget.elapsed().as_secs_f64() < seconds {
        let plan = round_plan(seed, out.len());
        let payloads = payloads(seed, &plan)?;
        out.push(round(&payloads, &plan, &work.join("daemon"), traced)?);
    }
    Ok((out, round_plan(seed, 0)))
}

/// The plan of round `r`: the seed's submission plan over the round's own
/// block of variants, so a run averages over many distinct specs.
fn round_plan(seed: u64, r: usize) -> Vec<usize> {
    let plan = serve_plan(seed, SUBMISSIONS_PER_ROUND);
    let block = plan.iter().max().map_or(0, |m| m + 1);
    plan.into_iter().map(|v| r * block + v).collect()
}

/// Counts failed submissions across rounds, plus the offline check of
/// variant 0 (submitted in round 0).
fn verify(seed: u64, rounds: &[Round], plan: &[usize], work: &Path) -> Result<u64, String> {
    let mut failed: u64 = rounds.iter().map(|r| r.failures.len() as u64).sum();
    let first = &rounds[0].results;
    let dir = work.join("offline-v0");
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = ExperimentContext::new(true);
    experiments::stream::run(&serve_variant(seed, 0), &ctx, &dir, &Default::default())
        .map_err(|e| format!("offline run: {e}"))?;
    let offline = experiments::stream::merge(&dir).map_err(|e| format!("offline merge: {e}"))?;
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    if first.get(&0).map(Vec::as_slice) != Some(result_bytes(&offline)?.as_bytes()) {
        failed += plan.iter().filter(|&&v| v == 0).count() as u64;
    }
    Ok(failed)
}

/// Runs the workload untraced for `seconds` and reports the end-to-end
/// metrics.
pub fn run_untraced(seed: u64, seconds: u64, work: &Path) -> Result<Report, String> {
    let setups = setup_probes(&work.join("probe"), SETUP_PROBES)?;
    let (rounds, plan) = rounds(seed, seconds as f64, work, false)?;
    let mut report = Report {
        attempted: (rounds.len() * plan.len()) as u64,
        failed: verify(seed, &rounds, &plan, work)?,
        ..Default::default()
    };
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let column = |f: fn(&Sample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let distinct = plan.iter().max().map_or(0, |m| m + 1) as u64;
    // Rates are medians of per-round rates, as robust as the walls.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = setups
        .into_iter()
        .chain(rounds.iter().map(|r| r.setup_s))
        .collect();
    report.set("setup_s", median(&setups));
    report.set("wall_s", per_round(&|r| r.wall_s));
    report.set(
        "scenarios_per_s",
        per_round(&|r| (distinct * SCENARIOS_PER_SPEC) as f64 / r.wall_s),
    );
    report.set(
        "specs_per_s",
        per_round(&|r| r.samples.len() as f64 / r.wall_s),
    );
    let results = column(|s| s.result_s);
    let firsts = column(|s| s.first_outcome_s);
    let (r90, f90) = (percentile(&results, 0.9), percentile(&firsts, 0.9));
    report.set("result_p50_s", percentile(&results, 0.5).value);
    report.set("result_p90_s", r90.value);
    report.set("first_outcome_p50_s", percentile(&firsts, 0.5).value);
    report.set("first_outcome_p90_s", f90.value);
    report.notes.push(format!(
        "{} rounds of {} submissions ({} distinct specs) from {CLIENTS} closed-loop clients; \
         {} samples, {} beyond p90{}",
        rounds.len(),
        plan.len(),
        distinct,
        r90.samples,
        r90.beyond,
        if r90.tail_supported() {
            ""
        } else {
            ": fewer than 10, not a supported tail"
        }
    ));
    for round in &rounds {
        for failure in &round.failures {
            report.notes.push(format!("failure: {failure}"));
        }
    }
    Ok(report)
}

/// Per variant: the replay walk's result bytes and its stream + merge's.
type ReplayBytes = BTreeMap<usize, (String, String)>;

/// Replays the plan on one resident context configured like the daemon's
/// (quick, memoized, incremental, database cache on disk): every first
/// submission of a variant is walked and then streamed and merged; repeats
/// are deduplicated as the daemon does. Returns the result bytes per
/// variant.
fn replay(
    seed: u64,
    plan: &[usize],
    work: &Path,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(ExperimentContext, ReplayBytes), String> {
    let root = work.join(if tracer.enabled() {
        "replay-traced"
    } else {
        "replay"
    });
    let _ = std::fs::remove_dir_all(&root);
    let ctx = ExperimentContext::new(true)
        .with_cache_dir(root.join("cache"))
        .with_sweep_options(SweepOptions {
            incremental: true,
            ..SweepOptions::default()
        });
    let mut out = BTreeMap::new();
    for (k, &variant) in plan.iter().enumerate() {
        if out.contains_key(&variant) {
            continue;
        }
        let spec = serve_variant(seed, variant);
        let walked = result_bytes(&walk(&spec, &ctx, tracer, k as u64, counts)?)?;
        let dir = root.join(format!("run-{variant}"));
        let merged = stream_and_merge(&spec, &ctx, &dir, tracer, k as u64, counts)?;
        out.insert(variant, (walked, result_bytes(&merged)?));
    }
    std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok((ctx, out))
}

/// Runs the workload traced: daemon rounds with wire spans for half the
/// budget, then the replay with spans on and off.
pub fn run_traced(seed: u64, seconds: u64, work: &Path) -> Result<(Report, Tracer), String> {
    let (rounds, plan) = rounds(seed, seconds as f64 / 2.0, work, true)?;
    let mut report = Report {
        attempted: (rounds.len() * plan.len()) as u64,
        failed: verify(seed, &rounds, &plan, work)?,
        ..Default::default()
    };

    let mut tracer = Tracer::new(true);
    let mut counts = LayerCounts::default();
    let start = Instant::now();
    let (ctx, traced) = replay(seed, &plan, work, &mut tracer, &mut counts)?;
    let traced_s = secs(start);
    let start = Instant::now();
    let (_, plain) = replay(
        seed,
        &plan,
        work,
        &mut Tracer::new(false),
        &mut LayerCounts::default(),
    )?;
    let untraced_s = secs(start);
    let daemon = &rounds[0].results;
    for (variant, (walked, merged)) in &traced {
        let repeats = plan.iter().filter(|&&v| v == *variant).count() as u64;
        let agrees = walked == merged
            && plain
                .get(variant)
                .is_some_and(|(w, m)| w == walked && m == merged)
            && daemon.get(variant).map(Vec::as_slice) == Some(walked.as_bytes());
        if !agrees {
            report.failed += repeats;
        }
    }

    let mut values = layer_values(&tracer, &counts, &ctx);
    let submits: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.submit_s))
        .collect();
    let sum = |f: fn(&qosrm_serve::StatsReport) -> u64| -> f64 {
        rounds.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let submissions = sum(|s| s.counters.submissions).max(1.0);
    values.insert("serve.submit_p50_s", percentile(&submits, 0.5).value);
    values.insert(
        "serve.http_requests_per_spec",
        sum(|s| s.counters.http_requests) / submissions,
    );
    values.insert(
        "serve.dedup_ratio",
        sum(|s| s.counters.deduplicated) / submissions,
    );
    values.insert(
        "serve.queue_full_rejections",
        sum(|s| s.counters.rejected_queue_full),
    );
    values.insert("serve.leases_granted", sum(|s| s.leases.granted));
    let mut spans = tracer;
    for round in rounds {
        spans.absorb(round.spans);
    }
    let serve_self = spans.self_times().get("serve").copied().unwrap_or(0.0);
    values.insert("self_s.serve", serve_self);
    values.insert("trace.walk_s", traced_s);
    values.insert("trace.overhead_s", traced_s - untraced_s);
    report.metrics = values;
    report.notes.push(format!(
        "replay of {} submissions ({} distinct specs): traced {traced_s:.4} s, untraced \
         {untraced_s:.4} s",
        plan.len(),
        traced.len()
    ));
    Ok((report, spans))
}
