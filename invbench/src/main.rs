//! The repository benchmark. See `invbench/README.md`.
//!
//! ```text
//! invbench --workload serve-5q-open|serve-14q-drift|paper-pipeline|all
//!          --seed N --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! Prints a human-readable report per workload, then (as the last line
//! for a single workload) one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced replay with `--trace 1`. Exits 1 when
//! an output check fails, 3 when the generator ran too late to score the
//! run, 2 on any other error.

mod gen;
mod pipeline;
mod replay;
mod report;
mod serve;
mod server;
mod stats;
mod trace;

use invmeas_service::PolicyKind;
use report::{Metric, Report, END_TO_END, PER_LAYER};
use serve::{LiveRun, Scored, Started};
use stats::{median, Samples};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in run order for `--workload all`.
const WORKLOADS: [&str; 3] = ["serve-5q-open", "serve-14q-drift", "paper-pipeline"];
/// Server start-ups per serve run; `setup_s` is their median. A start-up
/// takes 40–80 ms, and the host's speed moves within a second: over 8
/// alternating runs each, the median of 11 spread 0.31 (IQR over median)
/// and the median of 31 spread 0.05.
const SERVE_SETUP_REPS: usize = 31;
/// Pipeline set-ups timed together in one `setup_s` sample. One set-up
/// takes ~8 ms, and the host's slow spells last seconds, so a sample is
/// taken before every pass and after the last: the samples span the run,
/// and `setup_s` is their median time per set-up.
const PIPELINE_SETUP_BATCH: usize = 10;
/// Minimum pipeline passes, so `submit_p90_ms` has ≥ 100 samples.
const PIPELINE_MIN_PASSES: usize = 3;
/// An open-loop run whose sends were later than this at p99 is invalid:
/// the generator, not the server, shaped its latencies.
const LATE_P99_BOUND_MS: f64 = 10.0;
/// Measurements of `serve-5q-open` before a late generator makes the run
/// invalid.
const OPEN_ATTEMPTS: usize = 3;
/// Submits per calibration window the replay of `serve-14q-drift`
/// re-executes: untraced (verification only) and traced.
const DRIFT_VERIFY_PER_WINDOW: usize = 3;
const DRIFT_TRACE_PER_WINDOW: usize = 10;
/// A verification-only replay of `serve-5q-open` re-executes every
/// characterize and every this-many-th submit.
const OPEN_VERIFY_EVERY: usize = 4;
/// Events per chunk when the untraced and traced replays alternate.
const REPLAY_CHUNK: usize = 16;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server-bin" => args.server_bin = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.server_bin.as_os_str().is_empty() {
        return Err("--server-bin is required".into());
    }
    Ok(args)
}

enum Outcome {
    Scored(Report),
    Invalid(Report),
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("invbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let out_dir = PathBuf::from(".invbench");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("invbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut code = 0u8;
    for name in names {
        let result = match name {
            "serve-5q-open" => run_open(&args, &run_dir),
            "serve-14q-drift" => run_drift(&args, &run_dir),
            _ => run_pipeline(&args, &run_dir),
        };
        match result {
            Ok(Outcome::Scored(mut report)) => {
                check_metrics(&mut report, args.trace);
                print!("{}", report.render());
                println!("{}", report.json(args.trace));
                if !report.correct {
                    code = code.max(1);
                }
            }
            Ok(Outcome::Invalid(report)) => {
                eprint!("{}", report.render());
                eprintln!("invbench: {name}: generator ran late beyond its bound; run not scored");
                code = code.max(3);
            }
            Err(e) => {
                eprintln!("invbench: {name}: {e}");
                code = 2;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    ExitCode::from(code)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

type Res<T> = Result<T, Box<dyn std::error::Error>>;

// ---------------------------------------------------------------------------
// Shared metric helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile `p` of `values` as a metric, noting when the
/// sample cannot support it (fewer than 10 samples beyond).
fn pct_metric(name: &str, unit: &str, values: &[f64], p: f64) -> Metric {
    let s = Samples::new(values.to_vec());
    let value = s.percentile(p).unwrap_or(0.0);
    let m = Metric::new(name, unit, value, s.len());
    if s.is_empty() {
        m.note("no samples")
    } else if !stats::supported(p, s.len()) {
        m.note(format!(
            "p{p} unsupported: {} beyond, needs {}",
            stats::beyond(p, s.len()),
            stats::MIN_BEYOND
        ))
    } else {
        m.note(format!("p{p}, nearest rank"))
    }
}

/// Samples per segment, and segments at most, of the segmented submit
/// percentiles (see [`stats::segmented`]).
const SEGMENT_MIN: usize = 400;
const SEGMENTS_MAX: usize = 10;

/// A scored submit percentile: the median over up to 10 equal-count
/// stretches of the run (at least 400 submits each) of the stretch's
/// nearest-rank percentile; the whole run when it has fewer samples.
fn seg_metric(name: &str, values: &[f64], p: f64) -> Metric {
    let per_segment = Samples::new(stats::segmented(values, p, SEGMENT_MIN, SEGMENTS_MAX));
    let k = per_segment.len().max(1);
    let per = values.len() / k;
    let m = Metric::new(
        name,
        "ms",
        per_segment.median().unwrap_or(0.0),
        values.len(),
    );
    if stats::supported(p, per) {
        m.note(format!(
            "p{p}, median over {k} segments of ~{per} (segments {:.3}..{:.3})",
            per_segment.percentile(1.0).unwrap_or(0.0),
            per_segment.percentile(100.0).unwrap_or(0.0)
        ))
    } else {
        m.note(format!("p{p} unsupported: segments of {per} samples"))
    }
}

/// The run's own p90, reported next to the scored median of segments so
/// stalls confined to a few segments stay visible.
fn whole_run_p90(values: &[f64]) -> Metric {
    let m = pct_metric("submit_p90_run_ms", "ms", values, 90.0);
    let note = format!("{}, whole run", m.note);
    m.note(note)
}

/// Mean PST per pool entry under `policy`, summed, over the same sum for
/// baseline — entries missing either policy are left out, so the ratio
/// does not depend on how the random mix split programs among policies.
fn stratified_gain(submits: &[Scored], policy: PolicyKind) -> (f64, usize) {
    let mut by_entry: BTreeMap<usize, [(f64, u64); 2]> = BTreeMap::new();
    for s in submits {
        let slot = if s.policy == PolicyKind::Baseline {
            0
        } else if s.policy == policy {
            1
        } else {
            continue;
        };
        let e = by_entry.entry(s.entry).or_insert([(0.0, 0); 2]);
        e[slot].0 += s.pst;
        e[slot].1 += 1;
    }
    let (mut num, mut den, mut n) = (0.0, 0.0, 0);
    for [base, pol] in by_entry.values() {
        if base.1 > 0 && pol.1 > 0 {
            den += base.0 / base.1 as f64;
            num += pol.0 / pol.1 as f64;
            n += (base.1 + pol.1) as usize;
        }
    }
    (if den > 0.0 { num / den } else { 0.0 }, n)
}

fn generator_lines(live: &LiveRun, open_loop: bool) -> Vec<String> {
    let late = Samples::new(live.lateness_ms.clone());
    vec![
        format!(
            "{} loop, {} threads, {} connections (nproc {})",
            if open_loop { "open" } else { "closed" },
            live.threads,
            live.connections,
            nproc()
        ),
        format!(
            "send lateness vs schedule: median {:.4} ms, p99 {:.4} ms, n={}{}",
            late.median().unwrap_or(0.0),
            late.percentile(99.0).unwrap_or(0.0),
            late.len(),
            if open_loop {
                format!(" (run invalid above {LATE_P99_BOUND_MS} ms at p99)")
            } else {
                " (status polls; submits are closed-loop)".to_string()
            }
        ),
        format!(
            "repeated circuits: {:.3} of {} submits",
            live.repeated_share,
            live.submits.len()
        ),
        format!("503 busy answers: {} (failed, not replayed)", live.busy),
    ]
}

fn late_p99(live: &LiveRun) -> f64 {
    Samples::new(live.lateness_ms.clone())
        .percentile(99.0)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

fn run_open(args: &Args, run_dir: &Path) -> Res<Outcome> {
    let mut attempt = 0;
    loop {
        let started = serve::start(
            &args.server_bin,
            nproc(),
            run_dir,
            false,
            &serve::open_warm(),
            SERVE_SETUP_REPS,
        )?;
        let live = serve::open_5q(&started, args.seed, args.seconds)?;
        let valid = late_p99(&live) <= LATE_P99_BOUND_MS;
        if !valid && attempt + 1 < OPEN_ATTEMPTS {
            eprintln!(
                "invbench: generator p99 lateness {:.3} ms over bound; measuring again",
                late_p99(&live)
            );
            started.server.shutdown()?;
            attempt += 1;
            continue;
        }
        let report = finish_serve("serve-5q-open", args, run_dir, started, &live, None)?;
        return Ok(if valid {
            Outcome::Scored(report)
        } else {
            Outcome::Invalid(report)
        });
    }
}

fn run_drift(args: &Args, run_dir: &Path) -> Res<Outcome> {
    let started = serve::start(
        &args.server_bin,
        nproc(),
        run_dir,
        true,
        &serve::drift_warm(),
        SERVE_SETUP_REPS,
    )?;
    let live = serve::drift_14q(&started, args.seed, args.seconds, nproc())?;
    let report = finish_serve(
        "serve-14q-drift",
        args,
        run_dir,
        started,
        &live,
        Some(DRIFT_VERIFY_PER_WINDOW),
    )?;
    Ok(Outcome::Scored(report))
}

/// What a replay pass measured.
struct ReplayRun {
    wall: Duration,
    mismatches: Vec<(u64, String, String)>,
}

impl ReplayRun {
    fn take(r: &mut replay::Replayer<'_>, wall: Duration) -> Self {
        ReplayRun {
            wall,
            mismatches: std::mem::take(&mut r.tally.mismatches),
        }
    }
}

fn note_mismatches(report: &mut Report, run: &ReplayRun, which: &str) {
    for (id, live, got) in run.mismatches.iter().take(3) {
        report.problems.push(format!(
            "{which} replay of request {id} differs from the live response:\n     live:   {}\n     replay: {}",
            truncate(live),
            truncate(got)
        ));
    }
    if !run.mismatches.is_empty() {
        report.problems.push(format!(
            "{which} replay: {} responses differ",
            run.mismatches.len()
        ));
        report.failed = (report.failed + run.mismatches.len() as u64).min(report.attempted);
    }
}

fn truncate(s: &str) -> String {
    s.chars().take(240).collect()
}

fn finish_serve(
    name: &str,
    args: &Args,
    run_dir: &Path,
    started: Started,
    live: &LiveRun,
    verify_per_window: Option<usize>,
) -> Res<Report> {
    let setup_s = median(&started.setup_s);
    let setup_n = started.setup_s.len();
    let keep_dir = started.profile_dir.is_some();
    started.server.shutdown()?;

    let mut report = Report {
        workload: name.to_string(),
        attempted: live.attempted,
        failed: live.failed,
        problems: live.problems.clone(),
        generator: generator_lines(live, verify_per_window.is_none()),
        ..Report::default()
    };
    let replay_dir = |tag: &str| keep_dir.then(|| run_dir.join(format!("replay-{tag}")));

    // Fidelity: the replayed responses must equal the live ones.
    let events = match (args.trace, verify_per_window) {
        (true, Some(_)) => serve::sample_events(&live.events, DRIFT_TRACE_PER_WINDOW),
        (false, Some(k)) => serve::sample_events(&live.events, k),
        (true, None) => live.events.clone(),
        (false, None) => serve::every_nth_submit(&live.events, OPEN_VERIFY_EVERY),
    };
    // The untraced and traced replays advance through the events in
    // alternating chunks, so a slow spell of the host lands on both and
    // the overhead ratio compares like with like.
    let off = Tracer::off();
    let on = Tracer::on();
    let mut plain_r = replay::Replayer::new(replay_dir("plain"), &off);
    let mut traced_r = args
        .trace
        .then(|| replay::Replayer::new(replay_dir("traced"), &on));
    let (mut plain_wall, mut traced_wall, mut sims) = (Duration::ZERO, Duration::ZERO, 0);
    for chunk in events.chunks(REPLAY_CHUNK) {
        let t = Instant::now();
        plain_r.replay(chunk);
        plain_wall += t.elapsed();
        if let Some(r) = traced_r.as_mut() {
            let before = qsim::simulation_count();
            let t = Instant::now();
            r.replay(chunk);
            traced_wall += t.elapsed();
            sims += qsim::simulation_count() - before;
        }
    }
    let plain = ReplayRun::take(&mut plain_r, plain_wall);
    note_mismatches(&mut report, &plain, "untraced");
    let replayed_lines = events
        .iter()
        .filter(|e| matches!(e, replay::Event::Line { .. }))
        .count();
    report.generator.push(format!(
        "replay fidelity: {replayed_lines} of {} live responses re-executed in process, {} differ",
        live.events
            .iter()
            .filter(|e| matches!(e, replay::Event::Line { .. }))
            .count(),
        plain.mismatches.len()
    ));

    // End-to-end metrics.
    let client: Vec<f64> = live.submits.iter().map(|s| s.client_ms).collect();
    let (gain_sim, n_sim) = stratified_gain(&live.submits, PolicyKind::Sim);
    let (gain_aim, n_aim) = stratified_gain(&live.submits, PolicyKind::Aim);
    report.end_to_end = vec![
        Metric::new("setup_s", "s", setup_s, setup_n)
            .note("median of server spawn -> bound -> warm characterizations"),
        seg_metric("submit_p50_ms", &client, 50.0),
        seg_metric("submit_p90_ms", &client, 90.0),
        if verify_per_window.is_some() {
            Metric::new(
                "jobs_per_s",
                "1/s",
                live.submits.len() as f64 / live.duration_s.max(1e-9),
                live.submits.len(),
            )
            .note(format!("completed submits over {:.3} s", live.duration_s))
        } else {
            Metric::new(
                "jobs_per_s",
                "1/s",
                median(&live.burst_jobs_per_s),
                live.burst_jobs_per_s.len(),
            )
            .note(format!(
                "median over bursts of {} submits, {} in flight; the open loop offers {} /s",
                serve::SUBMIT_BURST_LEN,
                serve::SUBMIT_IN_FLIGHT,
                serve::OPEN_RATE
            ))
        },
        Metric::new(
            "characterize_s",
            "s",
            Samples::new(live.characterize_ms.clone())
                .median()
                .unwrap_or(0.0)
                / 1e3,
            live.characterize_ms.len(),
        )
        .note(if verify_per_window.is_some() {
            "median re-characterization (AWCT miss) round trip"
        } else {
            "median over bursts of wall time per cache-hit characterize, 8 in flight"
        }),
        Metric::new("server_rss_mb", "MB", live.rss_kb as f64 / 1024.0, 1)
            .note("server VmHWM at the end of the run"),
        Metric::new("pst_gain_sim", "ratio", gain_sim, n_sim)
            .note("per-program mean PST, summed, over baseline"),
        Metric::new("pst_gain_aim", "ratio", gain_aim, n_aim)
            .note("per-program mean PST, summed, over baseline"),
    ];
    let mut p99 = pct_metric("submit_p99_ms", "ms", &client, 99.0);
    if verify_per_window.is_some() {
        p99 = p99.note("reported on serve-5q-open; see submit_p90_ms here");
    }
    report.extra = vec![
        whole_run_p90(&client),
        p99,
        pct_metric("control_p99_ms", "ms", &live.status_ms, 99.0).note("inline status round trip"),
        if verify_per_window.is_some() {
            Metric::new(
                "recharacterize_p50_ms",
                "ms",
                Samples::new(live.characterize_ms.clone())
                    .median()
                    .unwrap_or(0.0),
                live.characterize_ms.len(),
            )
            .note("set-window then characterize awct (cache miss)")
        } else {
            Metric::new("recharacterize_p50_ms", "ms", 0.0, 0).note("n/a: no window changes here")
        },
        Metric::new("mitigate_s", "s", 0.0, 0).note("n/a: paper-pipeline only"),
        if verify_per_window.is_some() {
            Metric::new("characterize_loaded_p50_ms", "ms", 0.0, 0).note("n/a: serve-5q-open only")
        } else {
            pct_metric(
                "characterize_loaded_p50_ms",
                "ms",
                &live.characterize_loaded_ms,
                50.0,
            )
            .note("cache-hit characterize interleaved with the open loop")
        },
        Metric::new(
            "failed_ratio",
            "ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.attempted as usize,
        ),
    ];

    if let Some(mut replayer) = traced_r {
        let traced = ReplayRun::take(&mut replayer, traced_wall);
        note_mismatches(&mut report, &traced, "traced");
        let _ = on.write_jsonl(&run_dir.join("..").join(format!("spans-{name}.jsonl")));
        report.per_layer = serve_layers(
            live,
            &on,
            &replayer,
            &traced,
            &plain,
            sims,
            &events,
            verify_per_window.is_some(),
            run_dir,
        )?;
    }
    report.correct = report.problems.is_empty();
    Ok(report)
}

/// Per-layer figures common to the traced replays.
struct TraceFigures {
    by_name: BTreeMap<&'static str, u64>,
    unattributed_share: f64,
    overhead: f64,
}

fn trace_figures(
    spans: &[trace::Span],
    traced_wall: Duration,
    plain_wall: Duration,
) -> TraceFigures {
    let by_name = trace::self_time_by_name(spans);
    let wall = traced_wall.as_nanos() as f64;
    let attributed: u64 = by_name
        .iter()
        .filter(|(n, _)| **n != "request")
        .map(|(_, v)| v)
        .sum();
    TraceFigures {
        by_name,
        unattributed_share: ((wall - attributed as f64) / wall.max(1.0)).max(0.0),
        overhead: traced_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9),
    }
}

fn median_ns(spans: &[trace::Span], name: &str) -> (f64, usize) {
    let d: Vec<f64> = trace::durations(spans, name)
        .into_iter()
        .map(|v| v as f64)
        .collect();
    let n = d.len();
    (Samples::new(d).median().unwrap_or(0.0), n)
}

/// Self ms per span of `name` (0 when absent).
fn self_ms_per_span(f: &TraceFigures, spans: &[trace::Span], name: &str) -> (f64, usize) {
    let n = spans.iter().filter(|s| s.name == name).count();
    let total = f.by_name.get(name).copied().unwrap_or(0) as f64;
    (if n > 0 { total / n as f64 / 1e6 } else { 0.0 }, n)
}

/// Fuse and statevector probes over the distinct circuits of a workload:
/// `(fuse µs, fused ops, apply ms, bytes per simulation)` medians/means.
fn circuit_probes(circuits: &[qsim::Circuit]) -> (f64, f64, f64, f64, usize) {
    let (mut fuse_us, mut ops, mut apply_ms, mut bytes) = (Vec::new(), 0.0, Vec::new(), 0.0);
    for c in circuits {
        let t = Instant::now();
        let prog = std::hint::black_box(qsim::FusedProgram::from_circuit(c));
        fuse_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops += prog.n_ops() as f64;
        let t = Instant::now();
        let psi = std::hint::black_box(qsim::StateVector::from_circuit(c));
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        psi.recycle();
        bytes += (1u64 << c.n_qubits()) as f64 * 16.0 * prog.n_ops() as f64;
    }
    let n = circuits.len().max(1) as f64;
    (
        Samples::new(fuse_us).median().unwrap_or(0.0),
        ops / n,
        Samples::new(apply_ms).median().unwrap_or(0.0),
        bytes / n,
        circuits.len(),
    )
}

fn layer_map(metrics: Vec<Metric>) -> Vec<Metric> {
    let mut by: HashMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let mut m = by.remove(*name).unwrap_or_else(|| {
                Metric::new(name, unit, 0.0, 0).note("not exercised by this workload")
            });
            m.unit = unit.to_string();
            m
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    live: &LiveRun,
    on: &Tracer,
    replayer: &replay::Replayer<'_>,
    traced: &ReplayRun,
    plain: &ReplayRun,
    sims: u64,
    events: &[replay::Event],
    drift: bool,
    run_dir: &Path,
) -> Res<Vec<Metric>> {
    let spans = on.spans();
    let f = trace_figures(&spans, traced.wall, plain.wall);
    let (a, b) = (&live.before, &live.after);
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let mut m = Vec::new();
    let counter =
        |name: &str, v: f64| Metric::new(name, "count", v, 1).note("server counter delta");
    m.push(counter(
        "poll.epoll_wakeups",
        d(a.epoll_wakeups, b.epoll_wakeups),
    ));
    m.push(counter(
        "conn.frames_parsed",
        d(a.frames_parsed, b.frames_parsed),
    ));
    let wakeups = d(a.epoll_wakeups, b.epoll_wakeups);
    m.push(
        Metric::new(
            "poll.frames_per_wakeup",
            "ratio",
            d(a.frames_parsed, b.frames_parsed) / wakeups.max(1.0),
            wakeups as usize,
        )
        .note("frames parsed / epoll wakeups"),
    );
    m.push(counter(
        "conn.write_backpressure_events",
        d(a.write_backpressure_events, b.write_backpressure_events),
    ));
    let front = serve::frontend_ms(&live.submits);
    m.push(
        pct_metric("frontend.p50_ms", "ms", &front, 50.0).note("client latency minus latency_us"),
    );
    m.push(highest(
        pct_metric("frontend.p99_ms", "ms", &front, 99.0),
        &front,
    ));
    let (parse, n_parse) = median_ns(&spans, "protocol.parse");
    m.push(
        Metric::new("protocol.parse_us", "us", parse / 1e3, n_parse)
            .note("Request::from_line, median"),
    );
    let (ser, n_ser) = median_ns(&spans, "protocol.serialize");
    m.push(
        Metric::new("protocol.serialize_us", "us", ser / 1e3, n_ser)
            .note("Response::to_line, median"),
    );
    m.push(
        Metric::new(
            "protocol.response_bytes",
            "B",
            replayer.tally.response_bytes as f64 / replayer.tally.jobs.max(1) as f64,
            replayer.tally.jobs as usize,
        )
        .note("mean response line incl. newline"),
    );
    let job: Vec<f64> = live
        .submits
        .iter()
        .map(|s| s.server_us as f64 / 1e3)
        .collect();
    m.push(pct_metric("server.job_p50_ms", "ms", &job, 50.0).note("latency_us, enqueue to done"));
    m.push(highest(
        pct_metric("server.job_p99_ms", "ms", &job, 99.0),
        &job,
    ));
    // Replayed execution per request: the request span minus framing.
    let mut exec_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        match s.name {
            "request" => *exec_ns.entry(s.request).or_insert(0) += s.duration(),
            "protocol.parse" | "protocol.serialize" => {
                let e = exec_ns.entry(s.request).or_insert(0);
                *e = e.wrapping_sub(s.duration());
            }
            _ => {}
        }
    }
    let wait = serve::derived_queue_wait_ms(&live.submits, &exec_ns);
    m.push(
        pct_metric("queue.wait_p50_ms", "ms", &wait, 50.0)
            .note("derived: live latency_us minus replayed execution"),
    );
    m.push(
        Metric::new("queue.depth_peak", "count", b.queue_depth_peak as f64, 1).note("server gauge"),
    );
    m.push(counter("queue.steals", d(a.queue_steals, b.queue_steals)));
    m.push(counter(
        "queue.busy_rejections",
        d(a.busy_rejections, b.busy_rejections),
    ));
    m.push(counter(
        "queue.requests_shed",
        d(a.requests_shed, b.requests_shed),
    ));
    let hits = d(a.cache_hits, b.cache_hits);
    let misses = d(a.cache_misses, b.cache_misses);
    m.push(counter("cache.hits", hits));
    m.push(counter("cache.misses", misses));
    m.push(
        Metric::new(
            "cache.hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
            (hits + misses) as usize,
        )
        .note(format!("hits / lookups, base {} lookups", hits + misses)),
    );
    let hit_us = Samples::new(
        replayer
            .tally
            .cache_hit_ns
            .iter()
            .map(|&v| v as f64 / 1e3)
            .collect(),
    );
    m.push(
        Metric::new(
            "cache.hit_us",
            "us",
            hit_us.median().unwrap_or(0.0),
            hit_us.len(),
        )
        .note("get_or_measure hit, replay median"),
    );
    let miss_ms = Samples::new(
        replayer
            .tally
            .cache_miss_ns
            .iter()
            .map(|&v| v as f64 / 1e6)
            .collect(),
    );
    m.push(
        Metric::new(
            "cache.miss_ms",
            "ms",
            miss_ms.median().unwrap_or(0.0),
            miss_ms.len(),
        )
        .note("get_or_measure miss, replay median"),
    );

    // Characterization probes: the kernels the cache ran on each miss.
    let mut trials = 0u64;
    for e in events {
        if let replay::Event::Line { live, .. } = e {
            if let Ok(invmeas_service::Response::Characterize(r)) =
                invmeas_service::Response::from_line(live)
            {
                if r.cache == invmeas_service::CacheOutcome::Miss {
                    trials += r.trials;
                }
            }
        }
    }
    let windows: Vec<u64> = std::iter::once(0)
        .chain(events.iter().filter_map(|e| match e {
            replay::Event::SetWindow(w) => Some(*w),
            _ => None,
        }))
        .collect();
    if drift {
        let (awct, save, bytes) = journaled_probes(&windows, run_dir)?;
        m.push(
            Metric::new("rbms.awct_ms", "ms", median(&awct), awct.len())
                .note("probe: journaled AWCT per window, server budget and snapshot"),
        );
        m.push(
            Metric::new("profile_io.save_ms", "ms", median(&save), save.len())
                .note("probe: save_v2_with per window"),
        );
        m.push(
            Metric::new("profile_io.bytes_written", "B", bytes, save.len())
                .note("rbms v2 file size"),
        );
    } else {
        let brute = brute_probes(&["ibmqx2", "ibmqx4"]);
        m.push(
            Metric::new("rbms.brute_ms", "ms", median(&brute), brute.len())
                .note("probe: brute force at the server budget"),
        );
    }
    m.push(
        Metric::new("rbms.trials", "count", trials as f64, 1)
            .note("trials of characterizations that measured"),
    );
    m.push(counter(
        "journal.checkpoints",
        d(a.journal_checkpoints, b.journal_checkpoints),
    ));
    layer_core(&mut m, &f, &spans, &replayer.tally, sims);

    let mut seen = std::collections::BTreeSet::new();
    let mut circuits = Vec::new();
    for e in events {
        if let replay::Event::Line { request, .. } = e {
            if let Ok(invmeas_service::Request::Submit(r)) =
                invmeas_service::Request::from_line(request)
            {
                if seen.insert(r.qasm.clone()) {
                    circuits.push(qsim::qasm::from_qasm(&r.qasm)?);
                }
            }
        }
    }
    push_circuit_probes(&mut m, &circuits);
    m.push(counter("pool.tasks", d(a.pool_tasks, b.pool_tasks)));
    m.push(counter(
        "pool.barrier_waits",
        d(a.barrier_waits, b.barrier_waits),
    ));
    m.push(counter(
        "arena.reuse_hits",
        d(a.arena_reuse_hits, b.arena_reuse_hits),
    ));
    let route: Vec<f64> = live.route_s.iter().map(|s| s * 1e3).collect();
    m.push(
        Metric::new("mapper.route_ms", "ms", median(&route), route.len())
            .note("generator route_auto, median"),
    );
    m.push(
        Metric::new("trace.unattributed_share", "ratio", f.unattributed_share, 1)
            .note("replay wall not covered by a layer's self time"),
    );
    m.push(
        Metric::new("trace.overhead_ratio", "ratio", f.overhead, 1).note(format!(
            "traced {:.3} s / untraced {:.3} s replay wall",
            traced.wall.as_secs_f64(),
            plain.wall.as_secs_f64()
        )),
    );
    Ok(layer_map(m))
}

/// A p99 the sample cannot support is replaced by the highest one it can,
/// with the substitution noted.
fn highest(m: Metric, values: &[f64]) -> Metric {
    if !m.note.starts_with("p99 unsupported") {
        return m;
    }
    let s = Samples::new(values.to_vec());
    match s.highest_supported(&[99.0, 90.0]) {
        Some((p, v)) => Metric {
            value: v,
            note: format!("reported at p{p}: p99 needs 1000 samples"),
            ..m
        },
        None => m,
    }
}

/// Layer figures from the replay's spans and tallies.
fn layer_core(
    m: &mut Vec<Metric>,
    f: &TraceFigures,
    spans: &[trace::Span],
    tally: &replay::ReplayTally,
    sims: u64,
) {
    let (sim, n_sim) = self_ms_per_span(f, spans, "core.sim");
    m.push(
        Metric::new("sim.self_ms", "ms", sim, n_sim)
            .note("per SIM job, span minus executor children"),
    );
    let (aim, n_aim) = self_ms_per_span(f, spans, "core.aim");
    m.push(
        Metric::new("aim.self_ms", "ms", aim, n_aim)
            .note("per AIM job, span minus executor children"),
    );
    let calls = tally.exec.calls.get();
    m.push(Metric::new("executor.calls", "count", calls as f64, 1).note("TimedExecutor forwards"));
    m.push(Metric::new(
        "executor.circuits_per_call",
        "ratio",
        tally.exec.circuits.get() as f64 / calls.max(1) as f64,
        calls as usize,
    ));
    let jobs = spans
        .iter()
        .filter(|s| matches!(s.name, "core.sim" | "core.aim" | "core.baseline"))
        .count();
    let exec_self = f.by_name.get("noise.executor").copied().unwrap_or(0) as f64 / 1e6;
    m.push(
        Metric::new(
            "executor.self_ms",
            "ms",
            exec_self / jobs.max(1) as f64,
            jobs,
        )
        .note("per job"),
    );
    let (qasm, n_qasm) = median_ns(spans, "qsim.qasm");
    m.push(Metric::new("qasm.parse_us", "us", qasm / 1e3, n_qasm).note("from_qasm, median"));
    m.push(
        Metric::new("statevector.simulations", "count", sims as f64, 1)
            .note("qsim::simulation_count delta over the traced replay, exact"),
    );
    m.push(Metric::new(
        "statevector.simulations_per_job",
        "ratio",
        sims as f64 / jobs.max(1) as f64,
        jobs,
    ));
}

fn push_circuit_probes(m: &mut Vec<Metric>, circuits: &[qsim::Circuit]) {
    let (fuse_us, ops, apply_ms, bytes, n) = circuit_probes(circuits);
    m.push(
        Metric::new("fuse.us_per_circuit", "us", fuse_us, n)
            .note("probe: FusedProgram::from_circuit per distinct circuit"),
    );
    m.push(Metric::new("fuse.ops_per_circuit", "count", ops, n).note("mean fused ops"));
    m.push(
        Metric::new("statevector.apply_ms", "ms", apply_ms, n)
            .note("probe: StateVector::from_circuit, median"),
    );
    m.push(
        Metric::new("statevector.bytes_moved", "B", bytes, n)
            .note("computed: 2^n * 16 B * fused ops, per simulation"),
    );
}

fn brute_probes(devices: &[&str]) -> Vec<f64> {
    use rand::SeedableRng;
    let shots = invmeas_service::ServerConfig::default().profile_shots;
    devices
        .iter()
        .map(|d| {
            let model = qnoise::DeviceModel::by_name(d).expect("known device");
            let exec = qnoise::NoisyExecutor::from_device(&model);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let t = Instant::now();
            std::hint::black_box(invmeas::RbmsTable::brute_force(&exec, shots, &mut rng));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// AWCT width and stride of a 14-qubit characterization, as the profile
/// cache configures it (`ProfileMeta::window` records the width).
const AWCT_WIDTH: usize = 4;
const AWCT_STRIDE: usize = 2;

/// Journaled AWCT and `rbms v2` saves of ibmq-melbourne, once per
/// calibration window, on the server's drifted snapshot and budget. The
/// cache derives its characterization seed privately, so the probe uses
/// its own; the seed does not change the work.
fn journaled_probes(windows: &[u64], run_dir: &Path) -> Res<(Vec<f64>, Vec<f64>, f64)> {
    let (mut awct, mut save, mut bytes) = (Vec::new(), Vec::new(), 0.0);
    let journal = run_dir.join("probe.journal");
    let profile = run_dir.join("probe.rbms");
    let shots = invmeas_service::ServerConfig::default().profile_shots;
    for &w in windows {
        let snapshot = replay::snapshot("ibmq-melbourne", w).expect("known device");
        let exec = qnoise::NoisyExecutor::from_device(&snapshot);
        let spec = invmeas::CharSpec::awct(
            "ibmq-melbourne",
            snapshot.n_qubits(),
            AWCT_WIDTH,
            AWCT_STRIDE,
            shots,
            0x5eed + w,
        );
        let _ = std::fs::remove_file(&journal);
        let t = Instant::now();
        let (table, _) = invmeas::characterize_journaled(
            &exec,
            &spec,
            Some(&journal),
            &invmeas_faults::NoFaults,
        )?;
        awct.push(t.elapsed().as_secs_f64() * 1e3);
        let meta = invmeas::ProfileMeta {
            device: "ibmq-melbourne".into(),
            method: "awct".into(),
            seed: 0x5eed + w,
            window: AWCT_WIDTH,
        };
        let t = Instant::now();
        table.save_v2_with(&profile, &meta, &invmeas_faults::NoFaults)?;
        save.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = std::fs::metadata(&profile)?.len() as f64;
    }
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&profile);
    Ok((awct, save, bytes))
}

// ---------------------------------------------------------------------------
// Paper pipeline
// ---------------------------------------------------------------------------

fn run_pipeline(args: &Args, run_dir: &Path) -> Res<Outcome> {
    let threads = nproc();
    let mut setup_s = Vec::new();
    let mut setup_sample = || {
        let t = Instant::now();
        let mut built = pipeline::setup(threads);
        for _ in 1..PIPELINE_SETUP_BATCH {
            built = std::hint::black_box(pipeline::setup(threads));
        }
        setup_s.push(t.elapsed().as_secs_f64() / PIPELINE_SETUP_BATCH as f64);
        built
    };
    let (devices, route_s) = setup_sample();

    let counters = || {
        (
            qsim::pool::pool_tasks(),
            qsim::pool::barrier_waits(),
            qsim::arena::arena_reuse_hits(),
        )
    };
    let before = counters();
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < PIPELINE_MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        if !passes.is_empty() {
            setup_sample();
        }
        passes.push(pipeline::pass(
            &devices,
            args.seed,
            passes.len() as u64,
            threads,
            pipeline::Mode::Runner,
        ));
    }
    let after = counters();
    setup_sample();
    let rss_kb = server::vm_hwm_kb("/proc/self/status").unwrap_or(0);

    let evals: Vec<&pipeline::Eval> = passes.iter().flat_map(|p| &p.evals).collect();
    let mut report = Report {
        workload: "paper-pipeline".into(),
        attempted: (evals.len() + passes.iter().map(|p| p.tables.len()).sum::<usize>()) as u64,
        ..Report::default()
    };
    for e in &evals {
        if e.total != e.shots {
            report.failed += 1;
            report.problems.push(format!(
                "{} {} {}: log total {} != shots {}",
                e.device,
                e.bench,
                e.policy.as_str(),
                e.total,
                e.shots
            ));
        }
    }
    let high = pipeline::pst_gain(&evals, PolicyKind::Aim, |e| e.high_weight);
    if high <= 1.0 {
        report.problems.push(format!(
            "AIM does not beat baseline on high-weight answers: PST ratio {high:.4}"
        ));
    }
    report.generator = vec![
        format!(
            "in process, {threads} executor threads, {} passes, no service",
            passes.len()
        ),
        format!("AIM / baseline PST on high-weight answers: {high:.4} (must exceed 1)"),
    ];

    let eval_ms: Vec<f64> = evals.iter().map(|e| e.ms).collect();
    let char_s: Vec<f64> = passes.iter().map(|p| p.characterize_s).collect();
    let mit_s: Vec<f64> = passes.iter().map(|p| p.mitigate_s).collect();
    let all = |_: &pipeline::Eval| true;
    report.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len())
            .note(format!(
                "median over samples between passes of {PIPELINE_SETUP_BATCH} device/executor constructions + routings, per set-up"
            )),
        seg_metric("submit_p50_ms", &eval_ms, 50.0),
        seg_metric("submit_p90_ms", &eval_ms, 90.0),
        Metric::new(
            "jobs_per_s",
            "1/s",
            evals.len() as f64 / mit_s.iter().sum::<f64>().max(1e-9),
            evals.len(),
        )
        .note("evaluations per second of the mitigation phase"),
        Metric::new("characterize_s", "s", median(&char_s), char_s.len())
            .note("median characterization phase per pass"),
        Metric::new("server_rss_mb", "MB", rss_kb as f64 / 1024.0, 1)
            .note("VmHWM of the in-process pipeline"),
        Metric::new(
            "pst_gain_sim",
            "ratio",
            pipeline::pst_gain(&evals, PolicyKind::Sim, all),
            evals.len(),
        )
        .note("summed PST over summed baseline PST"),
        Metric::new(
            "pst_gain_aim",
            "ratio",
            pipeline::pst_gain(&evals, PolicyKind::Aim, all),
            evals.len(),
        )
        .note("summed PST over summed baseline PST"),
    ];
    report.extra = vec![
        whole_run_p90(&eval_ms),
        pct_metric("submit_p99_ms", "ms", &eval_ms, 99.0),
        Metric::new("control_p99_ms", "ms", 0.0, 0).note("n/a: no service"),
        Metric::new("recharacterize_p50_ms", "ms", 0.0, 0).note("n/a: no window changes"),
        Metric::new("mitigate_s", "s", median(&mit_s), mit_s.len())
            .note("median evaluation phase per pass"),
        Metric::new(
            "failed_ratio",
            "ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.attempted as usize,
        ),
    ];

    if args.trace {
        // Replay pass 0 on one thread, untraced, traced, untraced; outputs
        // must equal the threaded pass (thread-invariant numerics).
        let off = Tracer::off();
        let quiet = replay::ExecTally::default();
        let t = Instant::now();
        let plain = pipeline::pass(
            &devices,
            args.seed,
            0,
            1,
            pipeline::Mode::Replay(&off, &quiet),
        );
        let mut plain_wall = t.elapsed();
        let on = Tracer::on();
        let tally = replay::ReplayTally::default();
        let sims = qsim::simulation_count();
        let t = Instant::now();
        let traced = pipeline::pass(
            &devices,
            args.seed,
            0,
            1,
            pipeline::Mode::Replay(&on, &tally.exec),
        );
        let traced_wall = t.elapsed();
        let sims = qsim::simulation_count() - sims;
        // A second untraced pass after the traced one: the overhead ratio
        // compares against their mean, so warm-up favours neither side.
        let t = Instant::now();
        pipeline::pass(
            &devices,
            args.seed,
            0,
            1,
            pipeline::Mode::Replay(&off, &quiet),
        );
        plain_wall = (plain_wall + t.elapsed()) / 2;
        for (which, replayed) in [("untraced", &plain), ("traced", &traced)] {
            let same = replayed.tables == passes[0].tables
                && replayed.evals.len() == passes[0].evals.len()
                && replayed
                    .evals
                    .iter()
                    .zip(&passes[0].evals)
                    .all(|(a, b)| a.ranked == b.ranked && a.pst == b.pst);
            if !same {
                report.problems.push(format!(
                    "{which} one-thread replay of pass 0 differs from the {threads}-thread pass"
                ));
            }
        }
        let _ = on.write_jsonl(&run_dir.join("..").join("spans-paper-pipeline.jsonl"));
        let spans = on.spans();
        let f = trace_figures(&spans, traced_wall, plain_wall);
        let mut m = Vec::new();
        for (name, span) in [
            ("rbms.brute_ms", "rbms.brute"),
            ("rbms.esct_ms", "rbms.esct"),
            ("rbms.awct_ms", "rbms.awct"),
        ] {
            let (v, n) = median_ns(&spans, span);
            m.push(Metric::new(name, "ms", v / 1e6, n).note("span median"));
        }
        m.push(
            Metric::new("rbms.trials", "count", passes[0].trials as f64, 1).note("trials per pass"),
        );
        layer_core(&mut m, &f, &spans, &tally, sims);
        let circuits: Vec<qsim::Circuit> = devices
            .iter()
            .flat_map(|d| d.suite.iter().map(|(_, r)| r.circuit().clone()))
            .collect();
        push_circuit_probes(&mut m, &circuits);
        let per_pass = |x: u64, y: u64| (y - x) as f64 / passes.len() as f64;
        m.push(
            Metric::new(
                "pool.tasks",
                "count",
                per_pass(before.0, after.0),
                passes.len(),
            )
            .note("per pass, in-process counter"),
        );
        m.push(
            Metric::new(
                "pool.barrier_waits",
                "count",
                per_pass(before.1, after.1),
                passes.len(),
            )
            .note("per pass"),
        );
        m.push(
            Metric::new(
                "arena.reuse_hits",
                "count",
                per_pass(before.2, after.2),
                passes.len(),
            )
            .note("per pass"),
        );
        let route: Vec<f64> = route_s.iter().map(|s| s * 1e3).collect();
        m.push(
            Metric::new("mapper.route_ms", "ms", median(&route), route.len())
                .note("route_auto in set-up, median"),
        );
        m.push(Metric::new(
            "trace.unattributed_share",
            "ratio",
            f.unattributed_share,
            1,
        ));
        m.push(
            Metric::new("trace.overhead_ratio", "ratio", f.overhead, 1).note(format!(
                "traced {:.3} s / mean untraced {:.3} s one-thread pass",
                traced_wall.as_secs_f64(),
                plain_wall.as_secs_f64()
            )),
        );
        report.per_layer = layer_map(m);
    }
    report.correct = report.problems.is_empty();
    Ok(Outcome::Scored(report))
}

/// The emitted metrics must be exactly the declared ones, in order: every
/// value finite, per-layer values non-negative, end-to-end values
/// positive (a zero end-to-end figure means nothing was measured).
fn check_metrics(report: &mut Report, traced: bool) {
    let mut problems = Vec::new();
    if traced {
        let names: Vec<&str> = report.per_layer.iter().map(|m| m.name.as_str()).collect();
        if names != PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>() {
            problems.push("per-layer metrics differ from the declared list".to_string());
        }
        for m in &report.per_layer {
            if !(m.value.is_finite() && m.value >= 0.0) {
                problems.push(format!("per-layer {} is {}", m.name, m.value));
            }
        }
    } else {
        let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
        if names != END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>() {
            problems.push("end-to-end metrics differ from the declared list".to_string());
        }
        for m in &report.end_to_end {
            if !(m.value.is_finite() && m.value > 0.0) {
                problems.push(format!("end-to-end {} is {}", m.name, m.value));
            }
        }
    }
    if !problems.is_empty() {
        report.correct = false;
        report.problems.extend(problems);
    }
}
