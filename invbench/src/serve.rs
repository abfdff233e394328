//! The two live service workloads: an open loop of cheap 5-qubit jobs and
//! a closed loop of 14-qubit jobs under calibration drift. Each drives the
//! `invmeas serve` process through at most two connections from at most
//! two threads, and records everything the replay and the report need.

use crate::gen::{self, MixItem, Pool, SplitMix64};
use crate::replay::Event;
use crate::server::{LineConn, ServerProc};
use invmeas_service::poll::{Interest, PollEvent, Poller};
use invmeas_service::{MethodKind, PolicyKind, Response};
use qmetrics::CountersSnapshot;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Submit arrival rate of `serve-5q-open`, per second: half of the
/// ~960/s the server sustains in the saturating bursts below on a 2-CPU
/// container, and below the ~600/s up to which a 20 s Poisson run draws
/// no `503 busy` (see the README). Fixed, so every run offers the same
/// load.
pub const OPEN_RATE: f64 = 480.0;
/// Control-connection operations per second on `serve-5q-open`; every
/// sixth is a cache-hit `characterize`, the rest inline `status`.
pub const OPEN_CONTROL_RATE: f64 = 150.0;
/// Bursts of cache-hit `characterize` calls after the open loop, calls
/// per burst, and calls kept in flight (well under the 32-deep queue).
pub const CHARACTERIZE_BURSTS: usize = 9;
pub const CHARACTERIZE_BURST_LEN: usize = 100;
pub const CHARACTERIZE_IN_FLIGHT: usize = 8;
/// Saturating bursts of submits after the open loop, submits per burst,
/// and submits kept in flight (half the 32-deep queue, so none is
/// refused): the server's throughput on this workload.
pub const SUBMIT_BURSTS: usize = 10;
pub const SUBMIT_BURST_LEN: usize = 500;
pub const SUBMIT_IN_FLIGHT: usize = 16;
/// Shot budgets drawn for 5-qubit submits.
pub const OPEN_SHOTS: [u64; 3] = [256, 320, 384];
/// Shot budget of 14-qubit submits (noise trajectories make each shot
/// cost ~0.4 ms, so a few dozen shots already make a 20–100 ms job).
pub const DRIFT_SHOTS: [u64; 1] = [48];
/// Completed 14-qubit jobs per calibration window.
pub const DRIFT_JOBS_PER_WINDOW: usize = 50;
/// Inline `status` polls per second on the 14-qubit control connection.
pub const DRIFT_STATUS_RATE: f64 = 100.0;
/// Seeded Bernstein-Vazirani secrets added to `suite_q14`.
pub const DRIFT_EXTRA_SECRETS: usize = 4;

/// One scored submit.
#[derive(Debug, Clone)]
pub struct Scored {
    /// Request id.
    pub id: u64,
    /// Pool entry (program) submitted.
    pub entry: usize,
    /// Client-side latency, ms.
    pub client_ms: f64,
    /// The server's enqueue-to-done latency, µs.
    pub server_us: u64,
    /// Policy.
    pub policy: PolicyKind,
    /// PST the server reported.
    pub pst: f64,
}

/// Everything one live run produced.
#[derive(Debug)]
pub struct LiveRun {
    /// Replayable inputs in execution order, with the live responses.
    pub events: Vec<Event>,
    /// Successful submits.
    pub submits: Vec<Scored>,
    /// Inline `status` round trips, ms.
    pub status_ms: Vec<f64>,
    /// Scored `characterize` times, ms: re-characterization round trips
    /// on `serve-14q-drift`; on `serve-5q-open`, the time per call of
    /// bursts of cache hits after the open loop.
    pub characterize_ms: Vec<f64>,
    /// Cache-hit `characterize` round trips interleaved with the open
    /// loop, ms (`serve-5q-open` only).
    pub characterize_loaded_ms: Vec<f64>,
    /// Completions per second of each saturating submit burst after the
    /// open loop (`serve-5q-open` only).
    pub burst_jobs_per_s: Vec<f64>,
    /// Send lateness against the schedule, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests attempted (submits and characterizes).
    pub attempted: u64,
    /// Of those, failed or wrong.
    pub failed: u64,
    /// Of the failed, answered `503 busy` (backpressure).
    pub busy: u64,
    /// Human-readable reasons for failures.
    pub problems: Vec<String>,
    /// Measured span, s.
    pub duration_s: f64,
    /// Server counters at the start and the end of the measurement.
    pub before: CountersSnapshot,
    /// As above, at the end.
    pub after: CountersSnapshot,
    /// Peak server RSS, kB.
    pub rss_kb: u64,
    /// Generator threads used.
    pub threads: usize,
    /// Generator connections used.
    pub connections: usize,
    /// Share of submits whose program repeated an earlier one.
    pub repeated_share: f64,
    /// Routing wall times of the generator's pool, s.
    pub route_s: Vec<f64>,
}

impl Default for LiveRun {
    fn default() -> Self {
        let zero = qmetrics::ServiceCounters::new().snapshot();
        LiveRun {
            events: Vec::new(),
            submits: Vec::new(),
            status_ms: Vec::new(),
            characterize_ms: Vec::new(),
            characterize_loaded_ms: Vec::new(),
            burst_jobs_per_s: Vec::new(),
            lateness_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            busy: 0,
            problems: Vec::new(),
            duration_s: 0.0,
            before: zero,
            after: zero,
            rss_kb: 0,
            threads: 0,
            connections: 0,
            repeated_share: 0.0,
            route_s: Vec::new(),
        }
    }
}

impl LiveRun {
    /// Records one answered request: its check (a scored submit, a passed
    /// check, or why it failed) and its replay event.
    fn record(
        &mut self,
        id: u64,
        request: String,
        live: String,
        verdict: Result<Option<Scored>, String>,
    ) {
        self.attempted += 1;
        // Backpressure is the server working as designed, not a wrong
        // output: it counts as failed, and there is nothing to replay.
        if matches!(
            Response::from_line(&live),
            Ok(Response::Error { code: 503, .. })
        ) {
            self.failed += 1;
            self.busy += 1;
            return;
        }
        match verdict {
            Ok(scored) => self.submits.extend(scored),
            Err(why) => {
                self.failed += 1;
                self.problems.push(why);
            }
        }
        self.events.push(Event::Line { id, request, live });
    }
}

/// A started server plus the set-up measurement.
#[derive(Debug)]
pub struct Started {
    /// The server left running for the measurement.
    pub server: ServerProc,
    /// Median spawn-to-warm time over the repetitions, s.
    pub setup_s: Vec<f64>,
    /// The warm-up requests with their live responses.
    pub warm: Vec<(String, String)>,
    /// Profile directory of the kept server, if any.
    pub profile_dir: Option<PathBuf>,
}

/// Starts the server `reps` times (spawn → bound → warm characterizations
/// done), keeps the last one running and reports every set-up time.
pub fn start(
    bin: &Path,
    workers: usize,
    run_dir: &Path,
    with_profile_dir: bool,
    warm: &[String],
    reps: usize,
) -> io::Result<Started> {
    let mut setup_s = Vec::new();
    for rep in 0..reps {
        let profile_dir = with_profile_dir.then(|| run_dir.join(format!("profiles-{rep}")));
        let mut extra = Vec::new();
        if let Some(dir) = &profile_dir {
            std::fs::create_dir_all(dir)?;
            extra = vec!["--profile-dir".to_string(), dir.display().to_string()];
        }
        let t = Instant::now();
        let server = ServerProc::spawn(bin, workers, &extra)?;
        let mut conn = LineConn::connect(server.addr)?;
        let mut answers = Vec::new();
        for line in warm {
            answers.push((line.clone(), conn.call(line)?));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        drop(conn);
        if rep + 1 == reps {
            return Ok(Started {
                server,
                setup_s,
                warm: answers,
                profile_dir,
            });
        }
        server.shutdown()?;
    }
    Err(io::Error::other("no set-up repetitions requested"))
}

/// Checks a submit response and scores it; `None` (with a reason) when
/// the response is an error or inconsistent with its request.
fn score(
    id: u64,
    line: &str,
    item: &MixItem,
    pool: &Pool,
    client_ms: f64,
) -> Result<Scored, String> {
    match Response::from_line(line) {
        Ok(Response::Submit(r)) => {
            let entry = &pool.entries[item.entry];
            if r.total != item.shots || r.shots != item.shots {
                return Err(format!(
                    "submit {id}: total {} != shots {}",
                    r.total, item.shots
                ));
            }
            if r.policy != item.policy || r.device != entry.device {
                return Err(format!("submit {id}: response echoes the wrong request"));
            }
            let counted: u64 = r.counts.iter().map(|(_, c)| c).sum();
            if counted > r.total || r.counts.is_empty() {
                return Err(format!("submit {id}: ranked counts exceed the total"));
            }
            let pst = r
                .pst
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("submit {id}: missing or invalid pst"))?;
            Ok(Scored {
                id,
                entry: item.entry,
                client_ms,
                server_us: r.latency_us,
                policy: r.policy,
                pst,
            })
        }
        Ok(Response::Error { code, message }) => Err(format!("submit {id}: {code} {message}")),
        other => Err(format!("submit {id}: unexpected response {other:?}")),
    }
}

/// Checks a characterize response.
fn check_characterize(id: u64, line: &str, want_miss: bool) -> Result<(), String> {
    match Response::from_line(line) {
        Ok(Response::Characterize(r)) => {
            let miss = r.cache == invmeas_service::CacheOutcome::Miss;
            if r.trials == 0 || miss != want_miss {
                return Err(format!(
                    "characterize {id}: cache {} trials {}",
                    r.cache.as_str(),
                    r.trials
                ));
            }
            Ok(())
        }
        other => Err(format!("characterize {id}: unexpected response {other:?}")),
    }
}

/// Writes all of `buf` to a non-blocking socket, yielding on a full
/// send buffer.
fn write_all_nb(stream: &mut TcpStream, buf: &[u8]) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "socket closed")),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads response lines from both connections until `expect[c]` lines
/// arrived on each, stamping each with its arrival instant.
fn read_both(
    streams: [&TcpStream; 2],
    expect: [usize; 2],
    deadline: Instant,
) -> io::Result<[Vec<(Instant, String)>; 2]> {
    let poller = Poller::new()?;
    for (token, s) in streams.iter().enumerate() {
        poller.register(*s, token as u64, Interest::READ)?;
    }
    let mut out: [Vec<(Instant, String)>; 2] = [Vec::new(), Vec::new()];
    let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let mut events: Vec<PollEvent> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while out[0].len() < expect[0] || out[1].len() < expect[1] {
        let now = Instant::now();
        if now > deadline {
            return Err(io::Error::new(ErrorKind::TimedOut, "responses overdue"));
        }
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in &events {
            let c = ev.token as usize;
            let mut stream = streams[c];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                    Ok(n) => {
                        let at = Instant::now();
                        bufs[c].extend_from_slice(&chunk[..n]);
                        while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                            let text =
                                String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                            out[c].push((at, text));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Signed lateness of `actual` against `due`, ms (negative = early).
fn lateness(actual: Instant, due: Instant) -> f64 {
    if actual >= due {
        ms(actual - due)
    } else {
        -ms(due - actual)
    }
}

/// The warm-up lines of `serve-5q-open`.
pub fn open_warm() -> Vec<String> {
    ["ibmqx2", "ibmqx4"]
        .iter()
        .map(|d| gen::characterize_line(d, MethodKind::Brute))
        .collect()
}

/// Records the set-up characterizations (each must have measured) as the
/// first replay events; returns the last id used.
fn push_warm(run: &mut LiveRun, started: &Started) -> u64 {
    let mut id = 0;
    for (request, live) in &started.warm {
        id += 1;
        let verdict = check_characterize(id, live, true).map(|()| None);
        run.record(id, request.clone(), live.clone(), verdict);
    }
    id
}

/// `serve-5q-open`: Poisson submits at [`OPEN_RATE`] on one connection,
/// inline `status` and cache-hit `characterize` on the other, latency
/// timed from each request's scheduled send time.
pub fn open_5q(started: &Started, seed: u64, seconds: f64) -> io::Result<LiveRun> {
    let pool = gen::build_pool(&qworkloads::suite_q5(), &["ibmqx2", "ibmqx4"]);
    let mut rng = SplitMix64::new(seed, 0x5a);
    let schedule = gen::poisson_schedule(&mut rng, OPEN_RATE, seconds);
    let mix = gen::submit_mix(&mut rng, schedule.len(), pool.entries.len(), &OPEN_SHOTS);
    let submit_lines: Vec<String> = mix.iter().map(|m| gen::submit_line(&pool, m)).collect();
    let control = gen::periodic_schedule(OPEN_CONTROL_RATE, seconds);
    let char_lines = open_warm();
    let control_line = |i: usize| -> &str {
        if i % 6 == 5 {
            &char_lines[(i / 6) % 2]
        } else {
            "{\"v\":1,\"op\":\"status\"}"
        }
    };
    // Merged send order: (offset, connection, index on that connection).
    let mut order: Vec<(f64, usize, usize)> = schedule
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, 0, i))
        .chain(control.iter().enumerate().map(|(i, &t)| (t, 1, i)))
        .collect();
    order.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));

    let mut ctl = LineConn::connect(started.server.addr)?;
    let before = ctl.status()?.counters;
    let mut streams = [
        LineConn::connect(started.server.addr)?.into_stream(),
        ctl.into_stream(),
    ];
    for s in &streams {
        s.set_nonblocking(true)?;
    }
    let readers = [streams[0].try_clone()?, streams[1].try_clone()?];
    let expect = [schedule.len(), control.len()];
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(seconds + 90.0);
    let mut sent: [Vec<Instant>; 2] =
        [Vec::with_capacity(expect[0]), Vec::with_capacity(expect[1])];
    let received = std::thread::scope(|scope| -> io::Result<_> {
        let reader = scope.spawn(|| read_both([&readers[0], &readers[1]], expect, deadline));
        let mut buf = Vec::new();
        for &(offset, c, i) in &order {
            let due = t0 + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            buf.clear();
            buf.extend_from_slice(if c == 0 {
                submit_lines[i].as_bytes()
            } else {
                control_line(i).as_bytes()
            });
            buf.push(b'\n');
            sent[c].push(Instant::now());
            write_all_nb(&mut streams[c], &buf)?;
        }
        reader.join().expect("reader thread panicked")
    })?;
    let end = received
        .iter()
        .flat_map(|v| v.last().map(|(at, _)| *at))
        .max()
        .unwrap_or(t0);

    let mut run = LiveRun {
        threads: 2,
        connections: 2,
        duration_s: (end - t0).as_secs_f64(),
        repeated_share: gen::repeated_share(&mix),
        route_s: pool.route_s.clone(),
        before,
        ..LiveRun::default()
    };
    let mut next_id = push_warm(&mut run, started);
    for (c, times) in sent.iter().enumerate() {
        for (i, &at) in times.iter().enumerate() {
            let offset = if c == 0 { schedule[i] } else { control[i] };
            run.lateness_ms
                .push(lateness(at, t0 + Duration::from_secs_f64(offset)));
        }
    }
    // Requests are replayed in send order; the cache is warm, so their
    // outcomes do not depend on execution order.
    for &(offset, c, i) in &order {
        let (at, line) = &received[c][i];
        let client_ms = ms(*at - (t0 + Duration::from_secs_f64(offset)));
        if c == 1 && i % 6 != 5 {
            run.status_ms.push(client_ms);
            continue;
        }
        next_id += 1;
        let (request, verdict) = if c == 0 {
            let verdict = score(next_id, line, &mix[i], &pool, client_ms).map(Some);
            (submit_lines[i].clone(), verdict)
        } else {
            run.characterize_loaded_ms.push(client_ms);
            let verdict = check_characterize(next_id, line, false).map(|()| None);
            (control_line(i).to_string(), verdict)
        };
        run.record(next_id, request, line.clone(), verdict);
    }
    for s in &streams {
        s.set_nonblocking(false)?;
    }
    let [sub_stream, ctl_stream] = streams;
    let mut ctl = LineConn::from_stream(ctl_stream)?;
    run.after = ctl.status()?.counters;
    // Bursts of cache-hit characterizes after the loop, a few in flight
    // so the workers stay awake: one call on an idle server mostly times
    // how fast the host wakes a halted CPU.
    for _ in 0..CHARACTERIZE_BURSTS {
        let t = Instant::now();
        let (mut sent, mut done) = (0, 0);
        while done < CHARACTERIZE_BURST_LEN {
            while sent < CHARACTERIZE_BURST_LEN && sent - done < CHARACTERIZE_IN_FLIGHT {
                ctl.send(&char_lines[sent % 2])?;
                sent += 1;
            }
            let answer = ctl.recv()?;
            next_id += 1;
            let verdict = check_characterize(next_id, &answer, false).map(|()| None);
            run.record(next_id, char_lines[done % 2].clone(), answer, verdict);
            done += 1;
        }
        run.characterize_ms
            .push(ms(t.elapsed()) / CHARACTERIZE_BURST_LEN as f64);
    }
    // Saturating submit bursts: checked and replayed like the open loop's,
    // but their latencies are queueing by construction, so they stay out
    // of the scored submits.
    let mut sub = LineConn::from_stream(sub_stream)?;
    let mut rng = SplitMix64::new(seed, 0x5b);
    let burst_mix = gen::submit_mix(
        &mut rng,
        SUBMIT_BURSTS * SUBMIT_BURST_LEN,
        pool.entries.len(),
        &OPEN_SHOTS,
    );
    let scored = run.submits.len();
    for burst in burst_mix.chunks(SUBMIT_BURST_LEN) {
        let lines: Vec<String> = burst.iter().map(|m| gen::submit_line(&pool, m)).collect();
        let t = Instant::now();
        let (mut sent, mut done) = (0, 0);
        while done < burst.len() {
            while sent < burst.len() && sent - done < SUBMIT_IN_FLIGHT {
                sub.send(&lines[sent])?;
                sent += 1;
            }
            let answer = sub.recv()?;
            next_id += 1;
            let verdict = score(next_id, &answer, &burst[done], &pool, 0.0).map(Some);
            run.record(next_id, lines[done].clone(), answer, verdict);
            done += 1;
        }
        run.burst_jobs_per_s
            .push(burst.len() as f64 / t.elapsed().as_secs_f64());
    }
    run.submits.truncate(scored);
    run.rss_kb = started.server.vm_hwm_kb().unwrap_or(0);
    Ok(run)
}

/// The warm-up line of `serve-14q-drift`.
pub fn drift_warm() -> Vec<String> {
    vec![gen::characterize_line("ibmq-melbourne", MethodKind::Awct)]
}

/// `serve-14q-drift`: a closed loop keeping `workers` submits outstanding
/// on one connection; after every [`DRIFT_JOBS_PER_WINDOW`] completions
/// the loop drains, advances the calibration window and re-characterizes
/// (AWCT) on the control connection, which otherwise polls `status`.
pub fn drift_14q(
    started: &Started,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> io::Result<LiveRun> {
    let benches = gen::q14_benchmarks(seed, DRIFT_EXTRA_SECRETS);
    let pool = gen::build_pool(&benches, &["ibmq-melbourne"]);
    let mut rng = SplitMix64::new(seed, 0x14d);
    // More submits than any run completes; the loop consumes a prefix.
    let mix = gen::submit_mix(&mut rng, 20_000, pool.entries.len(), &DRIFT_SHOTS);

    let mut sub = LineConn::connect(started.server.addr)?;
    let ctl = Mutex::new(LineConn::connect(started.server.addr)?);
    let before = ctl.lock().expect("control lock").status()?.counters;
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);

    let mut run = LiveRun {
        threads: 2,
        connections: 2,
        route_s: pool.route_s.clone(),
        before,
        ..LiveRun::default()
    };
    let mut next_id = push_warm(&mut run, started);

    let (status_ms, status_late, sent) = std::thread::scope(|scope| -> io::Result<_> {
        let poller = scope.spawn(|| -> io::Result<(Vec<f64>, Vec<f64>)> {
            let mut lat = Vec::new();
            let mut late = Vec::new();
            let period = Duration::from_secs_f64(1.0 / DRIFT_STATUS_RATE);
            let mut due = t0 + period;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut c = ctl.lock().expect("control lock");
                let sent = Instant::now();
                c.call("{\"v\":1,\"op\":\"status\"}")?;
                lat.push(ms(sent.elapsed()));
                drop(c);
                late.push(lateness(sent, due));
                due += period;
                // A window change holds the lock: skip the slots it ate.
                while due < Instant::now() {
                    due += period;
                }
            }
            Ok((lat, late))
        });

        let result = (|| -> io::Result<usize> {
            let mut outstanding = std::collections::VecDeque::new();
            let mut next = 0usize;
            let mut in_window = 0usize;
            let mut window = 0u64;
            loop {
                while outstanding.len() < workers && Instant::now() < end && next < mix.len() {
                    next_id += 1;
                    let line = gen::submit_line(&pool, &mix[next]);
                    let at = Instant::now();
                    sub.send(&line)?;
                    outstanding.push_back(Pending {
                        id: next_id,
                        item: next,
                        at,
                        line,
                    });
                    next += 1;
                }
                let Some(job) = outstanding.pop_front() else {
                    break;
                };
                complete(&mut sub, &mut run, &pool, &mix, job)?;
                in_window += 1;
                if in_window >= DRIFT_JOBS_PER_WINDOW && Instant::now() < end {
                    // Drain, then advance the window and re-characterize.
                    while let Some(job) = outstanding.pop_front() {
                        complete(&mut sub, &mut run, &pool, &mix, job)?;
                    }
                    window += 1;
                    let mut c = ctl.lock().expect("control lock");
                    let ack = c.call(&format!(
                        "{{\"v\":1,\"op\":\"set-window\",\"window\":{window}}}"
                    ))?;
                    let char_line = drift_warm().remove(0);
                    let sent = Instant::now();
                    let answer = c.call(&char_line)?;
                    run.characterize_ms.push(ms(sent.elapsed()));
                    drop(c);
                    next_id += 1;
                    let verdict = if ack.contains(&format!("\"window\":{window}")) {
                        check_characterize(next_id, &answer, true).map(|()| None)
                    } else {
                        Err(format!("set-window {window}: {ack}"))
                    };
                    run.events.push(Event::SetWindow(window));
                    run.record(next_id, char_line, answer, verdict);
                    in_window = 0;
                }
            }
            Ok(next)
        })();
        stop.store(true, Ordering::SeqCst);
        let polled = poller.join().expect("status thread panicked");
        let sent = result?;
        polled.map(|(lat, late)| (lat, late, sent))
    })?;
    run.duration_s = t0.elapsed().as_secs_f64();
    run.status_ms = status_ms;
    run.lateness_ms = status_late;
    run.repeated_share = gen::repeated_share(&mix[..sent]);
    run.after = ctl.lock().expect("control lock").status()?.counters;
    run.rss_kb = started.server.vm_hwm_kb().unwrap_or(0);
    Ok(run)
}

/// A submit in flight on the closed loop's connection.
struct Pending {
    id: u64,
    item: usize,
    at: Instant,
    line: String,
}

/// Receives the oldest in-flight submit's response (responses arrive in
/// request order) and records it.
fn complete(
    sub: &mut LineConn,
    run: &mut LiveRun,
    pool: &Pool,
    mix: &[MixItem],
    job: Pending,
) -> io::Result<()> {
    let live = sub.recv()?;
    let verdict = score(job.id, &live, &mix[job.item], pool, ms(job.at.elapsed())).map(Some);
    run.record(job.id, job.line, live, verdict);
    Ok(())
}

/// The events a verification-only replay keeps: every window change and
/// characterize, plus the first `per_window` submits after each.
pub fn sample_events(events: &[Event], per_window: usize) -> Vec<Event> {
    let mut out = Vec::new();
    let mut taken = 0usize;
    for e in events {
        match e {
            Event::SetWindow(_) => {
                taken = 0;
                out.push(e.clone());
            }
            Event::Line { request, .. } if request.contains("\"op\":\"characterize\"") => {
                out.push(e.clone());
            }
            Event::Line { .. } => {
                if taken < per_window {
                    out.push(e.clone());
                }
                taken += 1;
            }
        }
    }
    out
}

/// The events a verification-only replay of a warm-cache workload keeps:
/// every characterize and every `n`-th submit (the cache outcome of a
/// submit does not depend on which others ran).
pub fn every_nth_submit(events: &[Event], n: usize) -> Vec<Event> {
    let mut submits = 0usize;
    events
        .iter()
        .filter(|e| match e {
            Event::Line { request, .. } if request.contains("\"op\":\"submit\"") => {
                submits += 1;
                (submits - 1).is_multiple_of(n)
            }
            _ => true,
        })
        .cloned()
        .collect()
}

/// Queue wait derived per submit: the live enqueue-to-done time minus the
/// replay's execution time for the same request, ms.
pub fn derived_queue_wait_ms(
    submits: &[Scored],
    exec_ns: &std::collections::HashMap<u64, u64>,
) -> Vec<f64> {
    submits
        .iter()
        .filter_map(|s| {
            let exec = *exec_ns.get(&s.id)? as f64 / 1e6;
            Some((s.server_us as f64 / 1e3 - exec).max(0.0))
        })
        .collect()
}

/// Front-end time per submit: client latency minus the server's
/// enqueue-to-done latency, ms.
pub fn frontend_ms(submits: &[Scored]) -> Vec<f64> {
    submits
        .iter()
        .map(|s| (s.client_ms - s.server_us as f64 / 1e3).max(0.0))
        .collect()
}
