//! In-process replay of a serve workload's exact wire lines.
//!
//! The replay rebuilds what the server does for a `submit` or
//! `characterize` from public APIs only: the drifted device snapshot
//! (`qnoise::CalibrationDrift`), a `ProfileCache` configured as the
//! server's defaults configure it, and the policies of `invmeas` run on a
//! `NoisyExecutor` seeded the way `Runner` seeds it. Its response lines
//! must equal the live server's byte for byte except `latency_us`; the
//! same code, with a recording [`Tracer`], yields the per-layer spans.

use crate::trace::Tracer;
use invmeas::{AdaptiveInvertMeasure, Baseline, MeasurementPolicy, StaticInvertMeasure};
use invmeas_service::{
    CacheConfig, CacheOutcome, CharacterizeResponse, MethodKind, PolicyKind, ProfileCache, Request,
    Response, ServerConfig, SubmitResponse,
};
use qmetrics::{CorrectSet, ReliabilityReport};
use qnoise::{CalibrationDrift, DeviceModel, Executor, NoisyExecutor};
use qsim::{BitString, Circuit, Counts};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::path::PathBuf;
use std::time::Instant;

/// The drifted snapshot of `device` in calibration window `window`, as
/// the server derives it. The replay mirrors `ServerConfig::default()`:
/// `invmeas serve` runs with it apart from `--workers` and
/// `--profile-dir`, neither of which changes a response.
pub fn snapshot(device: &str, window: u64) -> Option<DeviceModel> {
    let config = ServerConfig::default();
    Some(
        CalibrationDrift::new(DeviceModel::by_name(device)?, config.drift_amplitude)
            .with_seed(config.drift_seed)
            .window(window),
    )
}

/// One replayable input.
#[derive(Debug, Clone)]
pub enum Event {
    /// The server's calibration window moved.
    SetWindow(u64),
    /// A queued request line, with the live server's response line.
    Line {
        /// Request id (shared by all spans of the request).
        id: u64,
        /// The request as sent.
        request: String,
        /// The live response as received.
        live: String,
    },
}

/// Executor-layer tallies.
#[derive(Debug, Default)]
pub struct ExecTally {
    /// `run`/`run_groups`/`run_batch` calls.
    pub calls: Cell<u64>,
    /// Circuits across those calls.
    pub circuits: Cell<u64>,
}

/// A `qnoise::Executor` that forwards to an inner executor inside a
/// `noise.executor` span and counts calls and circuits.
pub struct TimedExecutor<'a> {
    inner: NoisyExecutor,
    tracer: &'a Tracer,
    tally: &'a ExecTally,
}

impl<'a> TimedExecutor<'a> {
    /// Wraps `inner`.
    pub fn new(inner: NoisyExecutor, tracer: &'a Tracer, tally: &'a ExecTally) -> Self {
        TimedExecutor {
            inner,
            tracer,
            tally,
        }
    }

    fn count(&self, circuits: usize) {
        self.tally.calls.set(self.tally.calls.get() + 1);
        self.tally
            .circuits
            .set(self.tally.circuits.get() + circuits as u64);
    }
}

impl std::fmt::Debug for TimedExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedExecutor").finish_non_exhaustive()
    }
}

impl Executor for TimedExecutor<'_> {
    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn run(&self, circuit: &Circuit, shots: u64, rng: &mut dyn RngCore) -> Counts {
        self.count(1);
        self.tracer
            .scope("noise.executor", || self.inner.run(circuit, shots, rng))
    }

    fn run_groups(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
        rng: &mut dyn RngCore,
    ) -> Vec<Counts> {
        self.count(circuits.len());
        self.tracer.scope("noise.executor", || {
            self.inner.run_groups(circuits, shots, rng)
        })
    }

    fn run_batch(
        &self,
        circuits: &[Circuit],
        shots_each: u64,
        rng: &mut dyn RngCore,
    ) -> Vec<Counts> {
        self.count(circuits.len());
        self.tracer.scope("noise.executor", || {
            self.inner.run_batch(circuits, shots_each, rng)
        })
    }
}

/// Runs `policy` the way `Runner::run` does, through a timed executor.
/// Returns the output log; the policy's own span is `core.<policy>`.
pub fn run_policy(
    policy: PolicyKind,
    profile: Option<invmeas::RbmsTable>,
    circuit: &Circuit,
    shots: u64,
    exec: &TimedExecutor<'_>,
    seed: u64,
    tracer: &Tracer,
) -> Counts {
    let mut rng = StdRng::seed_from_u64(seed);
    match policy {
        PolicyKind::Baseline => tracer.scope("core.baseline", || {
            Baseline.execute(circuit, shots, exec, &mut rng)
        }),
        PolicyKind::Sim => tracer.scope("core.sim", || {
            StaticInvertMeasure::four_mode(circuit.n_qubits())
                .execute(circuit, shots, exec, &mut rng)
        }),
        PolicyKind::Aim => {
            let profile = profile.expect("AIM needs a profile");
            tracer.scope("core.aim", || {
                AdaptiveInvertMeasure::new(profile).execute(circuit, shots, exec, &mut rng)
            })
        }
    }
}

/// Per-request measurements the replay keeps beside the spans.
#[derive(Debug, Default)]
pub struct ReplayTally {
    /// Executor calls and circuits.
    pub exec: ExecTally,
    /// `get_or_measure` wall times by outcome, ns (traced runs only).
    pub cache_hit_ns: Vec<u64>,
    /// As above, for measured (miss) outcomes.
    pub cache_miss_ns: Vec<u64>,
    /// Jobs replayed.
    pub jobs: u64,
    /// Response bytes serialized.
    pub response_bytes: u64,
    /// Lines whose replay differed from the live response.
    pub mismatches: Vec<(u64, String, String)>,
}

/// The in-process stand-in for one server.
pub struct Replayer<'t> {
    cache: ProfileCache,
    config: ServerConfig,
    window: u64,
    tracer: &'t Tracer,
    /// What the replay measured.
    pub tally: ReplayTally,
}

impl std::fmt::Debug for Replayer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl<'t> Replayer<'t> {
    /// A replay server with an empty cache persisting to `profile_dir`
    /// when the live server had one.
    pub fn new(profile_dir: Option<PathBuf>, tracer: &'t Tracer) -> Self {
        let config = ServerConfig::default();
        let cache = ProfileCache::new(CacheConfig {
            profile_seed: config.profile_seed,
            drift_threshold: config.drift_threshold,
            exec_threads: config.exec_threads,
            profile_dir,
        });
        Replayer {
            cache,
            config,
            window: 0,
            tracer,
            tally: ReplayTally::default(),
        }
    }

    /// Replays every event, checking each response against its live line.
    pub fn replay(&mut self, events: &[Event]) {
        for e in events {
            match e {
                Event::SetWindow(w) => self.window = *w,
                Event::Line { id, request, live } => {
                    let got = self.handle(*id, request);
                    if crate::server::strip_latency(&got) != crate::server::strip_latency(live) {
                        self.tally.mismatches.push((*id, live.clone(), got));
                    }
                }
            }
        }
        self.tracer.set_request(0);
    }

    /// Executes one request line and returns the response line.
    pub fn handle(&mut self, id: u64, line: &str) -> String {
        let tracer = self.tracer;
        tracer.set_request(id);
        tracer.scope("request", || {
            let request = tracer.scope("protocol.parse", || Request::from_line(line));
            let response = match request {
                Ok(Request::Submit(r)) => self.submit(&r),
                Ok(Request::Characterize(r)) => self.characterize(&r.device, r.method, r.shots),
                Ok(other) => Response::bad_request(format!("not replayable: {other:?}")),
                Err(e) => Response::bad_request(e.to_string()),
            };
            self.tally.jobs += 1;
            let out = tracer.scope("protocol.serialize", || response.to_line());
            self.tally.response_bytes += out.len() as u64 + 1;
            out
        })
    }

    fn cached(
        &mut self,
        device: &str,
        snapshot: &DeviceModel,
        method: MethodKind,
        shots: u64,
    ) -> Result<(invmeas::RbmsTable, CacheOutcome), String> {
        let t = self.tracer.enabled().then(Instant::now);
        let got = self.tracer.scope("service.cache", || {
            self.cache
                .get_or_measure(device, snapshot, self.window, method, shots)
        });
        let ns = t.map(|t| t.elapsed().as_nanos() as u64);
        match got {
            Ok((table, outcome)) => {
                match outcome {
                    CacheOutcome::Hit | CacheOutcome::DiskHit => self.tally.cache_hit_ns.extend(ns),
                    CacheOutcome::Miss => self.tally.cache_miss_ns.extend(ns),
                    CacheOutcome::Stale | CacheOutcome::None => {}
                }
                Ok((table, outcome))
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn characterize(&mut self, device: &str, method: MethodKind, shots: u64) -> Response {
        let Some(snapshot) = snapshot(device, self.window) else {
            return Response::bad_request(format!("unknown device {device:?}"));
        };
        let shots = if shots == 0 {
            self.config.profile_shots
        } else {
            shots
        };
        match self.cached(device, &snapshot, method, shots) {
            Ok((table, outcome)) => Response::Characterize(CharacterizeResponse {
                device: device.to_string(),
                window: self.window,
                method,
                width: table.width() as u64,
                trials: table.trials_used(),
                strongest: table.strongest_state().to_string(),
                weakest: table.weakest_state().to_string(),
                cache: outcome,
                latency_us: 0,
                degraded: outcome == CacheOutcome::Stale,
            }),
            Err(e) => Response::failed(e),
        }
    }

    fn submit(&mut self, r: &invmeas_service::SubmitRequest) -> Response {
        let tracer = self.tracer;
        let Some(snapshot) = snapshot(&r.device, self.window) else {
            return Response::bad_request(format!("unknown device {:?}", r.device));
        };
        let circuit = match tracer.scope("qsim.qasm", || qsim::qasm::from_qasm(&r.qasm)) {
            Ok(c) => c,
            Err(e) => return Response::bad_request(format!("bad qasm: {e}")),
        };
        let n = snapshot.n_qubits();
        if circuit.n_qubits() != n || r.shots == 0 {
            return Response::bad_request("replay only covers well-formed submits");
        }
        let (profile, cache) = match r.policy {
            PolicyKind::Aim => {
                let method = if n <= 5 {
                    MethodKind::Brute
                } else {
                    MethodKind::Awct
                };
                match self.cached(&r.device, &snapshot, method, self.config.profile_shots) {
                    Ok((table, outcome)) => (Some(table), outcome),
                    Err(e) => return Response::failed(e),
                }
            }
            _ => (None, CacheOutcome::None),
        };
        let exec = TimedExecutor::new(
            NoisyExecutor::from_device(&snapshot).with_threads(self.config.exec_threads),
            tracer,
            &self.tally.exec,
        );
        let log = run_policy(r.policy, profile, &circuit, r.shots, &exec, r.seed, tracer);
        let ranked = log.ranked();
        let distinct = ranked.len() as u64;
        let counts: Vec<(String, u64)> = ranked
            .into_iter()
            .take(SubmitResponse::MAX_COUNTS)
            .map(|(s, c)| (s.to_string(), c))
            .collect();
        let (mut pst, mut ist, mut roca) = (None, None, None);
        if let Some(expected) = &r.expected {
            let Ok(expected) = expected.parse::<BitString>() else {
                return Response::bad_request("bad expected bits");
            };
            let report = tracer.scope("metrics.reliability", || {
                ReliabilityReport::evaluate(&log, &CorrectSet::single(expected))
            });
            pst = Some(report.pst);
            ist = Some(report.ist).filter(|x| x.is_finite());
            roca = report.roca.map(|x| x as u64);
        }
        Response::Submit(SubmitResponse {
            device: r.device.clone(),
            window: self.window,
            policy: r.policy,
            shots: r.shots,
            total: log.total(),
            distinct,
            counts,
            cache,
            latency_us: 0,
            degraded: cache == CacheOutcome::Stale,
            pst,
            ist,
            roca,
        })
    }
}
