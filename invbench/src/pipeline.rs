//! `paper-pipeline`: the researcher's offline path, in process. For each
//! device it characterizes the machine (brute force + ESCT on the 5-qubit
//! machines, AWCT + ESCT on ibmq-melbourne) and then runs the device's
//! benchmark suite under baseline, SIM and AIM.

use crate::gen::{is_high_weight, SplitMix64};
use crate::replay::{run_policy, ExecTally, TimedExecutor};
use crate::trace::Tracer;
use invmeas::{PolicyChoice, RbmsTable, Runner};
use invmeas_service::PolicyKind;
use qmapper::RoutedCircuit;
use qnoise::{DeviceModel, NoisyExecutor};
use qworkloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Characterization budget: the paper pipeline's default.
pub const PROFILE_SHOTS: u64 = Runner::DEFAULT_PROFILE_SHOTS;
/// Trials per evaluation on the 5-qubit machines, drawn per evaluation
/// from the seed. A range rather than one value keeps the evaluation
/// times from clustering by benchmark, so no percentile sits on the gap
/// between two clusters.
pub const SHOTS_Q5: (u64, u64) = (3072, 5120);
/// As above on ibmq-melbourne (noise trajectories make a 14-qubit shot
/// ~0.4 ms, so the suite stays within a run).
pub const SHOTS_Q14: (u64, u64) = (64, 192);

const POLICIES: [PolicyKind; 3] = [PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim];

/// One device of the pipeline with its routed suite.
#[derive(Debug, Clone)]
pub struct Device {
    /// The device model.
    pub model: DeviceModel,
    /// Its executor (built once, in set-up).
    pub exec: NoisyExecutor,
    /// The suite, routed onto the device.
    pub suite: Vec<(Benchmark, RoutedCircuit)>,
}

/// Builds devices, executors and routed suites; returns the routing wall
/// time of every benchmark, s.
pub fn setup(threads: usize) -> (Vec<Device>, Vec<f64>) {
    let mut route_s = Vec::new();
    let devices = [
        ("ibmqx2", qworkloads::suite_q5()),
        ("ibmqx4", qworkloads::suite_q5()),
        ("ibmq-melbourne", qworkloads::suite_q14()),
    ]
    .into_iter()
    .map(|(name, suite)| {
        let model = DeviceModel::by_name(name).expect("pipeline devices exist");
        let exec = NoisyExecutor::from_device(&model).with_threads(threads);
        let suite = suite
            .into_iter()
            .map(|b| {
                let t = Instant::now();
                let routed = qmapper::route_auto(b.circuit(), &model)
                    .unwrap_or_else(|e| panic!("{} does not route onto {name}: {e}", b.name()));
                route_s.push(t.elapsed().as_secs_f64());
                (b, routed)
            })
            .collect();
        Device { model, exec, suite }
    })
    .collect();
    (devices, route_s)
}

/// One evaluated (device, benchmark, policy).
#[derive(Debug, Clone, PartialEq)]
pub struct Eval {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub bench: String,
    /// Policy.
    pub policy: PolicyKind,
    /// PST of the logical output log.
    pub pst: f64,
    /// True when the answer is mostly ones.
    pub high_weight: bool,
    /// Trials requested.
    pub shots: u64,
    /// Trials logged.
    pub total: u64,
    /// The ranked physical log, kept for pass 0 only (the pass the
    /// traced run replays).
    pub ranked: Vec<(qsim::BitString, u64)>,
    /// Wall time, ms.
    pub ms: f64,
}

/// One pass of the pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Characterization phase wall time, s.
    pub characterize_s: f64,
    /// Evaluation phase wall time, s.
    pub mitigate_s: f64,
    /// Every evaluation.
    pub evals: Vec<Eval>,
    /// The measured profiles in order, as `rbms v1` text.
    pub tables: Vec<String>,
    /// Trials spent characterizing.
    pub trials: u64,
}

/// How a pass executes: the public `Runner` path (the measured one), or
/// the policies called directly through a timed executor (the replay).
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// `Runner::with_threads(threads)`, untraced.
    Runner,
    /// Direct calls through [`TimedExecutor`] on one thread.
    Replay(&'a Tracer, &'a ExecTally),
}

fn policy_choice(p: PolicyKind) -> PolicyChoice {
    match p {
        PolicyKind::Baseline => PolicyChoice::Baseline,
        PolicyKind::Sim => PolicyChoice::Sim,
        PolicyKind::Aim => PolicyChoice::Aim,
    }
}

/// Runs pass `index` of the pipeline for workload seed `seed`.
pub fn pass(devices: &[Device], seed: u64, index: u64, threads: usize, mode: Mode<'_>) -> Pass {
    let off = Tracer::off();
    let quiet = ExecTally::default();
    let (tracer, tally) = match mode {
        Mode::Runner => (&off, &quiet),
        Mode::Replay(t, x) => (t, x),
    };
    let mut seeds = SplitMix64::new(seed, 0xb1_0000 + index);
    let mut out = Pass::default();

    let t = Instant::now();
    let mut profiles = Vec::new();
    for d in devices {
        let exec = TimedExecutor::new(d.exec.clone().with_threads(threads), tracer, tally);
        let mut rng = StdRng::seed_from_u64(seeds.next_u64());
        let n = d.model.n_qubits();
        let (primary, esct) = if n <= 5 {
            let brute = tracer.scope("rbms.brute", || {
                RbmsTable::brute_force(&exec, PROFILE_SHOTS, &mut rng)
            });
            let esct = tracer.scope("rbms.esct", || {
                RbmsTable::esct(&exec, PROFILE_SHOTS, &mut rng)
            });
            (brute, esct)
        } else {
            let awct = tracer.scope("rbms.awct", || {
                RbmsTable::awct(&exec, 4, 2, PROFILE_SHOTS, &mut rng)
            });
            let esct = tracer.scope("rbms.esct", || {
                RbmsTable::esct(&exec, PROFILE_SHOTS, &mut rng)
            });
            (awct, esct)
        };
        out.trials += primary.trials_used() + esct.trials_used();
        out.tables.push(primary.to_text());
        out.tables.push(esct.to_text());
        profiles.push(primary);
    }
    out.characterize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (d, profile) in devices.iter().zip(&profiles) {
        let (lo, hi) = if d.model.n_qubits() <= 5 {
            SHOTS_Q5
        } else {
            SHOTS_Q14
        };
        for (bench, routed) in &d.suite {
            for policy in POLICIES {
                let run_seed = seeds.next_u64() >> 1;
                let shots = lo + seeds.next_u64() % (hi - lo + 1);
                let start = Instant::now();
                let log = match mode {
                    Mode::Runner => Runner::new(d.model.clone())
                        .with_threads(threads)
                        .with_seed(run_seed)
                        .with_profile(profile.clone())
                        .run(policy_choice(policy), routed.circuit(), shots),
                    Mode::Replay(..) => {
                        let exec =
                            TimedExecutor::new(d.exec.clone().with_threads(threads), tracer, tally);
                        run_policy(
                            policy,
                            Some(profile.clone()),
                            routed.circuit(),
                            shots,
                            &exec,
                            run_seed,
                            tracer,
                        )
                    }
                };
                let pst = tracer.scope("metrics.reliability", || {
                    qmetrics::pst(&routed.logical_counts(&log), bench.correct())
                });
                out.evals.push(Eval {
                    device: d.model.name().to_string(),
                    bench: bench.name().to_string(),
                    policy,
                    pst,
                    high_weight: is_high_weight(bench.correct().outputs()[0]),
                    shots,
                    total: log.total(),
                    ranked: if index == 0 { log.ranked() } else { Vec::new() },
                    ms: start.elapsed().as_secs_f64() * 1e3,
                });
            }
        }
    }
    out.mitigate_s = t.elapsed().as_secs_f64();
    out
}

/// Ratio of the summed PST under `policy` to the summed baseline PST over
/// the evaluations `keep` selects.
pub fn pst_gain(evals: &[&Eval], policy: PolicyKind, keep: impl Fn(&Eval) -> bool) -> f64 {
    let sum = |p: PolicyKind| -> f64 {
        evals
            .iter()
            .filter(|e| e.policy == p && keep(e))
            .map(|e| e.pst)
            .sum()
    };
    let base = sum(PolicyKind::Baseline);
    if base > 0.0 {
        sum(policy) / base
    } else {
        0.0
    }
}
