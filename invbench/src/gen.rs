//! Seeded input generation: circuit pools, request mixes and arrival
//! schedules. Everything here is a pure function of the workload seed, so
//! a seed names one exact input set and the replay can rebuild it.

use invmeas_service::{MethodKind, PolicyKind, Request, SubmitRequest};
use qnoise::DeviceModel;
use qsim::BitString;
use qworkloads::Benchmark;
use std::time::Instant;

/// SplitMix64: a tiny, well-mixed generator that owns no state beyond
/// one word, so a seed reproduces the same stream on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated per use by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// Open-loop arrival offsets in seconds: a Poisson process at `rate` per
/// second over `seconds` (independent users arriving on their own).
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<f64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "rate and duration must be positive"
    );
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        // 1 - U is in (0, 1], so the log is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Evenly spaced offsets at `rate` per second over `seconds`.
pub fn periodic_schedule(rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).floor() as usize;
    (0..n).map(|i| (i as f64 + 0.5) / rate).collect()
}

/// One routed program the generator can submit.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Target device.
    pub device: &'static str,
    /// OpenQASM text of the routed physical circuit.
    pub qasm: String,
    /// The expected answer in physical bit order.
    pub expected: String,
}

/// A routed circuit pool plus the time each routing call took.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The programs.
    pub entries: Vec<PoolEntry>,
    /// `qmapper::route_auto` wall time per entry, seconds.
    pub route_s: Vec<f64>,
}

/// The physical expected string for a routed benchmark: each logical
/// answer bit lands on its output qubit, idle qubits read 0.
pub fn physical_expected(
    logical: BitString,
    routed: &qmapper::RoutedCircuit,
    width: usize,
) -> BitString {
    (0..logical.width()).fold(BitString::zeros(width), |acc, q| {
        acc.with_bit(routed.output_qubit(q), logical.bit(q))
    })
}

/// True when strictly more than half the answer's bits are ones.
pub fn is_high_weight(answer: BitString) -> bool {
    2 * answer.hamming_weight() as usize > answer.width()
}

/// Routes every benchmark onto every device with `qmapper::route_auto`.
pub fn build_pool(benches: &[Benchmark], devices: &[&'static str]) -> Pool {
    let mut entries = Vec::new();
    let mut route_s = Vec::new();
    for &device in devices {
        let model = DeviceModel::by_name(device).expect("benchmark devices exist");
        for bench in benches {
            let t = Instant::now();
            let routed = qmapper::route_auto(bench.circuit(), &model)
                .unwrap_or_else(|e| panic!("{} does not route onto {device}: {e}", bench.name()));
            route_s.push(t.elapsed().as_secs_f64());
            let answer = bench.correct().outputs()[0];
            let expected = physical_expected(answer, &routed, model.n_qubits());
            entries.push(PoolEntry {
                device,
                qasm: qsim::qasm::to_qasm(routed.circuit()),
                expected: expected.to_string(),
            });
        }
    }
    Pool { entries, route_s }
}

/// The 14-qubit pool: `suite_q14` plus `extra` Bernstein-Vazirani
/// secrets drawn from the seed. Like the suite's own `bv-6`/`bv-7`, each
/// secret has width 6 or 7 (alternating) and exactly one zero bit, placed
/// by the seed: the seed changes the programs and their routing, not how
/// many gates they hold.
pub fn q14_benchmarks(seed: u64, extra: usize) -> Vec<Benchmark> {
    let mut rng = SplitMix64::new(seed, 0x14);
    let mut out = qworkloads::suite_q14();
    for i in 0..extra {
        let width = 6 + i % 2;
        let secret = BitString::ones(width).with_bit(rng.below(width), false);
        out.push(Benchmark::bv(format!("bv-s{i}"), secret));
    }
    out
}

/// One submit in a request mix, before it is rendered to a wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixItem {
    /// Index into the pool.
    pub entry: usize,
    /// Mitigation policy.
    pub policy: PolicyKind,
    /// Trial budget.
    pub shots: u64,
    /// Request seed.
    pub seed: u64,
}

/// A request mix of `n` submits over a pool of `pool_len` programs. The
/// mix is a sequence of rounds; each round is a seeded shuffle of every
/// (program, policy, shots) combination, so any prefix of the mix holds
/// each combination equally often (to within one round) and the seed
/// changes the order, never the composition.
pub fn submit_mix(rng: &mut SplitMix64, n: usize, pool_len: usize, shots: &[u64]) -> Vec<MixItem> {
    const POLICIES: [PolicyKind; 3] = [PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim];
    let mut round: Vec<(usize, PolicyKind, u64)> = (0..pool_len)
        .flat_map(|e| {
            POLICIES
                .iter()
                .flat_map(move |&p| shots.iter().map(move |&s| (e, p, s)))
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Fisher-Yates.
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        for &(entry, policy, shots) in round.iter().take(n - out.len()) {
            out.push(MixItem {
                entry,
                policy,
                shots,
                // Wire integers are JSON numbers: keep seeds exact in an f64.
                seed: rng.next_u64() >> 11,
            });
        }
    }
    out
}

/// Renders a submit as its wire line.
pub fn submit_line(pool: &Pool, item: &MixItem) -> String {
    let e = &pool.entries[item.entry];
    Request::Submit(SubmitRequest {
        device: e.device.to_string(),
        qasm: e.qasm.clone(),
        policy: item.policy,
        shots: item.shots,
        seed: item.seed,
        expected: Some(e.expected.clone()),
        deadline_ms: None,
        fwd: false,
    })
    .to_line()
}

/// A `characterize` wire line at the server's default budget.
pub fn characterize_line(device: &str, method: MethodKind) -> String {
    Request::Characterize(invmeas_service::CharacterizeRequest {
        device: device.to_string(),
        method,
        shots: 0,
        fwd: false,
    })
    .to_line()
}

/// Share of submits whose program was already submitted earlier in the
/// run (0 when every submit is a new program).
pub fn repeated_share(mix: &[MixItem]) -> f64 {
    if mix.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::BTreeSet::new();
    let repeats = mix.iter().filter(|m| !seen.insert(m.entry)).count();
    repeats as f64 / mix.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let a = poisson_schedule(&mut SplitMix64::new(7, 1), 200.0, 5.0);
        let b = poisson_schedule(&mut SplitMix64::new(7, 1), 200.0, 5.0);
        let c = poisson_schedule(&mut SplitMix64::new(8, 1), 200.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 1000 expected arrivals; a Poisson count is within 5 sigma.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
        let p = periodic_schedule(100.0, 2.0);
        assert_eq!(p.len(), 200);
        assert!((p[1] - p[0] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn request_mix_is_a_function_of_the_seed() {
        let mix = |seed| submit_mix(&mut SplitMix64::new(seed, 2), 500, 8, &[256, 384]);
        assert_eq!(mix(3), mix(3));
        assert_ne!(mix(3), mix(4));
        let m = mix(3);
        for policy in [PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim] {
            let n = m.iter().filter(|x| x.policy == policy).count();
            assert!(n > 100, "{policy:?} drawn {n} times of 500");
        }
        assert!(m
            .iter()
            .all(|x| x.entry < 8 && [256, 384].contains(&x.shots)));
        // Rounds of 8 programs x 3 policies x 2 budgets: the first 480
        // submits hold every combination exactly 10 times.
        let first = &m[..480];
        for entry in 0..8 {
            let n = first
                .iter()
                .filter(|x| x.entry == entry && x.policy == PolicyKind::Sim && x.shots == 256)
                .count();
            assert_eq!(n, 10);
        }
        assert!(repeated_share(&m) > 0.9);
        assert_eq!(repeated_share(&m[..1]), 0.0);
    }

    #[test]
    fn q14_pool_is_seeded_and_routes_onto_melbourne() {
        let a = q14_benchmarks(11, 3);
        let b = q14_benchmarks(11, 3);
        assert_eq!(a.len(), 7);
        let names = |v: &[Benchmark]| v.iter().map(|x| x.circuit().clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        let pool = build_pool(&a[..1], &["ibmq-melbourne"]);
        let e = &pool.entries[0];
        assert_eq!(e.expected.len(), 14);
        assert_eq!(pool.route_s.len(), 1);
        let circuit = qsim::qasm::from_qasm(&e.qasm).expect("generated QASM parses");
        assert_eq!(circuit.n_qubits(), 14);
    }

    #[test]
    fn rendered_lines_parse_back_to_the_mix() {
        let pool = build_pool(&qworkloads::suite_q5()[..1], &["ibmqx2"]);
        let item = MixItem {
            entry: 0,
            policy: PolicyKind::Aim,
            shots: 256,
            seed: 9,
        };
        match Request::from_line(&submit_line(&pool, &item)).expect("valid line") {
            Request::Submit(r) => {
                assert_eq!((r.policy, r.shots, r.seed), (PolicyKind::Aim, 256, 9));
                assert_eq!(
                    r.expected.as_deref(),
                    Some(pool.entries[0].expected.as_str())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(is_high_weight("1101".parse().unwrap()));
        assert!(!is_high_weight("1100".parse().unwrap()));
    }
}
