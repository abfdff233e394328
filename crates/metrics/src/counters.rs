//! Lock-free operational counters for long-lived hosts.
//!
//! The mitigation service (and any future daemon built on this workspace)
//! needs cheap always-on observability: request and job totals, cache
//! effectiveness, backpressure rejections, queue depth, and latency. A
//! [`ServiceCounters`] is a bundle of atomics safe to share across worker
//! threads; [`ServiceCounters::snapshot`] captures a consistent-enough view
//! for a status endpoint, and the snapshot renders as a [`Table`] for
//! human consumption.
//!
//! Every counter is declared once, as one row of the `counters!` table
//! below. A row names the snapshot field (which is
//! also the key in the service's `status` wire object), the updater method
//! and its kind, the [`WireTier`], and the rendered label. The macro
//! generates the atomics, the updaters, [`ServiceCounters::snapshot`], the
//! [`CountersSnapshot`] struct, and the [`COUNTERS`] table that the wire
//! codec and [`CountersSnapshot::render`] walk. Adding a counter is one
//! row plus its call site.

use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter travels in the `status` wire object (protocol v1, whose
/// rule is that fields are only ever added).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTier {
    /// In v1 since its first release: always emitted, and a status line
    /// without it is rejected.
    Required,
    /// Added within v1: always emitted, and decoded as 0 when absent so
    /// older peers still parse.
    Defaulted,
    /// Added with overload control and the fault fabric: emitted only
    /// while nonzero (so older peers parse unchanged frames), and decoded
    /// as 0 when absent.
    OmitZero,
}

/// One row of the counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// Snapshot field name, also the key in the `status` wire object.
    pub key: &'static str,
    /// Row label in [`CountersSnapshot::render`].
    pub label: &'static str,
    /// How the counter is encoded and decoded on the wire.
    pub tier: WireTier,
}

impl CounterDef {
    /// Whether a counter holding `value` is written to the wire.
    pub fn emits(&self, value: u64) -> bool {
        self.tier != WireTier::OmitZero || value > 0
    }
}

/// Declares the counter table. Each row is
/// `field: [pub] kind updater, WireTier, "label";` where `kind` is `inc`
/// (add one), `add` (add n), `max` (keep the high-water mark), or `set`
/// (publish a gauge owned elsewhere). Row doc comments document the
/// updater.
macro_rules! counters {
    (@updater $(#[$doc:meta])* $vis:vis inc $method:ident $field:ident) => {
        $(#[$doc])*
        $vis fn $method(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@updater $(#[$doc:meta])* $vis:vis add $method:ident $field:ident) => {
        $(#[$doc])*
        $vis fn $method(&self, n: u64) {
            if n > 0 {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }
        }
    };
    (@updater $(#[$doc:meta])* $vis:vis max $method:ident $field:ident) => {
        $(#[$doc])*
        $vis fn $method(&self, value: u64) {
            self.$field.fetch_max(value, Ordering::Relaxed);
        }
    };
    (@updater $(#[$doc:meta])* $vis:vis set $method:ident $field:ident) => {
        $(#[$doc])*
        $vis fn $method(&self, total: u64) {
            self.$field.store(total, Ordering::Relaxed);
        }
    };
    ($(
        $(#[$doc:meta])*
        $field:ident: $vis:vis $kind:ident $method:ident, $tier:ident, $label:literal;
    )*) => {
        /// Monotonic counters and gauges for a request-serving process.
        ///
        /// All updates are `Relaxed` atomics: the counters are statistics,
        /// not synchronization, and must never contend on the hot path.
        ///
        /// # Examples
        ///
        /// ```
        /// use qmetrics::ServiceCounters;
        ///
        /// let c = ServiceCounters::new();
        /// c.inc_requests();
        /// c.inc_cache_miss();
        /// c.record_latency_us(1500);
        /// let snap = c.snapshot();
        /// assert_eq!(snap.requests, 1);
        /// assert_eq!(snap.cache_misses, 1);
        /// assert_eq!(snap.latency_max_us, 1500);
        /// ```
        #[derive(Debug, Default)]
        pub struct ServiceCounters {
            $($field: AtomicU64,)*
        }

        /// A point-in-time copy of a [`ServiceCounters`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // field names are the documentation
        pub struct CountersSnapshot {
            $(pub $field: u64,)*
        }

        /// Number of rows in [`COUNTERS`].
        pub const COUNTER_COUNT: usize = [$(stringify!($field)),*].len();

        /// The counter table, in wire order.
        pub static COUNTERS: [CounterDef; COUNTER_COUNT] = [$(
            CounterDef {
                key: stringify!($field),
                label: $label,
                tier: WireTier::$tier,
            },
        )*];

        impl ServiceCounters {
            $(counters!(@updater $(#[$doc])* $vis $kind $method $field);)*

            /// Captures the current values.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }

        impl CountersSnapshot {
            /// Every counter's value, in [`COUNTERS`] order.
            pub fn values(&self) -> [u64; COUNTER_COUNT] {
                [$(self.$field),*]
            }

            /// Every counter's slot, in [`COUNTERS`] order.
            pub fn values_mut(&mut self) -> [&mut u64; COUNTER_COUNT] {
                [$(&mut self.$field),*]
            }
        }
    };
}

counters! {
    /// Counts one received request (of any kind, accepted or rejected).
    requests: pub inc inc_requests, Required, "requests";
    /// Counts one job executed to completion by a worker.
    jobs_executed: pub inc inc_jobs_executed, Required, "jobs executed";
    /// Counts one job that reached a worker but failed.
    jobs_failed: pub inc inc_jobs_failed, Required, "jobs failed";
    /// Counts one request turned away because the queue was full.
    busy_rejections: pub inc inc_busy_rejection, Required, "busy rejections";
    /// Counts one profile served from cache.
    cache_hits: pub inc inc_cache_hit, Required, "cache hits";
    /// Counts one profile that had to be (re)measured.
    cache_misses: pub inc inc_cache_miss, Required, "cache misses";
    /// Records an observed queue depth, keeping the high-water mark.
    queue_depth_peak: pub max observe_queue_depth, Required, "queue depth peak";
    // The two latency rows update together, through `record_latency_us`.
    latency_total_us: add add_latency_total, Required, "latency total (us)";
    latency_max_us: max keep_latency_max, Required, "latency max (us)";
    /// Publishes the fault-injection total (a gauge owned by the fault
    /// plan, mirrored here so one snapshot carries everything).
    faults_injected: pub set set_faults_injected, Defaulted, "faults injected";
    /// Counts one retry of a transient characterization failure.
    retries: pub inc inc_retry, Defaulted, "retries";
    /// Counts one response served degraded (stale last-good profile).
    degraded_responses: pub inc inc_degraded_response, Defaulted, "degraded responses";
    /// Counts one job answered 504 because its deadline expired in queue.
    deadline_expirations: pub inc inc_deadline_expiration, Defaulted, "deadline expirations";
    /// Counts one idle or hung connection closed by the reaper.
    connections_reaped: pub inc inc_connection_reaped, Defaulted, "connections reaped";
    /// Counts one circuit breaker opening (failures or drift trips).
    breaker_trips: pub inc inc_breaker_trip, Defaulted, "breaker trips";
    /// Counts `n` characterization checkpoints appended to a journal.
    journal_checkpoints: pub add add_journal_checkpoints, Defaulted, "journal checkpoints";
    /// Counts one characterization job that resumed an in-flight journal
    /// instead of starting from scratch.
    resumed_jobs: pub inc inc_resumed_job, Defaulted, "resumed jobs";
    /// Counts one damaged profile moved aside to a quarantine path.
    profiles_quarantined: pub inc inc_profile_quarantined, Defaulted, "profiles quarantined";
    /// Publishes the invariant-clamp total (a gauge owned by the core
    /// validation ledger).
    invariant_clamps: pub set set_invariant_clamps, Defaulted, "invariant clamps";
    /// Publishes the simulator worker-pool task total (a gauge owned by
    /// `qsim::pool`).
    pool_tasks: pub set set_pool_tasks, Defaulted, "pool tasks";
    /// Publishes the simulator barrier-episode total (a gauge owned by
    /// `qsim::pool`).
    barrier_waits: pub set set_barrier_waits, Defaulted, "barrier waits";
    /// Publishes the statevector arena reuse total (a gauge owned by
    /// `qsim::arena`).
    arena_reuse_hits: pub set set_arena_reuse_hits, Defaulted, "arena reuse hits";
    /// Counts one return from the event loop's readiness wait (an
    /// `epoll_wait` wakeup, or its portable-fallback equivalent).
    epoll_wakeups: pub inc inc_epoll_wakeup, Defaulted, "epoll wakeups";
    /// Counts `n` newline-delimited frames extracted by the incremental
    /// parser (including blank keep-alive frames).
    frames_parsed: pub add add_frames_parsed, Defaulted, "frames parsed";
    /// Counts one transition of a connection into write backpressure (the
    /// socket refused bytes and the response stayed buffered until the
    /// poller reported writability).
    write_backpressure_events: pub inc inc_write_backpressure_event, Defaulted,
        "write backpressure events";
    /// Records an observed per-shard run-queue depth, keeping the
    /// high-water mark across all shards.
    shard_depth_peak: pub max observe_shard_depth, Defaulted, "shard depth peak";
    /// Publishes the cross-shard work-steal total (a gauge owned by the
    /// sharded run queue).
    queue_steals: pub set set_queue_steals, Defaulted, "queue steals";
    /// Counts one request forwarded to the owning node of its device.
    forwards: pub inc inc_forward, Defaulted, "forwards";
    /// Counts one profile or journal replica installed from a peer node.
    replication_writes: pub inc inc_replication_write, Defaulted, "replication writes";
    /// Counts one ownership takeover: this node served a device whose
    /// owner was dead or unreachable.
    failovers: pub inc inc_failover, Defaulted, "failovers";
    /// Counts one heartbeat probe that went unanswered.
    heartbeats_missed: pub inc inc_heartbeat_missed, Defaulted, "heartbeats missed";
    /// Counts one request that arrived at a node which neither owns nor
    /// follows the device — the sender routed on a stale cluster map.
    stale_map_retries: pub inc inc_stale_map_retry, Defaulted, "stale map retries";
    /// Counts one queued work job evicted by overload shedding to admit
    /// newer work (the victim's deadline was already impossible).
    requests_shed: pub inc inc_requests_shed, OmitZero, "requests shed";
    /// Publishes the retry-budget denial total (a gauge owned by the
    /// node's `RetryBudget`).
    retry_budget_exhausted: pub set set_retry_budget_exhausted, OmitZero,
        "retry budget exhausted";
    /// Publishes the suppressed-dial total (a gauge owned by the per-peer
    /// `DialGate`).
    peer_dials_suppressed: pub set set_peer_dials_suppressed, OmitZero, "peer dials suppressed";
    /// Publishes the network fault-injection total (a gauge owned by the
    /// node's `NetFaultPlan`, distinct from the request-level fault total).
    net_faults_injected: pub set set_net_faults_injected, OmitZero, "net faults injected";
    /// Publishes the healed-partition total (a gauge owned by the node's
    /// `NetFaultPlan`).
    partitions_healed: pub set set_partitions_healed, OmitZero, "partitions healed";
}

impl ServiceCounters {
    /// Creates a zeroed counter bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's end-to-end latency in microseconds: adds it
    /// to the running total and keeps the maximum.
    pub fn record_latency_us(&self, us: u64) {
        self.add_latency_total(us);
        self.keep_latency_max(us);
    }
}

impl CountersSnapshot {
    /// Every counter with its table row, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> {
        COUNTERS.iter().zip(self.values())
    }

    /// Mean per-job latency in microseconds (0 when nothing ran).
    pub fn latency_mean_us(&self) -> u64 {
        let jobs = self.jobs_executed + self.jobs_failed;
        self.latency_total_us.checked_div(jobs).unwrap_or(0)
    }

    /// Cache hit rate in `[0, 1]` (0 when the cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }

    /// Renders the snapshot as a two-column table: every counter in table
    /// order, then the two derived rows.
    pub fn render(&self) -> Table {
        let mut t = Table::new(&["counter", "value"]);
        for (def, value) in self.iter() {
            t.row_owned(vec![def.label.to_string(), value.to_string()]);
        }
        t.row_owned(vec![
            DERIVED_LABELS[0].to_string(),
            format!("{:.3}", self.cache_hit_rate()),
        ]);
        t.row_owned(vec![
            DERIVED_LABELS[1].to_string(),
            self.latency_mean_us().to_string(),
        ]);
        t
    }
}

/// Labels of the rows [`CountersSnapshot::render`] derives from others.
const DERIVED_LABELS: [&str; 2] = ["cache hit rate", "latency mean (us)"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        for _ in 0..3 {
            c.inc_requests();
        }
        c.inc_jobs_executed();
        c.inc_jobs_executed();
        c.inc_jobs_failed();
        c.inc_busy_rejection();
        c.inc_cache_hit();
        c.inc_cache_hit();
        c.inc_cache_hit();
        c.inc_cache_miss();
        c.observe_queue_depth(2);
        c.observe_queue_depth(7);
        c.observe_queue_depth(4);
        c.record_latency_us(100);
        c.record_latency_us(500);
        c.record_latency_us(300);
        c.set_faults_injected(4);
        c.inc_retry();
        c.inc_retry();
        c.inc_degraded_response();
        c.inc_deadline_expiration();
        c.inc_connection_reaped();
        c.inc_breaker_trip();
        c.add_journal_checkpoints(5);
        c.add_journal_checkpoints(0);
        c.inc_resumed_job();
        c.inc_profile_quarantined();
        c.set_invariant_clamps(3);
        c.set_pool_tasks(12);
        c.set_barrier_waits(34);
        c.set_arena_reuse_hits(56);
        c.inc_epoll_wakeup();
        c.inc_epoll_wakeup();
        c.add_frames_parsed(6);
        c.add_frames_parsed(0);
        c.inc_write_backpressure_event();
        c.observe_shard_depth(3);
        c.observe_shard_depth(9);
        c.observe_shard_depth(5);
        c.set_queue_steals(11);
        c.inc_forward();
        c.inc_forward();
        c.inc_replication_write();
        c.inc_failover();
        c.inc_heartbeat_missed();
        c.inc_heartbeat_missed();
        c.inc_heartbeat_missed();
        c.inc_stale_map_retry();
        c.inc_requests_shed();
        c.inc_requests_shed();
        c.set_retry_budget_exhausted(7);
        c.set_peer_dials_suppressed(4);
        c.set_net_faults_injected(9);
        c.set_partitions_healed(1);

        let s = c.snapshot();
        // In table order: the 9 required counters, the 23 defaulted ones,
        // then the omitted-while-zero ones.
        let expected = [
            3, 2, 1, 1, 3, 1, 7, 900, 500, //
            4, 2, 1, 1, 1, 1, 5, 1, 1, 3, 12, 34, 56, 2, 6, 1, 9, 11, 2, 1, 1, 3, 1, //
            2, 7, 4, 9, 1,
        ];
        assert_eq!(s.values()[..expected.len()], expected);
        assert_eq!(s.latency_mean_us(), 900 / 3);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn table_tiers_follow_the_wire_rule() {
        // v1 only ever adds fields: its first 9 keys are required, the
        // next 23 defaulted, and every later one is omitted while zero.
        for (i, def) in COUNTERS.iter().enumerate() {
            let tier = match i {
                0..=8 => WireTier::Required,
                9..=31 => WireTier::Defaulted,
                _ => WireTier::OmitZero,
            };
            assert_eq!(def.tier, tier, "{}", def.key);
        }
        let mut labels: Vec<&str> = COUNTERS.iter().map(|d| d.label).collect();
        labels.extend(DERIVED_LABELS);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), COUNTER_COUNT + DERIVED_LABELS.len());
    }

    #[test]
    fn zero_division_guards() {
        let s = ServiceCounters::new().snapshot();
        assert_eq!(s.latency_mean_us(), 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let c = Arc::new(ServiceCounters::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc_requests();
                        c.record_latency_us(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.requests, 8000);
        assert_eq!(s.latency_total_us, 8000);
    }

    #[test]
    fn render_includes_every_counter() {
        let mut snap = CountersSnapshot::default();
        for (i, slot) in snap.values_mut().into_iter().enumerate() {
            *slot = 1000 + i as u64;
        }
        let text = snap.render().to_string();
        // Header, rule, one row per counter, and the derived rows.
        assert_eq!(
            text.lines().count(),
            2 + COUNTER_COUNT + DERIVED_LABELS.len()
        );
        for (def, value) in snap.iter() {
            let row = text
                .lines()
                .find(|l| l.starts_with(&format!("{} ", def.label)))
                .unwrap_or_else(|| panic!("{} missing from:\n{text}", def.label));
            assert!(row.trim_end().ends_with(&value.to_string()), "{row}");
        }
        for label in DERIVED_LABELS {
            assert!(text.contains(label), "{label} missing from:\n{text}");
        }
    }
}
