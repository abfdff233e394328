//! Golden wire bytes for the `status` response.
//!
//! The `counters` object is part of protocol v1, so its bytes must not
//! drift: key names, key order, the always-emitted keys, and the keys
//! omitted while zero. The counters are built through the public updater
//! methods only, so these tests also pin which updater feeds which key.

use invmeas_service::{Response, StatusResponse};
use qmetrics::{CountersSnapshot, ServiceCounters};

fn times(n: u64, f: impl Fn()) {
    for _ in 0..n {
        f();
    }
}

/// Every counter distinct and nonzero: counter `i` in wire order holds
/// `i + 1`, except the two latency counters, which one pair of
/// `record_latency_us` calls sets to a total of 1500 and a max of 1000.
fn distinct_counters() -> CountersSnapshot {
    let c = ServiceCounters::new();
    c.inc_requests();
    times(2, || c.inc_jobs_executed());
    times(3, || c.inc_jobs_failed());
    times(4, || c.inc_busy_rejection());
    times(5, || c.inc_cache_hit());
    times(6, || c.inc_cache_miss());
    c.observe_queue_depth(7);
    c.record_latency_us(500);
    c.record_latency_us(1000);
    c.set_faults_injected(10);
    times(11, || c.inc_retry());
    times(12, || c.inc_degraded_response());
    times(13, || c.inc_deadline_expiration());
    times(14, || c.inc_connection_reaped());
    times(15, || c.inc_breaker_trip());
    c.add_journal_checkpoints(16);
    times(17, || c.inc_resumed_job());
    times(18, || c.inc_profile_quarantined());
    c.set_invariant_clamps(19);
    c.set_pool_tasks(20);
    c.set_barrier_waits(21);
    c.set_arena_reuse_hits(22);
    times(23, || c.inc_epoll_wakeup());
    c.add_frames_parsed(24);
    times(25, || c.inc_write_backpressure_event());
    c.observe_shard_depth(26);
    c.set_queue_steals(27);
    times(28, || c.inc_forward());
    times(29, || c.inc_replication_write());
    times(30, || c.inc_failover());
    times(31, || c.inc_heartbeat_missed());
    times(32, || c.inc_stale_map_retry());
    times(33, || c.inc_requests_shed());
    c.set_retry_budget_exhausted(34);
    c.set_peer_dials_suppressed(35);
    c.set_net_faults_injected(36);
    c.set_partitions_healed(37);
    c.snapshot()
}

fn status(counters: CountersSnapshot) -> Response {
    Response::Status(StatusResponse {
        window: 3,
        workers: 2,
        queue_depth: 1,
        queue_capacity: 32,
        draining: false,
        counters,
    })
}

const DISTINCT_LINE: &str = concat!(
    r#"{"v":1,"ok":true,"op":"status","window":3,"workers":2,"queue_depth":1,"#,
    r#""queue_capacity":32,"draining":false,"counters":{"requests":1,"jobs_executed":2,"#,
    r#""jobs_failed":3,"busy_rejections":4,"cache_hits":5,"cache_misses":6,"#,
    r#""queue_depth_peak":7,"latency_total_us":1500,"latency_max_us":1000,"#,
    r#""faults_injected":10,"retries":11,"degraded_responses":12,"#,
    r#""deadline_expirations":13,"connections_reaped":14,"breaker_trips":15,"#,
    r#""journal_checkpoints":16,"resumed_jobs":17,"profiles_quarantined":18,"#,
    r#""invariant_clamps":19,"pool_tasks":20,"barrier_waits":21,"arena_reuse_hits":22,"#,
    r#""epoll_wakeups":23,"frames_parsed":24,"write_backpressure_events":25,"#,
    r#""shard_depth_peak":26,"queue_steals":27,"forwards":28,"replication_writes":29,"#,
    r#""failovers":30,"heartbeats_missed":31,"stale_map_retries":32,"requests_shed":33,"#,
    r#""retry_budget_exhausted":34,"peer_dials_suppressed":35,"net_faults_injected":36,"#,
    r#""partitions_healed":37}}"#,
);

const ZERO_LINE: &str = concat!(
    r#"{"v":1,"ok":true,"op":"status","window":3,"workers":2,"queue_depth":1,"#,
    r#""queue_capacity":32,"draining":false,"counters":{"requests":0,"jobs_executed":0,"#,
    r#""jobs_failed":0,"busy_rejections":0,"cache_hits":0,"cache_misses":0,"#,
    r#""queue_depth_peak":0,"latency_total_us":0,"latency_max_us":0,"#,
    r#""faults_injected":0,"retries":0,"degraded_responses":0,"#,
    r#""deadline_expirations":0,"connections_reaped":0,"breaker_trips":0,"#,
    r#""journal_checkpoints":0,"resumed_jobs":0,"profiles_quarantined":0,"#,
    r#""invariant_clamps":0,"pool_tasks":0,"barrier_waits":0,"arena_reuse_hits":0,"#,
    r#""epoll_wakeups":0,"frames_parsed":0,"write_backpressure_events":0,"#,
    r#""shard_depth_peak":0,"queue_steals":0,"forwards":0,"replication_writes":0,"#,
    r#""failovers":0,"heartbeats_missed":0,"stale_map_retries":0}}"#,
);

#[test]
fn status_bytes_with_every_counter_distinct() {
    let response = status(distinct_counters());
    assert_eq!(response.to_line(), DISTINCT_LINE);
    assert_eq!(Response::from_line(DISTINCT_LINE).unwrap(), response);
}

#[test]
fn status_bytes_with_every_counter_zero_omit_the_additive_keys() {
    let response = status(ServiceCounters::new().snapshot());
    assert_eq!(response.to_line(), ZERO_LINE);
    assert_eq!(Response::from_line(ZERO_LINE).unwrap(), response);
}

#[test]
fn status_with_only_the_required_keys_decodes_the_rest_as_zero() {
    let line = concat!(
        r#"{"v":1,"ok":true,"op":"status","window":3,"workers":2,"queue_depth":1,"#,
        r#""queue_capacity":32,"draining":false,"counters":{"requests":1,"jobs_executed":2,"#,
        r#""jobs_failed":3,"busy_rejections":4,"cache_hits":5,"cache_misses":6,"#,
        r#""queue_depth_peak":7,"latency_total_us":1500,"latency_max_us":1000}}"#,
    );
    let c = ServiceCounters::new();
    c.inc_requests();
    times(2, || c.inc_jobs_executed());
    times(3, || c.inc_jobs_failed());
    times(4, || c.inc_busy_rejection());
    times(5, || c.inc_cache_hit());
    times(6, || c.inc_cache_miss());
    c.observe_queue_depth(7);
    c.record_latency_us(500);
    c.record_latency_us(1000);
    assert_eq!(Response::from_line(line).unwrap(), status(c.snapshot()));

    // Dropping any one required key is a decode error.
    let without_requests = line.replace(r#""requests":1,"#, "");
    assert!(Response::from_line(&without_requests).is_err());
}
