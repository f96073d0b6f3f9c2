//! End-to-end contracts of the `elfie serve` daemon, over real loopback
//! sockets:
//!
//! * ≥100 concurrent warm-cache `validate` jobs answer bit-identically
//!   to offline `elfie validate` — with **zero** store writes;
//! * admission control sheds an over-capacity burst with typed `busy`
//!   responses;
//! * a malformed frame gets a typed `error` and the connection
//!   survives; an oversized frame gets a typed `error` and the stream
//!   closes;
//! * shutdown drains gracefully (every admitted job finishes);
//! * startup failures are typed errors, never panics;
//! * the `metrics` verb agrees *exactly* with the protocol-level stats —
//!   job totals, shed counts, per-shard queue depths, and a job-latency
//!   histogram — and the daemon's exit summary is its last `stats`
//!   reading;
//! * a daemon that has run no job already exposes every metric family,
//!   at zero;
//! * `submit --follow` streams typed phase events for a sharded
//!   simulate job, ending with the result frame;
//! * a served `simulate`, serial or sharded, models the whole region and
//!   reports the cycles and CPI offline simulation computes;
//! * served `record` and `replay` answer the offline summary lines;
//! * a recorded region is written to the store, not kept in memory: its
//!   first replay is a store hit, and distinct records leave nothing in
//!   the memory tier;
//! * a second served `validate` of the same tenant and workload reads
//!   every region measurement back: same bytes, no store write, no
//!   guest page materialized;
//! * tenants stay isolated while every shard shares their caches;
//! * a job submitted while another runs goes to the idle shard, even for
//!   the same tenant and workload, when a core is free to run it;
//! * a client-stamped request id lands on the daemon-side spans of the
//!   exported Chrome trace.

use elfie::prelude::*;
use elfie_serve::protocol::{read_frame, write_frame};
use elfie_serve::{
    Client, Daemon, FrameError, JobKind, JobPhase, JobSpec, Request, Response, ServeConfig,
    ServeError,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("elfie-serve-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The validate job every test fires: `tests/parallel_validation.rs`'s
/// small knobs, fast enough for a debug build at 100-job scale.
fn spec(workload: &str) -> JobSpec {
    JobSpec {
        kind: JobKind::Validate,
        workload: workload.to_string(),
        scale: "test".to_string(),
        slice: 5_000,
        warmup: 10_000,
        maxk: 5,
        seed: 42,
        fuel: 50_000_000,
        ..JobSpec::default()
    }
}

/// What offline `elfie validate` prints for [`spec`] on `workload` —
/// the exact bytes every daemon response must reproduce.
fn offline_reference(workload: &str) -> String {
    let w = elfie::workloads::find_workload(workload, InputScale::Test).expect("workload exists");
    let cfg = PinPointsConfig {
        slice_size: 5_000,
        warmup: 10_000,
        max_k: 5,
        ..PinPointsConfig::default()
    };
    let (report, _) = BatchValidator::serial()
        .validate(&w, &cfg, 42, 50_000_000)
        .expect("offline validate");
    elfie::render::validation_report(&w.name, &report)
}

#[test]
fn hundred_concurrent_warm_jobs_match_offline_bit_for_bit() {
    let dir = tmp("warm");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let tenants = ["acme", "zephyr"];
    let workloads = ["gcc_like", "mcf_like"];
    let references: Vec<String> = workloads.iter().map(|w| offline_reference(w)).collect();

    // Warm phase: one job per (tenant, workload). Each must already be
    // bit-identical to the offline render.
    let mut control = Client::connect(&addr).expect("connects");
    for tenant in tenants {
        for (w, reference) in workloads.iter().zip(&references) {
            match control.submit(tenant, spec(w)).expect("submits") {
                Response::Done { report, .. } => {
                    assert_eq!(
                        report, *reference,
                        "warm {tenant}/{w} diverged from offline"
                    )
                }
                other => panic!("warm {tenant}/{w}: {other:?}"),
            }
        }
    }
    let warm_stats = control.stats().expect("stats");
    assert!(warm_stats.store_puts > 0, "warming must populate the store");
    assert_eq!(warm_stats.failed, 0);

    // Measured phase: 100 jobs from 8 concurrent client connections,
    // round-robin over tenants and workloads.
    const JOBS: usize = 100;
    const CLIENTS: usize = 8;
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let (next, done, addr, references) = (&next, &done, &addr, &references);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= JOBS {
                        break;
                    }
                    let w = job % workloads.len();
                    let tenant = tenants[(job / workloads.len()) % tenants.len()];
                    match client.submit(tenant, spec(workloads[w])).expect("submits") {
                        Response::Done { report, .. } => {
                            assert_eq!(
                                report, references[w],
                                "job {job} ({tenant}/{}) diverged from offline",
                                workloads[w]
                            );
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("job {job}: {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), JOBS);

    // Zero store writes on a warm cache, and the daemon saw every job.
    let end_stats = control.stats().expect("stats");
    assert_eq!(
        end_stats.store_puts, warm_stats.store_puts,
        "warm-cache jobs must not write the store"
    );
    assert_eq!(end_stats.failed, 0);
    assert_eq!(
        end_stats.completed,
        (JOBS + tenants.len() * workloads.len()) as u64
    );
    assert!(end_stats.peak_rss_bytes > 0, "jobs materialize guest pages");

    // The job table saw everything finish.
    let jobs = control.jobs().expect("jobs");
    assert!(!jobs.is_empty());
    assert!(jobs.iter().all(|j| j.state == "done"), "{jobs:?}");

    // The metrics registry agrees exactly with what the test drove:
    // every submit is counted, every job completed, nothing failed,
    // the latency histogram saw every job, and the idle shards all
    // report empty queues.
    let total = end_stats.completed;
    let metrics = control.metrics().expect("metrics");
    assert_eq!(metrics.counters["serve.jobs.submitted"], total);
    assert_eq!(metrics.counters["serve.jobs.completed"], total);
    assert_eq!(metrics.counters["serve.jobs.failed"], 0);
    assert_eq!(metrics.counters["serve.requests.submit"], total);
    assert_eq!(metrics.histograms["serve.job_latency_ns"].count(), total);
    assert!(
        metrics.histograms["serve.job_latency_ns"].quantile(0.5) > 0,
        "median job latency must be nonzero"
    );
    for shard in 0..ServeConfig::default().shards {
        let depth = metrics.gauges[&format!("serve.shard{shard}.queue_depth")];
        assert_eq!(depth, 0, "idle shard {shard} reports a drained queue");
    }
    assert_eq!(
        metrics.counters["serve.store.puts"], end_stats.store_puts,
        "scrape-time store totals mirror the stats verb"
    );
    assert!(metrics.gauges["serve.peak_rss_bytes"] > 0);
    assert!(metrics.gauges["serve.uptime_s"] >= 0);

    // Graceful shutdown: the run thread joins and accounts for every job.
    let drained = control.shutdown().expect("shutdown");
    assert_eq!(drained, end_stats.completed);
    let report = server.join().expect("daemon thread");
    assert_eq!(report.completed, end_stats.completed);
    assert_eq!(report.failed, 0);
    assert!(report.connections > CLIENTS as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_capacity_burst_is_shed_with_typed_busy() {
    let dir = tmp("busy");
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        &dir,
        ServeConfig {
            shards: 1,
            queue_depth: 2,
        },
        None,
    )
    .expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    const BURST: usize = 12;
    let done = AtomicUsize::new(0);
    let busy = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..BURST {
            let (addr, done, busy) = (&addr, &done, &busy);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                match client.submit("burst", spec("gcc_like")).expect("submits") {
                    Response::Done { .. } => done.fetch_add(1, Ordering::Relaxed),
                    Response::Busy { shard, capacity } => {
                        assert_eq!(shard, 0, "single-shard daemon");
                        assert_eq!(capacity, 2);
                        busy.fetch_add(1, Ordering::Relaxed)
                    }
                    other => panic!("burst: {other:?}"),
                };
            });
        }
    });
    let (done, busy) = (done.load(Ordering::Relaxed), busy.load(Ordering::Relaxed));
    assert_eq!(done + busy, BURST, "every submit answers done or busy");
    assert!(done >= 1, "at least the running job completes");
    assert!(busy >= 1, "a 2-deep queue must shed a {BURST}-wide burst");

    let mut control = Client::connect(&addr).expect("connects");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.accepted, done as u64);
    assert_eq!(stats.rejected_busy, busy as u64);
    assert_eq!(stats.completed, done as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.connections, BURST as u64 + 1, "burst plus control");
    assert!(stats.peak_rss_bytes > 0, "jobs materialize guest pages");
    assert_eq!(stats.owned_rss_bytes, 0);
    let metrics = control.metrics().expect("metrics");
    assert_eq!(
        metrics.counters["serve.busy_shed"], busy as u64,
        "the shed counter mirrors the typed busy responses"
    );
    assert_eq!(metrics.counters["serve.jobs.completed"], done as u64);
    assert_eq!(control.shutdown().expect("shutdown"), done as u64);
    let report = server.join().expect("daemon thread");
    assert_eq!(report, stats, "the exit summary is the last stats reading");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_daemon_that_ran_no_job_exposes_every_metric_family() {
    let dir = tmp("idle-metrics");
    const SHARDS: usize = 3;
    let cfg = ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", &dir, cfg, None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut control = Client::connect(&addr).expect("connects");
    let metrics = control.metrics().expect("metrics");
    for name in [
        "serve.jobs.submitted",
        "serve.jobs.completed",
        "serve.jobs.failed",
        "serve.jobs.panicked",
        "serve.busy_shed",
        "serve.store.hits",
        "serve.store.puts",
    ] {
        assert_eq!(metrics.counters.get(name), Some(&0), "{name}: {metrics:?}");
    }
    for verb in ["ping", "submit", "jobs", "stats", "shutdown"] {
        let name = format!("serve.requests.{verb}");
        assert_eq!(metrics.counters.get(&name), Some(&0), "{name}: {metrics:?}");
    }
    assert_eq!(
        metrics.counters.get("serve.requests.metrics"),
        Some(&1),
        "the scrape counts itself"
    );
    let depths: Vec<&String> = metrics
        .gauges
        .keys()
        .filter(|name| name.ends_with(".queue_depth"))
        .collect();
    assert_eq!(
        depths.len(),
        SHARDS,
        "one queue gauge per shard: {depths:?}"
    );
    for shard in 0..SHARDS {
        let name = format!("serve.shard{shard}.queue_depth");
        assert_eq!(metrics.gauges.get(&name), Some(&0), "{name}: {metrics:?}");
    }
    assert_eq!(metrics.gauges.get("serve.connections"), Some(&1));
    for name in ["serve.peak_rss_bytes", "serve.owned_rss_bytes"] {
        assert_eq!(metrics.gauges.get(name), Some(&0), "{name}: {metrics:?}");
    }
    assert!(
        metrics
            .gauges
            .get("serve.uptime_s")
            .is_some_and(|&s| s >= 0),
        "{metrics:?}"
    );
    // Real process memory, read at scrape time: nonzero wherever procfs
    // exposes it, and the high-water mark never below the current set.
    let rss = metrics.gauges.get("serve.process_rss_bytes").copied();
    let hwm = metrics.gauges.get("serve.process_hwm_bytes").copied();
    assert!(rss.is_some() && hwm.is_some(), "{metrics:?}");
    if cfg!(target_os = "linux") {
        assert!(rss > Some(0) && hwm >= rss, "rss {rss:?} hwm {hwm:?}");
    }
    let latency = &metrics.histograms["serve.job_latency_ns"];
    assert_eq!(latency.count(), 0, "no job has finished");

    control.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_frame_gets_typed_error_and_connection_survives() {
    let dir = tmp("malformed");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr();
    let server = std::thread::spawn(move || daemon.run());

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // A well-framed payload that is not JSON: typed error, stream lives.
    let garbage = b"not json at all";
    let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(garbage);
    use std::io::Write as _;
    stream.write_all(&frame).unwrap();
    match Response::from_json(&read_frame(&mut stream).expect("error frame")).expect("decodes") {
        Response::Error { message } => assert!(message.contains("malformed"), "{message}"),
        other => panic!("{other:?}"),
    }

    // Valid JSON, unknown request type: typed error, stream lives.
    write_frame(
        &mut stream,
        &elfie::trace::json::Json::parse(r#"{"type":"warp"}"#).unwrap(),
    )
    .unwrap();
    match Response::from_json(&read_frame(&mut stream).expect("error frame")).expect("decodes") {
        Response::Error { message } => assert!(message.contains("warp"), "{message}"),
        other => panic!("{other:?}"),
    }

    // The same connection still serves real requests.
    write_frame(&mut stream, &Request::Ping.to_json()).unwrap();
    match Response::from_json(&read_frame(&mut stream).expect("pong frame")).expect("decodes") {
        Response::Pong { protocol, .. } => {
            assert_eq!(protocol, elfie_serve::PROTOCOL_VERSION)
        }
        other => panic!("{other:?}"),
    }
    drop(stream);

    // An oversized length prefix: typed error, then the daemon closes.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&(elfie_serve::MAX_FRAME + 1).to_be_bytes())
        .unwrap();
    match Response::from_json(&read_frame(&mut stream).expect("error frame")).expect("decodes") {
        Response::Error { message } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        read_frame(&mut stream),
        Err(FrameError::Closed),
        "a desynchronized stream must be closed"
    );

    let mut control = Client::connect(&addr.to_string()).expect("connects");
    control.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_follow_streams_every_phase_of_a_sharded_simulate_job() {
    let dir = tmp("follow");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let job = JobSpec {
        kind: JobKind::Simulate,
        workload: "gcc_like".to_string(),
        scale: "test".to_string(),
        start: 20_000,
        length: 6_000,
        shards: 2,
        interval: 1_000,
        ..JobSpec::default()
    };
    let mut client = Client::connect(&addr).expect("connects");
    let mut phases: Vec<(u64, u64, JobPhase)> = Vec::new();
    let response = client
        .submit_follow("acme", job, |id, shard, phase| {
            phases.push((id, shard, phase))
        })
        .expect("follows");
    match response {
        Response::Done { report, .. } => assert!(report.contains("sim "), "{report}"),
        other => panic!("{other:?}"),
    }

    // The stream carried every transition of the sharded pipeline, in
    // order: queued, profile, each slice completion, stitch, render.
    let names: Vec<&str> = phases.iter().map(|(_, _, p)| p.name()).collect();
    let expected_prefix = ["queued", "profile"];
    assert!(
        names.len() >= 4 && names[..2] == expected_prefix,
        "stream must open queued -> profile: {names:?}"
    );
    assert!(names.contains(&"slice"), "{names:?}");
    assert!(names.contains(&"stitch"), "{names:?}");
    assert!(names.contains(&"render"), "{names:?}");
    let slices: Vec<(u64, u64)> = phases
        .iter()
        .filter_map(|(_, _, p)| match *p {
            JobPhase::Slice { done, total } => Some((done, total)),
            _ => None,
        })
        .collect();
    assert!(!slices.is_empty());
    let total = slices[0].1;
    assert_eq!(
        slices.last().unwrap(),
        &(total, total),
        "the last slice event reports full completion: {slices:?}"
    );
    assert!(slices.windows(2).all(|w| w[0].0 < w[1].0), "{slices:?}");
    let ids: Vec<u64> = phases.iter().map(|(id, _, _)| *id).collect();
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "one job id: {ids:?}");

    // The jobs listing shows the retained job's final phase label.
    let jobs = client.jobs().expect("jobs");
    let row = jobs.iter().find(|j| j.id == ids[0]).expect("retained row");
    assert_eq!(row.state, "done");
    assert_eq!(row.phase, "render");

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_simulate_models_the_region_like_offline_simulate() {
    let dir = tmp("simulate");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Offline reference: the same fat region, simulated as offline
    // `elfie simulate` does — the whole captured region is the ROI.
    let (start, length) = (20_000, 6_000);
    let w = elfie::workloads::find_workload("gcc_like", InputScale::Test).expect("workload exists");
    let pb = elfie::pinplay::Logger::new(elfie::pinplay::LoggerConfig::fat(
        &w.name,
        elfie::pinball::RegionTrigger::GlobalIcount(start),
        length,
    ))
    .capture(&w.program, |m| w.setup(m))
    .expect("captures");
    let mut sim = elfie::sim::Simulator::gem5_se(elfie::sim::CoreParams::haswell_like());
    sim.roi = elfie::sim::RoiMode::Always;
    let figures = |o: &elfie::sim::SimOutcome| {
        format!(
            ": {} cycles, IPC {:.4}, CPI {:.4}, exit {:?}\n",
            o.cycles, o.ipc, o.cpi, o.exit
        )
    };
    let serial = elfie::sim::simulate_pinball(&pb, &sim);
    assert!(serial.cycles > 1, "offline reference models the region");
    let sliced = elfie::sim::simulate_pinball_sharded(
        &pb,
        &sim,
        &elfie::sim::ShardConfig {
            shards: 2,
            interval: length / 2,
        },
    );
    assert!(!sliced.snapshots.is_empty(), "half-region interval slices");

    // Serial, two shards over one slice (an interval as long as the
    // region: exactly the serial outcome), and two shards over two
    // slices (cold slices: exactly the offline sharded outcome).
    let mut client = Client::connect(&addr).expect("connects");
    for (shards, interval, expected) in [
        (0, 0, &serial),
        (2, length, &serial),
        (2, 0, &sliced.outcome),
    ] {
        let job = JobSpec {
            kind: JobKind::Simulate,
            workload: "gcc_like".to_string(),
            scale: "test".to_string(),
            start,
            length,
            sim: "gem5-haswell".to_string(),
            shards,
            interval,
            ..JobSpec::default()
        };
        match client.submit("acme", job).expect("submits") {
            Response::Done { report, .. } => assert!(
                report.ends_with(&figures(expected)),
                "shards {shards} interval {interval}: served `{report}` != offline `{}`",
                figures(expected)
            ),
            other => panic!("shards {shards}: {other:?}"),
        }
    }

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `kind` job over the gcc_like region the region tests share.
fn region_spec(kind: JobKind, start: u64, length: u64) -> JobSpec {
    JobSpec {
        kind,
        workload: "gcc_like".to_string(),
        scale: "test".to_string(),
        start,
        length,
        ..JobSpec::default()
    }
}

#[test]
fn served_record_and_replay_match_offline_summary_lines() {
    let dir = tmp("record-replay");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Offline reference: `elfie record` + `elfie replay` of the region.
    let (start, length) = (20_000, 6_000);
    let w = elfie::workloads::find_workload("gcc_like", InputScale::Test).expect("workload exists");
    let pb = elfie::pinplay::Logger::new(elfie::pinplay::LoggerConfig::fat(
        &w.name,
        elfie::pinball::RegionTrigger::GlobalIcount(start),
        length,
    ))
    .capture(&w.program, |m| w.setup(m))
    .expect("captures");
    let summary = Replayer::new(ReplayConfig::default()).replay(&pb, |_| {});
    assert!(summary.completed, "offline replay completes");

    let mut client = Client::connect(&addr).expect("connects");
    for (kind, expected) in [
        (JobKind::Record, elfie::render::capture_line(&pb)),
        (
            JobKind::Replay,
            elfie::render::replay_line(&pb.region.name, &summary),
        ),
    ] {
        match client
            .submit("acme", region_spec(kind, start, length))
            .expect("submits")
        {
            Response::Done { report, .. } => assert_eq!(report, expected, "{kind:?}"),
            other => panic!("{kind:?}: {other:?}"),
        }
    }

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `stats` deltas `(misses, hits, store hits, store puts)` that one
/// `tenant` job of `kind` on the gcc_like region at `start` caused.
fn job_deltas(
    client: &mut Client,
    tenant: &str,
    kind: JobKind,
    start: u64,
) -> (u64, u64, u64, u64) {
    let before = client.stats().expect("stats");
    match client
        .submit(tenant, region_spec(kind, start, 6_000))
        .expect("submits")
    {
        Response::Done { .. } => {}
        other => panic!("{tenant} {kind:?}@{start}: {other:?}"),
    }
    let after = client.stats().expect("stats");
    (
        after.cache_misses - before.cache_misses,
        after.cache_hits - before.cache_hits,
        after.store_hits - before.store_hits,
        after.store_puts - before.store_puts,
    )
}

#[test]
fn a_recorded_region_is_replayed_from_the_store_then_from_memory() {
    let dir = tmp("record-admission");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connects");
    assert_eq!(
        job_deltas(&mut client, "acme", JobKind::Record, 20_000),
        (1, 0, 0, 1),
        "record: one capture, written to the store"
    );
    assert_eq!(
        job_deltas(&mut client, "acme", JobKind::Replay, 20_000),
        (0, 1, 1, 0),
        "replay: read back from the store, not memory"
    );
    assert_eq!(
        job_deltas(&mut client, "acme", JobKind::Replay, 20_000),
        (0, 1, 0, 0),
        "replay again: memory keeps what was read back"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_records_leave_the_memory_tier_empty() {
    let dir = tmp("record-memory");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    const N: u64 = 4;
    let starts: Vec<u64> = (0..N).map(|i| 20_000 + 1_000 * i).collect();
    let mut client = Client::connect(&addr).expect("connects");
    for &start in &starts {
        assert_eq!(
            job_deltas(&mut client, "acme", JobKind::Record, start),
            (1, 0, 0, 1),
            "record@{start}"
        );
    }
    // Had memory kept any record, its replay would be a memory hit.
    for &start in &starts {
        assert_eq!(
            job_deltas(&mut client, "acme", JobKind::Replay, start),
            (0, 1, 1, 0),
            "replay@{start} must read the store"
        );
    }

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tenants_stay_isolated_while_shards_share_caches() {
    let dir = tmp("tenants");
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", &dir, cfg, None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connects");
    let mut record = |tenant| job_deltas(&mut client, tenant, JobKind::Record, 20_000);
    assert_eq!(record("a"), (1, 0, 0, 1), "a: cold capture, one put");
    assert_eq!(
        record("b"),
        (1, 0, 0, 1),
        "b must not hit a's memory tier or store namespace"
    );
    assert_eq!(record("a"), (0, 1, 1, 0), "a: warm hit, no put");

    let refs: Vec<String> = elfie::store::Store::open(&dir)
        .expect("opens store")
        .list()
        .expect("lists")
        .into_iter()
        .map(|e| e.name)
        .collect();
    for tenant in ["a", "b"] {
        let prefix = format!("{tenant}--pinball-");
        assert!(
            refs.iter().any(|name| name.starts_with(&prefix)),
            "no {prefix}… ref in {refs:?}"
        );
    }

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_idle_shard_takes_the_job_another_shard_is_running() {
    let dir = tmp("idle-shard");
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", &dir, cfg, None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Offline references: the region's capture line and its two-slice
    // sharded simulation, over a region long enough that A runs for far
    // longer than B's round trip.
    let (start, length) = (20_000, 100_000);
    let w = elfie::workloads::find_workload("gcc_like", InputScale::Test).expect("workload exists");
    let pb = elfie::pinplay::Logger::new(elfie::pinplay::LoggerConfig::fat(
        &w.name,
        elfie::pinball::RegionTrigger::GlobalIcount(start),
        length,
    ))
    .capture(&w.program, |m| w.setup(m))
    .expect("captures");
    let mut sim = elfie::sim::Simulator::gem5_se(elfie::sim::CoreParams::haswell_like());
    sim.roi = elfie::sim::RoiMode::Always;
    let shard_cfg = elfie::sim::ShardConfig {
        shards: 2,
        interval: length / 2,
    };
    let sharded = elfie::sim::simulate_pinball_sharded(&pb, &sim, &shard_cfg);
    let o = &sharded.outcome;
    let simulated = format!(
        "sim gem5-haswell on {} ({} slices, {} workers): {} cycles, IPC {:.4}, CPI {:.4}, exit {:?}\n",
        pb.region.name,
        sharded.slices.len(),
        sharded.workers,
        o.cycles,
        o.ipc,
        o.cpi,
        o.exit
    );
    let recorded = elfie::render::capture_line(&pb);

    // A follows a sharded simulate. Once it reports a phase past
    // `queued` it is running, and it stays counted on its shard until
    // its reply is sent. B has the same tenant and workload, so the same
    // home shard: with a second core free it must go to the idle shard;
    // on a single core it stays home.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let a_job = JobSpec {
        sim: "gem5-haswell".to_string(),
        shards: shard_cfg.shards as u64,
        interval: shard_cfg.interval,
        ..region_spec(JobKind::Simulate, start, length)
    };
    let mut a = Client::connect(&addr).expect("a connects");
    let mut b = Client::connect(&addr).expect("b connects");
    let mut a_shard = None;
    let mut b_response = None;
    let a_response = a
        .submit_follow("acme", a_job, |_, shard, phase| {
            if phase != JobPhase::Queued && b_response.is_none() {
                a_shard = Some(shard);
                b_response = Some(
                    b.submit("acme", region_spec(JobKind::Record, start, length))
                        .expect("b submits"),
                );
            }
        })
        .expect("a follows");
    let a_shard = a_shard.expect("a reported a phase past queued");
    match a_response {
        Response::Done { shard, report, .. } => {
            assert_eq!(shard, a_shard);
            assert_eq!(report, simulated);
        }
        other => panic!("a: {other:?}"),
    }
    match b_response.expect("b submitted") {
        Response::Done { shard, report, .. } => {
            if cores >= 2 {
                assert_ne!(shard, a_shard, "b must not queue behind a running job");
            } else {
                assert_eq!(shard, a_shard, "with every core busy, b stays home");
            }
            assert_eq!(report, recorded);
        }
        other => panic!("b: {other:?}"),
    }

    a.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_ids_correlate_daemon_spans_in_exported_trace() {
    let dir = tmp("rid");
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        &dir,
        ServeConfig::default(),
        Some(Arc::clone(&tracer)),
    )
    .expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connects");
    match client.submit("acme", spec("gcc_like")).expect("submits") {
        Response::Done { .. } => {}
        other => panic!("{other:?}"),
    }
    let rid = client.last_rid();
    assert_ne!(rid, 0, "the client stamps every request");
    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");

    // The exported Chrome trace carries the client's id on both the
    // connection-side request span and the shard worker's job span.
    let doc = elfie::trace::chrome_trace(&tracer.collect());
    let chain = elfie::trace::request_chain(&doc, rid).expect("chain");
    assert!(
        chain.iter().any(|s| s.name.starts_with("request")),
        "request span must carry request_id {rid}: {chain:?}"
    );
    assert!(
        chain.iter().any(|s| s.name.starts_with("job")),
        "job span must carry request_id {rid}: {chain:?}"
    );
    // A different request (the shutdown) got a different id, so its
    // spans are not in this chain.
    assert_ne!(client.last_rid(), rid);
    assert!(
        chain.iter().all(|s| !s.name.contains("shutdown")),
        "{chain:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_second_served_validate_reads_its_measurements_back() {
    let dir = tmp("measure-reuse");
    let daemon = Daemon::bind("127.0.0.1:0", &dir, ServeConfig::default(), None).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connects");
    let mut validate = || {
        let before = client.stats().expect("stats");
        let report = match client.submit("acme", spec("gcc_like")).expect("submits") {
            Response::Done { report, .. } => report,
            other => panic!("{other:?}"),
        };
        let after = client.stats().expect("stats");
        (report, before, after)
    };
    let (cold, _, _) = validate();
    assert_eq!(cold, offline_reference("gcc_like"));
    let (warm, before, after) = validate();
    assert_eq!(warm, cold, "the second job must answer the same bytes");
    assert_eq!(after.store_puts, before.store_puts, "and write nothing");
    assert_eq!(
        after.cache_misses, before.cache_misses,
        "and compute nothing"
    );
    assert!(after.store_hits > before.store_hits);
    assert_eq!(
        after.peak_rss_bytes, before.peak_rss_bytes,
        "and materialize no guest page"
    );

    let refs: Vec<String> = elfie::store::Store::open(&dir)
        .expect("opens store")
        .list()
        .expect("lists")
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(
        refs.iter().any(|name| name.starts_with("acme--measure-")),
        "no acme--measure-… ref in {refs:?}"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_served_validate_keeps_its_shard_thread_name() {
    let dir = tmp("thread-name");
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        &dir,
        ServeConfig::default(),
        Some(Arc::clone(&tracer)),
    )
    .expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connects");
    match client.submit("acme", spec("gcc_like")).expect("submits") {
        Response::Done { .. } => {}
        other => panic!("{other:?}"),
    }
    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread");

    // The validate engine runs on the shard worker's thread; it must not
    // rename that thread's track.
    let data = tracer.collect();
    let job_tracks: Vec<&str> = data
        .tracks
        .iter()
        .filter(|t| t.events.iter().any(|e| e.name == "job"))
        .map(|t| t.name.as_str())
        .collect();
    assert_eq!(job_tracks.len(), 1, "{job_tracks:?}");
    assert!(job_tracks[0].starts_with("shard-"), "{job_tracks:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn startup_failures_are_typed_errors_not_panics() {
    // Store path exists but is a file.
    let dir = tmp("startup");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"x").unwrap();
    match Daemon::bind("127.0.0.1:0", &file, ServeConfig::default(), None) {
        Err(ServeError::Store { dir: d, .. }) => assert_eq!(d, file),
        other => panic!("{:?}", other.err()),
    }

    // Listen address already taken.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    match Daemon::bind(&addr, &dir.join("store"), ServeConfig::default(), None) {
        Err(ServeError::Bind { addr: a, .. }) => assert_eq!(a, addr),
        other => panic!("{:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}
