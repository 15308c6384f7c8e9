//! One untraced pass through the real online path: start the engine (and
//! servers), feed the pre-simulated stream as fast as `Block`
//! backpressure admits, drain, then run the query mix over `GET /traces`.

use crate::telemetry;
use crate::workload::{simulate, Input, Spec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tw_core::{Params, TraceWeaver};
use tw_model::ids::ServiceId;
use tw_model::time::Nanos;
use tw_pipeline::{
    export_records_with, fetch_traces, CheckpointConfig, DegradationLevel, ExportRetry,
    IngestServer, MetricsServer, OnlineConfig, OnlineEngine, SanitizeConfig, ServeHealth,
    WindowResult,
};
use tw_store::{ArchiveConfig, StoredTrace, TraceArchive, TraceQuery};
use tw_telemetry::Registry;

fn engine_config(spec: &Spec, dir: &Path, telemetry: &Registry) -> OnlineConfig {
    OnlineConfig {
        window: Nanos::from_millis(spec.window_ms),
        // 1 MiB segments, compactor on (the defaults).
        archive: Some(ArchiveConfig::new(dir.join("archive"))),
        telemetry: telemetry.clone(),
        // The deployment shape: sanitize between ingest and windowing,
        // warm-start windows, a checkpoint every second.
        sanitize: spec.deploy.then(SanitizeConfig::default),
        warm_start: spec.deploy,
        checkpoint: spec
            .deploy
            .then(|| CheckpointConfig::new(dir.join("checkpoint"))),
        ..OnlineConfig::default()
    }
}

/// The fixed query mix run after the drain, one connection at a time:
/// by window id (the exemplar path, so most of the mix: an operator
/// follows a slow window's `window_id` exemplar to its traces), by
/// service, by minimum latency and by time range. It depends only on the
/// input and the windows, so it is the same in every pass of a seed.
pub fn query_mix(input: &Input, windows: &[u64], stream_ms: u64) -> Vec<TraceQuery> {
    let mut services: Vec<ServiceId> = input.records.iter().map(|r| r.callee.service).collect();
    services.sort_unstable();
    services.dedup();
    let mut mix: Vec<TraceQuery> = services
        .iter()
        .map(|s| TraceQuery {
            service: Some(s.0),
            ..TraceQuery::default()
        })
        .collect();
    const WINDOW_QUERIES: usize = 16;
    mix.extend((0..WINDOW_QUERIES).map(|k| TraceQuery {
        window: Some(windows[k * windows.len() / WINDOW_QUERIES]),
        ..TraceQuery::default()
    }));
    mix.extend([5, 10, 20, 50].map(|ms| TraceQuery {
        min_latency_ns: Some(ms * 1_000_000),
        ..TraceQuery::default()
    }));
    let quarter = stream_ms / 4;
    mix.extend((0..4).map(|k| TraceQuery {
        from_ns: Some(k * quarter * 1_000_000),
        to_ns: Some((k + 1) * quarter * 1_000_000),
        ..TraceQuery::default()
    }));
    mix
}

/// Everything one pass measured and produced.
pub struct Pass {
    pub input: Input,
    pub setup_s: f64,
    /// First record sent → drained, archive synced.
    pub wall_s: f64,
    pub windows: Vec<WindowResult>,
    /// Work counters (global-registry deltas plus the pass's own
    /// registry): deterministic for a seed unless listed in
    /// [`TIMING_DEPENDENT`].
    pub counts: BTreeMap<&'static str, u64>,
    /// Records that did not reach a `Full`-rung window, dead letters,
    /// stage failures and failed queries, each with its reason.
    pub failures: Vec<String>,
    /// Records sent that no `Full`-rung window delivered (shed, skipped,
    /// dead-lettered, rejected by the sanitizer, or lost).
    pub undelivered: u64,
    /// `GET /traces` round trips, in seconds.
    pub query_s: Vec<f64>,
    pub queries: usize,
    /// Each query's answer, for the check against `read_query`.
    pub answers: Vec<Vec<StoredTrace>>,
    pub archive_dir: PathBuf,
}

/// Counters that follow wall-clock cadence (the checkpointer's 1 s timer,
/// the compactor's 2 s timer), so they may differ between passes.
pub const TIMING_DEPENDENT: [&str; 2] = ["checkpoint.writes", "archive.compactions"];

/// The running system of one pass: engine, archive and servers.
struct Deployment {
    input: Input,
    registry: Registry,
    engine: OnlineEngine,
    archive: Arc<TraceArchive>,
    metrics_server: MetricsServer,
    ingest_server: Option<IngestServer>,
}

/// Set-up: simulate and sort the stream, start the engine and servers.
fn deploy(spec: &Spec, seed: u64, dir: &Path) -> Deployment {
    let input = simulate(spec, seed);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("pass directory");
    let registry = Registry::new();
    let tw = TraceWeaver::new(input.graph.clone(), Params::default());
    let engine = OnlineEngine::start(tw, engine_config(spec, dir, &registry));
    let archive: Arc<TraceArchive> = engine.archive().expect("archive configured").clone();
    let health = ServeHealth::new();
    health.attach_archive(archive.clone());
    health.attach_dead_letters(engine.dead_letters().clone());
    health.set_ready();
    let metrics_server = MetricsServer::bind_with(
        "127.0.0.1:0",
        vec![registry.clone(), tw_telemetry::global().clone()],
        health,
    )
    .expect("bind metrics server");
    let ingest_server = spec.deploy.then(|| {
        IngestServer::bind_in("127.0.0.1:0", engine.ingest_handle(), &registry)
            .expect("bind ingest server")
    });
    Deployment {
        input,
        registry,
        engine,
        archive,
        metrics_server,
        ingest_server,
    }
}

/// One set-up, timed, then torn down without sending anything: extra
/// `setup_s` samples, so its median does not rest on the few passes a
/// long workload fits into a run.
pub fn setup_sample(spec: &Spec, seed: u64, dir: &Path) -> f64 {
    let start = Instant::now();
    let d = deploy(spec, seed, dir);
    let setup_s = start.elapsed().as_secs_f64();
    if let Some(server) = d.ingest_server {
        server.shutdown();
    }
    d.engine.shutdown();
    d.metrics_server.shutdown();
    setup_s
}

pub fn run_pass(spec: &Spec, seed: u64, dir: &Path) -> Pass {
    let setup_start = Instant::now();
    let Deployment {
        input,
        registry,
        engine,
        archive,
        metrics_server,
        ingest_server,
    } = deploy(spec, seed, dir);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let global_before = telemetry::totals(tw_telemetry::global());

    let send_start = Instant::now();
    let mut failures = Vec::new();
    match &ingest_server {
        // The whole stream goes out as ONE export connection. Splitting
        // it into several exports lets `IngestServer` serve the
        // connections concurrently, interleaving their records, and the
        // window count then varies run to run (58 and 65 windows against
        // 81 for one connection on a 20 s stream). One connection keeps
        // arrival order, and so every window, deterministic.
        Some(server) => {
            if let Err(err) =
                export_records_with(server.local_addr(), &input.records, ExportRetry::none())
            {
                failures.push(format!("export failed: {err}"));
            }
        }
        None => {
            let ingest = engine.ingest_handle();
            for rec in &input.records {
                ingest.send(*rec).expect("engine accepts records");
            }
        }
    }
    let ingest_stats = ingest_server.map(|server| {
        let stats = server.stats();
        server.shutdown(); // serves the connection to EOF first
        stats
    });
    let dead_letters = engine.dead_letters().clone();
    let (windows, sanitize_stats) = engine.shutdown_with_stats();
    let wall_s = send_start.elapsed().as_secs_f64();
    let global_after = telemetry::totals(tw_telemetry::global());

    // Queries: after the drain, one connection at a time.
    let indices: Vec<u64> = windows.iter().map(|w| w.index).collect();
    let mix = query_mix(&input, &indices, spec.stream_ms);
    let mut query_s = Vec::with_capacity(mix.len());
    let mut answers = Vec::with_capacity(mix.len());
    for query in &mix {
        let t0 = Instant::now();
        match fetch_traces(metrics_server.local_addr(), query) {
            Ok(traces) => {
                query_s.push(t0.elapsed().as_secs_f64());
                answers.push(traces);
            }
            Err(err) => {
                failures.push(format!("GET /traces {query:?} failed: {err}"));
                answers.push(Vec::new());
            }
        }
    }
    metrics_server.shutdown();
    let local = telemetry::totals(&registry);

    let records = input.records.len() as u64;
    let delivered: u64 = windows
        .iter()
        .filter(|w| w.degradation == DegradationLevel::Full && w.shed_records == 0)
        .map(|w| w.records.len() as u64)
        .sum();
    let undelivered = records.saturating_sub(delivered);
    if undelivered > 0 {
        failures.push(format!(
            "{undelivered} of {records} records not delivered in a Full-rung window"
        ));
    }
    if !dead_letters.is_empty() {
        failures.push(format!("{} dead letters", dead_letters.len()));
    }
    if let Some(stats) = ingest_stats {
        if stats.decode_errors > 0 || stats.connections_dropped > 0 || stats.bytes_discarded > 0 {
            failures.push(format!("ingest errors: {stats:?}"));
        }
    }

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let g = |name: &str| telemetry::delta(&global_before, &global_after, name).round() as u64;
    counts.insert("records", records);
    counts.insert("windows", windows.len() as u64);
    counts.insert("solve.solves", g("tw_solver_solves_total"));
    counts.insert("solve.nodes", g("tw_solver_nodes_expanded_total"));
    counts.insert("solve.inexact_solves", g("tw_solver_inexact_total"));
    counts.insert(
        "solve.inexact_batches",
        windows
            .iter()
            .map(|w| w.reconstruction.summary().inexact_batches as u64)
            .sum(),
    );
    counts.insert("tasks", g("tw_core_tasks_total"));
    counts.insert("candidates.count", g("tw_core_candidates_total"));
    counts.insert("batching.batches", g("tw_core_batches_total"));
    counts.insert("batching.spans", g("tw_core_batch_size_sum"));
    counts.insert("refit.em_iterations", g("tw_core_em_iterations_total"));
    counts.insert("refit.edge_fits", g("tw_core_gmm_components_count"));
    counts.insert(
        "registry.quarantined",
        g("tw_core_registry_quarantined_total"),
    );
    counts.insert(
        "net.records",
        telemetry::count(&local, "tw_ingest_frames_total"),
    );
    counts.insert(
        "net.decode_errors",
        telemetry::count(&local, "tw_ingest_decode_errors_total"),
    );
    let (passed, rejected) = sanitize_stats.map_or((0, 0), |s| (s.passed, s.rejected()));
    counts.insert("sanitize.passed", passed);
    counts.insert("sanitize.rejected", rejected);
    counts.insert(
        "online.degraded_windows",
        windows
            .iter()
            .filter(|w| w.degradation != DegradationLevel::Full)
            .count() as u64,
    );
    counts.insert("archive.traces", archive.committed_traces());
    counts.insert("archive.bytes", archive.committed_bytes());
    counts.insert("archive.segments", archive.segment_count() as u64);
    counts.insert(
        "archive.compactions",
        telemetry::count(&local, "tw_store_compactions_total"),
    );
    counts.insert(
        "checkpoint.writes",
        telemetry::count(&local, "tw_pipeline_checkpoint_writes_total"),
    );
    counts.insert(
        "query.traces_returned",
        answers.iter().map(|a| a.len() as u64).sum(),
    );

    Pass {
        input,
        setup_s,
        wall_s,
        windows,
        counts,
        failures,
        undelivered,
        query_s,
        queries: mix.len(),
        answers,
        archive_dir: dir.join("archive"),
    }
}
