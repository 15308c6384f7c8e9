//! perfbench: the layered benchmark of TraceWeaver's online path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each pass simulates one of the run's streams (a run covers
//! `workload::INPUTS` streams, the first from `--seed` itself), sorts it by
//! `(recv_resp, rpc)`, starts `OnlineEngine` with the archive on (plus
//! `IngestServer`, `SanitizeStage`, warm start and checkpoints on
//! `deploy-300-warm`), feeds the whole stream as fast as `Block`
//! backpressure admits from that one process, drains, and runs a fixed
//! query mix over `GET /traces`. Every pass runs in a child process of its
//! own (`pass.rs`), one after another. Rounds of one pass on each input
//! repeat for `--seconds` (at least one round; the last may end up to
//! half a round later). The engine runs
//! with its defaults: one shard, `Params::threads` = 1.
//!
//! `--trace 0` prints the end-to-end metrics, measured on untraced
//! passes. `--trace 1` follows each pass with the traced replay
//! (`replay.rs`) and prints per-layer self times and work counters; the
//! spans go to `.bench_run/<workload>-<seed>/spans.tsv`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed output check prints `correct: false` and exits with code 1.

mod engine;
mod pass;
mod replay;
mod spans;
mod stats;
mod telemetry;
mod workload;

use engine::TIMING_DEPENDENT;
use pass::PassReport;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tw_model::metrics::AccuracyReport;
use workload::{Spec, INPUTS};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a pass's child process: run only pass `k` and write its
    /// report to standard output.
    pass: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--pass" => pass = Some(number()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        pass,
    })
}

/// Set-ups timed on their own before the passes (each pass adds one).
const SETUP_SAMPLES: usize = 12;

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.problems.push(what);
        }
    }
}

fn with_base(part: u64, base: u64, what: &str) -> String {
    let pct = if base == 0 {
        0.0
    } else {
        100.0 * part as f64 / base as f64
    };
    format!("{part} of {base} {what} ({pct:.2}%)")
}

/// Output checks of pass `k` against `first`, the run's first pass on
/// the same input. The pass's own checks ran in its child and arrive as
/// `this.problems`.
fn check_pass(report: &mut Report, this: &PassReport, first: Option<&PassReport>, k: usize) {
    for problem in &this.problems {
        report.check(false, format!("pass {k}: {problem}"));
    }
    let Some(first) = first else {
        return;
    };
    report.check(
        this.stream == first.stream,
        format!("pass {k}: the simulator produced a different stream"),
    );
    report.check(
        this.mapping == first.mapping,
        format!("pass {k}: mapping differs from the input's first pass"),
    );
    for (name, value) in &this.counts {
        if !TIMING_DEPENDENT.contains(&name.as_str()) {
            report.check(
                first.counts.get(name) == Some(value),
                format!(
                    "pass {k}: counter {name} = {value}, the input's first pass had {:?}",
                    first.counts.get(name)
                ),
            );
        }
    }
    report.check(
        this.answers == first.answers,
        format!("pass {k}: query answers differ from the input's first pass"),
    );
    report.check(
        this.replay_counts == first.replay_counts,
        format!("replay {k}: work counters differ from the input's first replay"),
    );
}

/// Cross-run check: the first run of a seed in this checkout records its
/// mapping fingerprint and work counters; later runs must match them.
fn check_against_earlier_runs(report: &mut Report, path: &Path, summary: &str) {
    match std::fs::read_to_string(path) {
        Ok(earlier) => report.check(
            earlier == summary,
            format!(
                "fingerprint or counters differ from an earlier run ({})",
                path.display()
            ),
        ),
        Err(_) => {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(err) = std::fs::write(path, summary) {
                report.line(format!("note: could not record {}: {err}", path.display()));
            }
        }
    }
}

/// The work counters of the run's first pass (input 0, the `--seed`
/// stream itself), each with its base.
fn counter_lines(report: &mut Report, first: &PassReport) {
    report.line(format!(
        "counters of input 0 of the run's {INPUTS} inputs (the --seed stream):"
    ));
    let c = &first.counts;
    let records = c["records"];
    let solves = c["solve.solves"];
    report.line(format!(
        "records: {} in {} windows, {} of them degraded",
        with_base(records, records, "records windowed"),
        c["windows"],
        c["online.degraded_windows"]
    ));
    report.line(format!(
        "solve: {}; {} final-iteration batches inexact; {} B&B nodes ({:.0} per solve)",
        with_base(c["solve.inexact_solves"], solves, "solves inexact"),
        c["solve.inexact_batches"],
        c["solve.nodes"],
        c["solve.nodes"] as f64 / solves.max(1) as f64
    ));
    report.line(format!(
        "tasks: {} tasks, {} candidates, {} batches over {} parents, {} GMM refits in {} EM passes",
        c["tasks"],
        c["candidates.count"],
        c["batching.batches"],
        c["batching.spans"],
        c["refit.edge_fits"],
        c["refit.em_iterations"]
    ));
    report.line(format!(
        "ingest: {}; {} decode errors; sanitize passed {} and rejected {}",
        with_base(c["net.records"], records, "records decoded from the wire"),
        c["net.decode_errors"],
        c["sanitize.passed"],
        c["sanitize.rejected"]
    ));
    report.line(format!(
        "archive: {} traces, {} B in {} segments, {} compactions; {} checkpoint writes; \
         {} traces returned by {} queries",
        c["archive.traces"],
        c["archive.bytes"],
        c["archive.segments"],
        c["archive.compactions"],
        c["checkpoint.writes"],
        c["query.traces_returned"],
        first.queries
    ));
}

fn end_to_end(report: &mut Report, spec: &Spec, passes: &[PassReport], setup_s: &[f64]) {
    // Deterministic figures sum over the run's distinct inputs.
    let distinct = &passes[..INPUTS.min(passes.len())];
    let rates: Vec<f64> = passes.iter().map(|p| p.records as f64 / p.wall_s).collect();
    let windows_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.window_ms.iter().copied())
        .collect();
    let queries_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.query_ms.iter().copied())
        .collect();
    let accuracy = AccuracyReport {
        correct: distinct.iter().map(|p| p.accuracy.correct).sum(),
        total: distinct.iter().map(|p| p.accuracy.total).sum(),
    };
    let accuracy_pct = 100.0 * accuracy.ratio();
    // Each pass's peak is its own fresh process's `VmHWM`. It depends on
    // the input (on `hotel-900-cold`, one stream peaks near 34 MB and the
    // next near 44 MB, the same on every repeat), so the run reports the
    // mean over its passes, which weighs every input alike.
    let peak_rss_mb = passes.iter().map(|p| p.peak_rss_mb).sum::<f64>() / passes.len() as f64;
    let sum = |name: &str| -> u64 { distinct.iter().map(|p| p.counts[name]).sum() };
    let traces = sum("archive.traces");
    let bytes = sum("archive.bytes");

    report.metric("spans_per_s", stats::median(&rates), "1/s");
    let window_tail = stats::tail(&windows_ms);
    report.metric("window_p50_ms", stats::median(&windows_ms), "ms");
    report.metric("window_tail_ms", window_tail.value, "ms");
    report.metric("accuracy_pct", accuracy_pct, "%");
    report.metric("setup_s", stats::median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("bytes_per_trace", bytes as f64 / traces.max(1) as f64, "B");
    let query_tail = stats::tail(&queries_ms);
    report.metric("query_p50_ms", stats::median(&queries_ms), "ms");
    report.metric("query_tail_ms", query_tail.value, "ms");

    report.line(format!(
        "window_tail_ms is {}",
        window_tail.describe("windows")
    ));
    report.line(format!(
        "query_tail_ms is {}",
        query_tail.describe("queries")
    ));
    report.line(format!(
        "accuracy: {} of {} root traces fully correct over {} inputs",
        accuracy.correct,
        accuracy.total,
        distinct.len()
    ));
    report.line(format!(
        "bytes_per_trace: {bytes} B in {} segments for {traces} traces over {} inputs",
        sum("archive.segments"),
        distinct.len()
    ));
    report.check(
        accuracy_pct >= spec.accuracy_floor_pct,
        format!(
            "accuracy {accuracy_pct:.2}% below the {}% floor",
            spec.accuracy_floor_pct
        ),
    );
    report.check(traces > 0, "the archive stored no traces".into());
}

/// Each layer, its per-layer metrics, and the end-to-end metric each
/// should move on which workload. Printed with every traced run.
const LAYERS: [(&str, &str, &str); 11] = [
    (
        "tw-solver::mis via tw_core::optimize::optimize_batch",
        "solve.s solve.solves solve.nodes solve.inexact_solves solve.inexact_batches \
         solve.exact_ratio solve.share_pct",
        "spans_per_s, window_p50_ms, accuracy_pct on hotel-900-cold; no change on hotel-100-cold",
    ),
    (
        "tw-core::delays refit + tw-stats::gmm",
        "refit.s refit.calls refit.edge_fits refit.em_iterations refit.share_pct",
        "spans_per_s on hotel-100-cold (dominant) and hotel-900-cold",
    ),
    (
        "tw-core::registry",
        "registry.absorb_s registry.edges registry.quarantined",
        "spans_per_s, window_p50_ms on deploy-300-warm",
    ),
    (
        "tw-core::delays score/seed",
        "score.s score.candidates_scored seed.s",
        "all workloads (small share; guards against work moved here)",
    ),
    (
        "tw-core::candidates, tw-core::batching",
        "candidates.s candidates.count batching.s batching.batches batching.mean_size",
        "all workloads (small share)",
    ),
    (
        "tw-capture::wire, tw-pipeline::net (ingest)",
        "wire.decode_s wire.bytes net.records net.decode_errors",
        "spans_per_s, error_pct on deploy-300-warm",
    ),
    (
        "tw-pipeline::sanitize",
        "sanitize.s sanitize.passed sanitize.rejected",
        "spans_per_s, error_pct on deploy-300-warm",
    ),
    (
        "tw-pipeline::online",
        "online.windows online.queue_depth_p50 online.degraded_windows",
        "window_tail_ms everywhere",
    ),
    (
        "tw-pipeline::archive + tw-store (write)",
        "archive.convert_s archive.append_s archive.seal_s archive.traces archive.bytes \
         archive.segments archive.compactions",
        "spans_per_s, bytes_per_trace on deploy-300-warm",
    ),
    (
        "tw-pipeline::checkpoint",
        "checkpoint.writes checkpoint.write_s",
        "spans_per_s on deploy-300-warm",
    ),
    (
        "tw-store::query + tw-pipeline::net (HTTP)",
        "query.read_s query.http_s query.traces_returned",
        "query_p50_ms, query_tail_ms on every workload",
    ),
];

fn per_layer(report: &mut Report, spec: &Spec, passes: &[PassReport]) {
    // Counted alike by the engine pass and its replay.
    let mut shared = vec![
        "candidates.count",
        "batching.batches",
        "solve.inexact_batches",
    ];
    if spec.deploy {
        shared.extend(["sanitize.passed", "sanitize.rejected"]);
    }
    for (k, p) in passes.iter().enumerate() {
        for name in &shared {
            let (c, r) = (p.counts.get(*name), p.replay_counts.get(*name));
            report.check(
                c == r,
                format!("pass {k}: {name}: engine {c:?}, replay {r:?}"),
            );
        }
    }
    let first = &passes[0];
    let c = &first.counts;
    let r = &first.replay_counts;

    // Times: median over the replays of each layer's self time.
    let seconds = |name: &str| {
        let values: Vec<f64> = passes.iter().map(|p| p.layers[name]).collect();
        stats::median(&values)
    };
    let untraced: Vec<f64> = passes.iter().map(PassReport::window_s).collect();
    let untraced_s = stats::median(&untraced);
    let window_s = seconds("trace.window_s");
    let solve_s = seconds("solve.s");
    let refit_s = seconds("refit.s");

    let solves = c["solve.solves"] as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Timed layers (median self seconds over the replays).
    for name in [
        "registry.absorb_s",
        "score.s",
        "seed.s",
        "candidates.s",
        "batching.s",
        "prepare.s",
        "gaps.s",
        "task.other_s",
        "wire.decode_s",
        "sanitize.s",
        "archive.convert_s",
        "archive.append_s",
        "archive.seal_s",
        "checkpoint.write_s",
        "query.read_s",
        "query.http_s",
    ] {
        report.metric(name, seconds(name), "s");
    }
    report.metric("solve.s", solve_s, "s");
    report.metric("solve.share_pct", 100.0 * solve_s / window_s, "%");
    report.metric("refit.s", refit_s, "s");
    report.metric("refit.share_pct", 100.0 * refit_s / window_s, "%");
    // Work counted by the engine pass's telemetry.
    for (name, unit) in [
        ("solve.solves", "count"),
        ("solve.nodes", "count"),
        ("solve.inexact_solves", "count"),
        ("solve.inexact_batches", "count"),
        ("refit.edge_fits", "count"),
        ("refit.em_iterations", "count"),
        ("candidates.count", "count"),
        ("batching.batches", "count"),
        ("net.records", "count"),
        ("net.decode_errors", "count"),
        ("online.degraded_windows", "count"),
        ("archive.traces", "count"),
        ("archive.bytes", "B"),
        ("archive.segments", "count"),
        ("archive.compactions", "count"),
        ("checkpoint.writes", "count"),
        ("query.traces_returned", "count"),
    ] {
        report.metric(name, c[name] as f64, unit);
    }
    // Work counted at the replay's call sites.
    for (name, unit) in [
        ("refit.calls", "count"),
        ("registry.edges", "count"),
        ("registry.quarantined", "count"),
        ("score.candidates_scored", "count"),
        ("wire.bytes", "B"),
        ("sanitize.passed", "count"),
        ("sanitize.rejected", "count"),
    ] {
        report.metric(name, r.get(name).copied().unwrap_or(0) as f64, unit);
    }
    report.metric(
        "solve.exact_ratio",
        1.0 - c["solve.inexact_solves"] as f64 / solves.max(1.0),
        "ratio",
    );
    report.metric(
        "batching.mean_size",
        c["batching.spans"] as f64 / c["batching.batches"].max(1) as f64,
        "spans",
    );
    report.metric("online.windows", c["windows"] as f64, "count");
    report.metric(
        "online.queue_depth_p50",
        stats::median(&first.depths),
        "windows",
    );
    report.metric("trace.window_s", window_s, "s");
    report.metric("trace.untraced_window_s", untraced_s, "s");
    report.metric(
        "trace.overhead_pct",
        100.0 * (window_s / untraced_s - 1.0),
        "%",
    );
    report.metric("host.cores", cores as f64, "count");

    report.line(format!(
        "shares of {window_s:.3} s traced window time: solve {:.1}%, refit {:.1}%, score {:.1}%",
        100.0 * solve_s / window_s,
        100.0 * refit_s / window_s,
        100.0 * seconds("score.s") / window_s
    ));
    report.line(format!(
        "traced window time {window_s:.3} s against {untraced_s:.3} s untraced ({:+.1}%)",
        100.0 * (window_s / untraced_s - 1.0)
    ));
    report.line(format!(
        "replay: {} spans in {} replays; every window's mapping equals the engine's: {}",
        first.replay_spans,
        passes.len(),
        passes.iter().all(|p| p.problems.is_empty())
    ));
    for (layer, metrics, moves) in LAYERS {
        report.line(format!("layer {layer}: {metrics} -> {moves}"));
    }
    if !spec.deploy {
        report.line(
            "off this workload's path (timed as probes on its records, outside the window \
             time): wire.decode_s, sanitize.s, registry.*, checkpoint.write_s"
                .into(),
        );
    }
}

/// Fingerprint of this executable, so earlier-run records are compared
/// only against runs of the same build.
fn build_id() -> u64 {
    let mut h = stats::Fnv::new();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        h.bytes(&bytes);
    }
    h.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let run_dir = PathBuf::from(".bench_run").join(format!("{}-{}", spec.name, args.seed));
    if let Some(k) = args.pass {
        let report = pass::run(&spec, args.seed, args.trace, k, &run_dir);
        print!("{}", report.encode());
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut report = Report {
        lines: Vec::new(),
        metrics: Vec::new(),
        problems: Vec::new(),
    };
    let mut setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| engine::setup_sample(&spec, args.seed, &run_dir.join("engine")))
        .collect();
    let mut passes: Vec<PassReport> = Vec::new();
    // Passes run in rounds of one pass on each input, so every input
    // weighs the same. Rounds repeat while the next one is expected to end
    // no later than half a round past the budget; the first always runs.
    let mut round_start = Instant::now();
    loop {
        let k = passes.len();
        let this = match pass::spawn(spec.name, args.seed, args.seconds, args.trace, k) {
            Ok(this) => this,
            Err(err) => {
                report.check(false, err);
                break;
            }
        };
        eprintln!(
            "perfbench: pass {k} {:.2} s ({} records, {} windows, peak RSS {:.1} MB)",
            this.wall_s,
            this.records,
            this.window_ms.len(),
            this.peak_rss_mb
        );
        check_pass(
            &mut report,
            &this,
            passes.get(k % INPUTS).filter(|_| k >= INPUTS),
            k,
        );
        setup_s.push(this.setup_s);
        passes.push(this);
        if passes.len() % INPUTS == 0 {
            if start.elapsed() + round_start.elapsed() / 2 > budget {
                break;
            }
            round_start = Instant::now();
        }
    }
    let Some(first) = passes.first() else {
        for problem in &report.problems {
            println!("CHECK FAILED: {problem}");
        }
        return ExitCode::FAILURE;
    };

    let mut summary = String::new();
    for (i, p) in passes.iter().take(INPUTS).enumerate() {
        let _ = writeln!(summary, "input {i} mapping {:016x}", p.mapping);
        for (name, value) in &p.counts {
            if !TIMING_DEPENDENT.contains(&name.as_str()) {
                let _ = writeln!(summary, "input {i} {name} {value}");
            }
        }
    }
    check_against_earlier_runs(
        &mut report,
        &PathBuf::from(".bench_run")
            .join("fingerprints")
            .join(format!(
                "{}-{}-{}ms-{:016x}.txt",
                spec.name,
                args.seed,
                spec.stream_ms,
                build_id()
            )),
        &summary,
    );

    counter_lines(&mut report, first);
    if args.trace {
        per_layer(&mut report, &spec, &passes);
    } else {
        end_to_end(&mut report, &spec, &passes, &setup_s);
    }

    // Archives and checkpoints are only needed while the run checks them.
    for dir in ["engine", "replay"] {
        let _ = std::fs::remove_dir_all(run_dir.join(dir));
    }

    let records: u64 = passes.iter().map(|p| p.records).sum();
    let queries: u64 = passes.iter().map(|p| p.queries).sum();
    let attempted = records + queries;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    println!(
        "workload {} seed {} stream {} ms at {} rps, {} passes in {:.1} s, host cores {}",
        spec.name,
        args.seed,
        spec.stream_ms,
        spec.rps,
        passes.len(),
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "error_pct {:.4} % ({failed} failed of {attempted} operations: {records} records sent, {queries} queries)",
        100.0 * failed as f64 / attempted as f64
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = report.problems.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
