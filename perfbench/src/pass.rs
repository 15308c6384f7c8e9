//! One pass in a child process. The run starts the benchmark's own
//! executable with `--pass <k>` once per pass, one at a time; the child
//! runs the pass, checks it, and writes a [`PassReport`] to standard
//! output. A fresh process per pass means every pass starts from the
//! same allocator state, and the child's `VmHWM` is the peak of set-up
//! plus that one pass. In one long-lived process, the memory the
//! allocator keeps from earlier passes (17 to 32 MB on `deploy-300-warm`
//! even after `malloc_trim`, varying pass to pass) would be counted again.

use crate::engine::{self, Pass};
use crate::replay::{self, sorted_entries, Replay};
use crate::stats;
use crate::workload::{self, Spec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;
use tw_model::mapping::Mapping;
use tw_model::metrics::{end_to_end_accuracy_all_roots, AccuracyReport};

/// What one pass reports to the run.
#[derive(Default)]
pub struct PassReport {
    pub setup_s: f64,
    /// First record sent → drained, archive synced.
    pub wall_s: f64,
    /// `VmHWM` of the child: set-up plus this one pass.
    pub peak_rss_mb: f64,
    pub records: u64,
    pub queries: u64,
    /// Records not delivered in a `Full`-rung window, plus failed queries.
    pub failed: u64,
    pub window_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// Fingerprints of the input stream, the union mapping and the query
    /// answers, compared across passes.
    pub stream: u64,
    pub mapping: u64,
    pub answers: u64,
    /// Work counters (see [`Pass::counts`]).
    pub counts: BTreeMap<String, u64>,
    pub accuracy: AccuracyReport,
    /// Each window's backlog when it was cut.
    pub depths: Vec<f64>,
    /// Failed output checks of this pass.
    pub problems: Vec<String>,
    /// Traced passes only: per-layer seconds of the replay, the work it
    /// counted at the call sites, and its span count.
    pub layers: BTreeMap<String, f64>,
    pub replay_counts: BTreeMap<String, u64>,
    pub replay_spans: u64,
}

/// The union of every window's mapping.
fn union_mapping(pass: &Pass) -> Mapping {
    let mut mapping = Mapping::new();
    for w in &pass.windows {
        mapping.merge(w.reconstruction.mapping.clone());
    }
    mapping
}

fn fingerprint(mapping: &Mapping) -> u64 {
    let mut h = stats::Fnv::new();
    for (parent, children) in sorted_entries(mapping) {
        h.u64(parent.0);
        h.u64(children.len() as u64);
        for c in children {
            h.u64(c.0);
        }
    }
    h.finish()
}

/// Child side: run pass `k` of the run with seed `seed` and check what
/// can be checked within it.
pub fn run(spec: &Spec, seed: u64, trace: bool, k: usize, run_dir: &Path) -> PassReport {
    let seed = workload::input_seed(seed, k % workload::INPUTS);
    let pass = engine::run_pass(spec, seed, &run_dir.join("engine"));
    let peak_rss_mb = peak_rss_mb();
    let mapping = union_mapping(&pass);
    let records = pass.input.records.len() as u64;
    let mut r = PassReport {
        setup_s: pass.setup_s,
        wall_s: pass.wall_s,
        peak_rss_mb,
        records,
        queries: pass.queries as u64,
        failed: pass.undelivered + (pass.queries - pass.query_s.len()) as u64,
        window_ms: pass
            .windows
            .iter()
            .map(|w| w.latency.as_secs_f64() * 1e3)
            .collect(),
        query_ms: pass.query_s.iter().map(|s| s * 1e3).collect(),
        stream: stats::debug_fingerprint(&pass.input.records),
        mapping: fingerprint(&mapping),
        answers: stats::debug_fingerprint(&pass.answers),
        counts: pass
            .counts
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect(),
        accuracy: end_to_end_accuracy_all_roots(&mapping, &pass.input.truth),
        depths: pass.windows.iter().map(|w| w.queue_depth as f64).collect(),
        ..PassReport::default()
    };
    let mut check = |ok: bool, what: String| {
        if !ok {
            r.problems.push(what);
        }
    };
    for failure in &pass.failures {
        check(false, failure.clone());
    }
    // Every record sent appears in exactly one window.
    let mut sent: Vec<u64> = pass.input.records.iter().map(|r| r.rpc.0).collect();
    let mut seen: Vec<u64> = pass
        .windows
        .iter()
        .flat_map(|w| w.records.iter().map(|r| r.rpc.0))
        .collect();
    sent.sort_unstable();
    seen.sort_unstable();
    check(
        sent == seen,
        "records sent and records windowed differ".into(),
    );
    if spec.deploy {
        check(
            pass.counts["net.records"] == records,
            format!(
                "IngestServer decoded {} of {records} records",
                pass.counts["net.records"]
            ),
        );
    }
    if k == 0 {
        // Every answer equals `read_query` on the engine's archive dir
        // (the first pass of a run checks this for the whole run).
        let indices: Vec<u64> = pass.windows.iter().map(|w| w.index).collect();
        let mix = engine::query_mix(&pass.input, &indices, spec.stream_ms);
        for (query, answer) in mix.iter().zip(&pass.answers) {
            let read = tw_store::read_query(&pass.archive_dir, query);
            check(
                read.as_ref().ok() == Some(answer),
                format!("query {query:?}: GET /traces and read_query disagree"),
            );
        }
    }
    if trace {
        let replay = replay::replay(spec, &pass, &run_dir.join("replay"));
        r.problems.extend(replay.mismatches.iter().cloned());
        if k == 0 {
            let path = run_dir.join("spans.tsv");
            if let Err(err) = replay.spans.write_tsv(&path) {
                r.problems
                    .push(format!("writing {}: {err}", path.display()));
            }
        }
        r.layers = layer_seconds(&replay)
            .into_iter()
            .map(|(name, s)| (name.to_string(), s))
            .collect();
        r.replay_counts = replay
            .counts
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        r.replay_spans = replay.spans.len() as u64;
    }
    r
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Span name → per-layer metric its self time is added to.
const LAYER_OF_SPAN: [(&str, &str); 22] = [
    ("optimize_batch", "solve.s"),
    ("DelayModel::refit", "refit.s"),
    ("DelayRegistry::absorb", "registry.absorb_s"),
    ("DelayRegistry::finish_round", "registry.absorb_s"),
    ("DelayRegistry::model_for", "registry.absorb_s"),
    ("score_candidate", "score.s"),
    ("DelayModel::seed", "seed.s"),
    ("feasible_for_window", "candidates.s"),
    ("enumerate_candidates", "candidates.s"),
    ("make_batches", "batching.s"),
    ("split_by_process", "prepare.s"),
    ("SlotLayout::from_spec", "prepare.s"),
    ("OutgoingPool::new", "prepare.s"),
    ("edge_gaps", "gaps.s"),
    ("task", "task.other_s"),
    ("decode_records", "wire.decode_s"),
    ("Sanitizer::sanitize", "sanitize.s"),
    ("stored_traces", "archive.convert_s"),
    ("TraceArchive::observe_window", "archive.append_s"),
    ("TraceArchive::observe_window+seal", "archive.seal_s"),
    ("TraceArchive::sync", "archive.seal_s"),
    ("write_checkpoint", "checkpoint.write_s"),
];

/// Per-layer seconds of one replay.
fn layer_seconds(replay: &Replay) -> BTreeMap<&'static str, f64> {
    let by_span = replay.spans.self_seconds();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, layer) in LAYER_OF_SPAN {
        *out.entry(layer).or_default() += by_span.get(span).copied().unwrap_or(0.0);
    }
    // The window span's own time (merging task results) is task overhead.
    *out.entry("task.other_s").or_default() += by_span.get("window").copied().unwrap_or(0.0);
    let read = by_span.get("read_query").copied().unwrap_or(0.0);
    let fetch = by_span.get("fetch_traces").copied().unwrap_or(0.0);
    out.insert("query.read_s", read);
    out.insert("query.http_s", fetch - read);
    out.insert("trace.window_s", replay.spans.total_seconds("window"));
    out
}

// The report travels as text, one field a line: `<key> <value...>`.
// Floats print in Rust's shortest form that parses back to the same
// value, so nothing is rounded on the way.

fn floats(values: &[f64]) -> String {
    let text: Vec<String> = values.iter().map(f64::to_string).collect();
    text.join(" ")
}

fn parse<T: FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("cannot parse {text:?} in a pass report"))
}

fn parse_floats(text: &str) -> Result<Vec<f64>, String> {
    text.split_whitespace().map(parse).collect()
}

fn parse_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|_| format!("bad fingerprint {text:?}"))
}

impl PassReport {
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "wall_s {}", self.wall_s);
        let _ = writeln!(out, "peak_rss_mb {}", self.peak_rss_mb);
        let _ = writeln!(out, "records {}", self.records);
        let _ = writeln!(out, "queries {}", self.queries);
        let _ = writeln!(out, "failed {}", self.failed);
        let _ = writeln!(out, "window_ms {}", floats(&self.window_ms));
        let _ = writeln!(out, "query_ms {}", floats(&self.query_ms));
        let _ = writeln!(out, "stream {:016x}", self.stream);
        let _ = writeln!(out, "mapping {:016x}", self.mapping);
        let _ = writeln!(out, "answers {:016x}", self.answers);
        for (name, v) in &self.counts {
            let _ = writeln!(out, "count {name} {v}");
        }
        let _ = writeln!(
            out,
            "accuracy {} {}",
            self.accuracy.correct, self.accuracy.total
        );
        let _ = writeln!(out, "depths {}", floats(&self.depths));
        for problem in &self.problems {
            let _ = writeln!(out, "problem {}", problem.replace('\n', " "));
        }
        for (name, s) in &self.layers {
            let _ = writeln!(out, "layer {name} {s}");
        }
        for (name, v) in &self.replay_counts {
            let _ = writeln!(out, "replay_count {name} {v}");
        }
        let _ = writeln!(out, "replay_spans {}", self.replay_spans);
        out.push_str("end\n");
        out
    }

    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = PassReport::default();
        let mut ended = false;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let named = || {
                rest.split_once(' ')
                    .ok_or_else(|| format!("bad pass report line {line:?}"))
            };
            match key {
                "setup_s" => r.setup_s = parse(rest)?,
                "wall_s" => r.wall_s = parse(rest)?,
                "peak_rss_mb" => r.peak_rss_mb = parse(rest)?,
                "records" => r.records = parse(rest)?,
                "queries" => r.queries = parse(rest)?,
                "failed" => r.failed = parse(rest)?,
                "window_ms" => r.window_ms = parse_floats(rest)?,
                "query_ms" => r.query_ms = parse_floats(rest)?,
                "stream" => r.stream = parse_hex(rest)?,
                "mapping" => r.mapping = parse_hex(rest)?,
                "answers" => r.answers = parse_hex(rest)?,
                "count" => {
                    let (name, v) = named()?;
                    r.counts.insert(name.to_string(), parse(v)?);
                }
                "accuracy" => {
                    let (correct, total) = named()?;
                    r.accuracy = AccuracyReport {
                        correct: parse(correct)?,
                        total: parse(total)?,
                    };
                }
                "depths" => r.depths = parse_floats(rest)?,
                "problem" => r.problems.push(rest.to_string()),
                "layer" => {
                    let (name, s) = named()?;
                    r.layers.insert(name.to_string(), parse(s)?);
                }
                "replay_count" => {
                    let (name, v) = named()?;
                    r.replay_counts.insert(name.to_string(), parse(v)?);
                }
                "replay_spans" => r.replay_spans = parse(rest)?,
                "end" => ended = true,
                _ => return Err(format!("unknown pass report line {line:?}")),
            }
        }
        if !ended || r.records == 0 {
            return Err("the pass report is incomplete".into());
        }
        Ok(r)
    }

    /// Untraced window time: the sum of the windows' latencies.
    pub fn window_s(&self) -> f64 {
        self.window_ms.iter().sum::<f64>() / 1e3
    }
}

/// Parent side: run pass `k` in a child process and read its report.
/// The child's standard error passes through.
pub fn spawn(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    k: usize,
) -> Result<PassReport, String> {
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot find own executable: {err}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--pass", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|err| format!("pass {k}: cannot start: {err}"))?;
    if !output.status.success() {
        return Err(format!("pass {k}: child exited with {}", output.status));
    }
    PassReport::decode(&String::from_utf8_lossy(&output.stdout))
        .map_err(|err| format!("pass {k}: {err}"))
}
