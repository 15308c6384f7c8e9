//! The traced run. The engine's task loop is not split into public calls,
//! so this replays each window's records (taken from an untraced pass's
//! `WindowResult`s) through the layers' public functions, with one span
//! around each call, and checks that every window's mapping equals the
//! engine's. Without that check the per-layer split would measure a
//! different program.
//!
//! The replay mirrors `ReconstructionTask::run_sorted` on the
//! default-`Params` path only: dynamism off (no skip allocation), joint
//! optimization on, no solver deadline, one executor thread. It asserts
//! those settings instead of mirroring the other branches.

use crate::engine::{query_mix, Pass};
use crate::spans::Recorder;
use crate::telemetry;
use crate::workload::Spec;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::time::Duration;
use tw_capture::{decode_records, encode_records};
use tw_core::batching::make_batches;
use tw_core::candidates::{enumerate_candidates, Candidate, OutgoingPool, SlotLayout};
use tw_core::delays::{edge_gaps, score_candidate, DelayModel, EdgeKey};
use tw_core::optimize::optimize_batch;
use tw_core::{DelayRegistry, Params, Reconstruction};
use tw_model::callgraph::CallGraph;
use tw_model::ids::{Endpoint, RpcId};
use tw_model::mapping::Mapping;
use tw_model::span::{split_by_process, ObservedSpan, ProcessKey, RpcRecord, SpanView};
use tw_pipeline::{
    fetch_traces, stored_traces, write_checkpoint, CheckpointDoc, DegradationLevel, MetricsServer,
    SanitizeConfig, Sanitizer, ServeHealth, WindowResult,
};
use tw_store::{read_query, ArchiveConfig, TraceArchive};
use tw_telemetry::Registry;

pub struct Replay {
    pub spans: Recorder,
    /// Work counted at the call sites (not read from telemetry).
    pub counts: BTreeMap<&'static str, u64>,
    /// Every way the replay diverged from the engine; empty when faithful.
    pub mismatches: Vec<String>,
}

/// Parent → children, sorted: the byte-for-byte comparable form of a
/// [`Mapping`].
pub fn sorted_entries(mapping: &Mapping) -> Vec<(RpcId, Vec<RpcId>)> {
    let mut entries: Vec<(RpcId, Vec<RpcId>)> =
        mapping.iter().map(|(p, c)| (p, c.to_vec())).collect();
    entries.sort_unstable();
    entries
}

/// Stream time between checkpoint writes in the replay; the engine
/// writes on a 1 s wall-clock timer.
const CHECKPOINT_EVERY_NS: u64 = 1_000_000_000;

pub fn replay(spec: &Spec, pass: &Pass, dir: &Path) -> Replay {
    let params = Params::default();
    assert!(
        !params.handle_dynamism
            && params.use_joint_optimization
            && params.solver_deadline_us == 0
            && params.threads == 1,
        "the replay mirrors only the default-Params path"
    );
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("replay directory");
    let graph = &pass.input.graph;
    let mut rec = Recorder::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut mismatches = Vec::new();
    let global_before = telemetry::totals(tw_telemetry::global());

    // Ingest: the frames the exporter sent, decoded and sanitized. On the
    // cold workloads the engine takes records from `ingest_handle`, so
    // these two layers run as probes over the same records.
    let frames = encode_records(&pass.input.records);
    counts.insert("wire.bytes", frames.len() as u64);
    let decoded = rec.time("decode_records", || decode_records(frames));
    let decoded = match decoded {
        Ok(records) => records,
        Err(err) => {
            mismatches.push(format!("decode_records failed: {err:?}"));
            Vec::new()
        }
    };
    if decoded != pass.input.records {
        mismatches.push("decoded records differ from the records sent".into());
    }
    let mut sanitizer = Sanitizer::new(SanitizeConfig::default());
    let open = rec.start("Sanitizer::sanitize");
    let clean: Vec<RpcRecord> = decoded
        .into_iter()
        .filter_map(|r| sanitizer.sanitize(r))
        .collect();
    rec.end(open);
    if spec.deploy {
        let by_rpc: HashMap<RpcId, &RpcRecord> = clean.iter().map(|r| (r.rpc, r)).collect();
        let windowed: usize = pass.windows.iter().map(|w| w.records.len()).sum();
        let same = windowed == clean.len()
            && pass
                .windows
                .iter()
                .flat_map(|w| &w.records)
                .all(|r| by_rpc.get(&r.rpc) == Some(&r));
        if !same {
            mismatches.push("sanitized records differ from the engine's window records".into());
        }
    }

    let archive = TraceArchive::open(ArchiveConfig::new(dir.join("archive")), &Registry::new())
        .expect("replay archive directory");
    let checkpoint_dir = dir.join("checkpoint");
    let window_ns = spec.window_ms * 1_000_000;
    let mut next_checkpoint = CHECKPOINT_EVERY_NS;
    // Warm mode chains windows through this registry; on the cold
    // workloads it is a probe fed the same posterior gaps.
    let mut registry = DelayRegistry::new();
    let mut inexact_final = 0u64;
    let last_index = pass.windows.last().map_or(0, |w| w.index);

    for w in &pass.windows {
        let window = rec.start("window");
        let views = rec.time("split_by_process", || split_by_process(&w.records));
        let mut keys: Vec<&ProcessKey> = views.keys().collect();
        keys.sort();
        keys.retain(|k| !views[*k].incoming.is_empty());
        let priors: HashMap<ProcessKey, DelayModel> = if spec.deploy {
            rec.time("DelayRegistry::model_for", || {
                keys.iter()
                    .filter_map(|&&k| registry.model_for(&k).map(|m| (k, m)))
                    .collect()
            })
        } else {
            HashMap::new()
        };
        let mut mapping = Mapping::new();
        let mut posterior = Vec::with_capacity(keys.len());
        for key in keys {
            let task = rec.start("task");
            let (gaps, inexact) = replay_task(
                &mut rec,
                &mut counts,
                graph,
                &params,
                &views[key],
                priors.get(key),
                &mut mapping,
            );
            rec.end(task);
            inexact_final += inexact;
            posterior.push((*key, gaps));
        }
        // The engine absorbs inside the window's reconstruction in warm
        // mode; the cold probe runs after the window span closes.
        let absorb = if spec.deploy {
            window
        } else {
            rec.end(window);
            rec.start("probe")
        };
        for (key, gaps) in &posterior {
            rec.time("DelayRegistry::absorb", || {
                registry.absorb(*key, gaps, &params)
            });
        }
        rec.time("DelayRegistry::finish_round", || registry.finish_round());
        rec.end(absorb);

        if sorted_entries(&mapping) != sorted_entries(&w.reconstruction.mapping) {
            mismatches.push(format!(
                "window {}: replayed mapping differs from the engine's",
                w.index
            ));
        }

        let result = WindowResult {
            index: w.index,
            end: w.end,
            records: w.records.clone(),
            reconstruction: Reconstruction {
                mapping,
                ..Reconstruction::default()
            },
            queue_depth: 0,
            latency: Duration::ZERO,
            warm_edges: 0,
            degradation: DegradationLevel::Full,
            shed_records: 0,
        };
        let traces = rec.time("stored_traces", || stored_traces(&result));
        let segments = archive.segment_count();
        let open = rec.start("TraceArchive::observe_window");
        archive.observe_window(w.index, traces);
        let sealed = archive.segment_count() != segments;
        rec.end_as(open, sealed.then_some("TraceArchive::observe_window+seal"));

        // Checkpoints every second of stream time and after the last window.
        if w.end.0 >= next_checkpoint || w.index == last_index {
            next_checkpoint = (w.end.0 / CHECKPOINT_EVERY_NS + 1) * CHECKPOINT_EVERY_NS;
            rec.time("write_checkpoint", || {
                let doc = CheckpointDoc {
                    watermark: w.index + 1,
                    window_ns,
                    sanitizer: Some(sanitizer.snapshot()),
                    registry: Some(registry.clone()),
                    archived: Some(archive.watermark()),
                };
                write_checkpoint(&checkpoint_dir, &doc).expect("replay checkpoint write");
            });
        }
    }
    rec.time("TraceArchive::sync", || archive.sync());
    let global_after = telemetry::totals(tw_telemetry::global());

    for (name, family) in [
        ("solve.solves", "tw_solver_solves_total"),
        ("solve.nodes", "tw_solver_nodes_expanded_total"),
        ("solve.inexact_solves", "tw_solver_inexact_total"),
        ("refit.edge_fits", "tw_core_gmm_components_count"),
    ] {
        let replayed = telemetry::delta(&global_before, &global_after, family).round() as u64;
        if Some(&replayed) != pass.counts.get(name) {
            mismatches.push(format!(
                "{name}: replay counted {replayed}, engine {:?}",
                pass.counts.get(name)
            ));
        }
    }
    counts.insert("solve.inexact_batches", inexact_final);
    counts.insert("registry.edges", registry.len() as u64);
    counts.insert("registry.quarantined", registry.quarantined());
    counts.insert("sanitize.passed", sanitizer.stats().passed);
    counts.insert("sanitize.rejected", sanitizer.stats().rejected());
    for (name, replayed) in [
        ("archive.traces", archive.committed_traces()),
        ("archive.bytes", archive.committed_bytes()),
    ] {
        if Some(&replayed) != pass.counts.get(name) {
            mismatches.push(format!(
                "{name}: replay archived {replayed}, engine {:?}",
                pass.counts.get(name)
            ));
        }
    }

    // Archive reads: the query mix, read-only on the directory and over
    // `GET /traces` on a `MetricsServer`, one connection at a time.
    let health = ServeHealth::new();
    let archive = std::sync::Arc::new(archive);
    health.attach_archive(archive.clone());
    health.set_ready();
    let server =
        MetricsServer::bind_with("127.0.0.1:0", Vec::new(), health).expect("bind metrics server");
    let indices: Vec<u64> = pass.windows.iter().map(|w| w.index).collect();
    let mix = query_mix(&pass.input, &indices, spec.stream_ms);
    for (query, engine_answer) in mix.iter().zip(&pass.answers) {
        let read = rec.time("read_query", || read_query(archive.dir(), query));
        let http = rec.time("fetch_traces", || fetch_traces(server.local_addr(), query));
        match (read, http) {
            (Ok(read), Ok(http)) if read == http && &http == engine_answer => {}
            (Ok(_), Ok(_)) => mismatches.push(format!(
                "query {query:?}: read_query, GET /traces and the engine's archive disagree"
            )),
            (read, http) => mismatches.push(format!(
                "query {query:?} failed: read {:?} http {:?}",
                read.err(),
                http.err()
            )),
        }
    }
    server.shutdown();

    Replay {
        spans: rec,
        counts,
        mismatches,
    }
}

fn is_sorted(spans: &[ObservedSpan]) -> bool {
    spans
        .windows(2)
        .all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end))
}

/// One per-container task, call for call as `ReconstructionTask` runs it
/// on the default path. Returns the final assignment's edge gaps and the
/// number of final-iteration batches whose solve was inexact.
fn replay_task(
    rec: &mut Recorder,
    counts: &mut BTreeMap<&'static str, u64>,
    graph: &CallGraph,
    params: &Params,
    view: &SpanView,
    prior: Option<&DelayModel>,
    mapping: &mut Mapping,
) -> (HashMap<EdgeKey, Vec<f64>>, u64) {
    let sorted_copy;
    let view = if is_sorted(&view.incoming) && is_sorted(&view.outgoing) {
        view
    } else {
        let mut copy = view.clone();
        copy.sort();
        sorted_copy = copy;
        &sorted_copy
    };
    let incoming = &view.incoming;
    let outgoing = &view.outgoing;
    let n = incoming.len();

    let layouts: HashMap<Endpoint, SlotLayout> = rec.time("SlotLayout::from_spec", || {
        let mut layouts = HashMap::new();
        for s in incoming {
            layouts.entry(s.endpoint).or_insert_with(|| {
                SlotLayout::from_spec(&graph.spec(s.endpoint), params.use_order_constraints)
            });
        }
        layouts
    });
    let pool = rec.time("OutgoingPool::new", || OutgoingPool::new(outgoing));
    let feasible: Vec<Vec<usize>> = rec.time("feasible_for_window", || {
        incoming
            .iter()
            .map(|p| {
                let mut set: Vec<usize> = layouts[&p.endpoint]
                    .stages
                    .iter()
                    .flatten()
                    .flat_map(|&e| pool.feasible_for_window(e, p.start, p.end))
                    .collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    });
    let mut candidates: Vec<Vec<Candidate>> = incoming
        .iter()
        .enumerate()
        .map(|(i, p)| {
            rec.time("enumerate_candidates", || {
                enumerate_candidates(i, p, &layouts[&p.endpoint], &pool, params, false)
            })
        })
        .collect();
    *counts.entry("candidates.count").or_default() +=
        candidates.iter().map(|c| c.len() as u64).sum::<u64>();
    let ends: Vec<u64> = incoming.iter().map(|s| s.end.0).collect();
    let batches: Vec<Range<usize>> = rec.time("make_batches", || {
        make_batches(&feasible, &ends, params.batch_size)
    });
    *counts.entry("batching.batches").or_default() += batches.len() as u64;

    let warm = prior.is_some_and(|m| !m.is_empty());
    let mut model = rec.time("DelayModel::seed", || {
        match prior.filter(|m| !m.is_empty()) {
            Some(prior) => prior.clone(),
            None => DelayModel::seed(incoming, &pool, &layouts, outgoing, params),
        }
    });
    let iterations = if warm {
        params.effective_warm_iterations()
    } else {
        params.effective_iterations()
    };

    let mut assignment: Vec<Option<Candidate>> = vec![None; n];
    let mut inexact = 0u64;
    for iter in 0..iterations {
        for r in &batches {
            // One span per batch: a span per candidate would cost more
            // than the call it times.
            rec.time("score_candidate", || {
                for i in r.clone() {
                    let p = &incoming[i];
                    let layout = &layouts[&p.endpoint];
                    for c in candidates[i].iter_mut() {
                        c.score = score_candidate(p.endpoint, p, layout, c, &pool, &model, params);
                    }
                    candidates[i].sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));
                }
            });
            *counts.entry("score.candidates_scored").or_default() +=
                r.clone().map(|i| candidates[i].len() as u64).sum::<u64>();
        }

        let mut used: HashSet<usize> = HashSet::new();
        assignment = vec![None; n];
        inexact = 0;
        for range in &batches {
            let per_parent: Vec<Vec<Candidate>> = range
                .clone()
                .map(|i| {
                    candidates[i]
                        .iter()
                        .filter(|c| c.children.iter().flatten().all(|x| !used.contains(x)))
                        .take(params.top_k)
                        .cloned()
                        .collect()
                })
                .collect();
            let outcome = rec.time("optimize_batch", || {
                optimize_batch(&per_parent, params, None)
            });
            if !outcome.exact {
                inexact += 1;
            }
            for (i, pick) in range.clone().zip(&outcome.picks) {
                let Some(c) = pick else { continue };
                let cand = per_parent[i - range.start][*c].clone();
                assert_eq!(cand.num_skips(), 0, "no skips with dynamism off");
                used.extend(cand.children.iter().flatten().copied());
                assignment[i] = Some(cand);
            }
        }

        if iter + 1 < iterations {
            let gaps = rec.time("edge_gaps", || {
                collect_gaps(incoming, &layouts, &pool, &assignment)
            });
            model = rec.time("DelayModel::refit", || model.refit(&gaps, params));
            *counts.entry("refit.calls").or_default() += 1;
        }
    }
    let gaps = rec.time("edge_gaps", || {
        collect_gaps(incoming, &layouts, &pool, &assignment)
    });

    for (i, a) in assignment.iter().enumerate() {
        if let Some(cand) = a {
            let children: Vec<RpcId> = cand
                .children
                .iter()
                .flatten()
                .map(|&idx| pool.span(idx).rpc)
                .collect();
            mapping.assign(incoming[i].rpc, children);
        }
    }
    (gaps, inexact)
}

fn collect_gaps(
    incoming: &[ObservedSpan],
    layouts: &HashMap<Endpoint, SlotLayout>,
    pool: &OutgoingPool,
    assignment: &[Option<Candidate>],
) -> HashMap<EdgeKey, Vec<f64>> {
    let mut gaps: HashMap<EdgeKey, Vec<f64>> = HashMap::new();
    for (p, a) in incoming.iter().zip(assignment) {
        let Some(cand) = a else { continue };
        for (key, gap) in edge_gaps(p.endpoint, p, &layouts[&p.endpoint], cand, pool) {
            gaps.entry(key).or_default().push(gap);
        }
    }
    gaps
}
