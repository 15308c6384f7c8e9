//! Criterion benchmarks for §6.5 (performance overhead) plus the hot
//! inner kernels.
//!
//! The paper's prototype maps 1000 spans in <5 s (~200 RPS/container);
//! `reconstruct_1000_spans` measures the same operation here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tw_core::{Params, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_sim::apps::hotel_reservation;
use tw_sim::{Simulator, Workload};
use tw_solver::mis::{ConflictGraph, SolveOptions};
use tw_stats::gmm::{Gmm, GmmFitOptions};
use tw_stats::sampler::Sampler;

/// Capture roughly `n` spans of hotel traffic.
fn capture_spans(n: usize, rps: f64, seed: u64) -> (Vec<RpcRecord>, tw_model::CallGraph) {
    let app = hotel_reservation(seed);
    let graph = app.config.call_graph();
    // Each request yields 6 spans.
    let millis = (n as f64 / 6.0 / rps * 1_000.0).ceil() as u64 + 50;
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        rps,
        Nanos::from_millis(millis),
    ));
    (out.records, graph)
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction");
    group.sample_size(10);

    for &(label, rps) in &[("1000_spans_moderate", 300.0), ("1000_spans_high", 900.0)] {
        let (records, graph) = capture_spans(1_000, rps, 61);
        let tw = TraceWeaver::new(graph, Params::default());
        group.bench_function(format!("reconstruct_{label}"), |b| {
            b.iter(|| tw.reconstruct_records(std::hint::black_box(&records)))
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulate_hotel_1s_at_500rps", |b| {
        let app = hotel_reservation(62);
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        b.iter(|| sim.run(&Workload::poisson(root, 500.0, Nanos::from_secs(1))))
    });
}

fn bench_mis(c: &mut Criterion) {
    // A batch-shaped instance: 30 parents × 5 candidates, each parent's
    // candidates one clique group, plus random cross-conflicts.
    let n = 150;
    let mut s = Sampler::new(63);
    let weights: Vec<f64> = (0..n).map(|_| 1.0 + s.uniform() * 100.0).collect();
    let mut g = ConflictGraph::with_groups(weights, (0..n).map(|v| v / 5).collect());
    for _ in 0..400 {
        let u = s.uniform_usize(0, n);
        let v = s.uniform_usize(0, n);
        g.add_edge(u, v);
    }
    c.bench_function("mis_batch_150_vertices", |b| {
        b.iter(|| g.solve(&SolveOptions::default()))
    });
}

fn bench_gmm(c: &mut Criterion) {
    let mut s = Sampler::new(64);
    let samples: Vec<f64> = (0..500)
        .map(|i| {
            if i % 3 == 0 {
                s.normal(100.0, 10.0)
            } else {
                s.normal(400.0, 40.0)
            }
        })
        .collect();
    let opts = GmmFitOptions::default();
    let ones = vec![1.0; samples.len()];
    c.bench_function("gmm_fit_auto_500_samples", |b| {
        b.iter_batched(
            || samples.clone(),
            |xs| Gmm::fit(&xs, &ones, &opts.sweep(), &opts),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_reconstruction,
    bench_simulator,
    bench_mis,
    bench_gmm
);
criterion_main!(benches);
