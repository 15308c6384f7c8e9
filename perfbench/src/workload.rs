//! The three workloads and the input each one is generated from.
//!
//! All three run `hotel_reservation`, the app the re-anchor baseline was
//! measured on, and differ in the layer they load:
//!
//! * `hotel-900-cold` — dense traffic, so the joint MIS solve (node
//!   budget exhaustion) and the EM refit share the window time. A solver
//!   change must show here.
//! * `hotel-100-cold` — sparse traffic: the solver is nearly idle and the
//!   window time is the refit's `Gmm::fit_auto` BIC sweep. A refit change
//!   must show here; a solver change must not.
//! * `deploy-300-warm` — the deployment shape: wire frames over TCP into
//!   `IngestServer`, `SanitizeStage`, warm-start windows whose registry
//!   absorb takes the narrowed refit, a checkpoint every second, and the
//!   archive read back over `GET /traces`. The only workload that loads
//!   ingest, sanitize, checkpoint writes and archive reads.
//!
//! Media, Alibaba and social traffic would add run time without adding a
//! layer, so they are left out.

use tw_model::callgraph::CallGraph;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_model::TruthIndex;
use tw_sim::apps::hotel_reservation;
use tw_sim::{Simulator, Workload};

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Poisson arrival rate at the app's root endpoint.
    pub rps: f64,
    /// Simulated stream length per pass.
    pub stream_ms: u64,
    /// Engine window length.
    pub window_ms: u64,
    /// The deployment shape: TCP ingest, sanitize, warm start,
    /// checkpoints. Cold workloads feed `ingest_handle` directly.
    pub deploy: bool,
    /// `accuracy_pct` below this fails the run.
    pub accuracy_floor_pct: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hotel-900-cold",
        rps: 900.0,
        stream_ms: 3_000,
        window_ms: 1_000,
        deploy: false,
        accuracy_floor_pct: 97.0,
    },
    Spec {
        name: "hotel-100-cold",
        rps: 100.0,
        stream_ms: 20_000,
        window_ms: 1_000,
        deploy: false,
        accuracy_floor_pct: 99.0,
    },
    Spec {
        name: "deploy-300-warm",
        rps: 300.0,
        stream_ms: 10_000,
        window_ms: 250,
        deploy: true,
        accuracy_floor_pct: 97.0,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Distinct inputs per run: passes run in rounds of one pass on each
/// input (see [`input_seed`]), so a run's figures rest on several
/// streams, not on one stream's luck. Later rounds repeat the inputs and
/// are checked against the first.
pub const INPUTS: usize = 3;

/// The simulator seed of input `i` of a run with seed `seed`. Input 0 is
/// the seed itself, so `--seed 42` on `hotel-900-cold` still starts with
/// the re-anchor stream.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One pass's input: the simulated records, sorted the way a collector
/// would emit them, plus the ground truth they are scored against.
pub struct Input {
    pub graph: CallGraph,
    pub records: Vec<RpcRecord>,
    pub truth: TruthIndex,
}

/// Simulate `spec`'s stream from `seed`. The same seed gives the same
/// records, byte for byte.
pub fn simulate(spec: &Spec, seed: u64) -> Input {
    let app = hotel_reservation(seed);
    let graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).expect("hotel_reservation config is valid");
    let out = sim.run(&Workload::poisson(
        root,
        spec.rps,
        Nanos::from_millis(spec.stream_ms),
    ));
    let mut records = out.records;
    // The simulator emits records in completion order per handler, not
    // globally; a collector flushes by response time. Unsorted input
    // would split traces across windows.
    records.sort_by_key(|r| (r.recv_resp, r.rpc));
    Input {
        graph,
        records,
        truth: out.truth,
    }
}
