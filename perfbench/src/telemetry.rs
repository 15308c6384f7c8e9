//! Reading the program's own work counters out of telemetry registries:
//! `tw_solver_*` and `tw_core_*` from the process-global registry, the
//! `tw_store_*`, checkpoint and ingest series from the registry the
//! benchmark passes in `OnlineConfig::telemetry`.

use std::collections::BTreeMap;
use tw_telemetry::{Registry, ValueSnapshot};

/// Totals of every family in `registry`: counter and gauge values summed
/// over label sets; histograms contribute `<name>_count` and `<name>_sum`.
pub fn totals(registry: &Registry) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for family in registry.snapshot() {
        for value in family.series.values() {
            match value {
                ValueSnapshot::Counter(v) => {
                    *out.entry(family.name.clone()).or_default() += *v as f64;
                }
                ValueSnapshot::Gauge(v) => *out.entry(family.name.clone()).or_default() += v,
                ValueSnapshot::Histogram { sum, count, .. } => {
                    *out.entry(format!("{}_count", family.name)).or_default() += *count as f64;
                    *out.entry(format!("{}_sum", family.name)).or_default() += sum;
                }
            }
        }
    }
    out
}

/// `after − before` for one family total (0 when absent).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// A family total read as a whole count.
pub fn count(totals: &BTreeMap<String, f64>, name: &str) -> u64 {
    totals.get(name).copied().unwrap_or(0.0).round() as u64
}
