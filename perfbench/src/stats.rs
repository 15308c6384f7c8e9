//! Order statistics for the report.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a timing sample: the highest nearest-rank percentile with
/// at least ten samples beyond it.
pub struct Tail {
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    pub samples: usize,
}

impl Tail {
    pub fn describe(&self, what: &str) -> String {
        let note = if self.samples < 20 {
            " (under 20 samples: held at the median)"
        } else {
            ""
        };
        format!("p{:.1} of {} {what}{note}", self.percentile, self.samples)
    }
}

pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    // Rank r (1-based) leaves n - r samples beyond it; r = n - 10 is the
    // highest with ten. Under 20 samples that falls below the median, and
    // the tail is held at the upper median instead, so it never reads
    // below the reported median.
    let rank = n.saturating_sub(10).max(n / 2 + 1);
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// 64-bit FNV-1a, for fingerprints that must be equal across runs (the
/// std hasher is randomly seeded per process).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of a value's `Debug` form (floats print exactly, so equal
/// fingerprints mean equal values but for a 64-bit collision).
pub fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::new();
    let _ = write!(h, "{value:?}");
    h.finish()
}
