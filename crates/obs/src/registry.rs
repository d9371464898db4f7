//! The metrics registry: counters, gauges and log₂-bucket histograms keyed
//! by `&'static str`, frozen into a [`Snapshot`].
//!
//! Everything here is BTree-ordered so iteration, equality and JSON export
//! are deterministic (D1), and all values are `u64` so snapshots compare
//! exactly — no floats in the registry itself. The offline `serde` shim is
//! a no-op, so "Serialize" in this workspace means hand-rolled JSON:
//! [`Snapshot::to_json`] emits a stable, sorted rendering suitable for
//! byte-diffing across runs.

use std::collections::BTreeMap;

/// Number of log₂ buckets: bucket *i* counts values with
/// `floor(log2(value)) == i - 1` (bucket 0 counts zeros), with one overflow
/// bucket at the top. 33 buckets cover the full `u32` range — slot counts,
/// scan depths and reject tallies all fit far below that.
pub(crate) const HISTOGRAM_BUCKETS: usize = 34;

/// A log₂-bucket histogram over `u64` samples.
///
/// Integer-only (count/sum/min/max plus bucket tallies), so two histograms
/// over the same sample stream are `==` regardless of insertion batching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Log₂ bucket tallies; see [`HISTOGRAM_BUCKETS`].
    pub(crate) buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a sample: 0 for zero, else `1 + floor(log2(v))`,
    /// clamped into the overflow bucket.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let exp = 63 - value.leading_zeros() as usize;
            (exp + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        let idx = Self::bucket_index(value);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
    }

    /// Mean sample value (0.0 when empty). The only float on the type, and
    /// it is derived — equality and diffing stay integer-exact.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Counterwise saturating difference `self - base`, for metering a
    /// phase between two snapshots of the same run.
    fn diff(&self, base: &Histogram) -> Histogram {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(base.buckets[i]);
        }
        Histogram {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            // min/max are not phase-decomposable; keep the later run's view.
            min: self.min,
            max: self.max,
            buckets,
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, self.min, self.max
        );
        // Trailing zero buckets are elided so small-valued histograms stay
        // readable; the rendering is still canonical because elision depends
        // only on the tallies.
        let used = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        for (i, b) in self.buckets[..used].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
        out
    }
}

/// A frozen view of the registry: every counter, gauge and histogram at one
/// instant, BTree-ordered. `PartialEq` compares exactly, so determinism
/// tests can assert two same-seed runs produced identical metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Log₂-bucket histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

/// Minimal JSON string escaping for metric names (which are static
/// identifiers in practice, but the export stays well-formed regardless).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Value of the named counter (0 when absent — an uninstrumented or
    /// never-hit path reads as zero, matching counter semantics).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Entrywise saturating difference `self - base`: counters and
    /// histograms subtract, gauges keep `self`'s (latest) value. Taking a
    /// snapshot before and after a phase and diffing isolates that phase's
    /// activity.
    pub fn diff(&self, base: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&name, &value)| (name, value.saturating_sub(base.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(&name, h)| match base.histograms.get(name) {
                Some(b) => (name, h.diff(b)),
                None => (name, h.clone()),
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Canonical JSON rendering: sorted keys, integer values, no
    /// whitespace. Byte-identical across runs whenever the snapshots
    /// compare equal.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), value));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), h.to_json()));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn snapshot_diff_isolates_a_phase() {
        let mut before = Snapshot::default();
        before.counters.insert("rejects", 10);
        let mut h0 = Histogram::default();
        h0.record(4);
        before.histograms.insert("depth", h0);

        let mut after = Snapshot::default();
        after.counters.insert("rejects", 25);
        after.counters.insert("accepts", 3);
        let mut h1 = Histogram::default();
        h1.record(4);
        h1.record(8);
        after.histograms.insert("depth", h1);
        after.gauges.insert("fill", 7);

        let phase = after.diff(&before);
        assert_eq!(phase.counter("rejects"), 15);
        assert_eq!(phase.counter("accepts"), 3);
        assert_eq!(phase.gauges.get("fill"), Some(&7));
        let d = phase.histograms.get("depth").expect("depth histogram");
        assert_eq!((d.count, d.sum), (1, 8));
    }

    #[test]
    fn json_is_canonical_and_sorted() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b", 2);
        snap.counters.insert("a", 1);
        snap.gauges.insert("g", 3);
        let mut h = Histogram::default();
        h.record(5);
        snap.histograms.insert("h", h);
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"g\":3},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\
             \"buckets\":[0,0,0,1]}}}"
        );
        assert_eq!(json, snap.clone().to_json());
    }

    #[test]
    fn empty_histogram_elides_all_buckets() {
        let h = Histogram::default();
        assert_eq!(
            h.to_json(),
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}"
        );
    }
}
