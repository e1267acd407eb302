//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by static name plus a sorted label set.

use crate::quantile::QuantileSet;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A label value. Restricted to totally ordered types so label sets can
/// key a `BTreeMap` (no floats).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelValue {
    /// Unsigned integer (disk ids, cluster ids, cycle stamps).
    U64(u64),
    /// String (scheme abbreviations, mode names, loss reasons).
    Str(Cow<'static, str>),
    /// Boolean.
    Bool(bool),
}

impl fmt::Display for LabelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelValue::U64(v) => write!(f, "{v}"),
            LabelValue::Str(v) => write!(f, "{v}"),
            LabelValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! label_from_uint {
    ($($t:ty),*) => {
        $(impl From<$t> for LabelValue {
            fn from(v: $t) -> Self {
                LabelValue::U64(v as u64)
            }
        })*
    };
}

label_from_uint!(u64, u32, u16, u8, usize);

impl From<bool> for LabelValue {
    fn from(v: bool) -> Self {
        LabelValue::Bool(v)
    }
}

impl From<&'static str> for LabelValue {
    fn from(v: &'static str) -> Self {
        LabelValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for LabelValue {
    fn from(v: String) -> Self {
        LabelValue::Str(Cow::Owned(v))
    }
}

/// A sorted set of `key = value` labels. Construction sorts by key, so
/// two label sets written in different orders compare equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels(Vec<(&'static str, LabelValue)>);

impl Labels {
    /// The empty label set.
    #[must_use]
    pub fn empty() -> Self {
        Labels(Vec::new())
    }

    /// Build from `(key, value)` pairs; sorts by key.
    #[must_use]
    pub fn new(mut pairs: Vec<(&'static str, LabelValue)>) -> Self {
        pairs.sort_by_key(|(k, _)| *k);
        Labels(pairs)
    }

    /// The sorted pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(&'static str, LabelValue)] {
        &self.0
    }

    /// Look up one label.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&LabelValue> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Whether there are no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A metric's identity: name plus labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// The metric name (dotted, e.g. `sim.delivered`).
    pub name: &'static str,
    /// The label set.
    pub labels: Labels,
}

impl MetricKey {
    /// Build a key.
    #[must_use]
    pub fn new(name: &'static str, labels: Labels) -> Self {
        MetricKey { name, labels }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.labels)
    }
}

/// Default histogram bucket bounds: a log-ish ladder that covers
/// sub-millisecond service times up to multi-second stalls. Values
/// beyond the last bound land in the implicit `+inf` bucket.
pub const DEFAULT_BOUNDS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
];

/// A fixed-bucket histogram. Bucket `i` counts samples `x ≤ bounds[i]`
/// (cumulative-style assignment per sample: each sample increments
/// exactly one bucket, the first whose bound contains it); samples above
/// every bound increment the overflow bucket. The bucket counts
/// therefore always sum to [`Histogram::count`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending bucket bounds.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A histogram with [`DEFAULT_BOUNDS`].
    #[must_use]
    pub fn default_bounds() -> Self {
        Histogram::new(DEFAULT_BOUNDS)
    }

    /// Record one sample.
    ///
    /// Bucket edges are **inclusive upper bounds**: a sample lands in
    /// the first bucket `i` with `value <= bounds[i]`, so a value
    /// exactly on a boundary counts in the bucket the boundary closes
    /// (e.g. with bounds `[1.0, 10.0]`, `observe(1.0)` increments
    /// bucket 0 and `observe(10.0)` increments bucket 1). Samples
    /// strictly above the last bound increment the overflow (`+inf`)
    /// bucket. This matches Prometheus `le` semantics, which is what
    /// lets the Prometheus exporter emit cumulative buckets without
    /// re-binning.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The bucket bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, aligned with [`bounds`](Histogram::bounds).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples above the last bound (the `+inf` bucket).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merge another histogram with the same bucket layout into this
    /// one (a registry gives every histogram [`DEFAULT_BOUNDS`]).
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The one value in `map` keyed `name` and `labels`.
fn find<'a, T>(map: &'a BTreeMap<MetricKey, T>, name: &str, labels: &Labels) -> Option<&'a T> {
    map.iter()
        .find(|(k, _)| k.name == name && &k.labels == labels)
        .map(|(_, v)| v)
}

/// The metrics store, and the unit every exporter reads: each kind is a
/// key-ordered map, which makes the exports deterministic.
/// Single-threaded by design: each collector owns its own registry and
/// parallel layers merge registries in job index order (see
/// [`Registry::merge`]), so no lock sits on the hot path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
    quantiles: BTreeMap<MetricKey, QuantileSet>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add to a counter.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, value: f64) {
        self.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Record a histogram sample.
    pub fn histogram_observe(&mut self, name: &'static str, labels: Labels, value: f64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(Histogram::default_bounds)
            .observe(value);
    }

    /// Record a sample into the p50/p95/p99 streaming-quantile set.
    pub fn quantile_observe(&mut self, name: &'static str, labels: Labels, value: f64) {
        self.quantiles
            .entry(MetricKey::new(name, labels))
            .or_default()
            .observe(value);
    }

    /// A counter's current value (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        find(&self.counters, name, labels).map_or(0, |v| *v)
    }

    /// Sum of a counter across all label sets.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// A gauge's current value.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<f64> {
        find(&self.gauges, name, labels).copied()
    }

    /// A histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<&Histogram> {
        find(&self.histograms, name, labels)
    }

    /// A quantile set, if any sample was recorded.
    #[must_use]
    pub fn quantile(&self, name: &str, labels: &Labels) -> Option<&QuantileSet> {
        find(&self.quantiles, name, labels)
    }

    /// Every counter, key-ordered.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<MetricKey, u64> {
        &self.counters
    }

    /// Every gauge, key-ordered.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<MetricKey, f64> {
        &self.gauges
    }

    /// Every histogram, key-ordered.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<MetricKey, Histogram> {
        &self.histograms
    }

    /// Every streaming p50/p95/p99 set, key-ordered.
    #[must_use]
    pub fn quantiles(&self) -> &BTreeMap<MetricKey, QuantileSet> {
        &self.quantiles
    }

    /// Number of metrics of every kind.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len() + self.quantiles.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only the metrics whose key passes `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&MetricKey) -> bool) {
        self.counters.retain(|k, _| keep(k));
        self.gauges.retain(|k, _| keep(k));
        self.histograms.retain(|k, _| keep(k));
        self.quantiles.retain(|k, _| keep(k));
    }

    /// Merge `other` into `self`: counters and histogram buckets sum;
    /// gauges take `other`'s value (last-writer-wins, so merging in job
    /// index order reproduces a sequential run exactly).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, q) in &other.quantiles {
            match self.quantiles.get_mut(k) {
                Some(mine) => mine.merge(q),
                None => {
                    self.quantiles.insert(k.clone(), q.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: Vec<(&'static str, LabelValue)>) -> Labels {
        Labels::new(pairs)
    }

    #[test]
    fn labels_sort_and_compare() {
        let a = labels(vec![("b", 1u64.into()), ("a", "x".into())]);
        let b = labels(vec![("a", "x".into()), ("b", 1u64.into())]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{a=x,b=1}");
        assert_eq!(a.get("b"), Some(&LabelValue::U64(1)));
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = Registry::new();
        let sr = labels(vec![("scheme", "SR".into())]);
        let nc = labels(vec![("scheme", "NC".into())]);
        r.counter_add("delivered", sr.clone(), 3);
        r.counter_add("delivered", sr.clone(), 2);
        r.counter_add("delivered", nc.clone(), 1);
        assert_eq!(r.counter("delivered", &sr), 5);
        assert_eq!(r.counter("delivered", &nc), 1);
        assert_eq!(r.counter_total("delivered"), 6);
        assert_eq!(r.counter("other", &sr), 0);
    }

    #[test]
    fn gauges_take_last_write() {
        let mut r = Registry::new();
        r.gauge_set("progress", Labels::empty(), 0.25);
        r.gauge_set("progress", Labels::empty(), 0.75);
        assert_eq!(r.gauge("progress", &Labels::empty()), Some(0.75));
    }

    #[test]
    fn histogram_buckets_sum_to_count() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 50.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[2, 2]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts().iter().sum::<u64>() + h.overflow(), h.count());
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(50.0));
        assert!((h.mean() - 12.3).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        // Exactly on the first boundary: closes bucket 0.
        h.observe(1.0);
        assert_eq!(h.counts(), &[1, 0]);
        // Exactly on the last boundary: closes bucket 1, not overflow.
        h.observe(10.0);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.overflow(), 0);
        // The first value strictly above the last bound overflows.
        h.observe(10.0 + f64::EPSILON * 16.0);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts().iter().sum::<u64>() + h.overflow(), h.count());
    }

    #[test]
    fn quantiles_register_and_merge() {
        let mut r = Registry::new();
        for v in [1.0, 2.0, 3.0] {
            r.quantile_observe("wait", Labels::empty(), v);
        }
        assert_eq!(r.quantile("wait", &Labels::empty()).unwrap().count(), 3);
        assert!(!r.is_empty());
        let mut other = Registry::new();
        other.quantile_observe("wait", Labels::empty(), 9.0);
        r.merge(&other);
        assert_eq!(r.quantile("wait", &Labels::empty()).unwrap().count(), 4);
        assert_eq!(r.quantiles().len(), 1);
    }

    #[test]
    fn histogram_merge_matching_layout_is_exact() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        let mut b = Histogram::new(&[1.0, 10.0]);
        a.observe(0.5);
        b.observe(5.0);
        b.observe(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.max(), Some(100.0));
    }

    #[test]
    fn registry_merge_is_order_sensitive_only_for_gauges() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("n", Labels::empty(), 1);
        b.counter_add("n", Labels::empty(), 2);
        a.gauge_set("g", Labels::empty(), 1.0);
        b.gauge_set("g", Labels::empty(), 2.0);
        a.histogram_observe("h", Labels::empty(), 3.0);
        b.histogram_observe("h", Labels::empty(), 4.0);
        a.merge(&b);
        assert_eq!(a.counter("n", &Labels::empty()), 3);
        assert_eq!(a.gauge("g", &Labels::empty()), Some(2.0));
        assert_eq!(a.histogram("h", &Labels::empty()).unwrap().count(), 2);
    }

    #[test]
    fn registry_histograms_take_the_default_bounds() {
        let mut r = Registry::new();
        r.histogram_observe("latency", Labels::empty(), 1.0);
        let h = r.histogram("latency", &Labels::empty()).unwrap();
        assert_eq!(h.bounds(), DEFAULT_BOUNDS);
    }

    #[test]
    fn metrics_are_key_ordered() {
        let mut r = Registry::new();
        r.counter_add("z", Labels::empty(), 1);
        r.counter_add("a", Labels::empty(), 1);
        let names: Vec<_> = r.counters().keys().map(|k| k.name).collect();
        assert_eq!(names, ["a", "z"]);
        assert_eq!(r.len(), 2);
        r.retain(|k| k.name != "z");
        assert_eq!(r.len(), 1);
    }
}
