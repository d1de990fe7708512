//! HDR-style log-linear histograms with bounded relative error: the one
//! histogram type of the [`crate::metrics`] registry.
//!
//! Plain power-of-two buckets cannot answer "what is p999": a bucket
//! spanning `[2^20, 2^21)` is a 100% error bar at the tail. An
//! [`HdrHistogram`] subdivides every power-of-two range into
//! [`SUB_BUCKETS`] linear sub-buckets, so any recorded `u64` lands in a
//! bucket whose width is at most `value / SUB_BUCKETS` — quantiles read
//! back from the bucket upper edge overshoot the true sample by at most
//! [`RELATIVE_ERROR`] (1/128 ≈ 0.8%, within the documented ~1% bound).
//!
//! Recording is lock-free: one relaxed `fetch_add` on a per-thread shard
//! (lazily allocated, so single-threaded histograms pay for one shard).
//! Merging — across shards, across histograms, across Monte-Carlo reps —
//! is plain bucket-wise addition of [`HdrSnapshot`]s, which is commutative
//! and associative, so merged quantiles are **bitwise identical at any
//! thread count and any merge order** as long as the recorded sample
//! multiset is (the workspace-wide determinism discipline guarantees
//! that).
//!
//! # Examples
//!
//! ```
//! use smallworld_obs::hdr::HdrHistogram;
//!
//! let h = HdrHistogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! let s = h.snapshot();
//! assert_eq!(s.count, 1000);
//! let p50 = s.quantile(0.50).unwrap();
//! assert!((498..=504).contains(&p50), "p50 within 1% of 500: {p50}");
//! assert_eq!(s.quantile(1.0), Some(1000));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// log₂ of [`SUB_BUCKETS`].
pub const SUB_BUCKET_BITS: u32 = 7;

/// Linear sub-buckets per power-of-two range (128).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Guaranteed relative error bound of quantile read-back: a reported
/// quantile `q` satisfies `true <= q <= true * (1 + RELATIVE_ERROR)`.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// Total bucket count covering the full `u64` range: values below
/// [`SUB_BUCKETS`] are exact, then every exponent `SUB_BUCKET_BITS..=63`
/// contributes [`SUB_BUCKETS`] linear sub-buckets.
pub const BUCKETS: usize = SUB_BUCKETS * (65 - SUB_BUCKET_BITS as usize);

/// Number of independent recording shards (power of two).
const SHARDS: usize = 8;

/// The bucket index holding `value`. Exact (`index == value`) below
/// [`SUB_BUCKETS`]; log-linear above.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let e = 63 - value.leading_zeros();
        let sub = ((value - (1u64 << e)) >> (e - SUB_BUCKET_BITS)) as usize;
        SUB_BUCKETS + (e - SUB_BUCKET_BITS) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let e = SUB_BUCKET_BITS + ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        (1u64 << e) + (sub << (e - SUB_BUCKET_BITS))
    }
}

/// Inclusive upper bound of bucket `i` (the value quantiles report).
pub fn bucket_hi(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let e = SUB_BUCKET_BITS + ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        bucket_lo(i) + ((1u64 << (e - SUB_BUCKET_BITS)) - 1)
    }
}

/// One lazily-allocated recording shard.
#[derive(Default)]
struct Shard {
    buckets: OnceLock<Box<[AtomicU64]>>,
}

impl Shard {
    fn buckets(&self) -> &[AtomicU64] {
        self.buckets
            .get_or_init(|| (0..BUCKETS).map(|_| AtomicU64::new(0)).collect())
    }
}

/// A sharded, lock-free log-linear histogram of `u64` samples.
///
/// See the [module docs](self) for the error bound and the determinism
/// argument. Use [`crate::metrics::hdr`] for a registry-interned global
/// instance, or `HdrHistogram::new()` for a local one (e.g. per
/// Monte-Carlo rep, merged afterwards via [`HdrSnapshot::merge`]).
pub struct HdrHistogram {
    shards: [Shard; SHARDS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for HdrHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "HdrHistogram(count={}, sum={})", s.count, s.sum)
    }
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// An empty histogram. Bucket storage is allocated lazily per shard on
    /// first use, so idle histograms are near-free.
    pub fn new() -> Self {
        HdrHistogram {
            shards: Default::default(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: one relaxed `fetch_add` on this thread's shard
    /// plus the count/sum/min/max scalars.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[crate::metrics::shard_index() % SHARDS];
        shard.buckets()[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a `Duration` in nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merges all shards into a point-in-time [`HdrSnapshot`].
    pub fn snapshot(&self) -> HdrSnapshot {
        let mut counts: Vec<(u32, u64)> = Vec::new();
        let mut merged = vec![0u64; 0];
        for shard in &self.shards {
            let Some(buckets) = shard.buckets.get() else {
                continue;
            };
            if merged.is_empty() {
                merged = vec![0u64; BUCKETS];
            }
            for (i, b) in buckets.iter().enumerate() {
                merged[i] += b.load(Ordering::Relaxed);
            }
        }
        for (i, &c) in merged.iter().enumerate() {
            if c > 0 {
                counts.push((i as u32, c));
            }
        }
        HdrSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the histogram (shards stay allocated).
    pub fn reset(&self) {
        for shard in &self.shards {
            if let Some(buckets) = shard.buckets.get() {
                for b in buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The standard quantiles every run-report extracts.
pub const REPORT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A point-in-time, sparse copy of an [`HdrHistogram`].
///
/// Only non-empty buckets are kept, as `(bucket index, count)` pairs
/// sorted by index — merge and delta are linear in the number of occupied
/// buckets, and the representation is canonical (equal sample multisets
/// give equal snapshots, whatever the recording interleaving).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HdrSnapshot {
    /// Occupied `(bucket index, count)` pairs, sorted by index.
    pub counts: Vec<(u32, u64)>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

/// The empty snapshot — the identity of [`HdrSnapshot::merge`]
/// (`min` starts at `u64::MAX`, matching an empty histogram's snapshot).
impl Default for HdrSnapshot {
    fn default() -> Self {
        HdrSnapshot {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HdrSnapshot {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value, `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) of the recorded samples, or `None`
    /// when empty.
    ///
    /// Returns the upper edge of the bucket holding the sample of rank
    /// `ceil(q * count)` (clamped to the recorded max), so the result `r`
    /// brackets the true order statistic `t` as
    /// `t <= r <= t * (1 + RELATIVE_ERROR)` — and exactly `r == t` for
    /// values below [`SUB_BUCKETS`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Some(bucket_hi(i as usize).min(self.max));
            }
        }
        // counts and count can only disagree transiently under concurrent
        // recording; fall back to the recorded max
        Some(self.max)
    }

    /// Bucket-wise sum of two snapshots. Commutative and associative, so
    /// any merge tree over the same snapshots yields the same result.
    pub fn merge(&self, other: &HdrSnapshot) -> HdrSnapshot {
        let mut counts = Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (self.counts.iter().peekable(), other.counts.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        counts.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        counts.push((ib, cb));
                        b.next();
                    } else {
                        counts.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    counts.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    counts.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HdrSnapshot {
            counts,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The change from `earlier` to `self`: bucket-wise saturating
    /// subtraction. Extrema do not subtract, so `min`/`max` are the edges of
    /// the delta's own lowest and highest buckets, clamped to `self`'s
    /// `min`/`max` (an empty delta has the empty snapshot's). Used for
    /// per-suite artifact deltas.
    pub fn since(&self, earlier: &HdrSnapshot) -> HdrSnapshot {
        let base: std::collections::BTreeMap<u32, u64> = earlier.counts.iter().copied().collect();
        let counts: Vec<(u32, u64)> = self
            .counts
            .iter()
            .filter_map(|&(i, c)| {
                let delta = c.saturating_sub(base.get(&i).copied().unwrap_or(0));
                (delta > 0).then_some((i, delta))
            })
            .collect();
        let (min, max) = match (counts.first(), counts.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (
                bucket_lo(lo as usize).max(self.min),
                bucket_hi(hi as usize).min(self.max),
            ),
            _ => (u64::MAX, 0),
        };
        HdrSnapshot {
            counts,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            let i = bucket_index(v);
            assert_eq!(i as u64, v);
            assert_eq!(bucket_lo(i), v);
            assert_eq!(bucket_hi(i), v);
        }
    }

    #[test]
    fn bucket_edges_are_consistent() {
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            if i > 0 {
                assert_eq!(bucket_lo(i), bucket_hi(i - 1).wrapping_add(1), "bucket {i} adjacency");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_hi(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [
            1u64, 127, 128, 129, 1000, 65_535, 1 << 20, (1 << 20) + 7, u64::MAX / 3, u64::MAX,
        ] {
            let i = bucket_index(v);
            let hi = bucket_hi(i);
            assert!(hi >= v);
            // hi - v <= bucket width <= v / SUB_BUCKETS (+1 for rounding)
            assert!(
                (hi - v) as f64 <= v as f64 * RELATIVE_ERROR + 1.0,
                "value {v}: bucket hi {hi} overshoots by {}",
                hi - v
            );
        }
    }

    #[test]
    fn quantiles_match_a_sorted_oracle() {
        let h = HdrHistogram::new();
        let mut samples: Vec<u64> = (0..2000u64).map(|i| (i * i * 7 + 13) % 100_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let got = snap.quantile(q).unwrap();
            assert!(got >= truth, "q={q}: {got} < {truth}");
            assert!(
                got as f64 <= truth as f64 * (1.0 + RELATIVE_ERROR) + 1.0,
                "q={q}: {got} overshoots {truth}"
            );
        }
        assert_eq!(snap.quantile(1.0), Some(*samples.last().unwrap()));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = HdrHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert!(s.mean().is_nan());
        assert_eq!(s.min, u64::MAX);
    }

    #[test]
    fn merge_equals_recording_together() {
        let (a, b, both) = (HdrHistogram::new(), HdrHistogram::new(), HdrHistogram::new());
        for v in 0..500u64 {
            let x = v * 37 % 4096;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        // commutativity
        assert_eq!(merged, b.snapshot().merge(&a.snapshot()));
    }

    #[test]
    fn since_subtracts_buckets() {
        let h = HdrHistogram::new();
        h.record(5);
        h.record(5000);
        let earlier = h.snapshot();
        h.record(5);
        h.record(77);
        let delta = h.snapshot().since(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(
            delta.counts,
            vec![(bucket_index(5) as u32, 1), (bucket_index(77) as u32, 1)]
        );
        // the delta's extrema are its own, not the earlier 5000's
        assert_eq!((delta.min, delta.max), (5, 77));
        assert_eq!(delta.quantile(1.0), Some(77));
        // inexact buckets clamp to the whole run's extrema
        h.record(100_003);
        let later = h.snapshot();
        h.record(100_001);
        let delta = h.snapshot().since(&later);
        let edge = bucket_lo(bucket_index(100_001));
        assert!(edge < 100_001 && bucket_hi(bucket_index(100_001)) > 100_003);
        assert_eq!((delta.min, delta.max), (edge, 100_003));
        let empty = h.snapshot().since(&h.snapshot());
        assert_eq!((empty.min, empty.max), (u64::MAX, 0));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = HdrHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.counts.iter().map(|&(_, c)| c).sum::<u64>(), 80_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 79_999);
    }

    #[test]
    fn reset_clears_everything() {
        let h = HdrHistogram::new();
        h.record(9);
        h.reset();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert!(s.counts.is_empty());
        assert_eq!(s.max, 0);
    }
}
