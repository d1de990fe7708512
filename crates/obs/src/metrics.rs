//! A global, thread-sharded metrics registry: atomic counters and
//! HDR histograms ([`crate::hdr`]).
//!
//! A counter's hot-path cost is one relaxed `fetch_add` on a shard
//! picked by a cached per-thread index, so concurrent workers (e.g. the
//! bench harness's `parallel_map` threads) do not contend on one cache
//! line. Shards are merged only at snapshot time. Handles are interned: looking a metric up
//! by name takes a lock once, after which the returned handle is a plain
//! `Arc` that can be cached and cloned freely.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hdr::{HdrHistogram, HdrSnapshot};

/// Number of independent shards per metric. Power of two; enough to spread
/// the worker threads of a typical machine.
const SHARDS: usize = 16;

/// Pads an atomic to its own cache line so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

pub(crate) fn shard_index() -> usize {
    // a cheap, stable per-thread shard: hash the thread id once and cache it
    thread_local! {
        static SHARD: usize = {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
        };
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing sharded counter.
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: Default::default(),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The merged value across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    hdr: BTreeMap<&'static str, Arc<HdrHistogram>>,
}

/// The process-global metrics registry.
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry")
    }
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(RegistryInner::default()),
    })
}

impl Registry {
    /// The process-global registry.
    pub fn global() -> &'static Registry {
        global()
    }

    /// Interns and returns the counter named `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .entry(name)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Interns and returns the HDR histogram named `name` (log-linear
    /// buckets, ~1% relative-error quantiles; see [`crate::hdr`]).
    pub fn hdr(&self, name: &'static str) -> Arc<HdrHistogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .hdr
            .entry(name)
            .or_insert_with(|| Arc::new(HdrHistogram::new()))
            .clone()
    }

    /// Merged values of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&k, v)| (k.to_string(), v.value()))
                .collect(),
            hdr: inner
                .hdr
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (handles stay valid). Intended for
    /// tests and for per-suite deltas in the experiment battery.
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        for c in inner.counters.values() {
            c.reset();
        }
        for h in inner.hdr.values() {
            h.reset();
        }
    }
}

/// Shorthand for `Registry::global().counter(name)`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand for `Registry::global().hdr(name)`.
pub fn hdr(name: &'static str) -> Arc<HdrHistogram> {
    global().hdr(name)
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// HDR histogram snapshots by name.
    pub hdr: BTreeMap<String, HdrSnapshot>,
}

impl MetricsSnapshot {
    /// The change from `earlier` to `self`, dropping metrics that did not
    /// move. Histogram deltas subtract bucket-wise (see
    /// [`HdrSnapshot::since`]).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let delta = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                (delta > 0).then(|| (k.clone(), delta))
            })
            .collect();
        let hdr = self
            .hdr
            .iter()
            .filter_map(|(k, h)| {
                let delta = match earlier.hdr.get(k) {
                    Some(base) => h.since(base),
                    None => h.clone(),
                };
                (!delta.is_empty()).then(|| (k.clone(), delta))
            })
            .collect();
        MetricsSnapshot { counters, hdr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn registry_interns_and_diffs() {
        let registry = Registry::global();
        let a = registry.counter("test.registry.a");
        let a2 = registry.counter("test.registry.a");
        a.add(3);
        assert_eq!(a2.value(), 3, "same handle through interning");

        let before = registry.snapshot();
        a.add(2);
        registry.hdr("test.registry.h").record(9);
        let delta = registry.snapshot().since(&before);
        assert_eq!(delta.counters.get("test.registry.a"), Some(&2));
        let h = delta.hdr.get("test.registry.h").expect("histogram moved");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
        // unrelated metrics that did not move are dropped from the delta
        assert!(!delta.counters.keys().any(|k| k == "test.registry.unrelated"));
    }
}
