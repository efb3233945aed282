//! Always-on lock wait/hold timing, per [`LockClass`](crate::LockClass).
//!
//! Unlike the order checker (compile-time gated behind the `lockcheck`
//! feature), timing is available in every build: contention is a
//! *performance* question, and the builds whose performance matters are
//! exactly the ones compiled without the checker. Timing is paid for only
//! where it pays:
//!
//! - A **contended** acquisition (the try-acquire fails) is always timed:
//!   its wait goes to `lock.wait.<class>` and its hold to
//!   `lock.hold.<class>`, one sample each. `lock.wait.*` histograms
//!   therefore count contended acquisitions only — their `count` is the
//!   number of times a thread queued on that class.
//! - An **uncontended** acquisition reads no clock and touches no shared
//!   atomic, except one in every [`HOLD_SAMPLE_EVERY`] on each thread.
//!   That one's hold is timed and recorded with weight
//!   [`HOLD_SAMPLE_EVERY`] in the count, the sum and its bucket, so
//!   `lock.hold.*` totals stay unbiased estimates of every hold. Which
//!   acquisition of each block of [`HOLD_SAMPLE_EVERY`] is sampled is
//!   drawn per block by a per-thread generator, so a thread that takes
//!   its locks in a fixed cycle does not bill one class for all of them.
//! - Condvar waits pause the hold timer so parked time is not billed as
//!   holding.
//!
//! Samples aggregate per class into log2-bucketed histograms (the same
//! bucket layout as `actorspace-obs`); [`lock_timing`] exports the raw
//! buckets, which `obs` folds into `lock.wait.<class>` /
//! `lock.hold.<class>` snapshot entries. The tables are process-global,
//! like the order graph.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log2 buckets, mirroring `actorspace_obs::metrics::N_BUCKETS`:
/// bucket `i > 0` covers `[2^(i-1), 2^i)` nanoseconds, bucket 0 covers
/// exactly 0, and the last bucket absorbs the tail.
pub const N_TIMING_BUCKETS: usize = 65;

/// One uncontended acquisition in this many, per thread, has its hold
/// timed (and recorded with this weight).
pub const HOLD_SAMPLE_EVERY: u64 = 64;

/// Per-thread sampling state: acquisitions left in the current block, the
/// position in the block that is sampled, and a xorshift generator that
/// draws the next block's position.
#[derive(Clone, Copy)]
struct Sampler {
    left: u64,
    pick: u64,
    rng: u32,
}

thread_local! {
    static SAMPLER: Cell<Sampler> = const {
        Cell::new(Sampler {
            left: HOLD_SAMPLE_EVERY,
            pick: 0,
            rng: 0x9E37_79B9,
        })
    };
}

/// Counts one uncontended acquisition on this thread; true for exactly one
/// in each block of [`HOLD_SAMPLE_EVERY`].
#[inline]
fn sample_this_one() -> bool {
    SAMPLER.with(|cell| {
        let mut s = cell.get();
        s.left -= 1;
        let hit = s.left == s.pick;
        if s.left == 0 {
            s = next_block(s);
        }
        cell.set(s);
        hit
    })
}

/// Starts a new block: draws the position it samples.
#[cold]
fn next_block(mut s: Sampler) -> Sampler {
    s.rng ^= s.rng << 13;
    s.rng ^= s.rng >> 17;
    s.rng ^= s.rng << 5;
    s.left = HOLD_SAMPLE_EVERY;
    s.pick = u64::from(s.rng) % HOLD_SAMPLE_EVERY;
    s
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

#[inline]
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One atomically updated log2 histogram (count + sum + buckets).
pub(crate) struct AtomicHist {
    buckets: [AtomicU64; N_TIMING_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    const fn new() -> AtomicHist {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHist {
            buckets: [ZERO; N_TIMING_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records sample `v` standing for `weight` samples of that value.
    #[inline]
    pub(crate) fn record(&self, v: u64, weight: u64) {
        self.buckets[bucket_index(v)].fetch_add(weight, Ordering::Relaxed);
        self.sum
            .fetch_add(v.saturating_mul(weight), Ordering::Relaxed);
        self.count.fetch_add(weight, Ordering::Relaxed);
    }

    fn data(&self) -> TimingData {
        TimingData {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The wait and hold histograms of one lock class.
pub(crate) struct ClassTiming {
    pub(crate) wait: AtomicHist,
    pub(crate) hold: AtomicHist,
}

impl ClassTiming {
    const fn new() -> ClassTiming {
        ClassTiming {
            wait: AtomicHist::new(),
            hold: AtomicHist::new(),
        }
    }
}

// Like the order graph, the timing table uses raw parking_lot: this crate
// is the instrumentation boundary and must not recurse into itself. The
// table is only locked on the *first* acquisition of each lock instance
// (the resolved pointer is cached in the lock) and by exports.
static REGISTRY: parking_lot::Mutex<BTreeMap<&'static str, &'static ClassTiming>> =
    parking_lot::Mutex::new(BTreeMap::new());

/// Resolves (allocating on first use) the process-wide timing slot for a
/// class name. The returned reference is `'static`: slots are leaked once
/// and live for the process, so lock hot paths can cache the pointer.
pub(crate) fn class_timing(name: &'static str) -> &'static ClassTiming {
    let mut map = REGISTRY.lock();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(ClassTiming::new())))
}

/// Raw histogram contents for one timing dimension of one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingData {
    /// Samples recorded, each sampled hold counted with its weight (for
    /// `wait`: contended acquisitions only).
    pub count: u64,
    /// Weighted sum of all samples, nanoseconds.
    pub sum: u64,
    /// Per-bucket weighted sample counts, [`N_TIMING_BUCKETS`] long; they
    /// sum to `count`.
    pub buckets: Vec<u64>,
}

/// Wait/hold timing of one lock class, as exported by [`lock_timing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockTiming {
    /// Canonical class name ([`crate::LockClass::name`]).
    pub class: &'static str,
    /// Time spent blocked acquiring locks of this class.
    pub wait: TimingData,
    /// Time guards of this class were held (condvar waits excluded).
    pub hold: TimingData,
}

/// Snapshot of every class's wait/hold histograms, sorted by class name.
/// A class is present once one of its acquisitions has been timed.
pub fn lock_timing() -> Vec<LockTiming> {
    let map = REGISTRY.lock();
    map.iter()
        .map(|(&class, t)| LockTiming {
            class,
            wait: t.wait.data(),
            hold: t.hold.data(),
        })
        .collect()
}

/// Acquires a lock through `try_acquire`, falling back to the blocking
/// `acquire` only when that fails. The fallback is a contended
/// acquisition: its wait is recorded and its hold timed, at weight 1.
/// Otherwise the hold is timed only if this thread's sampler picks it.
/// The timed paths are kept out of line so the uncontended one stays
/// small enough to inline into every lock call.
#[inline]
pub(crate) fn acquire<G>(
    stats: impl FnOnce() -> &'static ClassTiming,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> (HoldTimer, G) {
    match try_acquire() {
        Some(guard) => (HoldTimer::uncontended(stats), guard),
        None => contended(stats, acquire),
    }
}

#[cold]
#[inline(never)]
fn contended<G>(
    stats: impl FnOnce() -> &'static ClassTiming,
    acquire: impl FnOnce() -> G,
) -> (HoldTimer, G) {
    let timing = stats();
    let queued = Instant::now();
    let guard = acquire();
    let acquired = Instant::now();
    timing.wait.record(nanos(acquired - queued), 1);
    (HoldTimer::running(timing, acquired, 1), guard)
}

/// A running hold timer: the class slot, the start and the weight its
/// samples are recorded with.
type Running = (&'static ClassTiming, Instant, u64);

/// Guard-embedded hold timer: stamps acquisition time and records the
/// elapsed hold into the class's hold histogram when dropped. Inert for
/// the uncontended acquisitions the sampler skips.
pub(crate) struct HoldTimer(Option<Running>);

impl HoldTimer {
    #[inline]
    fn running(timing: &'static ClassTiming, started: Instant, weight: u64) -> HoldTimer {
        HoldTimer(Some((timing, started, weight)))
    }

    /// The timer of an uncontended acquisition: running, at weight
    /// [`HOLD_SAMPLE_EVERY`], for the one in each block the sampler picks;
    /// inert (no clock read) otherwise.
    #[inline]
    pub(crate) fn uncontended(stats: impl FnOnce() -> &'static ClassTiming) -> HoldTimer {
        if sample_this_one() {
            HoldTimer::sampled(stats)
        } else {
            HoldTimer(None)
        }
    }

    #[cold]
    #[inline(never)]
    fn sampled(stats: impl FnOnce() -> &'static ClassTiming) -> HoldTimer {
        HoldTimer::running(stats(), Instant::now(), HOLD_SAMPLE_EVERY)
    }

    /// Whether this guard's hold is being timed.
    #[cfg(test)]
    pub(crate) fn is_running(&self) -> bool {
        self.0.is_some()
    }

    /// Records the hold so far and stops the timer (condvar wait entry);
    /// returns what [`HoldTimer::resume`] needs after the wait.
    pub(crate) fn pause(&mut self) -> Option<(&'static ClassTiming, u64)> {
        let running = self.0.take()?;
        record_hold(running);
        Some((running.0, running.2))
    }

    /// Restarts a paused timer (condvar wait exit). The hold on either
    /// side of the wait is recorded as two samples; the parked time in
    /// between is billed to neither.
    #[inline]
    pub(crate) fn resume(paused: Option<(&'static ClassTiming, u64)>) -> HoldTimer {
        HoldTimer(paused.map(|(timing, weight)| (timing, Instant::now(), weight)))
    }
}

impl Drop for HoldTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(running) = self.0.take() {
            record_hold(running);
        }
    }
}

#[cold]
#[inline(never)]
fn record_hold((timing, started, weight): Running) {
    timing.hold.record(nanos(started.elapsed()), weight);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_totals() {
        let h = AtomicHist::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v, 1);
        }
        h.record(10, 64);
        let d = h.data();
        assert_eq!(d.count, 5 + 64);
        assert_eq!(d.sum, 1006 + 640);
        assert_eq!(d.buckets.len(), N_TIMING_BUCKETS);
        assert_eq!(d.buckets[0], 1); // the 0 sample
        assert_eq!(d.buckets[bucket_index(10)], 64);
        assert_eq!(d.buckets.iter().sum::<u64>(), 5 + 64);
    }

    #[test]
    fn sampler_picks_exactly_one_per_block() {
        std::thread::spawn(|| {
            let mut picks = Vec::new();
            for block in 0..100 {
                let hits: Vec<u64> = (0..HOLD_SAMPLE_EVERY)
                    .filter(|_| sample_this_one())
                    .collect();
                assert_eq!(hits.len(), 1, "block {block}");
                picks.push(hits[0]);
            }
            // The position moves from block to block.
            picks.sort_unstable();
            picks.dedup();
            assert!(picks.len() > 10, "{picks:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn class_timing_resolves_one_slot_per_class() {
        let a = class_timing("ut_timing_slot") as *const ClassTiming;
        let b = class_timing("ut_timing_slot") as *const ClassTiming;
        assert_eq!(a, b);
        assert!(lock_timing().iter().any(|t| t.class == "ut_timing_slot"));
    }
}
