//! Observability for the ActorSpace runtime: a unified, lock-light
//! [`MetricsRegistry`] (counters / gauges / log2 histograms, labeled by
//! node) and end-to-end message-lifecycle [tracing](crate::trace) with a
//! bounded event ring, plus a [dead-letter ring](crate::dead_letter).
//!
//! One [`Obs`] instance is shared by every layer of a node — or by every
//! node of an in-process cluster — so counters survive node restarts and
//! timestamps from different nodes share a single monotonic epoch. Hot
//! paths hold pre-resolved `Arc` handles; the registry mutex is only
//! touched when resolving names.

#![deny(unsafe_code)]

pub mod cluster;
pub mod dead_letter;
pub mod delta;
pub mod metrics;
pub mod trace;

use std::sync::Arc;

pub use cluster::{ClusterView, PeerStatus};
pub use dead_letter::{DeadLetter, DeadLetterReason, DeadLetterRing};
pub use delta::{DeltaEntry, DeltaValue, SnapshotDelta};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry,
    Snapshot,
};
pub use trace::{Stage, TraceEvent, TraceId, Tracer};

/// Canonical metric names registered by the in-tree layers, labeled by
/// node id (0 for standalone systems). See the README's Observability
/// section for the full table.
pub mod names {
    /// Pattern-directed sends submitted (counter).
    pub const CORE_SENDS: &str = "core.sends";
    /// Pattern-directed broadcasts submitted (counter).
    pub const CORE_BROADCASTS: &str = "core.broadcasts";
    /// Candidate deliveries produced by matching (counter; a broadcast to
    /// n actors counts n).
    pub const CORE_MATCHED: &str = "core.matched";
    /// Sends/broadcasts parked on no match, §5.6 (counter).
    pub const CORE_SUSPENDED: &str = "core.suspended";
    /// Suspended messages woken by a visibility change (counter).
    pub const CORE_WOKEN: &str = "core.woken";
    /// Unmatched sends dropped by a discarding policy (counter).
    pub const CORE_DISCARDED: &str = "core.discarded";
    /// Pattern-resolution latency of sampled sends, nanoseconds (histogram).
    pub const CORE_MATCH_NS: &str = "core.match_ns";
    /// Suspension dwell time of sampled sends, nanoseconds (histogram).
    pub const CORE_DWELL_NS: &str = "core.suspension_dwell_ns";
    /// Sends resolved against a space, labeled per space (counter; the
    /// scope space of the pattern, not the recipient's direct container).
    pub const CORE_SPACE_SENDS: &str = "core.space.sends";
    /// Broadcasts resolved against a space, labeled per space (counter).
    pub const CORE_SPACE_BROADCASTS: &str = "core.space.broadcasts";
    /// Literal-pattern resolutions that found at least one actor, labeled
    /// per scope space (counter; E12).
    pub const CORE_INDEX_HITS: &str = "core.index.hits";
    /// Literal-pattern resolutions that found no actor, labeled per scope
    /// space (counter; E12).
    pub const CORE_INDEX_MISSES: &str = "core.index.misses";
    /// Messages dropped with no recipient (counter; cumulative across
    /// node restarts).
    pub const RT_DEAD_LETTERS: &str = "runtime.dead_letters";
    /// Failure suspicions observed by the local system (counter).
    pub const RT_SUSPICIONS: &str = "runtime.suspicions";
    /// Routed messages re-resolved after a node failure (counter).
    pub const RT_FAILOVERS: &str = "runtime.failovers";
    /// Remote visibility (re-)registrations applied (counter; includes
    /// bus replay after a restart).
    pub const RT_REREGISTRATIONS: &str = "runtime.re_registrations";
    /// Envelopes accepted into local mailboxes (counter).
    pub const RT_DELIVERIES: &str = "runtime.deliveries";
    /// Envelopes forwarded to remote nodes (counter).
    pub const NET_FORWARDED: &str = "net.forwarded";
    /// Inbound wire packets that failed to decode (counter).
    pub const NET_DECODE_FAILURES: &str = "net.decode_failures";
    /// Reliable-pipe retransmissions sent (counter).
    pub const NET_RETRANSMITS: &str = "net.retransmits";
    /// Heartbeats emitted by the node's failure detector (counter).
    pub const NET_HEARTBEATS: &str = "net.heartbeats";
    /// Times this node was restarted via `restart_node` (counter).
    pub const NET_RESTARTS: &str = "net.restarts";
    /// Crash-to-redelivery reroute latency, nanoseconds (histogram,
    /// labeled by the node that performed the re-resolution).
    pub const NET_FAILOVER_REROUTE_NS: &str = "net.failover_reroute_ns";
    /// Prefix of the lock-order gauges exported when the workspace is
    /// built with `--features lockcheck`: one `lockcheck.edge.<from>-><to>`
    /// gauge per observed lock-class pair, whose value is how many
    /// acquisitions exercised that order (node label 0 — the order graph
    /// is process-global).
    pub const LOCKCHECK_EDGE_PREFIX: &str = "lockcheck.edge.";
    /// Prefix of the per-lock-class wait-time histograms exported in every
    /// build: `lock.wait.<class>` counts acquisitions that blocked and how
    /// long they queued, nanoseconds (node label 0 — the timing tables are
    /// process-global).
    pub const LOCK_WAIT_PREFIX: &str = "lock.wait.";
    /// Prefix of the per-lock-class hold-time histograms: one
    /// `lock.hold.<class>` histogram of guard lifetimes, nanoseconds —
    /// every contended acquisition's hold, plus one uncontended hold in
    /// 64 per thread counted 64 times, so counts and sums stay unbiased.
    pub const LOCK_HOLD_PREFIX: &str = "lock.hold.";
}

/// Tuning for one [`Obs`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace one in `sample_every` sends; `1` traces everything, `0`
    /// disables tracing (metrics stay on).
    pub sample_every: u64,
    /// Maximum buffered trace events before the oldest are evicted.
    pub ring_capacity: usize,
    /// Maximum dead letters kept in the last-N ring (the total counter is
    /// unbounded).
    pub dead_letter_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            sample_every: 64,
            ring_capacity: 65_536,
            dead_letter_capacity: 256,
        }
    }
}

impl ObsConfig {
    /// Trace every message (tests, examples, offline inspection).
    pub fn all() -> ObsConfig {
        ObsConfig {
            sample_every: 1,
            ..ObsConfig::default()
        }
    }

    /// Metrics only, no tracing (overhead baselines).
    pub fn off() -> ObsConfig {
        ObsConfig {
            sample_every: 0,
            ..ObsConfig::default()
        }
    }
}

/// The observability bundle shared across a node (or a whole in-process
/// cluster): metrics registry + tracer + dead-letter ring.
pub struct Obs {
    config: ObsConfig,
    /// Named, node-labeled metrics.
    pub metrics: MetricsRegistry,
    /// Message-lifecycle tracer.
    pub tracer: Tracer,
    /// Recent dead letters and their cumulative total.
    pub dead_letters: DeadLetterRing,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new(ObsConfig::default())
    }
}

impl Obs {
    /// A fresh observer with the given tuning.
    pub fn new(config: ObsConfig) -> Obs {
        Obs {
            config,
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(config.sample_every, config.ring_capacity),
            dead_letters: DeadLetterRing::new(config.dead_letter_capacity),
        }
    }

    /// `Arc`-wrapped constructor, for sharing across layers and nodes.
    pub fn shared(config: ObsConfig) -> Arc<Obs> {
        Arc::new(Obs::new(config))
    }

    /// The tuning this observer was built with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// Nanoseconds since this observer's epoch — the shared monotonic
    /// clock every `at_nanos` stamp in the system should come from.
    pub fn now_nanos(&self) -> u64 {
        self.tracer.now_nanos()
    }

    /// A point-in-time metrics report stamped with the tracer's clock,
    /// including the per-class `lock.wait.*`/`lock.hold.*` histograms
    /// and the dead-letter ring's recent contents.
    pub fn snapshot(&self) -> Snapshot {
        self.sync_lock_order();
        // Collect the timing tables before touching the (instrumented)
        // metrics mutex — same nesting discipline as `sync_lock_order`.
        let timing = actorspace_lockcheck::lock_timing();
        let mut snap = self.metrics.snapshot(self.now_nanos());
        for t in timing {
            for (prefix, data) in [
                (names::LOCK_WAIT_PREFIX, t.wait),
                (names::LOCK_HOLD_PREFIX, t.hold),
            ] {
                if data.count == 0 {
                    continue;
                }
                snap.entries.push(MetricSnapshot {
                    name: format!("{prefix}{}", t.class),
                    // The timing tables are process-global, like the
                    // order graph: node label 0 by convention.
                    node: 0,
                    space: None,
                    value: MetricValue::Histogram(HistogramSnapshot::from_buckets(
                        data.sum,
                        &data.buckets,
                    )),
                });
            }
        }
        snap.entries
            .sort_by(|a, b| (&a.name, a.node, a.space).cmp(&(&b.name, b.node, b.space)));
        snap.dead_letters = self.dead_letters.recent();
        snap
    }

    /// Folds lockcheck's observed lock-order graph into
    /// `lockcheck.edge.<from>-><to>` gauges (count of acquisitions that
    /// exercised each class-pair order), so snapshots show which lock
    /// orders a run actually took. A no-op — the branch constant-folds
    /// away — unless the workspace is built with `--features lockcheck`.
    fn sync_lock_order(&self) {
        if !actorspace_lockcheck::ENABLED {
            return;
        }
        // Collect first: `order_graph` takes lockcheck's internal graph
        // lock, and the gauge updates below take the (instrumented)
        // metrics mutex; the two must not nest.
        let edges = actorspace_lockcheck::order_graph();
        for e in edges {
            let name = format!("{}{}->{}", names::LOCKCHECK_EDGE_PREFIX, e.from, e.to);
            self.metrics
                .gauge(&name, 0)
                .set(i64::try_from(e.count).unwrap_or(i64::MAX));
        }
    }

    /// Records a dead letter: bumps the node's `runtime.dead_letters`
    /// counter, appends to the last-N ring, and terminates the trace.
    pub fn dead_letter(
        &self,
        node: u16,
        to: Option<u64>,
        trace: TraceId,
        reason: DeadLetterReason,
    ) {
        self.metrics.counter(names::RT_DEAD_LETTERS, node).inc();
        self.dead_letters.record(DeadLetter {
            at_nanos: self.tracer.now_nanos(),
            node,
            to,
            trace,
            reason,
        });
        self.tracer.record(trace, node, Stage::DeadLettered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundle_defaults() {
        let obs = Obs::default();
        assert_eq!(obs.config().sample_every, 64);
        // A fresh observer registers no metrics of its own; everything in
        // its snapshot comes from the process-global lock instrumentation
        // (`lock.wait.*` / `lock.hold.*` / `lockcheck.edge.*`).
        assert!(obs
            .snapshot()
            .entries
            .iter()
            .all(|e| e.name.starts_with("lock")));
    }

    /// `lock.hold.*` (and, under contention, `lock.wait.*`) histograms
    /// ride every snapshot — with the lockcheck feature both on and off.
    #[test]
    fn snapshot_exports_lock_timing() {
        use actorspace_lockcheck::{LockClass, Mutex, HOLD_SAMPLE_EVERY};
        // A thread of its own, so these are the only acquisitions its
        // hold sampler counts: exactly one block of 64, one weighted sample.
        std::thread::spawn(|| {
            let m = Mutex::new(LockClass::Other("obs_ut_timing"), ());
            for _ in 0..HOLD_SAMPLE_EVERY {
                drop(m.lock());
            }
        })
        .join()
        .unwrap();
        let snap = Obs::default().snapshot();
        let hold = snap
            .histogram("lock.hold.obs_ut_timing", 0)
            .expect("hold histogram exported");
        assert_eq!(hold.count, HOLD_SAMPLE_EVERY);
        // Uncontended: no wait samples, so no wait series.
        assert!(snap.histogram("lock.wait.obs_ut_timing", 0).is_none());
        let json = snap.to_json();
        assert!(json.contains("lock.hold.obs_ut_timing"));
    }

    #[test]
    fn dead_letter_helper_wires_all_three() {
        let obs = Obs::new(ObsConfig::all());
        let id = obs.tracer.begin();
        obs.dead_letter(2, Some(9), id, DeadLetterReason::StoppedActor);
        assert_eq!(obs.dead_letters.total(), 1);
        assert_eq!(obs.snapshot().counter(names::RT_DEAD_LETTERS, 2), Some(1));
        let evs = obs.tracer.events_for(id);
        assert_eq!(evs.len(), 1);
        assert!(evs[0].stage.is_terminal());
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn snapshot_exports_lock_order_edges() {
        use actorspace_lockcheck::{LockClass, Mutex};
        let outer = Mutex::new(LockClass::Other("obs_ut_outer"), ());
        let inner = Mutex::new(LockClass::Other("obs_ut_inner"), ());
        {
            let _a = outer.lock();
            let _b = inner.lock();
        }
        let snap = Obs::default().snapshot();
        let name = format!("{}obs_ut_outer->obs_ut_inner", names::LOCKCHECK_EDGE_PREFIX);
        let edge = snap
            .entries
            .iter()
            .find(|e| e.name == name)
            .expect("order edge exported as a gauge");
        assert!(matches!(edge.value, MetricValue::Gauge(n) if n >= 1));
    }

    #[test]
    fn config_presets() {
        assert_eq!(ObsConfig::all().sample_every, 1);
        assert_eq!(ObsConfig::off().sample_every, 0);
        let obs = Obs::new(ObsConfig::off());
        assert!(obs.tracer.begin().is_none());
    }
}
