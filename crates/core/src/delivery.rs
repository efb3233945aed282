//! The communication primitives: `send` and `broadcast` (§5.3), plus the
//! suspended-message machinery of §5.6.
//!
//! * `send(pattern@space, msg)` — "a single target actor is
//!   non-deterministically chosen out of the group of potential receivers",
//!   giving automatic load balancing over replicated services.
//! * `broadcast(pattern@space, msg)` — "all of the actors whose attributes
//!   match the pattern receive the message."
//!
//! When a pattern matches nothing, the space's manager policy decides:
//! suspend until a matching actor appears (the paper's default), discard,
//! error, or — for broadcasts — persist with exactly-once delivery to every
//! future matching actor.
//!
//! The coordinator decides each message's fate under its locks and carries
//! out none of it there: every delivery it decides is pushed as an owned
//! [`Delivery`] into a buffer the caller passes in, and the caller hands
//! those to its transports once the call has returned and every lock has
//! dropped (§7.2–7.3: the coordinator decides, transport objects carry).
//! Ordering stays a runtime concern (deliberately unspecified for
//! broadcasts, §5.3). The operations live on
//! [`ShardedRegistry`](crate::ShardedRegistry); this module holds the
//! types they hand back.

use std::sync::Arc;

use actorspace_obs::{names, Counter, Histogram, Obs, TraceId};
use actorspace_pattern::Pattern;

use crate::ids::{ActorId, SpaceId};
use crate::space::DeliveryKind;

/// One delivery the coordinator decided: `msg` goes to `to`, chosen by the
/// pattern resolution in `route`. The runtime enqueues it into a mailbox
/// or hands it to an uplink; tests read the buffer directly. The route lets
/// distribution layers re-resolve a message whose recipient has since
/// become unreachable.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// The chosen recipient.
    pub to: ActorId,
    /// The payload.
    pub msg: M,
    /// The resolution that chose `to`.
    pub route: Route,
}

/// What became of a send/broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Delivered immediately to this many recipients (1 for `send`).
    Delivered(usize),
    /// No match; suspended until a matching actor appears (§5.6).
    Suspended,
    /// No match; dropped per policy.
    Discarded,
    /// Registered as a persistent broadcast; delivered immediately to this
    /// many current matches, and exactly once to each future match.
    Persistent(usize),
}

impl Disposition {
    /// Recipients reached immediately.
    pub fn delivered_now(&self) -> usize {
        match self {
            Disposition::Delivered(n) | Disposition::Persistent(n) => *n,
            _ => 0,
        }
    }
}

/// The pattern resolution that produced a delivery.
///
/// Every [`Delivery`] carries the originating pattern and space of the
/// `send`/`broadcast` that produced it. A
/// distribution layer can use it to *re-resolve* the message when the chosen
/// recipient turns out to be unreachable — the failover path for node
/// crashes: pattern-addressed messages are retargetable by construction,
/// exactly because §5.3 never promised a particular recipient.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The destination pattern of the originating communication.
    pub pattern: Pattern,
    /// The space the pattern was resolved against.
    pub space: SpaceId,
    /// Send (re-resolvable to one new recipient) or broadcast (not
    /// re-resolvable: the surviving matches already have their copies).
    pub kind: DeliveryKind,
    /// Lifecycle trace of the originating communication
    /// ([`TraceId::NONE`] when unsampled). Rides with the message through
    /// routing, suspension, and failover so every later stage lands in the
    /// same trace.
    pub trace: TraceId,
}

/// Pre-resolved metric handles for the delivery hot paths, so sends touch
/// only relaxed atomics, never the registry mutex inside `Obs`.
pub(crate) struct CoreMetrics {
    pub sends: Arc<Counter>,
    pub broadcasts: Arc<Counter>,
    pub matched: Arc<Counter>,
    pub suspended: Arc<Counter>,
    pub woken: Arc<Counter>,
    pub discarded: Arc<Counter>,
    pub match_ns: Arc<Histogram>,
    pub dwell_ns: Arc<Histogram>,
}

impl CoreMetrics {
    pub(crate) fn resolve(obs: &Obs, node: u16) -> CoreMetrics {
        CoreMetrics {
            sends: obs.metrics.counter(names::CORE_SENDS, node),
            broadcasts: obs.metrics.counter(names::CORE_BROADCASTS, node),
            matched: obs.metrics.counter(names::CORE_MATCHED, node),
            suspended: obs.metrics.counter(names::CORE_SUSPENDED, node),
            woken: obs.metrics.counter(names::CORE_WOKEN, node),
            discarded: obs.metrics.counter(names::CORE_DISCARDED, node),
            match_ns: obs.metrics.histogram(names::CORE_MATCH_NS, node),
            dwell_ns: obs.metrics.histogram(names::CORE_DWELL_NS, node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::policy::{ManagerPolicy, SelectionPolicy, UnmatchedPolicy};
    use crate::ShardedRegistry;
    use actorspace_atoms::path;
    use actorspace_pattern::pattern;

    type Reg = ShardedRegistry<&'static str>;

    fn reg() -> Reg {
        let p = ManagerPolicy {
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    fn reg_with(unmatched: UnmatchedPolicy) -> Reg {
        let p = ManagerPolicy {
            unmatched_send: unmatched,
            unmatched_broadcast: unmatched,
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    /// Drains the delivery buffer into `(recipient, message)` pairs.
    fn take(out: &mut Vec<Delivery<&'static str>>) -> Vec<(ActorId, &'static str)> {
        out.drain(..).map(|d| (d.to, d.msg)).collect()
    }

    fn setup_workers(r: &Reg, n: usize) -> (SpaceId, Vec<ActorId>) {
        let s = r.create_space(None);
        let mut workers = Vec::new();
        let mut k = Vec::new();
        for _ in 0..n {
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path("worker")], s, None, &mut k)
                .unwrap();
            workers.push(a);
        }
        (s, workers)
    }

    #[test]
    fn send_reaches_exactly_one_matching_actor() {
        let r = reg();
        let (s, workers) = setup_workers(&r, 4);
        let mut out = Vec::new();
        let d = r.send(&pattern("worker"), s, "job", &mut out).unwrap();
        assert_eq!(d, Disposition::Delivered(1));
        let deliveries = take(&mut out);
        assert_eq!(deliveries.len(), 1);
        assert!(workers.contains(&deliveries[0].0));
        assert_eq!(deliveries[0].1, "job");
    }

    #[test]
    fn send_balances_load_across_replicas() {
        // §5.3: "the load may be balanced automatically by an
        // implementation, and none of the clients need to know the exact
        // number of potential receivers."
        let r = reg();
        let (s, workers) = setup_workers(&r, 4);
        let mut counts: std::collections::HashMap<ActorId, u32> = Default::default();
        for _ in 0..400 {
            let mut out = Vec::new();
            r.send(&pattern("worker"), s, "j", &mut out).unwrap();
            for (a, _) in take(&mut out) {
                *counts.entry(a).or_insert(0) += 1;
            }
        }
        assert_eq!(
            counts.len(),
            workers.len(),
            "every replica should be exercised"
        );
        for (_, c) in counts {
            assert!((40..200).contains(&c), "grossly unbalanced: {c}");
        }
    }

    #[test]
    fn broadcast_reaches_all_matching_actors() {
        let r = reg();
        let (s, workers) = setup_workers(&r, 8);
        let mut out = Vec::new();
        let d = r
            .broadcast(&pattern("worker"), s, "bound=17", &mut out)
            .unwrap();
        assert_eq!(d, Disposition::Delivered(8));
        let mut who: Vec<ActorId> = take(&mut out).into_iter().map(|(a, _)| a).collect();
        who.sort_unstable();
        let mut want = workers.clone();
        want.sort_unstable();
        assert_eq!(who, want);
    }

    #[test]
    fn broadcast_respects_pattern() {
        let r = reg();
        let s = r.create_space(None);
        let mut k = Vec::new();
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("srv/fib")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("cli/fib")], s, None, &mut k)
            .unwrap();
        let mut out = Vec::new();
        r.broadcast(&pattern("srv/**"), s, "x", &mut out).unwrap();
        assert_eq!(take(&mut out), vec![(a, "x")]);
    }

    #[test]
    fn suspend_policy_holds_message_until_match_appears() {
        // §5.6: "send and broadcast messages are suspended until at least
        // one actor arrives whose attribute matches the pattern."
        let r = reg(); // default = Suspend
        let s = r.create_space(None);
        let mut out = Vec::new();
        let d = r
            .send(&pattern("late/worker"), s, "early-job", &mut out)
            .unwrap();
        assert_eq!(d, Disposition::Suspended);
        assert_eq!(out.len(), 0);
        assert_eq!(r.space_info(s).unwrap().pending_messages, 1);

        // The matching actor arrives; the suspended message is released.
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("late/worker")], s, None, &mut out)
            .unwrap();
        assert_eq!(take(&mut out), vec![(a, "early-job")]);
        assert_eq!(r.space_info(s).unwrap().pending_messages, 0);
    }

    #[test]
    fn suspended_broadcast_wakes_to_all_present_matches() {
        let r = reg();
        let s = r.create_space(None);
        let mut out = Vec::new();
        r.broadcast(&pattern("w/*"), s, "b", &mut out).unwrap();
        assert_eq!(out.len(), 0);
        // Two actors arrive before the wake trigger... the first
        // make_visible wakes the broadcast with only one present.
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("w/1")], s, None, &mut out)
            .unwrap();
        assert_eq!(take(&mut out), vec![(a, "b")]);
        // Later arrivals do NOT receive the already-released broadcast.
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(b.into(), vec![path("w/2")], s, None, &mut out)
            .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn attribute_change_can_wake_suspended_message() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("idle")], s, None, &mut k)
            .unwrap();
        let mut out = Vec::new();
        r.send(&pattern("ready"), s, "m", &mut out).unwrap();
        assert_eq!(out.len(), 0);
        r.change_attributes(a.into(), vec![path("ready")], s, None, &mut out)
            .unwrap();
        assert_eq!(take(&mut out), vec![(a, "m")]);
    }

    #[test]
    fn discard_policy_drops() {
        let r = reg_with(UnmatchedPolicy::Discard);
        let s = r.create_space(None);
        let mut out = Vec::new();
        assert_eq!(
            r.send(&pattern("none"), s, "x", &mut out).unwrap(),
            Disposition::Discarded
        );
        assert_eq!(
            r.broadcast(&pattern("none"), s, "x", &mut out).unwrap(),
            Disposition::Discarded
        );
        assert_eq!(out.len(), 0);
        assert_eq!(r.space_info(s).unwrap().pending_messages, 0);
    }

    #[test]
    fn error_policy_reports_no_match() {
        let r = reg_with(UnmatchedPolicy::Error);
        let s = r.create_space(None);
        let mut out = Vec::new();
        assert!(matches!(
            r.send(&pattern("none"), s, "x", &mut out),
            Err(Error::NoMatch { .. })
        ));
        assert!(matches!(
            r.broadcast(&pattern("none"), s, "x", &mut out),
            Err(Error::NoMatch { .. })
        ));
    }

    #[test]
    fn persistent_broadcast_delivers_exactly_once_to_every_future_match() {
        // §5.6: "broadcasting could be persistent, so that any actor
        // (existing or created in the future) whose attributes match the
        // pattern will receive the broadcast message exactly once."
        let r = reg_with(UnmatchedPolicy::Persistent);
        let s = r.create_space(None);
        let mut k = Vec::new();
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut k)
            .unwrap();

        let mut out = Vec::new();
        let d = r
            .broadcast(&pattern("node"), s, "protocol-v2", &mut out)
            .unwrap();
        assert_eq!(d, Disposition::Persistent(1));
        assert_eq!(take(&mut out), vec![(a, "protocol-v2")]);

        // A future arrival gets it exactly once.
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(b.into(), vec![path("node")], s, None, &mut out)
            .unwrap();
        assert_eq!(take(&mut out), vec![(b, "protocol-v2")]);

        // Repeated attribute churn does not re-deliver.
        r.change_attributes(b.into(), vec![path("node")], s, None, &mut out)
            .unwrap();
        r.change_attributes(a.into(), vec![path("node")], s, None, &mut out)
            .unwrap();
        assert_eq!(out.len(), 0);

        // An actor leaving and re-arriving still does not get a duplicate.
        r.make_invisible(a.into(), s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut out)
            .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn cancel_persistent_stops_future_deliveries() {
        let r = reg_with(UnmatchedPolicy::Persistent);
        let s = r.create_space(None);
        let mut out = Vec::new();
        r.broadcast(&pattern("node"), s, "hello", &mut out).unwrap();
        assert_eq!(r.cancel_persistent(s, None).unwrap(), 1);
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut out)
            .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn wake_propagates_to_ancestor_spaces() {
        // A message suspended in the OUTER space must wake when a matching
        // actor appears in a nested space (the join makes it matchable).
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let mut k = Vec::new();
        r.make_visible(inner.into(), vec![path("pool")], outer, None, &mut k)
            .unwrap();

        let mut out = Vec::new();
        r.send(&pattern("pool/worker"), outer, "job", &mut out)
            .unwrap();
        assert_eq!(out.len(), 0);

        let a = r.create_actor(inner, None).unwrap();
        r.make_visible(a.into(), vec![path("worker")], inner, None, &mut out)
            .unwrap();
        assert_eq!(take(&mut out), vec![(a, "job")]);
    }

    #[test]
    fn round_robin_selection_policy() {
        let p = ManagerPolicy {
            selection: SelectionPolicy::RoundRobin,
            ..Default::default()
        };
        let r: ShardedRegistry<&'static str> = ShardedRegistry::new(p);
        let (s, mut workers) = {
            let s = r.create_space(None);
            let mut v = Vec::new();
            let mut k = Vec::new();
            for _ in 0..3 {
                let a = r.create_actor(s, None).unwrap();
                r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
                    .unwrap();
                v.push(a);
            }
            (s, v)
        };
        workers.sort_unstable();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let mut out = Vec::new();
            r.send(&pattern("w"), s, "j", &mut out).unwrap();
            picks.push(take(&mut out)[0].0);
        }
        assert_eq!(picks[0..3], workers[..]);
        assert_eq!(picks[3..6], workers[..]);
    }

    #[test]
    fn custom_manager_arbitration_wins() {
        use crate::manager::Manager;
        struct AlwaysMax;
        impl Manager for AlwaysMax {
            fn choose(&mut self, c: &[ActorId]) -> Option<ActorId> {
                c.iter().max().copied()
            }
        }
        let r = reg();
        let (s, workers) = setup_workers(&r, 5);
        r.set_space_manager(s, Box::new(AlwaysMax), None).unwrap();
        let top = *workers.iter().max().unwrap();
        for _ in 0..10 {
            let mut out = Vec::new();
            r.send(&pattern("worker"), s, "j", &mut out).unwrap();
            assert_eq!(take(&mut out)[0].0, top);
        }
    }

    #[test]
    fn send_to_missing_space_errors() {
        let r = reg();
        let mut out = Vec::new();
        assert!(matches!(
            r.send(&pattern("x"), SpaceId(404), "m", &mut out),
            Err(Error::NoSuchSpace(_))
        ));
    }
}
