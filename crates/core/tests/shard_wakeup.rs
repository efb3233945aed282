//! Cross-shard §5.6 semantics: suspended sends and persistent broadcasts
//! must wake across shard boundaries.
//!
//! There is no node-wide critical section to wake under: the coordinator
//! computes a wake lock-set (the ancestors of the changed space, plus
//! everything reachable from them) and sweeps suspended queues in
//! ascending-SpaceId order. These tests pin
//! the observable contract: a `make_visible` in one space wakes suspended
//! sends parked in *other* spaces (overlapping scopes, transitive
//! ancestors), and a persistent broadcast registered in an ancestor
//! catches up with actors that arrive later in a nested space — exactly
//! once each. The file also pins the per-space E12 index hit/miss
//! accounting that `Obs::snapshot()` exports.

use actorspace_atoms::path;
use actorspace_core::{
    obs::names,
    policy::{ManagerPolicy, UnmatchedPolicy},
    ActorId, Delivery, Disposition, ShardedRegistry,
};
use actorspace_pattern::pattern;

fn policy(unmatched: UnmatchedPolicy) -> ManagerPolicy {
    ManagerPolicy {
        unmatched_send: unmatched,
        unmatched_broadcast: unmatched,
        selection_seed: Some(7),
        ..ManagerPolicy::default()
    }
}

/// The `(recipient, message)` pairs of a delivery buffer.
fn pairs(out: &[Delivery<&'static str>]) -> Vec<(ActorId, &'static str)> {
    out.iter().map(|d| (d.to, d.msg)).collect()
}

/// A send suspended in a *parent* space is woken by a `make_visible` in a
/// *nested* space — the wake crosses from the child's shard into the
/// ancestor's.
#[test]
fn make_visible_in_child_wakes_send_suspended_in_parent() {
    let r: ShardedRegistry<&str> = ShardedRegistry::new(policy(UnmatchedPolicy::Suspend));
    let mut out = Vec::new();

    let parent = r.create_space(None);
    let child = r.create_space(None);
    r.make_visible(child.into(), vec![path("c")], parent, None, &mut out)
        .unwrap();

    // No member of `child` matches yet: the send parks in `parent`.
    let d = r
        .send(&pattern("c/worker"), parent, "job", &mut out)
        .unwrap();
    assert_eq!(d, Disposition::Suspended);
    assert_eq!(r.space_info(parent).unwrap().pending_messages, 1);
    assert!(out.is_empty());

    // The arrival happens in `child`'s shard; the suspended queue lives in
    // `parent`'s. The wake lock-set must span both.
    let a = r.create_actor(child, None).unwrap();
    r.make_visible(a.into(), vec![path("worker")], child, None, &mut out)
        .unwrap();

    assert_eq!(pairs(&out).as_slice(), &[(a, "job")]);
    assert_eq!(r.space_info(parent).unwrap().pending_messages, 0);
}

/// The wake walks *transitive* ancestors: a change three shards deep
/// re-resolves a send suspended at the top of the chain.
#[test]
fn wake_traverses_transitive_ancestors_across_shards() {
    let r: ShardedRegistry<&str> = ShardedRegistry::new(policy(UnmatchedPolicy::Suspend));
    let mut out = Vec::new();

    let top = r.create_space(None);
    let mid = r.create_space(None);
    let leaf = r.create_space(None);
    r.make_visible(mid.into(), vec![path("m")], top, None, &mut out)
        .unwrap();
    r.make_visible(leaf.into(), vec![path("l")], mid, None, &mut out)
        .unwrap();

    let d = r.send(&pattern("m/l/**"), top, "deep", &mut out).unwrap();
    assert_eq!(d, Disposition::Suspended);

    let a = r.create_actor(leaf, None).unwrap();
    r.make_visible(a.into(), vec![path("fib")], leaf, None, &mut out)
        .unwrap();

    assert_eq!(pairs(&out).as_slice(), &[(a, "deep")]);
    assert_eq!(r.space_info(top).unwrap().pending_messages, 0);
}

/// Two scopes overlap on one space: a single arrival there wakes sends
/// suspended in *both* containers, each delivered once.
#[test]
fn one_arrival_wakes_overlapping_scopes() {
    let r: ShardedRegistry<&str> = ShardedRegistry::new(policy(UnmatchedPolicy::Suspend));
    let mut out = Vec::new();

    let left = r.create_space(None);
    let right = r.create_space(None);
    let hub = r.create_space(None);
    r.make_visible(hub.into(), vec![path("hub")], left, None, &mut out)
        .unwrap();
    r.make_visible(hub.into(), vec![path("hub")], right, None, &mut out)
        .unwrap();

    assert_eq!(
        r.send(&pattern("hub/w"), left, "from-left", &mut out)
            .unwrap(),
        Disposition::Suspended
    );
    assert_eq!(
        r.send(&pattern("hub/w"), right, "from-right", &mut out)
            .unwrap(),
        Disposition::Suspended
    );

    let a = r.create_actor(hub, None).unwrap();
    r.make_visible(a.into(), vec![path("w")], hub, None, &mut out)
        .unwrap();

    let mut got = pairs(&out);
    got.sort();
    assert_eq!(got, vec![(a, "from-left"), (a, "from-right")]);
    assert_eq!(r.space_info(left).unwrap().pending_messages, 0);
    assert_eq!(r.space_info(right).unwrap().pending_messages, 0);
}

/// Persistent broadcast registered in an ancestor shard catches up with
/// actors arriving later in a nested shard — exactly once per actor, even
/// through visibility churn (§5.6 "persistent" mode).
#[test]
fn persistent_broadcast_catches_up_across_shards() {
    let r: ShardedRegistry<&str> = ShardedRegistry::new(policy(UnmatchedPolicy::Persistent));
    let mut out = Vec::new();

    let top = r.create_space(None);
    let nest = r.create_space(None);
    r.make_visible(nest.into(), vec![path("n")], top, None, &mut out)
        .unwrap();

    let d = r.broadcast(&pattern("n/*"), top, "memo", &mut out).unwrap();
    assert_eq!(d, Disposition::Persistent(0));
    assert_eq!(r.space_info(top).unwrap().persistent_broadcasts, 1);

    // First arrival in the nested shard: delivered on arrival.
    let a = r.create_actor(nest, None).unwrap();
    r.make_visible(a.into(), vec![path("w")], nest, None, &mut out)
        .unwrap();
    assert_eq!(pairs(&out).as_slice(), &[(a, "memo")]);

    // Churn: leaving and re-arriving must not redeliver.
    r.make_invisible(a.into(), nest, None).unwrap();
    r.make_visible(a.into(), vec![path("w")], nest, None, &mut out)
        .unwrap();
    assert_eq!(out.len(), 1);

    // A second, later arrival still catches up.
    let b = r.create_actor(nest, None).unwrap();
    r.make_visible(b.into(), vec![path("v")], nest, None, &mut out)
        .unwrap();
    assert_eq!(pairs(&out).as_slice(), &[(a, "memo"), (b, "memo")]);

    // Cancelling clears the table; a third arrival gets nothing.
    assert_eq!(r.cancel_persistent(top, None).unwrap(), 1);
    let c = r.create_actor(nest, None).unwrap();
    r.make_visible(c.into(), vec![path("w")], nest, None, &mut out)
        .unwrap();
    assert_eq!(out.len(), 2);
}

/// E12 exact-prefix index accounting, per space, over a known lookup
/// sequence. Literal patterns consult the index (hit when non-empty, miss
/// when empty); wildcard patterns never touch the counters.
#[test]
fn index_hit_miss_counters_follow_known_sequence() {
    // Discard policy so misses don't park state that later ops would wake
    // (wakes would re-resolve and perturb the counts under test).
    let r: ShardedRegistry<&str> = ShardedRegistry::new(policy(UnmatchedPolicy::Discard));
    let mut out = Vec::new();

    let s1 = r.create_space(None);
    let s2 = r.create_space(None);
    let a = r.create_actor(s1, None).unwrap();
    r.make_visible(a.into(), vec![path("w")], s1, None, &mut out)
        .unwrap();

    // Known sequence: literal hit, literal miss, wildcard (uncounted),
    // literal miss in the other space, literal broadcast hit.
    assert_eq!(
        r.send(&pattern("w"), s1, "1", &mut out).unwrap(),
        Disposition::Delivered(1)
    ); // s1 hits = 1
    assert_eq!(
        r.send(&pattern("absent"), s1, "2", &mut out).unwrap(),
        Disposition::Discarded
    ); // s1 misses = 1
    assert_eq!(
        r.send(&pattern("*"), s1, "3", &mut out).unwrap(),
        Disposition::Delivered(1)
    ); // wildcard: no index traffic
    assert_eq!(
        r.send(&pattern("w"), s2, "4", &mut out).unwrap(),
        Disposition::Discarded
    ); // s2 misses = 1
    assert_eq!(
        r.broadcast(&pattern("w"), s1, "5", &mut out).unwrap(),
        Disposition::Delivered(1)
    ); // s1 hits = 2

    let snap = r.obs().snapshot();
    assert_eq!(
        snap.counter_for_space(names::CORE_INDEX_HITS, 0, s1.0),
        Some(2)
    );
    assert_eq!(
        snap.counter_for_space(names::CORE_INDEX_MISSES, 0, s1.0),
        Some(1)
    );
    // Counters are pre-registered per shard, so an untouched one reads 0.
    assert_eq!(
        snap.counter_for_space(names::CORE_INDEX_HITS, 0, s2.0),
        Some(0)
    );
    assert_eq!(
        snap.counter_for_space(names::CORE_INDEX_MISSES, 0, s2.0),
        Some(1)
    );
    assert_eq!(
        snap.counter_for_space(names::CORE_SPACE_SENDS, 0, s1.0),
        Some(3)
    );
    assert_eq!(
        snap.counter_for_space(names::CORE_SPACE_SENDS, 0, s2.0),
        Some(1)
    );
    assert_eq!(
        snap.counter_for_space(names::CORE_SPACE_BROADCASTS, 0, s1.0),
        Some(1)
    );

    // The per-space label survives into the JSON export.
    let json = snap.to_json();
    assert!(
        json.contains(&format!("\"space\":{}", s1.0)),
        "snapshot JSON lacks per-space label: {json}"
    );
}
