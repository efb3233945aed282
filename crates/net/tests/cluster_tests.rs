//! End-to-end cluster tests: cross-node pattern communication, visibility
//! coherence, ordering protocols, remote forwarding, and fault injection.

use std::time::Duration;

use actorspace_atoms::path;
use actorspace_net::{Cluster, ClusterConfig, LinkConfig, OrderingProtocol};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, Value};

const TIMEOUT: Duration = Duration::from_secs(20);

fn cluster(nodes: usize, protocol: OrderingProtocol) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        protocol,
        ..ClusterConfig::default()
    })
}

#[test]
fn cross_node_pattern_send() {
    let c = cluster(2, OrderingProtocol::Sequencer);
    // Worker lives on node 1; the client sends from node 0.
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    let worker = c.node(1).spawn(from_fn(move |ctx, msg| {
        let n = msg.body.as_int().unwrap_or(0);
        ctx.send_addr(inbox, Value::int(n + 100));
    }));
    c.node(1)
        .make_visible(worker, &path("worker"), space, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT), "visibility must replicate");

    // Node 0 resolves against its replica and forwards to node 1.
    c.node(0)
        .send_pattern(&pattern("worker"), space, Value::int(1))
        .unwrap();
    let reply = rx.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(reply.body, Value::int(101));
    c.shutdown();
}

/// `depth` lists around a unit value.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Unit, |v, _| Value::list([v]))
}

#[test]
fn too_deep_a_body_is_refused_by_the_sending_node() {
    use actorspace_runtime::codec::MAX_NESTING;
    let c = cluster(2, OrderingProtocol::Sequencer);
    let (inbox, rx) = c.node(0).system().inbox();
    let worker = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    // At the limit the body crosses and comes back intact.
    assert!(c.node(0).send_to(worker, nested(MAX_NESTING)));
    let reply = rx.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(reply.body, nested(MAX_NESTING));
    // One level deeper the receiver could not decode it, so the sender
    // gets `false` and a dead letter instead of a silent drop over there.
    assert!(!c.node(0).send_to(worker, nested(MAX_NESTING + 1)));
    assert_eq!(c.node(0).stats().dead_letters, 1);
    assert_eq!(c.node(0).stats().forwarded, 1);
    assert_eq!(c.node(1).stats().decode_failures, 0);
    c.shutdown();
}

#[test]
fn visibility_is_coherent_across_all_nodes() {
    let c = cluster(4, OrderingProtocol::Sequencer);
    let space = c.node(0).create_space(None);
    // Each node contributes one worker.
    let mut ids = Vec::new();
    for i in 0..4 {
        let w = c.node(i).spawn(from_fn(|_, _| {}));
        c.node(i)
            .make_visible(w, &path(&format!("w/n{i}")), space, None)
            .unwrap();
        ids.push(w);
    }
    assert!(c.await_coherence(TIMEOUT));
    // Every node resolves the same set.
    ids.sort_unstable();
    for i in 0..4 {
        let mut got = c.node(i).system().resolve(&pattern("w/*"), space).unwrap();
        got.sort_unstable();
        assert_eq!(got, ids, "node {i} replica diverged");
    }
    c.shutdown();
}

#[test]
fn token_bus_protocol_works_end_to_end() {
    let c = cluster(3, OrderingProtocol::TokenBus);
    let (inbox, rx) = c.node(2).system().inbox();
    let space = c.node(0).create_space(None);
    // The token bus orders a node's submissions when that node holds the
    // token, not causally across nodes: without this wait node 1's
    // `make_visible` can be ordered before the space exists and fail on
    // every replica.
    assert!(c.await_coherence(TIMEOUT));
    let worker = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1)
        .make_visible(worker, &path("svc"), space, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT));
    c.node(2)
        .send_pattern(&pattern("svc"), space, Value::int(9))
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(9));
    c.shutdown();
}

#[test]
fn suspended_send_absorbs_replication_window() {
    // §5.6 suspension bridges the gap between sending and the visibility
    // event applying: send FIRST, make visible after.
    let c = cluster(2, OrderingProtocol::Sequencer);
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    assert!(
        c.await_coherence(TIMEOUT),
        "space creation must replicate first"
    );
    c.node(0)
        .send_pattern(&pattern("late/svc"), space, Value::int(5))
        .unwrap();

    let worker = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1)
        .make_visible(worker, &path("late/svc"), space, None)
        .unwrap();
    // When the visibility event applies on node 0, the suspended message
    // wakes and forwards to node 1.
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(5));
    c.shutdown();
}

#[test]
fn broadcast_reaches_actors_on_every_node() {
    let c = cluster(3, OrderingProtocol::Sequencer);
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    for i in 0..3 {
        let node = i as i64;
        let w = c.node(i).spawn(from_fn(move |ctx, msg| {
            ctx.send_addr(inbox, Value::list([Value::int(node), msg.body]));
        }));
        c.node(i)
            .make_visible(w, &path("member"), space, None)
            .unwrap();
    }
    assert!(c.await_coherence(TIMEOUT));
    c.node(1)
        .broadcast(&pattern("member"), space, Value::str("hi"))
        .unwrap();
    let mut nodes_heard = std::collections::HashSet::new();
    for _ in 0..3 {
        let m = rx.recv_timeout(TIMEOUT).unwrap();
        nodes_heard.insert(m.body.as_list().unwrap()[0].as_int().unwrap());
    }
    assert_eq!(
        nodes_heard.len(),
        3,
        "every node's member must receive the broadcast"
    );
    c.shutdown();
}

#[test]
fn lossy_data_links_still_deliver_exactly_once() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        data_link: LinkConfig::lossy(0.3, 0.2, 77),
        retx_every: Duration::from_millis(5),
        ..ClusterConfig::default()
    });
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    let echo = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1)
        .make_visible(echo, &path("echo"), space, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT));

    let n = 50;
    for i in 0..n {
        c.node(0)
            .send_pattern(&pattern("echo"), space, Value::int(i))
            .unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..n {
        got.push(rx.recv_timeout(TIMEOUT).unwrap().body.as_int().unwrap());
    }
    got.sort_unstable();
    assert_eq!(
        got,
        (0..n).collect::<Vec<_>>(),
        "loss or duplication leaked through"
    );
    c.shutdown();
}

#[test]
fn remote_actor_creation_starts_after_global_ordering() {
    // An actor that advertises itself in on_start: the start signal fires
    // only once the creation event is ordered, so the advertisement (a bus
    // op submitted from on_start) is always ordered after the creation.
    let c = cluster(2, OrderingProtocol::Sequencer);
    let space = c.node(0).create_space(None);
    let space2 = space;
    struct Advertiser {
        space: actorspace_core::SpaceId,
    }
    impl actorspace_runtime::Behavior for Advertiser {
        fn on_start(&mut self, ctx: &mut actorspace_runtime::Ctx<'_>) {
            ctx.make_self_visible(&path("self/adv"), self.space, None)
                .unwrap();
        }
        fn receive(
            &mut self,
            ctx: &mut actorspace_runtime::Ctx<'_>,
            msg: actorspace_runtime::Message,
        ) {
            ctx.reply(msg.body);
        }
    }
    let a = c.node(1).spawn(Advertiser { space: space2 });
    assert!(c.await_quiescence(TIMEOUT));
    // Both replicas resolve it.
    for i in 0..2 {
        assert_eq!(
            c.node(i)
                .system()
                .resolve(&pattern("self/**"), space)
                .unwrap(),
            vec![a],
            "node {i}"
        );
    }
    c.shutdown();
}

#[test]
fn nested_spaces_work_across_nodes() {
    let c = cluster(2, OrderingProtocol::Sequencer);
    let outer = c.node(0).create_space(None);
    let inner = c.node(1).create_space(None);
    c.node(1)
        .make_visible(inner, &path("pool"), outer, None)
        .unwrap();
    let (inbox, rx) = c.node(0).system().inbox();
    let w = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1)
        .make_visible(w, &path("worker"), inner, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT));
    c.node(0)
        .send_pattern(&pattern("pool/worker"), outer, Value::int(3))
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(3));
    c.shutdown();
}

#[test]
fn cycle_prevention_holds_cluster_wide() {
    // Node 0 nests A in B; node 1 concurrently nests B in A. The global
    // order makes exactly one of them win; no replica ever holds a cycle.
    let c = cluster(2, OrderingProtocol::Sequencer);
    let a = c.node(0).create_space(None);
    let b = c.node(1).create_space(None);
    assert!(c.await_coherence(TIMEOUT));
    // Both submitted concurrently; application is ordered.
    let _ = c.node(0).make_visible(a, &path("a"), b, None);
    let _ = c.node(1).make_visible(b, &path("b"), a, None);
    assert!(c.await_coherence(TIMEOUT));
    // Exactly one edge applied; the other was refused as a cycle on every
    // replica identically.
    let stats: Vec<u64> = c.nodes().iter().map(|n| n.stats().apply_errors).collect();
    assert_eq!(stats[0], stats[1], "replicas must agree on refusals");
    assert_eq!(stats[0], 1, "exactly one of the two ops must be refused");
    c.shutdown();
}

#[test]
fn stats_count_forwarded_messages() {
    let c = cluster(2, OrderingProtocol::Sequencer);
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    let w = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1).make_visible(w, &path("w"), space, None).unwrap();
    assert!(c.await_coherence(TIMEOUT));
    for i in 0..10 {
        c.node(0)
            .send_pattern(&pattern("w"), space, Value::int(i))
            .unwrap();
    }
    for _ in 0..10 {
        rx.recv_timeout(TIMEOUT).unwrap();
    }
    // Node 0 forwarded 10 requests to node 1; node 1 forwarded 10 replies.
    assert!(c.node(0).stats().forwarded >= 10);
    assert!(c.node(1).stats().forwarded >= 10);
    c.shutdown();
}
