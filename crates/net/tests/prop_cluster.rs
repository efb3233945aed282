//! Property tests for the cluster: replica convergence under random
//! concurrent operation storms (both ordering protocols), and exactly-once
//! delivery under random node kill/restart schedules over lossy links and
//! over zero-delay links (which deliver on the sending thread).

use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_atoms::path;
use actorspace_core::SpaceId;
use actorspace_lockcheck::{LockClass, Mutex};
use actorspace_net::{Cluster, ClusterConfig, FailureConfig, LinkConfig, OrderingProtocol};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A random visibility op executed from a random node.
#[derive(Debug, Clone)]
enum Op {
    Spawn {
        node: usize,
        attr: usize,
    },
    Invis {
        node: usize,
        actor: usize,
    },
    ChangeAttr {
        node: usize,
        actor: usize,
        attr: usize,
    },
}

fn arb_op(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, 0usize..4).prop_map(|(node, attr)| Op::Spawn { node, attr }),
        (0..nodes, 0usize..8).prop_map(|(node, actor)| Op::Invis { node, actor }),
        (0..nodes, 0usize..8, 0usize..4).prop_map(|(node, actor, attr)| Op::ChangeAttr {
            node,
            actor,
            attr
        }),
    ]
}

fn attr(i: usize) -> actorspace_atoms::Path {
    path(&format!("w/kind-{i}"))
}

fn run_storm(protocol: OrderingProtocol, ops: &[Op]) {
    let n_nodes = 3;
    let cluster = Cluster::new(ClusterConfig {
        nodes: n_nodes,
        protocol,
        // Jittered bus downlinks: arrival order differs per node, the
        // appliers must restore it.
        bus_link: LinkConfig {
            jitter: Duration::from_micros(300),
            seed: 99,
            ..LinkConfig::ideal()
        },
        ..ClusterConfig::default()
    });
    let space = cluster.node(0).create_space(None);
    assert!(cluster.await_coherence(TIMEOUT));

    let mut actors = Vec::new();
    for op in ops {
        match *op {
            Op::Spawn { node, attr: a } => {
                let id = cluster.node(node).spawn(from_fn(|_, _| {}));
                // Visibility submitted from the *owning* node.
                let _ = cluster.node(node).make_visible(id, &attr(a), space, None);
                actors.push((node, id));
            }
            Op::Invis { node, actor } => {
                if let Some(&(_, id)) = actors.get(actor) {
                    let _ = cluster.node(node % 3).make_invisible(id, space, None);
                }
                let _ = node;
            }
            Op::ChangeAttr {
                node,
                actor,
                attr: a,
            } => {
                if let Some(&(_, id)) = actors.get(actor) {
                    let _ =
                        cluster
                            .node(node % 3)
                            .change_attributes(id, vec![attr(a)], space, None);
                }
            }
        }
    }

    assert!(
        cluster.await_coherence(TIMEOUT),
        "storm must reach coherence"
    );

    // Every replica answers every query identically.
    let queries = [
        pattern("**"),
        pattern("w/*"),
        pattern("w/kind-0"),
        pattern("w/{kind-1, kind-2}"),
    ];
    for q in &queries {
        let reference = cluster.node(0).system().resolve(q, space).unwrap();
        for i in 1..n_nodes {
            let got = cluster.node(i).system().resolve(q, space).unwrap();
            assert_eq!(got, reference, "node {i} diverged on {q}");
        }
    }
    // Replicas agree on refusals too.
    let errs: Vec<u64> = cluster
        .nodes()
        .iter()
        .map(|n| n.stats().apply_errors)
        .collect();
    assert!(
        errs.windows(2).all(|w| w[0] == w[1]),
        "apply errors diverged: {errs:?}"
    );
    cluster.shutdown();
}

/// One step of a random fault schedule. Node 0 is exempt from faults: its
/// replica worker guarantees every send always has *some* live match to
/// fail over to, so no send is permanently suspended.
#[derive(Debug, Clone)]
enum FaultOp {
    Send { node: usize },
    Kill { node: usize },
    Restart { node: usize },
    Settle,
}

fn arb_fault_op(nodes: usize) -> impl Strategy<Value = FaultOp> {
    // Sends repeated for weight: mostly traffic, with faults sprinkled in.
    prop_oneof![
        (0..nodes).prop_map(|node| FaultOp::Send { node }),
        (0..nodes).prop_map(|node| FaultOp::Send { node }),
        (0..nodes).prop_map(|node| FaultOp::Send { node }),
        (1..nodes).prop_map(|node| FaultOp::Kill { node }),
        (1..nodes).prop_map(|node| FaultOp::Restart { node }),
        Just(FaultOp::Settle),
    ]
}

/// Spawns a worker on `node` that records every received payload into the
/// shared log, and advertises it under the common pattern.
fn spawn_recorder(c: &Cluster, node: usize, space: SpaceId, log: &Arc<Mutex<Vec<i64>>>) {
    let log = log.clone();
    let w = c.node(node).spawn(from_fn(move |_, msg| {
        if let Some(v) = msg.body.as_int() {
            log.lock().push(v);
        }
    }));
    let _ = c.node(node).make_visible(w, &path("fo/svc"), space, None);
}

/// Exactly-once under node faults: for any kill/restart schedule over
/// lossy links, every send issued from a live node is eventually delivered
/// to exactly one live matching actor — in-flight packets and mailbox
/// backlogs of crashed nodes are re-resolved, never lost, never
/// duplicated.
fn run_fault_storm(data_link: LinkConfig, bus_link: LinkConfig, ops: &[FaultOp]) {
    let n_nodes = 3;
    let c = Cluster::new(ClusterConfig {
        nodes: n_nodes,
        data_link,
        bus_link,
        retx_every: Duration::from_millis(5),
        failure: FailureConfig::fast(),
        ..ClusterConfig::default()
    });
    let space = c.node(0).create_space(None);
    let received = Arc::new(Mutex::new(
        LockClass::Other("test.net.cluster_log"),
        Vec::new(),
    ));
    for i in 0..n_nodes {
        spawn_recorder(&c, i, space, &received);
    }
    assert!(c.await_coherence(TIMEOUT));

    let mut sent = 0i64;
    for op in ops {
        match *op {
            FaultOp::Send { node } => {
                // Clients only talk to live nodes.
                let from = if c.node(node).is_up() { node } else { 0 };
                c.node(from)
                    .send_pattern(&pattern("fo/svc"), space, Value::int(sent))
                    .unwrap();
                sent += 1;
            }
            FaultOp::Kill { node } => {
                let _ = c.kill_node(node);
            }
            FaultOp::Restart { node } => {
                if c.restart_node(node) {
                    // The new incarnation contributes a fresh replica.
                    spawn_recorder(&c, node, space, &received);
                }
            }
            FaultOp::Settle => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    // Revive everyone so every journal can drain, then wait for delivery.
    for i in 1..n_nodes {
        if c.restart_node(i) {
            spawn_recorder(&c, i, space, &received);
        }
    }
    let deadline = Instant::now() + TIMEOUT;
    while (received.lock().len() as i64) < sent {
        assert!(
            Instant::now() < deadline,
            "only {} of {sent} sends delivered",
            received.lock().len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A duplicate would trickle in late; give it the chance to.
    std::thread::sleep(Duration::from_millis(100));
    let mut got = received.lock().clone();
    got.sort_unstable();
    assert_eq!(
        got,
        (0..sent).collect::<Vec<_>>(),
        "every send exactly once"
    );

    // Replicas still agree after the dust settles.
    assert!(c.await_coherence(TIMEOUT));
    let errs: Vec<u64> = c.nodes().iter().map(|n| n.stats().apply_errors).collect();
    assert!(
        errs.windows(2).all(|w| w[0] == w[1]),
        "apply errors diverged: {errs:?}"
    );
    c.shutdown();
}

proptest! {
    // Cluster setup is expensive; keep the case count small but the op
    // sequences meaningful.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn sequencer_replicas_converge(ops in proptest::collection::vec(arb_op(3), 1..25)) {
        run_storm(OrderingProtocol::Sequencer, &ops);
    }

    #[test]
    fn token_bus_replicas_converge(ops in proptest::collection::vec(arb_op(3), 1..25)) {
        run_storm(OrderingProtocol::TokenBus, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn sends_survive_random_kill_restart_schedules(
        ops in proptest::collection::vec(arb_fault_op(3), 1..30),
    ) {
        run_fault_storm(LinkConfig::lossy(0.15, 0.1, 4242), LinkConfig::ideal(), &ops);
    }
}

/// A fixed kill/restart schedule drawn from `seed` with
/// [`arb_fault_op`]'s weights: three sends to each kill, restart and
/// settle.
fn fault_schedule(seed: u64, len: usize) -> Vec<FaultOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..6u32) {
            0..=2 => FaultOp::Send {
                node: rng.gen_range(0..3),
            },
            3 => FaultOp::Kill {
                node: rng.gen_range(1..3),
            },
            4 => FaultOp::Restart {
                node: rng.gen_range(1..3),
            },
            _ => FaultOp::Settle,
        })
        .collect()
}

/// The fault storm over zero-delay data and bus links: every packet, ack,
/// heartbeat and bus submission is delivered on the thread that sends it,
/// so forwarding workers and clients run the destination's decode, the
/// mailbox push and the ack while `kill_node` and `restart_node` swap the
/// destination's system.
#[test]
fn sends_survive_kill_restart_over_zero_delay_links() {
    let zero = LinkConfig {
        latency: Duration::ZERO,
        ..LinkConfig::ideal()
    };
    assert!(zero.is_instant());
    let seed = 17;
    let ops = fault_schedule(seed, 60);
    eprintln!("zero-delay fault storm, seed {seed}: {ops:?}");
    run_fault_storm(zero.clone(), zero, &ops);
}
