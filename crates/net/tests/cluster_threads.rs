//! A dropped `Cluster` joins every thread it spawned.
//!
//! Builds and drops 20 clusters over delayed links and 4 over zero-delay
//! links — both ordering protocols, obs streaming with a subscriber,
//! cross-node traffic, and a kill/restart — and checks that the process's
//! thread count (`Threads:` in `/proc/self/status`) is back to where it
//! started. A delayed link runs one `actorspace-link` delivery thread; a
//! zero-delay cluster must run none, since its links deliver on the
//! sending thread. This file holds one test so that no other test's
//! threads share the process.

use std::time::Duration;

use actorspace_atoms::path;
use actorspace_net::{Cluster, ClusterConfig, FailureConfig, LinkConfig, OrderingProtocol};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, Value};

const TIMEOUT: Duration = Duration::from_secs(20);

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// Live threads named `actorspace-link` (link delivery threads).
fn link_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "actorspace-link")
        .count()
}

/// One cluster lifetime over `links` (data and bus): boot, a pattern
/// round trip across nodes, and (on every other build) a kill and
/// restart of the serving node. Checks the link threads it runs meanwhile.
fn build_use_and_drop(i: usize, links: LinkConfig) {
    let protocol = if i.is_multiple_of(2) {
        OrderingProtocol::Sequencer
    } else {
        OrderingProtocol::TokenBus
    };
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        protocol,
        failure: FailureConfig::fast(),
        obs_publish: Some(Duration::from_millis(5)),
        data_link: links.clone(),
        bus_link: links.clone(),
        ..ClusterConfig::default()
    });
    let _view = c.observe();
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    assert!(c.await_coherence(TIMEOUT));
    let echo = c.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(1)
        .make_visible(echo, &path("echo"), space, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT));
    c.node(0)
        .send_pattern(&pattern("echo"), space, Value::int(i as i64))
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(i as i64));
    if i % 4 < 2 {
        assert!(c.kill_node(1));
        assert!(c.restart_node(1));
        assert!(c.await_coherence(TIMEOUT));
    }
    let pumps = link_threads();
    if links.is_instant() {
        assert_eq!(pumps, 0, "a zero-delay cluster runs no link threads");
    } else {
        assert!(pumps > 0, "delayed links run delivery threads");
    }
}

#[test]
fn dropped_clusters_join_every_thread() {
    let start = threads();
    for i in 0..20 {
        build_use_and_drop(i, LinkConfig::ideal());
    }
    let zero = LinkConfig {
        latency: Duration::ZERO,
        ..LinkConfig::ideal()
    };
    for i in 0..4 {
        build_use_and_drop(i, zero.clone());
    }
    assert_eq!(
        threads(),
        start,
        "threads left running after 24 clusters were dropped"
    );
}
