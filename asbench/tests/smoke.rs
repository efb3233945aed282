//! Short runs of every workload, untraced and traced, asserting that each is
//! correct, reports exactly the metrics `BENCHMARK.json` lists, and that the
//! count sanity values hold.

use std::sync::Mutex;

use actorspace_asbench::{per_layer, run, Options, Report, Workload, END_TO_END};

/// One run at a time: runs read process-wide CPU time and lock tables.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, trace: bool) -> Report {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = run(&Options {
        workload,
        seed: 11,
        seconds: 1.0,
        trace,
    })
    .expect("run completes");
    assert!(r.correct, "{workload:?} trace={trace}: {:?}", r.problems);
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
    if trace {
        let want = per_layer();
        assert_eq!(names, want.iter().map(|m| m.0.as_str()).collect::<Vec<_>>());
    } else {
        assert_eq!(names, END_TO_END.map(|m| m.0));
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{workload:?}: {name} = {value}");
        }
    }
    let json = r.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    r
}

fn metric(r: &Report, name: &str) -> f64 {
    r.metric(name).unwrap_or_else(|| panic!("{name} reported"))
}

#[test]
fn local_p2p_is_correct() {
    smoke(Workload::LocalP2p, false);
    let t = smoke(Workload::LocalP2p, true);
    // Request and reply: exactly two behavior runs per round trip, and no
    // pattern resolution or network on the point-to-point path.
    assert_eq!(metric(&t, "runtime.deliveries_per_op"), 2.0);
    assert_eq!(metric(&t, "core.resolve_us.p50"), 0.0);
    assert_eq!(metric(&t, "net.forwarded_per_op"), 0.0);
}

#[test]
fn pattern_scan_is_correct() {
    smoke(Workload::PatternScan, false);
    let t = smoke(Workload::PatternScan, true);
    assert_eq!(metric(&t, "runtime.deliveries_per_op"), 2.0);
    assert!(metric(&t, "core.resolve_us.p50") > 0.0);
    assert!(metric(&t, "pattern.matches_ns.p50") > 0.0);
}

#[test]
fn cluster_rpc_is_correct() {
    smoke(Workload::ClusterRpc, false);
    let t = smoke(Workload::ClusterRpc, true);
    assert_eq!(metric(&t, "runtime.deliveries_per_op"), 2.0);
    // Request forwarded node 0 → 1, reply 1 → 0.
    assert_eq!(metric(&t, "net.forwarded_per_op"), 2.0);
    // Every bus write is applied once on each of the two nodes.
    assert_eq!(metric(&t, "net.bus_applied_per_write"), 2.0);
    assert!(metric(&t, "codec.bytes_per_msg") > 0.0);
    assert_eq!(
        metric(&t, "core.suspended_per_write"),
        metric(&t, "core.woken_per_write")
    );
}

/// Every metric the benchmark reports is declared in `BENCHMARK.json` with
/// the same unit, and nothing else is.
#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to asbench/");
    let declared = |name: &str, unit: &str| {
        text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    let mut all: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    all.extend(per_layer());
    for (name, unit) in &all {
        assert!(declared(name, unit), "{name} ({unit}) not declared");
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        all.len() + Workload::ALL.len()
    );
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\", \"why\"", w.name())));
    }
}
