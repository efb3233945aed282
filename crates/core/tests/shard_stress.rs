//! Concurrency stress for the sharded coordinator.
//!
//! The seed registry sat behind one `Mutex`, so these interleavings could
//! not happen by construction. [`ShardedRegistry`] takes `&self` and locks
//! per-space shards in ascending-id order; this test hammers it from many
//! threads and checks the model's delivery guarantees survive real
//! parallelism:
//!
//! * **No lost or duplicated deliveries** — each thread owns a disjoint
//!   space whose actor stays visible, so every send must land exactly
//!   once; on the shared space, the sum of `Disposition::Delivered`
//!   counts returned to broadcasters must equal the deliveries observed.
//! * **Per-sender order** — sends from one thread into its own space
//!   arrive in send order (delivery happens under the shard lock).
//! * **No deadlock** — threads issue `make_visible` with opposing
//!   child/parent orientations, destroy and recreate spaces, and run GC,
//!   all while sends are in flight; the test completing is the assertion.
//!   A watchdog panics if the run wedges.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use actorspace_atoms::path;
use actorspace_core::{
    policy::{ManagerPolicy, UnmatchedPolicy},
    ActorId, Delivery, Disposition, ShardedRegistry, SpaceId,
};
use actorspace_pattern::pattern;

const THREADS: u64 = 8;
const ITERS: u64 = 300;

fn policy(unmatched: UnmatchedPolicy) -> ManagerPolicy {
    ManagerPolicy {
        unmatched_send: unmatched,
        unmatched_broadcast: unmatched,
        selection_seed: Some(7),
        ..ManagerPolicy::default()
    }
}

/// Message encoding: sender thread in the high digits, sequence in the low.
fn msg(t: u64, seq: u64) -> u64 {
    t * 1_000_000 + seq
}

#[test]
fn parallel_sends_lose_and_duplicate_nothing() {
    // Suspend policy on private spaces (nothing ever suspends there — the
    // actor stays visible); Discard on the shared space so broadcasts
    // against churning membership report exactly what they delivered.
    let reg: Arc<ShardedRegistry<u64>> =
        Arc::new(ShardedRegistry::new(policy(UnmatchedPolicy::Suspend)));

    let shared = reg.create_space(None);
    reg.set_space_policy(shared, policy(UnmatchedPolicy::Discard), None)
        .unwrap();

    // One private space + resident actor per thread; each actor is also
    // visible in the shared space. Everything hangs off ROOT_SPACE so the
    // mid-run GC passes never reap live state.
    let mut privates = Vec::new();
    let mut out = Vec::new();
    reg.make_visible(
        shared.into(),
        vec![path("shared")],
        actorspace_core::ROOT_SPACE,
        None,
        &mut out,
    )
    .unwrap();
    for _ in 0..THREADS {
        let s = reg.create_space(None);
        let a = reg.create_actor(s, None).unwrap();
        reg.make_visible(
            s.into(),
            vec![path("pool")],
            actorspace_core::ROOT_SPACE,
            None,
            &mut out,
        )
        .unwrap();
        reg.make_visible(a.into(), vec![path("worker")], s, None, &mut out)
            .unwrap();
        reg.make_visible(
            a.into(),
            vec![path("shared/worker")],
            shared,
            None,
            &mut out,
        )
        .unwrap();
        privates.push((s, a));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let stop = stop.clone();
        thread::spawn(move || {
            for _ in 0..600 {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                thread::sleep(Duration::from_millis(100));
            }
            panic!("stress test wedged: suspected deadlock in ShardedRegistry");
        })
    };

    // Patterns are compiled once and their handles reused, as a long-lived
    // sender would, so the per-space resolution memo answers repeats while
    // other threads change what they match.
    let worker = pattern("worker");
    let shared_any = pattern("shared/*");
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let reg = Arc::clone(&reg);
        let privates = privates.clone();
        let (worker, shared_any) = (worker.clone(), shared_any.clone());
        handles.push(thread::spawn(move || {
            let (own_space, own_actor) = privates[t as usize];
            let residents: Vec<ActorId> = privates.iter().map(|&(_, a)| a).collect();
            let mut out: Vec<Delivery<u64>> = Vec::new();
            let mut sent: Vec<Delivery<u64>> = Vec::new();
            let mut shared_delivered_claim = 0u64;
            for seq in 0..ITERS {
                // Private-space send: must deliver to own actor, now.
                let d = reg.send(&worker, own_space, msg(t, seq), &mut out).unwrap();
                assert_eq!(d, Disposition::Delivered(1), "thread {t} seq {seq}");

                // Shared-space churn: flip a *different* thread's actor in
                // and out of the shared space, so membership writes and
                // broadcasts race across shards.
                let victim = privates[((t + 1) % THREADS) as usize].1;
                if seq % 3 == 0 {
                    let _ = reg.make_visible(
                        victim.into(),
                        vec![path("shared/worker")],
                        shared,
                        None,
                        &mut out,
                    );
                } else if seq % 3 == 1 {
                    let _ = reg.make_invisible(victim.into(), shared, None);
                }
                if seq % 5 == 0 {
                    let d = reg
                        .broadcast(&shared_any, shared, msg(t, seq) + 500_000, &mut out)
                        .unwrap();
                    if let Disposition::Delivered(n) = d {
                        shared_delivered_claim += n as u64;
                    }
                    // A send through the same handle reaches one actor this
                    // test made visible in `shared`, or nobody (Discard).
                    let d = reg
                        .send(&shared_any, shared, msg(t, seq), &mut sent)
                        .unwrap();
                    match d {
                        Disposition::Delivered(1) => assert!(
                            residents.contains(&sent[0].to),
                            "thread {t} seq {seq}: shared/* reached {:?}",
                            sent[0].to
                        ),
                        d => assert_eq!(d, Disposition::Discarded, "thread {t} seq {seq}"),
                    }
                    sent.clear();
                }

                // Lock-order inversion attempt: even threads link low→high,
                // odd threads high→low. The coordinator sorts lock sets by
                // SpaceId, so both orders must be safe; one of the two
                // directions is refused as a cycle, which is fine.
                if seq % 7 == 0 {
                    let lo = privates[(t as usize).min((t as usize + 1) % THREADS as usize)].0;
                    let hi = privates[(t as usize).max((t as usize + 1) % THREADS as usize)].0;
                    let (child, parent) = if t % 2 == 0 { (lo, hi) } else { (hi, lo) };
                    let _ =
                        reg.make_visible(child.into(), vec![path("peer")], parent, None, &mut out);
                    let _ = reg.make_invisible(child.into(), parent, None);
                }

                // Shard lifecycle churn: a transient space is created, made
                // visible in the shared scope, then destroyed while other
                // threads may be resolving through it.
                if seq % 11 == 0 {
                    let tmp = reg.create_space(None);
                    let _ = reg.make_visible(tmp.into(), vec![path("tmp")], shared, None, &mut out);
                    let _ = reg.destroy_space(tmp, None);
                }
                if seq % 97 == 0 {
                    let _ = reg.collect_garbage(&|_| Vec::new());
                }
            }
            let _ = own_actor;
            let log: Vec<(ActorId, u64)> = out.into_iter().map(|d| (d.to, d.msg)).collect();
            (log, shared_delivered_claim)
        }));
    }

    let mut all: Vec<(u64, Vec<(ActorId, u64)>)> = Vec::new();
    let mut claimed_shared = 0u64;
    for (t, h) in handles.into_iter().enumerate() {
        let (log, claim) = h.join().expect("stress thread panicked");
        claimed_shared += claim;
        all.push((t as u64, log));
    }
    stop.store(true, Ordering::Relaxed);
    watchdog.join().unwrap();

    // Per-thread private sends: exactly once each, in send order.
    for (t, log) in &all {
        let own_actor = privates[*t as usize].1;
        let own: Vec<u64> = log
            .iter()
            .filter(|(to, m)| *to == own_actor && m / 1_000_000 == *t && m % 1_000_000 < 500_000)
            .map(|(_, m)| m % 1_000_000)
            .collect();
        let expect: Vec<u64> = (0..ITERS).collect();
        assert_eq!(
            own, expect,
            "thread {t}: private deliveries lost, duplicated, or reordered"
        );
    }

    // Shared-space broadcasts: every delivery the coordinator claimed is
    // observed exactly once in some sender's log, and nothing extra.
    let mut observed_shared: HashMap<u64, u64> = HashMap::new();
    let mut observed_total = 0u64;
    for (_, log) in &all {
        for (_, m) in log {
            if m % 1_000_000 >= 500_000 {
                *observed_shared.entry(*m).or_insert(0) += 1;
                observed_total += 1;
            }
        }
    }
    assert_eq!(
        observed_total, claimed_shared,
        "shared-space broadcast deliveries lost or duplicated"
    );

    // The registry is still coherent: DAG intact, private actors resolvable.
    assert!(reg.is_dag());
    for (s, a) in &privates {
        assert_eq!(reg.resolve(&worker, *s).unwrap(), vec![*a]);
    }
}

/// Opposing multi-shard writers only: no sends, maximum lock-set overlap.
/// Every thread links and unlinks spaces across the whole universe in a
/// direction chosen by parity; completion proves the ascending-SpaceId
/// lock protocol admits no cyclic wait.
#[test]
fn opposing_visibility_writers_do_not_deadlock() {
    let reg: Arc<ShardedRegistry<u64>> =
        Arc::new(ShardedRegistry::new(policy(UnmatchedPolicy::Suspend)));
    let spaces: Vec<SpaceId> = (0..12).map(|_| reg.create_space(None)).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let stop = stop.clone();
        thread::spawn(move || {
            for _ in 0..600 {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                thread::sleep(Duration::from_millis(100));
            }
            panic!("visibility writers wedged: suspected deadlock");
        })
    };

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let reg = Arc::clone(&reg);
        let spaces = spaces.clone();
        handles.push(thread::spawn(move || {
            let n = spaces.len();
            for i in 0..ITERS as usize {
                let a = spaces[(t as usize + i) % n];
                let b = spaces[(t as usize + i * 5 + 1) % n];
                if a == b {
                    continue;
                }
                let (child, parent) = if t % 2 == 0 { (a, b) } else { (b, a) };
                let mut out = Vec::new();
                let _ = reg.make_visible(child.into(), vec![path("x")], parent, None, &mut out);
                let _ = reg.make_invisible(child.into(), parent, None);
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    watchdog.join().unwrap();

    assert!(reg.is_dag());
}
