//! E7 (§5.7): the cost of cycle prevention.
//!
//! "In implementation terms, avoiding such cycles means that a visibility
//! relation graph must be constructed before an actorSpace is allowed to
//! be visible."
//!
//! Measures `make_visible` for a *space* member (which runs the DAG
//! reachability check) against `make_visible` for an *actor* member (no
//! check) as the visibility graph deepens — the marginal price of safety.

use actorspace_atoms::path;
use actorspace_core::{policy::ManagerPolicy, ActorId, Route, ShardedRegistry, SpaceId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Builds a linear chain of `depth` spaces: s0 visible in s1 … visible in
/// s(depth-1). Returns all spaces.
fn chain(depth: usize) -> (ShardedRegistry<u64>, Vec<SpaceId>) {
    let r: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let spaces: Vec<SpaceId> = (0..depth).map(|_| r.create_space(None)).collect();
    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
    for w in spaces.windows(2) {
        r.make_visible(w[0].into(), vec![path("sub")], w[1], None, &mut sink)
            .unwrap();
    }
    (r, spaces)
}

fn bench_dag_check_vs_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("E7_make_visible_space");
    for depth in [4usize, 16, 64, 256] {
        g.bench_with_input(BenchmarkId::new("space_member", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || {
                    let (r, spaces) = chain(d);
                    let extra = r.create_space(None);
                    (r, spaces, extra)
                },
                |(r, spaces, extra)| {
                    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
                    // Making the chain head visible in a fresh space walks
                    // the reachable subgraph (the whole chain below it).
                    r.make_visible(
                        spaces[d - 1].into(),
                        vec![path("x")],
                        extra,
                        None,
                        &mut sink,
                    )
                    .unwrap();
                },
            );
        });
        g.bench_with_input(BenchmarkId::new("actor_member", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || {
                    let (r, spaces) = chain(d);
                    let top = spaces[d - 1];
                    let a = r.create_actor(top, None).unwrap();
                    (r, top, a)
                },
                |(r, top, a)| {
                    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
                    // Actors cannot form cycles: no graph walk.
                    r.make_visible(a.into(), vec![path("x")], top, None, &mut sink)
                        .unwrap();
                },
            );
        });
    }
    g.finish();
}

fn bench_rejected_cycle_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("E7_cycle_rejection");
    for depth in [16usize, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter_with_setup(
                || chain(d),
                |(r, spaces)| {
                    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
                    // Closing the chain into a loop must be detected (and
                    // costs a full-chain walk — the worst case).
                    let err = r
                        .make_visible(
                            (*spaces.last().unwrap()).into(),
                            vec![path("loop")],
                            spaces[0],
                            None,
                            &mut sink,
                        )
                        .unwrap_err();
                    assert!(matches!(err, actorspace_core::Error::WouldCycle { .. }));
                },
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dag_check_vs_depth, bench_rejected_cycle_cost);
criterion_main!(benches);
