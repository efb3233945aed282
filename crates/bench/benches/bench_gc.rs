//! E10 (§5.5): garbage collection of actors and actorSpaces.
//!
//! Builds populations with varying live fractions and measures the
//! mark/sweep pass. Verifies the paper's structural points as a side
//! effect: spaces are passive, so collecting them is a forward
//! reachability problem only.

use actorspace_atoms::path;
use actorspace_core::{policy::ManagerPolicy, ActorId, Route, ShardedRegistry, ROOT_SPACE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Builds `spaces` spaces × `actors_per_space` actors. `live_fraction` of
/// the spaces are anchored to the root (their members survive); the rest
/// are garbage.
fn population(spaces: usize, actors_per_space: usize, live_fraction: f64) -> ShardedRegistry<u64> {
    let r: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
    for s in 0..spaces {
        let space = r.create_space(None);
        if (s as f64) < spaces as f64 * live_fraction {
            r.make_visible(
                space.into(),
                vec![path(&format!("s{s}"))],
                ROOT_SPACE,
                None,
                &mut sink,
            )
            .unwrap();
        }
        for a in 0..actors_per_space {
            let actor = r.create_actor(space, None).unwrap();
            r.make_visible(
                actor.into(),
                vec![path(&format!("a{a}"))],
                space,
                None,
                &mut sink,
            )
            .unwrap();
        }
    }
    r
}

fn bench_collection(c: &mut Criterion) {
    let mut g = c.benchmark_group("E10_gc");
    g.sample_size(20);
    let spaces = 100;
    let per = 50;
    g.throughput(Throughput::Elements((spaces * per) as u64));
    for (name, live) in [("all_garbage", 0.0), ("half_live", 0.5), ("all_live", 1.0)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &live, |b, &live| {
            b.iter_with_setup(
                || population(spaces, per, live),
                |r| {
                    let report = r.collect_garbage(&|_| Vec::new());
                    let expected_dead = ((spaces as f64 * (1.0 - live)).round() as usize) * per;
                    assert_eq!(report.collected_actors.len(), expected_dead);
                    report
                },
            );
        });
    }
    g.finish();
}

fn bench_collection_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("E10_gc_scaling");
    g.sample_size(10);
    for total in [1_000usize, 10_000, 50_000] {
        g.throughput(Throughput::Elements(total as u64));
        g.bench_with_input(BenchmarkId::from_parameter(total), &total, |b, &t| {
            b.iter_with_setup(
                || population(t / 50, 50, 0.5),
                |r| r.collect_garbage(&|_| Vec::new()),
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_collection, bench_collection_scaling);
criterion_main!(benches);
