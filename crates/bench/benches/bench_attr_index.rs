//! E12: resolution through the path-ordered attribute index.
//!
//! Each space keeps its attributes in one path-ordered map, so a pattern's
//! literal run is a seek and the attributes starting with it are one
//! contiguous range. This bench times an exact hit, an exact miss, a
//! prefix wildcard and an unanchored `**` across library sizes, with a
//! fixed 10 instances per class so anchored answers do not grow with n,
//! plus the `cluster_rpc` shape: `svc/*` over 64 one-atom replica keys.

use actorspace_atoms::path;
use actorspace_core::{policy::ManagerPolicy, ActorId, Route, ShardedRegistry, SpaceId};
use actorspace_pattern::pattern;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// One space holding `n` actors, actor `i` visible under `attr(i)`.
fn build(n: usize, attr: impl Fn(usize) -> String) -> (ShardedRegistry<u64>, SpaceId) {
    let reg: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let space = reg.create_space(None);
    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
    for i in 0..n {
        let a = reg.create_actor(space, None).unwrap();
        reg.make_visible(a.into(), vec![path(&attr(i))], space, None, &mut sink)
            .unwrap();
    }
    (reg, space)
}

fn bench_attr_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("E12_attr_index");
    g.sample_size(30);
    for n in [1_000usize, 10_000] {
        let (reg, space) = build(n, |i| format!("srv/class-{}/inst-{i}", i / 10));
        for (name, pat, answer) in [
            ("exact_hit", pattern("srv/class-1/inst-10"), 1),
            ("exact_miss", pattern("srv/class-1/inst-absent"), 0),
            ("prefix", pattern("srv/class-1/*"), 10),
            ("unanchored", pattern("**/inst-1"), 1),
        ] {
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| assert_eq!(reg.resolve(&pat, space).unwrap().len(), answer));
            });
        }
    }
    let (reg, space) = build(64, |i| format!("svc/r{i}"));
    let pat = pattern("svc/*");
    g.bench_function("svc_star_64_replicas", |b| {
        b.iter(|| assert_eq!(reg.resolve(&pat, space).unwrap().len(), 64));
    });
    g.finish();
}

criterion_group!(benches, bench_attr_index);
criterion_main!(benches);
