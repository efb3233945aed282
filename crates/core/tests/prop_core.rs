//! Property tests for the coordinator: the visibility DAG invariant under
//! random operation sequences, matching against naive oracles (fixed and
//! random pattern shapes), persistent exactly-once delivery, and GC safety.

use std::collections::{HashMap, HashSet};

use actorspace_atoms::{path, Path};
use actorspace_core::{
    policy::{ManagerPolicy, UnmatchedPolicy},
    ActorId, Disposition, MemberId, ShardedRegistry, SpaceId, ROOT_SPACE,
};
use actorspace_pattern::{pattern, Pattern};
use proptest::prelude::*;

type Reg = ShardedRegistry<u64>;

fn policy(unmatched: UnmatchedPolicy) -> ManagerPolicy {
    ManagerPolicy {
        unmatched_send: unmatched,
        unmatched_broadcast: unmatched,
        selection_seed: Some(11),
        ..ManagerPolicy::default()
    }
}

/// A random visibility op over a small universe of spaces and actors.
#[derive(Debug, Clone)]
enum Op {
    MakeActorVisible {
        actor: usize,
        space: usize,
        attr: usize,
    },
    MakeActorInvisible {
        actor: usize,
        space: usize,
    },
    MakeSpaceVisible {
        child: usize,
        parent: usize,
        attr: usize,
    },
    MakeSpaceInvisible {
        child: usize,
        parent: usize,
    },
    ChangeAttr {
        actor: usize,
        space: usize,
        attr: usize,
    },
    DestroySpace {
        space: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6, 0usize..5, 0usize..6).prop_map(|(actor, space, attr)| Op::MakeActorVisible {
            actor,
            space,
            attr
        }),
        (0usize..6, 0usize..5).prop_map(|(actor, space)| Op::MakeActorInvisible { actor, space }),
        (0usize..5, 0usize..5, 0usize..6).prop_map(|(child, parent, attr)| Op::MakeSpaceVisible {
            child,
            parent,
            attr
        }),
        (0usize..5, 0usize..5).prop_map(|(child, parent)| Op::MakeSpaceInvisible { child, parent }),
        (0usize..6, 0usize..5, 0usize..6).prop_map(|(actor, space, attr)| Op::ChangeAttr {
            actor,
            space,
            attr
        }),
        (1usize..5).prop_map(|space| Op::DestroySpace { space }),
    ]
}

/// Attribute lists shared by actors and spaces. The empty attribute makes
/// a sub-space transparent; `srv` on a space is a proper prefix of the
/// actor attribute `srv/fib`.
fn attrs(i: usize) -> Vec<Path> {
    match i {
        0 => vec![path("w")],
        1 => vec![path("srv/fib")],
        2 => vec![path("srv/fact"), path("w")],
        3 => vec![path("pool/deep/worker")],
        4 => vec![Path::empty()],
        _ => vec![path("srv")],
    }
}

/// The atoms `attrs` uses, plus one no attribute uses.
const ATOMS: [&str; 8] = [
    "w", "srv", "fib", "fact", "pool", "deep", "worker", "absent",
];
/// Attribute paths of the universe, joined up to two deep for literals.
const PATHS: [&str; 6] = ["w", "srv", "srv/fib", "srv/fact", "pool/deep/worker", "fib"];

/// A random pattern over the universe: a literal, a miss, `a/*`, `a/**`,
/// `**/b`, an alternation, a class, a negated class, or the empty pattern.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (0usize..9, 0usize..6, 0usize..8, any::<bool>()).prop_map(|(shape, p, a, two)| {
        let (lit, other) = (PATHS[p], PATHS[(p + a) % PATHS.len()]);
        let (x, y) = (ATOMS[a], ATOMS[(a + p + 1) % ATOMS.len()]);
        let scope = if two { "srv/" } else { "" };
        let text = match shape {
            0 if two => format!("{lit}/{other}"),
            0 => lit.to_owned(),
            1 => format!("{lit}/absent"),
            2 => format!("{lit}/*"),
            3 => format!("{lit}/**"),
            4 => format!("**/{x}"),
            5 => format!("{{{lit}, {other}}}"),
            6 => format!("{scope}[{x} {y}]"),
            7 => format!("{scope}[^{x} {y}]"),
            _ => String::new(),
        };
        pattern(&text)
    })
}

/// Applies ops, ignoring expected errors (cycles, missing targets), and
/// returns the coordinator plus which spaces/actors still exist.
fn run_ops(ops: &[Op]) -> (Reg, Vec<SpaceId>, Vec<ActorId>) {
    let r: Reg = ShardedRegistry::new(policy(UnmatchedPolicy::Discard));
    let spaces: Vec<SpaceId> = std::iter::once(ROOT_SPACE)
        .chain((0..4).map(|_| r.create_space(None)))
        .collect();
    let actors: Vec<ActorId> = (0..6)
        .map(|_| r.create_actor(ROOT_SPACE, None).unwrap())
        .collect();
    let mut sink = Vec::new();
    for op in ops {
        match *op {
            Op::MakeActorVisible { actor, space, attr } => {
                let _ = r.make_visible(
                    actors[actor].into(),
                    attrs(attr),
                    spaces[space],
                    None,
                    &mut sink,
                );
            }
            Op::MakeActorInvisible { actor, space } => {
                let _ = r.make_invisible(actors[actor].into(), spaces[space], None);
            }
            Op::MakeSpaceVisible {
                child,
                parent,
                attr,
            } => {
                let _ = r.make_visible(
                    spaces[child].into(),
                    attrs(attr),
                    spaces[parent],
                    None,
                    &mut sink,
                );
            }
            Op::MakeSpaceInvisible { child, parent } => {
                let _ = r.make_invisible(spaces[child].into(), spaces[parent], None);
            }
            Op::ChangeAttr { actor, space, attr } => {
                let _ = r.change_attributes(
                    actors[actor].into(),
                    attrs(attr),
                    spaces[space],
                    None,
                    &mut sink,
                );
            }
            Op::DestroySpace { space } => {
                let _ = r.destroy_space(spaces[space], None);
            }
        }
    }
    (r, spaces, actors)
}

/// Naive resolve oracle: enumerate every member with its joined attribute
/// path by explicit recursion (up to `depth` levels of sub-spaces) and
/// match each path with the Pattern API directly.
fn oracle_members(r: &Reg, pat: &Pattern, space: SpaceId, depth: usize) -> HashSet<MemberId> {
    fn joined_paths(
        r: &Reg,
        space: SpaceId,
        prefix: &Path,
        depth: usize,
        out: &mut Vec<(MemberId, Path)>,
    ) {
        let Ok(members) = r.with_space(space, |sp| sp.members().clone()) else {
            return;
        };
        for (member, attrs) in &members {
            for a in attrs {
                let full = prefix.join(a);
                if let MemberId::Space(sub) = *member {
                    if depth > 0 {
                        joined_paths(r, sub, &full, depth - 1, out);
                    }
                }
                out.push((*member, full));
            }
        }
    }
    let mut all = Vec::new();
    joined_paths(r, space, &Path::empty(), depth, &mut all);
    all.into_iter()
        .filter(|(_, p)| pat.matches(p))
        .map(|(m, _)| m)
        .collect()
}

/// The actors [`oracle_members`] finds: what `resolve` must return.
fn oracle_resolve(r: &Reg, pat: &Pattern, space: SpaceId, depth: usize) -> HashSet<ActorId> {
    oracle_members(r, pat, space, depth)
        .into_iter()
        .filter_map(|m| match m {
            MemberId::Actor(a) => Some(a),
            MemberId::Space(_) => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The visibility relation stays a DAG no matter what sequence of
    /// operations is attempted (§5.7).
    #[test]
    fn visibility_stays_acyclic(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let (r, spaces, _) = run_ops(&ops);
        // Reconstruct the space graph and Kahn-check it.
        let mut edges: HashMap<SpaceId, Vec<SpaceId>> = HashMap::new();
        for &s in &spaces {
            if let Ok(members) = r.with_space(s, |sp| sp.members().clone()) {
                for m in members.keys() {
                    if let MemberId::Space(sub) = m {
                        edges.entry(s).or_default().push(*sub);
                    }
                }
            }
        }
        // DFS cycle check.
        fn has_cycle(
            edges: &HashMap<SpaceId, Vec<SpaceId>>,
            node: SpaceId,
            visiting: &mut HashSet<SpaceId>,
            done: &mut HashSet<SpaceId>,
        ) -> bool {
            if done.contains(&node) { return false; }
            if !visiting.insert(node) { return true; }
            for &next in edges.get(&node).into_iter().flatten() {
                if has_cycle(edges, next, visiting, done) { return true; }
            }
            visiting.remove(&node);
            done.insert(node);
            false
        }
        let mut done = HashSet::new();
        for &s in &spaces {
            let mut visiting = HashSet::new();
            prop_assert!(!has_cycle(&edges, s, &mut visiting, &mut done));
        }
    }

    /// `resolve` agrees with the enumerate-all-joined-paths oracle after any
    /// operation sequence, for several pattern shapes.
    #[test]
    fn resolve_matches_oracle(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let (r, spaces, _) = run_ops(&ops);
        let patterns = [
            pattern("w"),
            pattern("srv/*"),
            pattern("**"),
            pattern("**/worker"),
            pattern("{srv/fib, pool/deep/worker}"),
        ];
        for &s in &spaces {
            if !r.space_exists(s) { continue; }
            for pat in &patterns {
                let got: HashSet<ActorId> =
                    r.resolve(pat, s).unwrap().into_iter().collect();
                let want = oracle_resolve(&r, pat, s, 64);
                prop_assert_eq!(&got, &want,
                    "pattern {} in {:?}: got {:?} want {:?}", pat, s, got, want);
            }
        }
    }

    /// Persistent broadcasts deliver exactly once to every actor that ever
    /// matches, however visibility churns.
    #[test]
    fn persistent_broadcast_is_exactly_once(
        arrivals in proptest::collection::vec((0usize..6, any::<bool>()), 1..40)
    ) {
        let r: Reg = ShardedRegistry::new(policy(UnmatchedPolicy::Persistent));
        let s = r.create_space(None);
        let actors: Vec<ActorId> =
            (0..6).map(|_| r.create_actor(s, None).unwrap()).collect();

        let mut received: HashMap<ActorId, u32> = HashMap::new();
        {
            let mut sink = Vec::new();
            let d = r.broadcast(&pattern("node"), s, 42, &mut sink).unwrap();
            prop_assert_eq!(d, Disposition::Persistent(0));
            for &(idx, arrive) in &arrivals {
                if arrive {
                    let _ = r.make_visible(
                        actors[idx].into(), vec![path("node")], s, None, &mut sink);
                } else {
                    let _ = r.make_invisible(actors[idx].into(), s, None);
                }
            }
            for d in sink {
                *received.entry(d.to).or_insert(0) += 1;
            }
        }
        // Every actor that was ever made visible got the message exactly once.
        let ever_visible: HashSet<usize> =
            arrivals.iter().filter(|&&(_, arr)| arr).map(|&(i, _)| i).collect();
        for (i, a) in actors.iter().enumerate() {
            let n = received.get(a).copied().unwrap_or(0);
            if ever_visible.contains(&i) {
                prop_assert_eq!(n, 1, "actor {} received {} times", i, n);
            } else {
                prop_assert_eq!(n, 0);
            }
        }
    }

    /// Resolution through the ordered attribute index agrees with the
    /// enumerate-all-paths oracles, for actors and spaces alike, on random
    /// pattern shapes after any operation sequence: literal runs that
    /// cross sub-space boundaries, misses, prefix wildcards, unanchored
    /// `**`, alternation, classes and the empty pattern.
    #[test]
    fn resolve_agrees_with_oracles_on_random_patterns(
        nest in proptest::collection::vec((0usize..5, 0usize..5, 4usize..6), 1..6),
        ops in proptest::collection::vec(arb_op(), 0..60),
        pats in proptest::collection::vec(arb_pattern(), 1..8),
    ) {
        // Nest spaces under the empty attribute and under `srv` first, so
        // literal runs often continue inside a sub-space.
        let nested = nest.into_iter().map(|(child, parent, attr)| Op::MakeSpaceVisible {
            child,
            parent,
            attr,
        });
        let ops: Vec<Op> = nested.chain(ops).collect();
        let (r, spaces, _) = run_ops(&ops);
        for &s in &spaces {
            if !r.space_exists(s) { continue; }
            for pat in &pats {
                let mut got: HashSet<MemberId> =
                    r.resolve(pat, s).unwrap().into_iter().map(MemberId::Actor).collect();
                got.extend(r.resolve_spaces(pat, s).unwrap().into_iter().map(MemberId::Space));
                let want = oracle_members(&r, pat, s, 64);
                prop_assert_eq!(&got, &want, "pattern {:?} in {:?}", pat, s);
            }
        }
    }

    /// GC never collects anything reachable, and a second pass right after
    /// the first collects nothing (fixpoint).
    #[test]
    fn gc_is_safe_and_idempotent(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let (r, _, actors) = run_ops(&ops);
        // Root half the actors.
        for a in actors.iter().take(3) {
            if r.actor_exists(*a) {
                r.add_root(*a);
            }
        }
        let before_live: HashSet<ActorId> = r.actor_ids().into_iter().collect();
        let report = r.collect_garbage(&|_| Vec::new());
        // Rooted actors survive.
        for a in actors.iter().take(3) {
            if before_live.contains(a) {
                prop_assert!(r.actor_exists(*a), "rooted actor collected");
            }
        }
        // Actors visible in the root space survive.
        // (Check via resolve: anything matchable from the root is alive.)
        for id in r.resolve(&pattern("**"), ROOT_SPACE).unwrap() {
            prop_assert!(r.actor_exists(id));
        }
        // Second pass is a no-op.
        let again = r.collect_garbage(&|_| Vec::new());
        prop_assert!(again.collected_actors.is_empty(), "{:?}", again);
        prop_assert!(again.collected_spaces.is_empty());
        let _ = report;
    }
}
