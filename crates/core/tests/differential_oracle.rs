//! Differential oracle for the coordinator.
//!
//! [`ShardedRegistry`] keeps each space behind its own lock, with a literal
//! index, single-shard fast paths, a per-space resolution memo and
//! per-space metrics. The naive model in `naive_model/` is an independent
//! specification of the same §5 semantics: plain maps, linear scans, and
//! resolution by listing every joined attribute path and filtering with
//! `Pattern::matches`. This test
//! replays random operation sequences — create/destroy, visibility churn
//! (§5.7), sends and broadcasts with the §5.6 unmatched-message policies,
//! garbage collection — against both, built with the same deterministic
//! selection seed, and asserts they agree on:
//!
//! * per-operation results (`Disposition`s and errors),
//! * the delivery multiset produced by each operation (the wake sweep
//!   order across spaces is unspecified, so cross-space interleaving may
//!   differ — but the set of deliveries, with multiplicity, must not),
//! * the suspended-message set and persistent-broadcast table of every
//!   space, including each broadcast's exactly-once `delivered` set,
//! * `SpaceInfo`, membership containers, id tables, and resolution
//!   results for a panel of literal and wildcard patterns,
//! * acyclicity of the visibility relation.
//!
//! Sequences are seeded and shrinkable: a failure minimises to the
//! shortest divergent op list.

mod naive_model;

use std::collections::BTreeSet;

use actorspace_atoms::{path, Path};
use actorspace_core::{
    policy::{ManagerPolicy, UnmatchedPolicy},
    ActorId, Disposition, GcReport, MemberId, Result, ShardedRegistry, SpaceId, SpaceInfo,
    ROOT_SPACE,
};
use actorspace_pattern::{pattern, Pattern};
use naive_model::{Coordinator, Deliveries, Model, Msg};
use proptest::prelude::*;

fn policy(unmatched: UnmatchedPolicy) -> ManagerPolicy {
    ManagerPolicy {
        unmatched_send: unmatched,
        unmatched_broadcast: unmatched,
        selection_seed: Some(7),
        ..ManagerPolicy::default()
    }
}

fn attrs(i: usize) -> Vec<Path> {
    match i % 4 {
        0 => vec![path("w")],
        1 => vec![path("srv/fib")],
        2 => vec![path("srv/fact"), path("w")],
        _ => vec![path("pool/deep/worker")],
    }
}

/// The panel's patterns, compiled once per run: every send and broadcast
/// of a run reuses these handles, as a long-lived caller would, so the
/// coordinator's per-space resolution memo answers repeats.
fn patterns() -> Vec<Pattern> {
    (0..6).map(pat).collect()
}

fn pat(i: usize) -> Pattern {
    match i % 6 {
        0 => pattern("w"),                           // literal, index fast path
        1 => pattern("srv/fib"),                     // literal
        2 => pattern("absent/path"),                 // literal miss → suspends
        3 => pattern("srv/*"),                       // one-level wildcard
        4 => pattern("**"),                          // everything
        _ => pattern("{srv/fib, pool/deep/worker}"), // alternation
    }
}

#[derive(Debug, Clone)]
enum Op {
    CreateSpace,
    CreateActor {
        host: usize,
    },
    MakeActorVisible {
        actor: usize,
        space: usize,
        attr: usize,
    },
    MakeSpaceVisible {
        child: usize,
        parent: usize,
        attr: usize,
    },
    MakeActorInvisible {
        actor: usize,
        space: usize,
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
    Send {
        pat: usize,
        scope: usize,
        msg: Msg,
    },
    Broadcast {
        pat: usize,
        scope: usize,
        msg: Msg,
    },
    CancelPersistent {
        space: usize,
    },
    Collect,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::CreateSpace),
        (0usize..8).prop_map(|host| Op::CreateActor { host }),
        (0usize..8, 0usize..8, 0usize..4).prop_map(|(actor, space, attr)| Op::MakeActorVisible {
            actor,
            space,
            attr
        }),
        (0usize..8, 0usize..8, 0usize..4).prop_map(|(child, parent, attr)| Op::MakeSpaceVisible {
            child,
            parent,
            attr
        }),
        (0usize..8, 0usize..8).prop_map(|(actor, space)| Op::MakeActorInvisible { actor, space }),
        (0usize..8, 0usize..8).prop_map(|(child, parent)| Op::MakeSpaceInvisible { child, parent }),
        (0usize..8, 0usize..8, 0usize..4).prop_map(|(actor, space, attr)| Op::ChangeAttr {
            actor,
            space,
            attr
        }),
        (1usize..8).prop_map(|space| Op::DestroySpace { space }),
        (0usize..6, 0usize..8, 0u64..1000).prop_map(|(pat, scope, msg)| Op::Send {
            pat,
            scope,
            msg
        }),
        (0usize..6, 0usize..8, 1000u64..2000).prop_map(|(pat, scope, msg)| Op::Broadcast {
            pat,
            scope,
            msg
        }),
        (0usize..8).prop_map(|space| Op::CancelPersistent { space }),
        Just(Op::Collect),
    ]
}

/// Membership churn between repeated sends and broadcasts, with no
/// collection or destruction to empty the universe early: each send
/// through a reused pattern handle can be answered by the scope's
/// resolution memo, and each change between two of them must move it.
fn arb_churn_op() -> impl Strategy<Value = Op> {
    let send = || {
        (3usize..6, 0usize..8, 0u64..1000).prop_map(|(pat, scope, msg)| Op::Send {
            pat,
            scope,
            msg,
        })
    };
    let broadcast = || {
        (3usize..6, 0usize..8, 1000u64..2000).prop_map(|(pat, scope, msg)| Op::Broadcast {
            pat,
            scope,
            msg,
        })
    };
    let visible =
        || {
            (0usize..8, 0usize..8, 0usize..4)
                .prop_map(|(actor, space, attr)| Op::MakeActorVisible { actor, space, attr })
        };
    prop_oneof![
        (0usize..8).prop_map(|host| Op::CreateActor { host }),
        visible(),
        visible(),
        (0usize..8, 0usize..8, 0usize..4).prop_map(|(child, parent, attr)| Op::MakeSpaceVisible {
            child,
            parent,
            attr
        }),
        (0usize..8, 0usize..8).prop_map(|(actor, space)| Op::MakeActorInvisible { actor, space }),
        (0usize..8, 0usize..8).prop_map(|(child, parent)| Op::MakeSpaceInvisible { child, parent }),
        (0usize..8, 0usize..8, 0usize..4).prop_map(|(actor, space, attr)| Op::ChangeAttr {
            actor,
            space,
            attr
        }),
        send(),
        send(),
        send(),
        broadcast(),
        broadcast(),
    ]
}

fn pending_of<M: Clone + Ord>(sp: &actorspace_core::Space<M>) -> Vec<(String, M, bool)> {
    let mut v: Vec<(String, M, bool)> = sp
        .pending()
        .iter()
        .map(|p| {
            (
                p.pattern.text().to_string(),
                p.msg.clone(),
                matches!(p.kind, actorspace_core::DeliveryKind::Broadcast),
            )
        })
        .collect();
    v.sort();
    v
}

fn persistent_of<M: Clone + Ord>(sp: &actorspace_core::Space<M>) -> Vec<(String, M, Vec<ActorId>)> {
    let mut v: Vec<(String, M, Vec<ActorId>)> = sp
        .persistent()
        .iter()
        .map(|pb| {
            let mut d: Vec<ActorId> = pb.delivered.iter().copied().collect();
            d.sort();
            (pb.pattern.text().to_string(), pb.msg.clone(), d)
        })
        .collect();
    v.sort();
    v
}

impl Coordinator for ShardedRegistry<Msg> {
    fn create_space(&mut self) -> SpaceId {
        ShardedRegistry::create_space(self, None)
    }
    fn create_actor(&mut self, host: SpaceId) -> Result<ActorId> {
        ShardedRegistry::create_actor(self, host, None)
    }
    fn make_visible(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()> {
        let mut buf = Vec::new();
        let r = ShardedRegistry::make_visible(self, member, attrs, space, None, &mut buf);
        out.extend(buf.into_iter().map(|d| (d.to, d.msg)));
        r
    }
    fn make_invisible(&mut self, member: MemberId, space: SpaceId) -> Result<()> {
        ShardedRegistry::make_invisible(self, member, space, None)
    }
    fn change_attributes(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()> {
        let mut buf = Vec::new();
        let r = ShardedRegistry::change_attributes(self, member, attrs, space, None, &mut buf);
        out.extend(buf.into_iter().map(|d| (d.to, d.msg)));
        r
    }
    fn destroy_space(&mut self, space: SpaceId) -> Result<()> {
        ShardedRegistry::destroy_space(self, space, None)
    }
    fn send(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition> {
        let mut buf = Vec::new();
        let r = ShardedRegistry::send(self, pattern, scope, msg, &mut buf);
        out.extend(buf.into_iter().map(|d| (d.to, d.msg)));
        r
    }
    fn broadcast(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition> {
        let mut buf = Vec::new();
        let r = ShardedRegistry::broadcast(self, pattern, scope, msg, &mut buf);
        out.extend(buf.into_iter().map(|d| (d.to, d.msg)));
        r
    }
    fn cancel_persistent(&mut self, space: SpaceId) -> Result<usize> {
        ShardedRegistry::cancel_persistent(self, space, None)
    }
    fn collect(&mut self) -> GcReport {
        ShardedRegistry::collect_garbage(self, &|_| Vec::new())
    }
    fn space_ids(&self) -> Vec<SpaceId> {
        ShardedRegistry::space_ids(self)
    }
    fn actor_ids(&self) -> Vec<ActorId> {
        ShardedRegistry::actor_ids(self)
    }
    fn info(&self, space: SpaceId) -> Option<SpaceInfo> {
        ShardedRegistry::space_info(self, space).ok()
    }
    fn pending_set(&self, space: SpaceId) -> Vec<(String, Msg, bool)> {
        self.with_space(space, pending_of).unwrap_or_default()
    }
    fn persistent_set(&self, space: SpaceId) -> Vec<(String, Msg, Vec<ActorId>)> {
        self.with_space(space, persistent_of).unwrap_or_default()
    }
    fn containers_of(&self, member: MemberId) -> Vec<SpaceId> {
        ShardedRegistry::containers_of(self, member)
    }
    fn resolve(&self, pattern: &Pattern, scope: SpaceId) -> Result<Vec<ActorId>> {
        ShardedRegistry::resolve(self, pattern, scope).map(|mut v| {
            v.sort();
            v
        })
    }
}

/// Applies one op to a coordinator. Returns a comparable outcome string
/// plus the sorted delivery multiset the op produced.
fn apply(
    c: &mut dyn Coordinator,
    pats: &[Pattern],
    op: &Op,
    spaces: &mut Vec<SpaceId>,
    actors: &mut Vec<ActorId>,
    record_ids: bool,
) -> (String, Deliveries) {
    fn idx<T: Copy>(v: &[T], i: usize) -> T {
        v[i % v.len()]
    }
    let mut out = Deliveries::new();
    let outcome = match *op {
        Op::CreateSpace => {
            let id = c.create_space();
            if record_ids {
                spaces.push(id);
            }
            format!("space {id:?}")
        }
        Op::CreateActor { host } => match c.create_actor(idx(spaces, host)) {
            Ok(id) => {
                if record_ids {
                    actors.push(id);
                }
                format!("actor {id:?}")
            }
            Err(e) => format!("{e:?}"),
        },
        Op::MakeActorVisible { actor, space, attr } => format!(
            "{:?}",
            c.make_visible(
                idx(actors, actor).into(),
                attrs(attr),
                idx(spaces, space),
                &mut out
            )
        ),
        Op::MakeSpaceVisible {
            child,
            parent,
            attr,
        } => format!(
            "{:?}",
            c.make_visible(
                idx(spaces, child).into(),
                attrs(attr),
                idx(spaces, parent),
                &mut out
            )
        ),
        Op::MakeActorInvisible { actor, space } => format!(
            "{:?}",
            c.make_invisible(idx(actors, actor).into(), idx(spaces, space))
        ),
        Op::MakeSpaceInvisible { child, parent } => format!(
            "{:?}",
            c.make_invisible(idx(spaces, child).into(), idx(spaces, parent))
        ),
        Op::ChangeAttr { actor, space, attr } => format!(
            "{:?}",
            c.change_attributes(
                idx(actors, actor).into(),
                attrs(attr),
                idx(spaces, space),
                &mut out
            )
        ),
        Op::DestroySpace { space } => {
            format!("{:?}", c.destroy_space(idx(spaces, space)))
        }
        Op::Send { pat: p, scope, msg } => {
            format!("{:?}", c.send(&pats[p], idx(spaces, scope), msg, &mut out))
        }
        Op::Broadcast { pat: p, scope, msg } => {
            format!(
                "{:?}",
                c.broadcast(&pats[p], idx(spaces, scope), msg, &mut out)
            )
        }
        Op::CancelPersistent { space } => {
            format!("{:?}", c.cancel_persistent(idx(spaces, space)))
        }
        Op::Collect => {
            let r = c.collect();
            format!(
                "gc spaces={:?} actors={:?}",
                r.collected_spaces, r.collected_actors
            )
        }
    };
    out.sort();
    (outcome, out)
}

/// Runs a sequence against the model and the coordinator and asserts
/// observational equivalence per op and on the final state.
fn run_differential(ops: &[Op], unmatched: UnmatchedPolicy) {
    let pats = patterns();
    let mut reference = Model::new(policy(unmatched));
    let mut sharded: ShardedRegistry<Msg> = ShardedRegistry::new(policy(unmatched));

    // Seed both with the same starting universe.
    let mut spaces = vec![ROOT_SPACE];
    let mut actors = Vec::new();
    for _ in 0..3 {
        let a = reference.create_space();
        let b = sharded.create_space(None);
        assert_eq!(a, b, "space id streams diverged at birth");
        spaces.push(a);
    }
    for _ in 0..4 {
        let a = reference.create_actor(ROOT_SPACE).unwrap();
        let b = ShardedRegistry::create_actor(&sharded, ROOT_SPACE, None).unwrap();
        assert_eq!(a, b, "actor id streams diverged at birth");
        actors.push(a);
    }

    for (i, op) in ops.iter().enumerate() {
        let mut s2 = spaces.clone();
        let mut a2 = actors.clone();
        let (ref_out, ref_del) = apply(&mut reference, &pats, op, &mut spaces, &mut actors, true);
        let (sh_out, sh_del) = apply(&mut sharded, &pats, op, &mut s2, &mut a2, false);
        assert_eq!(ref_out, sh_out, "op {i} {op:?}: outcomes diverged");
        assert_eq!(
            ref_del, sh_del,
            "op {i} {op:?}: delivery multisets diverged"
        );
    }

    // Final-state agreement.
    let ref_spaces = Coordinator::space_ids(&reference);
    let sh_spaces = Coordinator::space_ids(&sharded);
    assert_eq!(ref_spaces, sh_spaces, "space tables diverged");
    assert_eq!(
        Coordinator::actor_ids(&reference),
        Coordinator::actor_ids(&sharded),
        "actor tables diverged"
    );
    assert!(sharded.is_dag(), "sharded visibility relation has a cycle");

    for &s in &ref_spaces {
        assert_eq!(
            Coordinator::info(&reference, s),
            Coordinator::info(&sharded, s),
            "SpaceInfo diverged for {s:?}"
        );
        assert_eq!(
            Coordinator::pending_set(&reference, s),
            Coordinator::pending_set(&sharded, s),
            "suspended-message sets diverged for {s:?}"
        );
        assert_eq!(
            Coordinator::persistent_set(&reference, s),
            Coordinator::persistent_set(&sharded, s),
            "persistent-broadcast tables diverged for {s:?}"
        );
        assert_eq!(
            Coordinator::containers_of(&reference, s.into()),
            Coordinator::containers_of(&sharded, s.into()),
            "containers diverged for {s:?}"
        );
        for p in &pats {
            assert_eq!(
                Coordinator::resolve(&reference, p, s),
                Coordinator::resolve(&sharded, p, s),
                "resolve({p}) diverged in {s:?}"
            );
        }
    }
    for a in Coordinator::actor_ids(&reference) {
        assert_eq!(
            Coordinator::containers_of(&reference, a.into()),
            Coordinator::containers_of(&sharded, a.into()),
            "actor containers diverged for {a:?}"
        );
    }

    // Dead spaces answer identically too (NoSuchSpace on both sides).
    let live: BTreeSet<SpaceId> = ref_spaces.iter().copied().collect();
    for s in spaces.iter().filter(|s| !live.contains(s)) {
        assert!(Coordinator::info(&reference, *s).is_none());
        assert!(Coordinator::info(&sharded, *s).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Suspend-policy runs: unmatched messages park in the scope space and
    /// wake as visibility changes — the richest cross-shard path.
    #[test]
    fn sharded_equals_reference_suspend(ops in proptest::collection::vec(arb_op(), 0..70)) {
        run_differential(&ops, UnmatchedPolicy::Suspend);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Persistent-policy runs: broadcasts register exactly-once tables that
    /// must replay identically across shards.
    #[test]
    fn sharded_equals_reference_persistent(ops in proptest::collection::vec(arb_op(), 0..70)) {
        run_differential(&ops, UnmatchedPolicy::Persistent);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Discard and Error policies: the degenerate §5.6 modes must degrade
    /// the same way on both coordinators.
    #[test]
    fn sharded_equals_reference_discard(ops in proptest::collection::vec(arb_op(), 0..70)) {
        run_differential(&ops, UnmatchedPolicy::Discard);
    }

    #[test]
    fn sharded_equals_reference_error(ops in proptest::collection::vec(arb_op(), 0..70)) {
        run_differential(&ops, UnmatchedPolicy::Error);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Churn runs: repeated wildcard sends and broadcasts between
    /// membership changes, where a stale resolution memo would show.
    #[test]
    fn sharded_equals_reference_under_churn(ops in proptest::collection::vec(arb_churn_op(), 0..70)) {
        run_differential(&ops, UnmatchedPolicy::Suspend);
    }
}
