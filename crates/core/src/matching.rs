//! Pattern resolution: mapping `pattern @ space` to actor mail addresses.
//!
//! "Abstractly, each actorSpace maps a pattern to a set of actor mail
//! addresses by matching on its list of registered attributes of visible
//! actors" (§5.1). With nested spaces, attributes combine with `/` into
//! *structured attributes* (§7.1): an actor registered as `fib` inside a
//! space registered as `srv` is reachable from the outer space by the
//! pattern `srv/fib`.
//!
//! Rather than materializing every joined attribute path (exponential in
//! the worst case), resolution walks the membership tree carrying the
//! pattern NFA's live [`StateSet`]: each attribute advances the state set
//! atom by atom, actor members are collected when the set accepts, and
//! space members are descended into with the post-prefix state set. Dead
//! state sets prune whole subtrees. The visibility relation is a DAG
//! (§5.7), so the walk terminates; a depth limit additionally bounds work.

use std::collections::HashSet;

use actorspace_pattern::{Pattern, StateSet};

use crate::error::{Error, Result};
use crate::ids::{ActorId, MemberId, SpaceId};
use crate::space::Space;

/// Read access to spaces during a resolution walk: the coordinator's set of
/// locked shards (or its single-shard fast path).
pub(crate) trait SpaceStore<M> {
    /// The space, if it exists in this view.
    fn get_space(&self, id: SpaceId) -> Option<&Space<M>>;
}

/// Resolves `pattern` in `space` to the set of matching visible actors,
/// descending through visible sub-spaces per the structured-attribute
/// rule. The result is deduplicated and sorted (an actor visible via
/// several attribute paths is returned once).
pub(crate) fn resolve_actors<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
) -> Result<Vec<ActorId>> {
    let root = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    let max_depth = root.policy().max_match_depth;
    let mut out: HashSet<ActorId> = HashSet::new();
    // Fast path: a literal pattern matches exactly one attribute path,
    // so the per-space inverted index answers it without an NFA walk.
    // Attributes are always literal, so this is complete, including
    // through nested spaces (prefix-stripping recursion).
    if root.policy().use_literal_index {
        if let Some(lit) = pattern.as_literal() {
            let mut visited = HashSet::new();
            walk_literal(
                store,
                pattern,
                &lit,
                space,
                0,
                max_depth,
                &mut visited,
                &mut |a| {
                    out.insert(a);
                },
            )?;
            let mut v: Vec<ActorId> = out.into_iter().collect();
            v.sort_unstable();
            return Ok(v);
        }
    }
    let mut visited = HashSet::new();
    walk(
        store,
        pattern,
        space,
        pattern.start(),
        0,
        max_depth,
        &mut visited,
        &mut |a| {
            out.insert(a);
        },
    )?;
    let mut v: Vec<ActorId> = out.into_iter().collect();
    v.sort_unstable();
    Ok(v)
}

/// Resolves `pattern` to matching *spaces* — §5.3: "the actorSpace
/// specification … may itself be pattern based." The search scope is
/// `space`, descending as for actors.
pub(crate) fn resolve_spaces_in<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
) -> Result<Vec<SpaceId>> {
    let root = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    let max_depth = root.policy().max_match_depth;
    let mut out: HashSet<SpaceId> = HashSet::new();
    let mut visited = HashSet::new();
    walk_spaces(
        store,
        pattern,
        space,
        pattern.start(),
        0,
        max_depth,
        &mut visited,
        &mut |s| {
            out.insert(s);
        },
    )?;
    let mut v: Vec<SpaceId> = out.into_iter().collect();
    v.sort_unstable();
    Ok(v)
}

/// Literal resolution: exact index hit for direct actors, plus recursion
/// into sub-spaces whose (literal) attribute prefixes the target path.
#[allow(clippy::too_many_arguments)] // internal recursion carries its full context
fn walk_literal<M>(
    store: &impl SpaceStore<M>,
    original: &Pattern,
    target: &actorspace_atoms::Path,
    space: SpaceId,
    depth: usize,
    max_depth: usize,
    visited: &mut HashSet<(SpaceId, actorspace_atoms::Path)>,
    found: &mut impl FnMut(ActorId),
) -> Result<()> {
    // Visited-state dedup: terminates cyclic visibility graphs (§5.7's
    // tagging alternative) and prunes diamond re-walks.
    if !visited.insert((space, target.clone())) {
        return Ok(());
    }
    let sp = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    for member in sp.members_with_attr(target) {
        if let MemberId::Actor(a) = member {
            // Index hits have local attribute == remaining target, so a
            // custom matching rule sees the same (pattern, member, attr)
            // triple the NFA path would give it.
            let admitted = sp
                .match_filter()
                .map(|f| f(original, *member, target))
                .unwrap_or(true);
            if admitted {
                found(*a);
            }
        }
    }
    if depth >= max_depth {
        return Ok(());
    }
    for sub in sp.space_members() {
        if store.get_space(sub).is_none() {
            continue;
        }
        let Some(attrs) = sp.members().get(&MemberId::Space(sub)) else {
            continue;
        };
        for attr in attrs {
            if let Some(rest) = target.strip_prefix(attr) {
                walk_literal(
                    store,
                    original,
                    &rest,
                    sub,
                    depth + 1,
                    max_depth,
                    visited,
                    found,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)] // internal recursion carries its full context
fn walk<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
    states: StateSet,
    depth: usize,
    max_depth: usize,
    visited: &mut HashSet<(SpaceId, StateSet)>,
    found: &mut impl FnMut(ActorId),
) -> Result<()> {
    // Visited-state dedup (see `walk_literal`).
    if !visited.insert((space, states.clone())) {
        return Ok(());
    }
    let sp = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    for (member, attrs) in sp.members() {
        for attr in attrs {
            // Advance the NFA through this attribute's atoms.
            let mut st = states.clone();
            let mut dead = false;
            for atom in attr.iter() {
                st = st.advance(pattern.nfa(), atom);
                if st.is_dead() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            match *member {
                MemberId::Actor(a) => {
                    if st.is_accepting(pattern.nfa()) {
                        let admitted = sp
                            .match_filter()
                            .map(|f| f(pattern, *member, attr))
                            .unwrap_or(true);
                        if admitted {
                            found(a);
                        }
                    }
                }
                MemberId::Space(sub) => {
                    if depth < max_depth {
                        // Structured attribute: continue matching inside
                        // the sub-space with the advanced state set.
                        // Missing sub-spaces (e.g. remote stubs) are
                        // skipped rather than failing the whole resolve.
                        if store.get_space(sub).is_some() {
                            walk(
                                store,
                                pattern,
                                sub,
                                st,
                                depth + 1,
                                max_depth,
                                visited,
                                found,
                            )?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)] // internal recursion carries its full context
fn walk_spaces<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
    states: StateSet,
    depth: usize,
    max_depth: usize,
    visited: &mut HashSet<(SpaceId, StateSet)>,
    found: &mut impl FnMut(SpaceId),
) -> Result<()> {
    if !visited.insert((space, states.clone())) {
        return Ok(());
    }
    let sp = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    for (member, attrs) in sp.members() {
        let MemberId::Space(sub) = *member else {
            continue;
        };
        for attr in attrs {
            let mut st = states.clone();
            let mut dead = false;
            for atom in attr.iter() {
                st = st.advance(pattern.nfa(), atom);
                if st.is_dead() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            if st.is_accepting(pattern.nfa()) {
                found(sub);
            }
            if depth < max_depth && store.get_space(sub).is_some() {
                walk_spaces(
                    store,
                    pattern,
                    sub,
                    st,
                    depth + 1,
                    max_depth,
                    visited,
                    found,
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ROOT_SPACE;
    use crate::policy::ManagerPolicy;
    use crate::ShardedRegistry;
    use actorspace_atoms::path;
    use actorspace_pattern::pattern;

    fn reg() -> ShardedRegistry<u32> {
        ShardedRegistry::new(ManagerPolicy::default())
    }

    fn sink() -> impl FnMut(ActorId, u32, Option<&crate::delivery::Route>) {
        |_, _, _| {}
    }

    #[test]
    fn resolve_by_exact_attribute() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("fib")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("fact")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("fib"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("fact"), s).unwrap(), vec![b]);
        assert_eq!(r.resolve(&pattern("sqrt"), s).unwrap(), vec![]);
    }

    #[test]
    fn star_matches_all_single_attribute_actors() {
        // The paper's `send(*@ProcPool, job, self)`.
        let r = reg();
        let pool = r.create_space(None);
        let mut k = sink();
        let mut all = Vec::new();
        for i in 0..5 {
            let w = r.create_actor(pool, None).unwrap();
            r.make_visible(
                w.into(),
                vec![path(&format!("worker-{i}"))],
                pool,
                None,
                &mut k,
            )
            .unwrap();
            all.push(w);
        }
        all.sort_unstable();
        assert_eq!(r.resolve(&pattern("*"), pool).unwrap(), all);
        assert_eq!(r.resolve(&Pattern::any(), pool).unwrap(), all);
    }

    #[test]
    fn matching_is_scoped_to_the_space() {
        // §5.2: patterns match only against attributes visible in the
        // *specified* actorSpace.
        let r = reg();
        let s1 = r.create_space(None);
        let s2 = r.create_space(None);
        let a = r.create_actor(s1, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], s1, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("w"), s1).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("w"), s2).unwrap(), vec![]);
        assert_eq!(r.resolve(&pattern("w"), ROOT_SPACE).unwrap(), vec![]);
    }

    #[test]
    fn structured_attributes_descend_into_subspaces() {
        // Actor `fib` in space T; T visible as `srv` in S ⇒ `srv/fib` from S.
        let r = reg();
        let s = r.create_space(None);
        let t = r.create_space(None);
        let a = r.create_actor(t, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("fib")], t, None, &mut k)
            .unwrap();
        r.make_visible(t.into(), vec![path("srv")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("srv/fib"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("srv/*"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("**"), s).unwrap(), vec![a]);
        // Bare `fib` does not match from S (prefix required)...
        assert_eq!(r.resolve(&pattern("fib"), s).unwrap(), vec![]);
        // ...but does from T.
        assert_eq!(r.resolve(&pattern("fib"), t).unwrap(), vec![a]);
    }

    #[test]
    fn multi_level_nesting() {
        // wan ⊃ lan ⊃ host: actor reachable as wan-pattern from the top.
        let r = reg();
        let wan = r.create_space(None);
        let lan = r.create_space(None);
        let host = r.create_space(None);
        let a = r.create_actor(host, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("cpu")], host, None, &mut k)
            .unwrap();
        r.make_visible(host.into(), vec![path("host1")], lan, None, &mut k)
            .unwrap();
        r.make_visible(lan.into(), vec![path("lan-a")], wan, None, &mut k)
            .unwrap();
        assert_eq!(
            r.resolve(&pattern("lan-a/host1/cpu"), wan).unwrap(),
            vec![a]
        );
        assert_eq!(r.resolve(&pattern("**/cpu"), wan).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("lan-a/**"), wan).unwrap(), vec![a]);
    }

    #[test]
    fn empty_attribute_makes_nesting_transparent() {
        // A sub-space registered under the empty path contributes no prefix:
        // its members match as if they were direct members.
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let a = r.create_actor(inner, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], inner, None, &mut k)
            .unwrap();
        r.make_visible(
            inner.into(),
            vec![actorspace_atoms::Path::empty()],
            outer,
            None,
            &mut k,
        )
        .unwrap();
        assert_eq!(r.resolve(&pattern("w"), outer).unwrap(), vec![a]);
    }

    #[test]
    fn actor_visible_via_multiple_paths_is_returned_once() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("x/y"), path("x/z")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("x/*"), s).unwrap(), vec![a]);
    }

    #[test]
    fn diamond_overlap_deduplicates() {
        // inner visible in two mid spaces, both visible in top.
        let r = reg();
        let top = r.create_space(None);
        let m1 = r.create_space(None);
        let m2 = r.create_space(None);
        let inner = r.create_space(None);
        let a = r.create_actor(inner, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], inner, None, &mut k)
            .unwrap();
        r.make_visible(inner.into(), vec![path("i")], m1, None, &mut k)
            .unwrap();
        r.make_visible(inner.into(), vec![path("i")], m2, None, &mut k)
            .unwrap();
        r.make_visible(m1.into(), vec![path("m")], top, None, &mut k)
            .unwrap();
        r.make_visible(m2.into(), vec![path("m")], top, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("m/i/w"), top).unwrap(), vec![a]);
    }

    #[test]
    fn depth_limit_bounds_descent() {
        let policy = ManagerPolicy {
            max_match_depth: 1,
            ..Default::default()
        };
        let r: ShardedRegistry<u32> = ShardedRegistry::new(policy);
        let top = r.create_space(None);
        let mid = r.create_space(None);
        let bot = r.create_space(None);
        let a = r.create_actor(bot, None).unwrap();
        let mut k = |_: ActorId, _: u32, _: Option<&crate::delivery::Route>| {};
        r.make_visible(a.into(), vec![path("w")], bot, None, &mut k)
            .unwrap();
        r.make_visible(bot.into(), vec![path("b")], mid, None, &mut k)
            .unwrap();
        r.make_visible(mid.into(), vec![path("m")], top, None, &mut k)
            .unwrap();
        // Depth 1 allows top → mid but not mid → bot.
        assert_eq!(r.resolve(&pattern("m/b/w"), top).unwrap(), vec![]);
        // From mid, bot is at depth 1 — reachable.
        assert_eq!(r.resolve(&pattern("b/w"), mid).unwrap(), vec![a]);
    }

    #[test]
    fn resolve_spaces_finds_spaces_by_pattern() {
        let r = reg();
        let s = r.create_space(None);
        let t1 = r.create_space(None);
        let t2 = r.create_space(None);
        let mut k = sink();
        r.make_visible(t1.into(), vec![path("pool/alpha")], s, None, &mut k)
            .unwrap();
        r.make_visible(t2.into(), vec![path("pool/beta")], s, None, &mut k)
            .unwrap();
        let mut want = vec![t1, t2];
        want.sort_unstable();
        assert_eq!(r.resolve_spaces(&pattern("pool/*"), s).unwrap(), want);
        assert_eq!(
            r.resolve_spaces(&pattern("pool/beta"), s).unwrap(),
            vec![t2]
        );
        assert_eq!(
            r.resolve_space_pattern(&pattern("pool/beta"), s).unwrap(),
            t2
        );
        assert!(r.resolve_space_pattern(&pattern("nope"), s).is_err());
    }

    #[test]
    fn resolve_on_missing_space_errors() {
        let r = reg();
        assert!(matches!(
            r.resolve(&pattern("x"), SpaceId(404)),
            Err(Error::NoSuchSpace(_))
        ));
    }

    #[test]
    fn literal_fast_path_descends_nested_spaces() {
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let a = r.create_actor(inner, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("fib")], inner, None, &mut k)
            .unwrap();
        r.make_visible(inner.into(), vec![path("srv")], outer, None, &mut k)
            .unwrap();
        // `srv/fib` is literal → index path; must match the nested actor.
        assert!(pattern("srv/fib").as_literal().is_some());
        assert_eq!(r.resolve(&pattern("srv/fib"), outer).unwrap(), vec![a]);
        // An empty-attribute (transparent) nesting also works literally.
        let ghost = r.create_space(None);
        let b = r.create_actor(ghost, None).unwrap();
        r.make_visible(b.into(), vec![path("srv/fib")], ghost, None, &mut k)
            .unwrap();
        r.make_visible(
            ghost.into(),
            vec![actorspace_atoms::Path::empty()],
            outer,
            None,
            &mut k,
        )
        .unwrap();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(r.resolve(&pattern("srv/fib"), outer).unwrap(), want);
    }

    #[test]
    fn literal_index_tracks_attribute_changes() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("old")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("old"), s).unwrap(), vec![a]);
        r.change_attributes(a.into(), vec![path("new")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("old"), s).unwrap(), vec![]);
        assert_eq!(r.resolve(&pattern("new"), s).unwrap(), vec![a]);
        r.make_invisible(a.into(), s, None).unwrap();
        assert_eq!(r.resolve(&pattern("new"), s).unwrap(), vec![]);
    }

    #[test]
    fn disabling_the_index_gives_identical_results() {
        let policy = ManagerPolicy {
            use_literal_index: false,
            ..Default::default()
        };
        let r: ShardedRegistry<u32> = ShardedRegistry::new(policy);
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = |_: ActorId, _: u32, _: Option<&crate::delivery::Route>| {};
        r.make_visible(a.into(), vec![path("x/y")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("x/y"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("x/z"), s).unwrap(), vec![]);
    }

    #[test]
    fn tolerated_cycles_resolve_to_finite_sets() {
        // §5.7's alternative strategy: allow the cycle, dedup during
        // resolution. Even a self-visible space yields each actor once.
        use crate::policy::CyclePolicy;
        let policy = ManagerPolicy {
            cycles: CyclePolicy::TolerateWithDedup,
            ..Default::default()
        };
        let r: ShardedRegistry<u32> = ShardedRegistry::new(policy);
        let s = r.create_space(None);
        let t = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = |_: ActorId, _: u32, _: Option<&crate::delivery::Route>| {};
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        // Mutual visibility — would be rejected under Forbid.
        r.make_visible(s.into(), vec![path("peer")], t, None, &mut k)
            .unwrap();
        r.make_visible(t.into(), vec![path("peer")], s, None, &mut k)
            .unwrap();
        // Self-visibility too.
        r.make_visible(s.into(), vec![path("me")], s, None, &mut k)
            .unwrap();

        // The paper's catastrophe scenario: a broadcast matching through
        // the cycle. Resolution terminates and returns `a` exactly once.
        assert_eq!(r.resolve(&pattern("**/w"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("w"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("peer/w"), t).unwrap(), vec![a]);
        // Deep literal through the self-loop.
        assert_eq!(r.resolve(&pattern("me/me/me/w"), s).unwrap(), vec![a]);

        // Delivery counts once per recipient.
        let mut delivered = 0u32;
        let mut sink = |_: ActorId, _: u32, _: Option<&crate::delivery::Route>| delivered += 1;
        r.broadcast(&pattern("**/w"), s, 1, &mut sink).unwrap();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn match_filter_customizes_matching_rules() {
        use std::sync::Arc;
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("svc/stable")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("svc/deprecated")], s, None, &mut k)
            .unwrap();
        // Without a filter, both match the wildcard.
        assert_eq!(r.resolve(&pattern("svc/*"), s).unwrap().len(), 2);
        // A rule hiding `deprecated` attributes from wildcard queries while
        // still answering exact requests — a matching-rule customization no
        // plain pattern can express.
        let filter: crate::space::MatchFilter = Arc::new(|pat, _member, attr| {
            let is_deprecated = attr
                .iter()
                .any(|at| at == actorspace_atoms::atom("deprecated"));
            !is_deprecated || pat.as_literal().is_some()
        });
        r.set_match_filter(s, Some(filter), None).unwrap();
        assert_eq!(r.resolve(&pattern("svc/*"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("svc/deprecated"), s).unwrap(), vec![b]);
        // Clearing restores default matching.
        r.set_match_filter(s, None, None).unwrap();
        assert_eq!(r.resolve(&pattern("svc/*"), s).unwrap().len(), 2);
    }

    #[test]
    fn match_filter_applies_on_the_literal_fast_path() {
        use std::sync::Arc;
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("hidden/one")], s, None, &mut k)
            .unwrap();
        let filter: crate::space::MatchFilter = Arc::new(|_pat, _member, attr| {
            attr.iter().next() != Some(actorspace_atoms::atom("hidden"))
        });
        r.set_match_filter(s, Some(filter), None).unwrap();
        // Literal pattern (index path) must also respect the rule.
        assert!(pattern("hidden/one").as_literal().is_some());
        assert_eq!(r.resolve(&pattern("hidden/one"), s).unwrap(), vec![]);
    }

    #[test]
    fn report_load_steers_least_loaded_selection() {
        use crate::policy::SelectionPolicy;
        let policy = ManagerPolicy {
            selection: SelectionPolicy::LeastLoaded,
            ..Default::default()
        };
        let r: ShardedRegistry<u32> = ShardedRegistry::new(policy);
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut k = |_: ActorId, _: u32, _: Option<&crate::delivery::Route>| {};
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.report_load(s, a, 100).unwrap();
        r.report_load(s, b, 1).unwrap();
        let mut picks = Vec::new();
        for _ in 0..3 {
            let mut sink = |to: ActorId, _: u32, _: Option<&crate::delivery::Route>| picks.push(to);
            r.send(&pattern("w"), s, 1, &mut sink).unwrap();
        }
        assert!(picks.iter().all(|&p| p == b), "{picks:?}");
        r.report_load(s, b, 1000).unwrap();
        let mut sink2 = |to: ActorId, _: u32, _: Option<&crate::delivery::Route>| picks.push(to);
        r.send(&pattern("w"), s, 1, &mut sink2).unwrap();
        assert_eq!(*picks.last().unwrap(), a);
    }

    #[test]
    fn forbid_policy_still_rejects_cycles() {
        let r = reg(); // default Forbid
        let s = r.create_space(None);
        let mut k = sink();
        assert!(matches!(
            r.make_visible(s.into(), vec![path("me")], s, None, &mut k),
            Err(Error::WouldCycle { .. })
        ));
    }

    #[test]
    fn invisible_actor_never_matches() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_invisible(a.into(), s, None).unwrap();
        assert_eq!(r.resolve(&pattern("**"), s).unwrap(), vec![]);
    }
}
