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
//! the worst case), one walk descends the membership tree. Each space keeps
//! its attributes in a path-ordered index, so the pattern's *literal run*
//! (its leading atoms, [`Pattern::literal_run`]) is matched by seeking, not
//! scanning: the walk descends into sub-spaces registered under a proper
//! prefix of the run, carrying the rest of it, then visits only the index
//! range of attributes that start with the run, stepping the pattern NFA's
//! live [`StateSet`] over each one's remaining atoms. A literal pattern
//! takes no NFA step at all; a leading `**` has an empty run and scans the
//! whole index. Past the run, sub-spaces are descended into with their
//! post-prefix state sets, and dead state sets prune whole subtrees. The
//! visibility relation is a DAG (§5.7), so the walk terminates; a depth
//! limit additionally bounds work.
//!
//! A pattern's state set is stored inline (up to
//! [`INLINE_STATES`](actorspace_pattern::matcher::INLINE_STATES) NFA
//! states), so forking it per key and stepping it over the key's atoms
//! allocates nothing; matched members are pushed to one `Vec`, sorted and
//! deduplicated once. A resolve therefore allocates a fixed number of times
//! however many keys it visits, apart from the result's growth. Within one
//! scan, every key whose next atom no label of the pattern names takes the
//! same first step, so that step is computed once per scan: the replica
//! keys `svc/r0 … svc/r63` under `svc/*` share it.
//!
//! A send or broadcast often needs no walk at all. When its scope has no
//! visible sub-spaces, its pattern is not literal and the scope has no
//! match filter, the coordinator first asks the scope's resolution memo
//! ([`Space`]): a small map from a compiled pattern, keyed on body identity
//! ([`Pattern::same`]), to the sorted candidate list its walk returned.
//! Such a walk reads only the scope's own index, so its answer can move
//! only through the space's `add_member`, `remove_member`,
//! `set_attributes`, `set_match_filter` and `set_policy`, and each of them
//! clears the memo (every visibility change is an ordered, applied event,
//! §7.3). `resolve` and `resolve_spaces` always walk: they are what E12 and
//! `alloc_free.rs` time and count. A pattern compiled anew for each send
//! never hits, and on a hit the sampled `core.match_ns` times the lookup,
//! not a walk.

use std::collections::HashSet;
use std::ops::Bound;

use actorspace_atoms::{Atom, Path};
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
    collect(store, pattern, space, |m| match m {
        MemberId::Actor(a) => Some(a),
        MemberId::Space(_) => None,
    })
}

/// Resolves `pattern` to matching *spaces* — §5.3: "the actorSpace
/// specification … may itself be pattern based." The search scope is
/// `space`, descending as for actors.
pub(crate) fn resolve_spaces_in<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
) -> Result<Vec<SpaceId>> {
    collect(store, pattern, space, |m| match m {
        MemberId::Space(s) => Some(s),
        MemberId::Actor(_) => None,
    })
}

/// The sorted, deduplicated ids `pick` keeps from the members `pattern`
/// matches: one `Vec`, sorted once, rather than a hash set.
fn collect<M, T: Ord>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
    pick: impl Fn(MemberId) -> Option<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    resolve(store, pattern, space, |m| out.extend(pick(m)))?;
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Reports every member `pattern` matches from `space` (actors admitted by
/// their space's match filter, spaces unfiltered) to `found`, possibly
/// more than once.
fn resolve<M>(
    store: &impl SpaceStore<M>,
    pattern: &Pattern,
    space: SpaceId,
    found: impl FnMut(MemberId),
) -> Result<()> {
    let root = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
    let after_run = (!pattern.is_literal()).then(|| {
        pattern
            .literal_run()
            .iter()
            .fold(pattern.start(), |st, &a| st.advance(pattern.nfa(), a))
    });
    Walk {
        store,
        pattern,
        after_run: after_run.as_ref(),
        max_depth: root.policy().max_match_depth,
        visited: HashSet::new(),
        found,
    }
    .walk(space, At::Run(0), 0)
}

/// Where a walk stands in the pattern on entering a space: inside the
/// literal run (at this offset), or past it with these live NFA states.
#[derive(Clone, PartialEq, Eq, Hash)]
enum At {
    Run(usize),
    Nfa(StateSet),
}

/// The state set every key of one index scan starts from, and, once
/// computed, its successor for the atoms no label of the pattern names:
/// those all step alike ([`Pattern::names`]), so the keys whose next atom
/// is one of them — every replica key under `svc/*` — share one step.
struct ScanStart {
    st: StateSet,
    unnamed: Option<StateSet>,
}

impl ScanStart {
    fn new(st: StateSet) -> ScanStart {
        ScanStart { st, unnamed: None }
    }

    fn advance(&mut self, pattern: &Pattern, a: Atom) -> StateSet {
        if pattern.names(a) {
            return self.st.advance(pattern.nfa(), a);
        }
        let st = &self.st;
        self.unnamed
            .get_or_insert_with(|| st.advance(pattern.nfa(), a))
            .clone()
    }
}

/// One resolution's shared context.
struct Walk<'a, S, F> {
    store: &'a S,
    pattern: &'a Pattern,
    /// The NFA states after the whole literal run; `None` for a literal
    /// pattern, which is answered by exact keys alone.
    after_run: Option<&'a StateSet>,
    max_depth: usize,
    /// Visited-state dedup: terminates cyclic visibility graphs (§5.7's
    /// tagging alternative) and prunes diamond re-walks.
    visited: HashSet<(SpaceId, At)>,
    found: F,
}

impl<'a, S, F: FnMut(MemberId)> Walk<'a, S, F> {
    fn walk<M: 'a>(&mut self, space: SpaceId, at: At, depth: usize) -> Result<()>
    where
        S: SpaceStore<M>,
    {
        if !self.visited.insert((space, at.clone())) {
            return Ok(());
        }
        let store: &'a S = self.store;
        let sp = store.get_space(space).ok_or(Error::NoSuchSpace(space))?;
        let i = match at {
            At::Nfa(st) => {
                let mut from = ScanStart::new(st);
                for (attr, members) in sp.index() {
                    self.step(sp, attr, attr.atoms(), members, &mut from, depth)?;
                }
                return Ok(());
            }
            At::Run(i) => i,
        };
        let run: &'a [Atom] = self.pattern.literal_run();
        let rest = &run[i..];
        // Sub-spaces registered under a proper prefix of the rest of the
        // run: the run continues inside them.
        if sp.sub_spaces() > 0 {
            for j in 0..rest.len() {
                for &m in sp.index().get(&rest[..j]).into_iter().flatten() {
                    if let MemberId::Space(sub) = m {
                        self.descend(sub, At::Run(i + j), depth)?;
                    }
                }
            }
        }
        match self.after_run {
            // A literal matches only the attribute equal to the rest of it.
            None => {
                if let Some((attr, members)) = sp.index().get_key_value(rest) {
                    let next = At::Run(run.len());
                    for &m in members {
                        self.member(sp, m, attr, true, &next, depth)?;
                    }
                }
            }
            // Otherwise every attribute starting with the rest of the run
            // (one contiguous range) continues on the NFA.
            Some(after_run) => {
                let range = sp
                    .index()
                    .range::<[Atom], _>((Bound::Included(rest), Bound::Unbounded))
                    .take_while(|(attr, _)| attr.atoms().starts_with(rest));
                let mut from = ScanStart::new(after_run.clone());
                for (attr, members) in range {
                    let tail = &attr.atoms()[rest.len()..];
                    self.step(sp, attr, tail, members, &mut from, depth)?;
                }
            }
        }
        Ok(())
    }

    /// Steps `from` over `atoms` (the unmatched tail of `attr`) and, unless
    /// the match dies, reports or descends into `attr`'s members.
    #[allow(clippy::too_many_arguments)] // the walk's full position
    fn step<M: 'a>(
        &mut self,
        sp: &Space<M>,
        attr: &Path,
        atoms: &[Atom],
        members: &[MemberId],
        from: &mut ScanStart,
        depth: usize,
    ) -> Result<()>
    where
        S: SpaceStore<M>,
    {
        let (pattern, nfa) = (self.pattern, self.pattern.nfa());
        let mut st = match atoms.split_first() {
            Some((&a, _)) => from.advance(pattern, a),
            None => from.st.clone(),
        };
        for &a in atoms.iter().skip(1) {
            if st.is_dead() {
                return Ok(());
            }
            st = st.advance(nfa, a);
        }
        if st.is_dead() {
            return Ok(());
        }
        let accepting = st.is_accepting(nfa);
        let next = At::Nfa(st);
        for &m in members {
            self.member(sp, m, attr, accepting, &next, depth)?;
        }
        Ok(())
    }

    /// One member under a fully matched attribute: report it if the
    /// pattern accepts here, and descend into it if it is a space.
    fn member<M: 'a>(
        &mut self,
        sp: &Space<M>,
        m: MemberId,
        attr: &Path,
        accepting: bool,
        next: &At,
        depth: usize,
    ) -> Result<()>
    where
        S: SpaceStore<M>,
    {
        match m {
            MemberId::Actor(_) => {
                if accepting && sp.match_filter().is_none_or(|f| f(self.pattern, m, attr)) {
                    (self.found)(m);
                }
                Ok(())
            }
            MemberId::Space(sub) => {
                if accepting {
                    (self.found)(m);
                }
                self.descend(sub, next.clone(), depth)
            }
        }
    }

    /// Structured attribute: continue matching inside a sub-space. Missing
    /// sub-spaces (e.g. remote stubs) are skipped rather than failing the
    /// whole resolve.
    fn descend<M: 'a>(&mut self, sub: SpaceId, at: At, depth: usize) -> Result<()>
    where
        S: SpaceStore<M>,
    {
        if depth < self.max_depth && self.store.get_space(sub).is_some() {
            self.walk(sub, at, depth + 1)?;
        }
        Ok(())
    }
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

    #[test]
    fn resolve_by_exact_attribute() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
        let mut k = Vec::new();
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
    fn literals_match_through_prefixed_and_transparent_sub_spaces() {
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let a = r.create_actor(inner, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("fib")], inner, None, &mut k)
            .unwrap();
        r.make_visible(inner.into(), vec![path("srv")], outer, None, &mut k)
            .unwrap();
        // `srv/fib` is literal; it must match the nested actor.
        assert!(pattern("srv/fib").is_literal());
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
    fn resolution_tracks_attribute_changes() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
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
    fn a_literal_does_not_match_a_longer_attribute() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("srv/fib")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("srv"), s).unwrap(), vec![]);
        assert_eq!(r.resolve(&pattern("srv/fib"), s).unwrap(), vec![a]);
    }

    #[test]
    fn a_literal_skips_keys_that_only_extend_it() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let c = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("x/y")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("x/y/z")], s, None, &mut k)
            .unwrap();
        r.make_visible(c.into(), vec![path("x/y/z/w")], s, None, &mut k)
            .unwrap();
        assert_eq!(r.resolve(&pattern("x/y"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("x/y/z"), s).unwrap(), vec![b]);
        assert_eq!(r.resolve(&pattern("x"), s).unwrap(), vec![]);
    }

    #[test]
    fn a_literal_is_found_through_prefix_and_exact_sub_spaces() {
        let r = reg();
        let outer = r.create_space(None);
        let by_prefix = r.create_space(None);
        let by_exact = r.create_space(None);
        let a = r.create_actor(by_prefix, None).unwrap();
        let b = r.create_actor(by_exact, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("fib")], by_prefix, None, &mut k)
            .unwrap();
        r.make_visible(by_prefix.into(), vec![path("srv")], outer, None, &mut k)
            .unwrap();
        r.make_visible(
            b.into(),
            vec![actorspace_atoms::Path::empty()],
            by_exact,
            None,
            &mut k,
        )
        .unwrap();
        r.make_visible(by_exact.into(), vec![path("srv/fib")], outer, None, &mut k)
            .unwrap();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(r.resolve(&pattern("srv/fib"), outer).unwrap(), want);
        assert_eq!(r.resolve(&pattern("srv/*"), outer).unwrap(), want);
        assert_eq!(
            r.resolve_spaces(&pattern("srv/fib"), outer).unwrap(),
            vec![by_exact]
        );
        assert_eq!(
            r.resolve_spaces(&pattern("srv"), outer).unwrap(),
            vec![by_prefix]
        );
    }

    #[test]
    fn a_run_stops_at_the_first_key_outside_it() {
        // Atoms order by interning, so `edge-q` (interned between the run's
        // atoms) sorts `p/q/leaf` just before the `p/r` range and `edge-t`
        // sorts `p/t/leaf` just after it.
        for name in ["edge-p", "edge-q", "edge-r", "edge-t"] {
            actorspace_atoms::atom(name);
        }
        let r = reg();
        let s = r.create_space(None);
        let mut k = Vec::new();
        let mut ids = Vec::new();
        for attr in [
            "edge-p/edge-q/leaf",
            "edge-p/edge-r/leaf",
            "edge-p/edge-t/leaf",
        ] {
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path(attr)], s, None, &mut k)
                .unwrap();
            ids.push(a);
        }
        assert_eq!(
            r.resolve(&pattern("edge-p/edge-r/*"), s).unwrap(),
            vec![ids[1]]
        );
        assert_eq!(
            r.resolve(&pattern("edge-p/edge-r/leaf"), s).unwrap(),
            vec![ids[1]]
        );
        assert_eq!(r.resolve(&pattern("edge-p/*/leaf"), s).unwrap(), ids);
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
        let mut k = Vec::new();
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
        let mut out = Vec::new();
        r.broadcast(&pattern("**/w"), s, 1, &mut out).unwrap();
        let delivered = out.len();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn match_filter_customizes_matching_rules() {
        use std::sync::Arc;
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
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
            !is_deprecated || pat.is_literal()
        });
        r.set_match_filter(s, Some(filter), None).unwrap();
        assert_eq!(r.resolve(&pattern("svc/*"), s).unwrap(), vec![a]);
        assert_eq!(r.resolve(&pattern("svc/deprecated"), s).unwrap(), vec![b]);
        // Clearing restores default matching.
        r.set_match_filter(s, None, None).unwrap();
        assert_eq!(r.resolve(&pattern("svc/*"), s).unwrap().len(), 2);
    }

    #[test]
    fn match_filter_applies_to_literal_patterns() {
        use std::sync::Arc;
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("hidden/one")], s, None, &mut k)
            .unwrap();
        let filter: crate::space::MatchFilter = Arc::new(|_pat, _member, attr| {
            attr.iter().next() != Some(actorspace_atoms::atom("hidden"))
        });
        r.set_match_filter(s, Some(filter), None).unwrap();
        // A literal pattern must also respect the rule.
        assert!(pattern("hidden/one").is_literal());
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
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.report_load(s, a, 100).unwrap();
        r.report_load(s, b, 1).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            r.send(&pattern("w"), s, 1, &mut out).unwrap();
        }
        let picks: Vec<ActorId> = out.iter().map(|d| d.to).collect();
        assert!(picks.iter().all(|&p| p == b), "{picks:?}");
        r.report_load(s, b, 1000).unwrap();
        r.send(&pattern("w"), s, 1, &mut out).unwrap();
        let picks: Vec<ActorId> = out.iter().map(|d| d.to).collect();
        assert_eq!(*picks.last().unwrap(), a);
    }

    #[test]
    fn forbid_policy_still_rejects_cycles() {
        let r = reg(); // default Forbid
        let s = r.create_space(None);
        let mut k = Vec::new();
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
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_invisible(a.into(), s, None).unwrap();
        assert_eq!(r.resolve(&pattern("**"), s).unwrap(), vec![]);
    }
}
