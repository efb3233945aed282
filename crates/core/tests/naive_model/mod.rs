//! A naive, executable model of the ActorSpace semantics of §5, written
//! only to be compared against the shipping coordinator.
//!
//! It is deliberately the obvious implementation: plain ordered maps and
//! linear scans, no locks, no literal index, no metrics, no traces, no
//! capabilities and no custom managers (the differential oracle exercises
//! none of them). Resolution lists every `(actor, joined attribute path)`
//! reachable from the scope through visible sub-spaces (§7.1) and keeps
//! the paths `Pattern::matches` accepts. Each space owns a [`Selector`]
//! built from the policy exactly as the coordinator builds one, so a
//! `send` with several candidates draws the same recipient from the same
//! seeded stream.

use std::collections::{BTreeMap, BTreeSet};

use actorspace_atoms::Path;
use actorspace_core::{
    policy::{CyclePolicy, ManagerPolicy, Selector, UnmatchedPolicy},
    ActorId, Disposition, Error, GcReport, MemberId, Result, SpaceId, SpaceInfo, ROOT_SPACE,
};
use actorspace_pattern::Pattern;

/// Message payload used by the oracle.
pub type Msg = u64;
/// One operation's deliveries, compared as a multiset (sorted).
pub type Deliveries = Vec<(ActorId, Msg)>;

/// The surface the differential oracle drives. The model implements it
/// directly; the oracle adapts the shipping coordinator to it.
pub trait Coordinator {
    fn create_space(&mut self) -> SpaceId;
    fn create_actor(&mut self, host: SpaceId) -> Result<ActorId>;
    fn make_visible(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()>;
    fn make_invisible(&mut self, member: MemberId, space: SpaceId) -> Result<()>;
    fn change_attributes(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()>;
    fn destroy_space(&mut self, space: SpaceId) -> Result<()>;
    fn send(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition>;
    fn broadcast(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition>;
    fn cancel_persistent(&mut self, space: SpaceId) -> Result<usize>;
    fn collect(&mut self) -> GcReport;

    fn space_ids(&self) -> Vec<SpaceId>;
    fn actor_ids(&self) -> Vec<ActorId>;
    fn info(&self, space: SpaceId) -> Option<SpaceInfo>;
    /// Suspended messages of a space as a sorted set of
    /// (pattern text, payload, is-broadcast) triples.
    fn pending_set(&self, space: SpaceId) -> Vec<(String, Msg, bool)>;
    /// Persistent broadcasts of a space as a sorted set of
    /// (pattern text, payload, delivered-to) triples.
    fn persistent_set(&self, space: SpaceId) -> Vec<(String, Msg, Vec<ActorId>)>;
    fn containers_of(&self, member: MemberId) -> Vec<SpaceId>;
    /// Matching actors, sorted.
    fn resolve(&self, pattern: &Pattern, scope: SpaceId) -> Result<Vec<ActorId>>;
}

/// A message parked because its pattern matched nothing (§5.6).
struct Suspended {
    pattern: Pattern,
    msg: Msg,
    broadcast: bool,
}

/// A persistent broadcast and the actors it has reached (§5.6).
struct Persistent {
    pattern: Pattern,
    msg: Msg,
    delivered: BTreeSet<ActorId>,
}

struct ModelSpace {
    /// Visible members with their attributes as viewed by this space.
    members: Vec<(MemberId, Vec<Path>)>,
    pending: Vec<Suspended>,
    persistent: Vec<Persistent>,
    selector: Selector,
}

impl ModelSpace {
    fn new(policy: &ManagerPolicy) -> ModelSpace {
        ModelSpace {
            members: Vec::new(),
            pending: Vec::new(),
            persistent: Vec::new(),
            selector: Selector::new(policy.selection.clone(), policy.selection_seed),
        }
    }

    fn attrs_of(&mut self, member: MemberId) -> Option<&mut Vec<Path>> {
        self.members
            .iter_mut()
            .find(|(m, _)| *m == member)
            .map(|(_, a)| a)
    }

    fn remove(&mut self, member: MemberId) -> bool {
        let before = self.members.len();
        self.members.retain(|(m, _)| *m != member);
        self.members.len() != before
    }
}

/// The whole ActorSpace universe of one node, naively. Every space uses
/// the one policy the model was built with.
pub struct Model {
    policy: ManagerPolicy,
    /// Ids come from one counter shared by actors and spaces; 0 is the
    /// root space.
    next_id: u64,
    spaces: BTreeMap<SpaceId, ModelSpace>,
    /// Actor → host space (§7.1).
    actors: BTreeMap<ActorId, SpaceId>,
}

/// Appends each path not already in `list`, in order.
fn extend_unique(list: &mut Vec<Path>, attrs: Vec<Path>) {
    for a in attrs {
        if !list.contains(&a) {
            list.push(a);
        }
    }
}

impl Model {
    pub fn new(policy: ManagerPolicy) -> Model {
        let mut spaces = BTreeMap::new();
        spaces.insert(ROOT_SPACE, ModelSpace::new(&policy));
        Model {
            policy,
            next_id: 1,
            spaces,
            actors: BTreeMap::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn check_member(&self, member: MemberId) -> Result<()> {
        match member {
            MemberId::Actor(a) if !self.actors.contains_key(&a) => Err(Error::NoSuchActor(a)),
            MemberId::Space(s) if !self.spaces.contains_key(&s) => Err(Error::NoSuchSpace(s)),
            _ => Ok(()),
        }
    }

    fn check_space(&self, space: SpaceId) -> Result<()> {
        if self.spaces.contains_key(&space) {
            Ok(())
        } else {
            Err(Error::NoSuchSpace(space))
        }
    }

    /// The sub-spaces directly visible in `space`.
    fn subspaces(&self, space: SpaceId) -> Vec<SpaceId> {
        self.spaces[&space]
            .members
            .iter()
            .filter_map(|(m, _)| m.as_space())
            .collect()
    }

    /// Every space reachable from `from` through visibility, `from` included.
    fn reachable(&self, from: SpaceId) -> BTreeSet<SpaceId> {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(s) = stack.pop() {
            for sub in self.subspaces(s) {
                if seen.insert(sub) {
                    stack.push(sub);
                }
            }
        }
        seen
    }

    /// Every space that can reach `to` through visibility, `to` included:
    /// the spaces whose resolutions can observe a change in `to`.
    fn ancestors(&self, to: SpaceId) -> BTreeSet<SpaceId> {
        self.spaces
            .keys()
            .copied()
            .filter(|&s| self.reachable(s).contains(&to))
            .collect()
    }

    /// Lists every `(actor, joined attribute path)` visible from `space`,
    /// descending at most `depth` more levels into sub-spaces.
    fn joined_paths(
        &self,
        space: SpaceId,
        prefix: &Path,
        depth: usize,
        out: &mut Vec<(ActorId, Path)>,
    ) {
        for (member, attrs) in &self.spaces[&space].members {
            for attr in attrs {
                let full = prefix.join(attr);
                match *member {
                    MemberId::Actor(a) => out.push((a, full)),
                    MemberId::Space(sub) if depth > 0 => {
                        self.joined_paths(sub, &full, depth - 1, out)
                    }
                    MemberId::Space(_) => {}
                }
            }
        }
    }

    fn matching(&self, pattern: &Pattern, scope: SpaceId) -> Result<Vec<ActorId>> {
        self.check_space(scope)?;
        let mut all = Vec::new();
        self.joined_paths(scope, &Path::empty(), self.policy.max_match_depth, &mut all);
        let hits: BTreeSet<ActorId> = all
            .into_iter()
            .filter(|(_, p)| pattern.matches(p))
            .map(|(a, _)| a)
            .collect();
        Ok(hits.into_iter().collect())
    }

    /// After a change in `changed`, retries the suspended and persistent
    /// messages of every space that can observe it.
    fn wake(&mut self, changed: SpaceId, out: &mut Deliveries) {
        for s in self.ancestors(changed) {
            let pending = std::mem::take(&mut self.spaces.get_mut(&s).unwrap().pending);
            let mut waiting = Vec::new();
            for p in pending {
                let found = self.matching(&p.pattern, s).unwrap_or_default();
                if found.is_empty() {
                    waiting.push(p);
                } else if p.broadcast {
                    out.extend(found.iter().map(|&a| (a, p.msg)));
                } else {
                    let pick = self.spaces.get_mut(&s).unwrap().selector.select(&found);
                    out.push((pick, p.msg));
                }
            }
            self.spaces.get_mut(&s).unwrap().pending = waiting;

            let mut persistent = std::mem::take(&mut self.spaces.get_mut(&s).unwrap().persistent);
            for pb in &mut persistent {
                for a in self.matching(&pb.pattern, s).unwrap_or_default() {
                    if pb.delivered.insert(a) {
                        out.push((a, pb.msg));
                    }
                }
            }
            self.spaces.get_mut(&s).unwrap().persistent = persistent;
        }
    }

    /// What an unmatched message does: suspend, drop, or fail (§5.6).
    fn unmatched(
        &mut self,
        policy: UnmatchedPolicy,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        broadcast: bool,
    ) -> Result<Disposition> {
        match policy {
            UnmatchedPolicy::Suspend | UnmatchedPolicy::Persistent => {
                self.spaces
                    .get_mut(&scope)
                    .unwrap()
                    .pending
                    .push(Suspended {
                        pattern: pattern.clone(),
                        msg,
                        broadcast,
                    });
                Ok(Disposition::Suspended)
            }
            UnmatchedPolicy::Discard => Ok(Disposition::Discarded),
            UnmatchedPolicy::Error => Err(Error::NoMatch {
                pattern: pattern.text().to_owned(),
                space: scope,
            }),
        }
    }

    fn remove_space(&mut self, id: SpaceId) {
        self.spaces.remove(&id);
        for sp in self.spaces.values_mut() {
            sp.remove(MemberId::Space(id));
        }
        for host in self.actors.values_mut() {
            if *host == id {
                *host = ROOT_SPACE;
            }
        }
    }

    fn remove_actor(&mut self, id: ActorId) {
        self.actors.remove(&id);
        for sp in self.spaces.values_mut() {
            sp.remove(MemberId::Actor(id));
        }
    }
}

impl Coordinator for Model {
    fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.fresh_id());
        self.spaces.insert(id, ModelSpace::new(&self.policy));
        id
    }

    fn create_actor(&mut self, host: SpaceId) -> Result<ActorId> {
        self.check_space(host)?;
        let id = ActorId(self.fresh_id());
        self.actors.insert(id, host);
        Ok(id)
    }

    fn make_visible(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()> {
        self.check_member(member)?;
        self.check_space(space)?;
        if let MemberId::Space(child) = member {
            // §5.7: a space may not become visible in itself or in any
            // space it (transitively) contains.
            if self.policy.cycles == CyclePolicy::Forbid && self.reachable(child).contains(&space) {
                return Err(Error::WouldCycle {
                    child,
                    parent: space,
                });
            }
        }
        let sp = self.spaces.get_mut(&space).unwrap();
        match sp.attrs_of(member) {
            Some(list) => extend_unique(list, attrs),
            None => {
                let mut list = Vec::new();
                extend_unique(&mut list, attrs);
                sp.members.push((member, list));
            }
        }
        self.wake(space, out);
        Ok(())
    }

    fn make_invisible(&mut self, member: MemberId, space: SpaceId) -> Result<()> {
        self.check_member(member)?;
        self.check_space(space)?;
        if self.spaces.get_mut(&space).unwrap().remove(member) {
            Ok(())
        } else {
            Err(Error::NotVisible { member, space })
        }
    }

    fn change_attributes(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Deliveries,
    ) -> Result<()> {
        self.check_member(member)?;
        self.check_space(space)?;
        let Some(list) = self.spaces.get_mut(&space).unwrap().attrs_of(member) else {
            return Err(Error::NotVisible { member, space });
        };
        list.clear();
        extend_unique(list, attrs);
        self.wake(space, out);
        Ok(())
    }

    fn destroy_space(&mut self, space: SpaceId) -> Result<()> {
        if space == ROOT_SPACE {
            return Err(Error::RootImmortal);
        }
        self.check_space(space)?;
        self.remove_space(space);
        Ok(())
    }

    fn send(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition> {
        let found = self.matching(pattern, scope)?;
        if found.is_empty() {
            return self.unmatched(self.policy.unmatched_send, pattern, scope, msg, false);
        }
        let pick = self.spaces.get_mut(&scope).unwrap().selector.select(&found);
        out.push((pick, msg));
        Ok(Disposition::Delivered(1))
    }

    fn broadcast(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: Msg,
        out: &mut Deliveries,
    ) -> Result<Disposition> {
        let found = self.matching(pattern, scope)?;
        out.extend(found.iter().map(|&a| (a, msg)));
        let policy = self.policy.unmatched_broadcast;
        if policy == UnmatchedPolicy::Persistent {
            self.spaces
                .get_mut(&scope)
                .unwrap()
                .persistent
                .push(Persistent {
                    pattern: pattern.clone(),
                    msg,
                    delivered: found.iter().copied().collect(),
                });
            return Ok(Disposition::Persistent(found.len()));
        }
        if found.is_empty() {
            return self.unmatched(policy, pattern, scope, msg, true);
        }
        Ok(Disposition::Delivered(found.len()))
    }

    fn cancel_persistent(&mut self, space: SpaceId) -> Result<usize> {
        self.check_space(space)?;
        let sp = self.spaces.get_mut(&space).unwrap();
        Ok(std::mem::take(&mut sp.persistent).len())
    }

    /// Mark from the root space (the model has no external roots and no
    /// acquaintances), then sweep spaces before actors (§5.5).
    fn collect(&mut self) -> GcReport {
        let mut live: BTreeSet<MemberId> = BTreeSet::new();
        let mut work = vec![MemberId::Space(ROOT_SPACE)];
        while let Some(m) = work.pop() {
            if !live.insert(m) {
                continue;
            }
            if let MemberId::Space(s) = m {
                work.extend(self.spaces[&s].members.iter().map(|(m, _)| *m));
            }
        }
        let collected_spaces: Vec<SpaceId> = self
            .spaces
            .keys()
            .copied()
            .filter(|&s| !live.contains(&MemberId::Space(s)))
            .collect();
        let collected_actors: Vec<ActorId> = self
            .actors
            .keys()
            .copied()
            .filter(|&a| !live.contains(&MemberId::Actor(a)))
            .collect();
        for &s in &collected_spaces {
            self.remove_space(s);
        }
        for &a in &collected_actors {
            self.remove_actor(a);
        }
        GcReport {
            collected_actors,
            collected_spaces,
            live_actors: self.actors.len(),
            live_spaces: self.spaces.len(),
        }
    }

    fn space_ids(&self) -> Vec<SpaceId> {
        self.spaces.keys().copied().collect()
    }

    fn actor_ids(&self) -> Vec<ActorId> {
        self.actors.keys().copied().collect()
    }

    fn info(&self, space: SpaceId) -> Option<SpaceInfo> {
        let sp = self.spaces.get(&space)?;
        let space_members = sp
            .members
            .iter()
            .filter(|(m, _)| m.as_space().is_some())
            .count();
        Some(SpaceInfo {
            id: space,
            actor_members: sp.members.len() - space_members,
            space_members,
            pending_messages: sp.pending.len(),
            persistent_broadcasts: sp.persistent.len(),
            guarded: false,
        })
    }

    fn pending_set(&self, space: SpaceId) -> Vec<(String, Msg, bool)> {
        let Some(sp) = self.spaces.get(&space) else {
            return Vec::new();
        };
        let mut v: Vec<_> = sp
            .pending
            .iter()
            .map(|p| (p.pattern.text().to_string(), p.msg, p.broadcast))
            .collect();
        v.sort();
        v
    }

    fn persistent_set(&self, space: SpaceId) -> Vec<(String, Msg, Vec<ActorId>)> {
        let Some(sp) = self.spaces.get(&space) else {
            return Vec::new();
        };
        let mut v: Vec<_> = sp
            .persistent
            .iter()
            .map(|pb| {
                let delivered = pb.delivered.iter().copied().collect();
                (pb.pattern.text().to_string(), pb.msg, delivered)
            })
            .collect();
        v.sort();
        v
    }

    fn containers_of(&self, member: MemberId) -> Vec<SpaceId> {
        self.spaces
            .iter()
            .filter(|(_, sp)| sp.members.iter().any(|(m, _)| *m == member))
            .map(|(&s, _)| s)
            .collect()
    }

    fn resolve(&self, pattern: &Pattern, scope: SpaceId) -> Result<Vec<ActorId>> {
        self.matching(pattern, scope)
    }
}
