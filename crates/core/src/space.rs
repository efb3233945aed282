//! The actorSpace container.
//!
//! "An actorSpace is a computationally passive container of actors and acts
//! as a context for matching patterns" (§5.2). A [`Space`] records which
//! members (actors and nested spaces) are visible in it and under which
//! attributes, plus the manager state that governs matching semantics:
//! policies, the recipient selector, suspended messages, and persistent
//! broadcasts.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use actorspace_atoms::Path;
use actorspace_capability::Guard;
use actorspace_pattern::Pattern;

use crate::ids::{ActorId, MemberId, SpaceId};
use crate::manager::{DefaultManager, Manager};
use crate::policy::{ManagerPolicy, Selector};

/// How many patterns one space's resolution memo holds; the least recently
/// used is forgotten first.
const MEMO_ENTRIES: usize = 16;

/// Per-actor bookkeeping.
#[derive(Debug, Clone)]
pub struct ActorRecord {
    /// The capability guard protecting this actor's visibility/attributes.
    pub guard: Guard,
    /// The space the actor was created in (§7.1: its "host" space). Used as
    /// the default pattern-resolution scope; does *not* imply visibility.
    pub host: SpaceId,
}

/// Observability snapshot of one actorSpace (see
/// [`ShardedRegistry::space_info`](crate::ShardedRegistry::space_info)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceInfo {
    /// The space.
    pub id: SpaceId,
    /// Visible actor members.
    pub actor_members: usize,
    /// Visible sub-space members.
    pub space_members: usize,
    /// Suspended messages waiting for a match (§5.6).
    pub pending_messages: usize,
    /// Registered persistent broadcasts (§5.6).
    pub persistent_broadcasts: usize,
    /// True when a capability guards the space.
    pub guarded: bool,
}

/// A custom matching rule (§5's nod to first-class tuple spaces: "tuple
/// spaces define policies which allow customization of matching rules …
/// our notion of customizable actorSpace managers incorporates the power
/// of the first-class tuple space model").
///
/// Called for every candidate `(pattern, member, matched-attribute)` the
/// NFA accepts; returning `false` excludes the candidate. The filter must
/// be pure (resolution holds only a shared reference).
pub type MatchFilter = Arc<dyn Fn(&Pattern, MemberId, &Path) -> bool + Send + Sync>;

/// Was a suspended message a `send` or a `broadcast`?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// One non-deterministically chosen recipient.
    Send,
    /// Every matching recipient.
    Broadcast,
}

/// A message suspended because its pattern matched nothing (§5.6).
#[derive(Debug)]
pub struct Pending<M> {
    /// The destination pattern.
    pub pattern: Pattern,
    /// The payload, retained until a match appears.
    pub msg: M,
    /// Send or broadcast.
    pub kind: DeliveryKind,
    /// Lifecycle trace of the originating communication
    /// ([`TraceId::NONE`](actorspace_obs::TraceId::NONE) when unsampled).
    pub trace: actorspace_obs::TraceId,
    /// When the message was parked (observer-epoch nanoseconds); the
    /// suspension-dwell histogram is fed from this on wake.
    pub since_nanos: u64,
}

/// A persistent broadcast: delivered exactly once to every actor that ever
/// matches (§5.6's third option).
#[derive(Debug)]
pub struct PersistentBroadcast<M> {
    /// The destination pattern.
    pub pattern: Pattern,
    /// The payload, cloned per recipient.
    pub msg: M,
    /// Actors that have already received this broadcast.
    pub delivered: HashSet<ActorId>,
}

/// One actorSpace: membership table plus manager state.
pub struct Space<M> {
    id: SpaceId,
    guard: Guard,
    /// Attributes of each visible member *as viewed by this space* — the
    /// paper's mailing-list metaphor: "Each list may contain a set of
    /// attributes associated with the individual – as viewed by that list."
    members: HashMap<MemberId, Vec<Path>>,
    /// The attribute index: attribute path → members registered under it.
    /// Path order makes every attribute with a given prefix one contiguous
    /// range, so resolution seeks on a pattern's literal run
    /// (EXPERIMENTS.md E12).
    index: BTreeMap<Path, Vec<MemberId>>,
    /// How many members are spaces (resolution skips its sub-space
    /// lookups when there are none).
    sub_spaces: usize,
    policy: ManagerPolicy,
    selector: Selector,
    manager: Box<dyn Manager>,
    match_filter: Option<MatchFilter>,
    pending: Vec<Pending<M>>,
    persistent: Vec<PersistentBroadcast<M>>,
    /// The resolution memo: compiled patterns and the sorted, deduplicated
    /// actors each resolved to in this space alone, least recently used
    /// first. Keyed by body identity ([`Pattern::same`]); each entry's clone
    /// keeps its body alive, so no other pattern can reuse the address.
    /// Every method that changes what such a resolution returns clears it.
    memo: Vec<(Pattern, Vec<ActorId>)>,
}

impl<M> Space<M> {
    /// Creates a space with the given guard and policy.
    pub fn new(id: SpaceId, guard: Guard, policy: ManagerPolicy) -> Space<M> {
        let selector = Selector::new(policy.selection.clone(), policy.selection_seed);
        Space {
            id,
            guard,
            members: HashMap::new(),
            index: BTreeMap::new(),
            sub_spaces: 0,
            policy,
            selector,
            manager: Box::new(DefaultManager),
            match_filter: None,
            pending: Vec::new(),
            persistent: Vec::new(),
            memo: Vec::new(),
        }
    }

    /// This space's mail address.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The capability guard protecting visibility operations here.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// The policy table.
    pub fn policy(&self) -> &ManagerPolicy {
        &self.policy
    }

    /// Replaces the policy table (requires `Rights::MANAGE` at the
    /// coordinator API; this is the raw mutation).
    pub fn set_policy(&mut self, policy: ManagerPolicy) {
        self.memo.clear();
        self.selector = Selector::new(policy.selection.clone(), policy.selection_seed);
        self.policy = policy;
    }

    /// Installs a custom manager.
    pub fn set_manager(&mut self, manager: Box<dyn Manager>) {
        self.manager = manager;
    }

    /// Installs (or clears) a custom matching rule.
    pub fn set_match_filter(&mut self, filter: Option<MatchFilter>) {
        self.memo.clear();
        self.match_filter = filter;
    }

    /// The custom matching rule, if any.
    pub fn match_filter(&self) -> Option<&MatchFilter> {
        self.match_filter.as_ref()
    }

    /// The custom manager.
    pub fn manager_mut(&mut self) -> &mut dyn Manager {
        self.manager.as_mut()
    }

    /// The recipient selector.
    pub fn selector_mut(&mut self) -> &mut Selector {
        &mut self.selector
    }

    /// Visible members and their attributes, as viewed by this space.
    pub fn members(&self) -> &HashMap<MemberId, Vec<Path>> {
        &self.members
    }

    /// Registers (or extends) a member's attributes. Returns true if this
    /// member was not previously visible here.
    pub fn add_member(&mut self, member: MemberId, attrs: Vec<Path>) -> bool {
        self.memo.clear();
        let entry = self.members.entry(member);
        let fresh = matches!(entry, std::collections::hash_map::Entry::Vacant(_));
        if fresh && matches!(member, MemberId::Space(_)) {
            self.sub_spaces += 1;
        }
        let list = entry.or_default();
        for a in attrs {
            if !list.contains(&a) {
                self.index.entry(a.clone()).or_default().push(member);
                list.push(a);
            }
        }
        fresh
    }

    /// Removes a member entirely. Returns true if it was present.
    pub fn remove_member(&mut self, member: MemberId) -> bool {
        match self.members.remove(&member) {
            Some(attrs) => {
                self.memo.clear();
                if matches!(member, MemberId::Space(_)) {
                    self.sub_spaces -= 1;
                }
                for a in &attrs {
                    self.unindex(a, member);
                }
                true
            }
            None => false,
        }
    }

    /// Replaces a member's attributes. Returns false if the member is not
    /// visible here.
    pub fn set_attributes(&mut self, member: MemberId, attrs: Vec<Path>) -> bool {
        if !self.members.contains_key(&member) {
            return false;
        }
        let mut clean: Vec<Path> = Vec::with_capacity(attrs.len());
        for a in attrs {
            if !clean.contains(&a) {
                clean.push(a);
            }
        }
        self.memo.clear();
        let list = self.members.get_mut(&member).expect("checked above");
        let old = std::mem::replace(list, clean.clone());
        for a in &old {
            self.unindex(a, member);
        }
        for a in clean {
            self.index.entry(a).or_default().push(member);
        }
        true
    }

    fn unindex(&mut self, attr: &Path, member: MemberId) {
        if let Some(v) = self.index.get_mut(attr) {
            v.retain(|m| *m != member);
            if v.is_empty() {
                self.index.remove(attr);
            }
        }
    }

    /// The attribute index, in path order: the same `(attribute, member)`
    /// pairs as [`members`](Space::members), keyed by attribute.
    pub(crate) fn index(&self) -> &BTreeMap<Path, Vec<MemberId>> {
        &self.index
    }

    /// How many visible members are spaces.
    pub(crate) fn sub_spaces(&self) -> usize {
        self.sub_spaces
    }

    /// Takes `pattern`'s memoized resolution out of the memo, if it is
    /// there; [`memo_put`](Space::memo_put) hands it back after use.
    pub(crate) fn memo_take(&mut self, pattern: &Pattern) -> Option<Vec<ActorId>> {
        let i = self.memo.iter().position(|(p, _)| p.same(pattern))?;
        Some(self.memo.remove(i).1)
    }

    /// Memoizes `found` as what `pattern` resolves to in this space alone,
    /// forgetting the least recently used entry when the memo is full. The
    /// caller vouches that `found` is that resolution: the walk's result,
    /// or what [`memo_take`](Space::memo_take) returned since the last
    /// change.
    pub(crate) fn memo_put(&mut self, pattern: &Pattern, found: Vec<ActorId>) {
        if self.memo.len() == MEMO_ENTRIES {
            self.memo.remove(0);
        }
        self.memo.push((pattern.clone(), found));
    }

    /// Is the member visible here?
    pub fn contains(&self, member: MemberId) -> bool {
        self.members.contains_key(&member)
    }

    /// Suspended messages (for inspection/tests).
    pub fn pending(&self) -> &[Pending<M>] {
        &self.pending
    }

    /// Pushes a suspended message.
    pub fn push_pending(&mut self, p: Pending<M>) {
        self.pending.push(p);
    }

    /// Takes all suspended messages for a retry sweep.
    pub fn take_pending(&mut self) -> Vec<Pending<M>> {
        std::mem::take(&mut self.pending)
    }

    /// Registered persistent broadcasts (for inspection/tests).
    pub fn persistent(&self) -> &[PersistentBroadcast<M>] {
        &self.persistent
    }

    /// Registers a persistent broadcast.
    pub fn push_persistent(&mut self, p: PersistentBroadcast<M>) {
        self.persistent.push(p);
    }

    /// Mutable access to the persistent broadcasts (delivery bookkeeping).
    pub fn persistent_mut(&mut self) -> &mut Vec<PersistentBroadcast<M>> {
        &mut self.persistent
    }

    /// Cancels all persistent broadcasts, returning how many were dropped.
    pub fn clear_persistent(&mut self) -> usize {
        let n = self.persistent.len();
        self.persistent.clear();
        n
    }
}

impl<M> std::fmt::Debug for Space<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Space")
            .field("id", &self.id)
            .field("members", &self.members.len())
            .field("pending", &self.pending.len())
            .field("persistent", &self.persistent.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorspace_atoms::path;

    fn space() -> Space<u32> {
        Space::new(SpaceId(1), Guard::Open, ManagerPolicy::default())
    }

    #[test]
    fn add_member_merges_attributes() {
        let mut s = space();
        let m = MemberId::Actor(ActorId(1));
        assert!(s.add_member(m, vec![path("a")]));
        assert!(!s.add_member(m, vec![path("b"), path("a")]));
        assert_eq!(s.members()[&m], vec![path("a"), path("b")]);
        assert_eq!(s.index()[&path("a")], vec![m]);
    }

    #[test]
    fn remove_member() {
        let mut s = space();
        let m = MemberId::Actor(ActorId(1));
        s.add_member(m, vec![path("a")]);
        assert!(s.remove_member(m));
        assert!(!s.remove_member(m));
        assert!(!s.contains(m));
        assert!(s.index().is_empty());
        let sub = MemberId::Space(SpaceId(2));
        s.add_member(sub, vec![path("a")]);
        s.add_member(sub, vec![path("b")]);
        assert_eq!(s.sub_spaces(), 1);
        assert!(s.remove_member(sub));
        assert!(!s.remove_member(sub));
        assert_eq!(s.sub_spaces(), 0);
    }

    #[test]
    fn set_attributes_replaces() {
        let mut s = space();
        let m = MemberId::Actor(ActorId(1));
        s.add_member(m, vec![path("a"), path("b")]);
        assert!(s.set_attributes(m, vec![path("c")]));
        assert_eq!(s.members()[&m], vec![path("c")]);
        assert_eq!(s.index().keys().collect::<Vec<_>>(), vec![&path("c")]);
        assert!(!s.set_attributes(MemberId::Actor(ActorId(9)), vec![path("x")]));
    }

    #[test]
    fn every_change_clears_the_memo() {
        use actorspace_pattern::pattern;
        let p = pattern("svc/*");
        let (a, b) = (MemberId::Actor(ActorId(1)), MemberId::Actor(ActorId(2)));
        let changes: [fn(&mut Space<u32>); 5] = [
            |s| assert!(s.add_member(MemberId::Actor(ActorId(3)), vec![path("svc/c")])),
            |s| assert!(s.remove_member(MemberId::Actor(ActorId(2)))),
            |s| assert!(s.set_attributes(MemberId::Actor(ActorId(2)), vec![path("x")])),
            |s| s.set_match_filter(None),
            |s| s.set_policy(ManagerPolicy::default()),
        ];
        for change in changes {
            let mut s = space();
            s.add_member(a, vec![path("svc/a")]);
            s.add_member(b, vec![path("svc/b")]);
            s.memo_put(&p, vec![ActorId(1), ActorId(2)]);
            assert_eq!(s.memo_take(&p), Some(vec![ActorId(1), ActorId(2)]));
            assert_eq!(s.memo_take(&p), None, "a taken entry is out of the memo");
            s.memo_put(&p, vec![ActorId(1), ActorId(2)]);
            change(&mut s);
            assert_eq!(s.memo_take(&p), None);
        }
    }

    #[test]
    fn the_memo_keys_on_identity_and_forgets_the_least_recently_used() {
        use actorspace_pattern::pattern;
        let mut s = space();
        let held: Vec<Pattern> = (0..MEMO_ENTRIES).map(|_| pattern("svc/*")).collect();
        for (i, p) in held.iter().enumerate() {
            s.memo_put(p, vec![ActorId(i as u64)]);
        }
        assert_eq!(
            s.memo_take(&pattern("svc/*")),
            None,
            "an equal parse is not the same"
        );
        // Using the oldest makes the second oldest the one to go.
        let oldest = s.memo_take(&held[0]).unwrap();
        s.memo_put(&held[0], oldest);
        s.memo_put(&pattern("x/*"), vec![]);
        assert_eq!(s.memo_take(&held[1]), None);
        assert_eq!(s.memo_take(&held[0]), Some(vec![ActorId(0)]));
        assert_eq!(s.memo_take(&held[2]), Some(vec![ActorId(2)]));
    }

    #[test]
    fn pending_queue_roundtrip() {
        use actorspace_pattern::pattern;
        let mut s = space();
        s.push_pending(Pending {
            pattern: pattern("a"),
            msg: 7,
            kind: DeliveryKind::Send,
            trace: actorspace_obs::TraceId::NONE,
            since_nanos: 0,
        });
        assert_eq!(s.pending().len(), 1);
        let taken = s.take_pending();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].msg, 7);
        assert!(s.pending().is_empty());
    }

    #[test]
    fn persistent_broadcast_bookkeeping() {
        use actorspace_pattern::pattern;
        let mut s = space();
        s.push_persistent(PersistentBroadcast {
            pattern: pattern("w/**"),
            msg: 1,
            delivered: HashSet::new(),
        });
        s.persistent_mut()[0].delivered.insert(ActorId(5));
        assert!(s.persistent()[0].delivered.contains(&ActorId(5)));
        assert_eq!(s.clear_persistent(), 1);
        assert!(s.persistent().is_empty());
    }
}
