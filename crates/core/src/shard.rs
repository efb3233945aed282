//! The coordinator: every actor, every actorSpace, and the visibility
//! relation between them, with one lock per actorSpace.
//!
//! The paper's coordinator "maintains coherence of the state of
//! ActorSpace. This state includes 'live' actors and actorSpaces as well as
//! visibility of actors" (§7.3). One [`ShardedRegistry`] is that state for
//! one node. It is generic over the message payload `M` and hands back the
//! deliveries it decides (see below), so the same type backs the
//! single-node runtime, the simulated cluster, and plain in-test use.
//!
//! Pattern matching is *scoped*: a resolution at `space` can only observe
//! `space` itself plus the sub-spaces transitively visible in it (§7.1), so
//! spaces whose visibility subtrees are disjoint never contend. Each space
//! — its visible members, suspended sends, and persistent broadcasts
//! (§5.6) — therefore lives behind its own mutex, and an operation locks
//! only the shards its scope can reach.
//!
//! ## Lock-ordering invariant
//!
//! Two lock levels, acquired strictly top-down:
//!
//! 1. **meta** (`RwLock`): the cross-space tables — actor records, the
//!    reverse-visibility `containers` map, the forward visibility-edge
//!    map, GC roots, and the shard directory itself. Read-locked by
//!    delivery operations, write-locked by topology changes
//!    (create/destroy/make_visible/make_invisible/purge/GC).
//! 2. **shards** (`Mutex<Space>` each): locked *while holding meta*, always
//!    in ascending [`SpaceId`] order, as one batch computed up front from
//!    the meta tables (the visibility closure of the operation's scope).
//!
//! No code path acquires meta after a shard lock, and no path acquires a
//! lower-id shard after a higher-id one, so the wait-for graph is acyclic
//! and the coordinator is deadlock-free by construction. Operations that
//! genuinely span spaces — overlapping membership, DAG edges (§5.7),
//! broadcasts traversing nested spaces, cross-space wakes — simply have
//! bigger lock sets; disjoint sends proceed fully in parallel under the
//! shared meta read lock.
//!
//! ## Decide under the locks, deliver after them
//!
//! An operation decides every message's fate under its locks — choose a
//! recipient, suspend, record a persistent delivery, discard, or error
//! (§5.6) — and carries out none of it there. Each delivery it decides is
//! pushed as an owned [`Delivery`] into the `&mut Vec` the caller passes
//! in; the caller delivers them after the call returns, when every guard
//! has dropped. Mailboxes, uplinks and codecs therefore never run inside a
//! critical section, and a transport may call back into the coordinator.
//! Manager callbacks and the garbage collector's `acquaintances` do run
//! under the locks, because they take part in the decision; they must not
//! re-enter.
//!
//! All of the above is *checked*, not just documented: every lock here is
//! an [`actorspace_lockcheck`] wrapper tagged `Meta` or `Shard(id)`, each
//! public operation opens a [`enter_coordinator`] section, and each
//! callback (manager hooks, `acquaintances`, `with_space` closures) runs
//! inside an [`enter_callback`] section. Built with
//! `--features lockcheck`, the checker enforces meta-before-shard,
//! ascending shard order, no callback re-entry, and (per §5.7) re-verifies
//! the visibility DAG after every topology mutation. Without the feature
//! all of it compiles away.
//!
//! The differential oracle (`tests/differential_oracle.rs`) replays random
//! operation sequences against this coordinator and against a naive
//! test-only model of the §5 semantics (plain maps, linear scans),
//! asserting identical delivery multisets, suspension sets, and
//! [`SpaceInfo`] snapshots.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use actorspace_atoms::Path;
use actorspace_capability::{Capability, Guard, GuardError, Rights};
use actorspace_lockcheck::{
    enter_callback, enter_coordinator, LockClass, Mutex, MutexGuard, RwLock,
};
use actorspace_obs::{names, Counter, Obs, ObsConfig, Stage, TraceId};
use actorspace_pattern::Pattern;

use crate::delivery::{CoreMetrics, Delivery, Disposition, Route};
use crate::error::{Error, Result};
use crate::gc::GcReport;
use crate::ids::{ActorId, IdGen, MemberId, SpaceId, ROOT_SPACE};
use crate::manager::Manager;
use crate::matching::{self, SpaceStore};
use crate::policy::{CyclePolicy, ManagerPolicy, UnmatchedPolicy};
use crate::space::{ActorRecord, DeliveryKind, Pending, PersistentBroadcast, Space, SpaceInfo};
use crate::visibility;

/// Pre-resolved per-space metric handles (`core.space.*`, `core.index.*`),
/// labeled with the shard's space id in [`Obs`] snapshots.
#[derive(Clone)]
struct ShardMetrics {
    sends: Arc<Counter>,
    broadcasts: Arc<Counter>,
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
}

impl ShardMetrics {
    fn resolve(obs: &Obs, node: u16, space: SpaceId) -> ShardMetrics {
        ShardMetrics {
            sends: obs
                .metrics
                .counter_for_space(names::CORE_SPACE_SENDS, node, space.0),
            broadcasts: obs
                .metrics
                .counter_for_space(names::CORE_SPACE_BROADCASTS, node, space.0),
            index_hits: obs
                .metrics
                .counter_for_space(names::CORE_INDEX_HITS, node, space.0),
            index_misses: obs
                .metrics
                .counter_for_space(names::CORE_INDEX_MISSES, node, space.0),
        }
    }
}

/// One shard: the space state behind its own lock, plus the data needed
/// *without* the lock — the immutable creation guard (so capability checks
/// never contend with deliveries) and the shard's metric handles.
struct ShardHandle<M> {
    space: Arc<Mutex<Space<M>>>,
    /// Duplicate of the space's guard. Guards are immutable after creation,
    /// so the copy can never diverge.
    guard: Guard,
    m: ShardMetrics,
}

/// The cross-space tables, all behind one `RwLock` (level 1 of the lock
/// order).
struct Meta<M> {
    /// Shard directory, ordered by id — iteration order *is* lock order.
    shards: BTreeMap<SpaceId, ShardHandle<M>>,
    actors: HashMap<ActorId, ActorRecord>,
    /// Reverse visibility: member → spaces it is visible in. Kept in exact
    /// correspondence with each shard's membership table.
    containers: HashMap<MemberId, HashSet<SpaceId>>,
    /// Forward visibility: space → sub-spaces visible in it. The mirror of
    /// the `MemberId::Space` entries in the shards' membership tables; kept
    /// here so lock sets and §5.7 cycle checks need no shard locks.
    edges: HashMap<SpaceId, HashSet<SpaceId>>,
    /// Actors with live external handles — garbage-collection roots.
    roots: HashSet<ActorId>,
    /// Edges `(space, sub-space)` that closed a cycle when a space which
    /// tolerates cycles (§5.7's tagging alternative) accepted them. Every
    /// cycle contains one, so the lockcheck DAG validator checks the edges
    /// without them. Tracked only under `--features lockcheck`.
    tolerated: HashSet<(SpaceId, SpaceId)>,
}

/// The shard mutexes an operation holds, keyed (and therefore iterated)
/// in `SpaceId` order. Implements [`SpaceStore`] so the pattern-resolution
/// walks in [`matching`] run unchanged against a locked shard set.
type Guards<'a, M> = BTreeMap<SpaceId, MutexGuard<'a, Space<M>>>;

/// The `Arc` handles the guards borrow from; owning them locally lets the
/// meta tables stay mutable while shard locks are held.
type ShardArcs<M> = Vec<(SpaceId, Arc<Mutex<Space<M>>>)>;

impl<'a, M> SpaceStore<M> for BTreeMap<SpaceId, MutexGuard<'a, Space<M>>> {
    fn get_space(&self, id: SpaceId) -> Option<&Space<M>> {
        self.get(&id).map(|g| &**g)
    }
}

/// The shards a read-side operation (send, broadcast, resend, resolve)
/// holds: the visibility closure of its scope, locked under the meta read
/// lock by [`lock_scope`].
enum ScopeGuards<'a, M> {
    /// The fast path. A scope with no visible sub-spaces (`meta.edges`
    /// empty for it) has a singleton lock set, so the closure walk and the
    /// guard map are skipped and the one mutex is locked directly. The
    /// resolution walk cannot leave the scope (no space members), so a
    /// one-entry store is a complete view.
    Single(SpaceId, MutexGuard<'a, Space<M>>),
    /// Every shard the scope can reach, in ascending id order.
    Closure(Guards<'a, M>),
}

impl<'a, M> SpaceStore<M> for ScopeGuards<'a, M> {
    fn get_space(&self, id: SpaceId) -> Option<&Space<M>> {
        match self {
            ScopeGuards::Single(only, g) => (id == *only).then(|| &**g),
            ScopeGuards::Closure(gs) => gs.get_space(id),
        }
    }
}

impl<'a, M> ScopeGuards<'a, M> {
    fn get_space_mut(&mut self, id: SpaceId) -> Option<&mut Space<M>> {
        match self {
            ScopeGuards::Single(only, g) => (id == *only).then(|| &mut **g),
            ScopeGuards::Closure(gs) => gs.get_mut(&id).map(|g| &mut **g),
        }
    }

    /// The scope, when its resolutions of `pattern` may be memoized: the
    /// walk cannot leave it (no visible sub-spaces), so what it returns
    /// changes only through the scope's own methods, which clear the memo;
    /// the pattern is not literal (one exact-key lookup, whose hit or miss
    /// is counted per resolve); and no match filter runs, as its verdicts
    /// are user code the memo cannot watch.
    fn memo_scope(&mut self, pattern: &Pattern) -> Option<&mut Space<M>> {
        match self {
            ScopeGuards::Single(_, g) if !pattern.is_literal() && g.match_filter().is_none() => {
                Some(&mut **g)
            }
            _ => None,
        }
    }

    /// Memoizes `found`, what `pattern` resolved to in the scope, if it may
    /// be memoized.
    fn remember(&mut self, pattern: &Pattern, found: Vec<ActorId>) {
        if let Some(sp) = self.memo_scope(pattern) {
            sp.memo_put(pattern, found);
        }
    }
}

/// Clones the shard `Arc`s for `ids` (missing spaces are skipped — the
/// resolution walks treat them like remote stubs), sorted ascending so a
/// subsequent [`lock_all`] respects the global lock order.
fn arcs_for<M>(meta: &Meta<M>, ids: impl IntoIterator<Item = SpaceId>) -> ShardArcs<M> {
    let set: BTreeSet<SpaceId> = ids.into_iter().collect();
    set.into_iter()
        .filter_map(|id| meta.shards.get(&id).map(|sh| (id, sh.space.clone())))
        .collect()
}

/// Locks every shard in `arcs`, in the ascending id order `arcs` is built
/// in — the writers' way of locking shards (they keep `meta` mutable, so
/// the guards borrow the cloned `Arc`s rather than the directory).
fn lock_all<M>(arcs: &ShardArcs<M>) -> Guards<'_, M> {
    arcs.iter().map(|(id, m)| (*id, m.lock())).collect()
}

/// Locks the visibility closure of `scope` for a read-side operation,
/// borrowing the shards straight from the read-locked directory. A scope
/// with no visible sub-spaces takes the [`ScopeGuards::Single`] fast path
/// (a singleton set trivially satisfies the ascending-order protocol).
/// Returns the scope's metric handles alongside, `None` when the scope
/// does not exist, so callers bump per-space counters without a second
/// directory lookup.
fn lock_scope<M>(meta: &Meta<M>, scope: SpaceId) -> (ScopeGuards<'_, M>, Option<&ShardMetrics>) {
    let sh = meta.shards.get(&scope);
    if let Some(sh) = sh {
        if meta.edges.get(&scope).is_none_or(|subs| subs.is_empty()) {
            return (ScopeGuards::Single(scope, sh.space.lock()), Some(&sh.m));
        }
    }
    let ids: BTreeSet<SpaceId> = visibility::reachable(&meta.edges, [scope])
        .into_iter()
        .collect();
    let guards = ids
        .into_iter()
        .filter_map(|id| meta.shards.get(&id).map(|sh| (id, sh.space.lock())))
        .collect();
    (ScopeGuards::Closure(guards), sh.map(|sh| &sh.m))
}

fn member_guard<M>(meta: &Meta<M>, member: MemberId) -> Result<&Guard> {
    match member {
        MemberId::Actor(a) => Ok(&meta.actors.get(&a).ok_or(Error::NoSuchActor(a))?.guard),
        MemberId::Space(s) => Ok(&meta.shards.get(&s).ok_or(Error::NoSuchSpace(s))?.guard),
    }
}

/// Removes a space from the meta tables and from every locked parent. The
/// caller must hold the space's own shard and all its parents in `guards`.
fn remove_space_locked<M>(meta: &mut Meta<M>, guards: &mut Guards<'_, M>, id: SpaceId) {
    if meta.shards.remove(&id).is_some() {
        // Drop reverse edges of its members.
        if let Some(sp) = guards.remove(&id) {
            for member in sp.members().keys() {
                if let Some(set) = meta.containers.get_mut(member) {
                    set.remove(&id);
                    if set.is_empty() {
                        meta.containers.remove(member);
                    }
                }
            }
        }
        meta.edges.remove(&id);
        meta.tolerated.retain(|&(p, c)| p != id && c != id);
    }
    // Remove the space from any space it was visible in.
    let as_member = MemberId::Space(id);
    if let Some(parents) = meta.containers.remove(&as_member) {
        for p in parents {
            if let Some(ps) = guards.get_mut(&p) {
                ps.remove_member(as_member);
            }
            if let Some(e) = meta.edges.get_mut(&p) {
                e.remove(&id);
                if e.is_empty() {
                    meta.edges.remove(&p);
                }
            }
        }
    }
    // Actors hosted in the destroyed space are re-hosted to the root so
    // later sends from them still have a resolution scope.
    for rec in meta.actors.values_mut() {
        if rec.host == id {
            rec.host = ROOT_SPACE;
        }
    }
}

/// Removes an actor entirely (death). Its memberships disappear. The caller
/// must hold every space the actor is visible in.
fn remove_actor_locked<M>(meta: &mut Meta<M>, guards: &mut Guards<'_, M>, id: ActorId) {
    meta.actors.remove(&id);
    let as_member = MemberId::Actor(id);
    if let Some(parents) = meta.containers.remove(&as_member) {
        for p in parents {
            if let Some(ps) = guards.get_mut(&p) {
                ps.remove_member(as_member);
            }
        }
    }
    meta.roots.remove(&id);
}

/// The ActorSpace universe for one node, sharded by space. Every operation
/// takes `&self`, and operations on disjoint spaces never contend.
pub struct ShardedRegistry<M> {
    ids: IdGen,
    meta: RwLock<Meta<M>>,
    /// Policy template applied to newly created spaces.
    default_policy: ManagerPolicy,
    obs: Arc<Obs>,
    node: u16,
    m: CoreMetrics,
}

impl<M: Clone> ShardedRegistry<M> {
    /// Creates a sharded coordinator whose root space (§7.1) uses
    /// `default_policy`, reporting to a private default observer (see
    /// [`ShardedRegistry::set_obs`]).
    pub fn new(default_policy: ManagerPolicy) -> ShardedRegistry<M> {
        let obs = Obs::shared(ObsConfig::default());
        let m = CoreMetrics::resolve(&obs, 0);
        let reg = ShardedRegistry {
            ids: IdGen::default(),
            meta: RwLock::new(
                LockClass::Meta,
                Meta {
                    shards: BTreeMap::new(),
                    actors: HashMap::new(),
                    containers: HashMap::new(),
                    edges: HashMap::new(),
                    roots: HashSet::new(),
                    tolerated: HashSet::new(),
                },
            ),
            default_policy,
            obs,
            node: 0,
            m,
        };
        let root = reg.mk_shard(ROOT_SPACE, Guard::Open);
        reg.meta.write().shards.insert(ROOT_SPACE, root);
        reg
    }

    /// Creates a coordinator whose id generator starts at `base` — used by
    /// the cluster layer to give each node a disjoint address range.
    pub fn with_id_base(default_policy: ManagerPolicy, base: u64) -> ShardedRegistry<M> {
        let mut r = ShardedRegistry::new(default_policy);
        r.ids = IdGen::new(base.max(1));
        r
    }

    /// Redirects metrics and trace events to `obs`, stamped with `node`,
    /// re-resolving every shard's per-space handles.
    pub fn set_obs(&mut self, obs: Arc<Obs>, node: u16) {
        self.m = CoreMetrics::resolve(&obs, node);
        {
            let mut meta = self.meta.write();
            for (&id, sh) in meta.shards.iter_mut() {
                sh.m = ShardMetrics::resolve(&obs, node, id);
            }
        }
        self.obs = obs;
        self.node = node;
    }

    /// The observer receiving this coordinator's telemetry.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The node label stamped on this coordinator's telemetry.
    pub fn node_label(&self) -> u16 {
        self.node
    }

    fn mk_shard(&self, id: SpaceId, guard: Guard) -> ShardHandle<M> {
        ShardHandle {
            space: Arc::new(Mutex::new(
                LockClass::Shard(id.0),
                Space::new(id, guard, self.default_policy.clone()),
            )),
            guard,
            m: ShardMetrics::resolve(&self.obs, self.node, id),
        }
    }

    /// §5.7 validator: under `--features lockcheck`, re-verifies the
    /// visibility relation is still acyclic after a topology mutation,
    /// leaving out the edges tolerating spaces accepted as cyclic.
    /// Compiles to nothing otherwise (`ENABLED` is a constant false).
    fn validate_dag_after_mutation(meta: &Meta<M>, op: &str) {
        if !actorspace_lockcheck::ENABLED {
            return;
        }
        let nodes: HashSet<SpaceId> = meta.shards.keys().copied().collect();
        let edges: HashMap<SpaceId, HashSet<SpaceId>> = meta
            .edges
            .iter()
            .map(|(&p, subs)| {
                let untolerated = subs.iter().filter(|&&c| !meta.tolerated.contains(&(p, c)));
                (p, untolerated.copied().collect())
            })
            .collect();
        assert!(
            visibility::is_dag(&nodes, &edges),
            "lockcheck: §5.7 invariant violated: visibility relation has a cycle after `{op}`"
        );
    }

    // ------------------------------------------------------------------
    // Creation and destruction
    // ------------------------------------------------------------------

    /// `create_actorSpace(capability)` (§5.2): a fresh space, in a fresh
    /// shard.
    pub fn create_space(&self, cap: Option<&Capability>) -> SpaceId {
        let _op = enter_coordinator("ShardedRegistry::create_space");
        let id = self.ids.next_space();
        let sh = self.mk_shard(id, Guard::from_creation(cap));
        self.meta.write().shards.insert(id, sh);
        id
    }

    /// Registers a new actor created in `host` (§7.1).
    pub fn create_actor(&self, host: SpaceId, cap: Option<&Capability>) -> Result<ActorId> {
        let _op = enter_coordinator("ShardedRegistry::create_actor");
        let mut meta = self.meta.write();
        if !meta.shards.contains_key(&host) {
            return Err(Error::NoSuchSpace(host));
        }
        let id = self.ids.next_actor();
        meta.actors.insert(
            id,
            ActorRecord {
                guard: Guard::from_creation(cap),
                host,
            },
        );
        Ok(id)
    }

    /// Allocates a fresh actor id without creating a record (§7.3 replica
    /// protocol).
    pub fn allocate_actor_id(&self) -> ActorId {
        self.ids.next_actor()
    }

    /// Allocates a fresh space id without creating a record.
    pub fn allocate_space_id(&self) -> SpaceId {
        self.ids.next_space()
    }

    /// Inserts an actor record with a caller-chosen id (replica apply).
    /// Returns false if the id was already present.
    pub fn insert_actor_record(&self, id: ActorId, host: SpaceId, guard: Guard) -> bool {
        let _op = enter_coordinator("ShardedRegistry::insert_actor_record");
        let mut meta = self.meta.write();
        if meta.actors.contains_key(&id) {
            return false;
        }
        meta.actors.insert(id, ActorRecord { guard, host });
        true
    }

    /// Inserts a space record with a caller-chosen id (replica apply).
    /// Returns false if present.
    pub fn insert_space_record(&self, id: SpaceId, guard: Guard) -> bool {
        let _op = enter_coordinator("ShardedRegistry::insert_space_record");
        let mut meta = self.meta.write();
        if meta.shards.contains_key(&id) {
            return false;
        }
        let sh = self.mk_shard(id, guard);
        meta.shards.insert(id, sh);
        true
    }

    /// Removes an actor (death / remote destroy event).
    pub fn remove_actor(&self, id: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::remove_actor");
        let mut meta = self.meta.write();
        let parents: BTreeSet<SpaceId> = meta
            .containers
            .get(&MemberId::Actor(id))
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let arcs = arcs_for(&meta, parents);
        let mut guards = lock_all(&arcs);
        remove_actor_locked(&mut meta, &mut guards, id);
    }

    /// Purges every actor whose raw id lies in `[lo, hi)` — the failover
    /// sweep for a crashed node. Returns how many actors were purged.
    pub fn purge_actor_range(&self, lo: u64, hi: u64) -> usize {
        let _op = enter_coordinator("ShardedRegistry::purge_actor_range");
        let mut meta = self.meta.write();
        let doomed: Vec<ActorId> = meta
            .actors
            .keys()
            .filter(|a| (lo..hi).contains(&a.0))
            .copied()
            .collect();
        let mut parents: BTreeSet<SpaceId> = BTreeSet::new();
        for a in &doomed {
            parents.extend(
                meta.containers
                    .get(&MemberId::Actor(*a))
                    .into_iter()
                    .flatten()
                    .copied(),
            );
        }
        let arcs = arcs_for(&meta, parents);
        let mut guards = lock_all(&arcs);
        for &a in &doomed {
            remove_actor_locked(&mut meta, &mut guards, a);
        }
        doomed.len()
    }

    /// Raises the id allocator so future ids are minted past `raw`.
    pub fn ensure_id_floor(&self, raw: u64) {
        self.ids.ensure_floor(raw);
    }

    /// Destroys a space (§7.1). Requires `Rights::MANAGE` when guarded.
    /// Locks the doomed shard plus every parent it is visible in.
    pub fn destroy_space(&self, id: SpaceId, cap: Option<&Capability>) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::destroy_space");
        if id == ROOT_SPACE {
            return Err(Error::RootImmortal);
        }
        let mut meta = self.meta.write();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        let mut set: BTreeSet<SpaceId> = BTreeSet::new();
        set.insert(id);
        if let Some(parents) = meta.containers.get(&MemberId::Space(id)) {
            set.extend(parents.iter().copied());
        }
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        remove_space_locked(&mut meta, &mut guards, id);
        Self::validate_dag_after_mutation(&meta, "destroy_space");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Visibility (§5.4)
    // ------------------------------------------------------------------

    /// The lock set for an operation that changes what is matchable in
    /// `space`: every space that can observe the change (the containment
    /// ancestors of `space`, §7.1) together with everything those spaces'
    /// resolutions can descend into. Computed from the meta tables alone.
    fn wake_lock_set(meta: &Meta<M>, space: SpaceId) -> BTreeSet<SpaceId> {
        let ancestors = visibility::ancestors(&meta.containers, space);
        visibility::reachable(&meta.edges, ancestors)
            .into_iter()
            .collect()
    }

    /// `make_visible(a, attributes @ space, capability)` (§5.4). Locks the
    /// full wake closure (plus, for a space member, the child's own
    /// subtree, which becomes reachable by the insertion), runs every check
    /// under those locks, and only then mutates — so a failed check never
    /// needs rollback. Suspended and persistent messages the change makes
    /// deliverable are pushed onto `out`.
    pub fn make_visible(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
        out: &mut Vec<Delivery<M>>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::make_visible");
        let mut meta = self.meta.write();
        member_guard(&meta, member)?.check(cap, Rights::VISIBILITY)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        let mut set = Self::wake_lock_set(&meta, space);
        if let MemberId::Space(child) = member {
            set.extend(visibility::reachable(&meta.edges, [child]));
        }
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        // §5.7: reject cycles *before* inserting — unless the space's
        // manager tolerates cycles (resolution then dedups visited states).
        // A tolerating space checks only for the lockcheck validator.
        let mut tolerated = false;
        if let MemberId::Space(child) = member {
            let forbid = guards
                .get(&space)
                .is_some_and(|sp| sp.policy().cycles == CyclePolicy::Forbid);
            if (forbid || actorspace_lockcheck::ENABLED)
                && visibility::would_cycle(&meta.edges, child, space)
            {
                if forbid {
                    return Err(Error::WouldCycle {
                        child,
                        parent: space,
                    });
                }
                tolerated = true;
            }
        }
        {
            let sp = guards.get_mut(&space).expect("scope is in the lock set");
            let authorized = {
                let _cb = enter_callback("Manager::authorize_visibility");
                sp.manager_mut().authorize_visibility(member, &attrs)
            };
            if !authorized {
                return Err(Error::Denied(GuardError::Missing));
            }
            sp.add_member(member, attrs);
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        meta.containers.entry(member).or_default().insert(space);
        if let MemberId::Space(child) = member {
            meta.edges.entry(space).or_default().insert(child);
            if tolerated {
                meta.tolerated.insert((space, child));
            } else {
                meta.tolerated.remove(&(space, child));
            }
        }
        Self::validate_dag_after_mutation(&meta, "make_visible");
        self.wake_locked(&meta, &mut guards, space, out);
        Ok(())
    }

    /// `make_invisible(actor, space, capability)`: removal from `space`
    /// suffices for all enclosing spaces (they reach members only through
    /// it), so only this one shard is locked.
    pub fn make_invisible(
        &self,
        member: MemberId,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::make_invisible");
        let mut meta = self.meta.write();
        member_guard(&meta, member)?.check(cap, Rights::VISIBILITY)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        let arcs = arcs_for(&meta, [space]);
        let mut guards = lock_all(&arcs);
        {
            let sp = guards.get_mut(&space).expect("existence checked above");
            if !sp.remove_member(member) {
                return Err(Error::NotVisible { member, space });
            }
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        if let Some(setm) = meta.containers.get_mut(&member) {
            setm.remove(&space);
            if setm.is_empty() {
                meta.containers.remove(&member);
            }
        }
        if let MemberId::Space(child) = member {
            if let Some(e) = meta.edges.get_mut(&space) {
                e.remove(&child);
                if e.is_empty() {
                    meta.edges.remove(&space);
                }
            }
            meta.tolerated.remove(&(space, child));
        }
        Self::validate_dag_after_mutation(&meta, "make_invisible");
        Ok(())
    }

    /// `change_attributes(member, attrs @ space, capability)` (§5.4). The
    /// topology is unchanged, so meta is only read-locked; the wake closure
    /// of `space` is still locked because new matches may wake suspended
    /// messages in any ancestor.
    pub fn change_attributes(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
        out: &mut Vec<Delivery<M>>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::change_attributes");
        let meta = self.meta.read();
        member_guard(&meta, member)?.check(cap, Rights::ATTRIBUTES)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        let set = Self::wake_lock_set(&meta, space);
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        {
            let sp = guards.get_mut(&space).expect("scope is in the lock set");
            let authorized = {
                let _cb = enter_callback("Manager::authorize_visibility");
                sp.manager_mut().authorize_visibility(member, &attrs)
            };
            if !authorized {
                return Err(Error::Denied(GuardError::Missing));
            }
            if !sp.set_attributes(member, attrs) {
                return Err(Error::NotVisible { member, space });
            }
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        self.wake_locked(&meta, &mut guards, space, out);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Manager customization (§8)
    // ------------------------------------------------------------------

    /// Replaces a space's policy table. Requires `Rights::MANAGE`.
    pub fn set_space_policy(
        &self,
        space: SpaceId,
        policy: ManagerPolicy,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_space_policy");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_policy(policy);
        Ok(())
    }

    /// Installs a custom manager on a space. Requires `Rights::MANAGE`.
    pub fn set_space_manager(
        &self,
        space: SpaceId,
        manager: Box<dyn Manager>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_space_manager");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_manager(manager);
        Ok(())
    }

    /// Installs (or clears) a custom matching rule on a space. Requires
    /// `Rights::MANAGE`.
    pub fn set_match_filter(
        &self,
        space: SpaceId,
        filter: Option<crate::space::MatchFilter>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_match_filter");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_match_filter(filter);
        Ok(())
    }

    /// Reports an actor's load for `LeastLoaded` arbitration in `space`.
    pub fn report_load(&self, space: SpaceId, actor: ActorId, load: u64) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::report_load");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.space.lock().selector_mut().set_load(actor, load);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Roots (external handles) — GC anchoring
    // ------------------------------------------------------------------

    /// Marks an actor as externally referenced (a live handle exists).
    pub fn add_root(&self, a: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::add_root");
        self.meta.write().roots.insert(a);
    }

    /// Clears the external-reference mark.
    pub fn remove_root(&self, a: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::remove_root");
        self.meta.write().roots.remove(&a);
    }

    // ------------------------------------------------------------------
    // Communication (§5.3, §5.6)
    // ------------------------------------------------------------------

    /// `send(pattern@space, message)` — deliver to one non-deterministically
    /// chosen matching actor (§5.3), pushed onto `out`. Locks the
    /// visibility closure of `space` only.
    pub fn send(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        out: &mut Vec<Delivery<M>>,
    ) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::send");
        let trace = self.obs.tracer.begin();
        self.m.sends.inc();
        self.obs
            .tracer
            .record(trace, self.node, Stage::Submitted { broadcast: false });
        let meta = self.meta.read();
        let (mut guards, m) = lock_scope(&meta, space);
        if let Some(m) = m {
            m.sends.inc();
        }
        self.send_locked(&meta, &mut guards, pattern, space, msg, out, trace)
    }

    /// `broadcast(pattern@space, message)` — deliver to all matching actors
    /// (§5.3), persisting under [`UnmatchedPolicy::Persistent`] (§5.6).
    pub fn broadcast(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        out: &mut Vec<Delivery<M>>,
    ) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::broadcast");
        let trace = self.obs.tracer.begin();
        self.m.broadcasts.inc();
        self.obs
            .tracer
            .record(trace, self.node, Stage::Submitted { broadcast: true });
        let meta = self.meta.read();
        let (mut guards, m) = lock_scope(&meta, space);
        if let Some(m) = m {
            m.broadcasts.inc();
        }
        self.broadcast_locked(&meta, &mut guards, pattern, space, msg, out, trace)
    }

    /// Re-resolves a previously routed message against the current state —
    /// the failover path after its original recipient (or the node holding
    /// it) died. Semantics match a fresh `send`/`broadcast` under the
    /// space's unmatched policy, but the message's existing lifecycle trace
    /// is *continued*: no new trace is begun, no `submitted` stage is
    /// emitted, and node- and space-level submit counters are not
    /// re-incremented, so the export shows one unbroken
    /// `submitted → … → failed_over → … → delivered` history.
    pub fn resend(&self, route: &Route, msg: M, out: &mut Vec<Delivery<M>>) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::resend");
        let meta = self.meta.read();
        let (mut guards, _) = lock_scope(&meta, route.space);
        let (pattern, space, trace) = (&route.pattern, route.space, route.trace);
        match route.kind {
            DeliveryKind::Send => {
                self.send_locked(&meta, &mut guards, pattern, space, msg, out, trace)
            }
            DeliveryKind::Broadcast => {
                self.broadcast_locked(&meta, &mut guards, pattern, space, msg, out, trace)
            }
        }
    }

    /// Cancels every persistent broadcast registered on `space`. Requires
    /// `Rights::MANAGE` when guarded.
    pub fn cancel_persistent(&self, space: SpaceId, cap: Option<&Capability>) -> Result<usize> {
        let _op = enter_coordinator("ShardedRegistry::cancel_persistent");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        let n = sh.space.lock().clear_persistent();
        Ok(n)
    }

    /// Resolution with literal-pattern accounting: a literal pattern's
    /// resolution bumps the scope shard's per-space `core.index.hits` or
    /// `core.index.misses` counter by whether it found any actor.
    fn resolve_counted(
        &self,
        meta: &Meta<M>,
        guards: &impl SpaceStore<M>,
        pattern: &Pattern,
        scope: SpaceId,
    ) -> Result<Vec<ActorId>> {
        let out = matching::resolve_actors(guards, pattern, scope)?;
        if pattern.is_literal() {
            if let Some(sh) = meta.shards.get(&scope) {
                if out.is_empty() {
                    sh.m.index_misses.inc();
                } else {
                    sh.m.index_hits.inc();
                }
            }
        }
        Ok(out)
    }

    /// What `pattern` resolves to in `space` for a send or broadcast: the
    /// scope's memoized resolution when it has one, else a walk. The caller
    /// hands the result back through [`ScopeGuards::remember`].
    fn candidates(
        &self,
        meta: &Meta<M>,
        guards: &mut ScopeGuards<'_, M>,
        pattern: &Pattern,
        space: SpaceId,
    ) -> Result<Vec<ActorId>> {
        let memoized = guards
            .memo_scope(pattern)
            .and_then(|sp| sp.memo_take(pattern));
        match memoized {
            Some(found) => Ok(found),
            None => self.resolve_counted(meta, guards, pattern, space),
        }
    }

    #[allow(clippy::too_many_arguments)] // internal delivery plumbing carries its full context
    fn send_locked(
        &self,
        meta: &Meta<M>,
        guards: &mut ScopeGuards<'_, M>,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        out: &mut Vec<Delivery<M>>,
        trace: TraceId,
    ) -> Result<Disposition> {
        // Match latency is sampled with the trace: the extra clock reads
        // stay off the unsampled hot path.
        let t0 = if trace.is_some() {
            self.obs.now_nanos()
        } else {
            0
        };
        let candidates = self.candidates(meta, guards, pattern, space)?;
        if !candidates.is_empty() {
            self.m.matched.inc();
            if trace.is_some() {
                self.m
                    .match_ns
                    .record(self.obs.now_nanos().saturating_sub(t0));
                self.obs.tracer.record(
                    trace,
                    self.node,
                    Stage::Matched {
                        candidates: candidates.len() as u32,
                    },
                );
            }
            let pick = {
                let sp = guards
                    .get_space_mut(space)
                    .ok_or(Error::NoSuchSpace(space))?;
                let _cb = enter_callback("Manager::choose");
                match sp.manager_mut().choose(&candidates) {
                    Some(choice) => choice,
                    None => sp.selector_mut().select(&candidates),
                }
            };
            guards.remember(pattern, candidates);
            out.push(Delivery {
                to: pick,
                msg,
                route: Route {
                    pattern: pattern.clone(),
                    space,
                    kind: DeliveryKind::Send,
                    trace,
                },
            });
            return Ok(Disposition::Delivered(1));
        }
        let policy = {
            let sp = guards
                .get_space_mut(space)
                .ok_or(Error::NoSuchSpace(space))?;
            let _cb = enter_callback("Manager::unmatched_send");
            sp.manager_mut()
                .unmatched_send()
                .unwrap_or(sp.policy().unmatched_send)
        };
        match policy {
            // Persistent degenerates to Suspend for point-to-point sends:
            // the message still goes to exactly one recipient, just later.
            UnmatchedPolicy::Suspend | UnmatchedPolicy::Persistent => {
                self.m.suspended.inc();
                self.obs.tracer.record(trace, self.node, Stage::Suspended);
                let since_nanos = self.obs.now_nanos();
                guards
                    .get_space_mut(space)
                    .ok_or(Error::NoSuchSpace(space))?
                    .push_pending(Pending {
                        pattern: pattern.clone(),
                        msg,
                        kind: DeliveryKind::Send,
                        trace,
                        since_nanos,
                    });
                Ok(Disposition::Suspended)
            }
            UnmatchedPolicy::Discard => {
                self.m.discarded.inc();
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Ok(Disposition::Discarded)
            }
            UnmatchedPolicy::Error => {
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Err(Error::NoMatch {
                    pattern: pattern.text().to_owned(),
                    space,
                })
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // internal delivery plumbing carries its full context
    fn broadcast_locked(
        &self,
        meta: &Meta<M>,
        guards: &mut ScopeGuards<'_, M>,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        out: &mut Vec<Delivery<M>>,
        trace: TraceId,
    ) -> Result<Disposition> {
        let t0 = if trace.is_some() {
            self.obs.now_nanos()
        } else {
            0
        };
        let candidates = self.candidates(meta, guards, pattern, space)?;
        let policy = {
            let sp = guards
                .get_space_mut(space)
                .ok_or(Error::NoSuchSpace(space))?;
            let _cb = enter_callback("Manager::unmatched_broadcast");
            sp.manager_mut()
                .unmatched_broadcast()
                .unwrap_or(sp.policy().unmatched_broadcast)
        };
        if !candidates.is_empty() {
            self.m.matched.add(candidates.len() as u64);
            if trace.is_some() {
                self.m
                    .match_ns
                    .record(self.obs.now_nanos().saturating_sub(t0));
                self.obs.tracer.record(
                    trace,
                    self.node,
                    Stage::Matched {
                        candidates: candidates.len() as u32,
                    },
                );
            }
        }
        let route = Route {
            pattern: pattern.clone(),
            space,
            kind: DeliveryKind::Broadcast,
            trace,
        };
        if policy == UnmatchedPolicy::Persistent {
            out.extend(candidates.iter().map(|&to| Delivery {
                to,
                msg: msg.clone(),
                route: route.clone(),
            }));
            let n = candidates.len();
            guards
                .get_space_mut(space)
                .ok_or(Error::NoSuchSpace(space))?
                .push_persistent(PersistentBroadcast {
                    pattern: pattern.clone(),
                    msg,
                    delivered: candidates.iter().copied().collect(),
                });
            guards.remember(pattern, candidates);
            return Ok(Disposition::Persistent(n));
        }
        if !candidates.is_empty() {
            let n = candidates.len();
            out.extend(candidates.iter().map(|&to| Delivery {
                to,
                msg: msg.clone(),
                route: route.clone(),
            }));
            guards.remember(pattern, candidates);
            return Ok(Disposition::Delivered(n));
        }
        match policy {
            UnmatchedPolicy::Suspend => {
                self.m.suspended.inc();
                self.obs.tracer.record(trace, self.node, Stage::Suspended);
                let since_nanos = self.obs.now_nanos();
                guards
                    .get_space_mut(space)
                    .ok_or(Error::NoSuchSpace(space))?
                    .push_pending(Pending {
                        pattern: pattern.clone(),
                        msg,
                        kind: DeliveryKind::Broadcast,
                        trace,
                        since_nanos,
                    });
                Ok(Disposition::Suspended)
            }
            UnmatchedPolicy::Discard => {
                self.m.discarded.inc();
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Ok(Disposition::Discarded)
            }
            UnmatchedPolicy::Error => {
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Err(Error::NoMatch {
                    pattern: pattern.text().to_owned(),
                    space,
                })
            }
            UnmatchedPolicy::Persistent => unreachable!("handled above"),
        }
    }

    /// Retries suspended and persistent messages after a visibility or
    /// attribute change in `changed`. A change is observable from `changed`
    /// itself and from every space that can reach it through the visibility
    /// DAG, so all of those queues are swept, in ascending id order (§5.3
    /// leaves cross-space order unspecified).
    fn wake_locked(
        &self,
        meta: &Meta<M>,
        guards: &mut Guards<'_, M>,
        changed: SpaceId,
        out: &mut Vec<Delivery<M>>,
    ) {
        let mut affected: Vec<SpaceId> = visibility::ancestors(&meta.containers, changed)
            .into_iter()
            .collect();
        affected.sort_unstable();
        for s in affected {
            self.retry_space_locked(meta, guards, s, out);
        }
    }

    fn retry_space_locked(
        &self,
        meta: &Meta<M>,
        guards: &mut Guards<'_, M>,
        space: SpaceId,
        out: &mut Vec<Delivery<M>>,
    ) {
        // --- Suspended messages (§5.6) ---
        let pending = match guards.get_mut(&space) {
            Some(sp) if !sp.pending().is_empty() => sp.take_pending(),
            _ => Vec::new(),
        };
        let mut still_waiting = Vec::new();
        for p in pending {
            let candidates = self
                .resolve_counted(meta, guards, &p.pattern, space)
                .unwrap_or_default();
            if candidates.is_empty() {
                still_waiting.push(p);
                continue;
            }
            self.m.woken.inc();
            self.m
                .dwell_ns
                .record(self.obs.now_nanos().saturating_sub(p.since_nanos));
            self.obs.tracer.record(p.trace, self.node, Stage::Woken);
            let route = Route {
                pattern: p.pattern,
                space,
                kind: p.kind,
                trace: p.trace,
            };
            match p.kind {
                DeliveryKind::Send => {
                    let pick = guards.get_mut(&space).map(|sp| {
                        let _cb = enter_callback("Manager::choose");
                        match sp.manager_mut().choose(&candidates) {
                            Some(choice) => choice,
                            None => sp.selector_mut().select(&candidates),
                        }
                    });
                    if let Some(to) = pick {
                        out.push(Delivery {
                            to,
                            msg: p.msg,
                            route,
                        });
                    }
                }
                DeliveryKind::Broadcast => {
                    out.extend(candidates.into_iter().map(|to| Delivery {
                        to,
                        msg: p.msg.clone(),
                        route: route.clone(),
                    }));
                }
            }
        }
        if !still_waiting.is_empty() {
            if let Some(sp) = guards.get_mut(&space) {
                for p in still_waiting {
                    sp.push_pending(p);
                }
            }
        }

        // --- Persistent broadcasts: exactly-once to new matches (§5.6) ---
        let mut persistent = match guards.get_mut(&space) {
            Some(sp) if !sp.persistent().is_empty() => std::mem::take(sp.persistent_mut()),
            _ => return,
        };
        for pb in &mut persistent {
            let candidates = self
                .resolve_counted(meta, guards, &pb.pattern, space)
                .unwrap_or_default();
            // Late persistent deliveries are not tied back to the original
            // broadcast's trace: it may have terminated long ago, and an
            // open-ended stream of `delivered` events would make "exactly
            // one terminal stage" meaningless.
            let route = Route {
                pattern: pb.pattern.clone(),
                space,
                kind: DeliveryKind::Broadcast,
                trace: TraceId::NONE,
            };
            for to in candidates {
                if pb.delivered.insert(to) {
                    out.push(Delivery {
                        to,
                        msg: pb.msg.clone(),
                        route: route.clone(),
                    });
                }
            }
        }
        if let Some(sp) = guards.get_mut(&space) {
            *sp.persistent_mut() = persistent;
        }
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves `pattern` in `space` to the set of matching visible actors,
    /// descending through visible sub-spaces per the structured-attribute
    /// rule (§7.1). The result is deduplicated and sorted (an actor visible
    /// via several attribute paths is returned once).
    pub fn resolve(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<ActorId>> {
        let _op = enter_coordinator("ShardedRegistry::resolve");
        let meta = self.meta.read();
        let (guards, _) = lock_scope(&meta, space);
        self.resolve_counted(&meta, &guards, pattern, space)
    }

    /// Resolves `pattern` to matching *spaces* (§5.3 pattern-based space
    /// specification; see [`matching`]).
    pub fn resolve_spaces(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<SpaceId>> {
        let _op = enter_coordinator("ShardedRegistry::resolve_spaces");
        let meta = self.meta.read();
        let (guards, _) = lock_scope(&meta, space);
        matching::resolve_spaces_in(&guards, pattern, space)
    }

    /// Resolves a pattern-addressed space to exactly one space id (lowest
    /// id when several match).
    pub fn resolve_space_pattern(&self, pattern: &Pattern, scope: SpaceId) -> Result<SpaceId> {
        let spaces = self.resolve_spaces(pattern, scope)?;
        spaces.into_iter().next().ok_or_else(|| Error::NoMatch {
            pattern: pattern.text().to_owned(),
            space: scope,
        })
    }

    // ------------------------------------------------------------------
    // Garbage collection (§5.5)
    // ------------------------------------------------------------------

    /// Runs a stop-the-world mark/sweep collection (§5.5, see [`crate::gc`]):
    /// meta write-locked, every shard locked in ascending order.
    /// `acquaintances` reports, for a live actor, every mail address its
    /// current behavior holds; pass `|_| Vec::new()` when behaviors hold no
    /// addresses.
    pub fn collect_garbage(&self, acquaintances: &dyn Fn(ActorId) -> Vec<MemberId>) -> GcReport {
        let _op = enter_coordinator("ShardedRegistry::collect_garbage");
        let mut meta = self.meta.write();
        let all: Vec<SpaceId> = meta.shards.keys().copied().collect();
        let arcs = arcs_for(&meta, all);
        let mut guards = lock_all(&arcs);

        let mut live_actors: HashSet<ActorId> = HashSet::new();
        let mut live_spaces: HashSet<SpaceId> = HashSet::new();
        let mut work: Vec<MemberId> = Vec::new();
        work.push(MemberId::Space(ROOT_SPACE));
        for &a in &meta.roots {
            work.push(MemberId::Actor(a));
        }
        while let Some(m) = work.pop() {
            match m {
                MemberId::Actor(a) => {
                    if !meta.actors.contains_key(&a) || !live_actors.insert(a) {
                        continue;
                    }
                    let _cb = enter_callback("gc::acquaintances");
                    work.extend(acquaintances(a));
                }
                MemberId::Space(s) => {
                    if !live_spaces.insert(s) {
                        continue;
                    }
                    let Some(space) = guards.get(&s) else {
                        continue;
                    };
                    work.extend(space.members().keys().copied());
                }
            }
        }

        let mut collected_actors: Vec<ActorId> = meta
            .actors
            .keys()
            .filter(|a| !live_actors.contains(a))
            .copied()
            .collect();
        let mut collected_spaces: Vec<SpaceId> = meta
            .shards
            .keys()
            .filter(|s| !live_spaces.contains(s))
            .copied()
            .collect();
        collected_actors.sort_unstable();
        collected_spaces.sort_unstable();

        for &s in &collected_spaces {
            remove_space_locked(&mut meta, &mut guards, s);
        }
        for &a in &collected_actors {
            remove_actor_locked(&mut meta, &mut guards, a);
        }
        Self::validate_dag_after_mutation(&meta, "collect_garbage");

        GcReport {
            collected_actors,
            collected_spaces,
            live_actors: meta.actors.len(),
            live_spaces: meta.shards.len(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Does this space exist?
    pub fn space_exists(&self, id: SpaceId) -> bool {
        let _op = enter_coordinator("ShardedRegistry::space_exists");
        // Bind the guard: a tail-expression temporary would outlive `_op`.
        let meta = self.meta.read();
        meta.shards.contains_key(&id)
    }

    /// Does this actor exist?
    pub fn actor_exists(&self, id: ActorId) -> bool {
        let _op = enter_coordinator("ShardedRegistry::actor_exists");
        let meta = self.meta.read();
        meta.actors.contains_key(&id)
    }

    /// The actor's record (owned — the record lives behind the meta lock).
    pub fn actor(&self, id: ActorId) -> Result<ActorRecord> {
        let _op = enter_coordinator("ShardedRegistry::actor");
        let meta = self.meta.read();
        meta.actors.get(&id).cloned().ok_or(Error::NoSuchActor(id))
    }

    /// All spaces a member is directly visible in, sorted.
    pub fn containers_of(&self, member: MemberId) -> Vec<SpaceId> {
        let _op = enter_coordinator("ShardedRegistry::containers_of");
        let meta = self.meta.read();
        let mut v: Vec<SpaceId> = meta
            .containers
            .get(&member)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of live actors.
    pub fn actor_count(&self) -> usize {
        let _op = enter_coordinator("ShardedRegistry::actor_count");
        let meta = self.meta.read();
        meta.actors.len()
    }

    /// Number of live spaces (including the root).
    pub fn space_count(&self) -> usize {
        let _op = enter_coordinator("ShardedRegistry::space_count");
        let meta = self.meta.read();
        meta.shards.len()
    }

    /// Live actor ids, sorted.
    pub fn actor_ids(&self) -> Vec<ActorId> {
        let _op = enter_coordinator("ShardedRegistry::actor_ids");
        let mut v: Vec<ActorId> = self.meta.read().actors.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Live space ids, ascending.
    pub fn space_ids(&self) -> Vec<SpaceId> {
        let _op = enter_coordinator("ShardedRegistry::space_ids");
        let meta = self.meta.read();
        meta.shards.keys().copied().collect()
    }

    /// An observability snapshot of one space.
    pub fn space_info(&self, id: SpaceId) -> Result<SpaceInfo> {
        let _op = enter_coordinator("ShardedRegistry::space_info");
        let meta = self.meta.read();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        let sp = sh.space.lock();
        Ok(SpaceInfo {
            id,
            actor_members: sp.members().len() - sp.sub_spaces(),
            space_members: sp.sub_spaces(),
            pending_messages: sp.pending().len(),
            persistent_broadcasts: sp.persistent().len(),
            guarded: !sp.guard().is_open(),
        })
    }

    /// Runs `f` against one locked space, for inspection.
    pub fn with_space<R>(&self, id: SpaceId, f: impl FnOnce(&Space<M>) -> R) -> Result<R> {
        let _op = enter_coordinator("ShardedRegistry::with_space");
        let meta = self.meta.read();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        let sp = sh.space.lock();
        let _cb = enter_callback("with_space closure");
        Ok(f(&sp))
    }

    /// Validates the visibility relation is acyclic — property-test hook.
    pub fn is_dag(&self) -> bool {
        let _op = enter_coordinator("ShardedRegistry::is_dag");
        let meta = self.meta.read();
        let nodes: HashSet<SpaceId> = meta.shards.keys().copied().collect();
        visibility::is_dag(&nodes, &meta.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorspace_atoms::path;
    use actorspace_capability::CapMinter;
    use actorspace_pattern::pattern;

    type Sharded = ShardedRegistry<&'static str>;

    fn reg() -> Sharded {
        let p = ManagerPolicy {
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    /// The `(recipient, message)` pairs of a delivery buffer.
    fn pairs(out: &[Delivery<&'static str>]) -> Vec<(ActorId, &'static str)> {
        out.iter().map(|d| (d.to, d.msg)).collect()
    }

    #[test]
    fn root_space_exists_at_birth() {
        let r = reg();
        assert!(r.space_exists(ROOT_SPACE));
        assert_eq!(r.space_count(), 1);
    }

    #[test]
    fn send_reaches_one_matching_actor() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut out = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut out)
            .unwrap();
        let d = r.send(&pattern("w"), s, "job", &mut out).unwrap();
        assert_eq!(d, Disposition::Delivered(1));
        assert_eq!(pairs(&out).as_slice(), &[(a, "job")]);
    }

    #[test]
    fn suspended_send_wakes_on_arrival() {
        let r = reg();
        let s = r.create_space(None);
        let mut out = Vec::new();
        assert_eq!(
            r.send(&pattern("late"), s, "early", &mut out).unwrap(),
            Disposition::Suspended
        );
        assert_eq!(r.space_info(s).unwrap().pending_messages, 1);
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("late")], s, None, &mut out)
            .unwrap();
        assert_eq!(pairs(&out).as_slice(), &[(a, "early")]);
        assert_eq!(r.space_info(s).unwrap().pending_messages, 0);
    }

    #[test]
    fn wake_crosses_shards_to_ancestors() {
        // Suspended in OUTER, woken by an arrival in the nested INNER shard.
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let mut out = Vec::new();
        r.make_visible(inner.into(), vec![path("pool")], outer, None, &mut out)
            .unwrap();
        r.send(&pattern("pool/worker"), outer, "job", &mut out)
            .unwrap();
        assert!(out.is_empty());
        let a = r.create_actor(inner, None).unwrap();
        r.make_visible(a.into(), vec![path("worker")], inner, None, &mut out)
            .unwrap();
        assert_eq!(pairs(&out).as_slice(), &[(a, "job")]);
    }

    #[test]
    fn cycles_rejected_through_edge_map() {
        let r = reg();
        let a = r.create_space(None);
        let b = r.create_space(None);
        let c = r.create_space(None);
        let mut out = Vec::new();
        r.make_visible(MemberId::Space(a), vec![path("a")], b, None, &mut out)
            .unwrap();
        r.make_visible(MemberId::Space(b), vec![path("b")], c, None, &mut out)
            .unwrap();
        let err = r
            .make_visible(MemberId::Space(c), vec![path("c")], a, None, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: c,
                parent: a
            }
        );
        assert!(r.is_dag());
    }

    /// A space that tolerates cycles and a space that forbids them, with
    /// `forbid → tolerant` accepted as acyclic and `tolerant → forbid`
    /// accepted as cyclic.
    #[cfg(feature = "lockcheck")]
    fn tolerated_cycle() -> (Sharded, SpaceId, SpaceId) {
        let r = reg();
        let forbid = r.create_space(None);
        let tolerant = r.create_space(None);
        let policy = ManagerPolicy {
            cycles: CyclePolicy::TolerateWithDedup,
            ..Default::default()
        };
        r.set_space_policy(tolerant, policy, None).unwrap();
        let mut out = Vec::new();
        r.make_visible(tolerant.into(), vec![path("t")], forbid, None, &mut out)
            .unwrap();
        r.make_visible(forbid.into(), vec![path("f")], tolerant, None, &mut out)
            .unwrap();
        (r, forbid, tolerant)
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn tolerated_edges_are_forgotten_when_removed() {
        let (r, forbid, tolerant) = tolerated_cycle();
        assert!(!r.is_dag());
        assert_eq!(r.meta.read().tolerated, HashSet::from([(tolerant, forbid)]));
        r.make_invisible(forbid.into(), tolerant, None).unwrap();
        assert!(r.meta.read().tolerated.is_empty());
        let mut out = Vec::new();
        r.make_visible(forbid.into(), vec![path("f")], tolerant, None, &mut out)
            .unwrap();
        r.destroy_space(tolerant, None).unwrap();
        assert!(r.meta.read().tolerated.is_empty());
        assert!(r.is_dag());
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    #[should_panic(expected = "§5.7 invariant violated")]
    fn validator_still_sees_cycles_among_forbidding_spaces() {
        // A tolerated cycle elsewhere must not hide a cycle no tolerating
        // space accepted (here planted directly in the edge map).
        let (r, _, _) = tolerated_cycle();
        let a = r.create_space(None);
        let b = r.create_space(None);
        let mut meta = r.meta.write();
        meta.edges.entry(a).or_default().insert(b);
        meta.edges.entry(b).or_default().insert(a);
        Sharded::validate_dag_after_mutation(&meta, "planted");
    }

    #[test]
    fn destroy_space_detaches_and_rehosts() {
        let r = reg();
        let parent = r.create_space(None);
        let child = r.create_space(None);
        let a = r.create_actor(child, None).unwrap();
        let mut out = Vec::new();
        r.make_visible(
            MemberId::Space(child),
            vec![path("c")],
            parent,
            None,
            &mut out,
        )
        .unwrap();
        r.destroy_space(child, None).unwrap();
        assert!(!r.space_exists(child));
        assert!(r
            .with_space(parent, |sp| !sp.contains(MemberId::Space(child)))
            .unwrap());
        assert_eq!(r.actor(a).unwrap().host, ROOT_SPACE);
        assert!(r.is_dag());
    }

    #[test]
    fn guarded_space_checks_without_shard_lock() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(Some(&cap));
        assert!(matches!(r.destroy_space(s, None), Err(Error::Denied(_))));
        assert!(r.space_info(s).unwrap().guarded);
        r.destroy_space(s, Some(&cap)).unwrap();
    }

    #[test]
    fn per_space_counters_label_snapshots() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut out = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut out)
            .unwrap();
        r.send(&pattern("w"), s, "x", &mut out).unwrap();
        r.send(&pattern("w"), s, "y", &mut out).unwrap();
        r.broadcast(&pattern("w"), s, "z", &mut out).unwrap();
        let snap = r.obs().snapshot();
        assert_eq!(
            snap.counter_for_space(names::CORE_SPACE_SENDS, 0, s.0),
            Some(2)
        );
        assert_eq!(
            snap.counter_for_space(names::CORE_SPACE_BROADCASTS, 0, s.0),
            Some(1)
        );
        // Literal sends took the index fast path: two hits.
        assert_eq!(
            snap.counter_for_space(names::CORE_INDEX_HITS, 0, s.0),
            Some(3)
        );
    }

    #[test]
    fn purge_range_sweeps_memberships() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let mut out = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut out)
            .unwrap();
        r.make_visible(b.into(), vec![path("w")], s, None, &mut out)
            .unwrap();
        assert_eq!(r.purge_actor_range(a.0, b.0), 1);
        assert!(!r.actor_exists(a));
        assert!(r.actor_exists(b));
        assert_eq!(r.resolve(&pattern("w"), s).unwrap(), vec![b]);
    }

    #[test]
    fn gc_mirrors_single_lock_collector() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let keep = r.create_actor(ROOT_SPACE, None).unwrap();
        r.add_root(keep);
        let mut out = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut out)
            .unwrap();
        let report = r.collect_garbage(&|_| Vec::new());
        assert_eq!(report.collected_spaces, vec![s]);
        assert_eq!(report.collected_actors, vec![a]);
        assert_eq!(report.live_actors, 1);
        assert_eq!(report.live_spaces, 1);
    }
}

#[cfg(test)]
/// The resolution memo: a send or broadcast through one compiled pattern
/// answers as a fresh walk does after every change that can move it.
mod memo_tests {
    use super::*;
    use crate::space::MatchFilter;
    use actorspace_atoms::path;
    use actorspace_pattern::pattern;

    fn reg() -> ShardedRegistry<u32> {
        ShardedRegistry::new(ManagerPolicy {
            unmatched_send: UnmatchedPolicy::Discard,
            unmatched_broadcast: UnmatchedPolicy::Discard,
            selection_seed: Some(7),
            ..ManagerPolicy::default()
        })
    }

    /// Sends and broadcasts through `handle`, then checks both against a
    /// resolve of a fresh parse of its text (a body no memo holds, and
    /// `resolve` always walks). Returns what the broadcast reached.
    fn check(r: &ShardedRegistry<u32>, handle: &Pattern, s: SpaceId) -> Vec<ActorId> {
        let fresh = r.resolve(&pattern(handle.text()), s).unwrap();
        let mut out = Vec::new();
        let sent = r.send(handle, s, 1, &mut out).unwrap();
        let to: Vec<ActorId> = out.drain(..).map(|d| d.to).collect();
        if fresh.is_empty() {
            assert_eq!((sent, to), (Disposition::Discarded, vec![]));
        } else {
            assert_eq!(sent, Disposition::Delivered(1));
            assert!(fresh.contains(&to[0]), "sent to {to:?}, not in {fresh:?}");
        }
        r.broadcast(handle, s, 2, &mut out).unwrap();
        let mut all: Vec<ActorId> = out.iter().map(|d| d.to).collect();
        all.sort_unstable();
        assert_eq!(
            all, fresh,
            "broadcast through {handle} disagrees with a walk"
        );
        all
    }

    /// A space with actors `a` and `b` visible as `svc/a` and `svc/b`, and
    /// the `svc/*` handle, already memoized there.
    fn two_replicas() -> (ShardedRegistry<u32>, SpaceId, ActorId, ActorId, Pattern) {
        let r = reg();
        let s = r.create_space(None);
        let mut out = Vec::new();
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("svc/a")], s, None, &mut out)
            .unwrap();
        r.make_visible(b.into(), vec![path("svc/b")], s, None, &mut out)
            .unwrap();
        let handle = pattern("svc/*");
        assert_eq!(check(&r, &handle, s), vec![a, b]);
        (r, s, a, b, handle)
    }

    #[test]
    fn make_visible_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        let c = r.create_actor(s, None).unwrap();
        r.make_visible(c.into(), vec![path("svc/c")], s, None, &mut Vec::new())
            .unwrap();
        assert_eq!(check(&r, &handle, s), vec![a, b, c]);
    }

    #[test]
    fn make_invisible_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        r.make_invisible(b.into(), s, None).unwrap();
        assert_eq!(check(&r, &handle, s), vec![a]);
    }

    #[test]
    fn change_attributes_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        r.change_attributes(b.into(), vec![path("other/b")], s, None, &mut Vec::new())
            .unwrap();
        assert_eq!(check(&r, &handle, s), vec![a]);
    }

    #[test]
    fn remove_actor_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        r.remove_actor(a);
        assert_eq!(check(&r, &handle, s), vec![b]);
    }

    #[test]
    fn purge_actor_range_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        assert_eq!(r.purge_actor_range(b.0, b.0 + 1), 1);
        assert_eq!(check(&r, &handle, s), vec![a]);
    }

    #[test]
    fn set_match_filter_moves_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        let filter: MatchFilter = Arc::new(move |_, m, _| m != MemberId::Actor(b));
        r.set_match_filter(s, Some(filter), None).unwrap();
        assert_eq!(check(&r, &handle, s), vec![a]);
        r.set_match_filter(s, None, None).unwrap();
        assert_eq!(check(&r, &handle, s), vec![a, b]);
    }

    #[test]
    fn set_space_policy_keeps_the_answer() {
        let (r, s, a, b, handle) = two_replicas();
        let policy = ManagerPolicy {
            unmatched_send: UnmatchedPolicy::Discard,
            unmatched_broadcast: UnmatchedPolicy::Discard,
            selection: crate::policy::SelectionPolicy::RoundRobin,
            max_match_depth: 0,
            ..ManagerPolicy::default()
        };
        r.set_space_policy(s, policy, None).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            r.send(&handle, s, 3, &mut out).unwrap();
        }
        let picks: Vec<ActorId> = out.iter().map(|d| d.to).collect();
        assert_eq!(
            picks,
            vec![a, b, a],
            "round robin restarts in address order"
        );
        assert_eq!(check(&r, &handle, s), vec![a, b]);
    }

    #[test]
    fn literal_sends_are_looked_up_and_counted_every_time() {
        let (r, s, _, b, _) = two_replicas();
        let literal = pattern("svc/b");
        let mut out = Vec::new();
        for _ in 0..3 {
            r.send(&literal, s, 1, &mut out).unwrap();
        }
        assert!(out.iter().all(|d| d.to == b));
        let hits = r.obs().snapshot();
        assert_eq!(
            hits.counter_for_space(names::CORE_INDEX_HITS, 0, s.0),
            Some(3)
        );
    }

    #[test]
    fn a_match_filter_sees_every_send() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (r, s, _, _, handle) = two_replicas();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let filter: MatchFilter = Arc::new(move |_, _, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            true
        });
        r.set_match_filter(s, Some(filter), None).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            r.send(&handle, s, 1, &mut out).unwrap();
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            6,
            "two candidates, three walks"
        );
    }

    #[test]
    fn a_visible_sub_space_is_walked_not_memoized() {
        let (r, s, a, b, handle) = two_replicas();
        let mut out = Vec::new();
        let t = r.create_space(None);
        let c = r.create_actor(t, None).unwrap();
        r.make_visible(c.into(), vec![path("c")], t, None, &mut out)
            .unwrap();
        r.make_visible(t.into(), vec![path("svc")], s, None, &mut out)
            .unwrap();
        assert_eq!(check(&r, &handle, s), vec![a, b, c]);
        // A change inside the sub-space touches only its own memo.
        let d = r.create_actor(t, None).unwrap();
        r.make_visible(d.into(), vec![path("d")], t, None, &mut out)
            .unwrap();
        assert_eq!(check(&r, &handle, s), vec![a, b, c, d]);
        r.make_invisible(t.into(), s, None).unwrap();
        assert_eq!(check(&r, &handle, s), vec![a, b]);
    }
}

#[cfg(test)]
/// Creation, visibility, capability and destruction checks on the
/// coordinator's tables (deliveries are not inspected).
mod topology_tests {
    use super::*;
    use actorspace_atoms::path;
    use actorspace_capability::CapMinter;

    fn reg() -> ShardedRegistry<u32> {
        ShardedRegistry::new(ManagerPolicy::default())
    }

    #[test]
    fn create_space_and_actor() {
        let r = reg();
        let s = r.create_space(None);
        assert!(r.space_exists(s));
        let a = r.create_actor(s, None).unwrap();
        assert!(r.actor_exists(a));
        assert_eq!(r.actor(a).unwrap().host, s);
    }

    #[test]
    fn create_actor_in_missing_space_fails() {
        let r = reg();
        let err = r.create_actor(SpaceId(999), None).unwrap_err();
        assert_eq!(err, Error::NoSuchSpace(SpaceId(999)));
    }

    #[test]
    fn make_visible_then_invisible() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let m = MemberId::Actor(a);
        let mut out = Vec::new();
        r.make_visible(m, vec![path("w")], s, None, &mut out)
            .unwrap();
        assert!(r.with_space(s, |sp| sp.contains(m)).unwrap());
        assert_eq!(r.containers_of(m), vec![s]);
        r.make_invisible(m, s, None).unwrap();
        assert!(!r.with_space(s, |sp| sp.contains(m)).unwrap());
        assert_eq!(r.containers_of(m).len(), 0);
    }

    #[test]
    fn make_invisible_when_not_visible_errors() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let err = r.make_invisible(MemberId::Actor(a), s, None).unwrap_err();
        assert!(matches!(err, Error::NotVisible { .. }));
    }

    #[test]
    fn actors_are_not_visible_by_default() {
        // §5.4: "When an actor or an actorSpace is created, it is not
        // automatically placed in an actorSpace."
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        assert!(!r
            .with_space(s, |sp| sp.contains(MemberId::Actor(a)))
            .unwrap());
        assert!(!r
            .with_space(ROOT_SPACE, |sp| sp.contains(MemberId::Actor(a)))
            .unwrap());
    }

    #[test]
    fn capability_guards_visibility() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let wrong = mint.new_capability();
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, Some(&cap)).unwrap();
        let m = MemberId::Actor(a);
        let mut out = Vec::new();
        // No capability → denied.
        assert!(matches!(
            r.make_visible(m, vec![path("w")], s, None, &mut out),
            Err(Error::Denied(_))
        ));
        // Wrong capability → denied.
        assert!(matches!(
            r.make_visible(m, vec![path("w")], s, Some(&wrong), &mut out),
            Err(Error::Denied(_))
        ));
        // Right capability → ok.
        r.make_visible(m, vec![path("w")], s, Some(&cap), &mut out)
            .unwrap();
        // Restricted capability lacking VISIBILITY → denied for invisibility.
        let weak = cap.restrict(Rights::ATTRIBUTES);
        assert!(matches!(
            r.make_invisible(m, s, Some(&weak)),
            Err(Error::Denied(_))
        ));
        r.make_invisible(m, s, Some(&cap)).unwrap();
    }

    #[test]
    fn change_attributes_requires_visibility_and_right() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, Some(&cap)).unwrap();
        let m = MemberId::Actor(a);
        let mut out = Vec::new();
        // Not visible yet.
        assert!(matches!(
            r.change_attributes(m, vec![path("x")], s, Some(&cap), &mut out),
            Err(Error::NotVisible { .. })
        ));
        r.make_visible(m, vec![path("w")], s, Some(&cap), &mut out)
            .unwrap();
        r.change_attributes(m, vec![path("x")], s, Some(&cap), &mut out)
            .unwrap();
        assert_eq!(
            r.with_space(s, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("x")]
        );
        // VISIBILITY-only capability cannot change attributes.
        let weak = cap.restrict(Rights::VISIBILITY);
        assert!(matches!(
            r.change_attributes(m, vec![path("y")], s, Some(&weak), &mut out),
            Err(Error::Denied(_))
        ));
    }

    #[test]
    fn self_visibility_is_rejected() {
        // §5.7: "we do not allow an actorSpace to be made visible in itself".
        let r = reg();
        let s = r.create_space(None);
        let mut out = Vec::new();
        let err = r
            .make_visible(MemberId::Space(s), vec![path("me")], s, None, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: s,
                parent: s
            }
        );
    }

    #[test]
    fn indirect_cycles_are_rejected() {
        // a visible in b, b visible in c ⇒ c cannot become visible in a.
        let r = reg();
        let a = r.create_space(None);
        let b = r.create_space(None);
        let c = r.create_space(None);
        let mut out = Vec::new();
        r.make_visible(MemberId::Space(a), vec![path("a")], b, None, &mut out)
            .unwrap();
        r.make_visible(MemberId::Space(b), vec![path("b")], c, None, &mut out)
            .unwrap();
        let err = r
            .make_visible(MemberId::Space(c), vec![path("c")], a, None, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: c,
                parent: a
            }
        );
        // The non-cyclic direction still works: a may also be visible in c.
        r.make_visible(MemberId::Space(a), vec![path("a2")], c, None, &mut out)
            .unwrap();
    }

    #[test]
    fn overlap_is_allowed() {
        // §3: "actorSpaces may overlap arbitrarily" — one actor in many
        // spaces, with different attributes in each.
        let r = reg();
        let s1 = r.create_space(None);
        let s2 = r.create_space(None);
        let a = r.create_actor(s1, None).unwrap();
        let m = MemberId::Actor(a);
        let mut out = Vec::new();
        r.make_visible(m, vec![path("red")], s1, None, &mut out)
            .unwrap();
        r.make_visible(m, vec![path("blue")], s2, None, &mut out)
            .unwrap();
        assert_eq!(
            r.with_space(s1, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("red")]
        );
        assert_eq!(
            r.with_space(s2, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("blue")]
        );
        let parents: Vec<SpaceId> = r.containers_of(m);
        let mut want = vec![s1, s2];
        want.sort_unstable();
        assert_eq!(parents, want);
    }

    #[test]
    fn destroy_space_spares_members() {
        // §5.5: "when an actorSpace is garbage collected, the actors
        // contained in that actorSpace themselves are not deleted."
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let m = MemberId::Actor(a);
        let mut out = Vec::new();
        r.make_visible(m, vec![path("w")], s, None, &mut out)
            .unwrap();
        r.destroy_space(s, None).unwrap();
        assert!(!r.space_exists(s));
        assert!(r.actor_exists(a));
        assert_eq!(r.containers_of(m).len(), 0);
        // The orphaned actor is re-hosted to the root.
        assert_eq!(r.actor(a).unwrap().host, ROOT_SPACE);
    }

    #[test]
    fn destroy_space_detaches_from_parents() {
        let r = reg();
        let parent = r.create_space(None);
        let child = r.create_space(None);
        let mut out = Vec::new();
        r.make_visible(
            MemberId::Space(child),
            vec![path("c")],
            parent,
            None,
            &mut out,
        )
        .unwrap();
        r.destroy_space(child, None).unwrap();
        assert!(!r
            .with_space(parent, |sp| sp.contains(MemberId::Space(child)))
            .unwrap());
    }

    #[test]
    fn destroy_root_fails() {
        let r = reg();
        assert_eq!(
            r.destroy_space(ROOT_SPACE, None).unwrap_err(),
            Error::RootImmortal
        );
    }

    #[test]
    fn destroy_guarded_space_needs_manage_right() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(Some(&cap));
        assert!(matches!(r.destroy_space(s, None), Err(Error::Denied(_))));
        let weak = cap.restrict(Rights::VISIBILITY);
        assert!(matches!(
            r.destroy_space(s, Some(&weak)),
            Err(Error::Denied(_))
        ));
        r.destroy_space(s, Some(&cap)).unwrap();
    }

    #[test]
    fn space_info_snapshots_membership_and_queues() {
        use actorspace_pattern::pattern;
        let r = reg();
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let s = r.create_space(Some(&cap));
        let sub = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = Vec::new();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_visible(sub.into(), vec![path("sub")], s, None, &mut k)
            .unwrap();
        // One suspended message.
        r.send(&pattern("ghost"), s, 1, &mut k).unwrap();
        let info = r.space_info(s).unwrap();
        assert_eq!(info.actor_members, 1);
        assert_eq!(info.space_members, 1);
        assert_eq!(info.pending_messages, 1);
        assert_eq!(info.persistent_broadcasts, 0);
        assert!(info.guarded);
        let sub_info = r.space_info(sub).unwrap();
        assert!(!sub_info.guarded);
        assert_eq!(sub_info.actor_members, 0);
        assert!(r.space_info(SpaceId(404)).is_err());
    }

    #[test]
    fn manager_can_veto_visibility() {
        use crate::manager::Manager;
        struct Veto;
        impl Manager for Veto {
            fn authorize_visibility(&mut self, _m: MemberId, attrs: &[Path]) -> bool {
                !attrs.iter().any(|p| p.to_string().starts_with("secret"))
            }
        }
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(Veto), None).unwrap();
        let a = r.create_actor(s, None).unwrap();
        let mut out = Vec::new();
        assert!(r
            .make_visible(
                MemberId::Actor(a),
                vec![path("secret/x")],
                s,
                None,
                &mut out
            )
            .is_err());
        r.make_visible(MemberId::Actor(a), vec![path("open/x")], s, None, &mut out)
            .unwrap();
    }
}
