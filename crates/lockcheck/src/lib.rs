//! Lockdep-style lock-order and protocol analysis for the workspace.
//!
//! The sharded coordinator (`actorspace-core::shard`) is deadlock-free by
//! *convention*: meta before shards, shards in ascending `SpaceId` order,
//! manager callbacks never re-entering the coordinator. Those
//! rules used to live only in doc comments. This crate checks them — and
//! the lock ordering of every other lock in the workspace — mechanically,
//! in the style of the Linux kernel's lockdep:
//!
//! - [`Mutex`], [`RwLock`], and [`Condvar`] are drop-in wrappers around the
//!   `parking_lot` types. Each lock is tagged with a [`LockClass`] at
//!   construction. With the `lockcheck` feature **off** (the default) the
//!   order checker adds nothing: every method is a direct delegation plus
//!   the timing probe described below.
//! - With the feature **on**, every acquisition pushes onto a per-thread
//!   held-lock stack and folds an edge per held lock into a global
//!   class-level *lock-order graph*. Inserting an edge whose reverse path
//!   already exists reports a potential inversion — with both acquisition
//!   sites — even if no interleaving ever actually deadlocked.
//! - Protocol assertions specific to this codebase fire on the acquiring
//!   thread: a shard mutex requires the meta lock, shards must be taken in
//!   ascending `SpaceId` order, the meta lock may never follow a shard,
//!   and no lock may be re-acquired while already held by the same thread.
//! - [`enter_coordinator`] / [`enter_callback`] mark coordinator entry
//!   points and callback regions (space managers, the collector's
//!   `acquaintances`); entering the coordinator
//!   from inside a callback is reported as a re-entrancy violation before
//!   any lock is touched (so the report is a panic, not a deadlock).
//!
//! Violations panic with a message naming both involved acquisition sites
//! (`file:line:col`, via [`core::panic::Location`]); the test suite run
//! under `--features lockcheck` in CI therefore fails loudly on any
//! potential inversion introduced anywhere in the workspace. The observed
//! order graph is exported by [`order_graph`] and surfaced through `obs`
//! snapshots as `lockcheck.edge.*` gauges.
//!
//! Same-class edges are deliberately *not* folded into the graph: many
//! shards (or mailboxes) are one class, and ordering within the class is
//! either enforced by a dedicated assertion (ascending `SpaceId` for
//! shards) or impossible to violate (mailbox locks are never nested).
//!
//! Orthogonal to the order checker, the wrappers also record **wait and
//! hold timing** per class in every build (see [`timing`]): acquisitions
//! that block contribute to a `lock.wait.<class>` histogram, guard
//! lifetimes to `lock.hold.<class>`. The order checker answers "can this
//! deadlock?"; the timing histograms answer "where do threads actually
//! queue?" — and the latter matters most in exactly the release builds
//! that compile the checker out. Contended acquisitions are always timed;
//! uncontended ones only for a weighted one-in-[`HOLD_SAMPLE_EVERY`]
//! sample of holds, so an uncontended acquisition normally costs no clock
//! read. `actorspace-obs` exports the histograms in snapshots.
//!
//! This is the only first-party crate that may name `parking_lot`
//! directly: the checker's own state uses raw, uninstrumented locks so
//! the analysis cannot recurse into itself. `scripts/lint.rs` enforces
//! that boundary across the rest of the workspace.

#![deny(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(feature = "lockcheck")]
use std::panic::Location;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use parking_lot::WaitTimeoutResult;

pub mod timing;

pub use timing::{lock_timing, LockTiming, TimingData, HOLD_SAMPLE_EVERY, N_TIMING_BUCKETS};
use timing::{ClassTiming, HoldTimer};

/// True when the `lockcheck` feature is compiled in. Exported as a `const`
/// so consumers can write `if lockcheck::ENABLED { ... }` and have the
/// branch folded away entirely in normal builds.
pub const ENABLED: bool = cfg!(feature = "lockcheck");

/// The class a lock belongs to in the order graph. Classes — not lock
/// instances — are the nodes of the graph: every shard mutex is the same
/// `Shard(_)` class, every mailbox queue the same `Mailbox` class, so an
/// ordering observed between two *instances* constrains all of them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockClass {
    /// The coordinator's cross-space tables (level 1 of the two-level
    /// protocol: actor records, visibility edges, the shard map itself).
    Meta,
    /// A per-actorSpace shard mutex (level 2); the payload is the raw
    /// `SpaceId`. Only acquirable under [`LockClass::Meta`], in ascending
    /// id order.
    Shard(u64),
    /// The runtime's actor-cell table.
    Actors,
    /// An actor's mailbox: its three port queues, scheduling state and
    /// behavior slot.
    Mailbox,
    /// Scheduler coordination: the run queue workers pop from and sleep
    /// on, and the idle bookkeeping.
    Scheduler,
    /// Coordinator-bus state: appliers, event logs, sequencer and token
    /// ring buffers.
    Bus,
    /// Cluster node slots, bounce queues, and service-thread handles.
    Cluster,
    /// Reliable-delivery channel state (send windows, dedup sets, stop
    /// flags).
    Reliable,
    /// Failure-detector heartbeat tables.
    Failure,
    /// Trace ring buffers.
    Trace,
    /// The metrics registry's series table.
    Metrics,
    /// The dead-letter ring.
    DeadLetters,
    /// Cluster-view peer tables (remote snapshot aggregation in `obs`).
    ObsView,
    /// The global atom interner.
    Atoms,
    /// Baseline implementations (tuple space, name server, process
    /// groups).
    Baselines,
    /// Anything else; the payload names the class (used by tests and
    /// benches — pick a distinct name per purpose so unrelated test locks
    /// do not alias into one class).
    Other(&'static str),
}

impl LockClass {
    /// Canonical node name in the order graph. `Shard(_)` collapses to
    /// `"shard"`: all shards are one node, and intra-class ordering is
    /// enforced by the ascending-`SpaceId` assertion instead.
    pub const fn name(self) -> &'static str {
        match self {
            LockClass::Meta => "meta",
            LockClass::Shard(_) => "shard",
            LockClass::Actors => "actors",
            LockClass::Mailbox => "mailbox",
            LockClass::Scheduler => "scheduler",
            LockClass::Bus => "bus",
            LockClass::Cluster => "cluster",
            LockClass::Reliable => "reliable",
            LockClass::Failure => "failure",
            LockClass::Trace => "trace",
            LockClass::Metrics => "metrics",
            LockClass::DeadLetters => "dead_letters",
            LockClass::ObsView => "obs_view",
            LockClass::Atoms => "atoms",
            LockClass::Baselines => "baselines",
            LockClass::Other(name) => name,
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockClass::Shard(id) => write!(f, "Shard({id})"),
            other => f.write_str(other.name()),
        }
    }
}

/// One observed edge in the lock-order graph: while holding a lock of
/// class `from`, a lock of class `to` was acquired `count` times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrderEdge {
    /// Class held at the time of acquisition.
    pub from: &'static str,
    /// Class acquired.
    pub to: &'static str,
    /// How many acquisitions contributed this edge.
    pub count: u64,
}

/// Sentinel token id for a guard whose held-stack entry was released
/// around a condvar wait; dropping such a token is a no-op.
#[cfg(feature = "lockcheck")]
const SUSPENDED: u64 = u64::MAX;

/// Held-stack registration carried by every guard. Registered on
/// acquisition, deregistered on drop; zero-sized and inert when the
/// feature is off.
#[cfg(feature = "lockcheck")]
struct Token {
    class: LockClass,
    addr: usize,
    id: u64,
}

#[cfg(feature = "lockcheck")]
impl Token {
    #[track_caller]
    fn acquire(class: LockClass, addr: usize, mode: check::Mode, blocking: bool) -> Token {
        let id = check::on_acquire(class, addr, mode, Location::caller(), blocking);
        Token { class, addr, id }
    }

    /// Releases the held-stack entry without unlocking (condvar wait);
    /// the caller re-acquires a fresh token when the wait returns.
    fn suspend(&mut self) -> (LockClass, usize) {
        check::on_release(self.id);
        self.id = SUSPENDED;
        (self.class, self.addr)
    }
}

#[cfg(feature = "lockcheck")]
impl Drop for Token {
    fn drop(&mut self) {
        check::on_release(self.id);
    }
}

#[cfg(not(feature = "lockcheck"))]
struct Token;

/// A class-tagged mutex; drop-in for `parking_lot::Mutex` except that
/// construction names the [`LockClass`]. There is deliberately no
/// `Default` impl: every lock must say what it protects.
pub struct Mutex<T> {
    class: LockClass,
    /// Per-instance cache of the class's timing slot, resolved (one
    /// registry lookup) on the first timed acquisition.
    stats: OnceLock<&'static ClassTiming>,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex of the given class.
    pub const fn new(class: LockClass, value: T) -> Mutex<T> {
        Mutex {
            class,
            stats: OnceLock::new(),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    fn stats(&self) -> &'static ClassTiming {
        self.stats
            .get_or_init(|| timing::class_timing(self.class.name()))
    }

    /// Acquires the mutex, blocking until available. Under `lockcheck`
    /// the acquisition is checked *before* blocking, so an ordering
    /// violation panics instead of deadlocking. Acquisitions that block
    /// contribute to the class's `lock.wait` histogram.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Exclusive, true);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        let (hold, inner) = timing::acquire(
            || self.stats(),
            || self.inner.try_lock(),
            || self.inner.lock(),
        );
        MutexGuard { token, hold, inner }
    }

    /// Attempts to acquire without blocking. A try-acquisition cannot
    /// deadlock, so it is exempt from ordering checks; on success it
    /// still joins the held stack (locks taken *after* it are ordered
    /// against it).
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Exclusive, false);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        Some(MutexGuard {
            token,
            hold: HoldTimer::uncontended(|| self.stats()),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    #[cfg(feature = "lockcheck")]
    fn addr(&self) -> usize {
        self as *const Mutex<T> as usize
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T> {
    token: Token,
    /// Records the hold duration when dropped; declared before `inner`
    /// so the sample is taken just before the lock is released.
    hold: HoldTimer,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Projects the guard to a component of the protected value
    /// (parking_lot-style: `MutexGuard::map(g, f)`). The held-stack
    /// registration and hold timer transfer to the mapped guard.
    pub fn map<U: ?Sized>(orig: Self, f: impl FnOnce(&mut T) -> &mut U) -> MappedMutexGuard<'a, U> {
        let MutexGuard { token, hold, inner } = orig;
        MappedMutexGuard {
            token,
            hold,
            inner: parking_lot::MutexGuard::map(inner, f),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// RAII guard for a component of a mutex-protected value, from
/// [`MutexGuard::map`].
pub struct MappedMutexGuard<'a, T: ?Sized> {
    /// Held only for its release-on-drop effect.
    #[allow(dead_code)]
    token: Token,
    /// Held only for its record-on-drop effect.
    #[allow(dead_code)]
    hold: HoldTimer,
    inner: parking_lot::MappedMutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MappedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MappedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A class-tagged reader-writer lock; drop-in for `parking_lot::RwLock`
/// except that construction names the [`LockClass`].
pub struct RwLock<T> {
    class: LockClass,
    /// Per-instance cache of the class's timing slot, resolved (one
    /// registry lookup) on the first timed acquisition.
    stats: OnceLock<&'static ClassTiming>,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock of the given class.
    pub const fn new(class: LockClass, value: T) -> RwLock<T> {
        RwLock {
            class,
            stats: OnceLock::new(),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    fn stats(&self) -> &'static ClassTiming {
        self.stats
            .get_or_init(|| timing::class_timing(self.class.name()))
    }

    /// Acquires shared read access. Reads participate in ordering checks
    /// like exclusive acquisitions: a read acquired out of order still
    /// deadlocks once a writer queues between the holders.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Shared, true);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        let (hold, inner) = timing::acquire(
            || self.stats(),
            || self.inner.try_read(),
            || self.inner.read(),
        );
        RwLockReadGuard { token, hold, inner }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Exclusive, true);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        let (hold, inner) = timing::acquire(
            || self.stats(),
            || self.inner.try_write(),
            || self.inner.write(),
        );
        RwLockWriteGuard { token, hold, inner }
    }

    /// Attempts shared read access without blocking (exempt from
    /// ordering checks, like [`Mutex::try_lock`]).
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = self.inner.try_read()?;
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Shared, false);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        Some(RwLockReadGuard {
            token,
            hold: HoldTimer::uncontended(|| self.stats()),
            inner,
        })
    }

    /// Attempts exclusive write access without blocking.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = self.inner.try_write()?;
        #[cfg(feature = "lockcheck")]
        let token = Token::acquire(self.class, self.addr(), check::Mode::Exclusive, false);
        #[cfg(not(feature = "lockcheck"))]
        let token = Token;
        Some(RwLockWriteGuard {
            token,
            hold: HoldTimer::uncontended(|| self.stats()),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    #[cfg(feature = "lockcheck")]
    fn addr(&self) -> usize {
        self as *const RwLock<T> as usize
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    /// Held only for its release-on-drop effect.
    #[allow(dead_code)]
    token: Token,
    /// Held only for its record-on-drop effect.
    #[allow(dead_code)]
    hold: HoldTimer,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    /// Held only for its release-on-drop effect.
    #[allow(dead_code)]
    token: Token,
    /// Held only for its record-on-drop effect.
    #[allow(dead_code)]
    hold: HoldTimer,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable for use with [`MutexGuard`] in place
/// (parking_lot style). Waiting releases the guard's held-stack entry
/// for the duration of the wait and re-registers it — re-running the
/// ordering checks — when the lock is re-acquired.
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks until notified, releasing the guard while waiting. The
    /// guard's hold timer is paused for the wait: parked time is billed
    /// to neither `lock.hold` nor `lock.wait`.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "lockcheck")]
        let (class, addr) = guard.token.suspend();
        let paused = guard.hold.pause();
        self.inner.wait(&mut guard.inner);
        guard.hold = HoldTimer::resume(paused);
        #[cfg(feature = "lockcheck")]
        {
            guard.token = Token::acquire(class, addr, check::Mode::Exclusive, true);
        }
    }

    /// Blocks until notified or `timeout` elapses.
    #[track_caller]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "lockcheck")]
        let (class, addr) = guard.token.suspend();
        let paused = guard.hold.pause();
        let result = self.inner.wait_for(&mut guard.inner, timeout);
        guard.hold = HoldTimer::resume(paused);
        #[cfg(feature = "lockcheck")]
        {
            guard.token = Token::acquire(class, addr, check::Mode::Exclusive, true);
        }
        result
    }

    /// Blocks until notified or `deadline` is reached.
    #[track_caller]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "lockcheck")]
        let (class, addr) = guard.token.suspend();
        let paused = guard.hold.pause();
        let result = self.inner.wait_until(&mut guard.inner, deadline);
        guard.hold = HoldTimer::resume(paused);
        #[cfg(feature = "lockcheck")]
        {
            guard.token = Token::acquire(class, addr, check::Mode::Exclusive, true);
        }
        result
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// RAII marker for a coordinator entry point; see [`enter_coordinator`].
#[cfg(feature = "lockcheck")]
pub struct CoordinatorSection {
    op: &'static str,
}

#[cfg(feature = "lockcheck")]
impl Drop for CoordinatorSection {
    fn drop(&mut self) {
        check::exit_coordinator(self.op);
    }
}

/// RAII marker for a coordinator entry point; see [`enter_coordinator`].
#[cfg(not(feature = "lockcheck"))]
pub struct CoordinatorSection {}

/// Marks the current thread as executing a coordinator operation until
/// the returned section is dropped. If the thread is inside a
/// callback region ([`enter_callback`]), the re-entrancy is
/// reported *before any lock is acquired* — a panic naming both entry
/// sites rather than a silent deadlock on the coordinator's own locks.
/// At the outermost section exit, the thread must hold no coordinator
/// (meta/shard) locks.
#[cfg(feature = "lockcheck")]
#[track_caller]
pub fn enter_coordinator(op: &'static str) -> CoordinatorSection {
    check::enter_coordinator(op, Location::caller());
    CoordinatorSection { op }
}

/// No-op twin of [`enter_coordinator`] for unchecked builds.
#[cfg(not(feature = "lockcheck"))]
#[inline(always)]
pub fn enter_coordinator(_op: &'static str) -> CoordinatorSection {
    CoordinatorSection {}
}

/// RAII marker for a callback region; see
/// [`enter_callback`].
#[cfg(feature = "lockcheck")]
pub struct CallbackSection {
    _priv: (),
}

#[cfg(feature = "lockcheck")]
impl Drop for CallbackSection {
    fn drop(&mut self) {
        check::exit_callback();
    }
}

/// RAII marker for a callback region; see
/// [`enter_callback`].
#[cfg(not(feature = "lockcheck"))]
pub struct CallbackSection {}

/// Marks the current thread as executing externally supplied code on
/// behalf of the coordinator (a space-manager callback, or the garbage
/// collector's `acquaintances`) until the returned section is dropped. Coordinator entry
/// from inside such a region is a protocol violation.
#[cfg(feature = "lockcheck")]
#[track_caller]
pub fn enter_callback(label: &'static str) -> CallbackSection {
    check::enter_callback(label, Location::caller());
    CallbackSection { _priv: () }
}

/// No-op twin of [`enter_callback`] for unchecked builds.
#[cfg(not(feature = "lockcheck"))]
#[inline(always)]
pub fn enter_callback(_label: &'static str) -> CallbackSection {
    CallbackSection {}
}

/// Snapshot of the global lock-order graph observed so far, sorted by
/// `(from, to)`. Empty when the feature is off.
#[cfg(feature = "lockcheck")]
pub fn order_graph() -> Vec<OrderEdge> {
    check::snapshot()
}

/// No-op twin of [`order_graph`] for unchecked builds.
#[cfg(not(feature = "lockcheck"))]
pub fn order_graph() -> Vec<OrderEdge> {
    Vec::new()
}

/// Every violation message reported so far in this process (each one
/// also panicked at its detection site). Mostly useful to tests that
/// catch the panic and want the full report text. Empty when the
/// feature is off.
#[cfg(feature = "lockcheck")]
pub fn violations() -> Vec<String> {
    check::violations_snapshot()
}

/// No-op twin of [`violations`] for unchecked builds.
#[cfg(not(feature = "lockcheck"))]
pub fn violations() -> Vec<String> {
    Vec::new()
}

#[cfg(feature = "lockcheck")]
mod check {
    use super::LockClass;
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, BTreeSet};
    use std::panic::Location;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Mode {
        Shared,
        Exclusive,
    }

    impl Mode {
        fn word(self) -> &'static str {
            match self {
                Mode::Shared => "shared",
                Mode::Exclusive => "exclusive",
            }
        }
    }

    type Site = &'static Location<'static>;

    #[derive(Clone, Copy)]
    struct Held {
        class: LockClass,
        addr: usize,
        mode: Mode,
        site: Site,
        id: u64,
    }

    struct Callback {
        label: &'static str,
        site: Site,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
        static COORD_DEPTH: Cell<u32> = const { Cell::new(0) };
        static CALLBACKS: RefCell<Vec<Callback>> = const { RefCell::new(Vec::new()) };
    }

    struct Edge {
        count: u64,
        /// Site of the *held* acquisition the first time the edge was seen.
        hold_site: Site,
        /// Site of the *new* acquisition the first time the edge was seen.
        acq_site: Site,
    }

    // The checker's own state uses raw parking_lot locks: instrumenting
    // them would recurse into the checker. The stub's poison recovery
    // keeps the graph usable after a violation panic unwinds through it.
    static GRAPH: parking_lot::Mutex<BTreeMap<&'static str, BTreeMap<&'static str, Edge>>> =
        parking_lot::Mutex::new(BTreeMap::new());
    static VIOLATIONS: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());

    /// Records the report and panics at the offending acquisition.
    fn die(msg: String) -> ! {
        VIOLATIONS.lock().push(msg.clone());
        panic!("{msg}");
    }

    /// Registers an acquisition: same-instance relock detection, the
    /// coordinator's two-level protocol assertions, and the order-graph
    /// fold (all only for `blocking` acquisitions — a try-acquisition
    /// cannot deadlock), then pushes onto the held stack. Returns the
    /// registration id the guard's token releases on drop.
    pub(crate) fn on_acquire(
        class: LockClass,
        addr: usize,
        mode: Mode,
        site: Site,
        blocking: bool,
    ) -> u64 {
        let verdict = HELD.try_with(|held| {
            let held = held.borrow();
            if let Some(h) = held.iter().find(|h| h.addr == addr) {
                die(format!(
                    "lockcheck: recursive acquisition of {class}: already held ({}) since {}, \
                     re-acquired ({}) at {site}; a second acquisition on the same thread \
                     self-deadlocks or races a queued writer",
                    h.mode.word(),
                    h.site,
                    mode.word(),
                ));
            }
            if blocking {
                match class {
                    LockClass::Meta => {
                        if let Some(h) =
                            held.iter().find(|h| matches!(h.class, LockClass::Shard(_)))
                        {
                            die(format!(
                                "lockcheck: two-level protocol violation: acquiring meta at \
                                 {site} while holding {} acquired at {}; meta (level 1) must \
                                 never be taken after a shard (level 2)",
                                h.class, h.site,
                            ));
                        }
                    }
                    LockClass::Shard(id) => {
                        if !held.iter().any(|h| h.class == LockClass::Meta) {
                            die(format!(
                                "lockcheck: shard-without-meta violation: acquiring Shard({id}) \
                                 at {site} with no meta lock held; shard mutexes may only be \
                                 taken under the meta lock",
                            ));
                        }
                        if let Some(h) = held
                            .iter()
                            .find(|h| matches!(h.class, LockClass::Shard(j) if j >= id))
                        {
                            die(format!(
                                "lockcheck: shard-order violation: acquiring Shard({id}) at \
                                 {site} while holding {} acquired at {}; shards must be locked \
                                 in ascending SpaceId order",
                                h.class, h.site,
                            ));
                        }
                    }
                    _ => {}
                }
                record_edges(&held, class, site);
            }
        });
        if verdict.is_err() {
            // Thread-local storage already torn down (guard acquired from
            // a TLS destructor): nothing to check against, nothing to
            // release later.
            return super::SUSPENDED;
        }
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        HELD.with(|held| {
            held.borrow_mut().push(Held {
                class,
                addr,
                mode,
                site,
                id,
            });
        });
        id
    }

    /// Removes the held-stack entry registered under `id`. Guards are
    /// not required to drop in LIFO order (the coordinator's guard map
    /// drops in key order), so this searches rather than pops.
    pub(crate) fn on_release(id: u64) {
        if id == super::SUSPENDED {
            return;
        }
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.id == id) {
                held.remove(pos);
            }
        });
    }

    /// Folds one edge per held lock into the global graph, reporting an
    /// inversion if the reverse path is already on record. The violating
    /// edge is *not* inserted: the graph stays acyclic, so one seeded
    /// violation (a negative test) cannot poison checking for the rest
    /// of the process.
    fn record_edges(held: &[Held], class: LockClass, site: Site) {
        let to = class.name();
        let mut graph = GRAPH.lock();
        for h in held {
            let from = h.class.name();
            if from == to {
                continue;
            }
            if let Some(edge) = graph.get_mut(from).and_then(|m| m.get_mut(to)) {
                edge.count += 1;
                continue;
            }
            if let Some(path) = find_path(&graph, to, from) {
                let first = graph
                    .get(path[0])
                    .and_then(|m| m.get(path[1]))
                    .expect("path edges exist");
                die(format!(
                    "lockcheck: lock-order inversion: acquiring {class} at {site} while \
                     holding {} acquired at {} would establish `{from} -> {to}`, but the \
                     opposite order `{}` is already on record (first observed holding \
                     `{}` at {} then acquiring `{}` at {})",
                    h.class,
                    h.site,
                    path.join(" -> "),
                    path[0],
                    first.hold_site,
                    path[1],
                    first.acq_site,
                ));
            }
            graph.entry(from).or_default().insert(
                to,
                Edge {
                    count: 1,
                    hold_site: h.site,
                    acq_site: site,
                },
            );
        }
    }

    /// Depth-first path search `from ->* to`; returns the node chain
    /// (inclusive) if one exists. The graph holds lock *classes* — a few
    /// dozen nodes at most — so recursion depth is bounded and small.
    fn find_path(
        graph: &BTreeMap<&'static str, BTreeMap<&'static str, Edge>>,
        from: &'static str,
        to: &'static str,
    ) -> Option<Vec<&'static str>> {
        fn dfs(
            graph: &BTreeMap<&'static str, BTreeMap<&'static str, Edge>>,
            cur: &'static str,
            to: &'static str,
            seen: &mut BTreeSet<&'static str>,
            path: &mut Vec<&'static str>,
        ) -> bool {
            path.push(cur);
            if cur == to {
                return true;
            }
            if let Some(succ) = graph.get(cur) {
                for &next in succ.keys() {
                    if seen.insert(next) && dfs(graph, next, to, seen, path) {
                        return true;
                    }
                }
            }
            path.pop();
            false
        }
        let mut seen = BTreeSet::from([from]);
        let mut path = Vec::new();
        if dfs(graph, from, to, &mut seen, &mut path) {
            Some(path)
        } else {
            None
        }
    }

    pub(crate) fn enter_coordinator(op: &'static str, site: Site) {
        CALLBACKS.with(|cbs| {
            let cbs = cbs.borrow();
            if let Some(cb) = cbs.last() {
                die(format!(
                    "lockcheck: re-entrancy violation: coordinator op `{op}` entered at {site} \
                     from inside callback `{}` entered at {}; callbacks must \
                     not re-enter the coordinator",
                    cb.label, cb.site,
                ));
            }
        });
        COORD_DEPTH.with(|d| d.set(d.get() + 1));
    }

    pub(crate) fn exit_coordinator(op: &'static str) {
        let depth = COORD_DEPTH.with(|d| {
            let v = d.get() - 1;
            d.set(v);
            v
        });
        if depth == 0 && !std::thread::panicking() {
            HELD.with(|held| {
                if let Some(h) = held
                    .borrow()
                    .iter()
                    .find(|h| matches!(h.class, LockClass::Meta | LockClass::Shard(_)))
                {
                    die(format!(
                        "lockcheck: coordinator op `{op}` returned while still holding {} \
                         acquired at {}",
                        h.class, h.site,
                    ));
                }
            });
        }
    }

    pub(crate) fn enter_callback(label: &'static str, site: Site) {
        CALLBACKS.with(|cbs| cbs.borrow_mut().push(Callback { label, site }));
    }

    pub(crate) fn exit_callback() {
        let _ = CALLBACKS.try_with(|cbs| cbs.borrow_mut().pop());
    }

    pub(crate) fn snapshot() -> Vec<super::OrderEdge> {
        let graph = GRAPH.lock();
        let mut out = Vec::new();
        for (&from, succ) in graph.iter() {
            for (&to, edge) in succ.iter() {
                out.push(super::OrderEdge {
                    from,
                    to,
                    count: edge.count,
                });
            }
        }
        out
    }

    pub(crate) fn violations_snapshot() -> Vec<String> {
        VIOLATIONS.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_round_trip() {
        let m = Mutex::new(LockClass::Other("ut_round_m"), 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let rw = RwLock::new(LockClass::Other("ut_round_rw"), 5);
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(*rw.try_read().expect("uncontended"), 6);
        assert_eq!(rw.into_inner(), 6);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mapped_guard_round_trip() {
        let m = Mutex::new(LockClass::Other("ut_map"), (1u32, String::new()));
        let mut mapped = MutexGuard::map(m.lock(), |pair| &mut pair.1);
        mapped.push('z');
        drop(mapped);
        assert_eq!(m.lock().1, "z");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(LockClass::Other("ut_cv"), ());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        drop(g);
        // The guard's registration survived the wait: dropping it above
        // must have released cleanly so this re-acquisition succeeds.
        drop(m.lock());
    }

    #[cfg(feature = "lockcheck")]
    mod checked {
        use super::super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }

        #[test]
        fn order_graph_records_edges() {
            let outer = Mutex::new(LockClass::Other("ut_edge_outer"), ());
            let inner = Mutex::new(LockClass::Other("ut_edge_inner"), ());
            for _ in 0..3 {
                let _a = outer.lock();
                let _b = inner.lock();
            }
            let edge = order_graph()
                .into_iter()
                .find(|e| e.from == "ut_edge_outer" && e.to == "ut_edge_inner")
                .expect("edge recorded");
            assert_eq!(edge.count, 3);
        }

        #[test]
        fn inversion_is_reported_with_both_sites() {
            let a = Mutex::new(LockClass::Other("ut_inv_a"), ());
            let b = Mutex::new(LockClass::Other("ut_inv_b"), ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            }))
            .expect_err("inversion must panic");
            let msg = panic_text(err);
            assert!(msg.contains("lock-order inversion"), "got: {msg}");
            assert!(msg.contains("ut_inv_a") && msg.contains("ut_inv_b"));
            // Both acquisition sites are named (this file, some line).
            assert!(msg.matches(file!()).count() >= 2, "got: {msg}");
            assert!(violations().iter().any(|v| v.contains("ut_inv_b")));
        }

        #[test]
        fn recursive_relock_is_reported() {
            let m = Mutex::new(LockClass::Other("ut_rec"), ());
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g1 = m.lock();
                let _g2 = m.lock();
            }))
            .expect_err("relock must panic");
            let msg = panic_text(err);
            assert!(msg.contains("recursive acquisition"), "got: {msg}");
        }

        #[test]
        fn read_read_relock_is_reported() {
            let rw = RwLock::new(LockClass::Other("ut_rr"), ());
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g1 = rw.read();
                let _g2 = rw.read();
            }))
            .expect_err("read-read relock must panic");
            let msg = panic_text(err);
            assert!(msg.contains("recursive acquisition"), "got: {msg}");
        }

        #[test]
        fn try_lock_skips_order_checks() {
            let a = Mutex::new(LockClass::Other("ut_try_a"), ());
            let b = Mutex::new(LockClass::Other("ut_try_b"), ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            // Reverse order via try_lock: cannot deadlock, must not report.
            let _gb = b.lock();
            let _ga = a.try_lock().expect("uncontended");
        }

        #[test]
        fn condvar_wait_releases_and_reacquires_registration() {
            let m = Mutex::new(LockClass::Other("ut_cv_reg"), ());
            let cv = Condvar::new();
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, Duration::from_millis(1)).timed_out());
            // Registration was re-acquired: a second lock on the same
            // instance must be caught as recursive, proving the guard is
            // still on the held stack.
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g2 = m.lock();
            }))
            .expect_err("still held after wait");
            assert!(panic_text(err).contains("recursive acquisition"));
        }

        #[test]
        fn callback_reentry_is_reported() {
            let _outer = enter_coordinator("ut_op_outer");
            let cb = enter_callback("ut_sink");
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _inner = enter_coordinator("ut_op_inner");
            }))
            .expect_err("re-entry must panic");
            let msg = panic_text(err);
            assert!(msg.contains("re-entrancy violation"), "got: {msg}");
            assert!(msg.contains("ut_op_inner") && msg.contains("ut_sink"));
            drop(cb);
            // Outside the callback region, nested coordinator entry is fine.
            let _inner = enter_coordinator("ut_op_inner");
        }

        #[test]
        fn mapped_guard_keeps_registration() {
            let m = Mutex::new(LockClass::Other("ut_map_reg"), (0u8, 0u8));
            let mapped = MutexGuard::map(m.lock(), |pair| &mut pair.0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g2 = m.lock();
            }))
            .expect_err("mapped guard still holds the lock");
            assert!(panic_text(err).contains("recursive acquisition"));
            drop(mapped);
            drop(m.lock());
        }
    }

    fn class_data(class: &str) -> Option<LockTiming> {
        lock_timing().into_iter().find(|t| t.class == class)
    }

    /// On a thread of its own (so no other lock shares its sampler),
    /// 64·k uncontended acquisitions record exactly 64·k holds, as k
    /// samples of weight 64, and no wait.
    #[test]
    fn uncontended_holds_are_sampled_with_weight() {
        std::thread::spawn(|| {
            let m = Mutex::new(LockClass::Other("ut_timing_sampled"), ());
            let rw = RwLock::new(LockClass::Other("ut_timing_sampled"), ());
            let k = 5;
            for i in 0..HOLD_SAMPLE_EVERY * k {
                // Every acquisition kind feeds the same class slot.
                match i % 5 {
                    0 => drop(m.lock()),
                    1 => drop(m.try_lock().expect("uncontended")),
                    2 => drop(rw.read()),
                    3 => drop(rw.write()),
                    _ => drop(rw.try_read().expect("uncontended")),
                }
            }
            let t = class_data("ut_timing_sampled").expect("class registered");
            assert_eq!(t.hold.count, HOLD_SAMPLE_EVERY * k);
            assert_eq!(t.hold.buckets.iter().sum::<u64>(), t.hold.count);
            assert_eq!(t.wait.count, 0);
        })
        .join()
        .unwrap();
    }

    /// A contended acquisition records one wait and one hold, at weight
    /// 1; uncontended ones add holds only in multiples of 64. So in a
    /// round with one blocked contender the hold count grows by 1 modulo
    /// 64, and in a round without one by 0 modulo 64.
    #[test]
    fn contended_acquisition_records_one_wait_and_one_hold() {
        static M: Mutex<()> = Mutex::new(LockClass::Other("ut_timing_contended"), ());
        let counts =
            || class_data("ut_timing_contended").map_or((0, 0), |t| (t.wait.count, t.hold.count));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (waits, holds) = counts();
            let rendezvous = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = M.lock();
                    rendezvous.wait();
                    std::thread::sleep(Duration::from_millis(2));
                });
                rendezvous.wait();
                drop(M.lock());
            });
            let (new_waits, new_holds) = counts();
            let contended = new_waits - waits;
            assert!(contended <= 1, "one contender per round");
            assert_eq!((new_holds - holds) % HOLD_SAMPLE_EVERY, contended);
            if contended == 1 {
                return;
            }
            assert!(Instant::now() < deadline, "no contended wait observed");
        }
    }

    /// A lock() that finds the mutex held must record a wait sample.
    /// The holder sleeps briefly after the rendezvous; if the contender
    /// still wins the race some round, the dance just repeats.
    #[test]
    fn timing_records_contended_wait() {
        static M: Mutex<u32> = Mutex::new(LockClass::Other("ut_timing_wait"), 0);
        let waits = || {
            lock_timing()
                .iter()
                .find(|t| t.class == "ut_timing_wait")
                .map(|t| t.wait.count)
                .unwrap_or(0)
        };
        let before = waits();
        let deadline = Instant::now() + Duration::from_secs(30);
        while waits() == before {
            assert!(Instant::now() < deadline, "no contended wait observed");
            let rendezvous = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = M.lock();
                    rendezvous.wait();
                    std::thread::sleep(Duration::from_millis(2));
                });
                rendezvous.wait();
                drop(M.lock());
            });
        }
    }

    /// The one timed guard among 64 acquisitions waits on a condvar for
    /// 100 ms. Its hold is recorded as two samples of weight 64, one on
    /// each side of the wait, and neither sample nor the wait histogram
    /// includes the parked time.
    #[test]
    fn condvar_wait_pauses_hold_timer() {
        const PARKED: Duration = Duration::from_millis(100);
        std::thread::spawn(|| {
            let m = Mutex::new(LockClass::Other("ut_timing_cv"), ());
            let cv = Condvar::new();
            let mut timed = 0;
            for _ in 0..HOLD_SAMPLE_EVERY {
                let mut g = m.lock();
                if g.hold.is_running() {
                    timed += 1;
                    assert!(cv.wait_for(&mut g, PARKED).timed_out());
                }
            }
            assert_eq!(timed, 1);
            let t = class_data("ut_timing_cv").expect("class registered");
            assert_eq!(t.hold.count, 2 * HOLD_SAMPLE_EVERY);
            assert_eq!(t.wait.count, 0);
            // Bucket i > 0 covers [2^(i-1), 2^i) ns: every sample is below
            // half the parked time.
            let half_parked = (PARKED.as_nanos() / 2) as u64;
            let first_parked_bucket = (64 - half_parked.leading_zeros()) as usize;
            assert!(t.hold.buckets[first_parked_bucket..]
                .iter()
                .all(|&n| n == 0));
        })
        .join()
        .unwrap();
    }

    #[cfg(not(feature = "lockcheck"))]
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn disabled_checker_is_inert() {
        assert!(!ENABLED, "cfg(not(lockcheck)) ⇒ ENABLED is false");
        assert!(order_graph().is_empty());
        assert!(violations().is_empty());
        // Blatant inversion: must be silently permitted when off.
        let a = Mutex::new(LockClass::Other("ut_off_a"), ());
        let b = Mutex::new(LockClass::Other("ut_off_b"), ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let _c = enter_coordinator("op");
        let _cb = enter_callback("callback");
    }
}
