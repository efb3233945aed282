//! Seeded re-entrancy violation against the *real* sharded coordinator: a
//! space manager whose `choose` calls back into the registry is reported by
//! name — before any lock is touched, so the test panics instead of
//! deadlocking. Manager callbacks take part in the delivery decision, so
//! they run under the coordinator's meta + shard locks.
//!
//! Compiled out without `--features lockcheck`.
#![cfg(feature = "lockcheck")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

use actorspace_atoms::path;
use actorspace_core::{ActorId, Manager, ManagerPolicy, ShardedRegistry, SpaceId};
use actorspace_pattern::pattern;

type Reg = ShardedRegistry<&'static str>;

/// Asks the registry it manages a space of whether that space exists — the
/// re-entry under test.
struct Reentrant {
    reg: Weak<Reg>,
    space: SpaceId,
}

impl Manager for Reentrant {
    fn choose(&mut self, candidates: &[ActorId]) -> Option<ActorId> {
        if let Some(reg) = self.reg.upgrade() {
            let _ = reg.space_exists(self.space);
        }
        candidates.first().copied()
    }
}

#[test]
fn manager_reentering_coordinator_is_reported() {
    let r: Arc<Reg> = Arc::new(ShardedRegistry::new(ManagerPolicy::default()));
    let s = r.create_space(None);
    let a = r.create_actor(s, None).unwrap();
    let mut out = Vec::new();
    r.make_visible(a.into(), vec![path("w")], s, None, &mut out)
        .unwrap();
    let manager = Reentrant {
        reg: Arc::downgrade(&r),
        space: s,
    };
    r.set_space_manager(s, Box::new(manager), None).unwrap();

    let err = catch_unwind(AssertUnwindSafe(|| {
        r.send(&pattern("w"), s, "job", &mut out)
    }))
    .expect_err("re-entrant manager must be reported");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("lockcheck panics carry a string report");
    assert!(msg.contains("re-entrancy violation"), "got: {msg}");
    // Both sides are named: the coordinator op the manager tried to enter
    // and the callback section it was invoked from, each with its site.
    assert!(
        msg.contains("ShardedRegistry::space_exists"),
        "re-entered op named: {msg}"
    );
    assert!(
        msg.contains("`Manager::choose`"),
        "callback label named: {msg}"
    );
    assert!(
        msg.contains("shard.rs"),
        "acquisition sites point into the coordinator: {msg}"
    );
}
