//! Seeded-contention coverage for the lock-timing export: two threads
//! fighting over one shard mutex (taken under the meta lock, per the
//! coordinator's two-level protocol, so the scenario is valid under
//! `--features lockcheck` too) must produce nonzero `lock.wait.shard`
//! samples in exported snapshots, each with its hold — and untouched
//! classes must export nothing.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use actorspace_lockcheck::{LockClass, Mutex, RwLock, HOLD_SAMPLE_EVERY};
use actorspace_obs::{Obs, Snapshot};

#[test]
fn seeded_shard_contention_shows_in_lock_wait() {
    // A space id no real coordinator uses, so the contention seen on the
    // (class-aggregated) shard series is attributable to this test alone
    // when the binary runs in isolation.
    const SPACE: u64 = 900_001;
    static META: RwLock<()> = RwLock::new(LockClass::Meta, ());
    static SHARD: Mutex<()> = Mutex::new(LockClass::Shard(SPACE), ());

    let obs = Obs::default();
    let count = |snap: &Snapshot, name: &str| snap.histogram(name, 0).map_or(0, |h| h.count);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = obs.snapshot();
        let (waits, holds) = (
            count(&snap, "lock.wait.shard"),
            count(&snap, "lock.hold.shard"),
        );
        // One round of seeded contention: the holder grabs the shard,
        // signals, and dawdles; the contender then almost always finds
        // the shard taken and blocks. A lost race just costs a retry.
        let rendezvous = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _meta = META.read();
                let _shard = SHARD.lock();
                rendezvous.wait();
                std::thread::sleep(Duration::from_millis(2));
            });
            rendezvous.wait();
            let _meta = META.read();
            drop(SHARD.lock());
        });
        let snap = obs.snapshot();
        let contended = count(&snap, "lock.wait.shard") - waits;
        assert!(contended <= 1, "one contender per round");
        // A contended acquisition's hold is always timed, at weight 1;
        // uncontended holds are sampled at weight 64.
        let new_holds = count(&snap, "lock.hold.shard") - holds;
        assert_eq!(new_holds % HOLD_SAMPLE_EVERY, contended);
        if contended == 1 {
            let wait = snap.histogram("lock.wait.shard", 0).expect("wait exported");
            assert!(wait.sum > 0, "a blocked acquisition queued for >0ns");
            // Classes this test never touched export no series at all.
            assert!(snap.histogram("lock.wait.baselines", 0).is_none());
            assert!(snap.histogram("lock.hold.baselines", 0).is_none());
            return;
        }
        assert!(Instant::now() < deadline, "no shard wait observed");
    }
}
