//! The ActorSpace core: the paper's contribution, runtime-agnostic.
//!
//! An *actorSpace* is "a computationally passive container of actors which
//! acts as a context for matching patterns" (§1). This crate implements the
//! full model of §5:
//!
//! * **Attributes and patterns** — attributes are [`Path`]s of atoms;
//!   destination patterns are regular expressions over atoms
//!   ([`actorspace_pattern`]). Matching is scoped to a space and descends
//!   through visible sub-spaces by joining attributes with `/`
//!   ([`ShardedRegistry::resolve`]).
//! * **Visibility** — [`ShardedRegistry::make_visible`],
//!   [`ShardedRegistry::make_invisible`],
//!   [`ShardedRegistry::change_attributes`], all guarded by capabilities
//!   (§5.4) and constrained to keep the space-visibility relation a DAG
//!   (§5.7).
//! * **Communication** — [`ShardedRegistry::send`] (one non-deterministic
//!   recipient) and [`ShardedRegistry::broadcast`] (all recipients), with
//!   the §5.6 unmatched-message policies: suspend (default), discard,
//!   error, and persistent exactly-once broadcast.
//! * **Managers** — per-space [`policy::ManagerPolicy`] tables and fully
//!   programmable [`manager::Manager`] hooks (§8).
//! * **Garbage collection** — mark/sweep over visibility and acquaintance
//!   edges ([`ShardedRegistry::collect_garbage`], §5.5).
//!
//! The coordinator, [`ShardedRegistry`], keeps one lock per actorSpace
//! ([`shard`]). It is generic over the message payload `M` and decides
//! deliveries without making them: an operation pushes each [`Delivery`]
//! it decides into a `Vec` the caller owns, and the caller carries them out
//! once the call has returned and its locks have dropped. The same core
//! therefore backs the single-node runtime (`actorspace-runtime`), the
//! simulated cluster (`actorspace-net`), and direct use in tests and
//! benchmarks.
//!
//! ```
//! use actorspace_core::{policy::ManagerPolicy, Disposition, ShardedRegistry};
//! use actorspace_atoms::path;
//! use actorspace_pattern::pattern;
//!
//! let reg: ShardedRegistry<&str> = ShardedRegistry::new(ManagerPolicy::default());
//! let pool = reg.create_space(None);
//! let worker = reg.create_actor(pool, None).unwrap();
//!
//! let mut deliveries = Vec::new();
//! reg.make_visible(worker.into(), vec![path("worker/fast")], pool, None, &mut deliveries)
//!     .unwrap();
//! let d = reg.send(&pattern("worker/*"), pool, "job-1", &mut deliveries).unwrap();
//! assert_eq!(d, Disposition::Delivered(1));
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!((deliveries[0].to, deliveries[0].msg), (worker, "job-1"));
//! ```

#![deny(unsafe_code)]

pub mod delivery;
pub mod error;
pub mod gc;
pub mod ids;
pub mod manager;
pub mod managers;
pub mod matching;
pub mod policy;
pub mod shard;
pub mod space;
pub mod visibility;

pub use actorspace_atoms::{Atom, Path};
pub use actorspace_obs as obs;
pub use actorspace_obs::{Obs, ObsConfig, Stage, TraceId};
pub use actorspace_pattern::Pattern;
pub use delivery::{Delivery, Disposition, Route};
pub use error::{Error, Result};
pub use gc::GcReport;
pub use ids::{ActorId, IdGen, MemberId, SpaceId, ROOT_SPACE};
pub use manager::{DefaultManager, Manager};
pub use policy::{CyclePolicy, ManagerPolicy, SelectionPolicy, Selector, UnmatchedPolicy};
pub use shard::ShardedRegistry;
pub use space::{
    ActorRecord, DeliveryKind, MatchFilter, Pending, PersistentBroadcast, Space, SpaceInfo,
};
