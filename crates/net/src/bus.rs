//! Coordinator-bus events and the ordered-broadcast abstraction.
//!
//! Every state-changing ActorSpace primitive becomes a [`BusOp`] event.
//! An [`OrderedBroadcast`] implementation assigns each submitted event a
//! global sequence number and delivers it to *every* node (including the
//! origin); per-node [`Applier`]s reorder arrivals into sequence order, so
//! "all nodes have the same view of visibility" (§7.3). Two protocols are
//! provided, matching the paper's two citations: a centralized
//! [`Sequencer`](crate::sequencer::Sequencer) \[9] and a rotating
//! [`TokenBus`](crate::tokenbus::TokenBus) \[23].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use actorspace_atoms::Path;
use actorspace_capability::{Capability, Guard};
use actorspace_core::{ActorId, MemberId, SpaceId};
use actorspace_lockcheck::{LockClass, Mutex};

use crate::directory::NodeId;

/// A replicated state-change operation.
#[derive(Debug, Clone)]
pub enum BusOp {
    /// A new actor exists (record only; the behavior cell lives on the
    /// origin node).
    CreateActor {
        /// The allocated address (encodes the owning node).
        id: ActorId,
        /// Host space (§7.1).
        host: SpaceId,
        /// Capability guard bound at creation.
        guard: Guard,
    },
    /// A new actorSpace exists.
    CreateSpace {
        /// The allocated address.
        id: SpaceId,
        /// Capability guard bound at creation.
        guard: Guard,
    },
    /// `make_visible` (§5.4).
    MakeVisible {
        /// Who becomes visible.
        member: MemberId,
        /// Attributes as viewed by `space`.
        attrs: Vec<Path>,
        /// The containing space.
        space: SpaceId,
        /// Presented capability (validated independently on every replica —
        /// all replicas hold the same guards, so they agree).
        cap: Option<Capability>,
    },
    /// `make_invisible` (§5.4).
    MakeInvisible {
        /// Who becomes invisible.
        member: MemberId,
        /// In which space.
        space: SpaceId,
        /// Presented capability.
        cap: Option<Capability>,
    },
    /// `change_attributes` (§5.4).
    ChangeAttributes {
        /// Whose attributes change.
        member: MemberId,
        /// The replacement attribute list.
        attrs: Vec<Path>,
        /// As viewed by which space.
        space: SpaceId,
        /// Presented capability.
        cap: Option<Capability>,
    },
    /// Space destruction (§7.1).
    DestroySpace {
        /// Which space.
        space: SpaceId,
        /// Presented capability.
        cap: Option<Capability>,
    },
    /// Actor death.
    RemoveActor {
        /// Which actor.
        id: ActorId,
    },
    /// A node has been declared failed by `origin`'s failure detector.
    /// Every replica purges the dead node's actors from all visibility
    /// tables, so pattern resolution falls back to surviving matches.
    /// Ordering the purge through the bus keeps replicas convergent.
    NodeDown {
        /// The failed node.
        node: NodeId,
    },
    /// A node has re-registered through the directory after a restart.
    NodeUp {
        /// The restarted node.
        node: NodeId,
    },
}

/// A submitted event, tagged with its origin node.
#[derive(Debug, Clone)]
pub struct BusEvent {
    /// The submitting node.
    pub origin: NodeId,
    /// The operation.
    pub op: BusOp,
}

/// A sequenced event as delivered to every node.
#[derive(Debug, Clone)]
pub struct SeqEvent {
    /// Global sequence number, starting at 0, gap-free.
    pub seq: u64,
    /// The event.
    pub event: BusEvent,
}

/// Totally ordered broadcast of coordinator events.
pub trait OrderedBroadcast: Send + Sync {
    /// Submits an event for global ordering. Returns immediately; the
    /// event is delivered to every node (the origin included) in sequence
    /// order, after link latency.
    fn submit(&self, event: BusEvent);

    /// Events submitted so far (cluster-wide).
    fn submitted(&self) -> u64;

    /// Events that have been assigned a sequence number so far.
    fn issued(&self) -> u64;

    /// Stops the protocol and joins its threads (links included). Events
    /// already stamped are still delivered; later submissions are lost.
    /// Idempotent.
    fn shutdown(&self);
}

/// Per-node reordering buffer: arrivals may be out of order (link jitter);
/// application is strictly `0, 1, 2, …`.
pub struct Applier {
    state: Mutex<ApplierState>,
    applied: AtomicU64,
    apply: Box<dyn Fn(BusEvent) + Send + Sync>,
}

struct ApplierState {
    next: u64,
    buffer: BTreeMap<u64, BusEvent>,
}

impl Applier {
    /// Builds an applier calling `apply` for each event, in order.
    pub fn new(apply: impl Fn(BusEvent) + Send + Sync + 'static) -> Applier {
        Applier {
            state: Mutex::new(
                LockClass::Bus,
                ApplierState {
                    next: 0,
                    buffer: BTreeMap::new(),
                },
            ),
            applied: AtomicU64::new(0),
            apply: Box::new(apply),
        }
    }

    /// Feeds one arrival. Duplicates (seq below the watermark) are ignored.
    pub fn on_event(&self, e: SeqEvent) {
        let mut ready = Vec::new();
        {
            let mut st = self.state.lock();
            if e.seq < st.next {
                return; // duplicate
            }
            st.buffer.insert(e.seq, e.event);
            loop {
                let next = st.next;
                let Some(ev) = st.buffer.remove(&next) else {
                    break;
                };
                ready.push(ev);
                st.next += 1;
            }
        }
        for ev in ready {
            (self.apply)(ev);
            self.applied.fetch_add(1, Ordering::Release);
        }
    }

    /// Events applied so far.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }
}

/// A retained copy of the bus history, for replaying into a restarted
/// node's fresh [`Applier`].
///
/// The bus is loss-free and every node's downlink sees every event, so
/// recording at any one downlink yields a gap-free log. A restarted node
/// replays the snapshot (original creations, visibility changes, and the
/// `NodeDown` purges of its own previous incarnation, in global order) and
/// converges to the exact replica state of the survivors; live events
/// racing the replay are deduplicated by the applier's watermark.
pub struct EventLog {
    events: Mutex<BTreeMap<u64, BusEvent>>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog {
            events: Mutex::new(LockClass::Bus, BTreeMap::new()),
        }
    }
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Records one sequenced event (idempotent per sequence number).
    pub fn record(&self, e: &SeqEvent) {
        self.events
            .lock()
            .entry(e.seq)
            .or_insert_with(|| e.event.clone());
    }

    /// The history so far, in sequence order.
    pub fn snapshot(&self) -> Vec<SeqEvent> {
        self.events
            .lock()
            .iter()
            .map(|(&seq, event)| SeqEvent {
                seq,
                event: event.clone(),
            })
            .collect()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> SeqEvent {
        SeqEvent {
            seq,
            event: BusEvent {
                origin: NodeId(0),
                op: BusOp::RemoveActor { id: ActorId(seq) },
            },
        }
    }

    #[test]
    fn in_order_events_apply_immediately() {
        let got = std::sync::Arc::new(Mutex::new(LockClass::Other("test.net.bus_log"), Vec::new()));
        let g = got.clone();
        let a = Applier::new(move |e| {
            if let BusOp::RemoveActor { id } = e.op {
                g.lock().push(id.0);
            }
        });
        for i in 0..5 {
            a.on_event(ev(i));
        }
        assert_eq!(*got.lock(), vec![0, 1, 2, 3, 4]);
        assert_eq!(a.applied(), 5);
    }

    #[test]
    fn out_of_order_events_are_buffered() {
        let got = std::sync::Arc::new(Mutex::new(LockClass::Other("test.net.bus_log"), Vec::new()));
        let g = got.clone();
        let a = Applier::new(move |e| {
            if let BusOp::RemoveActor { id } = e.op {
                g.lock().push(id.0);
            }
        });
        a.on_event(ev(2));
        a.on_event(ev(1));
        assert!(got.lock().is_empty(), "nothing applies before seq 0");
        a.on_event(ev(0));
        assert_eq!(*got.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_are_ignored() {
        let count = std::sync::Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let a = Applier::new(move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        a.on_event(ev(0));
        a.on_event(ev(0));
        a.on_event(ev(1));
        a.on_event(ev(1));
        a.on_event(ev(0));
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
