//! Per-actor mailboxes: three FIFO port queues, the scheduling state, and
//! the actor's behavior slot, all behind one lock.
//!
//! The state machine is the classic idle → scheduled → running cycle:
//!
//! * a producer that enqueues into an **idle** mailbox makes it
//!   **scheduled** and hands the actor to the scheduler;
//! * a worker takes a batch from a scheduled mailbox, which marks it
//!   **running** and lends the worker the behavior;
//! * finishing the batch returns the behavior and makes the mailbox
//!   **idle** if every queue is empty, **scheduled** (and the worker
//!   re-queues the actor) otherwise.
//!
//! Every transition happens under the same lock as the queue operation it
//! depends on, so a message can never be left queued behind an idle state:
//! either the producer sees idle and schedules, or the finishing worker
//! sees the message and does.
//!
//! Port priority (paper §7.2 semantics): Behavior replacements are taken
//! before RPC replies, which are taken before ordinary invocations. Within
//! a port, delivery is FIFO. Priority holds at every take; a message that
//! arrives while a batch runs waits for the next take. Across actors and
//! for broadcasts no order is guaranteed, matching §5.3.

use std::collections::VecDeque;

use actorspace_lockcheck::{LockClass, Mutex};

use crate::message::Port;

/// Scheduling state of a mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxState {
    /// No worker holds or owes the actor; every queue is empty.
    Idle,
    /// The actor is in (or being put into) the run queue.
    Scheduled,
    /// A worker holds the behavior and is processing a batch.
    Running,
}

/// A three-port mailbox with scheduling state and a behavior slot of type
/// `S`. `T` is the queued entry.
pub struct Mailbox<T, S> {
    inner: Mutex<Inner<T, S>>,
}

struct Inner<T, S> {
    /// Port queues in priority order: Behavior, RPC, Invocation.
    ports: [VecDeque<T>; 3],
    state: MailboxState,
    /// The behavior while no batch runs; `None` once the actor stopped.
    slot: Option<S>,
}

impl<T, S> Inner<T, S> {
    fn len(&self) -> usize {
        self.ports.iter().map(VecDeque::len).sum()
    }
}

fn rank(port: Port) -> usize {
    match port {
        Port::Behavior => 0,
        Port::Rpc => 1,
        Port::Invocation => 2,
    }
}

impl<T, S> Mailbox<T, S> {
    /// An idle, empty mailbox holding `slot`.
    pub fn new(slot: S) -> Mailbox<T, S> {
        Mailbox {
            inner: Mutex::new(
                LockClass::Mailbox,
                Inner {
                    ports: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    state: MailboxState::Idle,
                    slot: Some(slot),
                },
            ),
        }
    }

    /// Enqueues `item` on `port`. Returns `true` when this push made the
    /// idle → scheduled transition: the caller must hand the actor to the
    /// scheduler.
    pub fn push(&self, port: Port, item: T) -> bool {
        let mut inner = self.inner.lock();
        inner.ports[rank(port)].push_back(item);
        if inner.state == MailboxState::Idle {
            inner.state = MailboxState::Scheduled;
            true
        } else {
            false
        }
    }

    /// Starts a batch on a scheduled mailbox: marks it running, moves up to
    /// `max` entries into `out` in port-priority order, and lends out the
    /// behavior (`None` if the actor stopped). Pair with
    /// [`Mailbox::finish`].
    pub fn take_batch(&self, max: usize, out: &mut Vec<T>) -> Option<S> {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.state, MailboxState::Scheduled);
        inner.state = MailboxState::Running;
        for queue in &mut inner.ports {
            let n = max.saturating_sub(out.len()).min(queue.len());
            out.extend(queue.drain(..n));
        }
        inner.slot.take()
    }

    /// Ends a batch: puts the behavior back (`None` stops the actor) and
    /// makes the mailbox idle if it is empty. Returns `true` when entries
    /// remain: the mailbox stays scheduled and the caller must re-queue the
    /// actor.
    pub fn finish(&self, slot: Option<S>) -> bool {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.state, MailboxState::Running);
        inner.slot = slot;
        let more = inner.len() > 0;
        inner.state = if more {
            MailboxState::Scheduled
        } else {
            MailboxState::Idle
        };
        more
    }

    /// Empties every queue, returning the entries in port-priority order.
    /// Used to harvest accepted-but-unprocessed messages from a crashed
    /// node's mailboxes for failover re-routing.
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.inner.lock();
        inner.ports.iter_mut().flat_map(|q| q.drain(..)).collect()
    }

    /// The scheduling state and the number of queued entries, read
    /// together under the lock.
    pub fn status(&self) -> (MailboxState, usize) {
        let inner = self.inner.lock();
        (inner.state, inner.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mb: &Mailbox<u32, ()>, max: usize) -> Vec<u32> {
        let mut out = Vec::new();
        mb.take_batch(max, &mut out);
        out
    }

    #[test]
    fn fifo_within_a_port() {
        let mb = Mailbox::new(());
        for i in 0..5 {
            mb.push(Port::Invocation, i);
        }
        assert_eq!(take(&mb, 16), vec![0, 1, 2, 3, 4]);
        assert!(!mb.finish(Some(())));
    }

    #[test]
    fn port_priority_behavior_then_rpc_then_invocation() {
        let mb = Mailbox::new(());
        mb.push(Port::Invocation, 3);
        mb.push(Port::Rpc, 2);
        mb.push(Port::Behavior, 1);
        assert_eq!(take(&mb, 16), vec![1, 2, 3]);
    }

    #[test]
    fn batch_takes_at_most_max_in_priority_order() {
        let mb = Mailbox::new(());
        mb.push(Port::Invocation, 30);
        mb.push(Port::Invocation, 31);
        mb.push(Port::Rpc, 20);
        mb.push(Port::Behavior, 10);
        assert_eq!(take(&mb, 3), vec![10, 20, 30]);
        assert!(mb.finish(Some(())), "one entry left: stays scheduled");
        assert_eq!(mb.status(), (MailboxState::Scheduled, 1));
        assert_eq!(take(&mb, 3), vec![31]);
        assert!(!mb.finish(Some(())));
        assert_eq!(mb.status(), (MailboxState::Idle, 0));
    }

    #[test]
    fn first_push_schedules_subsequent_do_not() {
        let mb = Mailbox::new(());
        assert!(mb.push(Port::Invocation, 1), "idle mailbox must schedule");
        assert!(!mb.push(Port::Invocation, 2), "already scheduled");
        assert_eq!(mb.status(), (MailboxState::Scheduled, 2));
    }

    #[test]
    fn push_during_a_batch_is_left_to_finish() {
        let mb = Mailbox::new(());
        assert!(mb.push(Port::Invocation, 1));
        assert_eq!(take(&mb, 16), vec![1]);
        // While running, pushes do not schedule.
        assert!(!mb.push(Port::Behavior, 2));
        // The entry that raced in: finishing hands back the reschedule.
        assert!(mb.finish(Some(())));
        assert_eq!(take(&mb, 16), vec![2]);
        assert!(!mb.finish(Some(())));
    }

    #[test]
    fn behavior_slot_is_lent_for_the_batch() {
        let mb: Mailbox<u32, &str> = Mailbox::new("first");
        mb.push(Port::Invocation, 1);
        let mut out = Vec::new();
        assert_eq!(mb.take_batch(16, &mut out), Some("first"));
        mb.finish(Some("second"));
        mb.push(Port::Invocation, 2);
        assert_eq!(mb.take_batch(16, &mut out), Some("second"));
        mb.finish(None);
        mb.push(Port::Invocation, 3);
        assert_eq!(mb.take_batch(16, &mut out), None, "stopped actor");
    }

    #[test]
    fn drain_empties_every_port() {
        let mb = Mailbox::new(());
        mb.push(Port::Invocation, 3);
        mb.push(Port::Behavior, 1);
        assert_eq!(mb.drain(), vec![1, 3]);
        assert_eq!(mb.status().1, 0);
    }

    #[test]
    fn concurrent_pushers_schedule_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new(()));
        let schedules = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8 {
            let mb = mb.clone();
            let schedules = schedules.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    if mb.push(Port::Invocation, t * 100 + i) {
                        schedules.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            schedules.load(Ordering::Relaxed),
            1,
            "exactly one scheduling transition"
        );
        assert_eq!(mb.status(), (MailboxState::Scheduled, 800));
    }
}
