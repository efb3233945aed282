//! Per-actor mailboxes: three FIFO port queues plus the scheduling state
//! machine that guarantees an actor is processed by at most one worker at a
//! time.
//!
//! The state machine is the classic idle → scheduled → running cycle:
//!
//! * a producer that enqueues into an **idle** mailbox transitions it to
//!   **scheduled** and hands the actor to the scheduler;
//! * a worker takes a scheduled actor, marks it **running**, drains a batch
//!   of messages, then returns it to **idle** — re-scheduling itself if
//!   messages raced in meanwhile.
//!
//! The producer writes `len` then reads `state`; the finishing worker
//! writes `state` then reads `len`. Under release/acquire alone each side
//! may miss the other's write (the store-buffer pattern) and strand a
//! message in an idle mailbox, so those four accesses are `SeqCst`: in
//! their single total order, at least one side sees the other's write.
//!
//! Port priority (paper §7.2 semantics): Behavior replacements are consumed
//! before RPC replies, which are consumed before ordinary invocations.
//! Within a port, delivery is FIFO. Across actors and for broadcasts no
//! order is guaranteed, matching §5.3.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use actorspace_core::Route;
use actorspace_lockcheck::{LockClass, Mutex};

use crate::message::{Payload, Port};

/// One queued entry: the payload plus the pattern resolution that produced
/// it (if any), retained for failover re-routing.
pub(crate) type Queued = (Payload, Option<Route>);

/// Scheduling states.
const IDLE: usize = 0;
const SCHEDULED: usize = 1;
const RUNNING: usize = 2;

/// A three-port mailbox with scheduling state.
pub(crate) struct Mailbox {
    behavior: Mutex<VecDeque<Queued>>,
    rpc: Mutex<VecDeque<Queued>>,
    invocation: Mutex<VecDeque<Queued>>,
    state: AtomicUsize,
    len: AtomicUsize,
}

impl Mailbox {
    pub fn new() -> Mailbox {
        Mailbox {
            behavior: Mutex::new(LockClass::Mailbox, VecDeque::new()),
            rpc: Mutex::new(LockClass::Mailbox, VecDeque::new()),
            invocation: Mutex::new(LockClass::Mailbox, VecDeque::new()),
            state: AtomicUsize::new(IDLE),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues a payload on `port`. Returns `true` when the caller must
    /// hand the actor to the scheduler (the mailbox was idle).
    pub fn push(&self, port: Port, payload: Payload, route: Option<Route>) -> bool {
        match port {
            Port::Behavior => self.behavior.lock().push_back((payload, route)),
            Port::Rpc => self.rpc.lock().push_back((payload, route)),
            Port::Invocation => self.invocation.lock().push_back((payload, route)),
        }
        self.len.fetch_add(1, Ordering::SeqCst);
        self.try_schedule()
    }

    /// Attempts the idle → scheduled transition. Returns true on success
    /// (caller must inject the actor).
    pub fn try_schedule(&self) -> bool {
        self.state
            .compare_exchange(IDLE, SCHEDULED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Marks the mailbox running (worker picked it up).
    pub fn begin_running(&self) {
        self.state.store(RUNNING, Ordering::Release);
    }

    /// Returns the mailbox to idle after a batch. Returns `true` if
    /// messages remain and the caller won the right to re-schedule.
    pub fn finish_running(&self) -> bool {
        self.state.store(IDLE, Ordering::SeqCst);
        // Re-check: a producer may have enqueued after our last pop but
        // before the store above — it would have seen RUNNING and not
        // scheduled, so the responsibility is ours.
        self.len.load(Ordering::SeqCst) > 0 && self.try_schedule()
    }

    /// Pops the next payload by port priority.
    pub fn pop(&self) -> Option<Queued> {
        let got = {
            if let Some(p) = self.behavior.lock().pop_front() {
                Some(p)
            } else if let Some(p) = self.rpc.lock().pop_front() {
                Some(p)
            } else {
                self.invocation.lock().pop_front()
            }
        };
        if got.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        got
    }

    /// Empties every queue, returning the entries in port-priority order.
    /// Used to harvest accepted-but-unprocessed messages from a crashed
    /// node's mailboxes for failover re-routing.
    pub fn drain(&self) -> Vec<Queued> {
        let mut out = Vec::new();
        out.extend(self.behavior.lock().drain(..));
        out.extend(self.rpc.lock().drain(..));
        out.extend(self.invocation.lock().drain(..));
        self.len.fetch_sub(out.len(), Ordering::Release);
        out
    }

    /// Total queued messages.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::value::Value;

    fn user(i: i64) -> Payload {
        Payload::User(Message::new(Value::int(i)))
    }

    fn rpc(i: i64) -> Payload {
        Payload::User(Message::rpc(None, Value::int(i)))
    }

    fn val(q: Queued) -> i64 {
        match q.0 {
            Payload::User(m) => m.body.as_int().unwrap(),
            _ => panic!("expected user payload"),
        }
    }

    #[test]
    fn fifo_within_a_port() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.push(Port::Invocation, user(i), None);
        }
        for i in 0..5 {
            assert_eq!(val(mb.pop().unwrap()), i);
        }
        assert!(mb.pop().is_none());
    }

    #[test]
    fn port_priority_behavior_then_rpc_then_invocation() {
        let mb = Mailbox::new();
        mb.push(Port::Invocation, user(3), None);
        mb.push(Port::Rpc, rpc(2), None);
        mb.push(Port::Behavior, Payload::Start, None);
        assert!(matches!(mb.pop().unwrap().0, Payload::Start));
        assert_eq!(val(mb.pop().unwrap()), 2);
        assert_eq!(val(mb.pop().unwrap()), 3);
    }

    #[test]
    fn first_push_schedules_subsequent_do_not() {
        let mb = Mailbox::new();
        assert!(
            mb.push(Port::Invocation, user(1), None),
            "idle mailbox must schedule"
        );
        assert!(
            !mb.push(Port::Invocation, user(2), None),
            "already scheduled"
        );
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn finish_running_detects_racing_messages() {
        let mb = Mailbox::new();
        assert!(mb.push(Port::Invocation, user(1), None));
        mb.begin_running();
        // While running, pushes do not schedule.
        assert!(!mb.push(Port::Invocation, user(2), None));
        mb.pop().unwrap();
        // One message left: finishing must hand back a reschedule.
        assert!(mb.finish_running());
        mb.begin_running();
        mb.pop().unwrap();
        assert!(!mb.finish_running());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mb = Mailbox::new();
        assert_eq!(mb.len(), 0);
        mb.push(Port::Invocation, user(1), None);
        mb.push(Port::Rpc, rpc(2), None);
        assert_eq!(mb.len(), 2);
        mb.pop();
        assert_eq!(mb.len(), 1);
        mb.pop();
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn concurrent_pushers_schedule_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let schedules = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8 {
            let mb = mb.clone();
            let schedules = schedules.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    if mb.push(Port::Invocation, user(t * 100 + i), None) {
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
        assert_eq!(mb.len(), 800);
    }
}
