//! The rotating-token protocol — the Amoeba-style alternative \[23].
//!
//! Instead of a central sequencer, a logical token circulates among the
//! nodes. A node buffers its submissions until it holds the token; while
//! holding it, the node stamps its buffered events with consecutive global
//! sequence numbers and multicasts them. The token hop cost models the
//! rotation latency. Total order holds because only the token holder
//! stamps, and the counter travels with the token.
//!
//! Compared to the sequencer, submissions pay an average of half a rotation
//! of extra latency when idle, but there is no central process to saturate
//! — the trade-off benchmark E3 measures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use actorspace_lockcheck::{LockClass, Mutex};

use crate::bus::{BusEvent, OrderedBroadcast, SeqEvent};
use crate::link::Link;

/// The token-rotation ordered broadcast.
pub struct TokenBus {
    pending: Arc<Vec<Mutex<VecDeque<BusEvent>>>>,
    submitted: AtomicU64,
    issued: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    /// The token thread; it owns the downlinks.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TokenBus {
    /// Builds the bus. `hop` is the token's per-node hold/travel time.
    pub fn new(n_nodes: usize, hop: Duration, downlinks: Vec<Arc<Link<SeqEvent>>>) -> TokenBus {
        let pending: Arc<Vec<Mutex<VecDeque<BusEvent>>>> = Arc::new(
            (0..n_nodes)
                .map(|_| Mutex::new(LockClass::Bus, VecDeque::new()))
                .collect(),
        );
        let issued = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let p2 = pending.clone();
        let issued2 = issued.clone();
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("actorspace-token".into())
            .spawn(move || {
                let mut seq = 0u64;
                let mut holder = 0usize;
                loop {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    // Token travel/hold time. A short sleep keeps rotation
                    // cheap when idle while still modelling the hop cost.
                    std::thread::sleep(hop);
                    // The holder drains its buffered submissions.
                    let drained: Vec<BusEvent> = {
                        let mut q = p2[holder].lock();
                        q.drain(..).collect()
                    };
                    for event in drained {
                        for link in &downlinks {
                            link.send(SeqEvent {
                                seq,
                                event: event.clone(),
                            });
                        }
                        seq += 1;
                    }
                    issued2.store(seq, Ordering::Release);
                    holder = (holder + 1) % p2.len();
                }
            })
            .expect("spawn token thread");

        TokenBus {
            pending,
            submitted: AtomicU64::new(0),
            issued,
            stop,
            thread: Mutex::new(LockClass::Bus, Some(thread)),
        }
    }
}

impl Drop for TokenBus {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl OrderedBroadcast for TokenBus {
    fn submit(&self, event: BusEvent) {
        self.submitted.fetch_add(1, Ordering::AcqRel);
        let node = event.origin.0 as usize % self.pending.len();
        self.pending[node].lock().push_back(event);
    }

    fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Acquire)
    }

    fn issued(&self) -> u64 {
        self.issued.load(Ordering::Acquire)
    }

    fn shutdown(&self) {
        // The token thread exits within one hop and drops the downlinks,
        // which deliver what is in flight and join.
        self.stop.store(true, Ordering::Release);
        let thread = self.thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Applier, BusOp};
    use crate::directory::NodeId;
    use crate::link::LinkConfig;
    use actorspace_core::ActorId;
    use std::time::Instant;

    #[test]
    fn token_bus_preserves_total_order_across_nodes() {
        let n_nodes = 3;
        let logs: Vec<Arc<Mutex<Vec<u64>>>> = (0..n_nodes)
            .map(|_| {
                Arc::new(Mutex::new(
                    LockClass::Other("test.net.tokenbus_log"),
                    Vec::new(),
                ))
            })
            .collect();
        let appliers: Vec<Arc<Applier>> = logs
            .iter()
            .map(|log| {
                let log = log.clone();
                Arc::new(Applier::new(move |e| {
                    if let BusOp::RemoveActor { id } = e.op {
                        log.lock().push(id.0);
                    }
                }))
            })
            .collect();
        let downlinks: Vec<Arc<Link<SeqEvent>>> = appliers
            .iter()
            .map(|a| {
                let a = a.clone();
                Arc::new(Link::new(
                    LinkConfig {
                        jitter: Duration::from_millis(1),
                        seed: 5,
                        ..LinkConfig::ideal()
                    },
                    move |e| a.on_event(e),
                ))
            })
            .collect();
        let bus = TokenBus::new(n_nodes, Duration::from_micros(200), downlinks);

        for i in 0..60u64 {
            bus.submit(BusEvent {
                origin: NodeId((i % n_nodes as u64) as u16),
                op: BusOp::RemoveActor { id: ActorId(i) },
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while appliers.iter().any(|a| a.applied() < 60) {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        let first = logs[0].lock().clone();
        assert_eq!(first.len(), 60);
        for log in &logs[1..] {
            assert_eq!(*log.lock(), first, "token bus order diverged");
        }
        // Per-origin FIFO: events from the same origin appear in
        // submission order.
        for origin in 0..n_nodes as u64 {
            let seen: Vec<u64> = first.iter().copied().filter(|i| i % 3 == origin).collect();
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "origin {origin} reordered");
        }
        assert_eq!(bus.issued(), 60);
    }
}
