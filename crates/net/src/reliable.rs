//! Reliable at-least-once delivery with receiver-side deduplication —
//! exactly-once end to end over lossy links.
//!
//! The paper's delivery guarantee is "message delivery is only finitely
//! delayed" (§5.3/§5.6); this layer restores that guarantee over a link
//! that drops and duplicates. Classic mechanism: the sender numbers
//! packets and retransmits unacknowledged ones once they have waited a
//! full retransmission period without an ack; the receiver
//! delivers each sequence number once and (re-)acknowledges everything it
//! has seen. No ordering is imposed — reordering remains visible to the
//! application, as the paper allows.
//!
//! Delivery is *conditional*: the receiving side may reject a packet (a
//! crashed node refuses traffic), in which case nothing is acknowledged
//! and the packet stays in the sender's journal. That journal is what the
//! failover path drains: [`ReliablePipe::drain_undelivered`] removes every
//! packet the receiver has provably not accepted, so a crashed
//! destination's in-flight messages can be re-routed elsewhere without
//! ever duplicating one that did land.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_lockcheck::{Condvar, LockClass, Mutex};

use crate::link::{Link, LinkConfig};

/// A numbered packet or an acknowledgment.
#[derive(Debug, Clone)]
pub enum Packet<T> {
    /// Payload with sender-assigned sequence number.
    Data {
        /// Sender-assigned, strictly increasing.
        seq: u64,
        /// The payload.
        payload: T,
    },
    /// Cumulative-free ack of one sequence number.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

struct SenderState<T> {
    /// Unacknowledged packets with the time each was last put on the link.
    unacked: HashMap<u64, (T, Instant)>,
    next_seq: u64,
}

/// Signals the retransmit thread to exit without waiting out its period.
struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The sending half: call [`ReliableSender::send`]; a retransmit timer
/// thread re-sends each unacked packet that has gone a whole period since
/// it was last sent, until acknowledged. [`ReliableSender::close`] (or
/// dropping the sender) stops the timer thread promptly and joins it.
pub struct ReliableSender<T: Clone + Send + 'static> {
    state: Arc<Mutex<SenderState<T>>>,
    link: Arc<Link<Packet<T>>>,
    stop: Arc<StopFlag>,
    retransmits: Arc<AtomicU64>,
    retx: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<T: Clone + Send + 'static> Drop for ReliableSender<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T: Clone + Send + 'static> ReliableSender<T> {
    /// Wraps a forward link. `retx_every` is the retransmission period.
    pub fn new(link: Arc<Link<Packet<T>>>, retx_every: Duration) -> ReliableSender<T> {
        let state: Arc<Mutex<SenderState<T>>> = Arc::new(Mutex::new(
            LockClass::Reliable,
            SenderState {
                unacked: HashMap::new(),
                next_seq: 0,
            },
        ));
        let stop = Arc::new(StopFlag {
            stopped: Mutex::new(LockClass::Reliable, false),
            cv: Condvar::new(),
        });
        let retransmits = Arc::new(AtomicU64::new(0));
        let s2 = state.clone();
        let l2 = link.clone();
        let stop2 = stop.clone();
        let rtx2 = retransmits.clone();
        let retx = std::thread::Builder::new()
            .name("actorspace-retx".into())
            .spawn(move || loop {
                {
                    let mut g = stop2.stopped.lock();
                    if !*g {
                        stop2.cv.wait_for(&mut g, retx_every);
                    }
                    if *g {
                        return;
                    }
                }
                // Only packets a full period old: one sent just before the
                // tick is still in flight, not lost.
                let now = Instant::now();
                let pending: Vec<(u64, T)> = s2
                    .lock()
                    .unacked
                    .iter_mut()
                    .filter(|(_, (_, sent))| now.duration_since(*sent) >= retx_every)
                    .map(|(&s, (p, sent))| {
                        *sent = now;
                        (s, p.clone())
                    })
                    .collect();
                for (seq, payload) in pending {
                    if !l2.send(Packet::Data { seq, payload }) {
                        return; // link down
                    }
                    rtx2.fetch_add(1, Ordering::Relaxed);
                }
            })
            .expect("spawn retx thread");
        ReliableSender {
            state,
            link,
            stop,
            retransmits,
            retx: Mutex::new(LockClass::Reliable, Some(retx)),
        }
    }

    /// Stops and joins the retransmit thread, then closes the forward
    /// link (joining its delivery thread). Unacknowledged packets stay in
    /// the journal. Idempotent.
    pub fn close(&self) {
        *self.stop.stopped.lock() = true;
        self.stop.cv.notify_all();
        let retx = self.retx.lock().take();
        if let Some(h) = retx {
            let _ = h.join();
        }
        self.link.close();
    }

    /// Sends a payload; it will be retransmitted until acked.
    pub fn send(&self, payload: T) {
        let now = Instant::now();
        let seq = {
            let mut st = self.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            st.unacked.insert(seq, (payload.clone(), now));
            seq
        };
        self.link.send(Packet::Data { seq, payload });
    }

    /// Processes an incoming ack (fed from the reverse link).
    pub fn on_ack(&self, seq: u64) {
        self.state.lock().unacked.remove(&seq);
    }

    /// Packets not yet acknowledged (for tests/metrics).
    pub fn unacked(&self) -> usize {
        self.state.lock().unacked.len()
    }

    /// Total packet retransmissions performed by the timer thread —
    /// monotone, never reset. The cluster's observability layer polls this
    /// and folds the delta into its `net.retransmits` counter.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }
}

/// The receiving half: deduplicates and acks.
pub struct ReliableReceiver {
    seen: Mutex<HashSet<u64>>,
}

impl ReliableReceiver {
    /// Fresh receiver state.
    pub fn new() -> ReliableReceiver {
        ReliableReceiver {
            seen: Mutex::new(LockClass::Reliable, HashSet::new()),
        }
    }

    /// Handles an incoming data packet. First receipt is offered to
    /// `accept`; only an accepted packet is recorded and acknowledged, so a
    /// rejected one keeps retransmitting until the destination can take it
    /// (or the sender's journal is drained for failover). Duplicates are
    /// re-acknowledged without redelivery.
    pub fn on_data<T>(
        &self,
        seq: u64,
        payload: T,
        send_ack: impl FnOnce(u64),
        accept: impl FnOnce(T) -> bool,
    ) {
        if self.seen.lock().contains(&seq) {
            send_ack(seq); // duplicate: the original ack may have been lost
            return;
        }
        if accept(payload) {
            self.seen.lock().insert(seq);
            send_ack(seq);
        }
    }

    /// Whether `seq` has been accepted by this receiver.
    pub fn contains(&self, seq: u64) -> bool {
        self.seen.lock().contains(&seq)
    }
}

impl Default for ReliableReceiver {
    fn default() -> Self {
        ReliableReceiver::new()
    }
}

/// A bidirectional reliable pipe over two lossy links — convenience used
/// by the cluster's data plane and by tests.
pub struct ReliablePipe<T: Clone + Send + 'static> {
    sender: ReliableSender<T>,
    receiver: Arc<ReliableReceiver>,
}

impl<T: Clone + Send + 'static> ReliablePipe<T> {
    /// Builds the forward path `a → b` over `cfg`-faulty links. `deliver`
    /// receives each payload at most once on the `b` side; returning
    /// `false` rejects the packet, leaving it unacknowledged in the
    /// sender's journal for retransmission (or failover draining).
    pub fn new(
        cfg: LinkConfig,
        retx_every: Duration,
        deliver: impl Fn(T) -> bool + Send + Sync + 'static,
    ) -> ReliablePipe<T> {
        // The ack (reverse) link shares the fault model.
        type AckLink<T> = Arc<Mutex<Option<Arc<Link<Packet<T>>>>>>;
        let ack_holder: AckLink<T> = Arc::new(Mutex::new(LockClass::Reliable, None));

        let receiver = Arc::new(ReliableReceiver::new());
        let rx = receiver.clone();
        let ack_for_fwd = ack_holder.clone();
        let fwd: Arc<Link<Packet<T>>> = Arc::new(Link::new_cloneable(
            LinkConfig {
                seed: cfg.seed,
                ..cfg.clone()
            },
            move |pkt| {
                if let Packet::Data { seq, payload } = pkt {
                    let ack = ack_for_fwd.lock().clone();
                    rx.on_data(
                        seq,
                        payload,
                        |s| {
                            if let Some(ack) = &ack {
                                ack.send(Packet::Ack { seq: s });
                            }
                        },
                        &deliver,
                    );
                }
            },
        ));

        let sender = ReliableSender::new(fwd, retx_every);

        // Reverse link: acks flow back into the sender.
        let sender_state = sender.state.clone();
        let rev: Arc<Link<Packet<T>>> = Arc::new(Link::new_cloneable(
            LinkConfig {
                seed: cfg.seed.wrapping_add(1),
                ..cfg
            },
            move |pkt| {
                if let Packet::Ack { seq } = pkt {
                    sender_state.lock().unacked.remove(&seq);
                }
            },
        ));
        *ack_holder.lock() = Some(rev);

        ReliablePipe { sender, receiver }
    }

    /// Sends a payload with the exactly-once guarantee.
    pub fn send(&self, payload: T) {
        self.sender.send(payload);
    }

    /// Stops the pipe and joins its threads: the retransmit timer, the
    /// forward link, and (as the forward link's last holder) the ack link.
    pub fn close(&self) {
        self.sender.close();
    }

    /// Outstanding unacknowledged packets.
    pub fn unacked(&self) -> usize {
        self.sender.unacked()
    }

    /// Total retransmissions on the forward path.
    pub fn retransmits(&self) -> u64 {
        self.sender.retransmits()
    }

    /// Removes and returns every journalled packet the receiver has
    /// provably *not* accepted. Packets the receiver accepted but whose
    /// acks were lost are dropped from the journal without being returned —
    /// they already reached the destination, and returning them would
    /// duplicate. Used on suspicion of the destination node to re-route
    /// in-flight messages.
    pub fn drain_undelivered(&self) -> Vec<T> {
        let taken: Vec<(u64, (T, Instant))> = {
            let mut st = self.sender.state.lock();
            st.unacked.drain().collect()
        };
        taken
            .into_iter()
            .filter(|(seq, _)| !self.receiver.contains(*seq))
            .map(|(_, (p, _))| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn wait_for(pred: impl Fn() -> bool, secs: u64) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn exactly_once_over_clean_link() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let pipe = ReliablePipe::new(
            LinkConfig::ideal(),
            Duration::from_millis(20),
            move |_x: u32| {
                c.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        for i in 0..200 {
            pipe.send(i);
        }
        wait_for(|| count.load(Ordering::Relaxed) >= 200, 10);
        // Let retransmits run a bit; duplicates must NOT appear.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(count.load(Ordering::Relaxed), 200);
        wait_for(|| pipe.unacked() == 0, 10);
    }

    #[test]
    fn loss_free_link_never_retransmits() {
        // A packet acked within its first period must never be resent,
        // however the sends line up with the timer's ticks. Stream sends
        // across 10 periods so some are always in flight at a tick. The
        // period is long enough that no scheduling stall between a send
        // and its ack on a busy host lasts a whole period.
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let period = Duration::from_millis(250);
        let pipe = ReliablePipe::new(LinkConfig::ideal(), period, move |_x: u32| {
            c.fetch_add(1, Ordering::Relaxed);
            true
        });
        let start = Instant::now();
        let mut sent = 0u32;
        while start.elapsed() < period * 10 {
            pipe.send(sent);
            sent += 1;
            std::thread::sleep(Duration::from_micros(50));
        }
        wait_for(|| pipe.unacked() == 0, 10);
        assert_eq!(count.load(Ordering::Relaxed), sent as usize);
        assert_eq!(
            pipe.retransmits(),
            0,
            "{sent} packets over a loss-free link were retransmitted"
        );
    }

    #[test]
    fn exactly_once_under_heavy_loss_and_duplication() {
        let got = Arc::new(Mutex::new(
            LockClass::Other("test.net.reliable_log"),
            Vec::new(),
        ));
        let g = got.clone();
        let cfg = LinkConfig::lossy(0.4, 0.3, 99);
        let pipe = ReliablePipe::new(cfg, Duration::from_millis(10), move |x: u32| {
            g.lock().push(x);
            true
        });
        let n = 300u32;
        for i in 0..n {
            pipe.send(i);
        }
        wait_for(|| got.lock().len() >= n as usize, 30);
        std::thread::sleep(Duration::from_millis(300));
        let mut v = got.lock().clone();
        let len = v.len();
        v.sort_unstable();
        v.dedup();
        assert_eq!(len, v.len(), "duplicates leaked through");
        assert_eq!(v, (0..n).collect::<Vec<_>>(), "payloads missing");
    }

    #[test]
    fn rejected_packets_stay_unacked_until_accepted() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let got = Arc::new(Mutex::new(
            LockClass::Other("test.net.reliable_log"),
            Vec::new(),
        ));
        let (g2, gt2) = (gate.clone(), got.clone());
        let pipe = ReliablePipe::new(
            LinkConfig::ideal(),
            Duration::from_millis(5),
            move |x: u32| {
                if g2.load(Ordering::Acquire) {
                    gt2.lock().push(x);
                    true
                } else {
                    false
                }
            },
        );
        pipe.send(1);
        pipe.send(2);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pipe.unacked(), 2, "rejected packets must stay journalled");
        assert!(got.lock().is_empty());
        gate.store(true, Ordering::Release);
        wait_for(|| pipe.unacked() == 0, 10);
        let mut v = got.lock().clone();
        v.sort_unstable();
        assert_eq!(
            v,
            vec![1, 2],
            "retransmission must deliver after acceptance"
        );
    }

    #[test]
    fn drain_undelivered_returns_only_unaccepted_packets() {
        // Accept only even payloads; odd ones stay journalled and must be
        // the exact drain result.
        let pipe = ReliablePipe::new(
            LinkConfig::ideal(),
            Duration::from_secs(60),
            move |x: u32| x.is_multiple_of(2),
        );
        for i in 0..10 {
            pipe.send(i);
        }
        wait_for(|| pipe.unacked() == 5, 10);
        let mut drained = pipe.drain_undelivered();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 3, 5, 7, 9]);
        assert_eq!(pipe.unacked(), 0, "drain must empty the journal");
        assert!(pipe.drain_undelivered().is_empty());
    }

    #[test]
    fn dropping_sender_joins_retx_thread_promptly() {
        // Regression: Drop used to only raise a flag the timer thread
        // checked after sleeping a full period — with a long period the
        // thread outlived the sender by up to `retx_every`.
        let pipe = ReliablePipe::new(LinkConfig::ideal(), Duration::from_secs(60), |_: u32| true);
        pipe.send(7);
        let start = Instant::now();
        drop(pipe);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not wait out the retransmission period"
        );
    }
}
