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
use std::sync::{Arc, OnceLock};
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
    /// link (joining its delivery thread, if it has one). Unacknowledged
    /// packets stay in the journal. Idempotent.
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
    seen: Mutex<Seen>,
}

/// The sequence numbers a receiver has settled: accepted, or drained from
/// the sender's journal for failover. A sender numbers densely from 0, so
/// this keeps a watermark (every seq below it is settled) and only the
/// settled seqs above it, which in order arrive at the watermark and are
/// folded into it. Beside them it keeps the seqs being offered to
/// `accept` right now, so a concurrent copy of one is neither delivered
/// twice nor drained while its outcome is open.
#[derive(Default)]
struct Seen {
    below: u64,
    above: HashSet<u64>,
    /// As many as there are threads delivering at once: a short list.
    in_flight: Vec<u64>,
}

impl Seen {
    fn contains(&self, seq: u64) -> bool {
        seq < self.below || self.above.contains(&seq)
    }

    fn insert(&mut self, seq: u64) {
        if seq == self.below {
            self.below += 1;
            while self.above.remove(&self.below) {
                self.below += 1;
            }
        } else if seq > self.below {
            self.above.insert(seq);
        }
    }
}

impl ReliableReceiver {
    /// Fresh receiver state.
    pub fn new() -> ReliableReceiver {
        ReliableReceiver {
            seen: Mutex::new(LockClass::Reliable, Seen::default()),
        }
    }

    /// Handles an incoming data packet. First receipt is offered to
    /// `accept`; only an accepted packet is recorded and acknowledged, so a
    /// rejected one keeps retransmitting until the destination can take it
    /// (or the sender's journal is drained for failover). Duplicates of a
    /// settled packet are re-acknowledged without redelivery; a copy that
    /// arrives while another is being offered is dropped unacknowledged,
    /// since that offer decides the packet's fate. `accept` runs unlocked,
    /// so copies may arrive concurrently (a zero-delay link delivers on
    /// every sending thread, the retransmit timer's included).
    pub fn on_data<T>(
        &self,
        seq: u64,
        payload: T,
        send_ack: impl FnOnce(u64),
        accept: impl FnOnce(T) -> bool,
    ) {
        {
            let mut seen = self.seen.lock();
            if seen.contains(seq) {
                drop(seen);
                send_ack(seq); // duplicate: the original ack may have been lost
                return;
            }
            if seen.in_flight.contains(&seq) {
                return; // the copy being offered now settles it or not
            }
            seen.in_flight.push(seq);
        }
        let accepted = accept(payload);
        {
            let mut seen = self.seen.lock();
            seen.in_flight.retain(|&s| s != seq);
            if accepted {
                seen.insert(seq);
            }
        }
        if accepted {
            send_ack(seq);
        }
    }

    /// Whether `seq` is settled: accepted here, or drained for failover.
    pub fn contains(&self, seq: u64) -> bool {
        self.seen.lock().contains(seq)
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
        // The ack (reverse) link shares the fault model. It needs the
        // sender's state, so it is built after the forward link, and set
        // once here before the first send.
        let ack_link: Arc<OnceLock<Link<Packet<T>>>> = Arc::new(OnceLock::new());

        let receiver = Arc::new(ReliableReceiver::new());
        let rx = receiver.clone();
        let ack_for_fwd = ack_link.clone();
        let fwd: Arc<Link<Packet<T>>> = Arc::new(Link::new_cloneable(
            LinkConfig {
                seed: cfg.seed,
                ..cfg.clone()
            },
            move |pkt| {
                if let Packet::Data { seq, payload } = pkt {
                    rx.on_data(
                        seq,
                        payload,
                        |s| {
                            if let Some(ack) = ack_for_fwd.get() {
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
        let rev = Link::new_cloneable(
            LinkConfig {
                seed: cfg.seed.wrapping_add(1),
                ..cfg
            },
            move |pkt| {
                if let Packet::Ack { seq } = pkt {
                    sender_state.lock().unacked.remove(&seq);
                }
            },
        );
        let _ = ack_link.set(rev);

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
    /// provably *not* accepted, and settles each one in the receiver so a
    /// copy still on the link is acknowledged but never delivered. Packets
    /// the receiver accepted but whose acks were lost are dropped from the
    /// journal without being returned — they already reached the
    /// destination, and returning them would duplicate. A packet being
    /// offered to the destination at this moment stays journalled: its ack
    /// removes it, or a later drain returns it. Used on suspicion of the
    /// destination node to re-route in-flight messages.
    pub fn drain_undelivered(&self) -> Vec<T> {
        let taken: Vec<(u64, (T, Instant))> = self.sender.state.lock().unacked.drain().collect();
        let mut undelivered = Vec::new();
        let mut open = Vec::new();
        {
            let mut seen = self.receiver.seen.lock();
            for (seq, (payload, sent)) in taken {
                if seen.in_flight.contains(&seq) {
                    open.push((seq, (payload, sent)));
                } else if !seen.contains(seq) {
                    seen.insert(seq);
                    undelivered.push(payload);
                }
            }
        }
        if !open.is_empty() {
            // A reserved packet's ack may already have come and gone; its
            // next retransmission then meets a settled seq and is acked.
            self.sender.state.lock().unacked.extend(open);
        }
        undelivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// The loss-free inputs: a delayed link (one delivery thread per
    /// direction) and a zero-delay one (delivery on the sending thread).
    fn clean_configs() -> [LinkConfig; 2] {
        [
            LinkConfig::ideal(),
            LinkConfig {
                latency: Duration::ZERO,
                ..LinkConfig::ideal()
            },
        ]
    }

    fn wait_for(pred: impl Fn() -> bool, secs: u64) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn exactly_once_over_clean_link() {
        for cfg in clean_configs() {
            let count = Arc::new(AtomicUsize::new(0));
            let c = count.clone();
            let pipe = ReliablePipe::new(cfg, Duration::from_millis(20), move |_x: u32| {
                c.fetch_add(1, Ordering::Relaxed);
                true
            });
            for i in 0..200 {
                pipe.send(i);
            }
            wait_for(|| count.load(Ordering::Relaxed) >= 200, 10);
            // Let retransmits run a bit; duplicates must NOT appear.
            std::thread::sleep(Duration::from_millis(200));
            assert_eq!(count.load(Ordering::Relaxed), 200);
            wait_for(|| pipe.unacked() == 0, 10);
        }
    }

    #[test]
    fn accepted_seqs_fold_into_a_watermark() {
        // Over a clean pipe the receiver's retained set stays small however
        // many packets pass: accepted seqs fold into the watermark, and so
        // does a seq drained for failover, which is never accepted.
        for cfg in clean_configs() {
            for drain_first in [false, true] {
                let rejected = Arc::new(AtomicUsize::new(0));
                let r = rejected.clone();
                let pipe =
                    ReliablePipe::new(cfg.clone(), Duration::from_secs(60), move |x: u32| {
                        if drain_first && x == 0 {
                            r.fetch_add(1, Ordering::SeqCst);
                            return false;
                        }
                        true
                    });
                if drain_first {
                    pipe.send(0);
                    wait_for(|| rejected.load(Ordering::SeqCst) == 1, 10);
                    wait_for(|| pipe.receiver.seen.lock().in_flight.is_empty(), 10);
                    assert_eq!(pipe.drain_undelivered(), vec![0]);
                }
                let mut most = 0;
                for i in u32::from(drain_first)..100_000 {
                    pipe.send(i);
                    if i % 1_000 == 0 {
                        most = most.max(pipe.receiver.seen.lock().above.len());
                    }
                }
                wait_for(|| pipe.unacked() == 0, 30);
                let (below, above) = {
                    let seen = pipe.receiver.seen.lock();
                    (seen.below, seen.above.len())
                };
                assert_eq!((below, above), (100_000, 0));
                assert!(most <= 1_000, "retained {most} seqs individually");
                assert!(pipe.receiver.contains(0) && pipe.receiver.contains(99_999));
                assert!(!pipe.receiver.contains(100_000));
            }
        }
    }

    #[test]
    fn a_copy_arriving_during_a_slow_delivery_is_not_delivered_again() {
        // On a zero-delay link the first delivery runs on the sending
        // thread; while it outlasts several retransmission periods, the
        // timer thread delivers copies of the same seq concurrently.
        for cfg in clean_configs() {
            let count = Arc::new(AtomicUsize::new(0));
            let c = count.clone();
            let period = Duration::from_millis(5);
            let pipe = ReliablePipe::new(cfg, period, move |_: u32| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(period * 20);
                }
                true
            });
            pipe.send(1);
            wait_for(|| pipe.unacked() == 0, 10);
            std::thread::sleep(period * 4);
            assert!(
                pipe.retransmits() > 0,
                "no copy was sent during the delivery"
            );
            assert_eq!(count.load(Ordering::SeqCst), 1, "delivered more than once");
        }
    }

    #[test]
    fn a_packet_being_delivered_is_not_drained() {
        // Drain must not return a packet whose delivery is under way: if
        // it lands, returning it too would duplicate it.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let entered_tx = std::sync::Mutex::new(entered_tx);
        let release_rx = std::sync::Mutex::new(release_rx);
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let pipe = Arc::new(ReliablePipe::new(
            clean_configs()[1].clone(),
            Duration::from_secs(60),
            move |_: u32| {
                entered_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                c.fetch_add(1, Ordering::SeqCst);
                true
            },
        ));
        let p2 = pipe.clone();
        let sending = std::thread::spawn(move || p2.send(4));
        entered_rx.recv().unwrap();
        assert!(pipe.drain_undelivered().is_empty());
        assert_eq!(pipe.unacked(), 1, "the packet stays journalled");
        release_tx.send(()).unwrap();
        sending.join().unwrap();
        wait_for(|| pipe.unacked() == 0, 10);
        assert!(pipe.drain_undelivered().is_empty());
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn seen_set_matches_a_plain_set_under_gaps_and_reordering() {
        // Insert a shuffled sequence with permanent holes (never-accepted
        // seqs) and compare every answer with a plain set.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut order: Vec<u64> = (0..2_000).filter(|s| s % 97 != 5).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut seen = Seen::default();
        let mut plain = HashSet::new();
        for (k, &s) in order.iter().enumerate() {
            seen.insert(s);
            plain.insert(s);
            if k % 50 == 0 {
                assert!((0..2_100).all(|q| seen.contains(q) == plain.contains(&q)));
            }
        }
        assert!((0..2_100).all(|q| seen.contains(q) == plain.contains(&q)));
        assert_eq!(seen.below, 5, "the first hole holds the watermark");
        // Re-inserting is a no-op.
        seen.insert(3);
        seen.insert(1_000);
        assert!((0..2_100).all(|q| seen.contains(q) == plain.contains(&q)));
    }

    #[test]
    fn loss_free_link_never_retransmits() {
        // A packet acked within its first period must never be resent,
        // however the sends line up with the timer's ticks. Stream sends
        // across 10 periods so some are always in flight at a tick. The
        // period is long enough that no scheduling stall between a send
        // and its ack on a busy host lasts a whole period.
        for cfg in clean_configs() {
            let count = Arc::new(AtomicUsize::new(0));
            let c = count.clone();
            let period = Duration::from_millis(250);
            let pipe = ReliablePipe::new(cfg, period, move |_x: u32| {
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
        for cfg in clean_configs() {
            let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let got = Arc::new(Mutex::new(
                LockClass::Other("test.net.reliable_log"),
                Vec::new(),
            ));
            let (g2, gt2) = (gate.clone(), got.clone());
            let pipe = ReliablePipe::new(cfg, Duration::from_millis(5), move |x: u32| {
                if g2.load(Ordering::Acquire) {
                    gt2.lock().push(x);
                    true
                } else {
                    false
                }
            });
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
    }

    #[test]
    fn drain_undelivered_returns_only_unaccepted_packets() {
        // Accept only even payloads; odd ones stay journalled and must be
        // the exact drain result.
        for cfg in clean_configs() {
            let rejected = Arc::new(AtomicUsize::new(0));
            let r = rejected.clone();
            let pipe = ReliablePipe::new(cfg, Duration::from_secs(60), move |x: u32| {
                if !x.is_multiple_of(2) {
                    r.fetch_add(1, Ordering::SeqCst);
                }
                x.is_multiple_of(2)
            });
            for i in 0..10 {
                pipe.send(i);
            }
            wait_for(|| pipe.unacked() == 5, 10);
            // Every packet has been offered once and none is being offered.
            wait_for(|| rejected.load(Ordering::SeqCst) == 5, 10);
            wait_for(|| pipe.receiver.seen.lock().in_flight.is_empty(), 10);
            let mut drained = pipe.drain_undelivered();
            drained.sort_unstable();
            assert_eq!(drained, vec![1, 3, 5, 7, 9]);
            assert_eq!(pipe.unacked(), 0, "drain must empty the journal");
            assert!(pipe.drain_undelivered().is_empty());
            // A copy of a drained packet still on a link arrives late.
            let (mut offered, mut acked) = (false, false);
            pipe.receiver.on_data(
                3,
                3u32,
                |_| acked = true,
                |_| {
                    offered = true;
                    true
                },
            );
            assert!(acked && !offered, "a drained packet must not be delivered");
        }
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
