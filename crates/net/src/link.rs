//! Simulated point-to-point links.
//!
//! A [`Link`] is a unidirectional channel that imposes latency (base +
//! uniform jitter), probabilistic drops, and probabilistic duplication.
//! Jitter makes delivery order differ from send order — deliberately,
//! since the paper guarantees no order on messages (§5.3/§5.6); tests that
//! need loss-free links set the probabilities to zero. The faulty
//! configurations are what [`crate::reliable`] is built to survive.
//!
//! # Zero-delay links deliver inline
//!
//! A link whose [`LinkConfig`] has zero `latency`, zero `jitter`, no drops
//! and no duplication ([`LinkConfig::is_instant`]) has nothing to impose,
//! so it starts no thread: [`Link::send`] runs the delivery callback on
//! the caller's thread before it returns. Any other configuration keeps a
//! delivery thread (the pump) that holds each item until it is due.
//!
//! What a delivery callback may therefore assume — and no more:
//!
//! - it may run on any thread that sends, and concurrently on several of
//!   them (hence the `Sync` bound), under whatever locks the sender holds;
//!   so it must not take a lock a sender may hold, nor block on a thread
//!   that may be sending;
//! - after [`Link::close`] returns, no new delivery starts; the link drops
//!   its callback (with everything the callback owns) at `close`, and the
//!   last in-flight inline delivery drops it on return.

use std::collections::BinaryHeap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use actorspace_lockcheck::{LockClass, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fault and delay model for one link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform extra delay in `[0, jitter]` per message.
    pub jitter: Duration,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// RNG seed (deterministic faults for tests).
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(20),
            drop_prob: 0.0,
            dup_prob: 0.0,
            seed: 0x5eed,
        }
    }
}

impl LinkConfig {
    /// A loss-free, low-latency configuration.
    pub fn ideal() -> LinkConfig {
        LinkConfig {
            jitter: Duration::ZERO,
            ..LinkConfig::default()
        }
    }

    /// A lossy configuration for failure-injection tests.
    pub fn lossy(drop_prob: f64, dup_prob: f64, seed: u64) -> LinkConfig {
        LinkConfig {
            drop_prob,
            dup_prob,
            seed,
            ..LinkConfig::default()
        }
    }

    /// Whether a link over this configuration delivers inline: no delay,
    /// no jitter, no drops and no duplication.
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero()
            && self.jitter.is_zero()
            && self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
    }
}

struct Scheduled<T> {
    due: Instant,
    order: u64,
    item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.order == other.order
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: the heap becomes a min-heap on due time.
        other.due.cmp(&self.due).then(other.order.cmp(&self.order))
    }
}

/// What travels to the delivery thread: an item, or the request to stop.
enum Wire<T> {
    Item(T),
    Close,
}

/// A link's delivery callback, shared with in-flight inline sends.
type Deliver<T> = Arc<dyn Fn(T) + Send + Sync>;

/// How items cross a link.
enum Path<T> {
    /// Zero delay, no faults: `send` runs the callback. `None` once closed.
    Inline(Mutex<Option<Deliver<T>>>),
    /// Delay or faults: the pump thread schedules and runs the callback.
    Pumped {
        tx: mpsc::Sender<Wire<T>>,
        pump: Mutex<Option<JoinHandle<()>>>,
    },
}

/// A unidirectional, fault-injected, delayed delivery channel. A delayed
/// or faulty link's delivery thread runs until [`Link::close`] or drop,
/// which deliver what is already in flight and join it; a zero-delay link
/// delivers on the sending thread (see the module docs).
pub struct Link<T: Send + 'static> {
    path: Path<T>,
}

impl<T: Send + 'static> Link<T> {
    /// Builds a link whose messages are handed to `deliver` after the
    /// configured delay (possibly dropped or reordered). Duplication
    /// requires `T: Clone` — use [`Link::new_cloneable`]; here `dup_prob`
    /// is forced to zero.
    pub fn new(cfg: LinkConfig, deliver: impl Fn(T) + Send + Sync + 'static) -> Link<T> {
        let cfg = LinkConfig {
            dup_prob: 0.0,
            ..cfg
        };
        Link::build(cfg, deliver, None)
    }

    fn build(
        cfg: LinkConfig,
        deliver: impl Fn(T) + Send + Sync + 'static,
        dup: Option<fn(&T) -> T>,
    ) -> Link<T> {
        let class = LockClass::Other("net.link");
        if cfg.is_instant() {
            let deliver: Deliver<T> = Arc::new(deliver);
            return Link {
                path: Path::Inline(Mutex::new(class, Some(deliver))),
            };
        }
        let (tx, rx) = mpsc::channel::<Wire<T>>();
        let pump = std::thread::Builder::new()
            .name("actorspace-link".into())
            .spawn(move || pump(cfg, rx, deliver, dup))
            .expect("spawn link thread");
        Link {
            path: Path::Pumped {
                tx,
                pump: Mutex::new(class, Some(pump)),
            },
        }
    }

    /// Sends an item into the link. Returns false if the link is down. On
    /// a zero-delay link the item has been delivered when this returns.
    pub fn send(&self, item: T) -> bool {
        match &self.path {
            Path::Inline(deliver) => {
                // Clone out of the lock: the callback runs unlocked, so
                // senders overlap and `close` never waits for one.
                let Some(deliver) = deliver.lock().clone() else {
                    return false;
                };
                deliver(item);
                true
            }
            Path::Pumped { tx, .. } => tx.send(Wire::Item(item)).is_ok(),
        }
    }

    /// Stops the link: later sends are dropped (a zero-delay link's return
    /// false) and the link drops its delivery callback. A delayed link
    /// still delivers the items sent before the call, after their delay,
    /// then its delivery thread is joined. Idempotent.
    pub fn close(&self) {
        match &self.path {
            Path::Inline(deliver) => {
                // Dropped after the guard: what the callback owns may
                // close other links as it goes.
                let callback = deliver.lock().take();
                drop(callback);
            }
            Path::Pumped { tx, pump } => {
                let _ = tx.send(Wire::Close);
                let pump = pump.lock().take();
                if let Some(pump) = pump {
                    // A delivery callback that drops the last handle to its
                    // own link cannot join itself; its thread is exiting
                    // anyway.
                    if pump.thread().id() != std::thread::current().id() {
                        let _ = pump.join();
                    }
                }
            }
        }
    }
}

impl<T: Send + 'static> Drop for Link<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T: Clone + Send + 'static> Link<T> {
    /// Like [`Link::new`] but supports duplication (requires `T: Clone`).
    pub fn new_cloneable(cfg: LinkConfig, deliver: impl Fn(T) + Send + Sync + 'static) -> Link<T> {
        Link::build(cfg, deliver, Some(T::clone))
    }
}

fn pump<T>(
    cfg: LinkConfig,
    rx: mpsc::Receiver<Wire<T>>,
    deliver: impl Fn(T),
    dup: Option<fn(&T) -> T>,
) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut heap: BinaryHeap<Scheduled<T>> = BinaryHeap::new();
    let mut order = 0u64;
    let mut closed = false;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|s| s.due <= now) {
            let s = heap.pop().expect("peeked");
            deliver(s.item);
        }
        if closed {
            if heap.is_empty() {
                return;
            }
            // Closed: only wait out what is in flight.
            let due = heap.peek().expect("non-empty").due;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            continue;
        }
        // Wait for the next due time or the next incoming message.
        let wait = heap
            .peek()
            .map(|s| s.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(Wire::Item(item)) => {
                if rng.gen_bool(cfg.drop_prob.clamp(0.0, 1.0)) {
                    continue; // dropped on the wire
                }
                let copy = dup
                    .filter(|_| rng.gen_bool(cfg.dup_prob.clamp(0.0, 1.0)))
                    .map(|dup| dup(&item));
                for item in copy.into_iter().chain([item]) {
                    let jitter = if cfg.jitter.is_zero() {
                        Duration::ZERO
                    } else {
                        cfg.jitter.mul_f64(rng.gen::<f64>())
                    };
                    let due = Instant::now() + cfg.latency + jitter;
                    heap.push(Scheduled { due, order, item });
                    order += 1;
                }
            }
            Ok(Wire::Close) | Err(mpsc::RecvTimeoutError::Disconnected) => closed = true,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn instant() -> LinkConfig {
        LinkConfig {
            latency: Duration::ZERO,
            ..LinkConfig::ideal()
        }
    }

    #[test]
    fn zero_delay_link_delivers_on_the_sending_thread() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let link = Link::new(instant(), move |x: u32| {
            g.lock().unwrap().push((x, std::thread::current().id()));
        });
        assert!(matches!(link.path, Path::Inline(_)), "no pump thread");
        for i in 0..3 {
            assert!(link.send(i));
            // Delivered before `send` returned, by this thread.
            let me = std::thread::current().id();
            assert_eq!(got.lock().unwrap().last(), Some(&(i, me)));
        }
    }

    #[test]
    fn only_a_fault_free_zero_delay_config_is_instant() {
        assert!(instant().is_instant());
        assert!(!LinkConfig::ideal().is_instant());
        for cfg in [
            LinkConfig {
                jitter: Duration::from_micros(1),
                ..instant()
            },
            LinkConfig {
                drop_prob: 0.1,
                ..instant()
            },
            LinkConfig {
                dup_prob: 0.1,
                ..instant()
            },
        ] {
            assert!(!cfg.is_instant(), "{cfg:?}");
            let link = Link::new_cloneable(cfg, |_: u32| {});
            assert!(matches!(link.path, Path::Pumped { .. }));
        }
        // `Link::new` forces duplication off, so a duplicating but
        // otherwise instant config delivers inline there.
        let cfg = LinkConfig {
            dup_prob: 0.5,
            ..instant()
        };
        assert!(matches!(Link::new(cfg, |_: u32| {}).path, Path::Inline(_)));
    }

    #[test]
    fn zero_delay_send_after_close_is_refused() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let link = Link::new(instant(), move |_: u32| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert!(link.send(1));
        link.close();
        assert!(!link.send(2));
        link.close(); // idempotent
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_delay_close_drops_the_callback() {
        // Regression: a sequencer's stamping thread waits for its channel
        // to disconnect, and the only sender lives in its uplink's
        // callback. A close that kept the callback hung shutdown forever.
        let (tx, rx) = mpsc::channel::<u32>();
        let link = Link::new(instant(), move |x: u32| {
            let _ = tx.send(x);
        });
        assert!(link.send(5));
        link.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(5));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "close must drop the callback and its sender"
        );
    }

    #[test]
    fn delivers_after_latency() {
        let got = Arc::new(AtomicUsize::new(0));
        let g = got.clone();
        let cfg = LinkConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::ZERO,
            ..LinkConfig::ideal()
        };
        let link = Link::new(cfg, move |x: u32| {
            g.store(x as usize, Ordering::Release);
        });
        let t0 = Instant::now();
        assert!(link.send(7));
        while got.load(Ordering::Acquire) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(18),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(got.load(Ordering::Acquire), 7);
    }

    #[test]
    fn all_messages_arrive_without_faults() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let link = Link::new(LinkConfig::ideal(), move |x: u32| {
            g.lock().unwrap().push(x);
        });
        for i in 0..500 {
            link.send(i);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.lock().unwrap().len() < 500 {
            assert!(
                Instant::now() < deadline,
                "only {} arrived",
                got.lock().unwrap().len()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut v = got.lock().unwrap().clone();
        v.sort_unstable();
        assert_eq!(v, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_can_reorder() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let cfg = LinkConfig {
            latency: Duration::from_micros(100),
            jitter: Duration::from_millis(5),
            seed: 42,
            ..LinkConfig::ideal()
        };
        let link = Link::new(cfg, move |x: u32| {
            g.lock().unwrap().push(x);
        });
        for i in 0..200 {
            link.send(i);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.lock().unwrap().len() < 200 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        let v = got.lock().unwrap().clone();
        assert_ne!(
            v,
            (0..200).collect::<Vec<_>>(),
            "jitter should reorder some pair"
        );
    }

    #[test]
    fn drops_lose_messages_and_dups_duplicate() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let cfg = LinkConfig {
            drop_prob: 0.5,
            seed: 7,
            ..LinkConfig::ideal()
        };
        let link = Link::new_cloneable(cfg, move |_x: u32| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..1000 {
            link.send(i);
        }
        std::thread::sleep(Duration::from_millis(300));
        let n = count.load(Ordering::Relaxed);
        assert!((300..700).contains(&n), "≈50% should survive, got {n}");

        let count2 = Arc::new(AtomicUsize::new(0));
        let c2 = count2.clone();
        let cfg = LinkConfig {
            dup_prob: 1.0,
            seed: 9,
            ..LinkConfig::ideal()
        };
        let link2 = Link::new_cloneable(cfg, move |_x: u32| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..100 {
            link2.send(i);
        }
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            count2.load(Ordering::Relaxed),
            200,
            "dup_prob=1 doubles every message"
        );
    }
}
