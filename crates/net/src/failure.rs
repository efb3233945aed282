//! Heartbeat-based failure detection for the simulated cluster.
//!
//! The paper assumes "actors are not dropped" inside the system (§5.3);
//! real deployments lose nodes, so the distribution layer needs to *detect*
//! the loss and route around it. This module is the detection half: every
//! node periodically beats to every peer, every node tracks the last beat
//! it heard from each peer, and silence past a threshold declares the peer
//! failed. The reaction half lives in [`crate::cluster`]: a suspicion is
//! submitted to the coordinator bus as `NodeDown`, which purges the dead
//! node's actors from every replica's visibility tables so pattern
//! resolution (§5.3) falls back to surviving matches.
//!
//! The detector is deliberately simple — a miss-count/timeout scheme rather
//! than a full phi-accrual estimator — but the knobs are the same shape: a
//! heartbeat period, a base timeout, and a miss multiplier whose product
//! acts as the accrual threshold. Suspicion is *revocable*: a beat from a
//! suspected peer (a restarted node) clears the suspicion.

use std::time::{Duration, Instant};

use actorspace_lockcheck::{LockClass, Mutex};

/// Failure-detector tuning.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// How often each node beats to each peer.
    pub heartbeat_every: Duration,
    /// Minimum silence before a peer may be suspected.
    pub timeout: Duration,
    /// Consecutive missed beats before suspicion; the effective threshold
    /// is `max(timeout, heartbeat_every * misses)`.
    pub misses: u32,
}

impl Default for FailureConfig {
    fn default() -> Self {
        // Generous defaults: a false suspicion purges a live node's actors,
        // so the threshold leaves ample room for scheduling stalls on
        // loaded test machines. Tests that need fast detection override.
        FailureConfig {
            heartbeat_every: Duration::from_millis(50),
            timeout: Duration::from_millis(500),
            misses: 6,
        }
    }
}

impl FailureConfig {
    /// A fast configuration for failure-injection tests and benchmarks.
    pub fn fast() -> FailureConfig {
        FailureConfig {
            heartbeat_every: Duration::from_millis(5),
            timeout: Duration::from_millis(40),
            misses: 4,
        }
    }

    /// The silence threshold that triggers suspicion.
    pub fn threshold(&self) -> Duration {
        self.timeout.max(self.heartbeat_every * self.misses.max(1))
    }
}

/// One observer's view of one peer.
struct PeerState {
    last_beat: Instant,
    suspected: bool,
}

/// The cluster-wide detector state: `n` observers × `n` peers.
///
/// Logically each node runs its own detector; co-locating the state lets
/// the simulation drive all of them from one service thread while keeping
/// per-observer verdicts independent (node `i` suspecting node `j` says
/// nothing about node `k`'s view).
pub struct FailureDetector {
    cfg: FailureConfig,
    /// `peers[observer][peer]`; the diagonal is unused.
    peers: Vec<Vec<Mutex<PeerState>>>,
}

impl FailureDetector {
    /// A detector for `n` nodes with every observation clock starting now.
    pub fn new(n: usize, cfg: FailureConfig) -> FailureDetector {
        let now = Instant::now();
        let peers = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        Mutex::new(
                            LockClass::Failure,
                            PeerState {
                                last_beat: now,
                                suspected: false,
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        FailureDetector { cfg, peers }
    }

    /// The configured tuning.
    pub fn config(&self) -> &FailureConfig {
        &self.cfg
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.peers.len()
    }

    /// Records a heartbeat from `peer` observed by `observer`. Returns
    /// `true` when this beat *revokes* an existing suspicion (the peer is
    /// back — a restarted node).
    pub fn beat(&self, observer: usize, peer: usize) -> bool {
        let mut st = self.peers[observer][peer].lock();
        st.last_beat = Instant::now();
        std::mem::replace(&mut st.suspected, false)
    }

    /// Whether `observer` currently suspects `peer`.
    pub fn is_suspected(&self, observer: usize, peer: usize) -> bool {
        observer != peer && self.peers[observer][peer].lock().suspected
    }

    /// Sweeps `observer`'s peers, newly suspecting any that have been
    /// silent past the threshold. Returns the newly suspected peers only —
    /// an already-suspected peer is not reported again, so each suspicion
    /// edge fires exactly once until revoked by a beat.
    pub fn sweep(&self, observer: usize) -> Vec<usize> {
        let threshold = self.cfg.threshold();
        let now = Instant::now();
        let mut newly = Vec::new();
        for (peer, slot) in self.peers[observer].iter().enumerate() {
            if peer == observer {
                continue;
            }
            let mut st = slot.lock();
            if !st.suspected && now.duration_since(st.last_beat) >= threshold {
                st.suspected = true;
                newly.push(peer);
            }
        }
        newly
    }

    /// Grants every observer a fresh observation window on `peer` and
    /// clears their suspicions of it — used when `peer` restarts, so no
    /// observer times out the new incarnation on a beat the old one sent
    /// before it died. (That suspicion's `NodeDown` would be ordered after
    /// the restart's `NodeUp` and purge the new incarnation's actors.)
    pub fn reset_peer(&self, peer: usize) {
        let now = Instant::now();
        for row in &self.peers {
            let mut st = row[peer].lock();
            st.last_beat = now;
            st.suspected = false;
        }
    }

    /// Grants `observer` a fresh observation window on every peer and
    /// clears its suspicions — used when `observer` itself restarts, so it
    /// does not instantly re-suspect peers it has not heard from while
    /// dead.
    pub fn reset_observer(&self, observer: usize) {
        let now = Instant::now();
        for slot in &self.peers[observer] {
            let mut st = slot.lock();
            st.last_beat = now;
            st.suspected = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> FailureConfig {
        FailureConfig {
            heartbeat_every: Duration::from_millis(2),
            timeout: Duration::from_millis(20),
            misses: 2,
        }
    }

    #[test]
    fn threshold_is_max_of_timeout_and_miss_budget() {
        let c = FailureConfig {
            heartbeat_every: Duration::from_millis(10),
            timeout: Duration::from_millis(15),
            misses: 4,
        };
        assert_eq!(c.threshold(), Duration::from_millis(40));
        let c = FailureConfig { misses: 1, ..c };
        assert_eq!(c.threshold(), Duration::from_millis(15));
    }

    #[test]
    fn silent_peer_is_suspected_exactly_once() {
        let d = FailureDetector::new(2, fast());
        assert!(d.sweep(0).is_empty(), "no suspicion inside the threshold");
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert_eq!(d.sweep(0), vec![1]);
        assert!(d.is_suspected(0, 1));
        assert!(
            d.sweep(0).is_empty(),
            "an existing suspicion must not re-fire"
        );
    }

    #[test]
    fn beat_keeps_peer_alive_and_revokes_suspicion() {
        let d = FailureDetector::new(2, fast());
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        d.beat(0, 1);
        assert!(
            d.sweep(0).is_empty(),
            "a recent beat must prevent suspicion"
        );
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert_eq!(d.sweep(0), vec![1]);
        assert!(d.beat(0, 1), "beat must report the revocation");
        assert!(!d.is_suspected(0, 1));
        // And the peer can be suspected again after going silent again.
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert_eq!(d.sweep(0), vec![1]);
    }

    #[test]
    fn verdicts_are_per_observer() {
        let d = FailureDetector::new(3, fast());
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        d.beat(1, 2); // observer 1 heard from 2; observer 0 did not
        assert_eq!(d.sweep(0), vec![1, 2]);
        assert_eq!(d.sweep(1), vec![0]);
        assert!(d.is_suspected(0, 2));
        assert!(!d.is_suspected(1, 2));
    }

    #[test]
    fn reset_observer_grants_a_fresh_window() {
        let d = FailureDetector::new(2, fast());
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert_eq!(d.sweep(0), vec![1]);
        d.reset_observer(0);
        assert!(!d.is_suspected(0, 1));
        assert!(
            d.sweep(0).is_empty(),
            "reset must restart the silence clock"
        );
    }

    #[test]
    fn reset_peer_grants_every_observer_a_fresh_window() {
        // A threshold well above a descheduled test thread's stall: the
        // sweeps below run within it of `reset_peer`.
        let d = FailureDetector::new(
            3,
            FailureConfig {
                timeout: Duration::from_millis(100),
                ..fast()
            },
        );
        // Every beat from peer 2 is stale, and observer 1 already
        // suspects it.
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert_eq!(d.sweep(1), vec![0, 2]);
        d.reset_peer(2);
        assert!(!d.is_suspected(1, 2));
        assert_eq!(d.sweep(0), vec![1], "observer 0 must not suspect peer 2");
        assert!(d.sweep(1).is_empty(), "observer 1 must not suspect peer 2");
        assert_eq!(d.sweep(2), vec![0, 1], "peer 2's own row is not reset");
    }

    #[test]
    fn a_node_never_suspects_itself() {
        let d = FailureDetector::new(1, fast());
        std::thread::sleep(d.config().threshold() + Duration::from_millis(5));
        assert!(d.sweep(0).is_empty());
        assert!(!d.is_suspected(0, 0));
    }
}
