//! The cluster: nodes, replicated state, data plane, failure handling, and
//! the coordinator hook.
//!
//! Wiring per the paper's Figure 3: every node runs a full
//! [`ActorSystem`]; all state-changing primitives are rerouted (via the
//! runtime's [`CoordinatorHook`]) onto the ordered coordinator bus and
//! applied at every node in the same global order; pattern resolution
//! happens against the local replica; and resolved messages to non-local
//! actors are forwarded point-to-point over reliable (but unordered) data
//! pipes.
//!
//! The window between submitting a visibility change and its application
//! is absorbed by the §5.6 suspension semantics: a send racing its own
//! `make_visible` simply suspends on the local replica and wakes when the
//! event applies there.
//!
//! # Node failures
//!
//! On top of the link faults masked by [`crate::reliable`], the cluster
//! injects *node* faults: [`Cluster::kill_node`] drops a node mid-flight
//! and [`Cluster::restart_node`] boots a fresh incarnation. A heartbeat
//! [`FailureDetector`] notices the silence; each observer submits a
//! `NodeDown` event so every replica purges the dead node's actors from
//! its visibility tables in the same global order. Messages that were
//! bound for the dead node — journalled in-flight packets as well as
//! messages its mailboxes had accepted but not yet processed — carry the
//! [`Route`] that resolved them, and are re-resolved against a surviving
//! replica: they re-match a surviving replica actor, or suspend (§5.6)
//! until one is made visible. A restarted node re-registers through the
//! directory (`NodeUp`), replays the retained bus history to reconverge
//! its replica, and serves traffic again.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use actorspace_atoms::Path;
use actorspace_capability::{Capability, Guard};
use actorspace_core::{
    ActorId, DeliveryKind, Disposition, ManagerPolicy, MemberId, Pattern, Result, Route, SpaceId,
};
use actorspace_lockcheck::{LockClass, Mutex, RwLock};
use actorspace_obs::{
    names, Counter, DeadLetter, DeadLetterReason, Histogram, Obs, ObsConfig, Stage, TraceId,
};
use actorspace_runtime::{
    ActorSystem, Behavior, BoxBehavior, Config, CoordinatorHook, Message, Transport, Value,
};

use crate::bus::{Applier, BusEvent, BusOp, EventLog, OrderedBroadcast, SeqEvent};
use crate::directory::{id_base, id_range, node_of_actor, node_of_raw, NodeId};
use crate::failure::{FailureConfig, FailureDetector};
use crate::link::{Link, LinkConfig};
use crate::obs_stream::ObsStream;
use crate::reliable::ReliablePipe;
use crate::sequencer::Sequencer;
use crate::tokenbus::TokenBus;

/// Which ordered-broadcast protocol runs the coordinator bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingProtocol {
    /// Centralized broadcaster/sequencer \[9].
    Sequencer,
    /// Rotating token, Amoeba style \[23].
    TokenBus,
}

/// Cluster construction parameters.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Worker threads per node.
    pub workers_per_node: usize,
    /// Fault/delay model for the data plane (actor messages).
    pub data_link: LinkConfig,
    /// Delay model for the coordinator bus (loss-free by assumption).
    pub bus_link: LinkConfig,
    /// Ordering protocol for the bus.
    pub protocol: OrderingProtocol,
    /// Token hop time (token-bus protocol only).
    pub token_hop: Duration,
    /// Registry policy template for every node.
    pub policy: ManagerPolicy,
    /// Data-plane retransmission period.
    pub retx_every: Duration,
    /// Failure-detector tuning (heartbeat period, timeout, miss budget).
    pub failure: FailureConfig,
    /// The observer every node reports into. `None` creates a default
    /// ([`ObsConfig::default`]) private to this cluster. One observer is
    /// always shared by all nodes (and all their incarnations), so
    /// counters are cumulative across restarts and trace timestamps share
    /// an epoch.
    pub obs: Option<Arc<Obs>>,
    /// When set, every node periodically publishes delta-encoded metric
    /// snapshots on a dedicated observability stream at this interval
    /// (see [`ObsStream`]); [`Cluster::observe`] then yields live
    /// aggregate views. `None` (the default) disables streaming.
    pub obs_publish: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            workers_per_node: 2,
            data_link: LinkConfig::ideal(),
            bus_link: LinkConfig::ideal(),
            protocol: OrderingProtocol::Sequencer,
            token_hop: Duration::from_micros(200),
            policy: ManagerPolicy::default(),
            retx_every: Duration::from_millis(20),
            failure: FailureConfig::default(),
            obs: None,
            obs_publish: None,
        }
    }
}

/// Per-node counters.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Bus events applied on this node (current incarnation).
    pub applied: u64,
    /// Bus events whose application failed (e.g. capability refused;
    /// current incarnation).
    pub apply_errors: u64,
    /// Data messages forwarded to other nodes (cumulative across
    /// incarnations).
    pub forwarded: u64,
    /// Inbound wire packets that failed to decode (always 0 between
    /// well-behaved nodes; counted defensively).
    pub decode_failures: u64,
    /// Messages dropped with no recipient on this node (cumulative across
    /// incarnations).
    pub dead_letters: u64,
    /// The most recent dead letters recorded against this node, oldest
    /// first (bounded by [`ObsConfig::dead_letter_capacity`]).
    pub recent_dead_letters: Vec<DeadLetter>,
    /// Whether the node is currently up.
    pub up: bool,
    /// The node's runtime counters (current incarnation).
    pub system: actorspace_runtime::Stats,
}

/// The mutable identity of one node: its current incarnation.
///
/// `kill_node` clears `up` and shuts the system down; `restart_node`
/// installs a fresh system/applier/error-counter triple. The applier and
/// error counter are per-incarnation on purpose: a fresh incarnation
/// replays the bus history from sequence 0, and its error count must match
/// the other replicas' (they all applied the same events).
struct NodeSlot {
    up: AtomicBool,
    system: RwLock<Arc<ActorSystem>>,
    applier: RwLock<Arc<Applier>>,
    apply_errors: RwLock<Arc<AtomicU64>>,
}

impl NodeSlot {
    fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    fn system(&self) -> Arc<ActorSystem> {
        self.system.read().clone()
    }
}

struct NodeInner {
    id: NodeId,
    slot: Arc<NodeSlot>,
    obs: Arc<Obs>,
    forwarded: Arc<Counter>,
    decode_failures: Arc<Counter>,
}

/// A handle to one cluster node. All ActorSpace primitives invoked through
/// it (or through behaviors running on it) are globally ordered via the
/// bus. After a restart the handle transparently addresses the new
/// incarnation.
#[derive(Clone)]
pub struct NodeHandle {
    inner: Arc<NodeInner>,
}

impl NodeHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Whether the node is currently up.
    pub fn is_up(&self) -> bool {
        self.inner.slot.is_up()
    }

    /// The underlying actor system (for `inbox`, `await_idle`, stats, …).
    pub fn system(&self) -> Arc<ActorSystem> {
        self.inner.slot.system()
    }

    /// Spawns an actor on this node. The creation event is replicated; the
    /// actor starts once its creation is globally ordered.
    pub fn spawn(&self, behavior: impl Behavior) -> ActorId {
        self.system().spawn(behavior).leak() // cluster actors are kept alive until removed
    }

    /// Creates an actorSpace; the id is immediately usable (operations
    /// referencing it are ordered after its creation event).
    pub fn create_space(&self, cap: Option<&Capability>) -> SpaceId {
        self.system()
            .create_space(cap)
            .expect("create_space is infallible")
    }

    /// `make_visible` via the bus.
    pub fn make_visible(
        &self,
        member: impl Into<MemberId>,
        attr: &Path,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.system().make_visible(member, attr, space, cap)
    }

    /// `make_invisible` via the bus.
    pub fn make_invisible(
        &self,
        member: impl Into<MemberId>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.system().make_invisible(member, space, cap)
    }

    /// `change_attributes` via the bus.
    pub fn change_attributes(
        &self,
        member: impl Into<MemberId>,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.system().change_attributes(member, attrs, space, cap)
    }

    /// Pattern send resolved against this node's replica (§7.3: resolution
    /// is local; forwarding is automatic).
    pub fn send_pattern(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        body: Value,
    ) -> Result<Disposition> {
        self.system().send_pattern(pattern, space, body, None)
    }

    /// Pattern broadcast resolved against this node's replica.
    pub fn broadcast(&self, pattern: &Pattern, space: SpaceId, body: Value) -> Result<Disposition> {
        self.system().broadcast(pattern, space, body, None)
    }

    /// Point-to-point send; forwards across the data plane when the target
    /// is remote.
    pub fn send_to(&self, to: ActorId, body: Value) -> bool {
        self.system().send_to(to, body)
    }

    /// Counters.
    pub fn stats(&self) -> NodeStats {
        let obs = &self.inner.obs;
        let node = self.inner.id.0;
        NodeStats {
            applied: self.inner.slot.applier.read().applied(),
            apply_errors: self.inner.slot.apply_errors.read().load(Ordering::Relaxed),
            forwarded: self.inner.forwarded.get(),
            decode_failures: self.inner.decode_failures.get(),
            dead_letters: obs.metrics.counter(names::RT_DEAD_LETTERS, node).get(),
            recent_dead_letters: obs.dead_letters.recent_for_node(node),
            up: self.inner.slot.is_up(),
            system: self.inner.slot.system().stats(),
        }
    }
}

/// What crosses a data link: the destination, the *encoded* message — §5's
/// run-time-selected data representation — and the pattern resolution that
/// chose the destination. The route rides beside the bytes so an
/// undelivered packet can be re-resolved against a surviving replica if
/// the destination node dies. `Arc` keeps retransmission clones cheap.
#[derive(Clone)]
struct WirePacket {
    to: ActorId,
    bytes: Arc<Vec<u8>>,
    route: Option<Route>,
}

type PipeGrid = Vec<Vec<Option<Arc<ReliablePipe<WirePacket>>>>>;

/// One message awaiting re-resolution after its destination node died:
/// the original pattern resolution, the node it was dislodged from, and
/// the instant it bounced — the latter two feed the `failed_over{from,to}`
/// trace stage and the `net.failover_reroute_ns` latency histogram.
struct Bounce {
    route: Route,
    msg: Message,
    from: NodeId,
    at_nanos: u64,
}

/// Messages awaiting re-resolution after their destination node died.
/// Drained asynchronously by the service thread — never synchronously at
/// the point of failure, which may sit inside a registry lock.
type BounceQueue = Arc<Mutex<VecDeque<Bounce>>>;

/// A simulated multi-node ActorSpace deployment (Figure 3) with node-crash
/// fault injection.
pub struct Cluster {
    config: ClusterConfig,
    obs: Arc<Obs>,
    nodes: Vec<NodeHandle>,
    slots: Vec<Arc<NodeSlot>>,
    bus: Arc<dyn OrderedBroadcast>,
    log: Arc<EventLog>,
    detector: Arc<FailureDetector>,
    data_pipes: Arc<PipeGrid>,
    requeue: BounceQueue,
    obs_stream: Option<Arc<ObsStream>>,
    service_stop: Arc<AtomicBool>,
    service: Mutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Boots `config.nodes` nodes and wires the bus, data plane, and
    /// failure detector.
    pub fn new(config: ClusterConfig) -> Cluster {
        let n = config.nodes.max(1);
        let obs = config
            .obs
            .clone()
            .unwrap_or_else(|| Obs::shared(ObsConfig::default()));

        // 1. Node systems with disjoint id ranges, plus their appliers and
        // the slots that hold each node's current incarnation. Every node
        // reports into the one shared observer under its own label.
        let systems: Vec<Arc<ActorSystem>> = (0..n)
            .map(|i| {
                Arc::new(ActorSystem::new(Config {
                    workers: config.workers_per_node,
                    policy: config.policy.clone(),
                    id_base: id_base(NodeId(i as u16)),
                    obs: Some(obs.clone()),
                    node: i as u16,
                    ..Config::default()
                }))
            })
            .collect();
        let slots: Vec<Arc<NodeSlot>> = (0..n)
            .map(|i| {
                let errors = Arc::new(AtomicU64::new(0));
                let applier = make_applier(systems[i].clone(), NodeId(i as u16), errors.clone());
                Arc::new(NodeSlot {
                    up: AtomicBool::new(true),
                    system: RwLock::new(LockClass::Cluster, systems[i].clone()),
                    applier: RwLock::new(LockClass::Cluster, applier),
                    apply_errors: RwLock::new(LockClass::Cluster, errors),
                })
            })
            .collect();

        // 2. Data plane: reliable pipes for every ordered pair. Messages
        // cross the wire encoded (§5 data representation); decode failures
        // are impossible for packets our own nodes produced, but are
        // counted defensively as dead letters. A down destination rejects
        // packets, which therefore stay journalled on the sender for
        // failover draining. The acceptance check and the delivery share
        // the slot's system lock so `kill_node` (which drains mailboxes
        // under the write lock) cannot race a packet into a mailbox it has
        // already harvested.
        let decode_failures: Vec<Arc<Counter>> = (0..n)
            .map(|i| obs.metrics.counter(names::NET_DECODE_FAILURES, i as u16))
            .collect();
        let mut data_pipes: PipeGrid = (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (src, row) in data_pipes.iter_mut().enumerate() {
            for (dst, pipe_slot) in row.iter_mut().enumerate() {
                if src == dst {
                    continue;
                }
                let slot = slots[dst].clone();
                let fails = decode_failures[dst].clone();
                let cfg = LinkConfig {
                    seed: config
                        .data_link
                        .seed
                        .wrapping_add((src * n + dst) as u64 * 7919),
                    ..config.data_link.clone()
                };
                *pipe_slot = Some(Arc::new(ReliablePipe::new(
                    cfg,
                    config.retx_every,
                    move |pkt: WirePacket| {
                        let system = slot.system.read();
                        if !slot.is_up() {
                            return false; // stays journalled for failover
                        }
                        match actorspace_runtime::codec::decode_message(&pkt.bytes) {
                            Ok(msg) => {
                                system.deliver_remote_routed(pkt.to, msg, pkt.route.clone());
                            }
                            Err(_) => {
                                fails.inc();
                            }
                        }
                        true // consumed either way; retransmitting garbage cannot help
                    },
                )));
            }
        }
        let data_pipes = Arc::new(data_pipes);

        // 3. Bus downlinks. Every downlink records into the shared event
        // log (idempotent per sequence number) — the log is the retained
        // history a restarted node replays to reconverge its replica.
        let log = Arc::new(EventLog::new());
        let downlinks: Vec<Arc<Link<SeqEvent>>> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let slot = slot.clone();
                let log = log.clone();
                let cfg = LinkConfig {
                    seed: config.bus_link.seed.wrapping_add(i as u64 * 104729),
                    drop_prob: 0.0,
                    dup_prob: 0.0,
                    ..config.bus_link.clone()
                };
                Arc::new(Link::new(cfg, move |e: SeqEvent| {
                    log.record(&e);
                    if slot.is_up() {
                        let applier = slot.applier.read().clone();
                        applier.on_event(e);
                    }
                }))
            })
            .collect();

        // 4. The ordering protocol.
        let bus: Arc<dyn OrderedBroadcast> = match config.protocol {
            OrderingProtocol::Sequencer => {
                Arc::new(Sequencer::new(config.bus_link.clone(), downlinks))
            }
            OrderingProtocol::TokenBus => Arc::new(TokenBus::new(n, config.token_hop, downlinks)),
        };

        // 5. Failure detector + heartbeat inboxes. Heartbeats ride
        // loss-free links like the bus; the miss budget absorbs jitter.
        let detector = Arc::new(FailureDetector::new(n, config.failure.clone()));
        let hb_links: Vec<Arc<Link<NodeId>>> = (0..n)
            .map(|i| {
                let det = detector.clone();
                let cfg = LinkConfig {
                    seed: config.bus_link.seed.wrapping_add(777 + i as u64 * 31337),
                    drop_prob: 0.0,
                    dup_prob: 0.0,
                    ..config.bus_link.clone()
                };
                Arc::new(Link::new(cfg, move |from: NodeId| {
                    det.beat(i, from.0 as usize);
                }))
            })
            .collect();

        // 6. Hooks (bus rerouting), uplinks (data forwarding + failover
        // bouncing), the observability stream, and node handles.
        let obs_stream: Option<Arc<ObsStream>> = config.obs_publish.map(|every| {
            let cfg = LinkConfig {
                seed: config.bus_link.seed.wrapping_add(424_243),
                ..config.bus_link.clone()
            };
            Arc::new(ObsStream::new(n, every, cfg))
        });
        let requeue: BounceQueue =
            Arc::new(Mutex::new(LockClass::Other("net.bounce"), VecDeque::new()));
        let forwarded: Vec<Arc<Counter>> = (0..n)
            .map(|i| obs.metrics.counter(names::NET_FORWARDED, i as u16))
            .collect();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let me = NodeId(i as u16);
            install_plumbing(
                &systems[i],
                me,
                &obs,
                &bus,
                &data_pipes[i],
                &forwarded[i],
                &detector,
                &requeue,
                obs_stream.as_ref(),
            );
            nodes.push(NodeHandle {
                inner: Arc::new(NodeInner {
                    id: me,
                    slot: slots[i].clone(),
                    obs: obs.clone(),
                    forwarded: forwarded[i].clone(),
                    decode_failures: decode_failures[i].clone(),
                }),
            });
        }

        // 7. The service thread: heartbeats, suspicion sweeps, journal
        // draining, and bounce-queue re-resolution.
        let service_stop = Arc::new(AtomicBool::new(false));
        let service = spawn_service(ServiceCtx {
            slots: slots.clone(),
            hb_links,
            detector: detector.clone(),
            bus: bus.clone(),
            pipes: data_pipes.clone(),
            requeue: requeue.clone(),
            obs: obs.clone(),
            heartbeats: (0..n)
                .map(|i| obs.metrics.counter(names::NET_HEARTBEATS, i as u16))
                .collect(),
            retransmits: (0..n)
                .map(|i| obs.metrics.counter(names::NET_RETRANSMITS, i as u16))
                .collect(),
            reroute_ns: (0..n)
                .map(|i| {
                    obs.metrics
                        .histogram(names::NET_FAILOVER_REROUTE_NS, i as u16)
                })
                .collect(),
            stream: obs_stream.clone(),
            stop: service_stop.clone(),
            tick: (config.failure.heartbeat_every / 2).max(Duration::from_millis(1)),
        });

        Cluster {
            config,
            obs,
            nodes,
            slots,
            bus,
            log,
            detector,
            data_pipes,
            requeue,
            obs_stream,
            service_stop,
            service: Mutex::new(LockClass::Other("net.service"), Some(service)),
        }
    }

    /// The node handles.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, i: usize) -> &NodeHandle {
        &self.nodes[i]
    }

    /// The bus (for issued/submitted counters).
    pub fn bus(&self) -> &dyn OrderedBroadcast {
        &*self.bus
    }

    /// The failure detector (for tests and metrics).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// The cluster-wide observer: one metrics registry, message tracer,
    /// and dead-letter ring shared by every node and every incarnation.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Subscribes to the observability stream and returns a live
    /// [`ClusterView`] that converges on every node's published metrics
    /// and tracks per-peer staleness through the failure detector.
    ///
    /// # Panics
    ///
    /// Panics unless [`ClusterConfig::obs_publish`] was set.
    pub fn observe(&self) -> Arc<actorspace_obs::ClusterView> {
        self.obs_stream
            .as_ref()
            .expect("ClusterConfig::obs_publish must be set to observe a cluster")
            .subscribe()
    }

    /// Crashes node `i` mid-flight: its workers stop, inbound packets are
    /// rejected (and stay journalled on their senders), and its heartbeats
    /// cease, so peers suspect it after the detector threshold and purge
    /// its actors everywhere. Messages its mailboxes had accepted but not
    /// yet processed are bounced for re-resolution — the simulation's
    /// stand-in for the message-logging recovery a real deployment would
    /// use. Returns false if the node was already down.
    pub fn kill_node(&self, i: usize) -> bool {
        let slot = &self.slots[i];
        let harvested = {
            let system = slot.system.write();
            if !slot.up.swap(false, Ordering::AcqRel) {
                return false;
            }
            system.shutdown();
            system.drain_unprocessed()
        };
        let at_nanos = self.obs.now_nanos();
        let from = NodeId(i as u16);
        let mut q = self.requeue.lock();
        for (route, msg) in harvested {
            match route {
                Some(route) if route.kind == DeliveryKind::Send => q.push_back(Bounce {
                    route,
                    msg,
                    from,
                    at_nanos,
                }),
                // Broadcast copies already reached the other recipients;
                // unrouted (point-to-point) messages die with the node.
                route => {
                    let trace = route.map(|r| r.trace).unwrap_or(TraceId::NONE);
                    self.slots[i].system().note_dead_letter_traced(
                        DeadLetterReason::NodeCrash,
                        None,
                        trace,
                    );
                }
            }
        }
        true
    }

    /// Boots a fresh incarnation of node `i`: a new system re-registers
    /// through the directory (`NodeUp`), replays the retained bus history
    /// to reconverge its replica, and serves traffic again. Its previous
    /// incarnation's actors stay dead (their purge is part of the replayed
    /// history); new actors spawned on the node become visible cluster-wide
    /// as usual. Returns false if the node is already up.
    pub fn restart_node(&self, i: usize) -> bool {
        let slot = &self.slots[i];
        if slot.is_up() {
            return false;
        }
        let me = NodeId(i as u16);
        let fresh = Arc::new(ActorSystem::new(Config {
            workers: self.config.workers_per_node,
            policy: self.config.policy.clone(),
            id_base: id_base(me),
            obs: Some(self.obs.clone()),
            node: me.0,
            ..Config::default()
        }));
        let errors = Arc::new(AtomicU64::new(0));
        let applier = make_applier(fresh.clone(), me, errors.clone());
        install_plumbing(
            &fresh,
            me,
            &self.obs,
            &self.bus,
            &self.data_pipes[i],
            &self.nodes[i].inner.forwarded,
            &self.detector,
            &self.requeue,
            self.obs_stream.as_ref(),
        );
        self.obs.metrics.counter(names::NET_RESTARTS, me.0).inc();
        {
            let mut system = slot.system.write();
            *system = fresh;
            *slot.apply_errors.write() = errors;
            *slot.applier.write() = applier.clone();
            self.detector.reset_observer(i);
            self.detector.reset_peer(i);
            slot.up.store(true, Ordering::Release);
        }
        // Recovery: replay the retained history into the fresh replica.
        // Live events racing the replay are deduplicated by the applier's
        // sequence watermark.
        for e in self.log.snapshot() {
            applier.on_event(e);
        }
        self.bus.submit(BusEvent {
            origin: me,
            op: BusOp::NodeUp { node: me },
        });
        true
    }

    /// Waits until every submitted bus event has been applied on every
    /// *live* node. Returns false on timeout.
    pub fn await_coherence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let submitted = self.bus.submitted();
            let coherent = self.bus.issued() == submitted
                && self
                    .slots
                    .iter()
                    .filter(|s| s.is_up())
                    .all(|s| s.applier.read().applied() == submitted);
            if coherent {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits for full quiescence: coherence, idle live nodes, an empty
    /// data plane, and an empty bounce queue — checked twice in a row to
    /// close in-flight windows. (Journals to a crashed destination drain
    /// to zero once the detector fires.)
    pub fn await_quiescence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable = 0;
        while stable < 2 {
            let quiet = self.await_coherence(Duration::from_millis(50))
                && self
                    .slots
                    .iter()
                    .filter(|s| s.is_up())
                    .all(|s| s.system().await_idle(Duration::from_millis(50)))
                && self
                    .data_pipes
                    .iter()
                    .flatten()
                    .flatten()
                    .all(|p| p.unacked() == 0)
                && self.requeue.lock().is_empty();
            if quiet {
                stable += 1;
            } else {
                stable = 0;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stops every thread the cluster spawned and joins it: the service
    /// thread (with its heartbeat links), every node's workers and
    /// periodic publishers, the bus (sequencer or token, with its links),
    /// the data pipes (links and retransmit timers), and the obs stream's
    /// subscriber links. Idempotent; runs on drop.
    pub fn shutdown(&self) {
        self.service_stop.store(true, Ordering::Release);
        let service = self.service.lock().take();
        if let Some(h) = service {
            let _ = h.join();
        }
        for slot in &self.slots {
            slot.system().shutdown();
        }
        self.bus.shutdown();
        for pipe in self.data_pipes.iter().flatten().flatten() {
            pipe.close();
        }
        if let Some(stream) = &self.obs_stream {
            stream.close();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the per-incarnation applier for one node.
fn make_applier(system: Arc<ActorSystem>, me: NodeId, errors: Arc<AtomicU64>) -> Arc<Applier> {
    Arc::new(Applier::new(move |e: BusEvent| {
        apply_op(&system, me, e.op, &errors);
    }))
}

/// Wires one system (initial boot or restart) into the cluster: the
/// coordinator hook rerouting primitives onto the bus, and the uplink
/// forwarding resolved messages across the data plane.
#[allow(clippy::too_many_arguments)]
fn install_plumbing(
    system: &Arc<ActorSystem>,
    me: NodeId,
    obs: &Arc<Obs>,
    bus: &Arc<dyn OrderedBroadcast>,
    pipes: &[Option<Arc<ReliablePipe<WirePacket>>>],
    forwarded: &Arc<Counter>,
    detector: &Arc<FailureDetector>,
    requeue: &BounceQueue,
    stream: Option<&Arc<ObsStream>>,
) {
    system.set_coordinator_hook(Arc::new(ClusterHook {
        node: me,
        system: Arc::downgrade(system),
        bus: bus.clone(),
    }));
    system.set_uplink(Arc::new(NodeUplink {
        me,
        obs: obs.clone(),
        pipes: pipes.to_vec(),
        forwarded: forwarded.clone(),
        detector: detector.clone(),
        requeue: requeue.clone(),
    }));
    // The publisher is per-incarnation (it dies with the system's worker
    // pool on kill_node and is respawned here on restart), but its delta
    // state lives in the stream, so the frame sequence stays continuous.
    if let Some(stream) = stream {
        let stream = stream.clone();
        let obs = obs.clone();
        system.spawn_periodic("obs-pub", stream.every(), move || {
            stream.publish(me.0, &obs);
        });
    }
}

/// Everything the service thread needs.
struct ServiceCtx {
    slots: Vec<Arc<NodeSlot>>,
    hb_links: Vec<Arc<Link<NodeId>>>,
    detector: Arc<FailureDetector>,
    bus: Arc<dyn OrderedBroadcast>,
    pipes: Arc<PipeGrid>,
    requeue: BounceQueue,
    obs: Arc<Obs>,
    /// `net.heartbeats` / `net.retransmits` handles, indexed by node.
    heartbeats: Vec<Arc<Counter>>,
    retransmits: Vec<Arc<Counter>>,
    /// Bounce-to-resend latency, recorded on the surviving node's label.
    reroute_ns: Vec<Arc<Histogram>>,
    stream: Option<Arc<ObsStream>>,
    stop: Arc<AtomicBool>,
    tick: Duration,
}

/// The cluster service thread. Each tick it (1) sends heartbeats on behalf
/// of every live node, (2) sweeps every live observer's detector —
/// submitting `NodeDown` for fresh suspicions — and drains the journals of
/// pipes toward suspected nodes into the bounce queue, and (3) re-resolves
/// bounced messages on a surviving replica. Draining repeats every tick
/// (not just at suspicion time) because a packet can slip into a journal
/// between a sweep and the uplink observing the suspicion.
fn spawn_service(ctx: ServiceCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("actorspace-cluster-svc".into())
        .spawn(move || {
            let n = ctx.slots.len();
            let mut seen_retx = vec![vec![0u64; n]; n];
            while !ctx.stop.load(Ordering::Acquire) {
                // (1) Heartbeats: live nodes beat to every peer.
                for (i, slot) in ctx.slots.iter().enumerate() {
                    if !slot.is_up() {
                        continue;
                    }
                    for (j, hb) in ctx.hb_links.iter().enumerate() {
                        if i != j {
                            hb.send(NodeId(i as u16));
                            ctx.heartbeats[i].inc();
                        }
                    }
                }

                // Fold the pipes' monotone retransmission totals into the
                // sending node's `net.retransmits` counter.
                for (i, row) in ctx.pipes.iter().enumerate() {
                    for (j, pipe) in row.iter().enumerate() {
                        if let Some(pipe) = pipe {
                            let total = pipe.retransmits();
                            let seen = &mut seen_retx[i][j];
                            if total > *seen {
                                ctx.retransmits[i].add(total - *seen);
                                *seen = total;
                            }
                        }
                    }
                }

                // (2) Sweeps and journal drains.
                for (i, slot) in ctx.slots.iter().enumerate() {
                    if !slot.is_up() {
                        continue;
                    }
                    let system = slot.system();
                    for j in ctx.detector.sweep(i) {
                        system.note_suspicion();
                        ctx.bus.submit(BusEvent {
                            origin: NodeId(i as u16),
                            op: BusOp::NodeDown {
                                node: NodeId(j as u16),
                            },
                        });
                        if let Some(stream) = &ctx.stream {
                            stream.mark_down(j as u16);
                        }
                    }
                    for j in 0..n {
                        if j == i || !ctx.detector.is_suspected(i, j) {
                            continue;
                        }
                        let Some(Some(pipe)) = ctx.pipes[i].get(j) else {
                            continue;
                        };
                        for pkt in pipe.drain_undelivered() {
                            let decoded = actorspace_runtime::codec::decode_message(&pkt.bytes);
                            match (pkt.route, decoded) {
                                (Some(route), Ok(msg)) if route.kind == DeliveryKind::Send => {
                                    ctx.requeue.lock().push_back(Bounce {
                                        route,
                                        msg,
                                        from: NodeId(j as u16),
                                        at_nanos: ctx.obs.now_nanos(),
                                    });
                                }
                                // Broadcast copies already fanned out to the
                                // survivors; unrouted messages have no
                                // pattern to re-resolve.
                                (route, _) => {
                                    let trace = route.map(|r| r.trace).unwrap_or(TraceId::NONE);
                                    system.note_dead_letter_traced(
                                        DeadLetterReason::NodeCrash,
                                        Some(pkt.to),
                                        trace,
                                    );
                                }
                            }
                        }
                    }
                }

                // (3) Re-resolve bounced messages on a surviving replica.
                // The queue lock is released before re-resolution: resends
                // take the registry lock and may bounce again (e.g. while a
                // stale visibility entry is still being purged), which
                // pushes back onto this queue.
                let batch: Vec<Bounce> = ctx.requeue.lock().drain(..).collect();
                if !batch.is_empty() {
                    match ctx.slots.iter().position(|s| s.is_up()) {
                        Some(si) => {
                            let system = ctx.slots[si].system();
                            let to = si as u16;
                            for b in batch {
                                system.note_failover();
                                ctx.obs.tracer.record(
                                    b.route.trace,
                                    to,
                                    Stage::FailedOver { from: b.from.0, to },
                                );
                                ctx.reroute_ns[si]
                                    .record(ctx.obs.now_nanos().saturating_sub(b.at_nanos));
                                let _ = system.resend_routed(&b.route, b.msg);
                            }
                        }
                        None => ctx.requeue.lock().extend(batch),
                    }
                }

                std::thread::sleep(ctx.tick);
            }
        })
        .expect("spawn cluster service thread")
}

/// Applies one replicated operation to a node's local state.
fn apply_op(system: &ActorSystem, me: NodeId, op: BusOp, errors: &AtomicU64) {
    let result: Result<()> = match op {
        BusOp::CreateActor { id, host, guard } => {
            let inserted = system.with_registry(|reg, _| {
                // A restarted node replays its previous incarnation's
                // creations; the floor keeps fresh allocations from reusing
                // those addresses.
                if node_of_actor(id) == Some(me) {
                    reg.ensure_id_floor(id.0);
                }
                reg.insert_actor_record(id, host, guard)
            });
            // Activation: the owning node starts the actor only once its
            // creation is globally ordered — and only if it still hosts the
            // behavior cell (a replayed creation has no cell; the actor
            // died with the previous incarnation).
            if inserted && node_of_actor(id) == Some(me) && system.has_actor(id) {
                system.send_start(id);
            }
            Ok(())
        }
        BusOp::CreateSpace { id, guard } => {
            system.with_registry(|reg, _| {
                if node_of_raw(id.0) == Some(me) {
                    reg.ensure_id_floor(id.0);
                }
                reg.insert_space_record(id, guard)
            });
            Ok(())
        }
        BusOp::MakeVisible {
            member,
            attrs,
            space,
            cap,
        } => system
            .with_registry(|reg, out| reg.make_visible(member, attrs, space, cap.as_ref(), out)),
        BusOp::MakeInvisible { member, space, cap } => {
            system.with_registry(|reg, _| reg.make_invisible(member, space, cap.as_ref()))
        }
        BusOp::ChangeAttributes {
            member,
            attrs,
            space,
            cap,
        } => system.with_registry(|reg, out| {
            reg.change_attributes(member, attrs, space, cap.as_ref(), out)
        }),
        BusOp::DestroySpace { space, cap } => {
            system.with_registry(|reg, _| reg.destroy_space(space, cap.as_ref()))
        }
        BusOp::RemoveActor { id } => system.with_registry(|reg, _| {
            reg.remove_actor(id);
            Ok(())
        }),
        BusOp::NodeDown { node } => {
            // Purge the dead node's actors from every visibility table so
            // pattern resolution falls back to surviving matches. Applied
            // on every replica — including, during replay, the restarted
            // node purging its own previous incarnation. Idempotent, so
            // concurrent suspicions by several observers are harmless.
            let range = id_range(node);
            system.with_registry(|reg, _| {
                reg.purge_actor_range(range.start, range.end);
            });
            Ok(())
        }
        BusOp::NodeUp { node } => {
            // The recovery announcement doubles as the obituary for the
            // node's previous incarnation: if the node died and returned
            // faster than any detector threshold, no NodeDown was ever
            // submitted, yet its old actors are just as dead. Everything
            // the *new* incarnation creates is ordered after this event,
            // so the purge only ever removes pre-crash records.
            let range = id_range(node);
            system.with_registry(|reg, _| {
                reg.purge_actor_range(range.start, range.end);
            });
            system.note_reregistration();
            Ok(())
        }
    };
    if result.is_err() {
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-node coordinator hook: allocate locally, replicate via the bus.
struct ClusterHook {
    node: NodeId,
    /// Weak: the system owns this hook.
    system: Weak<ActorSystem>,
    bus: Arc<dyn OrderedBroadcast>,
}

impl ClusterHook {
    fn system(&self) -> Arc<ActorSystem> {
        self.system
            .upgrade()
            .expect("a hook is only called by its live system")
    }

    fn submit(&self, op: BusOp) {
        self.bus.submit(BusEvent {
            origin: self.node,
            op,
        });
    }
}

impl CoordinatorHook for ClusterHook {
    fn make_visible(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()> {
        self.submit(BusOp::MakeVisible {
            member,
            attrs,
            space,
            cap,
        });
        Ok(())
    }

    fn make_invisible(
        &self,
        member: MemberId,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()> {
        self.submit(BusOp::MakeInvisible { member, space, cap });
        Ok(())
    }

    fn change_attributes(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()> {
        self.submit(BusOp::ChangeAttributes {
            member,
            attrs,
            space,
            cap,
        });
        Ok(())
    }

    fn create_space(&self, cap: Option<Capability>) -> SpaceId {
        let id = self
            .system()
            .with_registry(|reg, _| reg.allocate_space_id());
        self.submit(BusOp::CreateSpace {
            id,
            guard: Guard::from_creation(cap.as_ref()),
        });
        id
    }

    fn destroy_space(&self, space: SpaceId, cap: Option<Capability>) -> Result<()> {
        self.submit(BusOp::DestroySpace { space, cap });
        Ok(())
    }

    fn create_actor(
        &self,
        host: SpaceId,
        cap: Option<Capability>,
        behavior: BoxBehavior,
    ) -> Result<ActorId> {
        let system = self.system();
        let id = system.with_registry(|reg, _| reg.allocate_actor_id());
        system.install_cell_boxed(id, behavior);
        self.submit(BusOp::CreateActor {
            id,
            host,
            guard: Guard::from_creation(cap.as_ref()),
        });
        Ok(id)
    }
}

/// The data-plane uplink: encodes and forwards messages for remote actors
/// over the reliable pipe to the owning node. Messages bound for a
/// suspected node — or for a local actor whose cell is gone (purged with a
/// dead incarnation) — are *bounced* to the cluster's re-resolution queue
/// instead, when their route permits it. The cluster service thread
/// re-resolves bounced messages on a surviving node, from the same queue
/// the journal drains of suspected nodes feed. The uplink runs after
/// registry resolution has dropped its locks, so it could re-resolve
/// inline; it bounces so that both sources share one failover path.
struct NodeUplink {
    me: NodeId,
    obs: Arc<Obs>,
    pipes: Vec<Option<Arc<ReliablePipe<WirePacket>>>>,
    forwarded: Arc<Counter>,
    detector: Arc<FailureDetector>,
    requeue: BounceQueue,
}

impl NodeUplink {
    fn bounce(&self, from: NodeId, route: Option<&Route>, msg: Message) -> bool {
        match route {
            Some(r) if r.kind == DeliveryKind::Send => {
                self.requeue.lock().push_back(Bounce {
                    route: r.clone(),
                    msg,
                    from,
                    at_nanos: self.obs.now_nanos(),
                });
                true
            }
            // Broadcast copies already reached the surviving recipients;
            // unrouted messages have no pattern to re-resolve: dead letter.
            _ => false,
        }
    }
}

impl Transport for NodeUplink {
    fn deliver(&self, to: ActorId, msg: Message) -> bool {
        self.deliver_routed(to, msg, None)
    }

    fn deliver_routed(&self, to: ActorId, msg: Message, route: Option<&Route>) -> bool {
        let Some(target) = node_of_actor(to) else {
            return false;
        };
        if target == self.me {
            // Local address but no local cell: the actor is dead — possibly
            // purged with a failed incarnation while still visible in a
            // not-yet-purged table entry.
            return self.bounce(target, route, msg);
        }
        if self
            .detector
            .is_suspected(self.me.0 as usize, target.0 as usize)
        {
            return self.bounce(target, route, msg);
        }
        let Some(Some(pipe)) = self.pipes.get(target.0 as usize) else {
            return false;
        };
        if let Some(r) = route {
            self.obs
                .tracer
                .record(r.trace, self.me.0, Stage::Routed { node: target.0 });
        }
        if !actorspace_runtime::codec::nesting_fits(&msg.body) {
            // The destination's decoder would reject it: refuse it here,
            // where the sender sees the failed delivery.
            return false;
        }
        let bytes = actorspace_runtime::codec::message_to_bytes(&msg);
        // Counted before the send: once sent, the message may be delivered
        // and answered before this thread runs again.
        self.forwarded.inc();
        pipe.send(WirePacket {
            to,
            bytes: Arc::new(bytes),
            route: route.cloned(),
        });
        true
    }
}
