//! The three workloads: building the system under test from the seed,
//! ending set-up on an event, generating requests and writes, and reading
//! the program's public counters.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_atoms::{path, Path};
use actorspace_core::{ActorId, Disposition, ManagerPolicy, Pattern, SpaceId};
use actorspace_net::{Cluster, ClusterConfig, LinkConfig, OrderingProtocol};
use actorspace_obs::names;
use actorspace_runtime::{from_fn, ActorSystem, Behavior, Config, Message, Value};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::now_ns;

/// Echo actors addressed by `local_p2p`.
pub const LOCAL_TARGETS: usize = 64;
/// `pattern_scan` visible actors: `svc/g<0..GROUPS>/w<0..PER_GROUP>`.
pub const SCAN_GROUPS: usize = 100;
pub const SCAN_PER_GROUP: usize = 10;
/// `cluster_rpc` echo replicas on node 1.
pub const REPLICAS: usize = 64;
/// Actors whose visibility the write stream changes, and the attribute
/// versions each cycles through (`probe/k<k>/v<v>`).
pub const PROBE_ACTORS: usize = 4;
pub const PROBE_VERSIONS: usize = 16;
/// Worker threads per node.
const LOCAL_WORKERS: usize = 2;
const CLUSTER_WORKERS: usize = 1;
/// How long set-up waits for its completion event.
const SETUP_TIMEOUT: Duration = Duration::from_secs(20);
/// How long [`Setup::settle`] waits for the system to go quiet.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Request flag asking the behavior to stamp its start and reply times.
pub const STAMP: i64 = 1;

/// Input streams derived from one run seed. Each input (layout, requests,
/// writes, replica selection) draws from its own stream, so changing how
/// one is drawn does not shift the others.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Layout = 1,
    Requests = 2,
    Writes = 3,
    Selection = 4,
}

/// The generator of `stream` for run seed `seed`.
pub fn seeded(seed: u64, stream: Stream) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The lock classes whose counts the traced run reports.
pub const LOCK_CLASSES: [&str; 8] = [
    "meta",
    "shard",
    "actors",
    "mailbox",
    "behavior",
    "scheduler",
    "bus",
    "reliable",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalP2p,
    PatternScan,
    ClusterRpc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LocalP2p,
        Workload::PatternScan,
        Workload::ClusterRpc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalP2p => "local_p2p",
            Workload::PatternScan => "pattern_scan",
            Workload::ClusterRpc => "cluster_rpc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Requests kept outstanding by the closed loop (W).
    pub fn window(self) -> usize {
        match self {
            Workload::LocalP2p => 64,
            Workload::PatternScan => 16,
            Workload::ClusterRpc => 32,
        }
    }

    /// Main requests per visibility write. `None`: the writes run only in
    /// the probe rounds, so the loop stays point-to-point only.
    pub fn write_every(self) -> Option<u64> {
        match self {
            Workload::LocalP2p => None,
            Workload::PatternScan => Some(16),
            Workload::ClusterRpc => Some(64),
        }
    }

    /// Whether a visibility probe is a pattern send, which waits for the
    /// write to arrive over the bus. On one node a write is visible once
    /// its call returns, and a probe send would mostly time a worker's
    /// wake-up; there the probe resolves the written attribute instead,
    /// which also keeps `local_p2p` to address sends.
    pub fn probe_sends(self) -> bool {
        self == Workload::ClusterRpc
    }

    /// Main round trips completed in the first build's measured loop before
    /// `peak_rss_mb` is read: about a third of a second of the loop on a
    /// 2-vCPU host, so it is reached in the first measured segment and every
    /// commit is measured after the same amount of work.
    pub fn rss_after(self) -> u64 {
        match self {
            Workload::LocalP2p => 80_000,
            Workload::PatternScan => 1_200,
            Workload::ClusterRpc => 5_000,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Dest {
    Addr(ActorId),
    /// Index into [`Setup::patterns`].
    Pattern(usize),
}

/// What a correct reply's sender must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Actor(ActorId),
    /// Any actor of this group (its attribute matches the group's pattern).
    Group(u32),
}

#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub dest: Dest,
    pub expect: Expect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    MakeVisible,
    ChangeAttributes,
    MakeInvisible,
}

impl WriteKind {
    pub const ALL: [WriteKind; 3] = [
        WriteKind::MakeVisible,
        WriteKind::ChangeAttributes,
        WriteKind::MakeInvisible,
    ];

    /// The span name of this write in the traced run.
    pub fn span(self) -> &'static str {
        match self {
            WriteKind::MakeVisible => "core.write.make_visible",
            WriteKind::ChangeAttributes => "core.write.change_attributes",
            WriteKind::MakeInvisible => "core.write.make_invisible",
        }
    }
}

/// One scheduled visibility write on probe actor `actor`; `version` names
/// the attribute written (unused by `MakeInvisible`).
#[derive(Debug, Clone, Copy)]
pub struct Write {
    pub actor: usize,
    pub kind: WriteKind,
    pub version: usize,
}

/// The seeded write schedule. Each probe actor cycles invisible →
/// make_visible → change_attributes → make_invisible; which actor writes
/// next, and the versions written, come from the seed. A version written
/// always differs from the actor's current or last attribute, so every
/// probe needs its own write to have reached the sending node.
pub struct WriteSchedule {
    rng: SmallRng,
    next: Write,
    visible: [bool; PROBE_ACTORS],
    written: [bool; PROBE_ACTORS],
    /// The version each actor holds, or held before it went invisible.
    held: [Option<usize>; PROBE_ACTORS],
}

impl WriteSchedule {
    pub fn new(seed: u64) -> WriteSchedule {
        let mut s = WriteSchedule {
            rng: seeded(seed, Stream::Writes),
            next: Write {
                actor: 0,
                kind: WriteKind::MakeVisible,
                version: 0,
            },
            visible: [false; PROBE_ACTORS],
            written: [false; PROBE_ACTORS],
            held: [None; PROBE_ACTORS],
        };
        s.draw();
        s
    }

    fn draw(&mut self) {
        let actor = self.rng.gen_range(0..PROBE_ACTORS);
        let kind = match (self.visible[actor], self.written[actor]) {
            (false, _) => WriteKind::MakeVisible,
            (true, false) => WriteKind::ChangeAttributes,
            (true, true) => WriteKind::MakeInvisible,
        };
        let version = match self.held[actor] {
            Some(h) => {
                let v = self.rng.gen_range(0..PROBE_VERSIONS - 1);
                v + usize::from(v >= h)
            }
            None => self.rng.gen_range(0..PROBE_VERSIONS),
        };
        self.next = Write {
            actor,
            kind,
            version,
        };
    }

    pub fn peek(&self) -> Write {
        self.next
    }

    pub fn advance(&mut self) {
        let w = self.next;
        let (v, c) = (&mut self.visible[w.actor], &mut self.written[w.actor]);
        match w.kind {
            WriteKind::MakeVisible => *v = true,
            WriteKind::ChangeAttributes => *c = true,
            WriteKind::MakeInvisible => (*v, *c) = (false, false),
        }
        if w.kind != WriteKind::MakeInvisible {
            self.held[w.actor] = Some(w.version);
        }
        self.draw();
    }
}

/// An actor whose visibility the write stream changes.
pub struct Probe {
    pub actor: ActorId,
    pub attrs: Vec<Path>,
    /// Literal pattern of each attribute version, as indices into
    /// [`Setup::patterns`].
    pub patterns: Vec<usize>,
}

/// Monotone public counters, by name.
pub type Counters = BTreeMap<String, u64>;

/// `after - before`, name by name.
pub fn diff(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v.saturating_sub(*before.get(k).unwrap_or(&0))))
        .collect()
}

pub fn accumulate(into: &mut Counters, delta: &Counters) {
    for (k, v) in delta {
        *into.entry(k.clone()).or_default() += v;
    }
}

const COUNTERS: [&str; 9] = [
    names::RT_DELIVERIES,
    names::RT_DEAD_LETTERS,
    names::NET_FORWARDED,
    names::NET_RETRANSMITS,
    names::NET_DECODE_FAILURES,
    names::CORE_SUSPENDED,
    names::CORE_WOKEN,
    names::CORE_INDEX_HITS,
    names::CORE_INDEX_MISSES,
];

/// The echo behavior: replies `[id, slot, own address]` to the client's
/// inbox, plus its start and reply-send times when the request asks.
fn echo(inbox: ActorId) -> impl Behavior {
    from_fn(move |ctx, msg| {
        let Some(req) = msg.body.as_list() else {
            return; // malformed: no reply, so the request fails by deadline
        };
        let stamp = req.get(2).and_then(Value::as_int).unwrap_or(0) & STAMP != 0;
        let started = if stamp { now_ns() } else { 0 };
        let mut reply = Vec::with_capacity(5);
        reply.extend(req.iter().take(2).cloned());
        reply.push(Value::Addr(ctx.self_id()));
        if stamp {
            reply.push(Value::int(started as i64));
            reply.push(Value::int(now_ns() as i64));
        }
        ctx.send_addr(inbox, Value::list(reply));
    })
}

/// An echo reply: `[id, slot, sender, (behavior start, reply send)?]`.
pub struct Reply {
    pub id: u64,
    pub slot: usize,
    pub from: ActorId,
    pub stamps: Option<(u64, u64)>,
}

pub fn parse_reply(body: &Value) -> Option<Reply> {
    let items = body.as_list()?;
    let stamp = |i: usize| items.get(i).and_then(Value::as_int).map(|v| v as u64);
    Some(Reply {
        id: u64::try_from(items.first()?.as_int()?).ok()?,
        slot: usize::try_from(items.get(1)?.as_int()?).ok()?,
        from: items.get(2)?.as_addr()?,
        stamps: stamp(3).zip(stamp(4)),
    })
}

fn pattern(text: &str) -> Result<Pattern, String> {
    Pattern::parse(text).map_err(|e| format!("pattern {text}: {e:?}"))
}

/// A built workload: the running system, its actors, and the inputs the
/// client draws from.
pub struct Setup {
    pub workload: Workload,
    // Declared first so it drops first: the cluster shuts its nodes down
    // while the handles below are still alive.
    cluster: Option<Cluster>,
    /// The node the client sends from (node 0).
    pub sender: Arc<ActorSystem>,
    /// The node hosting the probe actors (node 1 in the cluster).
    pub writer: Arc<ActorSystem>,
    pub space: SpaceId,
    pub rx: Receiver<Message>,
    pub patterns: Vec<Pattern>,
    pub probes: Vec<Probe>,
    targets: Vec<ActorId>,
    /// Group and attribute of every main actor.
    members: HashMap<ActorId, (u32, Path)>,
    /// `pattern_scan`: wildcard pattern per group, literal pattern and
    /// actor per `g * SCAN_PER_GROUP + w`.
    wild: Vec<usize>,
    literal: Vec<(usize, ActorId)>,
    /// `cluster_rpc`: the `svc/*` pattern.
    any: usize,
}

impl Setup {
    /// Builds `workload` from `seed` and returns once its completion event
    /// has happened.
    pub fn build(workload: Workload, seed: u64) -> Result<Setup, String> {
        let policy = ManagerPolicy {
            selection_seed: Some(seeded(seed, Stream::Selection).next_u64()),
            ..ManagerPolicy::default()
        };
        let mut layout = seeded(seed, Stream::Layout);
        let (cluster, sender, writer) = match workload {
            Workload::ClusterRpc => {
                let zero = LinkConfig {
                    latency: Duration::ZERO,
                    jitter: Duration::ZERO,
                    ..LinkConfig::ideal()
                };
                let cluster = Cluster::new(ClusterConfig {
                    nodes: 2,
                    workers_per_node: CLUSTER_WORKERS,
                    data_link: zero.clone(),
                    bus_link: zero,
                    protocol: OrderingProtocol::Sequencer,
                    policy,
                    obs_publish: None,
                    ..ClusterConfig::default()
                });
                let (d, w) = (cluster.node(0).system(), cluster.node(1).system());
                (Some(cluster), d, w)
            }
            _ => {
                let system = Arc::new(ActorSystem::new(Config {
                    workers: LOCAL_WORKERS,
                    policy,
                    ..Config::default()
                }));
                (None, system.clone(), system)
            }
        };
        let (inbox, rx) = sender.inbox();
        let space = sender
            .create_space(None)
            .map_err(|e| format!("create_space: {e:?}"))?;
        let spawn = |on: &ActorSystem| on.spawn(echo(inbox)).leak();
        let mut s = Setup {
            workload,
            cluster,
            sender: sender.clone(),
            writer: writer.clone(),
            space,
            rx,
            patterns: Vec::new(),
            probes: Vec::new(),
            targets: Vec::new(),
            members: HashMap::new(),
            wild: Vec::new(),
            literal: Vec::new(),
            any: 0,
        };
        // Probe actors first, so the last write of set-up is the last
        // main attribute made visible.
        for k in 0..PROBE_ACTORS {
            let actor = spawn(&writer);
            let texts: Vec<String> = (0..PROBE_VERSIONS)
                .map(|v| format!("probe/k{k}/v{v}"))
                .collect();
            let patterns = texts
                .iter()
                .map(|t| s.add_pattern(t))
                .collect::<Result<_, _>>()?;
            s.probes.push(Probe {
                actor,
                attrs: texts.iter().map(|t| path(t)).collect(),
                patterns,
            });
        }
        // The set-up probe: requests whose replies end set-up.
        let mut done: Vec<Request> = Vec::new();
        match workload {
            Workload::LocalP2p => {
                s.targets = (0..LOCAL_TARGETS).map(|_| spawn(&sender)).collect();
                done.extend(s.targets.iter().map(|&a| Request {
                    dest: Dest::Addr(a),
                    expect: Expect::Actor(a),
                }));
            }
            Workload::PatternScan => {
                let n = SCAN_GROUPS * SCAN_PER_GROUP;
                let mut slots: Vec<usize> = (0..n).collect();
                shuffle(&mut layout, &mut slots);
                s.wild = (0..SCAN_GROUPS)
                    .map(|g| s.add_pattern(&format!("svc/g{g}/*")))
                    .collect::<Result<_, _>>()?;
                s.literal = vec![(0, ActorId(0)); n];
                for &slot in &slots {
                    let (g, w) = (slot / SCAN_PER_GROUP, slot % SCAN_PER_GROUP);
                    let a = spawn(&sender);
                    let text = format!("svc/g{g}/w{w}");
                    let attr = path(&text);
                    sender
                        .make_visible(a, &attr, space, None)
                        .map_err(|e| format!("make_visible: {e:?}"))?;
                    s.literal[slot] = (s.add_pattern(&text)?, a);
                    s.members.insert(a, (g as u32, attr));
                }
                let (p, a) = s.literal[slots[n - 1]];
                done.push(Request {
                    dest: Dest::Pattern(p),
                    expect: Expect::Actor(a),
                });
            }
            Workload::ClusterRpc => {
                let mut names: Vec<usize> = (0..REPLICAS).collect();
                shuffle(&mut layout, &mut names);
                s.any = s.add_pattern("svc/*")?;
                let mut last = None;
                for &r in &names {
                    let a = spawn(&writer);
                    let text = format!("svc/r{r}");
                    let attr = path(&text);
                    writer
                        .make_visible(a, &attr, space, None)
                        .map_err(|e| format!("make_visible: {e:?}"))?;
                    s.members.insert(a, (0, attr));
                    last = Some((text, a));
                }
                let (text, a) = last.expect("REPLICAS > 0");
                done.push(Request {
                    dest: Dest::Pattern(s.add_pattern(&text)?),
                    expect: Expect::Actor(a),
                });
            }
        }
        s.await_replies(&done)?;
        Ok(s)
    }

    fn add_pattern(&mut self, text: &str) -> Result<usize, String> {
        self.patterns.push(pattern(text)?);
        Ok(self.patterns.len() - 1)
    }

    /// Sends each request and waits for all their replies: set-up's
    /// completion event. A send refused because this node has not yet
    /// applied the space's creation is retried.
    fn await_replies(&self, reqs: &[Request]) -> Result<(), String> {
        let deadline = Instant::now() + SETUP_TIMEOUT;
        for (i, r) in reqs.iter().enumerate() {
            let body = || Value::list(vec![Value::int(i as i64), Value::int(0), Value::int(0)]);
            while !self.send(r.dest, body()) {
                if Instant::now() >= deadline {
                    return Err("set-up send refused".into());
                }
                std::thread::yield_now();
            }
        }
        let mut seen = vec![false; reqs.len()];
        for _ in 0..reqs.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            let msg = self
                .rx
                .recv_timeout(left)
                .map_err(|_| "set-up replies timed out".to_string())?;
            let answered = parse_reply(&msg.body).and_then(|r| {
                let i = usize::try_from(r.id).ok()?;
                (i < reqs.len() && !seen[i] && self.accepts(reqs[i].expect, r.from)).then_some(i)
            });
            match answered {
                Some(i) => seen[i] = true,
                None => return Err(format!("unexpected set-up reply {:?}", msg.body)),
            }
        }
        Ok(())
    }

    /// The next main request, drawn from the request stream.
    pub fn next_request(&self, rng: &mut SmallRng) -> Request {
        match self.workload {
            Workload::LocalP2p => {
                let a = self.targets[rng.gen_range(0..self.targets.len())];
                Request {
                    dest: Dest::Addr(a),
                    expect: Expect::Actor(a),
                }
            }
            Workload::PatternScan => {
                let slot = rng.gen_range(0..self.literal.len());
                if rng.gen::<bool>() {
                    let g = slot / SCAN_PER_GROUP;
                    Request {
                        dest: Dest::Pattern(self.wild[g]),
                        expect: Expect::Group(g as u32),
                    }
                } else {
                    let (p, a) = self.literal[slot];
                    Request {
                        dest: Dest::Pattern(p),
                        expect: Expect::Actor(a),
                    }
                }
            }
            Workload::ClusterRpc => Request {
                dest: Dest::Pattern(self.any),
                expect: Expect::Group(0),
            },
        }
    }

    /// Whether a reply from `from` satisfies `expect`.
    pub fn accepts(&self, expect: Expect, from: ActorId) -> bool {
        match expect {
            Expect::Actor(a) => a == from,
            Expect::Group(g) => self.members.get(&from).is_some_and(|m| m.0 == g),
        }
    }

    /// The attribute of a main actor.
    pub fn attr(&self, actor: ActorId) -> Option<&Path> {
        self.members.get(&actor).map(|m| &m.1)
    }

    /// Sends from the sending node. False when the runtime refused it.
    pub fn send(&self, dest: Dest, body: Value) -> bool {
        match dest {
            Dest::Addr(a) => self.sender.send_to(a, body),
            Dest::Pattern(p) => matches!(
                self.sender
                    .send_pattern(&self.patterns[p], self.space, body, None),
                Ok(Disposition::Delivered(_) | Disposition::Suspended)
            ),
        }
    }

    /// Runs one scheduled write on the writer node.
    pub fn write(&self, w: Write, attrs: Vec<Path>) -> bool {
        let actor = self.probes[w.actor].actor;
        let r = match w.kind {
            WriteKind::MakeVisible => self.writer.make_visible_all(actor, attrs, self.space, None),
            WriteKind::ChangeAttributes => self
                .writer
                .change_attributes(actor, attrs, self.space, None),
            WriteKind::MakeInvisible => self.writer.make_invisible(actor, self.space, None),
        };
        r.is_ok()
    }

    /// Blocks until every node has applied every bus event and finished
    /// every message it holds, so counters read next are complete: a
    /// behavior's delivery is counted after it returns, which can be after
    /// its reply was received. Used between measured segments, never inside
    /// one.
    pub fn settle(&self) {
        if let Some(c) = &self.cluster {
            c.await_coherence(SETTLE_TIMEOUT);
        }
        for system in [&self.sender, &self.writer] {
            system.await_idle(SETTLE_TIMEOUT);
        }
    }

    /// The program's public counters, the lock-timing tables of the
    /// reported classes, and this process's CPU time and context switches.
    pub fn counters(&self) -> Counters {
        let snap = self.sender.obs().snapshot();
        let mut c: Counters = COUNTERS
            .iter()
            .map(|&n| (n.to_string(), snap.counter_total(n)))
            .collect();
        let applied = self.cluster.as_ref().map_or(0, |cl| {
            cl.nodes().iter().map(|n| n.stats().applied).sum::<u64>()
        });
        c.insert("net.bus_applied".into(), applied);
        for t in actorspace_lockcheck::lock_timing() {
            if LOCK_CLASSES.contains(&t.class) {
                c.insert(format!("lock.{}.holds", t.class), t.hold.count);
                c.insert(format!("lock.{}.waits", t.class), t.wait.count);
                c.insert(format!("lock.{}.hold_ns", t.class), t.hold.sum);
            }
        }
        c.insert("proc.cpu_ns".into(), crate::procfs::cpu_ns());
        c.insert("proc.ctx_switches".into(), crate::procfs::ctx_switches());
        c
    }

    /// Median `core.match_ns` on the sending node, from the snapshot.
    pub fn match_ns_p50(&self) -> u64 {
        self.sender
            .obs()
            .snapshot()
            .histogram(names::CORE_MATCH_NS, self.sender.node_label())
            .map_or(0, |h| h.p50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = seeded(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9, Stream::Requests), draw(9, Stream::Requests));
        assert_ne!(draw(9, Stream::Requests), draw(9, Stream::Writes));
        assert_ne!(draw(9, Stream::Requests), draw(10, Stream::Requests));
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut seeded(1, Stream::Layout), &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    /// Every write follows its actor's cycle, and every version written
    /// differs from the one the actor holds or last held.
    #[test]
    fn schedule_cycles_and_always_writes_a_new_version() {
        let mut s = WriteSchedule::new(3);
        let mut held = [None; PROBE_ACTORS];
        let mut visible = [false; PROBE_ACTORS];
        for _ in 0..10_000 {
            let w = s.peek();
            assert_eq!(w.kind == WriteKind::MakeVisible, !visible[w.actor]);
            if w.kind != WriteKind::MakeInvisible {
                assert!(w.version < PROBE_VERSIONS);
                assert_ne!(Some(w.version), held[w.actor]);
                held[w.actor] = Some(w.version);
            }
            visible[w.actor] = w.kind != WriteKind::MakeInvisible;
            s.advance();
        }
    }
}
