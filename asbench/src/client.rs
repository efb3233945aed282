//! The closed-loop client: one thread keeps W requests outstanding, like W
//! callers each waiting for its reply, checks every reply, and interleaves
//! the seeded visibility writes with their visibility probes.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use actorspace_core::ActorId;
use actorspace_runtime::{codec, Message, Value};
use rand::rngs::SmallRng;

use crate::now_ns;
use crate::procfs;
use crate::setup::{
    accumulate, diff, parse_reply, seeded, Counters, Dest, Expect, Reply, Request, Setup, Stream,
    Workload, Write, WriteKind, WriteSchedule, STAMP,
};
use crate::spans::Tracer;
use crate::stats::{percentile, push_ns, ratio, slower_quartile};

/// A request with no reply this long after its send call counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(5);
/// Longest wait for outstanding replies when a segment ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Target length of one measuring window.
const WINDOW: Duration = Duration::from_millis(500);
/// Replies handled between deadline sweeps.
const SWEEP_EVERY: u64 = 4096;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Main,
    /// The pattern send that follows a visibility write to the written
    /// attribute; `write_start` dates the write.
    Probe {
        write_start: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    req: Request,
    kind: Kind,
    traced: bool,
    send_start: u64,
    send_end: u64,
    /// Traced probes before the send: resolve, request encode, request
    /// decode (`(0, 0)` when not run).
    pre: [(u64, u64); 3],
}

/// One measuring window of a segment: the main round trips completed in it,
/// their percentiles, the process CPU time it took and the host's steal.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub done: u64,
    pub secs: f64,
    pub cpu_ns: u64,
    /// Share of host CPU time stolen by the hypervisor during the window.
    pub steal: f64,
    pub p50_ns: u32,
    pub p90_ns: u32,
    pub p99_ns: u32,
}

/// What one or more measured segments recorded.
#[derive(Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    /// Round trips of the window in progress, nanoseconds. Only window
    /// summaries are kept, so the benchmark's own memory stays flat.
    rpc_ns: Vec<u32>,
    /// Visibility-write call durations, nanoseconds.
    pub write_ns: Vec<u32>,
    /// Write start to the probe's behavior start (one node: to the probe's
    /// resolve returning).
    pub visible_ns: Vec<u32>,
    pub main_done: u64,
    /// Probe sends answered; a resolve probe is not a request.
    pub probes_done: u64,
    pub writes: u64,
    /// Counter deltas, summed over segments that each start and end with
    /// nothing outstanding.
    pub counters: Counters,
    /// Encoded bytes and messages seen by the traced codec probes.
    pub codec_bytes: u64,
    pub codec_msgs: u64,
    pub codec_errors: u64,
}

impl Phase {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Main round trips per second over all windows.
    pub fn throughput(&self) -> f64 {
        let done: u64 = self.windows.iter().map(|w| w.done).sum();
        ratio(done as f64, self.windows.iter().map(|w| w.secs).sum())
    }

    /// [`slower_quartile`] over windows of `f(window)`.
    pub fn slower(&self, q: f64, f: impl Fn(&Window) -> f64) -> f64 {
        slower_quartile(self.windows.iter().map(|w| (w.steal, f(w))), q)
    }
}

/// Request outcomes over the whole run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent plus writes made.
    pub attempted: u64,
    /// Refused sends and writes, replies from a wrong actor, and requests
    /// past their deadline.
    pub failed: u64,
    pub wrong_sender: u64,
    /// Replies that arrived after their request was counted failed.
    pub late: u64,
    /// Replies matching no outstanding request: duplicates or garbage.
    pub stray: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong_sender += o.wrong_sender;
        self.late += o.late;
        self.stray += o.stray;
    }
}

pub struct Client<'a> {
    s: &'a Setup,
    window: usize,
    /// `window` main slots, then one probe slot per probe actor.
    slots: Vec<Option<Slot>>,
    outstanding: usize,
    next_id: u64,
    requests: SmallRng,
    writes: WriteSchedule,
    due_writes: u64,
    sent_main: u64,
    /// Ids failed by the deadline, so a late reply is told from a stray.
    expired: HashSet<u64>,
    /// Whether a reply's slot gets a new request (false while draining).
    refilling: bool,
    traced: bool,
    /// Main round trips still to complete before `peak_rss_kb` is read.
    rss_countdown: Option<u64>,
    /// `VmHWM` once the countdown ran out.
    pub peak_rss_kb: Option<u64>,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl<'a> Client<'a> {
    pub fn new(s: &'a Setup, seed: u64) -> Client<'a> {
        let window = s.workload.window();
        Client {
            s,
            window,
            slots: vec![None; window + s.probes.len()],
            outstanding: 0,
            next_id: 1,
            requests: seeded(seed, Stream::Requests),
            writes: WriteSchedule::new(seed),
            due_writes: 0,
            sent_main: 0,
            expired: HashSet::new(),
            refilling: false,
            traced: false,
            rss_countdown: None,
            peak_rss_kb: None,
            tally: Tally::default(),
            tracer: Tracer::default(),
        }
    }

    /// Reads `VmHWM` into [`Client::peak_rss_kb`] once `n` more main round
    /// trips have completed.
    pub fn read_rss_after(&mut self, n: u64) {
        self.rss_countdown = Some(n.max(1));
    }

    /// Runs the closed loop for `dur`, split into windows of about
    /// [`WINDOW`], then drains it. Counter deltas cover the segment from an
    /// empty loop to an empty loop.
    pub fn segment(&mut self, dur: Duration, ph: &mut Phase, traced: bool) {
        self.traced = traced;
        let before = self.s.counters();
        let n = ((dur.as_secs_f64() / WINDOW.as_secs_f64()).round() as u32).max(1);
        let start = Instant::now();
        self.refilling = true;
        for slot in 0..self.window {
            self.send_main(slot, ph);
        }
        let mut handled = 0u64;
        for k in 1..=n {
            let end = start + dur * k / n;
            ph.rpc_ns.clear();
            let (cpu, host, opened) = (procfs::cpu_ns(), procfs::host_cpu(), Instant::now());
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                match self.s.rx.recv_timeout((end - now).min(DEADLINE)) {
                    Ok(msg) => {
                        self.handle(msg, ph);
                        handled += 1;
                        if handled.is_multiple_of(SWEEP_EVERY) {
                            self.sweep(false, ph);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => self.sweep(false, ph),
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            let mut p = |q| percentile(&mut ph.rpc_ns, q).unwrap_or(0);
            let (p50, p90, p99) = (p(0.5), p(0.9), p(0.99));
            ph.windows.push(Window {
                done: ph.rpc_ns.len() as u64,
                secs: opened.elapsed().as_secs_f64(),
                cpu_ns: procfs::cpu_ns().saturating_sub(cpu),
                steal: procfs::steal_share(host, procfs::host_cpu()),
                p50_ns: p50,
                p90_ns: p90,
                p99_ns: p99,
            });
        }
        self.refilling = false;
        self.drain(ph);
        self.s.settle();
        accumulate(&mut ph.counters, &diff(&self.s.counters(), &before));
    }

    /// Makes `writes` scheduled writes one at a time, each followed by its
    /// probe's round trip, with no other load.
    pub fn probe_phase(&mut self, writes: usize, ph: &mut Phase, traced: bool) {
        self.traced = traced;
        let before = self.s.counters();
        for _ in 0..writes {
            self.due_writes += 1;
            self.run_due_writes(ph);
            self.drain(ph);
        }
        self.s.settle();
        accumulate(&mut ph.counters, &diff(&self.s.counters(), &before));
    }

    fn drain(&mut self, ph: &mut Phase) {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.outstanding > 0 {
            let left = limit.saturating_duration_since(Instant::now());
            match self.s.rx.recv_timeout(left.min(DEADLINE)) {
                Ok(msg) => self.handle(msg, ph),
                Err(RecvTimeoutError::Timeout) if !left.is_zero() => self.sweep(false, ph),
                Err(_) => break,
            }
        }
        self.sweep(true, ph);
    }

    /// Fails requests past their deadline (every outstanding one when
    /// `all`); a failed main slot is refilled unless the loop is draining.
    fn sweep(&mut self, all: bool, ph: &mut Phase) {
        let now = now_ns();
        let deadline = DEADLINE.as_nanos() as u64;
        for i in 0..self.slots.len() {
            let Some(s) = self.slots[i] else { continue };
            if all || now.saturating_sub(s.send_start) > deadline {
                self.slots[i] = None;
                self.outstanding -= 1;
                self.tally.failed += 1;
                self.expired.insert(s.id);
                if self.refilling && i < self.window {
                    self.send_main(i, ph);
                }
            }
        }
    }

    fn send_main(&mut self, slot: usize, ph: &mut Phase) {
        let req = self.s.next_request(&mut self.requests);
        self.send_request(slot, req, Kind::Main, ph);
        self.sent_main += 1;
        if let Some(n) = self.s.workload.write_every() {
            if self.sent_main.is_multiple_of(n) {
                self.due_writes += 1;
            }
        }
    }

    fn send_request(&mut self, slot: usize, req: Request, kind: Kind, ph: &mut Phase) {
        let s = self.s;
        let id = self.next_id;
        self.next_id += 1;
        self.tally.attempted += 1;
        // In-loop probes are load, not the measured probe phase.
        let traced = self.traced && (matches!(kind, Kind::Main) || !self.refilling);
        let stamp = traced || matches!(kind, Kind::Probe { .. });
        let body = Value::list(vec![
            Value::int(id as i64),
            Value::int(slot as i64),
            Value::int(if stamp { STAMP } else { 0 }),
        ]);
        let mut pre = [(0, 0); 3];
        if traced && matches!(kind, Kind::Main) {
            if let Dest::Pattern(p) = req.dest {
                let t0 = now_ns();
                black_box(s.sender.resolve(&s.patterns[p], s.space).ok());
                pre[0] = (t0, now_ns());
            }
            if s.workload == Workload::ClusterRpc {
                let (enc, dec) = codec_probe(&Message::new(body.clone()), ph);
                pre[1] = enc;
                pre[2] = dec;
            }
        }
        let send_start = now_ns();
        let sent = s.send(req.dest, body);
        let send_end = if traced { now_ns() } else { send_start };
        if !sent {
            self.tally.failed += 1;
            return;
        }
        self.slots[slot] = Some(Slot {
            id,
            req,
            kind,
            traced,
            send_start,
            send_end,
            pre,
        });
        self.outstanding += 1;
    }

    fn handle(&mut self, msg: Message, ph: &mut Phase) {
        let t_recv = now_ns();
        let Some(Reply {
            id,
            slot,
            from,
            stamps,
        }) = parse_reply(&msg.body)
        else {
            self.tally.stray += 1;
            return;
        };
        let s = match self.slots.get(slot) {
            Some(Some(s)) if s.id == id => *s,
            _ => {
                if self.expired.remove(&id) {
                    self.tally.late += 1;
                } else {
                    self.tally.stray += 1;
                }
                return;
            }
        };
        self.slots[slot] = None;
        self.outstanding -= 1;
        if !self.s.accepts(s.req.expect, from) {
            self.tally.failed += 1;
            self.tally.wrong_sender += 1;
        } else {
            match s.kind {
                Kind::Main => {
                    push_ns(&mut ph.rpc_ns, t_recv.saturating_sub(s.send_start));
                    ph.main_done += 1;
                    if let Some(n) = self.rss_countdown {
                        self.rss_countdown = (n > 1).then(|| n - 1);
                        if n == 1 {
                            self.peak_rss_kb = Some(procfs::peak_rss_kb());
                        }
                    }
                    if s.traced {
                        self.trace_main(&s, &msg, from, stamps, t_recv, ph);
                    }
                }
                Kind::Probe { write_start } => match stamps {
                    Some((started, _)) => {
                        push_ns(&mut ph.visible_ns, started.saturating_sub(write_start));
                        ph.probes_done += 1;
                        if s.traced {
                            self.tracer
                                .span("probe.visible", s.id, None, write_start, started);
                            self.tracer.finish();
                        }
                    }
                    None => self.tally.failed += 1,
                },
            }
        }
        if self.refilling {
            if matches!(s.kind, Kind::Main) {
                self.send_main(slot, ph);
            }
            self.run_due_writes(ph);
        }
    }

    /// Makes the writes owed so far, in schedule order. A write waits while
    /// the previous probe on its actor is still out.
    fn run_due_writes(&mut self, ph: &mut Phase) {
        while self.due_writes > 0 {
            let w = self.writes.peek();
            let slot = self.window + w.actor;
            if self.slots[slot].is_some() {
                return;
            }
            self.writes.advance();
            self.due_writes -= 1;
            self.write(slot, w, ph);
        }
    }

    fn write(&mut self, slot: usize, w: Write, ph: &mut Phase) {
        let s = self.s;
        let probe = &s.probes[w.actor];
        let attrs = match w.kind {
            WriteKind::MakeInvisible => Vec::new(),
            _ => vec![probe.attrs[w.version].clone()],
        };
        self.tally.attempted += 1;
        let t0 = now_ns();
        let ok = s.write(w, attrs);
        let t1 = now_ns();
        push_ns(&mut ph.write_ns, t1 - t0);
        ph.writes += 1;
        if self.traced && !self.refilling {
            // Shares the id its probe request is about to take.
            self.tracer.span(w.kind.span(), self.next_id, None, t0, t1);
            self.tracer.finish();
        }
        if !ok {
            self.tally.failed += 1;
        } else if w.kind != WriteKind::MakeInvisible {
            let dest = probe.patterns[w.version];
            if s.workload.probe_sends() {
                let req = Request {
                    dest: Dest::Pattern(dest),
                    expect: Expect::Actor(probe.actor),
                };
                self.send_request(slot, req, Kind::Probe { write_start: t0 }, ph);
            } else {
                self.resolve_probe(dest, probe.actor, t0, ph);
            }
        }
    }

    /// The visibility probe on one node: resolves the written attribute's
    /// pattern, which must name the written actor.
    fn resolve_probe(&mut self, pattern: usize, actor: ActorId, write_start: u64, ph: &mut Phase) {
        let s = self.s;
        let id = self.next_id;
        self.next_id += 1;
        self.tally.attempted += 1;
        let found = s.sender.resolve(&s.patterns[pattern], s.space);
        let t = now_ns();
        if !found.is_ok_and(|a| a.contains(&actor)) {
            self.tally.failed += 1;
            return;
        }
        push_ns(&mut ph.visible_ns, t.saturating_sub(write_start));
        if self.traced && !self.refilling {
            self.tracer.span("probe.visible", id, None, write_start, t);
            self.tracer.finish();
        }
    }

    /// Builds the span tree of one traced main request.
    fn trace_main(
        &mut self,
        s: &Slot,
        reply: &Message,
        from: ActorId,
        stamps: Option<(u64, u64)>,
        t_recv: u64,
        ph: &mut Phase,
    ) {
        let (started, replied) = stamps.unwrap_or((t_recv, t_recv));
        let id = s.id;
        let first = s
            .pre
            .iter()
            .filter(|p| p.1 > 0)
            .map(|p| p.0)
            .fold(s.send_start, u64::min);
        let t = &mut self.tracer;
        let root = t.span("request", id, None, first, first);
        if s.pre[0].1 > 0 {
            t.span("core.resolve", id, Some(root), s.pre[0].0, s.pre[0].1);
        }
        if s.pre[1].1 > 0 {
            t.span("codec.encode", id, Some(root), s.pre[1].0, s.pre[1].1);
            t.span("codec.decode", id, Some(root), s.pre[2].0, s.pre[2].1);
        }
        let rpc = t.span("rpc", id, Some(root), s.send_start, t_recv);
        t.span("runtime.send_call", id, Some(rpc), s.send_start, s.send_end);
        t.span("runtime.queue", id, Some(rpc), s.send_end, started);
        t.span("runtime.behavior", id, Some(rpc), started, replied);
        t.span("runtime.reply", id, Some(rpc), replied, t_recv);
        if let (Dest::Pattern(p), Some(attr)) = (s.req.dest, self.s.attr(from)) {
            let t0 = now_ns();
            black_box(self.s.patterns[p].matches(attr));
            t.span("pattern.matches", id, Some(root), t0, now_ns());
        }
        if self.s.workload == Workload::ClusterRpc {
            let (enc, dec) = codec_probe(reply, ph);
            t.span("codec.encode", id, Some(root), enc.0, enc.1);
            t.span("codec.decode", id, Some(root), dec.0, dec.1);
        }
        t.set_end(root, now_ns());
        t.finish();
    }
}

/// Times encoding `msg` and decoding it back; a message that does not
/// round-trip is counted in [`Phase::codec_errors`].
fn codec_probe(msg: &Message, ph: &mut Phase) -> ((u64, u64), (u64, u64)) {
    let t0 = now_ns();
    let bytes = codec::message_to_bytes(msg);
    let t1 = now_ns();
    let back = codec::decode_message(black_box(&bytes));
    let t2 = now_ns();
    if back.is_ok_and(|m| m.body == msg.body) {
        ph.codec_bytes += bytes.len() as u64;
        ph.codec_msgs += 1;
    } else {
        ph.codec_errors += 1;
    }
    ((t0, t1), (t1, t2))
}
