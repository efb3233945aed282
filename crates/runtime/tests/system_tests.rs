//! End-to-end tests of the single-node runtime: scheduling, the Actor
//! primitives, pattern communication, suspension semantics, quiescence, and
//! fault behavior.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use actorspace_atoms::path;
use actorspace_core::{
    ActorId, Disposition, ManagerPolicy, Route, SelectionPolicy, UnmatchedPolicy,
};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, ActorSystem, Behavior, Config, Ctx, Message, Transport, Value};

const TIMEOUT: Duration = Duration::from_secs(10);

fn system() -> ActorSystem {
    let cfg = Config {
        workers: 3,
        ..Default::default()
    };
    ActorSystem::new(cfg)
}

#[test]
fn point_to_point_send_and_reply() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let echo = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    assert!(echo.send(Value::int(99)));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(99));
    sys.shutdown();
}

#[test]
fn sender_address_is_carried() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    // `prober` sends to `reflector`, which replies to the *sender*;
    // `prober` then forwards the reply to the inbox.
    let reflector = sys.spawn(from_fn(|ctx, msg| {
        ctx.reply(msg.body);
    }));
    let reflector_id = reflector.id();
    let prober = sys.spawn(from_fn(move |ctx, msg| {
        if msg.body == Value::str("go") {
            ctx.send_addr(reflector_id, Value::int(5));
        } else {
            ctx.send_addr(inbox, msg.body);
        }
    }));
    prober.send(Value::str("go"));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(5));
    sys.shutdown();
}

#[test]
fn become_replaces_behavior_counter_style() {
    // The classic history-sensitive counter: each message increments by
    // becoming a new closure over the incremented value.
    struct Counter {
        n: i64,
        report_to: actorspace_core::ActorId,
    }
    impl Behavior for Counter {
        fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            match msg.body {
                Value::Str(ref s) if &**s == "get" => {
                    ctx.send_addr(self.report_to, Value::int(self.n));
                }
                _ => {
                    let next = Counter {
                        n: self.n + 1,
                        report_to: self.report_to,
                    };
                    ctx.become_(next);
                }
            }
        }
    }
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let counter = sys.spawn(Counter {
        n: 0,
        report_to: inbox,
    });
    for _ in 0..5 {
        counter.send(Value::str("inc"));
    }
    counter.send(Value::str("get"));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(5));
    sys.shutdown();
}

#[test]
fn send_behavior_port_replaces_behavior() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let actor = sys.spawn(from_fn(move |ctx, _| {
        ctx.send_addr(inbox, Value::str("old"));
    }));
    actor.send(Value::Unit);
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::str("old"));
    sys.await_idle(TIMEOUT);
    // Install the new behavior via the Behavior port (§7.2).
    sys.send_behavior(
        actor.id(),
        from_fn(move |ctx, _| {
            ctx.send_addr(inbox, Value::str("new"));
        }),
    );
    sys.await_idle(TIMEOUT);
    actor.send(Value::Unit);
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::str("new"));
    sys.shutdown();
}

#[test]
fn actors_create_actors() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let parent = sys.spawn(from_fn(move |ctx, msg| {
        // Create a child that forwards to the inbox, then send it the body.
        let child = ctx.create(from_fn(move |cctx, m| {
            cctx.send_addr(inbox, m.body);
        }));
        ctx.send_addr(child, msg.body);
    }));
    parent.send(Value::int(123));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(123));
    sys.shutdown();
}

#[test]
fn pattern_send_reaches_visible_actor_only() {
    let sys = system();
    let space = sys.create_space(None).unwrap();
    let (inbox, rx) = sys.inbox();
    let visible = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, Value::list([Value::str("visible"), msg.body]));
    }));
    let _hidden = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, Value::list([Value::str("hidden"), msg.body]));
    }));
    sys.make_visible(visible.id(), &path("srv/a"), space, None)
        .unwrap();
    sys.send_pattern(&pattern("srv/*"), space, Value::int(1), None)
        .unwrap();
    let got = rx.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(got.body.as_list().unwrap()[0], Value::str("visible"));
    sys.shutdown();
}

#[test]
fn broadcast_reaches_every_visible_actor() {
    let sys = system();
    let space = sys.create_space(None).unwrap();
    let (inbox, rx) = sys.inbox();
    let n = 16;
    let mut handles = Vec::new();
    for i in 0..n {
        let a = sys.spawn(from_fn(move |ctx, msg| {
            ctx.send_addr(inbox, Value::list([Value::int(i), msg.body]));
        }));
        sys.make_visible(a.id(), &path("node"), space, None)
            .unwrap();
        handles.push(a);
    }
    sys.broadcast(&pattern("node"), space, Value::str("bound"), None)
        .unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let m = rx.recv_timeout(TIMEOUT).unwrap();
        seen.insert(m.body.as_list().unwrap()[0].as_int().unwrap());
    }
    assert_eq!(seen.len(), n as usize);
    sys.shutdown();
}

#[test]
fn suspended_message_released_by_late_arrival() {
    let sys = system();
    let space = sys.create_space(None).unwrap();
    let (inbox, rx) = sys.inbox();
    // Send before any worker exists (§5.6 default: suspend).
    sys.send_pattern(&pattern("late"), space, Value::int(7), None)
        .unwrap();
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    let late = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    sys.make_visible(late.id(), &path("late"), space, None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(7));
    sys.shutdown();
}

#[test]
fn actor_makes_itself_visible_and_receives_work() {
    // §5.4: actors make themselves visible.
    let sys = system();
    let space = sys.create_space(None).unwrap();
    let (inbox, rx) = sys.inbox();
    struct SelfAdvertiser {
        space: actorspace_core::SpaceId,
        inbox: actorspace_core::ActorId,
    }
    impl Behavior for SelfAdvertiser {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.make_self_visible(&path("self-made"), self.space, None)
                .unwrap();
        }
        fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            ctx.send_addr(self.inbox, msg.body);
        }
    }
    let _a = sys.spawn(SelfAdvertiser { space, inbox });
    sys.await_idle(TIMEOUT);
    sys.send_pattern(&pattern("self-made"), space, Value::int(3), None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(3));
    sys.shutdown();
}

#[test]
fn round_robin_policy_via_system_api() {
    let sys = system();
    let policy = ManagerPolicy {
        selection: SelectionPolicy::RoundRobin,
        ..Default::default()
    };
    let space = sys.create_space(None).unwrap();
    sys.set_space_policy(space, policy, None).unwrap();
    let (inbox, rx) = sys.inbox();
    let mut ids = Vec::new();
    for _ in 0..3 {
        let a = sys.spawn(from_fn(move |ctx, _| {
            let me = ctx.self_id();
            ctx.send_addr(inbox, Value::Addr(me));
        }));
        sys.make_visible(a.id(), &path("w"), space, None).unwrap();
        ids.push(a);
    }
    for _ in 0..6 {
        sys.send_pattern(&pattern("w"), space, Value::Unit, None)
            .unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..6 {
        got.push(rx.recv_timeout(TIMEOUT).unwrap().body.as_addr().unwrap());
    }
    // Each worker exactly twice.
    let mut counts = std::collections::HashMap::new();
    for a in got {
        *counts.entry(a).or_insert(0) += 1;
    }
    assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    sys.shutdown();
}

#[test]
fn stop_removes_actor_and_later_sends_dead_letter() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let once = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
        ctx.stop();
    }));
    once.send(Value::int(1));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(1));
    sys.await_idle(TIMEOUT);
    let before = sys.stats().dead_letters;
    assert!(
        !once.send(Value::int(2)),
        "send to stopped actor should fail"
    );
    sys.await_idle(TIMEOUT);
    assert!(sys.stats().dead_letters > before);
    sys.shutdown();
}

#[test]
fn panicking_behavior_does_not_kill_the_system() {
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let flaky = sys.spawn(from_fn(move |ctx, msg| {
        if msg.body == Value::str("boom") {
            panic!("injected failure");
        }
        ctx.send_addr(inbox, msg.body);
    }));
    flaky.send(Value::str("boom"));
    flaky.send(Value::int(42)); // the actor survives the panic
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(42));
    sys.shutdown();
}

#[test]
fn await_idle_reflects_quiescence() {
    let sys = system();
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = counter.clone();
    // A chain: each message under 1000 re-sends to self.
    let actor = sys.spawn(from_fn(move |ctx, msg| {
        let n = msg.body.as_int().unwrap();
        c2.fetch_add(1, Ordering::Relaxed);
        if n < 999 {
            let me = ctx.self_id();
            ctx.send_addr(me, Value::int(n + 1));
        }
    }));
    actor.send(Value::int(0));
    assert!(sys.await_idle(TIMEOUT), "must reach quiescence");
    assert_eq!(counter.load(Ordering::Relaxed), 1000);
    assert_eq!(sys.stats().pending, 0);
    sys.shutdown();
}

#[test]
fn gc_collects_dropped_handles_and_keeps_visible_actors() {
    let sys = system();
    let space = sys.create_space(None).unwrap();
    let keep = sys.spawn(from_fn(|_, _| {}));
    sys.make_visible(keep.id(), &path("kept"), space, None)
        .unwrap();
    let keep_id = keep.id();
    // `keep` is visible in a space that is itself invisible — root it via
    // the handle. Drop a second actor's handle entirely.
    let drop_me = sys.spawn(from_fn(|_, _| {}));
    let drop_id = drop_me.id();
    drop(drop_me);
    sys.await_idle(TIMEOUT);
    let report = sys.collect_garbage(&|_| Vec::new());
    assert!(report.collected_actors.contains(&drop_id));
    assert!(!report.collected_actors.contains(&keep_id));
    // The collected actor's mailbox is gone: sends fail.
    assert!(!sys.send_to(drop_id, Value::Unit));
    assert!(keep.send(Value::Unit));
    sys.shutdown();
}

#[test]
fn unmatched_error_policy_surfaces_to_sender() {
    let sys = system();
    let policy = ManagerPolicy {
        unmatched_send: UnmatchedPolicy::Error,
        ..Default::default()
    };
    let space = sys.create_space(None).unwrap();
    sys.set_space_policy(space, policy, None).unwrap();
    let err = sys
        .send_pattern(&pattern("ghost"), space, Value::Unit, None)
        .unwrap_err();
    assert!(matches!(err, actorspace_core::Error::NoMatch { .. }));
    sys.shutdown();
}

#[test]
fn capability_protected_visibility_through_system_api() {
    let sys = system();
    let cap = sys.new_capability();
    let space = sys.create_space(None).unwrap();
    let guarded = sys
        .spawn_in(actorspace_core::ROOT_SPACE, from_fn(|_, _| {}), Some(&cap))
        .unwrap();
    assert!(sys
        .make_visible(guarded.id(), &path("x"), space, None)
        .is_err());
    sys.make_visible(guarded.id(), &path("x"), space, Some(&cap))
        .unwrap();
    sys.shutdown();
}

#[test]
fn divide_and_conquer_fan_out_fan_in() {
    // A miniature of the paper's §6 pool: recursive sum over a range by
    // splitting into child actors.
    struct Summer;
    impl Behavior for Summer {
        fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let parts = msg.body.as_list().unwrap();
            let lo = parts[0].as_int().unwrap();
            let hi = parts[1].as_int().unwrap();
            let reply_to = parts[2].as_addr().unwrap();
            if hi - lo <= 16 {
                let s: i64 = (lo..hi).sum();
                ctx.send_addr(reply_to, Value::int(s));
            } else {
                let mid = (lo + hi) / 2;
                // Collector joins the two halves.
                let mut acc: Option<i64> = None;
                let collector = ctx.create(from_fn(move |cctx, m| {
                    let v = m.body.as_int().unwrap();
                    match acc {
                        None => acc = Some(v),
                        Some(first) => {
                            cctx.send_addr(reply_to, Value::int(first + v));
                            cctx.stop();
                        }
                    }
                }));
                let left = ctx.create(Summer);
                let right = ctx.create(Summer);
                ctx.send_addr(
                    left,
                    Value::list([Value::int(lo), Value::int(mid), Value::Addr(collector)]),
                );
                ctx.send_addr(
                    right,
                    Value::list([Value::int(mid), Value::int(hi), Value::Addr(collector)]),
                );
            }
        }
    }
    let sys = system();
    let (inbox, rx) = sys.inbox();
    let root = sys.spawn(Summer);
    root.send(Value::list([
        Value::int(0),
        Value::int(10_000),
        Value::Addr(inbox),
    ]));
    let got = rx.recv_timeout(TIMEOUT).unwrap().body.as_int().unwrap();
    assert_eq!(got, (0..10_000i64).sum::<i64>());
    sys.shutdown();
}

#[test]
fn nested_space_pattern_send_through_runtime() {
    let sys = system();
    let outer = sys.create_space(None).unwrap();
    let inner = sys.create_space(None).unwrap();
    sys.make_visible(inner, &path("pool"), outer, None).unwrap();
    let (inbox, rx) = sys.inbox();
    let w = sys.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    sys.make_visible(w.id(), &path("worker"), inner, None)
        .unwrap();
    sys.send_pattern(&pattern("pool/worker"), outer, Value::int(11), None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(11));
    sys.shutdown();
}

#[test]
fn stats_track_counts() {
    let sys = system();
    let s0 = sys.stats();
    assert_eq!(s0.spaces, 1); // root
    let _sp = sys.create_space(None).unwrap();
    let _a = sys.spawn(from_fn(|_, _| {}));
    sys.await_idle(TIMEOUT);
    let s1 = sys.stats();
    assert_eq!(s1.spaces, 2);
    assert!(s1.actors >= 1);
    assert_eq!(s1.pending, 0);
    sys.shutdown();
}

#[test]
fn heavy_concurrent_traffic_is_lossless() {
    let sys = ActorSystem::new(Config {
        workers: 4,
        ..Config::default()
    });
    let space = sys.create_space(None).unwrap();
    let received = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let r = received.clone();
        let a = sys.spawn(from_fn(move |_, _| {
            r.fetch_add(1, Ordering::Relaxed);
        }));
        sys.make_visible(a.id(), &path("sink"), space, None)
            .unwrap();
        handles.push(a);
    }
    let n = 10_000;
    for _ in 0..n {
        sys.send_pattern(&pattern("sink"), space, Value::Unit, None)
            .unwrap();
    }
    assert!(sys.await_idle(TIMEOUT));
    assert_eq!(received.load(Ordering::Relaxed), n);
    sys.shutdown();
}

/// An uplink that, handed a routed message, re-resolves its route through
/// the registry that chose the recipient — what a failover transport does.
struct ReResolvingUplink {
    sys: std::sync::Weak<ActorSystem>,
    seen: std::sync::OnceLock<(ActorId, Vec<ActorId>)>,
}

impl Transport for ReResolvingUplink {
    fn deliver(&self, _to: ActorId, _msg: Message) -> bool {
        false
    }

    fn deliver_routed(&self, to: ActorId, _msg: Message, route: Option<&Route>) -> bool {
        let (Some(sys), Some(route)) = (self.sys.upgrade(), route) else {
            return false;
        };
        let again = sys.resolve(&route.pattern, route.space).unwrap();
        self.seen.set((to, again)).is_ok()
    }
}

#[test]
fn transport_may_reenter_the_registry_during_a_pattern_send() {
    // The registry decides under its locks and delivers after them, so an
    // uplink reached from a pattern send may call back into it.
    let sys = Arc::new(system());
    let uplink = Arc::new(ReResolvingUplink {
        sys: Arc::downgrade(&sys),
        seen: Default::default(),
    });
    sys.set_uplink(uplink.clone());
    let space = sys.create_space(None).unwrap();
    // An actor this node knows of but does not host: its deliveries go to
    // the uplink.
    let remote = sys
        .with_registry(|reg, _| reg.create_actor(space, None))
        .unwrap();
    sys.make_visible(remote, &path("svc/remote"), space, None)
        .unwrap();
    let d = sys
        .send_pattern(&pattern("svc/*"), space, Value::int(1), None)
        .unwrap();
    assert_eq!(d, Disposition::Delivered(1));
    assert_eq!(uplink.seen.get(), Some(&(remote, vec![remote])));
    assert_eq!(sys.stats().dead_letters, 0);
    sys.shutdown();
}
