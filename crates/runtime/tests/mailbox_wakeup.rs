//! Stress test for the mailbox's idle → scheduled hand-off.
//!
//! A worker that finishes a batch returns the mailbox to idle and then
//! re-checks the queue length; a producer enqueues and then tries the
//! idle → scheduled transition. If each side can miss the other's write,
//! a message sent just as the actor goes idle is stranded until the
//! actor's next message. The sharpest trigger is a closed loop with one
//! request in flight: the driver sends the next request the moment the
//! reply arrives, while the echo actor's worker is still leaving the
//! batch that sent the reply.
//!
//! The loop runs 10⁶ such round trips with a per-request deadline. The
//! seed (printed; set `MAILBOX_STRESS_SEED` to replay) picks the target
//! echo actor and payload of each request. Debug builds are too slow for
//! the full count, so the test runs in release (`cargo test --release -p
//! actorspace-runtime --test mailbox_wakeup`) and is ignored otherwise.

use std::time::{Duration, Instant};

use actorspace_runtime::{from_fn, ActorSystem, Config, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROUND_TRIPS: u64 = 1_000_000;
const ECHOES: usize = 4;
/// A reply this late means the request was stranded: a healthy round trip
/// takes microseconds.
const DEADLINE: Duration = Duration::from_secs(2);

#[test]
#[cfg_attr(debug_assertions, ignore = "10^6 round trips: run in release")]
fn send_right_after_reply_is_never_stranded() {
    let seed: u64 = std::env::var("MAILBOX_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(1, |d| d.as_nanos() as u64)
        });
    println!("mailbox_wakeup seed: {seed} (MAILBOX_STRESS_SEED={seed} replays it)");
    let mut rng = SmallRng::seed_from_u64(seed);

    let system = ActorSystem::new(Config {
        workers: 2,
        ..Config::default()
    });
    let (inbox, rx) = system.inbox();
    let echoes: Vec<_> = (0..ECHOES)
        .map(|_| {
            system.spawn(from_fn(move |ctx, msg| {
                ctx.send_addr(inbox, msg.body);
            }))
        })
        .collect();

    let started = Instant::now();
    for i in 0..ROUND_TRIPS {
        let target = &echoes[rng.gen_range(0..ECHOES)];
        let payload = rng.gen_range(0..i64::MAX);
        assert!(system.send_to(target.id(), Value::int(payload)));
        match rx.recv_timeout(DEADLINE) {
            Ok(reply) => assert_eq!(
                reply.body,
                Value::int(payload),
                "round trip {i}: wrong reply (seed {seed})"
            ),
            Err(_) => panic!(
                "round trip {i} of {ROUND_TRIPS}: no reply within {DEADLINE:?} — \
                 message stranded in an idle mailbox (seed {seed})"
            ),
        }
    }
    println!(
        "{ROUND_TRIPS} round trips in {:.1?}, none stranded",
        started.elapsed()
    );
    system.shutdown();
}
