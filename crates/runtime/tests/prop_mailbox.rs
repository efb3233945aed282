//! Seeded concurrency property test for the one-lock mailbox.
//!
//! Several producers push numbered messages to all three ports while one
//! consumer plays the scheduler and a worker: it holds a queue of
//! "scheduled" tokens, fed by every `push` that returns `true` and every
//! `finish` that returns `true`, and for each token takes a batch of a
//! random size, checks it, and finishes it. A checker thread polls the
//! mailbox's status the whole time. Checked:
//!
//! - no message is lost or duplicated;
//! - FIFO holds per producer and per port;
//! - every batch is in port-priority order;
//! - each token finds the mailbox scheduled, and batches equal the `true`
//!   returns of `push` plus those of `finish` — so exactly one `push`
//!   returns `true` per idle → scheduled transition;
//! - no message is ever queued behind an idle state;
//! - the behavior slot lent by each batch is the one the last batch
//!   returned.
//!
//! The seed (printed; set `MAILBOX_PROP_SEED` to replay) drives each
//! producer's port choices and the consumer's batch sizes. Thread
//! interleaving is not seeded.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use actorspace_runtime::mailbox::{Mailbox, MailboxState};
use actorspace_runtime::Port;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PRODUCERS: usize = 3;
const PER_PRODUCER: u64 = 20_000;
const ROUNDS: u64 = 4;
const PORTS: [Port; 3] = [Port::Behavior, Port::Rpc, Port::Invocation];
/// A token this late means a message was stranded without one.
const STALL: Duration = Duration::from_secs(10);

/// (producer, port, per-producer-and-port sequence number).
type Item = (usize, Port, u64);

fn rank(port: Port) -> usize {
    PORTS.iter().position(|&p| p == port).expect("a port")
}

struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn round(seed: u64) {
    let mb: Mailbox<Item, u64> = Mailbox::new(0);
    let (tokens_tx, tokens_rx) = mpsc::channel::<()>();
    let pushes_true = AtomicUsize::new(0);
    let producing = AtomicUsize::new(PRODUCERS);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (mb, tokens_tx, pushes_true, producing) =
                (&mb, tokens_tx.clone(), &pushes_true, &producing);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ ((p as u64 + 1) * 0x9E37_79B9));
                let mut next = [0u64; 3];
                for _ in 0..PER_PRODUCER {
                    let port = PORTS[rng.gen_range(0..3usize)];
                    let seq = &mut next[rank(port)];
                    if mb.push(port, (p, port, *seq)) {
                        pushes_true.fetch_add(1, Ordering::Relaxed);
                        tokens_tx.send(()).expect("consumer alive");
                    }
                    *seq += 1;
                }
                producing.fetch_sub(1, Ordering::Release);
            });
        }
        drop(tokens_tx);

        // The checker: an idle mailbox is always empty.
        let (mb_ref, done_ref) = (&mb, &done);
        s.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                let (state, len) = mb_ref.status();
                assert!(
                    state != MailboxState::Idle || len == 0,
                    "seed {seed}: {len} message(s) queued behind an idle state"
                );
                std::thread::yield_now();
            }
        });

        // The consumer. Stops the checker on the way out, even when an
        // assertion fails, so the scope can join it.
        let _stop_checker = SetOnDrop(&done);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut own_tokens = VecDeque::new();
        let mut last: HashMap<(usize, usize), u64> = HashMap::new();
        let (mut batches, mut finishes_true, mut received) = (0usize, 0usize, 0u64);
        let mut slot = 0u64;
        let mut batch = Vec::new();
        let total = PRODUCERS as u64 * PER_PRODUCER;
        while received < total {
            if own_tokens.pop_front().is_none() {
                match tokens_rx.recv_timeout(STALL) {
                    Ok(()) => {}
                    Err(_) => panic!(
                        "seed {seed}: no scheduled token for {STALL:?} with {} of {total} \
                         received (status {:?}, producers left {})",
                        received,
                        mb.status(),
                        producing.load(Ordering::Acquire)
                    ),
                }
            }
            // Only the consumer leaves SCHEDULED, so this check cannot race.
            assert_eq!(
                mb.status().0,
                MailboxState::Scheduled,
                "seed {seed}: a token without a scheduled mailbox"
            );
            let lent = mb.take_batch(1 + rng.gen_range(0..8usize), &mut batch);
            assert_eq!(lent, Some(slot), "seed {seed}: behavior slot");
            batches += 1;
            assert!(
                !batch.is_empty(),
                "seed {seed}: a scheduled mailbox is never empty"
            );
            let ranks: Vec<usize> = batch.iter().map(|&(_, port, _)| rank(port)).collect();
            assert!(
                ranks.windows(2).all(|w| w[0] <= w[1]),
                "seed {seed}: batch out of port-priority order: {batch:?}"
            );
            for (p, port, seq) in batch.drain(..) {
                let want = last.get(&(p, rank(port))).map_or(0, |s| s + 1);
                assert_eq!(
                    seq, want,
                    "seed {seed}: producer {p} {port:?}: lost, duplicated or reordered"
                );
                last.insert((p, rank(port)), seq);
                received += 1;
            }
            slot += 1;
            if mb.finish(Some(slot)) {
                finishes_true += 1;
                own_tokens.push_back(());
            }
        }
        assert!(own_tokens.is_empty() && tokens_rx.try_recv().is_err());
        assert_eq!(mb.status(), (MailboxState::Idle, 0), "seed {seed}");
        assert_eq!(
            batches,
            pushes_true.load(Ordering::Relaxed) + finishes_true,
            "seed {seed}: one batch per scheduling"
        );
    });
}

#[test]
fn concurrent_producers_and_a_batching_consumer() {
    let seed: u64 = std::env::var("MAILBOX_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(1, |d| d.as_nanos() as u64)
        });
    println!("mailbox property seed: {seed} (replay with MAILBOX_PROP_SEED={seed})");
    let started = Instant::now();
    for r in 0..ROUNDS {
        round(seed.wrapping_add(r));
    }
    println!("{ROUNDS} rounds in {:?}", started.elapsed());
}
