//! The worker loop: pop a scheduled actor from the node's run queue, run a
//! batch of its mailbox, hand it back.
//!
//! Each node has one run queue: a [`RunQueue`] of ready actors plus the
//! count of sleeping workers, under one mutex (class `scheduler`) with one
//! condition variable. Each actor is in the queue at most once (the
//! mailbox state machine), so fairness is per-actor round-robin with a
//! configurable batch size. A worker pops an actor or sleeps under that
//! lock, and scheduling notifies only when a worker sleeps, so wake-ups
//! are neither lost nor wasted.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use actorspace_obs::{DeadLetterReason, TraceId};

use crate::actor::{ActorCell, BoxBehavior};
use crate::ctx::Ctx;
use crate::message::{Payload, Queued};
use crate::system::Shared;

/// A node's ready actors and sleeping-worker count.
pub(crate) struct RunQueue {
    pub ready: VecDeque<Arc<ActorCell>>,
    pub sleepers: usize,
}

pub(crate) fn run_worker(shared: Arc<Shared>) {
    let mut batch = Vec::with_capacity(shared.batch);
    while let Some(cell) = next_ready(&shared) {
        process_batch(&shared, cell, &mut batch);
    }
}

/// Pops the next ready actor, sleeping while there is none. `None` once
/// the node shuts down.
fn next_ready(shared: &Shared) -> Option<Arc<ActorCell>> {
    let mut queue = shared.run_queue.lock();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(cell) = queue.ready.pop_front() {
            return Some(cell);
        }
        queue.sleepers += 1;
        shared.run_cv.wait(&mut queue);
        queue.sleepers -= 1;
    }
}

fn process_batch(shared: &Arc<Shared>, cell: Arc<ActorCell>, batch: &mut Vec<Queued>) {
    let mut behavior = cell.mailbox.take_batch(shared.batch, batch);
    let mut stopped = behavior.is_none();

    for (payload, route) in batch.drain(..) {
        let trace = route.map(|r| r.trace).unwrap_or(TraceId::NONE);
        match payload {
            Payload::Start => {
                if let Some(b) = behavior.as_mut() {
                    let mut ctx = Ctx::new(shared, cell.id, None);
                    let unwound = catch_unwind(AssertUnwindSafe(|| b.on_start(&mut ctx)));
                    if unwound.is_err() {
                        shared.note_dead_letter(
                            DeadLetterReason::BehaviorPanic,
                            Some(cell.id),
                            trace,
                        );
                    }
                    apply_ctx(shared, &cell, &mut behavior, ctx, &mut stopped);
                }
            }
            Payload::Become(b) => {
                if !stopped {
                    behavior = Some(b);
                }
            }
            Payload::User(msg) => {
                if let Some(b) = behavior.as_mut() {
                    let from = msg.from;
                    let mut ctx = Ctx::new(shared, cell.id, from);
                    let unwound = catch_unwind(AssertUnwindSafe(|| b.receive(&mut ctx, msg)));
                    if unwound.is_err() {
                        // A panicking behavior drops the message; the actor
                        // survives with its current state (fail-soft).
                        shared.note_dead_letter(
                            DeadLetterReason::BehaviorPanic,
                            Some(cell.id),
                            trace,
                        );
                    } else {
                        // `delivered` is emitted at processing time, not
                        // mailbox-accept time: an accepted-but-unprocessed
                        // message can still be harvested and failed over
                        // when its node crashes, and each trace must end
                        // in exactly one terminal stage.
                        shared.deliveries.inc();
                        shared.obs.tracer.record(
                            trace,
                            shared.node,
                            actorspace_obs::Stage::Delivered,
                        );
                    }
                    apply_ctx(shared, &cell, &mut behavior, ctx, &mut stopped);
                } else {
                    // Messages to a stopped actor are dead letters.
                    shared.note_dead_letter(DeadLetterReason::StoppedActor, Some(cell.id), trace);
                }
            }
        }
        shared.dec_pending();
    }

    // A stopped actor keeps its slot empty; whatever is still queued is
    // dead-lettered by the next batch.
    if cell.mailbox.finish(behavior) {
        shared.schedule(cell);
    }
}

fn apply_ctx(
    shared: &Arc<Shared>,
    cell: &Arc<ActorCell>,
    behavior: &mut Option<BoxBehavior>,
    ctx: Ctx<'_>,
    stopped: &mut bool,
) {
    let (next, stop) = ctx.into_effects();
    if let Some(nb) = next {
        *behavior = Some(nb);
    }
    if stop {
        *stopped = true;
        *behavior = None;
        shared.stop_actor(cell.id);
    }
}
