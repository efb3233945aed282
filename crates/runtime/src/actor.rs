//! Behaviors and actor cells.
//!
//! A [`Behavior`] is the paper's behavior description (§4): it receives one
//! message at a time and may `create` actors, `send to` addresses or
//! patterns, and `become` a new behavior — all through the [`Ctx`] handle.

use actorspace_core::ActorId;

use crate::ctx::Ctx;
use crate::mailbox::Mailbox;
use crate::message::{Message, Queued};

/// An actor behavior. One message is processed at a time per actor; `&mut
/// self` state is therefore race-free without locks in user code.
pub trait Behavior: Send + 'static {
    /// Handles one message.
    fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Message);

    /// Called once, before any message, on the actor's first scheduling.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// A boxed behavior — what `become` installs.
pub type BoxBehavior = Box<dyn Behavior>;

/// Wraps a closure as a [`Behavior`].
///
/// ```
/// use actorspace_runtime::{from_fn, Value};
/// let echo = from_fn(|ctx, msg| {
///     if let Some(sender) = msg.from {
///         ctx.send_addr(sender, msg.body);
///     }
/// });
/// # let _ = echo;
/// ```
pub fn from_fn<F>(f: F) -> impl Behavior
where
    F: FnMut(&mut Ctx<'_>, Message) + Send + 'static,
{
    struct FnBehavior<F>(F);
    impl<F> Behavior for FnBehavior<F>
    where
        F: FnMut(&mut Ctx<'_>, Message) + Send + 'static,
    {
        fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            (self.0)(ctx, msg)
        }
    }
    FnBehavior(f)
}

/// The per-actor record owned by the runtime: identity, plus the mailbox
/// that holds the port queues, the scheduling state and the current
/// behavior under one lock. A worker borrows the behavior for the length of
/// a batch, so at most one worker runs it at a time.
pub(crate) struct ActorCell {
    pub id: ActorId,
    pub mailbox: Mailbox<Queued, BoxBehavior>,
}

impl ActorCell {
    pub fn new(id: ActorId, behavior: BoxBehavior) -> ActorCell {
        ActorCell {
            id,
            mailbox: Mailbox::new(behavior),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::MailboxState;
    use crate::value::Value;

    #[test]
    fn from_fn_is_a_behavior() {
        // Construction-only check (execution is covered by system tests).
        fn assert_behavior(_b: impl Behavior) {}
        assert_behavior(from_fn(|_ctx, msg| {
            let _ = msg.body == Value::Unit;
        }));
    }

    #[test]
    fn actor_cell_holds_behavior() {
        let cell = ActorCell::new(ActorId(1), Box::new(from_fn(|_, _| {})));
        assert_eq!(cell.mailbox.status(), (MailboxState::Idle, 0));
    }
}
