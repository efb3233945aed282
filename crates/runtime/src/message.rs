//! Messages, ports, and envelopes.
//!
//! §7.2: "The executing actors are supplied with three different message
//! ports, each of which has a different purpose. The Behavior-port is used
//! for sending the actor its next behavior. The Invocation-port is used for
//! sending the actor any messages sent to it using send or broadcast. The
//! RPC-port is used when an actor performs a system call that expects a
//! return value."

use actorspace_core::{ActorId, Route};

use crate::actor::BoxBehavior;
use crate::value::Value;

/// Which of an actor's three message ports an envelope targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Next-behavior installation (processed before anything else).
    Behavior,
    /// Replies to system calls expecting return values.
    Rpc,
    /// Ordinary `send`/`broadcast` traffic.
    Invocation,
}

/// One queued mailbox entry: the payload plus the pattern resolution that
/// produced it (if any), retained for failover re-routing.
pub(crate) type Queued = (Payload, Option<Route>);

/// A delivered message as a behavior sees it.
#[derive(Debug, Clone)]
pub struct Message {
    /// The sender's mail address, when the sender chose to reveal it
    /// (messages from outside the system carry `None`).
    pub from: Option<ActorId>,
    /// The payload.
    pub body: Value,
    /// The port this message arrived on.
    pub port: Port,
}

impl Message {
    /// An invocation-port message with no sender.
    pub fn new(body: Value) -> Message {
        Message {
            from: None,
            body,
            port: Port::Invocation,
        }
    }

    /// An invocation-port message from a known sender.
    pub fn from_sender(from: ActorId, body: Value) -> Message {
        Message {
            from: Some(from),
            body,
            port: Port::Invocation,
        }
    }

    /// An RPC-port reply.
    pub fn rpc(from: Option<ActorId>, body: Value) -> Message {
        Message {
            from,
            body,
            port: Port::Rpc,
        }
    }
}

/// What actually travels to a mailbox.
pub(crate) enum Payload {
    /// A user message for `Behavior::receive`.
    User(Message),
    /// Behavior replacement, delivered on the Behavior port. This is how
    /// `become` is realized when it crosses actor (or node) boundaries.
    Become(BoxBehavior),
    /// The start signal: runs `Behavior::on_start` before any message.
    Start,
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::User(m) => f.debug_tuple("User").field(m).finish(),
            Payload::Become(_) => f.write_str("Become(..)"),
            Payload::Start => f.write_str("Start"),
        }
    }
}

/// An addressed payload.
#[derive(Debug)]
pub struct Envelope {
    /// Destination actor.
    pub to: ActorId,
    pub(crate) payload: Payload,
    /// The pattern resolution that chose `to`, when the envelope came from
    /// a `send`/`broadcast`. Kept with the message through the mailbox so a
    /// failover path can re-resolve it if `to` dies unprocessed.
    pub(crate) route: Option<Route>,
}

impl Envelope {
    /// A user message envelope (point-to-point; carries no route).
    pub fn user(to: ActorId, msg: Message) -> Envelope {
        Envelope {
            to,
            payload: Payload::User(msg),
            route: None,
        }
    }

    /// A user message envelope produced by pattern resolution.
    pub fn user_routed(to: ActorId, msg: Message, route: Option<Route>) -> Envelope {
        Envelope {
            to,
            payload: Payload::User(msg),
            route,
        }
    }

    /// A behavior-replacement envelope.
    pub fn become_(to: ActorId, behavior: BoxBehavior) -> Envelope {
        Envelope {
            to,
            payload: Payload::Become(behavior),
            route: None,
        }
    }

    pub(crate) fn start(to: ActorId) -> Envelope {
        Envelope {
            to,
            payload: Payload::Start,
            route: None,
        }
    }

    /// The port this envelope will be queued on.
    pub fn port(&self) -> Port {
        match &self.payload {
            Payload::User(m) => m.port,
            Payload::Become(_) | Payload::Start => Port::Behavior,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_constructors_set_ports() {
        assert_eq!(Message::new(Value::Unit).port, Port::Invocation);
        assert_eq!(Message::rpc(None, Value::Unit).port, Port::Rpc);
        let m = Message::from_sender(ActorId(1), Value::int(2));
        assert_eq!(m.from, Some(ActorId(1)));
    }

    #[test]
    fn envelope_port_classification() {
        let e = Envelope::user(ActorId(1), Message::new(Value::Unit));
        assert_eq!(e.port(), Port::Invocation);
        let e = Envelope::user(ActorId(1), Message::rpc(None, Value::Unit));
        assert_eq!(e.port(), Port::Rpc);
        let e = Envelope::start(ActorId(1));
        assert_eq!(e.port(), Port::Behavior);
    }
}
