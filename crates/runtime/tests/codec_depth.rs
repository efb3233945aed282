//! `decode_message` must never panic or overflow the stack, whatever the
//! bytes. Seeded (the seed is printed; set `CODEC_FUZZ_SEED` to replay):
//!
//! * random byte strings, biased toward valid tag bytes so the decoder
//!   gets past the first byte;
//! * every strict prefix of valid message encodings, which must all be
//!   rejected as truncated (the format is self-delimiting);
//! * list nesting exactly at [`MAX_NESTING`], which must round-trip, and
//!   one level past it, which must be rejected;
//! * ~200k bare nested list headers (~1 MB), enough to overflow a 2 MB
//!   thread stack if the decoder's recursion were unbounded.

use actorspace_core::ActorId;
use actorspace_runtime::codec::{
    decode_message, message_to_bytes, nesting_fits, DecodeError, MAX_NESTING,
};
use actorspace_runtime::{Message, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const T_LIST: u8 = 0x0a;

fn seeded() -> (u64, SmallRng) {
    let seed: u64 = std::env::var("CODEC_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(1, |d| d.as_nanos() as u64)
        });
    println!("codec seed: {seed} (CODEC_FUZZ_SEED={seed} replays it)");
    (seed, SmallRng::seed_from_u64(seed))
}

/// A random value up to `depth` lists deep.
fn random_value(rng: &mut SmallRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 7 } else { 9 }) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen()),
        2 => Value::int(rng.gen()),
        3 => Value::Float(rng.gen()),
        4 => Value::str("xé→".repeat(rng.gen_range(0..3))),
        5 => Value::atom("srv/fib"),
        6 => Value::Addr(ActorId(rng.gen())),
        _ => Value::list(
            (0..rng.gen_range(0..4))
                .map(|_| random_value(rng, depth - 1))
                .collect::<Vec<_>>(),
        ),
    }
}

fn random_message(rng: &mut SmallRng) -> Message {
    let body = random_value(rng, 4);
    match rng.gen_range(0..3) {
        0 => Message::new(body),
        1 => Message::from_sender(ActorId(rng.gen()), body),
        _ => Message::rpc(Some(ActorId(rng.gen())), body),
    }
}

/// A message whose body is `n` nested one-item lists around a unit.
fn nested(n: usize) -> Message {
    let mut v = Value::Unit;
    for _ in 0..n {
        v = Value::list([v]);
    }
    Message::new(v)
}

#[test]
fn random_bytes_never_panic() {
    let (seed, mut rng) = seeded();
    for _ in 0..20_000 {
        let len = rng.gen_range(0..64);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    rng.gen_range(0..T_LIST + 1)
                } else {
                    rng.gen()
                }
            })
            .collect();
        // Any result is fine; a panic fails the test.
        let _ = decode_message(&bytes);
    }
    println!("seed {seed}: 20000 random strings decoded without panic");
}

#[test]
fn every_strict_prefix_is_truncated() {
    let (seed, mut rng) = seeded();
    for _ in 0..500 {
        let m = random_message(&mut rng);
        let bytes = message_to_bytes(&m);
        let back = decode_message(&bytes).expect("valid encoding decodes");
        assert_eq!(back.body, m.body, "seed {seed}");
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_message(&bytes[..cut]).err(),
                Some(DecodeError::Truncated),
                "seed {seed}: prefix {cut} of {} bytes of {m:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn nesting_at_the_limit_round_trips() {
    let m = nested(MAX_NESTING);
    let back = decode_message(&message_to_bytes(&m)).expect("at the limit");
    assert_eq!(back.body, m.body);
}

#[test]
fn nesting_past_the_limit_is_rejected() {
    let bytes = message_to_bytes(&nested(MAX_NESTING + 1));
    assert_eq!(decode_message(&bytes).err(), Some(DecodeError::TooDeep));
}

#[test]
fn senders_can_tell_what_the_decoder_accepts() {
    assert!(nesting_fits(&nested(MAX_NESTING).body));
    assert!(!nesting_fits(&nested(MAX_NESTING + 1).body));
    // A deep list anywhere inside a shallow one counts.
    let deep = Value::list([Value::int(1), nested(MAX_NESTING).body]);
    assert!(!nesting_fits(&deep));
}

#[test]
fn a_megabyte_of_list_headers_is_rejected_not_a_stack_overflow() {
    // Port, no sender, then 200k headers `T_LIST, len = 1`.
    let mut bytes = vec![2u8, 0];
    for _ in 0..200_000 {
        bytes.push(T_LIST);
        bytes.extend_from_slice(&1u32.to_le_bytes());
    }
    assert_eq!(decode_message(&bytes).err(), Some(DecodeError::TooDeep));
}
