//! Allocation counts on the matching hot path.
//!
//! This binary installs a counting global allocator (its own test binary,
//! so no other test runs under it). Counts are per thread, so the harness's
//! other threads do not disturb a measurement. Pinned:
//!
//! - stepping an NFA of at most `INLINE_STATES` states (`StateSet::advance`,
//!   `Pattern::matches`) allocates nothing;
//! - a `svc/*` resolve allocates as many times over 640 keys as over 64:
//!   the walk's per-key work is allocation-free, and only the result
//!   `Vec`'s growth (reallocations) depends on the answer's size;
//! - a warmed `send` into a reused buffer, and a warmed `resolve`, in a
//!   space with no sub-spaces allocate at most twice, apart from that
//!   growth;
//! - a warmed `svc/*` send through a reused pattern handle, which the
//!   space's resolution memo answers without a walk, allocates nothing at
//!   all, over 640 replicas as over 64.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use actorspace_atoms::{atom, path, Atom};
use actorspace_core::{policy::ManagerPolicy, Disposition, ShardedRegistry, SpaceId};
use actorspace_pattern::{matcher::INLINE_STATES, pattern, Pattern};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting beside it
// touches only const-initialised thread-local `Cell`s, which neither
// allocate nor unwind (`try_with` absorbs access after teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the (allocations, reallocations) it
/// made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (a0, r0) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    let (a1, r1) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    (out, a1 - a0, r1 - r0)
}

fn atoms(text: &str) -> Vec<Atom> {
    path(text).atoms().to_vec()
}

#[test]
fn stepping_a_small_nfa_allocates_nothing() {
    let pat = pattern("svc/{fib, fact}/(a|b)*/**/[^x y]/end");
    assert!(pat.nfa().len() <= INLINE_STATES, "{}", pat.nfa().len());
    let hit = path("svc/fib/a/b/a/q/r/z/end");
    let miss = path("svc/sqrt/a");
    let steps = atoms("svc/fact/a/b/deep/er/z/end");
    let start = pat.start();

    let (accepted, allocs, reallocs) = counted(|| {
        let mut st = start.clone();
        for &a in &steps {
            st = st.advance(pat.nfa(), a);
        }
        st.is_accepting(pat.nfa())
    });
    assert!(accepted);
    assert_eq!((allocs, reallocs), (0, 0), "StateSet::advance allocated");

    let (found, allocs, reallocs) = counted(|| (pat.matches(&hit), pat.matches(&miss)));
    assert_eq!(found, (true, false));
    assert_eq!((allocs, reallocs), (0, 0), "Pattern::matches allocated");
}

#[test]
fn the_counter_sees_heap_state_sets() {
    // Above INLINE_STATES the bit words live on the heap: stepping such an
    // NFA must show up here, or the zeros above prove nothing.
    let text = vec!["big"; INLINE_STATES].join("/");
    let pat = pattern(&text);
    assert!(pat.nfa().len() > INLINE_STATES);
    let start = pat.start();
    let ((), allocs, _) = counted(|| {
        let st = start.advance(pat.nfa(), atom("big"));
        assert!(!st.is_dead());
    });
    assert!(allocs > 0, "a heap-form advance allocated nothing");
}

fn replicas(n: usize) -> (ShardedRegistry<u64>, SpaceId) {
    let reg: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let space = reg.create_space(None);
    let mut out = Vec::new();
    for r in 0..n {
        let a = reg.create_actor(space, None).unwrap();
        reg.make_visible(
            a.into(),
            vec![path(&format!("svc/r{r}"))],
            space,
            None,
            &mut out,
        )
        .unwrap();
    }
    (reg, space)
}

/// (allocations, reallocations) of one warmed-up `svc/*` resolve over `n`
/// replica keys.
fn resolve_allocs(n: usize, pat: &Pattern) -> (usize, usize) {
    let (reg, space) = replicas(n);
    assert_eq!(reg.resolve(pat, space).unwrap().len(), n);
    let (found, allocs, reallocs) = counted(|| reg.resolve(pat, space).unwrap());
    assert_eq!(found.len(), n);
    (allocs, reallocs)
}

#[test]
fn a_wildcard_resolve_allocates_independently_of_its_key_count() {
    let pat = pattern("svc/*");
    let (small, small_growth) = resolve_allocs(64, &pat);
    let (large, large_growth) = resolve_allocs(640, &pat);
    assert_eq!(
        small, large,
        "svc/* allocated {small} times over 64 keys but {large} times over 640"
    );
    assert!(small <= 2, "svc/* allocated {small} times over 64 keys");
    // Growth of the result Vec: one reallocation per doubling.
    assert!(
        small_growth <= 6,
        "{small_growth} reallocations over 64 keys"
    );
    assert!(
        large_growth <= 9,
        "{large_growth} reallocations over 640 keys"
    );
}

/// A warmed `send` into a reused buffer, and a warmed `resolve`, make only
/// the resolution's own allocations (reallocations — the result `Vec`'s
/// growth — aside): the scope has no sub-spaces, so one shard is locked
/// with no lock-set bookkeeping, and the delivery's `Route` shares the
/// pattern's compiled body instead of copying it.
#[test]
fn warmed_sends_and_resolves_allocate_at_most_twice() {
    let (reg, space) = replicas(64);
    let mut out = Vec::new();
    for pat in [pattern("svc/r7"), pattern("svc/*")] {
        reg.send(&pat, space, 0, &mut out).unwrap();
        out.clear();
        let (d, allocs, _) = counted(|| reg.send(&pat, space, 1, &mut out).unwrap());
        assert_eq!(d, Disposition::Delivered(1));
        assert!(
            allocs <= 2,
            "a warmed send of {pat} allocated {allocs} times"
        );
        let (found, allocs, _) = counted(|| reg.resolve(&pat, space).unwrap());
        assert!(!found.is_empty());
        assert!(
            allocs <= 2,
            "a warmed resolve of {pat} allocated {allocs} times"
        );
    }
}

/// The scope's resolution memo answers a repeated send through one
/// compiled pattern: no walk, no result `Vec`, no allocation. (`resolve`
/// is never memoized; the tests above count its walk.)
#[test]
fn a_memoized_wildcard_send_allocates_nothing() {
    for n in [64, 640] {
        let (reg, space) = replicas(n);
        let pat = pattern("svc/*");
        let mut out = Vec::new();
        reg.send(&pat, space, 0, &mut out).unwrap();
        out.clear();
        let (d, allocs, reallocs) = counted(|| reg.send(&pat, space, 1, &mut out).unwrap());
        assert_eq!(d, Disposition::Delivered(1));
        assert_eq!(
            (allocs, reallocs),
            (0, 0),
            "a memoized svc/* send over {n} replicas allocated"
        );
    }
}
