//! Allocation count of a cross-node pattern send.
//!
//! Over zero-delay links a whole cross-node `svc/*` send runs on the
//! calling thread: resolution against the local replica, encoding, the
//! reliable pipe's journal, the destination's decode and mailbox push, and
//! the ack that clears the journal. This binary installs a counting global
//! allocator (its own test binary, so no other test runs under it) and
//! pins the per-thread allocations of one warmed send. Counts are per
//! thread, so the destination's worker running the behavior, and the
//! harness's other threads, do not disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use actorspace_atoms::path;
use actorspace_core::Disposition;
use actorspace_net::{Cluster, ClusterConfig, LinkConfig};
use actorspace_obs::{Obs, ObsConfig};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, Value};

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

const TIMEOUT: Duration = Duration::from_secs(20);

/// Allocations of one warmed cross-node `svc/*` send over 64 replicas:
/// none for the resolution, which the scope's resolution memo answers
/// (as `actorspace-core`'s `alloc_free.rs` pins), 1 for the delivery
/// buffer the runtime's `with_registry` hands out, 1 for the encoded bytes
/// and 1 for the `Arc` the journal shares them through. Decoding an
/// integer message allocates nothing. The same send reallocates nothing:
/// a memoized resolution grows no result `Vec`. Lowering a count is
/// progress; raising one needs a reason.
const SEND_ALLOCS: usize = 3;

#[test]
fn warmed_cross_node_send_allocation_count() {
    let zero = LinkConfig {
        latency: Duration::ZERO,
        ..LinkConfig::ideal()
    };
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 1,
        data_link: zero.clone(),
        bus_link: zero,
        // Untraced: a sampled send records trace events, which allocate.
        obs: Some(Obs::shared(ObsConfig::off())),
        ..ClusterConfig::default()
    });
    let space = c.node(0).create_space(None);
    assert!(c.await_coherence(TIMEOUT));
    for r in 0..64 {
        let a = c.node(1).spawn(from_fn(|_, _| {}));
        c.node(1)
            .make_visible(a, &path(&format!("svc/r{r}")), space, None)
            .unwrap();
    }
    assert!(c.await_coherence(TIMEOUT));
    let pat = pattern("svc/*");
    let node = c.node(0);
    for _ in 0..1_000 {
        node.send_pattern(&pat, space, Value::int(0)).unwrap();
    }
    let dest = c.node(1).system();
    for i in 0..200 {
        // Drained destination queues: a backlog's growth is not the send's.
        assert!(dest.await_idle(TIMEOUT));
        let (d, allocs, reallocs) = counted(|| node.send_pattern(&pat, space, Value::int(i)));
        assert_eq!(d.unwrap(), Disposition::Delivered(1));
        assert!(
            allocs <= SEND_ALLOCS && reallocs == 0,
            "a warmed cross-node svc/* send made {allocs} allocations and \
             {reallocs} reallocations (pinned: {SEND_ALLOCS} and 0)"
        );
    }
    assert!(c.await_quiescence(TIMEOUT));
    assert_eq!(c.node(0).stats().forwarded, 1_200);
}
