//! A carousel receiver keeps every payload once, in its decoder's slab: it
//! allocates nothing per datagram, and the finished file is the slab itself.
//!
//! A counting global allocator tallies what the *current thread* allocates
//! while a test has counting switched on (the harness runs tests on parallel
//! threads, so the counters are thread-local).  Every datagram is framed
//! before counting starts, so what is counted is `handle_datagram` alone.

use bytes::Bytes;
use df_proto::{ClientEvent, ClientSession, ServerSession, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread made since counting started; `None` while
    /// not counting.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
    /// `(size, address)`: the size of block to watch for, and where this
    /// thread first got a block of exactly that size (0 until it does).
    static WATCH: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Count an allocation of `size` bytes at `ptr`.  Touches only `const`
/// thread-locals without destructors, which never allocate; `try_with`
/// keeps it quiet while a thread is being torn down.
fn note(size: usize, ptr: *mut u8) {
    let _ = COUNT.try_with(|count| count.set(count.get().map(|c| c + 1)));
    let _ = WATCH.try_with(|watch| {
        if watch.get() == (size, 0) {
            watch.set((size, ptr as usize));
        }
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the bookkeeping around the calls
// reads and writes thread-local `Cell`s only and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        note(layout.size(), ptr);
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        note(layout.size(), ptr);
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a block `System` handed out
        // (every block comes from the methods above), as the caller
        // guarantees for this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        note(new_size, moved);
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning what it returned and how many allocations this thread
/// made meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|count| count.set(Some(0)));
    let out = f();
    let made = COUNT.with(|count| count.replace(None)).unwrap_or(0);
    (out, made)
}

/// Run `f`, returning what it returned and the address of the first block
/// of exactly `size` bytes this thread allocated meanwhile (0 if none).
fn watching<T>(size: usize, f: impl FnOnce() -> T) -> (T, usize) {
    WATCH.with(|watch| watch.set((size, 0)));
    let out = f();
    let (_, address) = WATCH.with(|watch| watch.replace((0, 0)));
    (out, address)
}

/// A file of `k` packets of `packet` bytes whose last one is short, the
/// session carouselling it on `layers` groups, and the first `count`
/// datagrams it sends — each lost with probability `loss` (seeded).
fn carousel(
    (k, packet): (usize, usize),
    layers: usize,
    loss: f64,
    count: usize,
) -> (Vec<u8>, ServerSession, Vec<Bytes>) {
    let data: Vec<u8> = (0..k * packet - packet / 3)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    let config = SessionConfig {
        packet_size: packet,
        layers,
        code_seed: 0x5eed,
        ..SessionConfig::default()
    };
    let mut server = ServerSession::new(&data, config).expect("session encodes");
    let mut draws = 0x9e37_79b9_7f4a_7c15u64;
    let mut datagrams = Vec::with_capacity(count);
    while datagrams.len() < count {
        let Some((_group, datagram)) = server.poll_transmit() else {
            server.advance_round();
            continue;
        };
        draws = draws
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if ((draws >> 11) as f64) / ((1u64 << 53) as f64) >= loss {
            datagrams.push(datagram);
        }
    }
    (data, server, datagrams)
}

/// A receiver of `server`'s session, and the size of its slab: the block of
/// `k × packet` bytes its decoder reserves at the first datagram.
fn receiver(server: &ServerSession) -> (ClientSession, usize) {
    let control = server.control_info().clone();
    let slab = control.k * control.packet_size;
    let client = ClientSession::new(control).expect("control info is valid");
    (client, slab)
}

#[test]
fn a_lossless_receiver_allocates_nothing_per_datagram_and_its_file_is_its_slab() {
    // Sizes a Miri run can afford.
    const K: usize = if cfg!(miri) { 64 } else { 1024 };
    let size = (K, if cfg!(miri) { 16 } else { 512 });
    let (data, server, datagrams) = carousel(size, 1, 0.0, K);
    let (mut client, slab) = receiver(&server);
    let ((events, made), slab) = watching(slab, || {
        counting(|| {
            datagrams
                .into_iter()
                .map(|datagram| client.handle_datagram(datagram))
                .collect::<Vec<_>>()
        })
    });
    assert_ne!(slab, 0, "the first datagram reserves the slab");
    // The slab is one of them, and the one vector above is the test's own.
    assert!(made <= 8, "{made} allocations over {K} datagrams");
    assert_eq!(events.last(), Some(&ClientEvent::Complete));
    let file = client.file().expect("complete");
    assert_eq!(file, &data[..]);
    assert_eq!(
        file.as_ptr() as usize,
        slab,
        "the file is the slab, not a copy"
    );
    assert_eq!(client.held_packets(), 0);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "three carousel cycles of a lossy receiver; intractable under the Miri interpreter"
)]
fn a_lossy_four_group_receiver_allocates_for_check_rows_only() {
    // What it allocates is the check-row buffer as it grows and, once, the
    // final level's MDS solve (up to two rows per last-level packet, a
    // constant 128 for Tornado A); neither grows with k.
    const K: usize = 4096;
    let (data, server, datagrams) = carousel((K, 64), 4, 0.1, 3 * 2 * K);
    let (mut client, slab) = receiver(&server);
    let ((fed, made), slab) = watching(slab, || {
        counting(|| {
            let mut fed = 0;
            for datagram in datagrams {
                fed += 1;
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break;
                }
            }
            fed
        })
    });
    assert!(client.is_complete(), "three cycles decode");
    assert!(
        made < K / 8,
        "{made} allocations over {fed} datagrams at k = {K}"
    );
    let file = client.file().expect("complete");
    assert_eq!(file, &data[..]);
    assert_eq!(
        file.as_ptr() as usize,
        slab,
        "the file is the slab, not a copy"
    );
}
