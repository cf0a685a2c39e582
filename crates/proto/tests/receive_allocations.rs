//! A receiver keeps every payload once, in its decoder's slab: it allocates
//! per download, not per datagram, and the finished file is the slab itself.
//! That holds for a carousel receiver and for a rateless one, and a session
//! whose file the allocator cannot reserve is refused, not aborted.
//!
//! A sender keeps its session in a few flat buffers: the code's graphs as
//! offset and neighbour arrays, and the encoding (a carousel's `n` rows, a
//! rateless session's source and precode rows) in one slab the file is
//! copied into once.  So `ServerSession::new` makes a bounded number of
//! allocations however many packets the file has: at most
//! [`SETUP_ALLOCATIONS`] for a 4 MiB file in 1 KiB packets, carousel or
//! Raptor, where one per packet or graph node would be thousands.  A
//! rateless sender then XORs each symbol straight into its datagram: a
//! round of `poll_transmit` allocates the datagrams it frames and nothing
//! per symbol.
//!
//! A counting global allocator tallies what the *current thread* allocates
//! while a test has counting switched on (the harness runs tests on parallel
//! threads, so the counters are thread-local), and can be told to refuse
//! large blocks.  Every datagram is framed before counting starts, so what
//! a receiver test counts is `handle_datagram` alone; a sender test counts
//! `ServerSession::new` or `poll_transmit` alone, its file generated before.

use bytes::Bytes;
use df_proto::{ClientEvent, ClientSession, RatelessMode, ServerSession, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread made since counting started; `None` while
    /// not counting.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
    /// `(size, address)`: the size of block to watch for, and where this
    /// thread first got a block of exactly that size (0 until it does).
    static WATCH: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// Blocks of this many bytes or more are refused on this thread.
    static REFUSE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Whether this thread refuses a block of `size` bytes.
fn refused(size: usize) -> bool {
    REFUSE_FROM
        .try_with(|limit| size >= limit.get())
        .unwrap_or(false)
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
        if refused(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        note(layout.size(), ptr);
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if refused(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        note(layout.size(), ptr);
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if refused(new_size) {
            return std::ptr::null_mut();
        }
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
    let config = SessionConfig {
        packet_size: packet,
        layers,
        code_seed: 0x5eed,
        ..SessionConfig::default()
    };
    session(k, config, loss, count)
}

/// [`carousel`]'s file streamed by a one-group Raptor session instead.
fn raptor(
    (k, packet): (usize, usize),
    loss: f64,
    count: usize,
) -> (Vec<u8>, ServerSession, Vec<Bytes>) {
    let config = SessionConfig {
        packet_size: packet,
        code_seed: 0x5eed,
        rateless: RatelessMode::Raptor,
        ..SessionConfig::default()
    };
    session(k, config, loss, count)
}

/// A file of `k` packets of `config.packet_size` bytes whose last one is
/// short, the session sending it, and the first `count` datagrams it sends
/// — each lost with probability `loss` (seeded).
fn session(
    k: usize,
    config: SessionConfig,
    loss: f64,
    count: usize,
) -> (Vec<u8>, ServerSession, Vec<Bytes>) {
    let packet = config.packet_size;
    let data: Vec<u8> = (0..k * packet - packet / 3)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
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

#[test]
fn a_lossy_raptor_receiver_allocates_per_download_and_its_file_is_its_store() {
    // Sizes a Miri run can afford.
    const K: usize = if cfg!(miri) { 64 } else { 1024 };
    let size = (K, if cfg!(miri) { 16 } else { 256 });
    let (data, server, datagrams) = raptor(size, 0.1, 2 * K);
    // The same stream twice, the second time with every datagram fed three
    // times: three times the datagrams, and what the receiver allocates must
    // not grow with them.
    let mut allocations = Vec::new();
    for repeats in [1, 3] {
        let (mut client, slab) = receiver(&server);
        let ((fed, made), slab) = watching(slab, || {
            counting(|| {
                let mut fed = 0;
                for datagram in &datagrams {
                    for _ in 0..repeats {
                        fed += 1;
                        if client.handle_datagram(datagram.clone()) == ClientEvent::Complete {
                            return fed;
                        }
                    }
                }
                fed
            })
        });
        assert!(client.is_complete(), "two k of symbols decode");
        assert!(fed > K * repeats, "{fed} datagrams fed");
        assert_ne!(slab, 0, "the first datagram reserves the file");
        let file = client.file().expect("complete");
        assert_eq!(file, &data[..]);
        assert_eq!(
            file.as_ptr() as usize,
            slab,
            "the file is the decoder's store, not a copy"
        );
        assert_eq!(client.held_packets(), 0);
        assert_eq!(client.stats().rejected(), 0);
        allocations.push((fed, made));
    }
    // What the decoder allocates is a few dozen buffers — the file, the
    // row slots, the equation arena, the node pool, the dense system —
    // each grown by doubling to what the download holds at once: about 60
    // at k = 64 and 100 at k = 1024, where one per datagram would be 1 000.
    for &(fed, made) in &allocations {
        assert!(
            made <= 64 + K / 8,
            "{made} allocations over {fed} datagrams at k = {K}"
        );
    }
    assert_eq!(
        allocations[0].1, allocations[1].1,
        "three times the datagrams, the same allocations: {allocations:?}"
    );
}

#[test]
fn a_rateless_session_whose_file_cannot_be_reserved_is_refused_at_the_first_symbol() {
    // The control reply announces k × P bytes of file; the receiver reserves
    // them at the first symbol, and an allocator that cannot give them makes
    // that symbol a refusal, not an abort.
    let (k, packet) = (64, 512);
    let (data, server, datagrams) = raptor((k, packet), 0.0, 2 * k);
    let (mut client, slab) = receiver(&server);
    // The precode's checks, held as equations from the start.
    let held = client.held_packets();
    REFUSE_FROM.with(|limit| limit.set(slab));
    let events: Vec<ClientEvent> = datagrams[..3]
        .iter()
        .map(|datagram| client.handle_datagram(datagram.clone()))
        .collect();
    REFUSE_FROM.with(|limit| limit.set(usize::MAX));
    assert_eq!(events, [ClientEvent::Rejected; 3]);
    assert_eq!(client.stats().rejected(), 3);
    assert_eq!(client.held_packets(), held, "nothing was kept");
    // Once the allocator can give the file, the same session downloads it.
    for datagram in datagrams {
        if client.handle_datagram(datagram) == ClientEvent::Complete {
            break;
        }
    }
    assert_eq!(client.file(), Some(&data[..]));
}

/// Most allocations `ServerSession::new` may make for one session.
const SETUP_ALLOCATIONS: usize = 128;

/// What `ServerSession::new` allocates for a `len`-byte file under
/// `config`.  Each caller passes a code seed no other test uses, so the
/// count includes building the code rather than finding it live.
fn setup_allocations(len: usize, config: SessionConfig) -> usize {
    let data: Vec<u8> = (0..len)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    let (server, made) = counting(|| ServerSession::new(&data, config).expect("session encodes"));
    assert_eq!(server.control_info().file_len, len);
    made
}

/// A four-group Tornado A carousel and a Raptor stream of 1 KiB packets,
/// code seed `seed`.
fn senders(seed: u64) -> [SessionConfig; 2] {
    let carousel = SessionConfig {
        packet_size: 1024,
        layers: 4,
        code_seed: seed,
        ..SessionConfig::default()
    };
    let raptor = SessionConfig {
        layers: 1,
        rateless: RatelessMode::Raptor,
        ..carousel
    };
    [carousel, raptor]
}

#[test]
#[cfg_attr(
    miri,
    ignore = "encodes two 4 MiB files; intractable under the Miri interpreter"
)]
fn a_four_mib_session_is_set_up_in_a_bounded_number_of_allocations() {
    for config in senders(0x5e7_0004) {
        let made = setup_allocations(4 << 20, config);
        assert!(
            made <= SETUP_ALLOCATIONS,
            "{made} allocations to set up a 4 MiB {:?} session",
            config.rateless
        );
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "two rounds of a 1024-symbol session; intractable under the Miri interpreter"
)]
fn a_rateless_sender_allocates_only_the_datagrams_it_sends() {
    // Each symbol is XORed straight into the datagram it is sent in, so a
    // round of `k` symbols allocates what framing `k` datagrams does — each
    // datagram's buffer and the `Bytes` that shares it — and nothing per
    // symbol besides.  The first round also grows the equation scratch, a
    // few times, to the widest equation it meets; the second reuses it.
    const K: usize = 1024;
    for (rateless, growth) in [(RatelessMode::Lt, 7), (RatelessMode::Raptor, 6)] {
        let config = SessionConfig {
            packet_size: 256,
            code_seed: 0x5eed,
            rateless,
            ..SessionConfig::default()
        };
        let (_, mut server, _) = session(K, config, 0.0, 0);
        for expected in [2 * K + growth, 2 * K] {
            let (sent, made) = counting(|| {
                let mut sent = 0;
                while server.poll_transmit().is_some() {
                    sent += 1;
                }
                sent
            });
            server.advance_round();
            assert_eq!(sent, K, "a round is k symbols");
            assert_eq!(
                made, expected,
                "{rateless:?}: {made} allocations over {sent} datagrams"
            );
        }
    }
}

#[test]
fn a_64_kib_session_is_set_up_in_as_few_allocations() {
    for config in senders(0x5e7_0064) {
        let made = setup_allocations(64 << 10, config);
        assert!(
            made <= SETUP_ALLOCATIONS,
            "{made} allocations to set up a 64 KiB {:?} session",
            config.rateless
        );
    }
}
