//! Exhaustive model-check of df-proto's cross-thread structures under the
//! `loom` shim (`shims/loom`): the [`SimMulticast`] channel's
//! join/leave/send/recv interplay, across **every** interleaving within the
//! branch budget — not the schedule the OS happened to pick.  (The driver's
//! control plane talks to its shards over `std::sync::mpsc` channels, which
//! this crate does not implement and so does not model-check.)
//!
//! Build and run with `RUSTFLAGS="--cfg df_check" cargo test -p df-proto
//! --test model_check` — the CI `model-check` job does exactly this.  Under
//! that cfg `crate::sync` resolves `Arc`/`Mutex`/`atomic` to the loom shim,
//! so every lock and atomic operation is a schedule point.
//!
//! Flake guard: every test runs through [`checked`], which sets an explicit
//! `max_branches` cap (blow-ups fail loudly as "exploration truncated"
//! instead of hanging CI) and asserts the explored count stays under half the
//! cap so growth is caught while runs are still fast.  All consumer loops are
//! bounded — unbounded spin loops diverge the DPOR search (see the loom shim
//! crate docs).
#![cfg(df_check)]

use bytes::Bytes;
use df_proto::transport::{SimMulticast, Transport};
use loom::model::Builder;
use loom::thread;

fn checked(max_branches: usize, f: impl Fn() + Send + Sync + 'static) {
    let explored = Builder {
        max_branches,
        ..Builder::new()
    }
    .explored(f);
    assert!(
        explored <= max_branches / 2,
        "state space grew to {explored} schedules (cap {max_branches}); \
         shrink the test or justify a bigger cap"
    );
}

/// A subscribed receiver racing a two-datagram sender: lossless channel, so
/// both datagrams arrive, in send order, exactly once — whatever the
/// interleaving of sends and concurrent receives.
#[test]
fn sim_multicast_send_recv_fifo() {
    checked(60_000, || {
        let net = SimMulticast::new(7);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(0).unwrap();
        let sender = thread::spawn(move || {
            tx.send(0, Bytes::from_static(b"a"));
            tx.send(0, Bytes::from_static(b"b"));
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Some((group, data)) = rx.recv() {
                assert_eq!(group, 0);
                got.push(data);
            }
        }
        sender.join().unwrap();
        while let Some((_, data)) = rx.recv() {
            got.push(data);
        }
        assert_eq!(
            got.len(),
            2,
            "lossless channel lost or duplicated a datagram"
        );
        assert_eq!(&got[0][..], b"a", "datagrams reordered");
        assert_eq!(&got[1][..], b"b", "datagrams reordered");
        assert_eq!(net.sent(), 2);
        assert_eq!(net.delivered(), 2);
    });
}

/// Join racing a send: the datagram is either delivered (join won) or cleanly
/// missed (send won) — never torn state — and the channel's delivered counter
/// always agrees with what the receiver drained.  The subsequent leave is
/// then absolute: nothing sent after it arrives.
#[test]
fn sim_multicast_join_leave_vs_send() {
    checked(40_000, || {
        let net = SimMulticast::new(3);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        let sender = thread::spawn(move || {
            tx.send(0, Bytes::from_static(b"racing"));
            tx
        });
        rx.join(0).unwrap();
        let mut tx = sender.join().unwrap();
        let drained = std::iter::from_fn(|| rx.recv()).count() as u64;
        assert!(drained <= 1, "one send delivered twice");
        assert_eq!(
            net.delivered(),
            drained,
            "delivery counter disagrees with queue"
        );
        rx.leave(0);
        tx.send(0, Bytes::from_static(b"after leave"));
        assert!(rx.recv().is_none(), "datagram delivered after leave");
        assert_eq!(net.sent(), 2);
    });
}

/// Two endpoints registering (and joining) concurrently get distinct receiver
/// slots: a datagram sent afterwards reaches both, and neither registration
/// clobbered the other.
#[test]
fn sim_multicast_concurrent_endpoint_registration() {
    checked(40_000, || {
        let net = SimMulticast::new(11);
        let n1 = net.clone();
        let n2 = net.clone();
        let t1 = thread::spawn(move || {
            let mut ep = n1.endpoint(0.0);
            ep.join(0).unwrap();
            ep
        });
        let t2 = thread::spawn(move || {
            let mut ep = n2.endpoint(0.0);
            ep.join(0).unwrap();
            ep
        });
        let mut ep1 = t1.join().unwrap();
        let mut ep2 = t2.join().unwrap();
        let mut tx = net.endpoint(0.0);
        tx.send(0, Bytes::from_static(b"both"));
        for ep in [&mut ep1, &mut ep2] {
            let (group, data) = ep.recv().expect("registration race dropped a receiver");
            assert_eq!(group, 0);
            assert_eq!(&data[..], b"both");
        }
        assert_eq!(net.delivered(), 2);
    });
}
