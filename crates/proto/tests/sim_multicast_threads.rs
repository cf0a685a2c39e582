//! [`SimMulticast`] shared between real threads: the properties the
//! model-check suite (`model_check.rs`) explores exhaustively on a few
//! operations, here stressed on many with `std::thread`.  CI runs this file
//! under ThreadSanitizer, which sees every lock the channel takes.
//!
//! * per-endpoint FIFO: each sender's datagrams reach a receiver in send
//!   order, exactly once, while it reads concurrently;
//! * join and leave racing sends: a datagram is delivered or cleanly
//!   missed, the channel's delivery count matches what was drained, and
//!   nothing sent after the last leave arrives;
//! * concurrent endpoint registration: every endpoint gets its own slot.
#![cfg(not(df_check))]

use bytes::Bytes;
use df_proto::transport::{SimMulticast, Transport};
use std::sync::{Arc, Barrier};
use std::thread;

/// Datagram `seq` of sender `from`.
fn datagram(from: u8, seq: u32) -> Bytes {
    let mut bytes = vec![from];
    bytes.extend_from_slice(&seq.to_le_bytes());
    Bytes::from(bytes)
}

fn parse(datagram: &[u8]) -> (usize, u32) {
    let seq = u32::from_le_bytes(datagram[1..5].try_into().unwrap());
    (usize::from(datagram[0]), seq)
}

#[test]
fn each_senders_datagrams_arrive_in_order_exactly_once() {
    const SENDERS: u8 = 2;
    const PER_SENDER: u32 = 2_000;
    let net = SimMulticast::new(7);
    let mut rx = net.endpoint(0.0);
    rx.join(0).unwrap();
    let start = Arc::new(Barrier::new(usize::from(SENDERS) + 1));
    let senders: Vec<_> = (0..SENDERS)
        .map(|from| {
            let mut tx = net.endpoint(0.0);
            let start = start.clone();
            thread::spawn(move || {
                start.wait();
                for seq in 0..PER_SENDER {
                    tx.send(0, datagram(from, seq));
                }
            })
        })
        .collect();
    start.wait();
    let mut next = [0u32; SENDERS as usize];
    let total = u64::from(SENDERS) * u64::from(PER_SENDER);
    let mut received = 0u64;
    while received < total {
        let Some((group, data)) = rx.recv() else {
            thread::yield_now();
            continue;
        };
        assert_eq!(group, 0);
        let (from, seq) = parse(&data);
        assert_eq!(seq, next[from], "sender {from}: reordered or duplicated");
        next[from] += 1;
        received += 1;
    }
    for sender in senders {
        sender.join().unwrap();
    }
    assert!(rx.recv().is_none(), "more datagrams than were sent");
    assert_eq!(rx.pending(), 0);
    assert_eq!((net.sent(), net.delivered()), (total, total));
}

#[test]
fn join_and_leave_racing_sends_deliver_or_miss_cleanly() {
    const SENDS: u32 = 4_000;
    let net = SimMulticast::new(3);
    let mut tx = net.endpoint(0.0);
    let mut rx = net.endpoint(0.0);
    let start = Arc::new(Barrier::new(2));
    let sender = {
        let start = start.clone();
        thread::spawn(move || {
            start.wait();
            for seq in 0..SENDS {
                tx.send(0, datagram(0, seq));
            }
            tx
        })
    };
    start.wait();
    let mut last = None;
    let mut drained = 0u64;
    let mut drain = |rx: &mut df_proto::SimEndpoint| {
        while let Some((_, data)) = rx.recv() {
            let (_, seq) = parse(&data);
            assert!(last < Some(seq), "{seq} after {last:?}");
            last = Some(seq);
            drained += 1;
        }
    };
    for round in 0..200 {
        if round % 2 == 0 {
            rx.join(0).unwrap();
        } else {
            rx.leave(0);
        }
        drain(&mut rx);
    }
    let mut tx = sender.join().unwrap();
    rx.leave(0);
    drain(&mut rx);
    assert_eq!(net.delivered(), drained, "delivery count disagrees");
    tx.send(0, datagram(0, SENDS));
    assert!(rx.recv().is_none(), "delivered after the last leave");
    assert_eq!(net.sent(), u64::from(SENDS) + 1);
}

#[test]
fn endpoints_registered_concurrently_each_get_a_slot() {
    const THREADS: usize = 8;
    let net = SimMulticast::new(11);
    let start = Arc::new(Barrier::new(THREADS));
    let registrations: Vec<_> = (0..THREADS)
        .map(|_| {
            let net = net.clone();
            let start = start.clone();
            thread::spawn(move || {
                start.wait();
                let mut ep = net.endpoint(0.0);
                ep.join(0).unwrap();
                ep
            })
        })
        .collect();
    let mut endpoints: Vec<_> = registrations
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    net.endpoint(0.0).send(0, Bytes::from_static(b"all"));
    for ep in &mut endpoints {
        let (group, data) = ep.recv().expect("a registration was lost");
        assert_eq!((group, &data[..]), (0, &b"all"[..]));
        assert!(ep.recv().is_none());
    }
    assert_eq!(net.delivered(), THREADS as u64);
}
