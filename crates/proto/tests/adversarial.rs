//! Adversarial receive-path tests: everything here feeds the client and the
//! control parser hostile input — random noise, truncations, bit flips,
//! forged headers, cross-session spoofs — and asserts the two robustness
//! invariants the sessions advertise:
//!
//! 1. **No panic.**  `ClientSession::handle_datagram` and the control-channel
//!    parsers are total functions over arbitrary bytes.
//! 2. **Bounded memory.**  However many forged-but-plausible datagrams
//!    arrive, the client never holds more than [`ClientSession::buffer_cap`]
//!    payloads: a carousel's `n` by construction (nothing is refused, the
//!    index space is the bound), a rateless session's equation cap by a
//!    counted [`ClientEvent::Rejected`].
//!
//! Iteration counts are fixed and the RNG is seeded, so this doubles as the
//! CI fuzz smoke: deterministic, a few seconds, no corpus to manage.

use bytes::Bytes;
use df_core::{LtEncoder, PacketizedFile, LT_DEFAULT_C, LT_DEFAULT_DELTA};
use df_proto::{
    seed_to_words, ClientEvent, ClientSession, ControlRequest, ControlResponse, DataPacket,
    FountainServer, PacketHeader, RatelessMode, RatelessReceiver, ServerSession, SessionConfig,
    HEADER_LEN,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn random_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn client_for(data: &[u8], layers: usize, seed: u64) -> (ServerSession, ClientSession) {
    let server = ServerSession::with_defaults(data, layers, seed).unwrap();
    let client = ClientSession::new(server.control_info().clone()).unwrap();
    (server, client)
}

/// The memory invariant checked after every hostile datagram: the payloads
/// the decode machinery holds never exceed the cap.
fn assert_bounded(client: &ClientSession) {
    assert!(
        client.held_packets() <= client.buffer_cap(),
        "memory bound violated: {} held > cap {}",
        client.held_packets(),
        client.buffer_cap()
    );
}

#[test]
fn random_noise_never_panics_the_client_and_is_ignored() {
    let data = random_file(40_000, 1);
    let (_server, mut client) = client_for(&data, 2, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(0xda7a);
    for _ in 0..4_000 {
        let len = rng.gen_range(0..700usize);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let event = client.handle_datagram(Bytes::from(noise));
        // Noise may collide with a plausible header, so Buffered/Rejected
        // are legal; a decode state transition is not.
        assert!(
            !matches!(event, ClientEvent::Complete | ClientEvent::Join { .. }),
            "noise must never complete a download or trigger a join: {event:?}"
        );
        assert_bounded(&client);
    }
    assert!(!client.is_complete());
    assert!(client.file().is_none());
}

#[test]
fn truncations_and_bit_flips_of_honest_packets_never_panic() {
    let data = random_file(60_000, 2);
    let (mut server, mut client) = client_for(&data, 1, 13);
    let mut rng = ChaCha8Rng::seed_from_u64(0xb17f);
    // Collect a round of honest datagrams to mutate.
    let mut honest = Vec::new();
    while let Some((_group, dgram)) = server.poll_transmit() {
        honest.push(dgram);
        if server.round_complete() {
            break;
        }
    }
    assert!(!honest.is_empty());
    for i in 0..6_000 {
        let base = &honest[i % honest.len()];
        let mut bytes = base.to_vec();
        match i % 3 {
            // Truncate anywhere, including mid-header and to zero length.
            0 => bytes.truncate(rng.gen_range(0..bytes.len())),
            // Flip a bit in the serial/group header fields.  (Payload and
            // packet-index corruption is deliberately out of scope: the
            // paper's packets carry no integrity tag beyond the UDP
            // checksum, so a flipped payload is indistinguishable from an
            // honest one and would corrupt the decode by design.)
            1 => {
                let at = rng.gen_range(4..HEADER_LEN);
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            // Rewrite the header with wild values; keep the payload.
            _ => {
                let forged = PacketHeader {
                    packet_index: rng.gen(),
                    serial: rng.gen(),
                    group: rng.gen(),
                };
                bytes[..HEADER_LEN].copy_from_slice(&forged.encode());
            }
        }
        client.handle_datagram(Bytes::from(bytes));
        assert_bounded(&client);
    }
    // The session must still be able to finish from honest traffic alone.
    let mut tries = 0;
    while !client.is_complete() && tries < 200_000 {
        if let Some((_group, dgram)) = server.poll_transmit() {
            client.handle_datagram(dgram);
        }
        if server.round_complete() {
            server.advance_round();
        }
        tries += 1;
    }
    assert!(client.is_complete(), "mutated traffic poisoned the session");
    assert_eq!(client.file().unwrap(), &data[..]);
}

#[test]
fn a_forged_flood_of_plausible_packets_stays_within_the_memory_bound() {
    // Datagrams that parse fine (valid index range, right payload length)
    // but carry garbage payloads: the worst case for memory, because every
    // one is "new".  A carousel refuses none of them — a refusal is what
    // would stall an honest receiver — so the bound is the index space: at
    // most `n` payloads, checked at every step of a flood that sends all `n`.
    let data = random_file(100_000, 3);
    let (server, mut client) = client_for(&data, 1, 17);
    let k = server.control_info().k as u32;
    let n = server.control_info().n as u32;
    let payload_len = server.control_info().packet_size;
    let base_group = server.control_info().base_group;
    let mut rng = ChaCha8Rng::seed_from_u64(0xf100d);
    let frame = |index: u32, serial: u32, rng: &mut ChaCha8Rng| {
        let header = PacketHeader {
            packet_index: index,
            serial,
            group: base_group,
        };
        let junk: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
        DataPacket::frame(&header, &junk)
    };
    assert_eq!(client.buffer_cap(), n as usize);
    // Phase 1: check-packet indices only, each twice.  Every repeat is
    // dropped as a duplicate before the decoder sees it.
    for lap in 0..2u32 {
        for index in k..n {
            let event = client.handle_datagram(frame(index, index, &mut rng));
            if lap == 1 {
                assert_eq!(event, ClientEvent::Duplicate);
            }
            assert_bounded(&client);
        }
    }
    assert_eq!(client.stats().distinct(), (n - k) as usize);
    assert!(client.held_packets() >= (n - k) as usize);
    assert!(!client.is_complete(), "check packets alone cannot decode");
    // Phase 2: sweep the source indices too.  The bound must hold at every
    // step; whatever the decoder does with forged payloads (the wire format
    // has no integrity tag, so a structural completion over garbage is
    // legal), it must never hoard memory past the cap.
    for index in 0..k {
        client.handle_datagram(frame(index, n + index, &mut rng));
        assert_bounded(&client);
    }
    assert_eq!(client.stats().rejected(), 0, "a carousel refuses nothing");
}

#[test]
fn cross_session_spoofs_are_ignored_wholesale() {
    // Packets from a *different* session — wrong groups, wrong code — must
    // neither count as progress nor consume the victim's packet buffer.
    let data_a = random_file(50_000, 4);
    let data_b = random_file(50_000, 5);
    let (mut server_b, _) = client_for(&data_b, 3, 23);
    let (_server_a, mut client_a) = client_for(&data_a, 3, 19);
    let received_before = client_a.stats().received();
    for _ in 0..20 {
        while let Some((group, dgram)) = server_b.poll_transmit() {
            // Re-tag with B's shifted group numbering.
            let mut packet = DataPacket::from_bytes(dgram).unwrap();
            packet.header.group = group + 100;
            let event = client_a.handle_datagram(packet.to_bytes());
            assert_eq!(
                event,
                ClientEvent::Ignored,
                "foreign-group traffic must be ignored"
            );
            assert_bounded(&client_a);
        }
        server_b.advance_round();
    }
    assert_eq!(client_a.stats().received(), received_before);
    assert_eq!(client_a.held_packets(), 0);
}

#[test]
fn wild_serials_cannot_poison_the_layered_controller() {
    // A layered client fed forged serials from the far future and the far
    // past, interleaved with honest traffic: it must neither panic nor leak
    // memory, and must still finish the download.
    let data = random_file(80_000, 6);
    let (mut server, mut client) = client_for(&data, 4, 29);
    let payload_len = server.control_info().packet_size;
    let base_group = server.control_info().base_group;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e71a);
    let mut rounds = 0;
    while !client.is_complete() && rounds < 3_000 {
        while let Some((_group, dgram)) = server.poll_transmit() {
            client.handle_datagram(dgram);
            if client.is_complete() {
                break;
            }
        }
        server.advance_round();
        rounds += 1;
        // Every few rounds, a forged serial barrage on a subscribed group.
        if rounds % 5 == 0 {
            for _ in 0..30 {
                let header = PacketHeader {
                    packet_index: rng.gen(),
                    serial: if rng.gen_bool(0.5) { rng.gen() } else { 0 },
                    group: base_group,
                };
                let junk: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
                client.handle_datagram(DataPacket::frame(&header, &junk));
                assert_bounded(&client);
            }
        }
    }
    assert!(client.is_complete(), "forged serials starved the download");
    assert_eq!(client.file().unwrap(), &data[..]);
}

#[test]
fn control_parsers_are_total_over_random_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0471);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..256usize);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // Totality is the assertion: these must return, not panic.
        let _ = ControlRequest::from_bytes(&noise);
        let _ = ControlResponse::from_bytes(&noise);
    }
}

#[test]
fn mutated_control_round_trips_parse_or_reject_but_never_panic() {
    // Start from well-formed frames and corrupt them: every mutation either
    // still parses (benign flip) or is cleanly rejected.
    let data = random_file(30_000, 7);
    let mut server = FountainServer::new();
    server.add_session(&data, SessionConfig::default()).unwrap();
    let frames: Vec<Bytes> = vec![
        ControlRequest::ListSessions.to_bytes(),
        ControlRequest::Describe { session_id: 0 }.to_bytes(),
        server
            .handle_control(&ControlRequest::ListSessions)
            .to_bytes(),
        server
            .handle_control(&ControlRequest::Describe { session_id: 0 })
            .to_bytes(),
        ControlResponse::BadRequest.to_bytes(),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0xbadc0de);
    for i in 0..12_000 {
        let base = &frames[i % frames.len()];
        let mut bytes = base.to_vec();
        match i % 4 {
            0 => bytes.truncate(rng.gen_range(0..bytes.len())),
            1 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            2 => {
                // Append trailing garbage; the framing demands exact length.
                let extra = rng.gen_range(1..16usize);
                bytes.extend((0..extra).map(|_| rng.gen::<u8>()));
                assert_eq!(
                    ControlRequest::from_bytes(&bytes),
                    None,
                    "oversized request frames must be rejected"
                );
            }
            _ => {
                // Splice two frames together.
                let other = &frames[(i + 1) % frames.len()];
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
                bytes.extend_from_slice(other);
            }
        }
        let _ = ControlRequest::from_bytes(&bytes);
        let _ = ControlResponse::from_bytes(&bytes);
        // The server's own datagram entry point must answer every mutation
        // with a parseable response (BadRequest for the rejects).
        let reply = server.handle_control_datagram(&bytes);
        assert!(
            ControlResponse::from_bytes(&reply).is_some(),
            "the control server must always answer with a well-formed frame"
        );
    }
}

fn rateless_pair(
    data: &[u8],
    mode: RatelessMode,
    code_seed: u64,
) -> (ServerSession, ClientSession) {
    let server = ServerSession::new(
        data,
        SessionConfig {
            rateless: mode,
            code_seed,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let client = ClientSession::new(server.control_info().clone()).unwrap();
    (server, client)
}

/// Frame a rateless datagram for an attacker-chosen seed.
fn seed_frame(seed: u64, group: u32, payload: &[u8]) -> Bytes {
    let (hi, lo) = seed_to_words(seed);
    let header = PacketHeader {
        packet_index: hi,
        serial: lo,
        group,
    };
    DataPacket::frame(&header, payload)
}

#[test]
fn rateless_absurd_degree_floods_hit_the_edge_cap_not_the_heap() {
    // The control channel announces the LT stream seed, so an attacker can
    // grind the seed space for equations of absurd degree: each one parks
    // ~degree edges in the decoder and — with no degree-1 symbol ever
    // arriving — nothing peels, so the equation buffer only grows.  The edge
    // cap must refuse the flood (`ClientEvent::Rejected`) while the buffered
    // state is still far too small for a structural completion over garbage.
    let data = random_file(50_000, 9); // k = 100
    let (server, mut client) = rateless_pair(&data, RatelessMode::Lt, 41);
    let info = server.control_info().clone();
    assert_eq!(info.k, 100);
    // Reconstruct the seed → equation derivation exactly as the session does,
    // and a bare receiver to read the cap geometry off.
    let enc = LtEncoder::new(info.k, LT_DEFAULT_C, LT_DEFAULT_DELTA, info.code_seed).unwrap();
    let mirror = RatelessReceiver::for_lt(info.k, info.packet_size, info.code_seed).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xc4b5);
    let mut flood = Vec::new();
    let mut edges = 0usize;
    let mut seed = 0u64;
    while edges <= mirror.max_edges() + 256 {
        seed += 1;
        let degree = enc.equation(seed).neighbors.len();
        if degree >= 48 {
            edges += degree;
            flood.push(seed);
        }
    }
    // Sanity on the attack shape: the edge cap bites after far fewer
    // equations than either the equation cap or the `k` equations any
    // decode — honest or structural-over-garbage — would need.
    assert!(
        flood.len() < info.k,
        "flood of {} equations is too large to prove the edge cap fires first",
        flood.len()
    );
    let mut rejected = 0u64;
    for &seed in &flood {
        let junk: Vec<u8> = (0..info.packet_size).map(|_| rng.gen()).collect();
        match client.handle_datagram(seed_frame(seed, info.base_group, &junk)) {
            ClientEvent::Rejected => rejected += 1,
            ClientEvent::Buffered | ClientEvent::Duplicate => {}
            other => panic!("unexpected event under a high-degree flood: {other:?}"),
        }
        assert!(
            client.held_packets() <= client.buffer_cap(),
            "equation buffer outgrew its cap: {} > {}",
            client.held_packets(),
            client.buffer_cap()
        );
    }
    assert!(rejected > 0, "the edge cap never fired");
    assert_eq!(client.stats().rejected(), rejected);
    assert!(
        !client.is_complete(),
        "an underdetermined flood cannot decode"
    );
    // The same flood against the bare receiver, to watch the edge ledger
    // itself: once `at_capacity` trips, additions stop, so pending edges
    // can overshoot `max_edges` by at most one equation's degree (≤ k).
    let mut mirror = mirror;
    for &seed in &flood {
        if !mirror.at_capacity() {
            mirror.add(seed, vec![0u8; info.packet_size]);
        }
        assert!(mirror.pending_equations() <= mirror.max_equations());
        assert!(mirror.pending_edges() < mirror.max_edges() + info.k);
    }
    assert!(mirror.at_capacity(), "the mirror receiver never saturated");
}

#[test]
fn rateless_colliding_neighbor_sets_reduce_cleanly() {
    // Distinct seeds whose equations land on the *same* neighbor set: after
    // XOR reduction the second of each pair is the empty (degree-0) equation
    // — the closest an attacker can get to a degree-0 symbol, since the
    // soliton derivation itself never emits one.  With honest payloads the
    // residual is all-zero and must be dropped as a duplicate; the session
    // must then still finish cleanly from the ordinary stream.
    let data = random_file(30_000, 10); // k = 60
    let (mut server, mut client) = rateless_pair(&data, RatelessMode::Lt, 43);
    let info = server.control_info().clone();
    let enc = LtEncoder::new(info.k, LT_DEFAULT_C, LT_DEFAULT_DELTA, info.code_seed).unwrap();
    let file = PacketizedFile::split(&data, info.packet_size).unwrap();
    let mut buckets: BTreeMap<Vec<u32>, Vec<u64>> = BTreeMap::new();
    // Grind outside the server's own monotonic seed range so the honest
    // stream later delivers fresh seeds, not replays of the flood.
    for seed in 1_000_000..1_030_000u64 {
        let mut neighbors = enc.equation(seed).neighbors;
        neighbors.sort_unstable();
        buckets.entry(neighbors).or_default().push(seed);
    }
    let colliding: Vec<Vec<u64>> = buckets
        .into_values()
        .filter(|seeds| seeds.len() >= 2)
        .take(8)
        .collect();
    assert!(
        !colliding.is_empty(),
        "no neighbor-set collisions found in 30k seeds"
    );
    for group in &colliding {
        for &seed in group {
            let payload = enc.encode_symbol(seed, file.packets()).unwrap();
            let event = client.handle_datagram(seed_frame(seed, info.base_group, &payload));
            assert!(
                matches!(event, ClientEvent::Buffered | ClientEvent::Duplicate),
                "colliding seed {seed} produced {event:?}"
            );
            assert!(client.held_packets() <= client.buffer_cap());
        }
    }
    // Same collisions with *garbage* payloads against a fresh client: the
    // empty equation now carries a nonzero residual (an inconsistency no
    // honest stream can produce).  A handful of equations is far below any
    // completion, so the only legal outcomes are buffer/duplicate.
    let (_, mut poisoned) = rateless_pair(&data, RatelessMode::Lt, 43);
    let mut rng = ChaCha8Rng::seed_from_u64(0xdead);
    for group in &colliding {
        for &seed in group {
            let junk: Vec<u8> = (0..info.packet_size).map(|_| rng.gen()).collect();
            let event = poisoned.handle_datagram(seed_frame(seed, info.base_group, &junk));
            assert!(
                matches!(event, ClientEvent::Buffered | ClientEvent::Duplicate),
                "inconsistent empty equation produced {event:?}"
            );
        }
    }
    assert!(!poisoned.is_complete());
    // The first client saw only honestly-encoded payloads, so the ordinary
    // stream must still converge to the exact file.
    let mut rounds = 0;
    while !client.is_complete() {
        while let Some((_group, dgram)) = server.poll_transmit() {
            if client.handle_datagram(dgram) == ClientEvent::Complete {
                break;
            }
        }
        server.advance_round();
        rounds += 1;
        assert!(rounds < 50, "collision flood poisoned the session");
    }
    assert_eq!(client.file().unwrap(), &data[..]);
}

#[test]
fn rateless_sessions_are_total_over_forged_seeds_and_noise() {
    // Pure hostility, both modes: random seeds with garbage payloads,
    // wrong-length payloads, truncations and raw noise.  The wire format has
    // no integrity tag, so a structural completion over garbage is legal —
    // the invariants are totality and the memory bound, nothing else.
    for (mode, file_seed) in [(RatelessMode::Lt, 11), (RatelessMode::Raptor, 12)] {
        let data = random_file(40_000, file_seed);
        let (server, mut client) = rateless_pair(&data, mode, 47);
        let info = server.control_info().clone();
        let payload_len = match mode {
            // Raptor symbols ride at the (possibly padded) intermediate
            // length; the announced packet size is close enough to land in
            // both the accepted and the length-rejected branches.
            RatelessMode::Raptor => info.packet_size + info.packet_size % 2,
            _ => info.packet_size,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x7e57 + file_seed);
        for i in 0..3_000usize {
            let dgram = match i % 4 {
                // Forged random seed, correct-length garbage payload.
                0 => {
                    let junk: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
                    seed_frame(rng.gen(), info.base_group, &junk)
                }
                // Wrong-length payload (must be ignored before the decoder).
                1 => {
                    let len = rng.gen_range(0..payload_len * 2);
                    let junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    seed_frame(rng.gen(), info.base_group, &junk)
                }
                // Truncated honest-looking frame.
                2 => {
                    let junk: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
                    let full = seed_frame(rng.gen(), info.base_group, &junk);
                    let cut = rng.gen_range(0..full.len());
                    full.slice(0..cut)
                }
                // Raw noise.
                _ => {
                    let len = rng.gen_range(0..700usize);
                    Bytes::from((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
                }
            };
            let event = client.handle_datagram(dgram);
            assert!(
                !matches!(event, ClientEvent::Join { .. } | ClientEvent::Leave { .. }),
                "rateless sessions have no layers to join: {event:?}"
            );
            assert!(
                client.held_packets() <= client.buffer_cap(),
                "memory bound violated under {mode:?} noise"
            );
        }
    }
}

#[test]
fn completion_is_stable_under_continued_hostile_input() {
    // After the file decodes, further datagrams — honest or hostile — keep
    // reporting Complete and never disturb the reconstructed file.
    let data = random_file(30_000, 8);
    let (mut server, mut client) = client_for(&data, 1, 31);
    let mut guard = 0;
    while !client.is_complete() {
        if let Some((_group, dgram)) = server.poll_transmit() {
            client.handle_datagram(dgram);
        }
        if server.round_complete() {
            server.advance_round();
        }
        guard += 1;
        assert!(guard < 200_000, "clean download never finished");
    }
    let file = client.file().unwrap().to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(0xaf7e);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..600usize);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert_eq!(
            client.handle_datagram(Bytes::from(noise)),
            ClientEvent::Complete
        );
    }
    assert_eq!(client.file().unwrap(), &file[..]);
}
