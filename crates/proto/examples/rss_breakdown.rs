//! Where a many-session process's resident memory goes, phase by phase —
//! and a check that the order datagrams arrive in does not change the peak.
//!
//! Rebuilds the memory shape of the benchmark's `udp_loopback` workload — 32
//! files of 1 MiB, one carousel session and one receiver each, 1 KiB
//! payloads — without its sockets or its driver (neither holds payloads for
//! longer than a datagram), and prints `VmRSS` / `VmHWM` from
//! `/proc/self/status` after each phase: inputs generated, sessions encoded,
//! clients built, last download complete, sessions dropped.
//!
//! With an argument it runs one arrival order.  `interleaved` is the
//! workload's: every session sends one datagram per turn, so the 32
//! receivers' downloads progress side by side.  `sequential` lets each
//! receiver finish before the next starts.  A receiver copies each payload
//! once, into the file-shaped slab it reserved at its first datagram, and its
//! finished file is that slab; so the two orders must reach the same peak.
//! Without an argument the example runs both, each in a child process of its
//! own, prints both tables, and exits non-zero when the `interleaved` peak
//! after the last download exceeds the `sequential` one by more than
//! [`TOLERANCE_MB`] — what it did by 34.6 MB while receivers kept one heap
//! block per payload.  EXPERIMENTS.md §3.2 records the tables.
//!
//! The benchmark pins glibc's allocator (no trimming, no `mmap` for large
//! blocks); to measure under the same allocator run with
//!
//! ```text
//! MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_MMAP_THRESHOLD_=33554432 \
//!     cargo run --release -p df-proto --example rss_breakdown
//! ```

use df_proto::{ClientEvent, ClientSession, ServerSession, SessionConfig};

/// How far above the `sequential` peak the `interleaved` one may read, in MB.
const TOLERANCE_MB: f64 = 2.0;

/// The phase whose peak the check compares.
const LAST_DOWNLOAD: &str = "last download complete";

const SESSIONS: usize = 32;
const FILE_LEN: usize = 1 << 20;
const PAYLOAD: usize = 1024;

/// `(VmRSS, VmHWM)` in MB, or zeros where `/proc` does not say.
fn resident_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb * 1024.0 / 1e6)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn report(phase: &str) {
    let (rss, hwm) = resident_mb();
    println!("{phase:<28} {rss:>9.1} {hwm:>9.1}");
}

/// The next datagram of a never-ending carousel.
fn next_datagram(session: &mut ServerSession) -> bytes::Bytes {
    loop {
        match session.poll_transmit() {
            Some((_group, datagram)) => return datagram,
            None => session.advance_round(),
        }
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("interleaved") => run(true),
        Some("sequential") => run(false),
        None => check(),
        _ => {
            eprintln!("usage: rss_breakdown [interleaved|sequential]");
            std::process::exit(2);
        }
    }
}

/// Run both orders in child processes and compare their peaks.
fn check() {
    let exe = std::env::current_exe().expect("the running example has a path");
    let peak = |order: &str| {
        let out = std::process::Command::new(&exe)
            .arg(order)
            .output()
            .expect("the example can run itself");
        let table = String::from_utf8_lossy(&out.stdout);
        println!("{order}:\n{table}");
        assert!(out.status.success(), "the {order} run failed");
        table
            .lines()
            .find_map(|line| line.strip_prefix(LAST_DOWNLOAD))
            .and_then(|rest| rest.split_whitespace().last()?.parse::<f64>().ok())
            .expect("the table has the row")
    };
    let (interleaved, sequential) = (peak("interleaved"), peak("sequential"));
    let excess = interleaved - sequential;
    println!(
        "{LAST_DOWNLOAD}: VmHWM {interleaved:.1} MB interleaved, {sequential:.1} MB \
         sequential ({excess:+.1} MB; at most {TOLERANCE_MB} allowed)"
    );
    if excess > TOLERANCE_MB {
        eprintln!("the arrival order costs {excess:.1} MB of peak: receivers fragment the heap");
        std::process::exit(1);
    }
}

fn run(interleaved: bool) {
    println!("{:<28} {:>9} {:>9}", "after", "VmRSS MB", "VmHWM MB");
    report("start");

    let files: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|s| {
            (0..FILE_LEN)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 ^ s as u8)
                .collect()
        })
        .collect();
    report("inputs generated");

    let mut servers: Vec<ServerSession> = files
        .iter()
        .enumerate()
        .map(|(s, file)| {
            let config = SessionConfig {
                packet_size: PAYLOAD,
                code_seed: 0x5eed + s as u64,
                base_group: s as u32,
                session_id: s as u32,
                ..SessionConfig::default()
            };
            ServerSession::new(file, config).expect("session encodes")
        })
        .collect();
    report("sessions encoded");

    let mut clients: Vec<ClientSession> = servers
        .iter()
        .map(|s| ClientSession::new(s.control_info().clone()).expect("control info is valid"))
        .collect();
    report("clients built");

    if interleaved {
        while clients.iter().any(|c| !c.is_complete()) {
            for (server, client) in servers.iter_mut().zip(&mut clients) {
                client.handle_datagram(next_datagram(server));
            }
        }
    } else {
        for (server, client) in servers.iter_mut().zip(&mut clients) {
            while client.handle_datagram(next_datagram(server)) != ClientEvent::Complete {}
        }
    }
    report(LAST_DOWNLOAD);
    for (client, file) in clients.iter().zip(&files) {
        assert_eq!(client.file(), Some(&file[..]), "a download is wrong");
    }

    drop(servers);
    report("server sessions dropped");
    drop(clients);
    report("client sessions dropped");
}
