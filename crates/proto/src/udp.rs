//! A [`Transport`] over real `std::net::UdpSocket`s.
//!
//! Session group numbers are mapped onto socket addresses by a
//! [`GroupAddressing`] scheme:
//!
//! * [`GroupAddressing::Multicast`] — group `g` is the IPv4 multicast address
//!   `base_addr` at UDP port `base_port + g`.  Joining binds a socket to the
//!   group's port and issues an `IP_ADD_MEMBERSHIP`; anything the kernel's
//!   multicast loop (or the network) delivers to that port is received.  This
//!   is the paper's deployment shape.
//! * [`GroupAddressing::LoopbackUnicast`] — group `g` is UDP port
//!   `base_port + g` on `127.0.0.1`.  Sends are plain unicast datagrams;
//!   joining binds the group's port.  This keeps the tests runnable in sandboxes whose
//!   network namespace has no multicast route, while still exercising real
//!   sockets, real datagram framing and real kernel buffers (including
//!   genuine loss when a receiver falls behind).
//!
//! Either way the *session* code is identical — the sans-I/O split means the
//! transport is the only layer that knows sockets exist.  All receive sockets
//! are non-blocking, matching the [`Transport::recv`] polling contract; a
//! driver loop that has nothing to read decides for itself whether to spin,
//! sleep or select.

use crate::transport::{Readiness, Transport};
use bytes::Bytes;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

/// Maximum datagram this transport will receive.  The prototype's packets are
/// 512 bytes; 64 KiB is the UDP maximum.
const MAX_DATAGRAM: usize = 65_536;

/// How session group numbers map onto socket addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAddressing {
    /// Real IPv4 multicast: group `g` ⇒ `(base_addr, base_port + g)`.
    Multicast {
        /// Multicast group address (must be in `224.0.0.0/4`; pick from the
        /// administratively-scoped `239.0.0.0/8` range for local use).
        base_addr: Ipv4Addr,
        /// UDP port of group 0; group `g` uses `base_port + g`.
        base_port: u16,
    },
    /// Loopback unicast emulation: group `g` ⇒ `127.0.0.1:base_port + g`.
    LoopbackUnicast {
        /// UDP port of group 0; group `g` uses `base_port + g`.
        base_port: u16,
    },
}

impl GroupAddressing {
    /// The socket address datagrams for `group` are sent to, or `None` when
    /// `group` does not fit the port space — `base_port + group` must not
    /// truncate or wrap, otherwise two distinct groups would silently alias
    /// onto one socket and a receiver could be fed a foreign session's
    /// packets.
    pub fn group_addr(&self, group: u32) -> Option<SocketAddrV4> {
        let offset = u16::try_from(group).ok()?;
        match *self {
            GroupAddressing::Multicast {
                base_addr,
                base_port,
            } => Some(SocketAddrV4::new(base_addr, base_port.checked_add(offset)?)),
            GroupAddressing::LoopbackUnicast { base_port } => Some(SocketAddrV4::new(
                Ipv4Addr::LOCALHOST,
                base_port.checked_add(offset)?,
            )),
        }
    }
}

/// A bidirectional UDP transport: one send socket plus one non-blocking
/// receive socket per joined group.
#[derive(Debug)]
pub struct UdpMulticastTransport {
    addressing: GroupAddressing,
    tx: UdpSocket,
    joined: Vec<(u32, UdpSocket)>,
    /// Round-robin cursor so one busy group cannot starve the others.
    next: usize,
    buf: Vec<u8>,
}

impl UdpMulticastTransport {
    /// Create a transport with the given addressing scheme.
    ///
    /// # Errors
    ///
    /// Fails if the (unbound) send socket cannot be created.
    pub fn new(addressing: GroupAddressing) -> io::Result<Self> {
        let tx = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?;
        if matches!(addressing, GroupAddressing::Multicast { .. }) {
            // Deliver to local members too (the loop is what makes one-host
            // tests and examples possible) and keep the scope host/link local.
            tx.set_multicast_loop_v4(true)?;
            tx.set_multicast_ttl_v4(1)?;
        }
        Ok(UdpMulticastTransport {
            addressing,
            tx,
            joined: Vec::new(),
            next: 0,
            buf: vec![0u8; MAX_DATAGRAM],
        })
    }

    /// Convenience constructor for real multicast addressing.
    ///
    /// # Errors
    ///
    /// See [`UdpMulticastTransport::new`].
    pub fn multicast(base_addr: Ipv4Addr, base_port: u16) -> io::Result<Self> {
        Self::new(GroupAddressing::Multicast {
            base_addr,
            base_port,
        })
    }

    /// Convenience constructor for loopback-unicast addressing.
    ///
    /// # Errors
    ///
    /// See [`UdpMulticastTransport::new`].
    pub fn loopback(base_port: u16) -> io::Result<Self> {
        Self::new(GroupAddressing::LoopbackUnicast { base_port })
    }

    /// The addressing scheme in use.
    pub fn addressing(&self) -> GroupAddressing {
        self.addressing
    }

    /// Groups currently joined.
    pub fn joined_groups(&self) -> Vec<u32> {
        self.joined.iter().map(|(g, _)| *g).collect()
    }

    /// Fallible join — [`Transport::join`] delegates here.
    ///
    /// # Errors
    ///
    /// Fails if the group's port cannot be bound or the multicast membership
    /// cannot be added.
    pub fn try_join(&mut self, group: u32) -> io::Result<()> {
        if self.joined.iter().any(|(g, _)| *g == group) {
            return Ok(());
        }
        let addr = self.addressing.group_addr(group).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("group {group} does not fit this transport's port space"),
            )
        })?;
        let socket = match self.addressing {
            GroupAddressing::Multicast { .. } => {
                let s = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, addr.port()))?;
                s.join_multicast_v4(addr.ip(), &Ipv4Addr::UNSPECIFIED)?;
                s
            }
            GroupAddressing::LoopbackUnicast { .. } => UdpSocket::bind(addr)?,
        };
        socket.set_nonblocking(true)?;
        self.joined.push((group, socket));
        Ok(())
    }

    /// Receive with a deadline: block (in the kernel, via `poll(2)`) until a
    /// datagram arrives on any joined group or `timeout` elapses, whichever
    /// comes first, and return `None` on timeout.
    ///
    /// This is the liveness guarantee the blocking-style integration tests
    /// need: every receive loop built on this method makes progress — and
    /// therefore reaches its own deadline check — even if the sender dies
    /// mid-download, without the spin-and-sleep polling the tests used
    /// before.  The readiness-driven [`crate::driver::Driver`] gets the
    /// same guarantee from its poller; this method is the one-socket-set
    /// version for simple single-session drivers.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(u32, Bytes)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(got) = self.recv() {
                return Some(got);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let Ok(poller) = polling::Poller::new() else {
                // No poller on this platform: degrade to a bounded sleep.
                std::thread::sleep(remaining.min(Duration::from_millis(1)));
                continue;
            };
            match self.readiness() {
                Readiness::Sockets(fds) if !fds.is_empty() => {
                    for fd in fds {
                        poller
                            .add(fd, polling::Event::readable(0))
                            .expect("joined sockets have distinct fds");
                    }
                    let mut events = Vec::new();
                    if poller.wait(&mut events, Some(remaining)).is_err() {
                        return None;
                    }
                    if events.is_empty() {
                        return None; // timed out
                    }
                }
                // Nothing joined: there is nothing to wait on, so the only
                // honest answer is to run out the clock.
                _ => {
                    std::thread::sleep(remaining);
                    return None;
                }
            }
        }
    }
}

impl Transport for UdpMulticastTransport {
    fn send(&mut self, group: u32, datagram: Bytes) {
        // Best-effort, like the channel itself: a full socket buffer, a
        // missing route or an unmappable group is just loss as far as the
        // protocol is concerned.
        if let Some(addr) = self.addressing.group_addr(group) {
            let _ = self.tx.send_to(&datagram, SocketAddr::V4(addr));
        }
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        let n = self.joined.len();
        for probe in 0..n {
            let slot = (self.next + probe) % n;
            let (group, socket) = &self.joined[slot];
            match socket.recv_from(&mut self.buf) {
                Ok((len, _from)) => {
                    self.next = (slot + 1) % n;
                    return Some((*group, Bytes::from(self.buf[..len].to_vec())));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                // Transient errors (e.g. ECONNREFUSED bounced back on
                // loopback) are treated as loss.
                Err(_) => continue,
            }
        }
        None
    }

    fn join(&mut self, group: u32) -> io::Result<()> {
        self.try_join(group)
    }

    #[cfg(unix)]
    fn readiness(&self) -> Readiness {
        use std::os::unix::io::AsRawFd;
        Readiness::Sockets(self.joined.iter().map(|(_, s)| s.as_raw_fd()).collect())
    }

    fn leave(&mut self, group: u32) {
        if let Some(pos) = self.joined.iter().position(|(g, _)| *g == group) {
            let (_, socket) = self.joined.remove(pos);
            if let GroupAddressing::Multicast { .. } = self.addressing {
                if let Some(addr) = self.addressing.group_addr(group) {
                    let _ = socket.leave_multicast_v4(addr.ip(), &Ipv4Addr::UNSPECIFIED);
                }
            }
            // Dropping the socket closes it and releases the port.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recv_within(t: &mut UdpMulticastTransport, timeout: Duration) -> Option<(u32, Bytes)> {
        // The kernel-blocking timeout path is itself under test here: every
        // sleep this helper used to do now happens inside poll(2).
        t.recv_timeout(timeout)
    }

    #[test]
    fn loopback_unicast_roundtrip_and_group_separation() {
        let base = 47610;
        let mut rx = UdpMulticastTransport::loopback(base).unwrap();
        rx.join(0).unwrap();
        rx.join(2).unwrap();
        let mut tx = UdpMulticastTransport::loopback(base).unwrap();
        tx.send(0, Bytes::from_static(b"to group zero"));
        tx.send(1, Bytes::from_static(b"nobody joined"));
        tx.send(2, Bytes::from_static(b"to group two"));
        let mut got = Vec::new();
        while let Some((g, d)) = recv_within(&mut rx, Duration::from_millis(500)) {
            got.push((g, d.to_vec()));
            if got.len() == 2 {
                break;
            }
        }
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, b"to group zero".to_vec()),
                (2, b"to group two".to_vec())
            ]
        );
    }

    #[test]
    fn leave_releases_the_port_for_rebinding() {
        let base = 47620;
        let mut a = UdpMulticastTransport::loopback(base).unwrap();
        a.join(0).unwrap();
        a.leave(0);
        assert!(a.joined_groups().is_empty());
        // The port is free again: a second transport can bind it.
        let mut b = UdpMulticastTransport::loopback(base).unwrap();
        b.join(0).unwrap();
        let mut tx = UdpMulticastTransport::loopback(base).unwrap();
        tx.send(0, Bytes::from_static(b"after rebind"));
        let got = recv_within(&mut b, Duration::from_millis(500));
        assert_eq!(
            got.map(|(g, d)| (g, d.to_vec())),
            Some((0, b"after rebind".to_vec()))
        );
    }

    #[test]
    fn joining_twice_is_idempotent() {
        let mut t = UdpMulticastTransport::loopback(47630).unwrap();
        t.join(1).unwrap();
        t.join(1).unwrap();
        assert_eq!(t.joined_groups(), vec![1]);
    }

    #[test]
    fn groups_outside_the_port_space_never_alias() {
        // base_port + group must neither truncate (group > u16::MAX) nor
        // wrap (port overflow); either would map two distinct groups onto
        // one socket and cross-feed sessions.
        let scheme = GroupAddressing::LoopbackUnicast { base_port: 65_000 };
        assert_eq!(
            scheme.group_addr(100).map(|a| a.port()),
            Some(65_100),
            "in-range groups map normally"
        );
        assert_eq!(scheme.group_addr(600), None, "port wrap is rejected");
        assert_eq!(
            scheme.group_addr(65_536),
            None,
            "u16 truncation (group ≡ 0 mod 2^16) is rejected"
        );
        let mut t = UdpMulticastTransport::new(scheme).unwrap();
        let err = t.join(600).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Sends to unmappable groups are just loss, like the channel itself.
        t.send(600, Bytes::from_static(b"dropped"));
        assert!(t.joined_groups().is_empty());
    }

    #[test]
    fn multicast_roundtrip_when_environment_allows() {
        // Real IP multicast needs a multicast-capable route in the test
        // environment; skip (loudly) when the sandbox lacks one, since that
        // is an environment property, not a code defect.  The loopback mode
        // above covers the transport logic unconditionally.
        let base_addr = Ipv4Addr::new(239, 255, 71, 91);
        let base = 47640;
        let mut rx = match UdpMulticastTransport::multicast(base_addr, base) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skipping multicast test: transport creation failed: {e}");
                return;
            }
        };
        if let Err(e) = rx.join(0) {
            eprintln!("skipping multicast test: join failed: {e}");
            return;
        }
        let mut tx = UdpMulticastTransport::multicast(base_addr, base).unwrap();
        tx.send(0, Bytes::from_static(b"multicast hello"));
        match recv_within(&mut rx, Duration::from_millis(500)) {
            Some((g, d)) => {
                assert_eq!(g, 0);
                assert_eq!(&d[..], b"multicast hello");
            }
            None => eprintln!("skipping multicast test: datagram not looped back"),
        }
    }
}
