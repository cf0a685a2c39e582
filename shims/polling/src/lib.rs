//! Offline shim of the `polling` crate (see `shims/README.md`): a minimal
//! portable readiness API over the `ppoll(2)` system call, `poll(2)` with a
//! nanosecond timeout.
//!
//! The real crate wraps each platform's native readiness queue; this shim
//! keeps the same shape — register sources with keys, wait for [`Event`]s —
//! over the one call every target Unix has.  `ppoll(2)` is stateless: the
//! registration table lives in the [`Poller`] and is handed to the kernel
//! whole on every [`Poller::wait`].  Registering and clearing sources
//! therefore cost no system calls, and a wait costs O(registered) — the
//! right trade for this workspace's one heavy caller, a driver shard that
//! rebuilds its whole fd set on every membership change and holds tens of
//! sockets, not tens of thousands.
//!
//! Differences from upstream: readable interest only, no edge-triggered or
//! oneshot modes, no per-source `modify`/`delete` (callers
//! [`Poller::clear`] and re-add), and registration takes raw fds (the
//! [`Source`] trait is implemented for `RawFd` and for any `AsRawFd`
//! reference, as in upstream's Unix build).  On non-Unix platforms
//! [`Poller::new`] returns [`std::io::ErrorKind::Unsupported`].
//!
//! `ppoll` rather than `poll` because a driver paces its sends by the wait:
//! `poll` takes whole milliseconds, so every sub-millisecond pacing interval
//! would stretch to at least one.  A timeout here is honoured to the
//! nanosecond the kernel's timer slack allows.
//!
//! The `ppoll(2)` binding is declared locally (`extern "C"`): this workspace
//! has no `libc` crate, and `ppoll` is part of the libc of every platform
//! the workspace targets (Linux and the BSDs), which the Rust standard
//! library already links against.  The declaration is allowlisted in
//! df-lint's `FFI_ALLOWLIST`.

// Unsafe is confined to the `sys` module (the ppoll FFI call site,
// allowlisted by df-lint); any unsafe operation inside an `unsafe fn` must
// still be an explicit block with its own SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

/// Raw file-descriptor type used for registration.  Aliased to `i32` on
/// non-Unix targets so the API still type-checks (construction fails there).
#[cfg(not(unix))]
pub type RawFd = i32;

/// Readable interest in one registered source, and the report that it is
/// readable, identified by the caller-chosen `key`.  Readability is the only
/// interest this shim supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier carried back by [`Poller::wait`].
    pub key: usize,
}

impl Event {
    /// Readable interest under `key`.
    pub fn readable(key: usize) -> Event {
        Event { key }
    }
}

/// Something that can be registered with a [`Poller`]: a raw fd, or a
/// reference to anything exposing one.
pub trait Source {
    /// The raw file descriptor to poll.
    fn raw(&self) -> RawFd;
}

#[cfg(unix)]
impl Source for RawFd {
    fn raw(&self) -> RawFd {
        *self
    }
}

#[cfg(unix)]
impl<T: AsRawFd> Source for &T {
    fn raw(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(unix)]
mod sys {
    //! The `ppoll(2)` FFI surface.  `nfds_t` is `c_ulong`, and both fields
    //! of `struct timespec` are `long`, on every platform the workspace
    //! targets (Linux and the BSDs' ABI-compatible layouts).
    #![allow(unsafe_code)]

    use std::ffi::{c_long, c_ulong, c_void};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: c_ulong, tmo: *const Timespec, mask: *const c_void)
            -> i32;
    }

    /// Safe wrapper: polls the given fd set, filling each entry's `revents`.
    /// A `timeout` of `None` blocks indefinitely; any other is passed to the
    /// kernel as it is, so a 200 µs wait is a 200 µs wait.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let timeout = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().try_into().unwrap_or(c_long::MAX),
            tv_nsec: t.subsec_nanos().into(),
        });
        let timeout_ptr = timeout
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-layout structs, and `len()` bounds `nfds`.
            // `timeout_ptr` is null or points at a live `#[repr(C)]`
            // timespec, which the kernel only reads.  A null sigmask leaves
            // the signal mask alone, as `poll` does.
            let rc = unsafe {
                ppoll(
                    fds.as_mut_ptr(),
                    fds.len() as c_ulong,
                    timeout_ptr,
                    std::ptr::null(),
                )
            };
            if rc >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry.  (Upstream `polling` returns early here; nothing
            // in this workspace installs signal handlers, so retrying keeps
            // callers simpler.)
        }
    }
}

/// A registry of readable-interest sources that can be waited on together.
///
/// ```
/// use polling::{Event, Poller};
/// use std::net::UdpSocket;
/// use std::time::Duration;
///
/// let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
/// let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
/// let poller = Poller::new().unwrap();
/// poller.add(&rx, Event::readable(7)).unwrap();
///
/// let mut events = Vec::new();
/// // Nothing sent yet: the wait times out empty.
/// poller
///     .wait(&mut events, Some(Duration::from_millis(1)))
///     .unwrap();
/// assert!(events.is_empty());
///
/// tx.send_to(b"ping", rx.local_addr().unwrap()).unwrap();
/// poller
///     .wait(&mut events, Some(Duration::from_secs(5)))
///     .unwrap();
/// assert_eq!(events[0].key, 7);
/// ```
#[derive(Debug)]
pub struct Poller {
    /// `(fd, key)` per registered source, in registration order.
    sources: std::sync::Mutex<Vec<(RawFd, usize)>>,
}

impl Poller {
    /// Create an empty poller.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::Unsupported`] on non-Unix platforms.
    pub fn new() -> io::Result<Poller> {
        if cfg!(unix) {
            Ok(Poller {
                sources: std::sync::Mutex::new(Vec::new()),
            })
        } else {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "polling shim: ppoll(2) is only wrapped on Unix",
            ))
        }
    }

    /// Register a source with readable interest under `interest.key`.  No
    /// system call: the fd joins the table the next [`Poller::wait`] polls.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if the fd is already
    /// registered.
    pub fn add(&self, source: impl Source, interest: Event) -> io::Result<()> {
        let fd = source.raw();
        let mut sources = self.sources.lock().expect("poller lock");
        if sources.iter().any(|(f, _)| *f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        sources.push((fd, interest.key));
        Ok(())
    }

    /// Drop every registration at once, as a driver does before re-adding
    /// its whole fd set after a membership change.
    pub fn clear(&self) {
        self.sources.lock().expect("poller lock").clear();
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.lock().expect("poller lock").len()
    }

    /// True when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until at least one registered source is readable, or `timeout`
    /// elapses (`None` = wait forever).  Readiness events are appended to
    /// `events` (which is cleared first, as in upstream `wait` with a fresh
    /// `Events`); returns how many fired.
    ///
    /// Error conditions on a source (`POLLERR`/`POLLHUP`/`POLLNVAL`) are
    /// reported as readable so the owner's next read surfaces the error
    /// instead of the loop spinning on an invisible condition.
    ///
    /// # Errors
    ///
    /// Propagates `ppoll(2)` failures (other than `EINTR`, which is
    /// retried).  Waiting forever on an empty poller is refused with
    /// [`io::ErrorKind::InvalidInput`]; with a timeout it is a plain sleep,
    /// so callers can use `wait` as their loop's pacing primitive
    /// regardless.
    #[cfg(unix)]
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let registered = self.sources.lock().expect("poller lock").clone();
        if registered.is_empty() {
            return match timeout {
                Some(t) => {
                    std::thread::sleep(t);
                    Ok(0)
                }
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "waiting forever on an empty poller would never return",
                )),
            };
        }
        let mut fds: Vec<sys::PollFd> = registered
            .iter()
            .map(|&(fd, _)| sys::PollFd {
                fd,
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        sys::poll_fds(&mut fds, timeout)?;
        let fired = sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL;
        for (pfd, &(_, key)) in fds.iter().zip(&registered) {
            if pfd.revents & fired != 0 {
                events.push(Event::readable(key));
            }
        }
        Ok(events.len())
    }

    /// Non-Unix stub: a [`Poller`] cannot be constructed here ([`Poller::new`]
    /// fails), so this is unreachable; it exists to keep callers compiling.
    #[cfg(not(unix))]
    pub fn wait(&self, events: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim: ppoll(2) is only wrapped on Unix",
        ))
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::Instant;

    fn socket_pair() -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        (rx, tx)
    }

    #[test]
    fn readable_socket_fires_its_key() {
        let poller = Poller::new().unwrap();
        let (rx, tx) = socket_pair();
        poller.add(&rx, Event::readable(42)).unwrap();
        tx.send_to(b"x", rx.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events, vec![Event::readable(42)]);
    }

    #[test]
    fn timeout_expires_without_events() {
        let poller = Poller::new().unwrap();
        let (rx, _tx) = socket_pair();
        poller.add(&rx, Event::readable(0)).unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(25),
            "returned after only {waited:?}"
        );
    }

    #[test]
    fn a_sub_millisecond_timeout_is_not_rounded_up() {
        let poller = Poller::new().unwrap();
        let (rx, _tx) = socket_pair();
        poller.add(&rx, Event::readable(0)).unwrap();
        let mut events = Vec::new();
        let waits = 50;
        let t0 = Instant::now();
        for _ in 0..waits {
            poller
                .wait(&mut events, Some(Duration::from_micros(100)))
                .unwrap();
        }
        // Rounded up to whole milliseconds they could not take less than
        // 50 ms; as asked they take about 5, plus timer slack and scheduling.
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(waits),
            "{waits} waits of 100 µs took {took:?}"
        );
    }

    #[test]
    fn only_the_ready_source_is_reported() {
        let poller = Poller::new().unwrap();
        let (rx_a, tx) = socket_pair();
        let rx_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        poller.add(&rx_a, Event::readable(1)).unwrap();
        poller.add(&rx_b, Event::readable(2)).unwrap();
        tx.send_to(b"only a", rx_a.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events, vec![Event::readable(1)]);
    }

    #[test]
    fn multiple_ready_sources_all_fire() {
        let poller = Poller::new().unwrap();
        let (rx_a, tx) = socket_pair();
        let rx_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        poller.add(&rx_a, Event::readable(1)).unwrap();
        poller.add(&rx_b, Event::readable(2)).unwrap();
        tx.send_to(b"a", rx_a.local_addr().unwrap()).unwrap();
        tx.send_to(b"b", rx_b.local_addr().unwrap()).unwrap();
        // Give the loopback deliveries a moment to both land.
        std::thread::sleep(Duration::from_millis(10));
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let mut keys: Vec<usize> = events.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn registration_bookkeeping() {
        let poller = Poller::new().unwrap();
        let (rx, _tx) = socket_pair();
        assert!(poller.is_empty());
        poller.add(&rx, Event::readable(0)).unwrap();
        assert_eq!(poller.len(), 1);
        assert_eq!(
            poller.add(&rx, Event::readable(1)).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        assert_eq!(poller.len(), 1, "a refused add registers nothing");
    }

    #[test]
    fn empty_poller_with_timeout_sleeps() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(15));
        // Waiting forever on nothing is refused rather than deadlocking.
        assert_eq!(
            poller.wait(&mut events, None).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn clear_drops_all_registrations() {
        let poller = Poller::new().unwrap();
        let (rx_a, tx) = socket_pair();
        let rx_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        poller.add(&rx_a, Event::readable(1)).unwrap();
        poller.add(&rx_b, Event::readable(2)).unwrap();
        poller.clear();
        assert!(poller.is_empty());
        // After a clear the same fds can be re-registered, under new keys,
        // and still fire: the rebuild the driver does on membership changes.
        poller.add(&rx_a, Event::readable(3)).unwrap();
        tx.send_to(b"x", rx_a.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events, vec![Event::readable(3)]);
    }

    #[test]
    fn raw_fd_registration_works() {
        let poller = Poller::new().unwrap();
        let (rx, tx) = socket_pair();
        let fd: RawFd = rx.as_raw_fd();
        poller.add(fd, Event::readable(3)).unwrap();
        tx.send_to(b"x", rx.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events, vec![Event::readable(3)]);
    }
}
