//! Real UDP multicast transport for the session directory.
//!
//! [`SapSocket`] is a kernel UDP socket joined to a SAP multicast group
//! — the code path an actual sdr deployment would use.  `std::net`
//! supports everything needed (join, TTL, loopback), so no extra
//! dependencies.  [`SapTransport`] is the seam the runtime's agent
//! driver (`sdalloc-runtime`) is generic over: the socket here, the
//! in-process loopback bus there, scripted fault-injecting fakes in
//! tests.  This crate spawns no threads; binding a directory to a
//! transport, a clock and a thread is the runtime's job.

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::wire::{SapPacket, SAP_GROUP, SAP_PORT};

/// A UDP socket joined to a SAP multicast group.
#[derive(Debug)]
pub struct SapSocket {
    sock: UdpSocket,
    dest: SocketAddrV4,
    /// Datagrams received but undecodable since the last
    /// [`SapTransport::take_rx_predecode_drops`].
    undecodable: AtomicU64,
}

impl SapSocket {
    /// Join `group:port` on all interfaces with the given send TTL.
    /// Multicast loopback is enabled so co-located agents hear each
    /// other (and us), matching sdr's behaviour on a shared host.
    ///
    /// A TTL of 0 is rejected with [`io::ErrorKind::InvalidInput`]: a
    /// zero-TTL announcement never leaves the host, and silently
    /// promoting it to 1 (as an earlier version did) would widen the
    /// session's scope beyond what the caller asked for.
    pub fn open(group: Ipv4Addr, port: u16, ttl: u8) -> io::Result<SapSocket> {
        if ttl == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "SAP send TTL must be at least 1; 0 would never leave the host",
            ));
        }
        assert!(group.is_multicast(), "{group} is not a multicast group");
        let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, port))?;
        sock.join_multicast_v4(&group, &Ipv4Addr::UNSPECIFIED)?;
        sock.set_multicast_loop_v4(true)?;
        sock.set_multicast_ttl_v4(ttl as u32)?;
        Ok(SapSocket {
            sock,
            dest: SocketAddrV4::new(group, port),
            undecodable: AtomicU64::new(0),
        })
    }

    /// Join the well-known SAP group/port (224.2.127.254:9875).
    pub fn open_default(ttl: u8) -> io::Result<SapSocket> {
        SapSocket::open(SAP_GROUP, SAP_PORT, ttl)
    }

    /// Send a packet to the group.
    pub fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        self.sock.send_to(&pkt.encode(), self.dest)
    }

    /// One receive attempt, waiting at most `timeout`, with the outcome
    /// classified instead of collapsed to `Option`: `TimedOut` means
    /// the wait budget was genuinely spent (re-check timers), while
    /// `Interrupted` means a signal cut the wait short and the caller
    /// should retry with the *remaining* budget — conflating the two
    /// makes every stray `SIGCHLD`/`SIGPROF` look like a full listen
    /// interval and skews the driver's timer math.
    fn recv_once(&self, timeout: Duration) -> io::Result<RecvOutcome> {
        self.sock
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut buf = [0u8; 2048];
        match self.sock.recv_from(&mut buf) {
            Ok((len, _src)) => {
                // `len` is the kernel's byte count and cannot exceed the
                // buffer, but stay checked: a short slice decodes (or
                // fails to) the same way.
                let datagram = buf.get(..len).unwrap_or(&buf);
                Ok(match SapPacket::decode(datagram) {
                    Ok(pkt) => RecvOutcome::Packet(pkt),
                    Err(_) => {
                        self.undecodable.fetch_add(1, Ordering::Relaxed);
                        RecvOutcome::Undecodable(len)
                    }
                })
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(RecvOutcome::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(RecvOutcome::Interrupted),
            Err(e) => Err(e),
        }
    }

    /// Receive one packet, waiting at most `timeout`.  Returns
    /// `Ok(None)` once the timeout is spent or on an undecodable
    /// datagram (which [`SapTransport::take_rx_predecode_drops`] then
    /// reports).  Signal interruptions are retried internally with the
    /// remaining budget rather than reported as a (fake) timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        let deadline = Instant::now() + timeout;
        let mut remaining = timeout;
        loop {
            match self.recv_once(remaining)? {
                RecvOutcome::Packet(pkt) => return Ok(Some(pkt)),
                RecvOutcome::TimedOut | RecvOutcome::Undecodable(_) => return Ok(None),
                RecvOutcome::Interrupted => {
                    remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// The group/port this socket is joined to.
    pub fn destination(&self) -> SocketAddrV4 {
        self.dest
    }
}

/// Classified outcome of a single receive attempt on a [`SapSocket`].
#[derive(Debug, Clone, PartialEq)]
enum RecvOutcome {
    /// A well-formed SAP packet arrived.
    Packet(SapPacket),
    /// A datagram of this many bytes arrived but failed to decode.
    Undecodable(usize),
    /// The wait budget elapsed with nothing to read (`WouldBlock` /
    /// `TimedOut`).
    TimedOut,
    /// A signal interrupted the wait before the budget elapsed
    /// (`EINTR`); retry with the remaining budget.
    Interrupted,
}

/// Packet transport abstraction for the runtime's agent driver.
///
/// [`SapSocket`] is the real implementation and the runtime's loopback
/// bus the in-process one; tests substitute scripted fakes to inject
/// transient and persistent I/O faults into the pump loop without
/// touching the network.
pub trait SapTransport: Send {
    /// Send one packet toward the group.
    fn send(&self, pkt: &SapPacket) -> io::Result<usize>;

    /// Receive one packet, waiting at most `timeout`.  `Ok(None)` means
    /// nothing arrived (timeout or undecodable datagram).
    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>>;

    /// Number of datagrams that reached this endpoint but died before
    /// decode since the last call (the count resets on read).  Lets a
    /// driver feed [`crate::SessionDirectory::note_rx_dropped`] without the
    /// transport knowing about directories.  Transports that cannot
    /// observe pre-decode deaths report zero.
    fn take_rx_predecode_drops(&self) -> u64 {
        0
    }

    /// A way for another thread to cut a blocking [`Self::recv`] short
    /// (it then returns `Ok(None)` early), so that whoever owns the
    /// transport can attend to something other than packets.  A wake
    /// that lands while nobody is receiving is kept for the next
    /// blocking `recv`.  `None` — the default — means a `recv` can only
    /// be waited out.
    fn waker(&self) -> Option<Waker> {
        None
    }
}

/// What [`SapTransport::waker`] hands out.
pub type Waker = Box<dyn Fn() + Send + Sync>;

impl SapTransport for SapSocket {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        SapSocket::send(self, pkt)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        self.recv_timeout(timeout)
    }

    fn take_rx_predecode_drops(&self) -> u64 {
        self.undecodable.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multicast may be unavailable in sandboxes; skip gracefully.
    fn try_socket(port: u16) -> Option<SapSocket> {
        match SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), port, 1) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("skipping multicast test: {e}");
                None
            }
        }
    }

    #[test]
    fn socket_loopback_roundtrip() {
        let Some(sock) = try_socket(29875) else {
            return;
        };
        let pkt = SapPacket::announce(
            Ipv4Addr::new(127, 0, 0, 1),
            0xABCD,
            "v=0\r\no=- 1 1 IN IP4 127.0.0.1\r\ns=x\r\nc=IN IP4 239.195.255.253/1\r\nt=0 0\r\n"
                .into(),
        );
        sock.send(&pkt).expect("send");
        // Loopback should deliver our own packet.
        let mut got = None;
        for _ in 0..20 {
            if let Some(p) = sock.recv_timeout(Duration::from_millis(100)).expect("recv") {
                got = Some(p);
                break;
            }
        }
        match got {
            Some(p) => assert_eq!(p.msg_id_hash, 0xABCD),
            None => eprintln!("skipping assertion: multicast loopback not delivered"),
        }
    }

    #[test]
    fn empty_socket_classifies_timeout() {
        let Some(sock) = try_socket(29880) else {
            return;
        };
        assert_eq!(
            sock.recv_once(Duration::from_millis(5)).expect("recv_once"),
            RecvOutcome::TimedOut,
            "an idle socket's wait budget ends in TimedOut, not an error"
        );
        assert_eq!(
            sock.recv_timeout(Duration::from_millis(5)).expect("recv"),
            None
        );
    }

    #[test]
    fn recv_once_surfaces_undecodable_datagrams() {
        let Some(sock) = try_socket(29881) else {
            return;
        };
        let sender = UdpSocket::bind("0.0.0.0:0").expect("bind sender");
        let _ = sender.set_multicast_ttl_v4(1);
        sender
            .send_to(&[0xFFu8; 7], sock.destination())
            .expect("send garbage");
        let mut got = None;
        for _ in 0..20 {
            match sock
                .recv_once(Duration::from_millis(50))
                .expect("recv_once")
            {
                RecvOutcome::TimedOut | RecvOutcome::Interrupted => continue,
                other => {
                    got = Some(other);
                    break;
                }
            }
        }
        match got {
            Some(RecvOutcome::Undecodable(len)) => {
                assert_eq!(len, 7);
                assert_eq!(sock.take_rx_predecode_drops(), 1, "counted once");
                assert_eq!(sock.take_rx_predecode_drops(), 0, "reset on read");
            }
            Some(other) => panic!("expected Undecodable(7), got {other:?}"),
            None => {
                eprintln!("skipping assertion: multicast loopback not delivered");
                assert_eq!(sock.take_rx_predecode_drops(), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multicast")]
    fn unicast_group_rejected() {
        let _ = SapSocket::open(Ipv4Addr::new(10, 0, 0, 1), 29878, 1);
    }

    #[test]
    fn zero_ttl_rejected() {
        let err = SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), 29879, 0)
            .expect_err("TTL 0 must not be silently promoted to 1");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
