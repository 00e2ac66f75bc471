//! UDP transport.
//!
//! The paper's prototype runs its 21 virtual nodes as OS processes
//! exchanging tuples over UDP; this module is that substrate: node
//! addresses are `ip:port` strings, envelopes are marshaled through the
//! [`crate::wire`] codec, one datagram per envelope. Delivery is
//! unreliable and unordered exactly as real UDP is — which is what the
//! soft-state protocol stack upstairs is built to tolerate (and what the
//! simulator's loss/jitter knobs model deterministically).

use crate::envelope::Envelope;
use crate::wire::{decode_envelope, encode_envelope};
use p2_types::Addr;
use std::cell::{Cell, RefCell};
use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Receive buffer size. The real limit is the sender's: a UDP payload
/// over IPv4 is at most 65,507 bytes (65,535 less the IP and UDP
/// headers) and `send_to` refuses anything larger, so this buffer holds
/// any datagram that can arrive. Chord control tuples are tens of bytes;
/// the largest envelope the runtime itself builds carries one full ship
/// chunk (48 KiB of frame plus its header, `p2-core`'s `ship` module)
/// and fits.
const MAX_DATAGRAM: usize = 64 * 1024;

/// A UDP endpoint for one node.
///
/// The node's [`Addr`] must parse as a socket address
/// (e.g. `"127.0.0.1:9001"`).
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    /// Receive buffer, reused by every receive call (the receive methods
    /// take `&self`; the transport is `Send`, not `Sync`).
    buf: RefCell<Box<[u8]>>,
    /// The read timeout the socket currently carries, to skip the system
    /// call that sets it when a caller asks for the same one again.
    read_timeout: Cell<Option<Duration>>,
}

/// Receive outcome: decoded envelope, nothing pending, or a frame that
/// failed to decode (reported, not fatal — hostile or corrupt peers must
/// not wedge a node).
#[derive(Debug)]
pub enum UdpRecv {
    /// A well-formed envelope.
    Envelope(Envelope),
    /// Nothing waiting.
    Empty,
    /// An undecodable datagram arrived (and was dropped).
    Malformed {
        /// Decode failure description.
        error: String,
    },
}

impl UdpTransport {
    /// Bind the node's socket. The address must be a valid `ip:port`.
    pub fn bind(local: &Addr) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind(local.as_str())?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            socket,
            buf: RefCell::new(vec![0u8; MAX_DATAGRAM].into_boxed_slice()),
            read_timeout: Cell::new(None),
        })
    }

    /// The bound address (useful with port 0: the OS assigns one).
    pub fn local_addr(&self) -> io::Result<Addr> {
        Ok(Addr::new(self.socket.local_addr()?.to_string()))
    }

    /// Send one envelope as one datagram to `env.dst` (an `ip:port`
    /// address). Returns the datagram size.
    pub fn send(&self, env: &Envelope) -> io::Result<usize> {
        let bytes = encode_envelope(env);
        self.socket.send_to(&bytes, env.dst.as_str())
    }

    /// Non-blocking receive of one datagram.
    pub fn try_recv(&self) -> io::Result<UdpRecv> {
        self.recv_one()
    }

    /// Blocking receive with a timeout. `Ok(UdpRecv::Empty)` on timeout;
    /// a zero timeout is [`UdpTransport::try_recv`]. The socket is put
    /// back in non-blocking mode on every return path.
    pub fn recv_timeout(&self, timeout: Duration) -> io::Result<UdpRecv> {
        // std rejects a zero read timeout; zero means "don't block".
        if timeout.is_zero() {
            return self.recv_one();
        }
        // Timeout first: it is inert while the socket is non-blocking,
        // so a failure here leaves nothing to undo.
        if self.read_timeout.get() != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.read_timeout.set(Some(timeout));
        }
        self.socket.set_nonblocking(false)?;
        let r = self.recv_one();
        // A datagram already received is the caller's even if the switch
        // back fails; the socket then still carries its read timeout, so
        // a later `try_recv` is late at worst, never stuck.
        let restored = self.socket.set_nonblocking(true);
        match r {
            Ok(UdpRecv::Empty) => restored.map(|()| UdpRecv::Empty),
            r => r,
        }
    }

    /// One `recv_from` in whatever mode the socket is in, decoded.
    fn recv_one(&self) -> io::Result<UdpRecv> {
        let mut buf = self.buf.borrow_mut();
        match self.socket.recv_from(&mut buf) {
            Ok((n, _peer)) => match decode_envelope(&buf[..n]) {
                Ok(env) => Ok(UdpRecv::Envelope(env)),
                Err(e) => Ok(UdpRecv::Malformed {
                    error: e.to_string(),
                }),
            },
            // An expired read timeout is WouldBlock on Unix, TimedOut on
            // Windows.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(UdpRecv::Empty)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::{Tuple, Value};

    fn bind_ephemeral() -> UdpTransport {
        UdpTransport::bind(&Addr::new("127.0.0.1:0")).expect("bind")
    }

    fn env_to(dst: &Addr, x: i64) -> Envelope {
        Envelope::new(
            Tuple::new("m", [Value::Addr(dst.clone()), Value::Int(x)]),
            Addr::new("127.0.0.1:1"),
            dst.clone(),
        )
    }

    #[test]
    fn datagram_round_trip() {
        let a = bind_ephemeral();
        let b = bind_ephemeral();
        let b_addr = b.local_addr().unwrap();
        a.send(&env_to(&b_addr, 42)).unwrap();
        match b.recv_timeout(Duration::from_secs(2)).unwrap() {
            UdpRecv::Envelope(e) => {
                assert_eq!(e.tuples[0].get(1), Some(&Value::Int(42)));
                assert_eq!(e.dst, b_addr);
            }
            other => panic!("expected envelope, got {other:?}"),
        }
    }

    #[test]
    fn empty_when_nothing_pending() {
        let a = bind_ephemeral();
        assert!(matches!(a.try_recv().unwrap(), UdpRecv::Empty));
    }

    #[test]
    fn zero_timeout_does_not_block_or_wedge_the_socket() {
        let a = bind_ephemeral();
        let b = bind_ephemeral();
        let b_addr = b.local_addr().unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::ZERO).unwrap(),
            UdpRecv::Empty
        ));
        // Still non-blocking: an empty poll returns at once.
        let t = std::time::Instant::now();
        assert!(matches!(b.try_recv().unwrap(), UdpRecv::Empty));
        assert!(t.elapsed() < Duration::from_millis(500));
        // A timed-out blocking receive leaves it non-blocking too.
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(5)).unwrap(),
            UdpRecv::Empty
        ));
        assert!(matches!(b.try_recv().unwrap(), UdpRecv::Empty));
        // And a queued datagram is handed out by a zero-timeout receive.
        a.send(&env_to(&b_addr, 9)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match b.recv_timeout(Duration::ZERO).unwrap() {
                UdpRecv::Envelope(e) => {
                    assert_eq!(e.tuples[0].get(1), Some(&Value::Int(9)));
                    break;
                }
                UdpRecv::Empty => assert!(std::time::Instant::now() < deadline, "lost"),
                UdpRecv::Malformed { error } => panic!("{error}"),
            }
        }
    }

    #[test]
    fn repeated_and_changed_timeouts_are_both_honoured() {
        let a = bind_ephemeral();
        let timed = |timeout| {
            let t = std::time::Instant::now();
            assert!(matches!(a.recv_timeout(timeout).unwrap(), UdpRecv::Empty));
            t.elapsed()
        };
        // The kernel counts a read timeout in clock ticks: leave a margin.
        let (long, nearly) = (Duration::from_millis(150), Duration::from_millis(100));
        assert!(timed(long) >= nearly);
        assert!(
            timed(long) >= nearly,
            "the remembered timeout still applies"
        );
        assert!(
            timed(Duration::from_millis(5)) < nearly,
            "a new one replaces it"
        );
    }

    #[test]
    fn malformed_datagram_is_reported_not_fatal() {
        let a = bind_ephemeral();
        let b = bind_ephemeral();
        let b_addr = b.local_addr().unwrap();
        // Raw garbage straight onto the socket.
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(&[0xFF, 0x00, 0x13, 0x37], b_addr.as_str())
            .unwrap();
        match b.recv_timeout(Duration::from_secs(2)).unwrap() {
            UdpRecv::Malformed { error } => assert!(!error.is_empty()),
            other => panic!("expected malformed, got {other:?}"),
        }
        // The transport keeps working afterwards.
        a.send(&env_to(&b_addr, 7)).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(2)).unwrap(),
            UdpRecv::Envelope(_)
        ));
    }

    #[test]
    fn bad_bind_address_is_io_error() {
        assert!(UdpTransport::bind(&Addr::new("not-an-address")).is_err());
    }

    #[test]
    fn many_datagrams_in_order_locally() {
        // Loopback UDP practically preserves order; the test only asserts
        // that all arrive and decode.
        let a = bind_ephemeral();
        let b = bind_ephemeral();
        let b_addr = b.local_addr().unwrap();
        for i in 0..50 {
            a.send(&env_to(&b_addr, i)).unwrap();
        }
        let mut got = 0;
        while got < 50 {
            match b.recv_timeout(Duration::from_secs(2)).unwrap() {
                UdpRecv::Envelope(_) => got += 1,
                UdpRecv::Empty => break,
                UdpRecv::Malformed { error } => panic!("{error}"),
            }
        }
        assert_eq!(got, 50);
    }
}
