//! Real-time transport over `std::sync::mpsc` channels.
//!
//! The production-shaped substrate: one OS thread per node, messages
//! marshaled through the [`crate::wire`] codec on every hop (so the
//! boundary is honest — a corrupted buffer surfaces as a decode error,
//! not shared-memory aliasing). Used by integration tests to show the
//! runtime works off the simulator.

use crate::envelope::Envelope;
use crate::wire::{decode_envelope, encode_envelope, WireError};
use p2_types::Addr;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};

/// A shared in-process message hub.
///
/// Cloneable handle; all clones address the same registry.
#[derive(Clone, Default)]
pub struct ThreadedHub {
    inner: Arc<Mutex<HashMap<Addr, Sender<Vec<u8>>>>>,
}

/// A node's receive endpoint.
pub struct Mailbox {
    rx: Receiver<Vec<u8>>,
}

impl Mailbox {
    /// Non-blocking receive: `Ok(None)` when empty, errors only on a
    /// malformed frame.
    pub fn try_recv(&self) -> Result<Option<Envelope>, WireError> {
        match self.rx.try_recv() {
            Ok(bytes) => decode_envelope(&bytes).map(Some),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => Ok(None),
        }
    }

    /// Blocking receive with a timeout: `Ok(None)` once `timeout` has
    /// passed with nothing received (a zero timeout is a `try_recv`),
    /// errors only on a malformed frame. A mailbox the hub no longer
    /// routes to (deregistered, or its address re-registered) can never
    /// receive again; it still takes the whole timeout, so a caller
    /// looping on this does not spin.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<Envelope>, WireError> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => decode_envelope(&bytes).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(timeout);
                Ok(None)
            }
        }
    }
}

impl ThreadedHub {
    /// New empty hub.
    pub fn new() -> ThreadedHub {
        ThreadedHub::default()
    }

    /// The registry, whether or not a thread panicked holding it: every
    /// update is one `HashMap` call, so the map is valid at every step.
    fn registry(&self) -> MutexGuard<'_, HashMap<Addr, Sender<Vec<u8>>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a node and get its mailbox. Re-registering replaces the
    /// previous endpoint (a "restarted" node).
    pub fn register(&self, addr: Addr) -> Mailbox {
        let (tx, rx) = channel();
        self.registry().insert(addr, tx);
        Mailbox { rx }
    }

    /// Remove a node (its future messages drop).
    pub fn deregister(&self, addr: &Addr) {
        self.registry().remove(addr);
    }

    /// Send an envelope; returns `false` if the destination is unknown or
    /// has shut down (messages to dead nodes drop, as on a real network).
    pub fn send(&self, env: &Envelope) -> bool {
        self.send_frame(&env.dst, encode_envelope(env))
    }

    /// Put one already-marshaled frame in `dst`'s mailbox, undecoded: what
    /// [`ThreadedHub::send`] does after encoding, and how a test plays the
    /// corrupt or hostile peer. Returns as `send` does.
    pub fn send_frame(&self, dst: &Addr, frame: Vec<u8>) -> bool {
        let guard = self.registry();
        match guard.get(dst) {
            Some(tx) => tx.send(frame).is_ok(),
            None => false,
        }
    }

    /// Registered node count.
    pub fn len(&self) -> usize {
        self.registry().len()
    }

    /// Whether no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.registry().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::{Tuple, Value};
    use std::time::Duration;

    fn env(src: &str, dst: &str, x: i64) -> Envelope {
        Envelope::new(
            Tuple::new("m", [Value::addr(dst), Value::Int(x)]),
            Addr::new(src),
            Addr::new(dst),
        )
    }

    #[test]
    fn send_and_receive() {
        let hub = ThreadedHub::new();
        let mb = hub.register(Addr::new("b"));
        assert!(hub.send(&env("a", "b", 7)));
        let got = mb.try_recv().unwrap().unwrap();
        assert_eq!(got.tuples[0].get(1), Some(&Value::Int(7)));
        assert!(mb.try_recv().unwrap().is_none());
    }

    #[test]
    fn unknown_destination_drops() {
        let hub = ThreadedHub::new();
        assert!(!hub.send(&env("a", "ghost", 1)));
    }

    #[test]
    fn deregister_drops() {
        let hub = ThreadedHub::new();
        let _mb = hub.register(Addr::new("b"));
        hub.deregister(&Addr::new("b"));
        assert!(!hub.send(&env("a", "b", 1)));
        assert!(hub.is_empty());
    }

    #[test]
    fn raw_frame_surfaces_as_decode_error_and_the_next_frame_decodes() {
        let hub = ThreadedHub::new();
        let b = Addr::new("b");
        let mb = hub.register(b.clone());
        assert!(hub.send_frame(&b, vec![0xBA, 0xD0, 0xCA, 0xFE]));
        assert!(hub.send(&env("a", "b", 3)));
        assert!(mb.recv_timeout(Duration::from_secs(2)).is_err());
        let got = mb.recv_timeout(Duration::ZERO).unwrap().unwrap();
        assert_eq!(got.tuples[0].get(1), Some(&Value::Int(3)));
        assert!(!hub.send_frame(&Addr::new("ghost"), vec![1]));
    }

    #[test]
    fn unrouted_mailbox_still_takes_its_timeout() {
        let hub = ThreadedHub::new();
        let mb = hub.register(Addr::new("b"));
        hub.deregister(&Addr::new("b"));
        let t = std::time::Instant::now();
        assert!(mb
            .recv_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert!(t.elapsed() >= Duration::from_millis(50));
        assert!(mb.recv_timeout(Duration::ZERO).unwrap().is_none());
    }

    #[test]
    fn cross_thread_round_trip() {
        let hub = ThreadedHub::new();
        let mb = hub.register(Addr::new("b"));
        let h2 = hub.clone();
        let sender = std::thread::spawn(move || {
            for i in 0..100 {
                assert!(h2.send(&env("a", "b", i)));
            }
        });
        let mut got = 0;
        while got < 100 {
            if let Some(e) = mb.recv_timeout(Duration::from_secs(2)).unwrap() {
                assert_eq!(e.src, Addr::new("a"));
                got += 1;
            } else {
                panic!("timed out after {got} messages");
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn channel_order_preserved() {
        let hub = ThreadedHub::new();
        let mb = hub.register(Addr::new("b"));
        for i in 0..50 {
            hub.send(&env("a", "b", i));
        }
        for i in 0..50 {
            let e = mb.try_recv().unwrap().unwrap();
            assert_eq!(e.tuples[0].get(1), Some(&Value::Int(i)));
        }
    }
}
