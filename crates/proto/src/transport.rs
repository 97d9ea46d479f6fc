//! Pluggable multicast transports for the prototype.
//!
//! The paper's prototype runs over IP multicast between Berkeley, CMU and
//! Cornell; this crate's sessions are *sans-I/O* state machines that speak
//! only through the bidirectional [`Transport`] trait, so the same session
//! code runs over two interchangeable channels:
//!
//! * [`SimMulticast`] — a deterministic in-memory lossy multicast used by the
//!   tests, the benchmarks and the Figure 8 reproduction.  Each participant
//!   holds a [`SimEndpoint`].
//! * [`crate::UdpMulticastTransport`] — real `std::net::UdpSocket`s (IP
//!   multicast or loopback unicast), exercised by the `udp_fountain` example
//!   and the UDP integration tests.
//!
//! A transport is a *best-effort* datagram channel with group addressing —
//! the same service model as IP multicast.  Sends may silently vanish (that
//! is the loss the fountain code exists to absorb) and `recv` never blocks:
//! the I/O driver owns the socket/channel and decides when to poll.

use crate::sync::{Arc, Mutex};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// How an I/O driver can learn that a transport has datagrams waiting,
/// without spinning on [`Transport::try_recv`].
///
/// A readiness-driven driver (see [`crate::driver::EventLoop`]) collects
/// every transport's readiness once, registers the socket-backed ones with a
/// poller, and sleeps until the OS reports one readable — which is what lets
/// a single thread pump thousands of sessions.  In-memory transports have no
/// OS handle, so they report [`Readiness::Polled`] and the driver drains
/// them on its tick cadence instead.
///
/// The set of sources can change over a transport's lifetime (joining a
/// multicast group opens a socket, leaving closes it), so drivers re-collect
/// readiness after executing any join/leave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Readiness {
    /// No OS handle to wait on: the driver polls [`Transport::try_recv`] on
    /// its own cadence.
    Polled,
    /// Wait for readability of these raw socket fds (Unix file descriptors;
    /// plain `i32` so the sans-I/O crate stays portable).
    Sockets(Vec<i32>),
}

/// A bidirectional best-effort multicast endpoint: datagrams are addressed to
/// a group and delivered (or not) to every endpoint joined to it.
pub trait Transport {
    /// Send one datagram to `group`.  Best-effort: errors are indistinguishable
    /// from channel loss, exactly as with a UDP socket sending to a multicast
    /// group with no subscribers.
    fn send(&mut self, group: u32, datagram: Bytes);

    /// Pop the next delivered datagram, if any, together with the group it
    /// arrived on.  Non-blocking; drivers that want to block or sleep do so
    /// around this call.
    fn recv(&mut self) -> Option<(u32, Bytes)>;

    /// The explicitly non-blocking receive path of the readiness-driven
    /// driver: identical contract to [`Transport::recv`] (which this
    /// workspace's transports already implement without blocking), spelled
    /// separately so a future transport whose `recv` *may* block still has a
    /// name for the path that never does.
    fn try_recv(&mut self) -> Option<(u32, Bytes)> {
        self.recv()
    }

    /// What a driver can wait on to learn this transport is readable.
    /// Defaults to [`Readiness::Polled`]; socket-backed transports override
    /// it with their fds.
    fn readiness(&self) -> Readiness {
        Readiness::Polled
    }

    /// Join a multicast group (a cumulative layered receiver calls this once
    /// per layer it subscribes to).
    ///
    /// # Errors
    ///
    /// Transports backed by real sockets can fail to join (e.g. the group's
    /// port is taken); the in-memory transport never fails.
    fn join(&mut self, group: u32) -> std::io::Result<()>;

    /// Leave a multicast group.
    fn leave(&mut self, group: u32);
}

/// One participant's endpoint on a [`SimMulticast`] channel.
///
/// Dropping the endpoint detaches it: it leaves every group, its queued
/// datagrams are freed, and its slot goes back to the channel for the next
/// [`SimMulticast::endpoint`], so senders never queue for (or draw loss for)
/// a receiver that is gone.
#[derive(Debug)]
pub struct SimEndpoint {
    inner: Arc<Mutex<SimInner>>,
    receiver: usize,
}

#[derive(Debug)]
struct ReceiverState {
    /// Loss probability applied to every datagram for this receiver.
    loss: f64,
    /// Groups this receiver is subscribed to.
    groups: Vec<u32>,
    /// Delivered datagrams waiting to be read.
    queue: VecDeque<(u32, Bytes)>,
}

#[derive(Debug)]
struct SimInner {
    /// One slot per endpoint ever attached; `None` once its endpoint is
    /// dropped, until a new endpoint reuses it.
    receivers: Vec<Option<ReceiverState>>,
    /// Slots of dropped endpoints, reused before the table grows.
    free: Vec<usize>,
    rng: StdRng,
    sent: u64,
    delivered: u64,
}

impl SimInner {
    /// The live endpoint in slot `i`.  Only a live [`SimEndpoint`] holds a
    /// slot index, and it frees the slot only when dropped, so the slot is
    /// always occupied here.
    fn receiver(&mut self, i: usize) -> &mut ReceiverState {
        self.receivers[i]
            .as_mut()
            .expect("a live endpoint's slot is occupied")
    }
}

/// A deterministic in-memory lossy multicast channel.
///
/// Every datagram sent to a group is independently delivered to each
/// subscribed endpoint with probability `1 − loss(endpoint)` — the same
/// best-effort semantics as IP multicast over a lossy path.  Like IP
/// multicast with `IP_MULTICAST_LOOP` enabled, a sender that has joined the
/// group it sends to receives its own datagrams.
#[derive(Debug, Clone)]
pub struct SimMulticast {
    inner: Arc<Mutex<SimInner>>,
}

impl SimMulticast {
    /// Create a channel seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        SimMulticast {
            inner: Arc::new(Mutex::new(SimInner {
                receivers: Vec::new(),
                free: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                sent: 0,
                delivered: 0,
            })),
        }
    }

    /// Attach an endpoint with the given independent loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1)`.
    pub fn endpoint(&self, loss: f64) -> SimEndpoint {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        let mut inner = self.inner.lock();
        let state = ReceiverState {
            loss,
            groups: Vec::new(),
            queue: VecDeque::new(),
        };
        let receiver = match inner.free.pop() {
            Some(slot) => {
                inner.receivers[slot] = Some(state);
                slot
            }
            None => {
                inner.receivers.push(Some(state));
                inner.receivers.len() - 1
            }
        };
        SimEndpoint {
            inner: self.inner.clone(),
            receiver,
        }
    }

    /// Total datagrams sent on the channel.
    pub fn sent(&self) -> u64 {
        self.inner.lock().sent
    }

    /// Total datagram deliveries across all endpoints.
    pub fn delivered(&self) -> u64 {
        self.inner.lock().delivered
    }

    /// Endpoints currently attached (dropped ones excluded).
    pub fn endpoints(&self) -> usize {
        let inner = self.inner.lock();
        inner.receivers.len() - inner.free.len()
    }
}

impl SimEndpoint {
    /// Number of datagrams waiting in this endpoint's queue.
    pub fn pending(&self) -> usize {
        self.inner.lock().receiver(self.receiver).queue.len()
    }
}

impl Drop for SimEndpoint {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        inner.receivers[self.receiver] = None;
        inner.free.push(self.receiver);
    }
}

impl Transport for SimEndpoint {
    fn send(&mut self, group: u32, datagram: Bytes) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.sent += 1;
        for r in inner.receivers.iter_mut().flatten() {
            if !r.groups.contains(&group) || inner.rng.gen::<f64>() < r.loss {
                continue;
            }
            r.queue.push_back((group, datagram.clone()));
            inner.delivered += 1;
        }
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.inner.lock().receiver(self.receiver).queue.pop_front()
    }

    fn join(&mut self, group: u32) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        let groups = &mut inner.receiver(self.receiver).groups;
        if !groups.contains(&group) {
            groups.push(group);
        }
        Ok(())
    }

    fn leave(&mut self, group: u32) {
        self.inner
            .lock()
            .receiver(self.receiver)
            .groups
            .retain(|&g| g != group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_respects_subscription() {
        let net = SimMulticast::new(1);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        tx.send(0, Bytes::from_static(b"before subscribe"));
        assert_eq!(rx.pending(), 0);
        rx.join(0).unwrap();
        tx.send(0, Bytes::from_static(b"hello"));
        tx.send(1, Bytes::from_static(b"other group"));
        assert_eq!(rx.pending(), 1);
        let (group, data) = rx.recv().unwrap();
        assert_eq!(group, 0);
        assert_eq!(&data[..], b"hello");
        assert!(rx.recv().is_none());
    }

    #[test]
    fn leave_stops_delivery() {
        let net = SimMulticast::new(2);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(3).unwrap();
        tx.send(3, Bytes::from_static(b"a"));
        rx.leave(3);
        tx.send(3, Bytes::from_static(b"b"));
        assert_eq!(rx.pending(), 1);
    }

    #[test]
    fn sender_joined_to_its_own_group_loops_back() {
        let net = SimMulticast::new(9);
        let mut ep = net.endpoint(0.0);
        ep.join(0).unwrap();
        ep.send(0, Bytes::from_static(b"loop"));
        assert_eq!(
            ep.recv().map(|(g, d)| (g, d.to_vec())),
            Some((0, b"loop".to_vec()))
        );
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let net = SimMulticast::new(3);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.3);
        rx.join(0).unwrap();
        for _ in 0..10_000 {
            tx.send(0, Bytes::from_static(b"x"));
        }
        let delivered = rx.pending() as f64;
        let rate = 1.0 - delivered / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "measured loss {rate}");
        assert_eq!(net.sent(), 10_000);
    }

    #[test]
    fn independent_loss_across_receivers() {
        let net = SimMulticast::new(4);
        let mut tx = net.endpoint(0.0);
        let mut a = net.endpoint(0.0);
        let mut b = net.endpoint(0.5);
        a.join(0).unwrap();
        b.join(0).unwrap();
        for _ in 0..2_000 {
            tx.send(0, Bytes::from_static(b"y"));
        }
        assert_eq!(a.pending(), 2_000);
        assert!(b.pending() < 1_400 && b.pending() > 600);
    }

    #[test]
    fn dropped_endpoints_detach_and_their_slots_are_reused() {
        let net = SimMulticast::new(5);
        let mut tx = net.endpoint(0.0);
        let mut keeper = net.endpoint(0.0);
        keeper.join(0).unwrap();
        // Waves of receivers join, get traffic and are dropped while still
        // joined — what a driver does with every finished client.
        for wave in 0..20 {
            let mut wave_eps: Vec<SimEndpoint> = (0..4).map(|_| net.endpoint(0.0)).collect();
            for ep in &mut wave_eps {
                ep.join(0).unwrap();
            }
            tx.send(0, Bytes::from_static(b"wave"));
            assert!(wave_eps.iter().all(|ep| ep.pending() == 1), "wave {wave}");
            drop(wave_eps);
            assert_eq!(net.endpoints(), 2, "dropped endpoints stay attached");
        }
        // The slot table never grew past the peak of live endpoints.
        assert_eq!(net.inner.lock().receivers.len(), 6);
        // Sends after the churn reach only live endpoints.
        let before = net.delivered();
        tx.send(0, Bytes::from_static(b"after"));
        assert_eq!(net.delivered() - before, 1);
        assert_eq!(keeper.pending(), 21);
        // A reused slot starts clean: no groups, no stale datagrams.
        let fresh = net.endpoint(0.0);
        assert_eq!(fresh.pending(), 0);
        tx.send(0, Bytes::from_static(b"unjoined"));
        assert_eq!(fresh.pending(), 0);
    }
}
