//! Exhaustive model-check of df-proto's cross-thread structures under the
//! `loom` shim (`shims/loom`): the [`SimMulticast`] channel's
//! join/leave/send/recv interplay and the [`driver::queue::IntentQueue`]
//! push/pop/disconnect protocol, across **every** interleaving within the
//! branch budget — not the schedule the OS happened to pick.
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
use df_proto::driver::queue::{bounded, PopError, PushError};
use df_proto::driver::shard::{flush_pending, FlushState};
use df_proto::transport::{SimMulticast, Transport};
use loom::model::Builder;
use loom::thread;
use std::collections::VecDeque;

fn checked(max_branches: usize, f: impl Fn() + Send + Sync + 'static) {
    checked_with(max_branches, None, f);
}

/// Like [`checked`] but with a preemption bound: sound bounded exploration
/// for the tests whose unbounded DPOR space is too large for CI.  Almost all
/// concurrency bugs manifest within two preemptions (CHESS's empirical
/// result), so `Some(2)` keeps the guarantee meaningful.
fn checked_with(
    max_branches: usize,
    preemption_bound: Option<usize>,
    f: impl Fn() + Send + Sync + 'static,
) {
    let explored = Builder {
        max_branches,
        preemption_bound,
        ..Builder::new()
    }
    .explored(f);
    assert!(
        explored <= max_branches / 2,
        "state space grew to {explored} schedules (cap {max_branches}); \
         shrink the test or justify a bigger cap"
    );
}

/// Two producers race a concurrently-popping consumer: every accepted intent
/// is delivered exactly once and per-producer FIFO order survives any
/// interleaving.
#[test]
fn intent_queue_no_loss_no_dup_fifo() {
    // Three threads × ~10 schedule points: the unbounded DPOR space is too
    // large for CI, so this one runs with a preemption bound of 2.
    checked_with(60_000, Some(2), || {
        let (tx, rx) = bounded::<u32>(4);
        let tx_a = tx.clone();
        let tx_b = tx.clone();
        drop(tx);
        let a = thread::spawn(move || {
            tx_a.push(1).unwrap();
            tx_a.push(2).unwrap();
        });
        let b = thread::spawn(move || {
            tx_b.push(10).unwrap();
        });
        // Bounded concurrent pops; the post-join drain below catches the rest.
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Ok(v) = rx.try_pop() {
                got.push(v);
            }
        }
        a.join().unwrap();
        b.join().unwrap();
        // Producers are gone: pops now yield items then Disconnected, within
        // ring-size + 1 iterations.
        for _ in 0..4 {
            match rx.try_pop() {
                Ok(v) => got.push(v),
                Err(PopError::Disconnected) => break,
                Err(PopError::Empty) => unreachable!("Empty after all senders dropped"),
            }
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 10], "lost or duplicated intent: {got:?}");
        let a_seq: Vec<u32> = got.iter().copied().filter(|&v| v == 1 || v == 2).collect();
        assert_eq!(a_seq, [1, 2], "producer A's intents reordered: {got:?}");
    });
}

/// `Disconnected` is only ever reported after every pushed intent has been
/// delivered — the senders-count-before-ring read order in `try_pop` is what
/// guarantees it, and reordering those two reads makes this test fail.
#[test]
fn intent_queue_disconnect_never_strands_an_intent() {
    checked(20_000, || {
        let (tx, rx) = bounded::<u32>(2);
        let t = thread::spawn(move || {
            tx.push(42).unwrap();
            // Sender drops at thread end: the Release decrement races the
            // consumer's Acquire read below.
        });
        let mut delivered = 0u32;
        for _ in 0..4 {
            match rx.try_pop() {
                Ok(v) => {
                    assert_eq!(v, 42);
                    delivered += 1;
                }
                Err(PopError::Disconnected) => {
                    assert_eq!(delivered, 1, "Disconnected with an intent still in flight");
                }
                Err(PopError::Empty) => {}
            }
        }
        t.join().unwrap();
        // Post-join the queue state is settled: drain whatever is left.
        while let Ok(v) = rx.try_pop() {
            assert_eq!(v, 42);
            delivered += 1;
        }
        assert_eq!(delivered, 1, "intent lost or duplicated");
    });
}

/// Backpressure at capacity 1: a refused push hands the intent back intact,
/// and bounded retries never duplicate — the consumer receives exactly the
/// accepted multiset.
#[test]
fn intent_queue_full_returns_intent_without_loss() {
    checked(60_000, || {
        let (tx, rx) = bounded::<u32>(1);
        let t = thread::spawn(move || {
            let mut accepted = Vec::new();
            for v in [5u32, 6] {
                let mut item = v;
                // Bounded retry: an unbounded spin would diverge the search.
                for _ in 0..2 {
                    match tx.push(item) {
                        Ok(()) => {
                            accepted.push(v);
                            break;
                        }
                        Err(PushError::Full(back)) => item = back,
                        Err(PushError::Closed(_)) => unreachable!("receiver is alive"),
                    }
                }
            }
            accepted
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Ok(v) = rx.try_pop() {
                got.push(v);
            }
        }
        let accepted = t.join().unwrap();
        while let Ok(v) = rx.try_pop() {
            got.push(v);
        }
        assert_eq!(got, accepted, "delivered set diverged from accepted set");
    });
}

/// Shard shutdown vs in-flight event handoff, happy half: a worker whose
/// final `flush_pending` fits the queue capacity flushes everything, and the
/// control plane — popping concurrently and then draining after the join —
/// receives every event exactly once, in order, before `Disconnected`.  This
/// is the worker-exit path of `driver::shard`'s teardown protocol.
#[test]
fn shard_teardown_flush_strands_nothing() {
    checked(60_000, || {
        let (tx, rx) = bounded::<u32>(4);
        let worker = thread::spawn(move || {
            let mut pending: VecDeque<u32> = VecDeque::from([1, 2, 3]);
            // Capacity ≥ pending: one pass must flush everything.
            assert_eq!(flush_pending(&mut pending, &tx), FlushState::Flushed);
            // The sender drops at thread end: its Release decrement races
            // the concurrent pops below.
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Ok(v) = rx.try_pop() {
                got.push(v);
            }
        }
        worker.join().unwrap();
        for _ in 0..4 {
            match rx.try_pop() {
                Ok(v) => got.push(v),
                Err(PopError::Disconnected) => break,
                Err(PopError::Empty) => unreachable!("Empty after worker exited"),
            }
        }
        assert_eq!(got, [1, 2, 3], "teardown lost, duplicated or reordered");
    });
}

/// Shard shutdown vs in-flight event handoff, backpressure half: with the
/// event queue at capacity 1, a worker's bounded flush attempts may leave a
/// backlog — which must ride the `Stopped` ack rather than be dropped.  The
/// control plane's view (queue events, then ack leftovers) is exactly the
/// pending set, in order, whatever the interleaving.
#[test]
fn shard_teardown_backlog_rides_the_stopped_ack() {
    checked(60_000, || {
        let (ev_tx, ev_rx) = bounded::<u32>(1);
        let (ack_tx, ack_rx) = bounded::<Vec<u32>>(2);
        let worker = thread::spawn(move || {
            let mut pending: VecDeque<u32> = VecDeque::from([1, 2]);
            // Bounded flush attempts (an unbounded retry loop would diverge
            // the DPOR search); capacity 1 means at least one event backlogs
            // unless the consumer drains between passes.
            for _ in 0..2 {
                if flush_pending(&mut pending, &ev_tx) != FlushState::Backlogged {
                    break;
                }
            }
            // Teardown: whatever could not be flushed rides the ack.
            let leftover: Vec<u32> = pending.drain(..).collect();
            ack_tx.push(leftover).expect("ack ring has room");
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Ok(v) = ev_rx.try_pop() {
                got.push(v);
            }
        }
        worker.join().unwrap();
        loop {
            match ev_rx.try_pop() {
                Ok(v) => got.push(v),
                Err(PopError::Disconnected) => break,
                Err(PopError::Empty) => unreachable!("Empty after worker exited"),
            }
        }
        let leftover = ack_rx.try_pop().expect("worker always acks before exit");
        got.extend(leftover);
        assert_eq!(
            got,
            [1, 2],
            "teardown handoff lost, duplicated or reordered"
        );
    });
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

/// An endpoint dropped while a sender races it: the send either reached the
/// endpoint before it detached or skipped it — never a torn slot — and once
/// the drop is done the channel holds nothing for it.  A new endpoint then
/// reuses the freed slot and starts clean: no groups, no stale datagrams.
#[test]
fn sim_multicast_drop_vs_send() {
    checked(40_000, || {
        let net = SimMulticast::new(13);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(0).unwrap();
        let dropper = thread::spawn(move || drop(rx));
        tx.send(0, Bytes::from_static(b"racing"));
        dropper.join().unwrap();
        assert!(net.delivered() <= 1, "one send delivered twice");
        assert_eq!(net.endpoints(), 1, "the dropped endpoint stayed attached");
        let mut fresh = net.endpoint(0.0);
        assert_eq!(net.endpoints(), 2);
        assert!(
            fresh.recv().is_none(),
            "a reused slot kept a stale datagram"
        );
        let delivered = net.delivered();
        tx.send(0, Bytes::from_static(b"unjoined"));
        assert_eq!(net.delivered(), delivered, "a reused slot kept its groups");
        fresh.join(0).unwrap();
        tx.send(0, Bytes::from_static(b"joined"));
        assert_eq!(
            fresh.recv().map(|(_, d)| d),
            Some(Bytes::from_static(b"joined"))
        );
    });
}
