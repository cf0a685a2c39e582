//! Bounded MPSC handoff queue between the control plane and shard workers.
//!
//! A shard owns its sessions and sockets outright, so everything that
//! crosses a thread crosses it as an *intent* pushed through one of these —
//! an add or step command going in, an ack or a
//! [`DriverEvent`](crate::driver::DriverEvent) coming out.  The queue is
//! bounded, multi-producer, single-consumer, and small enough to model-check
//! exhaustively (`tests/model_check.rs` under `RUSTFLAGS=--cfg df_check`
//! explores every interleaving of its push/pop protocol and proves no
//! intent is lost, duplicated or reordered).
//!
//! # Why bounded, why errors instead of blocking
//!
//! An unbounded queue converts a stalled consumer into unbounded memory
//! growth; a blocking push converts it into a stalled *producer*.  Both are
//! the failure modes the driver exists to avoid, so `push` returns the
//! intent to the caller on a full queue ([`PushError::Full`]) and the caller
//! decides: a worker keeps the event in its own buffer and retries after
//! its next iteration, the control plane drains events while it waits for
//! command room.
//!
//! # The disconnect protocol
//!
//! `try_pop` reads the live-sender count **before** draining the ring.  A
//! producer's final push happens-before its `Release` decrement of that
//! count, so if the consumer observes zero senders *and then* finds the ring
//! empty, no intent can still be in flight — [`PopError::Disconnected`] is
//! only ever reported after every pushed intent has been delivered.  (Read
//! the two in the other order and an intent pushed between them is silently
//! stranded; the model-check suite catches exactly that bug if you reorder
//! the lines.)

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use std::collections::VecDeque;

/// Why a [`IntentSender::push`] was refused; the intent comes back to the
/// caller either way.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; retry later.
    Full(T),
    /// The consumer is gone; the intent can never be delivered.
    Closed(T),
}

/// Why a [`IntentReceiver::try_pop`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// No intent queued right now, but producers are still live.
    Empty,
    /// Every producer is gone and the ring is drained: no intent will ever
    /// arrive again.
    Disconnected,
}

struct Shared<T> {
    ring: Mutex<VecDeque<T>>,
    /// Live [`IntentSender`] clones; the final drop's `Release` decrement is
    /// what makes [`PopError::Disconnected`] loss-free (see module docs).
    senders: AtomicUsize,
    /// Set when the [`IntentReceiver`] drops, so producers fail fast with
    /// [`PushError::Closed`] instead of filling a ring nobody drains.
    rx_gone: AtomicBool,
    capacity: usize,
}

/// Producer half of a [`bounded`] queue; clone one per producer thread.
pub struct IntentSender<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer half of a [`bounded`] queue; owned by the one thread that drains
/// it.
pub struct IntentReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded MPSC queue with room for `capacity` intents.
///
/// `capacity` is clamped to at least 1 (a zero-capacity queue could never
/// deliver anything).
pub fn bounded<T>(capacity: usize) -> (IntentSender<T>, IntentReceiver<T>) {
    let shared = Arc::new(Shared {
        ring: Mutex::new(VecDeque::new()),
        senders: AtomicUsize::new(1),
        rx_gone: AtomicBool::new(false),
        capacity: capacity.max(1),
    });
    (
        IntentSender {
            shared: shared.clone(),
        },
        IntentReceiver { shared },
    )
}

impl<T> IntentSender<T> {
    /// Enqueue `intent`, or hand it back if the queue is full or the
    /// consumer is gone.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when `capacity` intents are already queued;
    /// [`PushError::Closed`] when the receiver has been dropped.
    pub fn push(&self, intent: T) -> Result<(), PushError<T>> {
        // ordering: Acquire pairs with the Release store in
        // IntentReceiver::drop; Closed is advisory (a racing drop may still
        // strand this intent in the ring) so no stronger edge is needed.
        if self.shared.rx_gone.load(Ordering::Acquire) {
            return Err(PushError::Closed(intent));
        }
        let mut ring = self.shared.ring.lock();
        if ring.len() >= self.shared.capacity {
            return Err(PushError::Full(intent));
        }
        ring.push_back(intent);
        Ok(())
    }
}

impl<T> Clone for IntentSender<T> {
    fn clone(&self) -> Self {
        // ordering: Relaxed suffices — the count only needs to be exact, not
        // to publish data; cloning happens-before any push on the clone via
        // the Arc handoff that delivers it to the other thread.
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        IntentSender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for IntentSender<T> {
    fn drop(&mut self) {
        // ordering: Release pairs with the Acquire load at the top of
        // try_pop — everything this sender pushed is visible to a consumer
        // that observes the decremented count (the loss-freedom argument in
        // the module docs hangs on this edge).
        self.shared.senders.fetch_sub(1, Ordering::Release);
    }
}

impl<T> std::fmt::Debug for IntentSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntentSender")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> IntentReceiver<T> {
    /// Dequeue the oldest intent, if any.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] when nothing is queued but producers are live;
    /// [`PopError::Disconnected`] only once every producer has dropped *and*
    /// every intent they pushed has been delivered — never while an intent
    /// is still in flight.
    pub fn try_pop(&self) -> Result<T, PopError> {
        // Read the sender count BEFORE draining the ring: a push
        // happens-before its sender's final decrement, so zero-then-empty
        // proves nothing is in flight.  (Reordering these two reads is the
        // lost-intent bug the model-check suite exists to catch.)
        // ordering: Acquire pairs with the Release fetch_sub in
        // IntentSender::drop, making all pre-drop pushes visible to the lock
        // acquire below.
        let senders = self.shared.senders.load(Ordering::Acquire);
        if let Some(intent) = self.shared.ring.lock().pop_front() {
            return Ok(intent);
        }
        if senders == 0 {
            Err(PopError::Disconnected)
        } else {
            Err(PopError::Empty)
        }
    }
}

impl<T> Drop for IntentReceiver<T> {
    fn drop(&mut self) {
        // ordering: Release so a producer whose Acquire load sees the flag
        // also sees any state the consumer published before abandoning the
        // queue; exactness beyond that is not required (Closed is advisory).
        self.shared.rx_gone.store(true, Ordering::Release);
    }
}

impl<T> std::fmt::Debug for IntentReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntentReceiver")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, not(df_check)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(3);
        for g in 0..3u32 {
            tx.push(g).unwrap();
        }
        assert_eq!(tx.push(9), Err(PushError::Full(9)));
        for g in 0..3u32 {
            assert_eq!(rx.try_pop(), Ok(g));
        }
        assert_eq!(rx.try_pop(), Err(PopError::Empty));
    }

    #[test]
    fn disconnect_reported_only_after_drain() {
        let (tx, rx) = bounded(4);
        tx.push(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(7));
        assert_eq!(rx.try_pop(), Err(PopError::Disconnected));
    }

    #[test]
    fn closed_when_receiver_gone() {
        let (tx, rx) = bounded(4);
        drop(rx);
        assert_eq!(tx.push(1u32), Err(PushError::Closed(1)));
    }

    #[test]
    fn cross_thread_handoff_is_complete() {
        let (tx, rx) = bounded(64);
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for g in 0..16u32 {
                        tx.push((t, g)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        loop {
            match rx.try_pop() {
                Ok(i) => got.push(i),
                Err(PopError::Empty) => std::thread::yield_now(),
                Err(PopError::Disconnected) => break,
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 64);
        // Per-producer FIFO: each producer's items arrive in push order.
        for t in 0..4u32 {
            let groups: Vec<u32> = got
                .iter()
                .filter(|(producer, _)| *producer == t)
                .map(|(_, g)| *g)
                .collect();
            assert_eq!(groups, (0..16u32).collect::<Vec<_>>());
        }
    }
}
