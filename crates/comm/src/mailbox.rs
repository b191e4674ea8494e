//! Two-sided tagged messaging — the MPI stand-in.
//!
//! Compass (listing 1 of the paper) uses `MPI_Isend` to ship one aggregated
//! spike buffer per destination process, then `MPI_Iprobe` with
//! `MPI_Get_count` and `MPI_Recv` to drain incoming messages. [`MailboxSet`] reproduces that
//! interface: each rank owns a [`Mailbox`]; sends enqueue an [`Envelope`]
//! into the destination's box; receives match on `(source, tag)` with
//! wildcard support, exactly like `MPI_ANY_SOURCE` / `MPI_ANY_TAG`.
//!
//! Matching is FIFO per (source, tag) pair — the MPI non-overtaking
//! guarantee — because envelopes are scanned in arrival order.

use crate::fault::FaultInjector;
use crate::metrics::TransportMetrics;
use crate::reliable::ReliableWorld;
use crate::sync::{Condvar, Mutex};
use crate::world::WaitStopped;
use crate::Rank;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Message tag, separating application traffic from collective-internal
/// traffic (see [`crate::collectives`] for the reserved ranges).
pub type Tag = u64;

/// A delivered message: source rank, tag, and owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Rank that sent the message.
    pub src: Rank,
    /// Application- or collective-assigned tag.
    pub tag: Tag,
    /// Payload bytes (moved, never copied after send).
    pub payload: Vec<u8>,
}

/// Selects which envelopes a receive operation may match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Required source rank, or `None` for `MPI_ANY_SOURCE`.
    pub src: Option<Rank>,
    /// Required tag, or `None` for `MPI_ANY_TAG`.
    pub tag: Option<Tag>,
}

impl Match {
    /// Matches any envelope.
    pub const ANY: Match = Match {
        src: None,
        tag: None,
    };

    /// Matches envelopes with the given tag from any source.
    pub fn tag(tag: Tag) -> Match {
        Match {
            src: None,
            tag: Some(tag),
        }
    }

    /// Matches envelopes from the given source with the given tag.
    pub fn from(src: Rank, tag: Tag) -> Match {
        Match {
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn accepts(&self, e: &Envelope) -> bool {
        self.src.is_none_or(|s| s == e.src) && self.tag.is_none_or(|t| t == e.tag)
    }
}

/// One rank's incoming message queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    arrived: Condvar,
    /// One more than the rank whose failure stops every wait on this
    /// mailbox (see [`MailboxSet::fail`]); 0 while none has failed.
    /// Written under the queue lock, so a waiter cannot miss it.
    failed: AtomicUsize,
}

impl Mailbox {
    fn new() -> Self {
        Self::default()
    }

    fn push(&self, e: Envelope) {
        self.queue.lock().push_back(e);
        // Multiple threads of one rank may block on the same mailbox with
        // different match criteria (Compass drains messages from all team
        // members); wake them all and let matching sort it out. The lock
        // is already released, so a woken waiter does not block on it
        // again: a waiter checks the queue under the lock and sleeps as it
        // releases it, so it either saw the envelope or hears this notify.
        self.arrived.notify_all();
    }

    /// Removes and returns the first queued envelope accepted by `m`, or
    /// `None` if nothing matches right now.
    pub fn try_recv(&self, m: Match) -> Option<Envelope> {
        let mut q = self.queue.lock();
        let idx = q.iter().position(|e| m.accepts(e))?;
        q.remove(idx)
    }

    /// Unwinds with [`WaitStopped`] once a rank of the world has failed.
    fn stop_if_failed(&self) {
        if let Some(failed) = self.failed.load(Ordering::Relaxed).checked_sub(1) {
            WaitStopped { failed }.unwind()
        }
    }

    /// Blocks until an envelope accepted by `m` arrives, then removes and
    /// returns it.
    ///
    /// # Panics
    /// Unwinds with [`WaitStopped`] when no match is queued and a rank of
    /// the world has failed ([`MailboxSet::fail`]).
    pub fn recv(&self, m: Match) -> Envelope {
        let mut q = self.queue.lock();
        loop {
            if let Some(idx) = q.iter().position(|e| m.accepts(e)) {
                return q.remove(idx).expect("index just found");
            }
            self.stop_if_failed();
            self.arrived.wait(&mut q);
        }
    }

    /// Like [`Mailbox::recv`], but gives up (returning `None`) when
    /// `give_up()` turns true while the queue holds no match. A failed
    /// rank stops it as it stops [`Mailbox::recv`].
    ///
    /// The queue is always checked *before* the predicate, so a message
    /// that arrived before the give-up condition became true is still
    /// delivered — the caller's outcome depends only on the arrival
    /// order of messages and condition flips, not on wake-up timing.
    /// Someone must call [`MailboxSet::wake_all`] (or deliver a message)
    /// after flipping the condition, or the waiter may sleep forever.
    pub fn recv_until(&self, m: Match, give_up: impl Fn() -> bool) -> Option<Envelope> {
        let mut q = self.queue.lock();
        loop {
            if let Some(idx) = q.iter().position(|e| m.accepts(e)) {
                return q.remove(idx);
            }
            if give_up() {
                return None;
            }
            self.stop_if_failed();
            self.arrived.wait(&mut q);
        }
    }

    /// Non-destructively reports the `(src, tag, len)` of the first queued
    /// envelope accepted by `m` — the `MPI_Iprobe` + `MPI_Get_count` pair.
    pub fn probe(&self, m: Match) -> Option<(Rank, Tag, usize)> {
        let q = self.queue.lock();
        q.iter()
            .find(|e| m.accepts(e))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued envelopes (any tag).
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

/// The full set of mailboxes for a world of `P` ranks, plus shared metrics.
///
/// Cheap to clone (all `Arc`s); every rank holds one.
#[derive(Clone)]
pub struct MailboxSet {
    boxes: Arc<[Mailbox]>,
    metrics: Arc<TransportMetrics>,
    faults: Option<Arc<FaultInjector>>,
    rely: Option<Arc<ReliableWorld>>,
}

impl MailboxSet {
    /// Creates mailboxes for `ranks` ranks reporting into `metrics`.
    pub fn new(ranks: usize, metrics: Arc<TransportMetrics>) -> Self {
        Self::with_reliability(ranks, metrics, None, None)
    }

    /// Like [`MailboxSet::new`] with an optional fault injector applied to
    /// every application-level [`MailboxSet::send`] and an optional
    /// reliable-delivery layer. Payloads are framed
    /// ([`ReliableWorld::frame`]) *before* the fault injector sees them, so
    /// faults strike framed bytes — exactly what a lossy network would
    /// corrupt. Collective-internal traffic is neither framed nor faulted
    /// (see [`crate::fault`] for why).
    pub fn with_reliability(
        ranks: usize,
        metrics: Arc<TransportMetrics>,
        faults: Option<Arc<FaultInjector>>,
        rely: Option<Arc<ReliableWorld>>,
    ) -> Self {
        let boxes: Vec<Mailbox> = (0..ranks).map(|_| Mailbox::new()).collect();
        Self {
            boxes: boxes.into(),
            metrics,
            faults,
            rely,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// The reliable-delivery layer, when one is installed.
    pub fn reliability(&self) -> Option<&Arc<ReliableWorld>> {
        self.rely.as_ref()
    }

    /// Sends `payload` from `src` to `dst` under `tag` (counted in metrics).
    ///
    /// Like `MPI_Isend` with an eager protocol: completes locally
    /// immediately; the payload is moved, not copied. Under fault
    /// injection the payload may be emptied, doubled, corrupted, or
    /// swapped for a previously delayed one — but an envelope is always
    /// delivered, so the receiver's expected-message-count protocol still
    /// holds.
    pub fn send(&self, src: Rank, dst: Rank, tag: Tag, payload: Vec<u8>) {
        let payload = match &self.rely {
            Some(r) => r.frame(src, dst, payload),
            None => payload,
        };
        let payload = match &self.faults {
            Some(f) => f.transform(src, dst, payload),
            None => payload,
        };
        self.metrics.record_p2p(payload.len());
        self.boxes[dst].push(Envelope { src, tag, payload });
    }

    /// Sends bytes that already went through framing/faulting once —
    /// the engine's end-of-run flush of payloads the `Delay` fault still
    /// holds. Counted in metrics, but neither re-framed nor re-faulted
    /// (the bytes are as the wire last saw them).
    pub fn send_flush(&self, src: Rank, dst: Rank, tag: Tag, payload: Vec<u8>) {
        self.metrics.record_p2p(payload.len());
        self.boxes[dst].push(Envelope { src, tag, payload });
    }

    /// Sends without recording metrics — used by collectives, which account
    /// their internal traffic under `collective_messages` instead so the
    /// Fig. 4b message-count analysis matches the paper's (which counts
    /// point-to-point spike messages separately from the Reduce-scatter).
    pub(crate) fn send_internal(&self, src: Rank, dst: Rank, tag: Tag, payload: Vec<u8>) {
        self.boxes[dst].push(Envelope { src, tag, payload });
    }

    /// The mailbox owned by `rank`.
    pub fn mailbox(&self, rank: Rank) -> &Mailbox {
        &self.boxes[rank]
    }

    /// Wakes every thread blocked in a receive on any mailbox, without
    /// delivering anything — so waiters re-check their
    /// [`Mailbox::recv_until`] give-up conditions. A dying rank calls
    /// this after marking itself dead in the membership view.
    pub fn wake_all(&self) {
        for b in self.boxes.iter() {
            // Take the queue lock so the notify cannot slide between a
            // waiter's condition check and its wait.
            let _q = b.queue.lock();
            b.arrived.notify_all();
        }
    }

    /// Stops every receive, blocked or to come, that finds no match
    /// queued: each unwinds with [`WaitStopped`] naming `failed`. The
    /// first failure recorded is the one named.
    pub fn fail(&self, failed: Rank) {
        for b in self.boxes.iter() {
            let _q = b.queue.lock();
            let _ = b
                .failed
                .compare_exchange(0, failed + 1, Ordering::Relaxed, Ordering::Relaxed);
            b.arrived.notify_all();
        }
    }

    /// Shared metrics block.
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranks: usize) -> MailboxSet {
        MailboxSet::new(ranks, Arc::new(TransportMetrics::new()))
    }

    #[test]
    fn send_recv_roundtrip() {
        let s = set(2);
        s.send(0, 1, 7, vec![1, 2, 3]);
        let e = s.mailbox(1).recv(Match::from(0, 7));
        assert_eq!(e.src, 0);
        assert_eq!(e.tag, 7);
        assert_eq!(e.payload, vec![1, 2, 3]);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let s = set(1);
        assert!(s.mailbox(0).try_recv(Match::ANY).is_none());
    }

    #[test]
    fn tag_matching_skips_non_matching() {
        let s = set(2);
        s.send(0, 1, 1, vec![1]);
        s.send(0, 1, 2, vec![2]);
        // Receive tag 2 first even though tag 1 arrived earlier.
        assert_eq!(s.mailbox(1).recv(Match::tag(2)).payload, vec![2]);
        assert_eq!(s.mailbox(1).recv(Match::tag(1)).payload, vec![1]);
        assert!(s.mailbox(1).is_empty());
    }

    #[test]
    fn source_matching() {
        let s = set(3);
        s.send(0, 2, 5, vec![0]);
        s.send(1, 2, 5, vec![1]);
        let from1 = s.mailbox(2).recv(Match {
            src: Some(1),
            tag: Some(5),
        });
        assert_eq!(from1.payload, vec![1]);
    }

    #[test]
    fn fifo_per_source_tag_pair() {
        let s = set(2);
        for i in 0..10u8 {
            s.send(0, 1, 9, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(s.mailbox(1).recv(Match::from(0, 9)).payload, vec![i]);
        }
    }

    #[test]
    fn probe_is_non_destructive() {
        let s = set(2);
        s.send(0, 1, 3, vec![9; 40]);
        let (src, tag, len) = s.mailbox(1).probe(Match::ANY).unwrap();
        assert_eq!((src, tag, len), (0, 3, 40));
        assert_eq!(s.mailbox(1).len(), 1);
        assert!(s.mailbox(1).try_recv(Match::from(src, tag)).is_some());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let s = set(2);
        let s2 = s.clone();
        let h = std::thread::spawn(move || s2.mailbox(1).recv(Match::tag(4)).payload);
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.send(0, 1, 4, vec![42]);
        assert_eq!(h.join().unwrap(), vec![42]);
    }

    #[test]
    fn probe_sees_what_recv_would_take() {
        let s = set(2);
        s.send(0, 1, 4, vec![7; 3]);
        s.send(0, 1, 4, vec![8; 5]);
        let (src, tag, len) = s.mailbox(1).probe(Match::tag(4)).unwrap();
        let e = s.mailbox(1).recv(Match::from(src, tag));
        assert_eq!(e.payload.len(), len);
        assert_eq!(e.payload, vec![7; 3], "probe must report the head");
    }

    #[test]
    fn metrics_count_messages_and_bytes() {
        let s = set(2);
        s.send(0, 1, 0, vec![0; 100]);
        s.send(1, 0, 0, vec![0; 28]);
        let m = s.metrics().snapshot();
        assert_eq!(m.p2p_messages, 2);
        assert_eq!(m.p2p_bytes, 128);
    }

    #[test]
    fn internal_send_skips_p2p_metrics() {
        let s = set(2);
        s.send_internal(0, 1, 0, vec![0; 100]);
        assert_eq!(s.metrics().snapshot().p2p_messages, 0);
        assert_eq!(s.mailbox(1).len(), 1);
    }

    #[test]
    fn any_source_any_tag_takes_arrival_order() {
        let s = set(3);
        s.send(1, 0, 5, vec![1]);
        s.send(2, 0, 9, vec![2]);
        s.send(1, 0, 9, vec![3]);
        assert_eq!(s.mailbox(0).recv(Match::ANY).payload, vec![1]);
        assert_eq!(s.mailbox(0).recv(Match::ANY).payload, vec![2]);
        assert_eq!(s.mailbox(0).recv(Match::ANY).payload, vec![3]);
    }

    #[test]
    fn concurrent_senders_lose_nothing() {
        let s = set(5);
        let handles: Vec<_> = (0..4)
            .map(|src| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        s.send(src, 4, src as u64, i.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut total = 0;
        while s.mailbox(4).try_recv(Match::ANY).is_some() {
            total += 1;
        }
        assert_eq!(total, 1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::metrics::TransportMetrics;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// A reference model of one mailbox: a plain FIFO with linear-scan
    /// matching. The real mailbox must agree on every operation.
    #[derive(Default)]
    struct ModelBox {
        queue: VecDeque<Envelope>,
    }

    impl ModelBox {
        fn push(&mut self, e: Envelope) {
            self.queue.push_back(e);
        }

        fn try_recv(&mut self, m: Match) -> Option<Envelope> {
            let idx = self.queue.iter().position(|e| m.accepts(e))?;
            self.queue.remove(idx)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Send {
            src: usize,
            tag: u64,
            byte: u8,
        },
        Recv {
            src: Option<usize>,
            tag: Option<u64>,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..3, 0u64..4, proptest::num::u8::ANY).prop_map(|(src, tag, byte)| Op::Send {
                src,
                tag,
                byte
            }),
            (
                proptest::option::of(0usize..3),
                proptest::option::of(0u64..4)
            )
                .prop_map(|(src, tag)| Op::Recv { src, tag }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model-based test: arbitrary interleavings of sends and matched
        /// receives behave exactly like the reference FIFO model.
        #[test]
        fn mailbox_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
            let real = MailboxSet::new(1, Arc::new(TransportMetrics::new()));
            let mut model = ModelBox::default();
            for op in ops {
                match op {
                    Op::Send { src, tag, byte } => {
                        real.send(src, 0, tag, vec![byte]);
                        model.push(Envelope {
                            src,
                            tag,
                            payload: vec![byte],
                        });
                    }
                    Op::Recv { src, tag } => {
                        let m = Match { src, tag };
                        let a = real.mailbox(0).try_recv(m);
                        let b = model.try_recv(m);
                        prop_assert_eq!(a, b);
                    }
                }
            }
            // Drain both and compare the remainder in order.
            let mut rest_real = Vec::new();
            while let Some(e) = real.mailbox(0).try_recv(Match::ANY) {
                rest_real.push(e);
            }
            let mut rest_model = Vec::new();
            while let Some(e) = model.try_recv(Match::ANY) {
                rest_model.push(e);
            }
            prop_assert_eq!(rest_real, rest_model);
        }
    }
}
