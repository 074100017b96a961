//! The threaded transport: one endpoint per provider, `std::sync::mpsc`
//! channels, and an optional delay stage injecting modelled link latency.
//!
//! Topology is a full mesh, as in the paper's deployment: every provider
//! can message every other provider directly. When the latency model is
//! non-zero, sends are routed through a dedicated *delayer* thread that
//! holds each message until its sampled delivery time — the sender never
//! blocks, mirroring asynchronous sends in the ØMQ prototype.

use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dauctioneer_types::ProviderId;

use crate::latency::LatencyModel;
use crate::metrics::TrafficMetrics;

/// Error returned by [`Endpoint::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders are gone; no message can ever arrive.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "all peers disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A message in flight through the delay stage.
struct Delayed {
    deliver_at: Instant,
    seq: u64,
    from: ProviderId,
    to: ProviderId,
    payload: Bytes,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest deadline pops
        // first, with the enqueue sequence breaking ties (FIFO per link).
        other.deliver_at.cmp(&self.deliver_at).then(other.seq.cmp(&self.seq))
    }
}

/// One provider's handle onto the mesh.
#[derive(Debug)]
pub struct Endpoint {
    me: ProviderId,
    m: usize,
    /// Direct channels into each peer's inbox (fast path, Zero latency).
    direct: Vec<Sender<(ProviderId, Bytes)>>,
    /// Channel into the delayer thread (latency path), if any.
    delayer: Option<SyncSender<(ProviderId, ProviderId, Bytes)>>,
    inbox: Receiver<(ProviderId, Bytes)>,
    metrics: TrafficMetrics,
}

impl Endpoint {
    /// This endpoint's provider id.
    pub fn me(&self) -> ProviderId {
        self.me
    }

    /// Number of providers in the mesh.
    pub fn num_providers(&self) -> usize {
        self.m
    }

    /// All provider ids except this endpoint's own.
    pub fn peers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        ProviderId::all(self.m).filter(move |p| *p != self.me)
    }

    /// Send `payload` to `to`. Never blocks; messages to departed peers
    /// cannot be delivered — they are **counted** as drops in the hub's
    /// [`TrafficMetrics`] (never silently discarded), so late-session
    /// and chaos-induced loss is observable in every
    /// [`crate::TrafficSnapshot`].
    pub fn send(&self, to: ProviderId, payload: Bytes) {
        self.metrics.record_send(self.me, payload.len());
        match &self.delayer {
            Some(d) => {
                let len = payload.len();
                if d.send((self.me, to, payload)).is_err() {
                    self.metrics.record_drop(self.me, len);
                }
            }
            None => match self.direct.get(to.index()) {
                Some(ch) => {
                    let len = payload.len();
                    if ch.send((self.me, payload)).is_err() {
                        self.metrics.record_drop(self.me, len);
                    }
                }
                None => self.metrics.record_drop(self.me, payload.len()),
            },
        }
    }

    /// Send `payload` to every other provider.
    pub fn broadcast(&self, payload: &Bytes) {
        for peer in ProviderId::all(self.m) {
            if peer != self.me {
                self.send(peer, payload.clone());
            }
        }
    }

    /// Receive the next message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time,
    /// [`RecvError::Disconnected`] if every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok((from, payload)) => {
                self.metrics.record_recv(self.me, payload.len());
                Ok((from, payload))
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<(ProviderId, Bytes)> {
        self.inbox.try_recv().ok().inspect(|(_, payload)| {
            self.metrics.record_recv(self.me, payload.len());
        })
    }
}

/// A full mesh of `m` providers over `std::sync::mpsc` channels.
///
/// Construct, [`ThreadedHub::take_endpoints`], and hand one endpoint to
/// each provider thread. The hub owns the delayer thread (when latency is
/// modelled); dropping the hub after all endpoints are dropped shuts the
/// delayer down.
#[derive(Debug)]
pub struct ThreadedHub {
    endpoints: Vec<Endpoint>,
    metrics: TrafficMetrics,
    delayer_handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadedHub {
    /// Build a mesh of `m` providers with the given latency model. The
    /// `seed` drives latency sampling (reproducible jitter).
    pub fn new(m: usize, latency: LatencyModel, seed: u64) -> ThreadedHub {
        let metrics = TrafficMetrics::new(m);
        let mut inboxes_tx: Vec<Sender<(ProviderId, Bytes)>> = Vec::with_capacity(m);
        let mut inboxes_rx: Vec<Receiver<(ProviderId, Bytes)>> = Vec::with_capacity(m);
        for _ in 0..m {
            let (tx, rx) = channel();
            inboxes_tx.push(tx);
            inboxes_rx.push(rx);
        }

        let (delayer_tx, delayer_handle) = if latency.is_zero() {
            (None, None)
        } else {
            let (tx, rx) = sync_channel::<(ProviderId, ProviderId, Bytes)>(64 * 1024);
            let outs = inboxes_tx.clone();
            let delayer_metrics = metrics.clone();
            let handle = std::thread::Builder::new()
                .name("dauctioneer-delayer".into())
                .spawn(move || run_delayer(rx, outs, latency, seed, delayer_metrics))
                .expect("spawn delayer thread");
            (Some(tx), Some(handle))
        };
        // The in-process transport needs no I/O threads beyond the
        // optional delayer; the gauge makes that a queryable fact next
        // to the socket backends' reactor count.
        metrics.set_io_threads(u64::from(delayer_handle.is_some()));

        let endpoints = inboxes_rx
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| Endpoint {
                me: ProviderId(i as u32),
                m,
                direct: inboxes_tx.clone(),
                delayer: delayer_tx.clone(),
                inbox,
                metrics: metrics.clone(),
            })
            .collect();

        ThreadedHub { endpoints, metrics, delayer_handle }
    }

    /// Take ownership of the endpoints (one per provider, in id order).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_endpoints(&mut self) -> Vec<Endpoint> {
        assert!(!self.endpoints.is_empty(), "endpoints already taken");
        std::mem::take(&mut self.endpoints)
    }

    /// The hub's shared traffic counters.
    pub fn metrics(&self) -> TrafficMetrics {
        self.metrics.clone()
    }
}

impl Drop for ThreadedHub {
    fn drop(&mut self) {
        // Release our references so the delayer's input disconnects once
        // the endpoints are gone, then wait for it to finish draining.
        self.endpoints.clear();
        if let Some(handle) = self.delayer_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Delay-stage event loop: hold each message until its sampled delivery
/// time, then forward it to the destination inbox.
///
/// The loop never busy-polls: with nothing in flight it blocks on the
/// input channel, and with messages in flight it sleeps exactly until the
/// next heap deadline — including after the input disconnects, so final
/// deliveries and shutdown happen as soon as the last deadline passes.
fn run_delayer(
    input: Receiver<(ProviderId, ProviderId, Bytes)>,
    outs: Vec<Sender<(ProviderId, Bytes)>>,
    latency: LatencyModel,
    seed: u64,
    metrics: TrafficMetrics,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut input_open = true;
    loop {
        // Deliver everything due; undeliverable messages (destination
        // inbox gone or out of range) are counted, never silent.
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.deliver_at <= now) {
            let d = heap.pop().unwrap();
            match outs.get(d.to.index()) {
                Some(out) => {
                    let len = d.payload.len();
                    if out.send((d.from, d.payload)).is_err() {
                        metrics.record_drop(d.from, len);
                    }
                }
                None => metrics.record_drop(d.from, d.payload.len()),
            }
        }
        fn enqueue(
            heap: &mut BinaryHeap<Delayed>,
            seq: &mut u64,
            rng: &mut StdRng,
            latency: &LatencyModel,
            (from, to, payload): (ProviderId, ProviderId, Bytes),
        ) {
            let delay = latency.sample(rng);
            heap.push(Delayed { deliver_at: Instant::now() + delay, seq: *seq, from, to, payload });
            *seq += 1;
        }
        let next_deadline =
            heap.peek().map(|d| d.deliver_at.saturating_duration_since(Instant::now()));
        match next_deadline {
            None if !input_open => return, // drained and no more input: done
            None => {
                // Nothing in flight: block until input arrives or closes.
                match input.recv() {
                    Ok(msg) => enqueue(&mut heap, &mut seq, &mut rng, &latency, msg),
                    Err(_) => input_open = false,
                }
            }
            Some(wait) => {
                // Sleep exactly until the next deadline (or new input).
                if !input_open {
                    std::thread::sleep(wait);
                    continue;
                }
                match input.recv_timeout(wait) {
                    Ok(msg) => enqueue(&mut heap, &mut seq, &mut rng, &latency, msg),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => input_open = false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_delivery_zero_latency() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(2), Bytes::from_static(b"m"));
        let (from, payload) = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, ProviderId(0));
        assert_eq!(&payload[..], b"m");
    }

    #[test]
    fn broadcast_reaches_all_peers_but_not_self() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        eps[1].broadcast(&Bytes::from_static(b"b"));
        assert!(eps[0].recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(eps[2].recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn latency_delays_delivery() {
        let mut hub = ThreadedHub::new(2, LatencyModel::ConstantMicros(30_000), 7);
        let eps = hub.take_endpoints();
        let start = Instant::now();
        eps[0].send(ProviderId(1), Bytes::from_static(b"slow"));
        let got = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(&got.1[..], b"slow");
        assert!(elapsed >= Duration::from_millis(25), "delivered too early: {elapsed:?}");
    }

    #[test]
    fn fifo_per_link_with_constant_latency() {
        let mut hub = ThreadedHub::new(2, LatencyModel::ConstantMicros(5_000), 7);
        let eps = hub.take_endpoints();
        for i in 0..10u8 {
            eps[0].send(ProviderId(1), Bytes::copy_from_slice(&[i]));
        }
        for i in 0..10u8 {
            let (_, payload) = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(payload[0], i, "out-of-order delivery");
        }
    }

    #[test]
    fn recv_timeout_expires() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        let err = eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn peers_excludes_self() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        let peers: Vec<_> = eps[1].peers().collect();
        assert_eq!(peers, vec![ProviderId(0), ProviderId(2)]);
        assert_eq!(eps[1].num_providers(), 3);
    }

    #[test]
    fn metrics_count_traffic() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let metrics = hub.metrics();
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(1), Bytes::from_static(b"12345"));
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.per_provider[0].sent_bytes, 5);
        assert_eq!(snap.per_provider[1].received_bytes, 5);
    }

    #[test]
    fn undeliverable_messages_are_counted_not_silent() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let metrics = hub.metrics();
        let mut eps = hub.take_endpoints();
        let survivor = eps.remove(0);
        drop(eps); // endpoint 1 departs; its inbox receiver is gone
        survivor.send(ProviderId(1), Bytes::from_static(b"ghost"));
        // Out-of-range destinations are undeliverable too.
        survivor.send(ProviderId(7), Bytes::from_static(b"void!"));
        let snap = metrics.snapshot();
        assert_eq!(snap.per_provider[0].dropped_messages, 2);
        assert_eq!(snap.per_provider[0].dropped_bytes, 10);
        assert_eq!(snap.total_dropped(), 2);
        // Sends are still counted as sends — the drop counter is additive
        // observability, not a reclassification.
        assert_eq!(snap.per_provider[0].sent_messages, 2);
    }

    #[test]
    fn delayer_counts_drops_to_departed_peers() {
        let mut hub = ThreadedHub::new(2, LatencyModel::ConstantMicros(2_000), 5);
        let metrics = hub.metrics();
        let mut eps = hub.take_endpoints();
        let survivor = eps.remove(0);
        drop(eps); // peer 1 departs before the delayed delivery lands
        survivor.send(ProviderId(1), Bytes::from_static(b"late"));
        drop(survivor);
        drop(hub); // joins the delayer: the drop is recorded by now
        let snap = metrics.snapshot();
        assert_eq!(snap.per_provider[0].dropped_messages, 1);
        assert_eq!(snap.per_provider[0].dropped_bytes, 4);
    }

    #[test]
    fn hub_shuts_down_cleanly_with_latency_thread() {
        let mut hub = ThreadedHub::new(2, LatencyModel::ConstantMicros(1_000), 9);
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(1), Bytes::from_static(b"x"));
        drop(eps);
        drop(hub); // must not hang
    }

    #[test]
    fn delayer_shutdown_is_prompt_after_disconnect() {
        let mut hub = ThreadedHub::new(2, LatencyModel::ConstantMicros(2_000), 11);
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(1), Bytes::from_static(b"late"));
        drop(eps); // disconnects the delayer input with one delivery queued
        let start = Instant::now();
        drop(hub); // joins the delayer: must wait only the 2 ms deadline
                   // Bound chosen against the legacy 50 ms fallback poll: generous
                   // for the 2 ms deadline, but a poll tick would still blow it.
        assert!(
            start.elapsed() < Duration::from_millis(48),
            "delayer lingered after disconnect: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn threads_can_exchange_concurrently() {
        let mut hub =
            ThreadedHub::new(4, LatencyModel::UniformMicros { min_micros: 10, max_micros: 500 }, 3);
        let eps = hub.take_endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    ep.broadcast(&Bytes::from_static(b"ping"));
                    let mut got = 0;
                    while got < 3 {
                        if ep.recv_timeout(Duration::from_secs(5)).is_ok() {
                            got += 1;
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
    }
}
