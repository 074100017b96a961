//! The socket reactor: **one OS thread driving every nonblocking
//! connection of a mesh**.
//!
//! The previous transport design paid two blocking threads (a reader and
//! a coalescing writer) per peer connection — `2m(m−1)` threads for an
//! `m`-provider mux mesh before a single client connects. The reactor
//! replaces all of them with a single epoll event loop (the vendored
//! [`polling`] subset): every socket is nonblocking and registered with
//! level-triggered readiness; reads feed per-connection
//! [`FrameAssembler`]s (frames arrive split at arbitrary byte
//! boundaries), writes drain per-connection bounded outbound rings into
//! one reused coalescing buffer, and an eventfd waker lets protocol
//! threads interrupt a blocked `epoll_wait` when they enqueue.
//!
//! The lifecycle per connection:
//!
//! 1. **enqueue** — a protocol thread calls [`ConnTx::send`]: the frame
//!    lands in the connection's bounded ring (blocking when full — pure
//!    backpressure), the connection's key goes onto the *dirty* list,
//!    and the waker fires unless a wakeup is already pending.
//! 2. **drain** — the reactor wakes, clears its wake-pending flag
//!    *before* reading the dirty list (so no enqueue can slip between
//!    drain and sleep unnoticed), and for each dirty connection refills
//!    the write buffer from the ring — up to the coalescing high-water
//!    mark, exactly the batch the old writer threads built — and writes
//!    until done or `WouldBlock`.
//! 3. **writability** — only a connection with unflushed bytes holds
//!    `EPOLLOUT` interest; when the kernel drains, the event fires, the
//!    remaining bytes go out, and write interest is dropped again.
//! 4. **readability** — level-triggered reads pull socket bytes into the
//!    connection's assembler and route every completed frame to its
//!    lane's inbox.
//! 5. **close** — an endpoint drop sends a `CloseNode` control message
//!    and blocks for the ack: the reactor flushes the node's rings and
//!    write buffers to the kernel, then half-closes each socket
//!    (`shutdown(Write)` — FIN *after* the data), preserving the
//!    drain-then-shutdown losslessness of the threaded design. Read
//!    sides stay open until the peer's EOF so buffered inbound frames
//!    are never destroyed by an early full close.
//!
//! One reactor serves a whole in-process loopback mesh (all `m` nodes),
//! and one serves each node of a multi-host deployment — either way the
//! I/O thread count is **O(1)**, independent of mesh size and lane
//! count, which is what the thread-accounting regression tests pin down.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use polling::{Events, Interest, PollMode, Poller};

use dauctioneer_types::ProviderId;

use crate::frame::FrameAssembler;
use crate::frame::{mux_frame_into, mux_unframe, MAX_WIRE_FRAME};
use crate::metrics::TrafficMetrics;
use crate::tcp::{OUTBOUND_QUEUE_FRAMES, WRITE_COALESCE_BYTES};

/// Name every reactor thread carries (plus a discriminating suffix).
/// The thread-accounting tests count threads by this prefix, so it must
/// survive the kernel's 15-byte `comm` truncation.
pub(crate) const REACTOR_THREAD_PREFIX: &str = "net-reactor";

/// One provider's wiring handed to [`spawn`].
#[derive(Debug)]
pub(crate) struct NodeSpec {
    /// The node's provider id.
    pub me: ProviderId,
    /// `streams[j]` is the established connection to peer `j` (`None` at
    /// the node's own index). The reactor takes ownership and switches
    /// every stream to nonblocking mode.
    pub streams: Vec<Option<TcpStream>>,
    /// Inbound frame sinks, one per lane: the lane id is folded into each
    /// frame's tag on the way out and demultiplexed here on the way in.
    /// Dropped by the reactor once the node's last read side dies, so
    /// receivers observe `Disconnected`.
    pub lanes: Vec<Sender<(ProviderId, Bytes)>>,
    /// The node's traffic counters (shared mesh-wide for loopback).
    pub metrics: TrafficMetrics,
}

/// What [`spawn`] hands back per node: the per-peer send handles and the
/// close handle the endpoint teardown calls.
#[derive(Debug)]
pub(crate) struct NodeIo {
    /// `outbound[j]` sends to peer `j` (`None` at the node's own index).
    pub outbound: Vec<Option<ConnTx>>,
    /// Flush-and-half-close handle for this node's connections.
    pub closer: NodeCloser,
}

/// Sender half of one connection's bounded outbound ring, plus the
/// wakeup plumbing. Cloneable: every lane endpoint of a node shares the
/// same per-peer ring.
#[derive(Debug, Clone)]
pub(crate) struct ConnTx {
    ring: SyncSender<(usize, Bytes)>,
    key: usize,
    shared: Arc<Shared>,
}

impl ConnTx {
    /// Queue `(lane, payload)` for this connection and wake the reactor.
    /// Blocks only when the ring is full (a peer that stopped draining —
    /// pure backpressure, bounded memory). Errors (reactor gone) drop
    /// the frame silently, exactly like the old writer-thread queues.
    pub fn send(&self, lane: usize, payload: Bytes) {
        if self.ring.send((lane, payload)).is_ok() {
            let _ = self.shared.dirty.send(self.key);
            self.shared.wake();
        }
    }
}

/// Handle that flushes one node's connections and half-closes them.
///
/// [`NodeCloser::close`] blocks until every queued frame of the node has
/// reached the kernel and each socket's write side carries its FIN —
/// the reactor's equivalent of "join the writer threads" — so a decided
/// session's final sends are never lost to teardown.
#[derive(Debug)]
pub(crate) struct NodeCloser {
    node: usize,
    shared: Arc<Shared>,
}

impl NodeCloser {
    /// Flush and half-close the node's connections; returns once done.
    /// Must not be called from the reactor thread itself (it would
    /// deadlock on its own ack); endpoint drops run on protocol threads.
    pub fn close(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.shared.control.send(Control::CloseNode { node: self.node, ack: ack_tx }).is_err() {
            return; // reactor already gone; nothing left to flush
        }
        self.shared.wake();
        // Generous hang-guard: the flush itself is bounded by ring size
        // and kernel buffers, so this only fires if the reactor died.
        let _ = ack_rx.recv_timeout(Duration::from_secs(30));
    }
}

/// Owner handle for the reactor thread; the last clone's drop shuts the
/// event loop down (after every node has been closed) and joins it.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// OS threads the reactor runs: always exactly one.
    pub fn io_threads(&self) -> usize {
        1
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        let _ = self.shared.control.send(Control::Shutdown);
        self.shared.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Cross-thread plumbing shared by senders, closers and the loop.
#[derive(Debug)]
struct Shared {
    poller: Poller,
    dirty: Sender<usize>,
    control: Sender<Control>,
    /// True while a waker write is pending that the loop has not yet
    /// consumed; lets `n` concurrent sends pay one eventfd write.
    wake_pending: AtomicBool,
}

impl Shared {
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            let _ = self.poller.notify();
        }
    }
}

#[derive(Debug)]
enum Control {
    /// Flush `node`'s rings to the kernel, FIN its sockets, then ack.
    CloseNode { node: usize, ack: SyncSender<()> },
    /// Exit the loop (sent by the last [`ReactorHandle`] drop).
    Shutdown,
}

/// One registered connection's state.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    key: usize,
    node: usize,
    peer: ProviderId,
    assembler: FrameAssembler,
    ring: Receiver<(usize, Bytes)>,
    /// Encoded-but-unflushed outbound bytes (one reused buffer — the
    /// coalescing batch) and the how-far-written cursor into it.
    wbuf: BytesMut,
    wpos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Node close requested: flush, then FIN.
    closing: bool,
    /// Write side finished (flushed + FIN, or the socket died).
    write_shut: bool,
    /// Read side still live (peer has not shown EOF).
    read_open: bool,
}

/// Per-node bookkeeping.
#[derive(Debug)]
struct NodeState {
    me: ProviderId,
    /// Dropped once the last read side dies, so lane receivers observe
    /// `Disconnected` exactly like the old reader-thread teardown.
    lanes: Option<Vec<Sender<(ProviderId, Bytes)>>>,
    metrics: TrafficMetrics,
    conn_keys: Vec<usize>,
    /// Connections whose read side is still open.
    read_live: usize,
    /// Connections whose write side is not yet shut.
    write_live: usize,
    closing: bool,
    ack: Option<SyncSender<()>>,
}

/// Spawn one reactor thread over `specs` (all nodes of an in-process
/// mesh, or the single node of a multi-host endpoint). Returns the
/// thread's owner handle plus per-node send/close wiring, and stores the
/// O(1) thread roster into every node's `io_threads` gauge.
///
/// # Errors
///
/// Poller creation, socket-option, registration or thread-spawn failure.
pub(crate) fn spawn(specs: Vec<NodeSpec>) -> io::Result<(Arc<ReactorHandle>, Vec<NodeIo>)> {
    let poller = Poller::new()?;
    let (dirty_tx, dirty_rx) = channel();
    let (control_tx, control_rx) = channel();
    let shared = Arc::new(Shared {
        poller,
        dirty: dirty_tx,
        control: control_tx,
        wake_pending: AtomicBool::new(false),
    });

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut nodes: Vec<NodeState> = Vec::with_capacity(specs.len());
    let mut ios: Vec<NodeIo> = Vec::with_capacity(specs.len());

    for (node_idx, spec) in specs.into_iter().enumerate() {
        spec.metrics.set_io_threads(1);
        let m = spec.streams.len();
        let mut outbound: Vec<Option<ConnTx>> = (0..m).map(|_| None).collect();
        let mut conn_keys = Vec::new();
        for (peer, slot) in spec.streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            stream.set_nonblocking(true)?;
            let _ = stream.set_nodelay(true);
            let key = conns.len();
            shared.poller.add(&stream, key, Interest::READABLE, PollMode::Level)?;
            let (ring_tx, ring_rx) = sync_channel(OUTBOUND_QUEUE_FRAMES);
            outbound[peer] = Some(ConnTx { ring: ring_tx, key, shared: Arc::clone(&shared) });
            conn_keys.push(key);
            conns.push(Some(Conn {
                stream,
                key,
                node: node_idx,
                peer: ProviderId(peer as u32),
                assembler: FrameAssembler::new(),
                ring: ring_rx,
                wbuf: BytesMut::with_capacity(64 * 1024),
                wpos: 0,
                interest: Interest::READABLE,
                closing: false,
                write_shut: false,
                read_open: true,
            }));
        }
        let live = conn_keys.len();
        nodes.push(NodeState {
            me: spec.me,
            lanes: Some(spec.lanes),
            metrics: spec.metrics,
            conn_keys,
            read_live: live,
            write_live: live,
            closing: false,
            ack: None,
        });
        ios.push(NodeIo {
            outbound,
            closer: NodeCloser { node: node_idx, shared: Arc::clone(&shared) },
        });
    }

    // A node with no live connections delivers Disconnected immediately,
    // matching the threaded design (its lane senders never existed).
    for node in &mut nodes {
        if node.read_live == 0 {
            node.lanes = None;
        }
    }

    let reactor = Reactor {
        shared: Arc::clone(&shared),
        control: control_rx,
        dirty: dirty_rx,
        conns,
        nodes,
        scratch: vec![0u8; 64 * 1024],
    };
    let thread = std::thread::Builder::new()
        .name(REACTOR_THREAD_PREFIX.to_string())
        .spawn(move || reactor.run())?;

    Ok((Arc::new(ReactorHandle { shared, thread: Some(thread) }), ios))
}

/// Append `(lane, payload)` to `buf` as one mux wire frame. Oversized
/// payloads are skipped defensively — the endpoint's `send` already
/// drops-and-counts them, and a panic here would take the whole mesh's
/// I/O down.
fn encode_frame(lane: usize, payload: &Bytes, buf: &mut BytesMut) {
    if payload.len() <= MAX_WIRE_FRAME - 8 {
        mux_frame_into(lane, payload, buf);
    }
}

/// What a read pass decided about the connection.
enum ReadOutcome {
    /// Drained to `WouldBlock`; keep everything as is.
    Keep,
    /// Peer EOF or socket error: the read side is done.
    Eof,
    /// Undecodable stream (corrupt length, bad lane): tear the whole
    /// connection down.
    Kill,
}

struct Reactor {
    shared: Arc<Shared>,
    control: Receiver<Control>,
    dirty: Receiver<usize>,
    conns: Vec<Option<Conn>>,
    nodes: Vec<NodeState>,
    scratch: Vec<u8>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            if self.shared.poller.wait(&mut events, None).is_err() {
                break; // fatal epoll failure: bail out; channels disconnect
            }
            // Reset *before* draining: any send that lands after the
            // drain sees the flag cleared and fires a fresh wakeup, so
            // nothing slips through while the loop goes back to sleep.
            self.shared.wake_pending.store(false, Ordering::Release);

            let mut shutdown = false;
            while let Ok(ctl) = self.control.try_recv() {
                match ctl {
                    Control::CloseNode { node, ack } => self.begin_close(node, ack),
                    Control::Shutdown => shutdown = true,
                }
            }
            if shutdown {
                break;
            }
            while let Ok(key) = self.dirty.try_recv() {
                self.try_write(key);
            }
            for ev in events.iter() {
                if ev.readable {
                    self.do_read(ev.key);
                }
                if ev.writable {
                    self.try_write(ev.key);
                }
            }
        }
        // Shutdown: every node has already been flushed and half-closed
        // by its CloseNode; force-close whatever read sides remain and
        // release any closer still waiting.
        for conn in self.conns.iter().flatten() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for node in &mut self.nodes {
            if let Some(ack) = node.ack.take() {
                let _ = ack.send(());
            }
        }
    }

    /// Route one inbound frame to its lane's inbox. Returns `false` when
    /// the stream must be torn down (corrupt mux framing).
    fn deliver(&mut self, node_idx: usize, peer: ProviderId, frame: &[u8]) -> bool {
        let node = &mut self.nodes[node_idx];
        let Ok((lane, payload)) = mux_unframe(frame) else {
            return false; // shorter than a packed tag: corrupt
        };
        let len = payload.len();
        let delivered = node
            .lanes
            .as_ref()
            .and_then(|lanes| lanes.get(lane))
            .is_some_and(|tx| tx.send((peer, payload)).is_ok());
        if !delivered {
            match node.lanes.as_ref() {
                // A lane outside the mesh's range: corrupt stream.
                Some(lanes) if lane >= lanes.len() => return false,
                // This lane's endpoint is gone (a straggler of a
                // finished epoch): count, drop, carry on.
                _ => node.metrics.record_drop(node.me, len),
            }
        }
        true
    }

    fn do_read(&mut self, key: usize) {
        let Some(mut conn) = self.conns.get_mut(key).and_then(Option::take) else { return };
        if !conn.read_open {
            self.conns[key] = Some(conn);
            return;
        }
        let mut outcome = ReadOutcome::Keep;
        'read: loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    outcome = ReadOutcome::Eof;
                    break;
                }
                Ok(n) => {
                    conn.assembler.extend(&self.scratch[..n]);
                    loop {
                        match conn.assembler.next_frame_ref() {
                            Ok(Some(frame)) => {
                                // The frame borrows only the assembler
                                // (conn lives outside `self` here);
                                // routing copies it into its inbox.
                                if !self.deliver(conn.node, conn.peer, frame) {
                                    outcome = ReadOutcome::Kill;
                                    break 'read;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                outcome = ReadOutcome::Kill;
                                break 'read;
                            }
                        }
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome = ReadOutcome::Eof;
                    break;
                }
            }
        }
        match outcome {
            ReadOutcome::Keep => self.conns[key] = Some(conn),
            ReadOutcome::Eof => self.close_read(key, conn),
            ReadOutcome::Kill => self.kill_conn(conn),
        }
    }

    /// The peer's write side is gone: retire this connection's read half
    /// (our write half may still be flushing).
    fn close_read(&mut self, key: usize, mut conn: Conn) {
        conn.read_open = false;
        self.retire_read(conn.node);
        if conn.write_shut {
            let _ = self.shared.poller.delete(&conn.stream);
            // conn drops here: fully closed.
        } else {
            let want = Interest { readable: false, writable: conn.interest.writable };
            self.set_interest(&mut conn, want);
            self.conns[key] = Some(conn);
        }
    }

    /// Corrupt stream or dead inbox: tear the connection down entirely.
    fn kill_conn(&mut self, conn: Conn) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        let _ = self.shared.poller.delete(&conn.stream);
        if conn.read_open {
            self.retire_read(conn.node);
        }
        if !conn.write_shut {
            self.nodes[conn.node].write_live -= 1;
            self.maybe_ack(conn.node);
        }
    }

    fn retire_read(&mut self, node_idx: usize) {
        let node = &mut self.nodes[node_idx];
        node.read_live -= 1;
        if node.read_live == 0 {
            // Last peer gone: drop the lane senders so every endpoint's
            // recv sees Disconnected once its inbox is drained.
            node.lanes = None;
        }
    }

    /// Flush this connection: refill the coalescing buffer from the ring
    /// (one batch, up to the high-water mark) and write until done or
    /// `WouldBlock`. Write interest is held only while bytes are pending.
    fn try_write(&mut self, key: usize) {
        let Some(mut conn) = self.conns.get_mut(key).and_then(Option::take) else { return };
        if conn.write_shut {
            self.conns[key] = Some(conn);
            return;
        }
        loop {
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                while conn.wbuf.len() < WRITE_COALESCE_BYTES {
                    match conn.ring.try_recv() {
                        Ok((lane, payload)) => encode_frame(lane, &payload, &mut conn.wbuf),
                        Err(_) => break, // ring momentarily empty (or closing)
                    }
                }
                if conn.wbuf.is_empty() {
                    // Fully flushed to the kernel.
                    if conn.closing {
                        // FIN after the data: the peer reads everything,
                        // then EOF — the drain-then-shutdown contract.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        self.finish_write(key, conn);
                    } else {
                        let want = Interest { readable: conn.read_open, writable: false };
                        self.set_interest(&mut conn, want);
                        self.conns[key] = Some(conn);
                    }
                    return;
                }
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.finish_write(key, conn);
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    let want = Interest { readable: conn.read_open, writable: true };
                    self.set_interest(&mut conn, want);
                    self.conns[key] = Some(conn);
                    return;
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Dead socket (peer gone): the write side is over,
                    // exactly as when the old writer thread's write_all
                    // failed. Undelivered frames die with the ring.
                    self.finish_write(key, conn);
                    return;
                }
            }
        }
    }

    /// The connection's write side is done (flushed + FIN, or dead).
    fn finish_write(&mut self, key: usize, mut conn: Conn) {
        conn.write_shut = true;
        let node_idx = conn.node;
        self.nodes[node_idx].write_live -= 1;
        if conn.read_open {
            let want = Interest { readable: true, writable: false };
            self.set_interest(&mut conn, want);
            self.conns[key] = Some(conn);
        } else {
            let _ = self.shared.poller.delete(&conn.stream);
            // conn drops here: fully closed.
        }
        self.maybe_ack(node_idx);
    }

    /// A node's endpoints are gone: flush its rings, FIN its sockets,
    /// and ack the blocked closer once the last write side is shut.
    fn begin_close(&mut self, node_idx: usize, ack: SyncSender<()>) {
        let node = &mut self.nodes[node_idx];
        node.closing = true;
        node.ack = Some(ack);
        let keys = node.conn_keys.clone();
        for key in keys {
            if let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) {
                if conn.node == node_idx {
                    conn.closing = true;
                }
            }
            self.try_write(key);
        }
        self.maybe_ack(node_idx);
    }

    fn maybe_ack(&mut self, node_idx: usize) {
        let node = &mut self.nodes[node_idx];
        if node.closing && node.write_live == 0 {
            if let Some(ack) = node.ack.take() {
                let _ = ack.send(());
            }
        }
    }

    fn set_interest(&self, conn: &mut Conn, want: Interest) {
        if conn.interest != want
            && self.shared.poller.modify(&conn.stream, conn.key, want, PollMode::Level).is_ok()
        {
            conn.interest = want;
        }
    }
}
