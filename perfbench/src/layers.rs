//! Per-layer measurements taken from outside the program, through each
//! layer's public entry points: the paper's blocks replayed on one
//! thread, the centralised mechanism, the mesh bring-up, the control
//! round trip and sessions over a persistent loopback mesh.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use dauctioneer::core::{
    unanimous, Auctioneer, BatchSession, Block, DoubleAuctionProgram, FrameworkConfig, OutboxCtx,
    SessionPool,
};
use dauctioneer::market::cluster::{read_frame, write_frame};
use dauctioneer::market::ControlMsg;
use dauctioneer::mechanisms::{DoubleAuction, Mechanism, SharedRng};
use dauctioneer::net::{unframe, MeshOptions, MuxEndpoint, MuxMesh, TrafficSnapshot};
use dauctioneer::types::{BidVector, Outcome, ProviderId, SessionId};

/// The paper's §4 blocks, in the order the per-layer metrics name them.
pub const BLOCKS: [&str; 4] = ["input_validation", "bid_agreement", "common_coin", "allocation"];

/// One closed epoch as the benchmark recorded it: enough to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    pub session: SessionId,
    pub seed: u64,
    pub bids: BidVector,
    pub outcome: Outcome,
}

/// Work each block did, summed over the replayed epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTally {
    pub busy_s: [f64; 4],
    pub msgs: [u64; 4],
    pub bytes: [u64; 4],
}

impl BlockTally {
    /// The exact part: message and byte counts.
    pub fn counts(&self) -> ([u64; 4], [u64; 4]) {
        (self.msgs, self.bytes)
    }
}

/// The block that owns an auctioneer message, from the channel tags on
/// the wire: top level 1 is bid agreement and 2 the allocator; inside
/// the allocator 1 is input validation, 2 the common coin, and 16 on
/// the data-transfer edges of the allocation's task graph. An unknown
/// tag is an error, so a renumbering cannot be miscounted silently.
fn block_of(payload: &[u8]) -> Result<usize, String> {
    let (top, inner) = unframe(payload).map_err(|e| format!("unframeable message: {e:?}"))?;
    match top {
        1 => Ok(1),
        2 => match unframe(inner).map_err(|e| format!("unframeable allocator message: {e:?}"))? {
            (1, _) => Ok(0),
            (2, _) => Ok(2),
            (t, _) if t >= 16 => Ok(3),
            (t, _) => Err(format!("unknown allocator channel tag {t}")),
        },
        t => Err(format!("unknown auctioneer channel tag {t}")),
    }
}

/// Replay one epoch through the public `Auctioneer` block of every
/// provider on this thread, delivering messages in FIFO order through
/// `OutboxCtx`, and add each block's work to `tally`. Messages and
/// bytes are exact. Busy time is charged to the block whose message
/// triggered the call (the opening `start` to bid agreement), except
/// the call in which a provider decides: that one runs the allocation
/// tasks, and is charged to allocation. Returns the unanimous outcome.
///
/// # Errors
///
/// A message with an unknown channel tag.
pub fn replay_blocks(
    cfg: &FrameworkConfig,
    epoch: &Epoch,
    tally: &mut BlockTally,
) -> Result<Outcome, String> {
    let m = cfg.m;
    let cfg = cfg.clone().with_session(epoch.session);
    let program = Arc::new(DoubleAuctionProgram::new());
    // The engine's seed fan-out: provider j draws from seed + j + 1.
    let mut nodes: Vec<Auctioneer<DoubleAuctionProgram>> = (0..m)
        .map(|j| {
            Auctioneer::new_seeded(
                cfg.clone(),
                ProviderId(j as u32),
                Arc::clone(&program),
                epoch.bids.clone(),
                epoch.seed.wrapping_add(j as u64 + 1),
            )
        })
        .collect();
    let mut queue = VecDeque::new();
    let mut post = |from: usize, ctx: &mut OutboxCtx, queue: &mut VecDeque<_>| {
        for (to, payload) in ctx.drain() {
            let b = block_of(&payload)?;
            tally.msgs[b] += 1;
            tally.bytes[b] += payload.len() as u64;
            queue.push_back((from, to, payload));
        }
        Ok::<(), String>(())
    };
    let mut busy = [0.0f64; 4];
    for (j, node) in nodes.iter_mut().enumerate() {
        let mut ctx = OutboxCtx::new(ProviderId(j as u32), m);
        let t = Instant::now();
        node.start(&mut ctx);
        busy[1] += t.elapsed().as_secs_f64();
        post(j, &mut ctx, &mut queue)?;
    }
    while let Some((from, to, payload)) = queue.pop_front() {
        let b = block_of(&payload)?;
        let node = &mut nodes[to.index()];
        let undecided = node.result().is_none();
        let mut ctx = OutboxCtx::new(to, m);
        let t = Instant::now();
        node.on_message(ProviderId(from as u32), &payload, &mut ctx);
        let spent = t.elapsed().as_secs_f64();
        busy[if undecided && node.result().is_some() { 3 } else { b }] += spent;
        post(to.index(), &mut ctx, &mut queue)?;
    }
    for (total, add) in tally.busy_s.iter_mut().zip(busy) {
        *total += add;
    }
    let outcomes: Vec<Outcome> =
        nodes.iter().map(|n| n.outcome().unwrap_or(Outcome::Abort)).collect();
    Ok(unanimous(outcomes.iter().map(Some)))
}

/// The trusted central auctioneer: `Mechanism::run` on the epoch's bids,
/// timed. Returns the time and whether it equals the distributed
/// outcome (the paper's correct-simulation property).
pub fn clear_centralised(epoch: &Epoch) -> (f64, bool) {
    let mechanism = DoubleAuction::new();
    let shared = SharedRng::from_material(b"perfbench centralised baseline");
    let t = Instant::now();
    let result = black_box(mechanism.run(black_box(&epoch.bids), &shared));
    let elapsed = t.elapsed().as_secs_f64();
    (elapsed, epoch.outcome.as_result() == Some(&result))
}

/// Bring up an `m`-provider loopback mesh `reps` times with
/// `MuxEndpoint::establish_with_options`, the way each provider process
/// does at every epoch: one listener per provider reused across
/// bring-ups, one lane, incarnation fencing on. Each sample runs from
/// the common start to the last endpoint ready.
///
/// # Errors
///
/// Socket setup or bring-up failure.
pub fn mesh_bringup(m: usize, reps: usize) -> Result<Vec<f64>, String> {
    let listeners: Vec<TcpListener> = (0..m)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bind mesh listener: {e}"))?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("mesh listener address: {e}"))?;
    let options = MeshOptions {
        incarnation: 1,
        min_incarnations: vec![1; m],
        budget: Duration::from_secs(2),
    };
    /// One endpoint's bring-up: when it began, when it was ready, and the
    /// lanes (dropped only once every endpoint is up).
    type BringUp = Result<(Instant, Instant, Vec<MuxEndpoint>), String>;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let barrier = Barrier::new(m);
        let results: Vec<BringUp> = thread::scope(|s| {
            let handles: Vec<_> = listeners
                .iter()
                .enumerate()
                .map(|(j, listener)| {
                    let (barrier, addrs, options) = (&barrier, &addrs, &options);
                    s.spawn(move || {
                        let listener =
                            listener.try_clone().map_err(|e| format!("clone listener: {e}"))?;
                        barrier.wait();
                        let start = Instant::now();
                        let lanes = MuxEndpoint::establish_with_options(
                            ProviderId(j as u32),
                            1,
                            listener,
                            addrs,
                            options,
                        )
                        .map_err(|e| format!("mesh bring-up: {e}"))?;
                        Ok((start, Instant::now(), lanes))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("bring-up thread panicked".into())))
                .collect()
        });
        let mut first = None::<Instant>;
        let mut last = None::<Instant>;
        for r in results {
            let (start, end, _lanes) = r?;
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
        }
        if let (Some(first), Some(last)) = (first, last) {
            samples.push(last.duration_since(first).as_secs_f64());
        }
    }
    Ok(samples)
}

/// Round trips of `order` answered by `reply` over a loopback control
/// connection framed by `cluster::{write_frame, read_frame}`.
///
/// # Errors
///
/// Socket failure or an unexpected answer.
pub fn control_rtt(
    order: &ControlMsg,
    reply: &ControlMsg,
    reps: usize,
) -> Result<Vec<f64>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind control: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("control address: {e}"))?;
    thread::scope(|s| {
        let server = s.spawn(move || -> Result<(), String> {
            let (mut stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            let _ = stream.set_nodelay(true);
            loop {
                match read_frame(&mut stream) {
                    Ok(ControlMsg::WorkOrder { .. }) => {
                        write_frame(&mut stream, reply).map_err(|e| format!("reply: {e}"))?
                    }
                    Ok(_) | Err(_) => return Ok(()),
                }
            }
        });
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            write_frame(&mut stream, order).map_err(|e| format!("send order: {e}"))?;
            let answer = read_frame(&mut stream).map_err(|e| format!("read reply: {e}"))?;
            samples.push(t.elapsed().as_secs_f64());
            if answer != *reply {
                return Err("control reply changed in transit".into());
            }
        }
        let _ = write_frame(&mut stream, &ControlMsg::Shutdown);
        server.join().unwrap_or_else(|_| Err("control server panicked".into()))?;
        Ok(samples)
    })
}

/// Sessions driven over one persistent loopback `MuxMesh` by a
/// `SessionPool`, one epoch at a time.
#[derive(Debug, Default)]
pub struct SessionProbe {
    /// Dispatch to the last provider's decision, per epoch.
    pub session_s: Vec<f64>,
    /// Last minus first provider decision, per epoch.
    pub skew_s: Vec<f64>,
    /// Pool round trip beyond the last decision, per epoch.
    pub backlog_s: Vec<f64>,
    /// Mesh traffic over all the epochs.
    pub traffic: TrafficSnapshot,
    /// The unanimous outcome of each epoch.
    pub outcomes: Vec<Outcome>,
}

/// Clear `epochs` over a persistent loopback mesh.
///
/// # Errors
///
/// Mesh bring-up failure.
pub fn session_probe(cfg: &FrameworkConfig, epochs: &[Epoch]) -> Result<SessionProbe, String> {
    let mut mesh = MuxMesh::loopback(cfg.m, 1).map_err(|e| format!("loopback mesh: {e}"))?;
    let metrics = mesh.metrics();
    let program = Arc::new(DoubleAuctionProgram::new());
    let pool = SessionPool::new(cfg, &program, mesh.take_lane_endpoints());
    let mut probe = SessionProbe::default();
    for epoch in epochs {
        let spec = BatchSession {
            session: epoch.session,
            collected: vec![epoch.bids.clone(); cfg.m],
            seed: epoch.seed,
        };
        let t = Instant::now();
        let (columns, decided) = pool.run_epoch_traced(vec![vec![spec]], Duration::from_secs(10));
        let wall = t.elapsed().as_secs_f64();
        let decided: Vec<f64> =
            decided[0].iter().map(|p| p[0].map_or(wall, |d| d.as_secs_f64())).collect();
        let last = decided.iter().copied().fold(0.0, f64::max);
        let first = decided.iter().copied().fold(f64::INFINITY, f64::min);
        probe.session_s.push(last);
        probe.skew_s.push(last - first);
        probe.backlog_s.push(wall - last);
        probe.outcomes.push(unanimous(columns[0].iter().map(|p| Some(&p[0]))));
    }
    probe.traffic = metrics.snapshot();
    pool.shutdown();
    drop(mesh);
    Ok(probe)
}
