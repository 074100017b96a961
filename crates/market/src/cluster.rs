//! # Multi-process deployment: coordinator and provider roles
//!
//! Everything else in this repo runs an m-provider market inside one OS
//! process (threads over in-process channels, or TCP over loopback
//! within a single address space). This module is the real deployment
//! shape the paper assumes: **m + 1 processes** — one coordinator and
//! m providers — over real sockets, surviving the death of any
//! provider process.
//!
//! ## Topology
//!
//! ```text
//!                 control plane (this module)
//!          ┌──────────── coordinator ───────────┐
//!          │ Join/JoinAck · Ping · WorkOrder ·  │
//!          │ OutcomeReport · Shutdown           │
//!      ┌───┴───┐        ┌───────┐           ┌───┴───┐
//!      │ prov 0│━━━━━━━━│ prov 1│━━━━━━━━━━━│ prov 2│
//!      └───────┘        └───────┘           └───────┘
//!            provider mesh (MuxEndpoint, per epoch)
//! ```
//!
//! The coordinator is **not** part of the provider mesh — it owns the
//! market loop (epoch identity, bid generation, the journal, the
//! settlement chain) and one control TCP connection per provider. The
//! providers run the paper's protocol among themselves over a fresh
//! [`MuxEndpoint`] mesh per epoch, brought up with the incarnation
//! hello so frames from a killed provider's previous life are rejected
//! at admission.
//!
//! ## Liveness and rejoin
//!
//! A [`LivenessTracker`] on the coordinator drives the
//! `Up → Suspect → Down → Reconnecting` machine from control-plane
//! heartbeats ([`ControlMsg::Ping`]) and connection resets. An epoch
//! that touches a `Down` peer is aborted with `AbortReason::PeerDown`
//! **immediately** — the close latency during an outage is bounded by
//! detection, not by the session deadline. A restarted provider
//! redials the coordinator under a jittered-exponential [`Backoff`]
//! with a bounded budget, is handed a fresh incarnation number in its
//! [`ControlMsg::JoinAck`], and rejoins at the next epoch boundary:
//! the next [`ControlMsg::WorkOrder`] simply includes it again.
//!
//! Every epoch — cleared or aborted — is sealed onto the journal's
//! hash-chained settlement log, so `dauction verify-log` certifies the
//! coordinator's history across any number of provider deaths.

use std::io::{self, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dauctioneer_core::{drive, unanimous, DoubleAuctionProgram, FrameworkConfig, SessionEngine};
use dauctioneer_net::{
    Backoff, LivenessConfig, LivenessMetrics, LivenessTracker, MeshOptions, MuxEndpoint, PeerState,
};
use dauctioneer_telemetry::AbortReason;
use dauctioneer_types::{
    BidVector, Bw, CodecError, Decode, Encode, Money, Outcome, ProviderAsk, ProviderId, Reader,
    SessionId, UserBid, Writer, MICRO,
};

use crate::journal::{FsyncPolicy, Journal, JournalError};

/// Hard ceiling on a control-plane frame (a [`ControlMsg::WorkOrder`]
/// carries a whole bid vector; 16 MiB is orders of magnitude above any
/// real epoch).
pub const MAX_CONTROL_FRAME: usize = 16 << 20;

/// A peer as named in a [`ControlMsg::WorkOrder`]: identity, where its
/// mesh listener lives *this* life, and the incarnation the mesh hello
/// must present/honour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// Provider id in `0..m`.
    pub id: u32,
    /// The peer's mesh listener address for its current life.
    pub mesh_addr: String,
    /// The peer's current incarnation (the admission floor for hellos
    /// from it).
    pub incarnation: u32,
}

impl Encode for PeerInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.id);
        self.mesh_addr.encode(w);
        w.put_u32(self.incarnation);
    }
}

impl Decode for PeerInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PeerInfo { id: r.get_u32()?, mesh_addr: String::decode(r)?, incarnation: r.get_u32()? })
    }
}

/// The control-plane protocol between coordinator and providers, sent
/// as `[len: u32 LE][types-codec payload]` frames over one TCP
/// connection per provider.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Provider → coordinator, first frame of a connection: "provider
    /// `id` is alive; my mesh listener for this life is `mesh_addr`".
    Join {
        /// The provider's id in `0..m`.
        id: u32,
        /// The mesh listener address this life of the provider bound.
        mesh_addr: String,
    },
    /// Coordinator → provider, answer to [`ControlMsg::Join`]: the
    /// incarnation number of this life plus the cluster parameters, so
    /// the provider CLI needs nothing beyond `--id` and `--join`.
    JoinAck {
        /// The strictly-increasing incarnation assigned to this life.
        incarnation: u32,
        /// Providers in the market.
        m: u32,
        /// Tolerated coalition size.
        k: u32,
        /// User slots per epoch.
        n_users: u32,
        /// Per-session drive deadline, milliseconds.
        deadline_ms: u64,
        /// Per-epoch mesh bring-up budget, milliseconds.
        mesh_budget_ms: u64,
    },
    /// Provider → coordinator heartbeat; feeds the failure detector.
    Ping,
    /// Coordinator → provider: clear one epoch. Carries everything the
    /// session needs — identity, the full bid vector, and the current
    /// life (address + incarnation) of every peer.
    WorkOrder {
        /// Epoch number.
        epoch: u64,
        /// The session id this epoch clears under.
        session: u64,
        /// Epoch seed (providers fan it out per the engine's rule).
        seed: u64,
        /// The collected bid vector every provider clears.
        bids: BidVector,
        /// Current life of every provider, in id order.
        peers: Vec<PeerInfo>,
    },
    /// Provider → coordinator: this provider's decided outcome for
    /// `epoch` (⊥ included).
    OutcomeReport {
        /// Epoch the outcome belongs to.
        epoch: u64,
        /// Reporting provider.
        id: u32,
        /// The decided outcome.
        outcome: Outcome,
    },
    /// Coordinator → provider: the run is over; exit cleanly.
    Shutdown,
}

impl Encode for ControlMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            ControlMsg::Join { id, mesh_addr } => {
                w.put_u8(0);
                w.put_u32(*id);
                mesh_addr.encode(w);
            }
            ControlMsg::JoinAck { incarnation, m, k, n_users, deadline_ms, mesh_budget_ms } => {
                w.put_u8(1);
                w.put_u32(*incarnation);
                w.put_u32(*m);
                w.put_u32(*k);
                w.put_u32(*n_users);
                w.put_u64(*deadline_ms);
                w.put_u64(*mesh_budget_ms);
            }
            ControlMsg::Ping => w.put_u8(2),
            ControlMsg::WorkOrder { epoch, session, seed, bids, peers } => {
                w.put_u8(3);
                w.put_u64(*epoch);
                w.put_u64(*session);
                w.put_u64(*seed);
                bids.encode(w);
                peers.encode(w);
            }
            ControlMsg::OutcomeReport { epoch, id, outcome } => {
                w.put_u8(4);
                w.put_u64(*epoch);
                w.put_u32(*id);
                outcome.encode(w);
            }
            ControlMsg::Shutdown => w.put_u8(5),
        }
    }
}

impl Decode for ControlMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ControlMsg::Join { id: r.get_u32()?, mesh_addr: String::decode(r)? }),
            1 => Ok(ControlMsg::JoinAck {
                incarnation: r.get_u32()?,
                m: r.get_u32()?,
                k: r.get_u32()?,
                n_users: r.get_u32()?,
                deadline_ms: r.get_u64()?,
                mesh_budget_ms: r.get_u64()?,
            }),
            2 => Ok(ControlMsg::Ping),
            3 => Ok(ControlMsg::WorkOrder {
                epoch: r.get_u64()?,
                session: r.get_u64()?,
                seed: r.get_u64()?,
                bids: BidVector::decode(r)?,
                peers: Vec::decode(r)?,
            }),
            4 => Ok(ControlMsg::OutcomeReport {
                epoch: r.get_u64()?,
                id: r.get_u32()?,
                outcome: Outcome::decode(r)?,
            }),
            5 => Ok(ControlMsg::Shutdown),
            tag => Err(CodecError::InvalidTag { what: "ControlMsg", tag }),
        }
    }
}

/// Write one length-prefixed control frame.
///
/// # Errors
///
/// Any socket write error (the connection is considered lost).
pub fn write_frame(stream: &mut TcpStream, msg: &ControlMsg) -> io::Result<()> {
    let payload = msg.encode_to_bytes();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "control frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(&payload)
}

/// Read one length-prefixed control frame (blocking, honours the
/// stream's read timeout).
///
/// # Errors
///
/// Socket errors, oversized frames, or undecodable payloads — in every
/// case the connection is considered lost.
pub fn read_frame(stream: &mut TcpStream) -> io::Result<ControlMsg> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_CONTROL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} bytes exceeds the {MAX_CONTROL_FRAME} cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    ControlMsg::decode_all(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad control frame: {e}")))
}

/// Errors of the coordinator and provider roles.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster configuration is invalid.
    Config(String),
    /// A socket operation failed.
    Io(io::Error),
    /// The coordinator's journal failed.
    Journal(JournalError),
    /// Not every provider joined within the bring-up budget; names the
    /// providers that never arrived.
    BringUp {
        /// `"provider <id>"` per missing peer.
        missing: Vec<String>,
    },
    /// A provider exhausted its reconnect budget without reaching the
    /// coordinator.
    ReconnectExhausted {
        /// Dial attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(msg) => write!(f, "invalid cluster config: {msg}"),
            ClusterError::Io(e) => write!(f, "cluster i/o error: {e}"),
            ClusterError::Journal(e) => write!(f, "coordinator journal error: {e}"),
            ClusterError::BringUp { missing } => write!(
                f,
                "cluster bring-up expired with {} provider(s) missing: {}",
                missing.len(),
                missing.join(", ")
            ),
            ClusterError::ReconnectExhausted { attempts } => {
                write!(f, "reconnect budget exhausted after {attempts} dial attempt(s)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> ClusterError {
        ClusterError::Io(e)
    }
}

impl From<JournalError> for ClusterError {
    fn from(e: JournalError) -> ClusterError {
        ClusterError::Journal(e)
    }
}

/// Configuration of a coordinator run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Providers in the market (`m > 2k`).
    pub m: usize,
    /// Tolerated coalition size.
    pub k: usize,
    /// User slots per epoch.
    pub n_users: usize,
    /// Epochs to clear before shutting the cluster down.
    pub epochs: u64,
    /// Base seed; epoch seeds derive from it exactly as the in-process
    /// market's do.
    pub seed: u64,
    /// Session id of epoch 0 (epoch `e` clears session
    /// `first_session + e`).
    pub first_session: u64,
    /// Per-session drive deadline handed to providers.
    pub session_deadline: Duration,
    /// Per-epoch mesh bring-up budget handed to providers.
    pub mesh_budget: Duration,
    /// How long the coordinator waits for all `m` providers to join
    /// before the first epoch.
    pub join_timeout: Duration,
    /// Minimum spacing between epoch starts (zero = clear
    /// back-to-back). Pacing keeps epoch boundaries — the rejoin
    /// points — spread out in real time, the open-world cadence of a
    /// deployed market.
    pub epoch_period: Duration,
    /// Heartbeat failure-detector timeouts.
    pub liveness: LivenessConfig,
    /// Write-ahead journal path (`None` = no journal).
    pub journal: Option<PathBuf>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

impl ClusterConfig {
    /// A config with the cluster defaults: 8 epochs, seed 42, 5 s
    /// session deadline, 2 s mesh budget, 30 s join timeout, default
    /// liveness timeouts, no journal.
    pub fn new(m: usize, k: usize, n_users: usize) -> ClusterConfig {
        ClusterConfig {
            m,
            k,
            n_users,
            epochs: 8,
            seed: 42,
            first_session: 1,
            session_deadline: Duration::from_secs(5),
            mesh_budget: Duration::from_secs(2),
            join_timeout: Duration::from_secs(30),
            epoch_period: Duration::ZERO,
            liveness: LivenessConfig::default(),
            journal: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// Check the paper's `m > 2k` bound and basic sanity.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.m == 0 || self.m <= 2 * self.k {
            return Err(ClusterError::Config(format!(
                "m must exceed 2k (got m={}, k={})",
                self.m, self.k
            )));
        }
        if self.n_users == 0 {
            return Err(ClusterError::Config("n_users must be at least 1".into()));
        }
        Ok(())
    }
}

/// One epoch as the coordinator saw it.
#[derive(Debug, Clone)]
pub struct ClusterEpoch {
    /// Epoch number.
    pub epoch: u64,
    /// Session id the epoch cleared under.
    pub session: u64,
    /// Accepted (journaled) bids.
    pub accepted: u64,
    /// The unanimous outcome (⊥ on abort).
    pub outcome: Outcome,
    /// Abort classification (`None` when cleared).
    pub reason: Option<AbortReason>,
    /// Dispatch-to-seal close latency.
    pub latency: Duration,
}

/// End-of-run summary of a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Every epoch in order.
    pub epochs: Vec<ClusterEpoch>,
    /// Provider rejoins the liveness layer counted.
    pub reconnects: u64,
}

impl ClusterReport {
    /// Epochs that reached a unanimous non-⊥ outcome.
    pub fn cleared(&self) -> u64 {
        self.epochs.iter().filter(|e| !e.outcome.is_abort()).count() as u64
    }

    /// Epochs that aborted.
    pub fn aborted(&self) -> u64 {
        self.epochs.iter().filter(|e| e.outcome.is_abort()).count() as u64
    }

    /// Aborts classified `PeerDown`.
    pub fn peer_down_aborts(&self) -> u64 {
        self.epochs.iter().filter(|e| e.reason == Some(AbortReason::PeerDown)).count() as u64
    }
}

/// Liveness + connection state shared between the accept/reader
/// threads and the epoch driver.
struct Shared {
    roster: Mutex<Roster>,
    stop: AtomicBool,
}

/// Each peer's liveness, control writer and mesh address, kept under one
/// lock so a join publishes all three together and a disconnect
/// withdraws them together: a peer the tracker reports Up always has a
/// writer to dispatch to.
struct Roster {
    tracker: LivenessTracker,
    /// Per-peer control writer of the *current* life.
    writers: Vec<Option<TcpStream>>,
    /// Per-peer mesh listener address of the current life.
    mesh_addrs: Vec<Option<String>>,
}

impl Shared {
    fn roster(&self) -> std::sync::MutexGuard<'_, Roster> {
        self.roster.lock().expect("roster lock poisoned by a panicked connection thread")
    }
}

enum Event {
    Joined,
    Report { epoch: u64, peer: usize, outcome: Outcome },
    Disconnected,
}

/// The coordinator role: owns the control listener, the liveness
/// tracker, epoch identity, bid generation and the journal; drives the
/// m-provider cluster through [`ClusterConfig::epochs`] epochs.
pub struct Coordinator {
    config: ClusterConfig,
    addr: SocketAddr,
    shared: Arc<Shared>,
    events: mpsc::Receiver<Event>,
    threads: Vec<JoinHandle<()>>,
}

impl Coordinator {
    /// Start the control plane on `listener` (accepting joins
    /// immediately) without driving any epoch yet.
    ///
    /// # Errors
    ///
    /// Invalid configuration or listener setup failure.
    pub fn new(listener: TcpListener, config: ClusterConfig) -> Result<Coordinator, ClusterError> {
        config.validate()?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            roster: Mutex::new(Roster {
                tracker: LivenessTracker::new(config.m, config.liveness),
                writers: (0..config.m).map(|_| None).collect(),
                mesh_addrs: vec![None; config.m],
            }),
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel();

        let accept_shared = Arc::clone(&shared);
        let accept_tx = tx.clone();
        let accept_cfg = config.clone();
        let accept = thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&accept_shared);
                        let tx = accept_tx.clone();
                        let cfg = accept_cfg.clone();
                        thread::spawn(move || serve_connection(stream, shared, tx, cfg));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        });

        let tick_shared = Arc::clone(&shared);
        let ticker = thread::spawn(move || {
            while !tick_shared.stop.load(Ordering::Relaxed) {
                tick_shared.roster().tracker.tick(Instant::now());
                thread::sleep(Duration::from_millis(50));
            }
        });

        Ok(Coordinator { config, addr, shared, events: rx, threads: vec![accept, ticker] })
    }

    /// The control listener's bound address (what providers `--join`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The liveness gauges this coordinator keeps current — register
    /// them with [`crate::register_liveness_metrics`].
    pub fn metrics(&self) -> LivenessMetrics {
        self.shared.roster().tracker.metrics()
    }

    /// Drive the full run: wait for all providers to join, clear
    /// [`ClusterConfig::epochs`] epochs (sealing every one onto the
    /// journal), then broadcast [`ControlMsg::Shutdown`] and tear the
    /// control plane down. `on_epoch` observes each epoch as it seals.
    ///
    /// # Errors
    ///
    /// Bring-up expiry, journal creation/append failures, or listener
    /// errors. Provider deaths are **not** errors — they classify
    /// epochs as `PeerDown` aborts.
    pub fn run(
        mut self,
        mut on_epoch: impl FnMut(&ClusterEpoch),
    ) -> Result<ClusterReport, ClusterError> {
        let result = self.run_inner(&mut on_epoch);
        self.teardown();
        result
    }

    fn run_inner(
        &mut self,
        on_epoch: &mut impl FnMut(&ClusterEpoch),
    ) -> Result<ClusterReport, ClusterError> {
        let config = self.config.clone();
        // Bring-up: every provider must join once before epoch 0.
        let deadline = Instant::now() + config.join_timeout;
        loop {
            if self.shared.roster().tracker.all_up() {
                break;
            }
            if Instant::now() >= deadline {
                let tracker = &self.shared.roster().tracker;
                let missing = (0..config.m)
                    .filter(|&p| !matches!(tracker.state(p), PeerState::Up | PeerState::Suspect))
                    .map(|p| format!("provider {p}"))
                    .collect();
                return Err(ClusterError::BringUp { missing });
            }
            // Joins arrive as events; the sleep below bounds the poll.
            let _ = self.events.recv_timeout(Duration::from_millis(50));
        }

        let journal = match &config.journal {
            Some(path) => Some(Journal::create(path, config.fsync)?),
            None => None,
        };

        let mut epochs = Vec::with_capacity(config.epochs as usize);
        let mut previous_start: Option<Instant> = None;
        for epoch in 0..config.epochs {
            if let Some(prev) = previous_start {
                let since = prev.elapsed();
                if since < config.epoch_period {
                    thread::sleep(config.epoch_period - since);
                }
            }
            let started = Instant::now();
            previous_start = Some(started);
            let session = config.first_session + epoch;
            let seed = config.seed.wrapping_add((epoch + 1).wrapping_mul(7919));
            let bids = generate_epoch_bids(config.n_users, config.m, seed);
            let accepted = bids.valid_user_bids().count() as u64;
            if let Some(journal) = &journal {
                // Write-ahead: bids hit the disk before the epoch counts.
                for (user, bid) in bids.valid_user_bids() {
                    journal.append_accepted(epoch, user, *bid)?;
                }
                for (slot, ask) in bids.asks().iter().enumerate() {
                    journal.append_ask(epoch, slot as u64, *ask)?;
                }
            }

            let (outcome, reason) = self.clear_epoch(epoch, session, seed, &bids);
            if let Some(journal) = &journal {
                journal.append_seal(
                    epoch,
                    SessionId(session),
                    seed,
                    accepted,
                    bids,
                    "double",
                    outcome.clone(),
                )?;
            }
            let record = ClusterEpoch {
                epoch,
                session,
                accepted,
                outcome,
                reason,
                latency: started.elapsed(),
            };
            on_epoch(&record);
            epochs.push(record);
        }

        if let Some(journal) = &journal {
            journal.sync()?;
        }
        let reconnects = self.metrics().reconnects_total();
        Ok(ClusterReport { epochs, reconnects })
    }

    /// Dispatch one epoch's work orders and fold the reports into the
    /// unanimous Definition-1 outcome. Never blocks past
    /// `session_deadline + mesh_budget +` grace; a peer that is `Down`
    /// (and silent) resolves the epoch immediately.
    fn clear_epoch(
        &mut self,
        epoch: u64,
        session: u64,
        seed: u64,
        bids: &BidVector,
    ) -> (Outcome, Option<AbortReason>) {
        let m = self.config.m;
        let mut dispatched = vec![false; m];
        {
            // One critical section from the liveness check to the last
            // write: the roster the order names is the roster it reaches.
            let mut roster = self.shared.roster();
            if !roster.tracker.all_up() {
                // Bounded degradation: do not dispatch into a hole.
                return (Outcome::Abort, Some(AbortReason::PeerDown));
            }
            let peers: Vec<PeerInfo> = (0..m)
                .map(|p| PeerInfo {
                    id: p as u32,
                    mesh_addr: roster.mesh_addrs[p].clone().unwrap_or_default(),
                    incarnation: roster.tracker.incarnation(p),
                })
                .collect();
            let order = ControlMsg::WorkOrder { epoch, session, seed, bids: bids.clone(), peers };
            for (peer, slot) in roster.writers.iter_mut().enumerate() {
                if let Some(stream) = slot.as_mut() {
                    dispatched[peer] = write_frame(stream, &order).is_ok();
                }
            }
        }
        if dispatched.iter().any(|d| !d) {
            // A write failed mid-dispatch: the reader thread will mark
            // the peer Down; the peers that did get the order resolve
            // to ⊥ on their own deadline.
            return (Outcome::Abort, Some(AbortReason::PeerDown));
        }

        let mut reports: Vec<Option<Outcome>> = vec![None; m];
        let grace = Duration::from_secs(1);
        let deadline =
            Instant::now() + self.config.session_deadline + self.config.mesh_budget + grace;
        loop {
            if reports.iter().all(Option::is_some) {
                break;
            }
            let missing_all_down = {
                let tracker = &self.shared.roster().tracker;
                reports.iter().enumerate().filter(|(_, r)| r.is_none()).all(|(p, _)| {
                    matches!(tracker.state(p), PeerState::Down | PeerState::Reconnecting)
                })
            };
            if missing_all_down {
                // Every report still owed is owed by a dead peer: the
                // epoch resolves now, not at the session deadline.
                return (Outcome::Abort, Some(AbortReason::PeerDown));
            }
            if Instant::now() >= deadline {
                // A live-looking peer never reported: it is unreachable
                // for epoch purposes, which is the same outage.
                return (Outcome::Abort, Some(AbortReason::PeerDown));
            }
            match self.events.recv_timeout(Duration::from_millis(25)) {
                Ok(Event::Report { epoch: e, peer, outcome }) if e == epoch && peer < m => {
                    reports[peer] = Some(outcome);
                }
                Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        let folded = unanimous(reports.iter().map(Option::as_ref));
        if !folded.is_abort() {
            return (folded, None);
        }
        // Classify the abort: all decided non-⊥ but disagreeing is the
        // paper's divergence case; any ⊥ report with a death behind it
        // is PeerDown; otherwise the session ran out of time.
        let all_decided = reports.iter().all(|r| matches!(r, Some(o) if !o.is_abort()));
        let any_down = {
            let tracker = &self.shared.roster().tracker;
            (0..m).any(|p| matches!(tracker.state(p), PeerState::Down | PeerState::Reconnecting))
        };
        let reason = if all_decided {
            AbortReason::Divergence
        } else if any_down {
            AbortReason::PeerDown
        } else {
            AbortReason::Deadline
        };
        (Outcome::Abort, Some(reason))
    }

    fn teardown(&mut self) {
        {
            let mut roster = self.shared.roster();
            for slot in roster.writers.iter_mut() {
                if let Some(stream) = slot.as_mut() {
                    let _ = write_frame(stream, &ControlMsg::Shutdown);
                }
            }
        }
        self.shared.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One control connection's lifecycle on the coordinator: Join →
/// JoinAck, then Ping/OutcomeReport until the socket dies.
fn serve_connection(
    mut stream: TcpStream,
    shared: Arc<Shared>,
    events: mpsc::Sender<Event>,
    config: ClusterConfig,
) {
    let _ = stream.set_nodelay(true);
    // A stray that connects and says nothing must not pin a thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Ok(ControlMsg::Join { id, mesh_addr }) = read_frame(&mut stream) else { return };
    let peer = id as usize;
    if peer >= config.m {
        return;
    }
    let Ok(writer) = stream.try_clone() else { return };
    let incarnation = {
        // Up, writer and mesh address are published in one critical
        // section, and the JoinAck is written inside it too, so no work
        // order can overtake it on the wire.
        let mut roster = shared.roster();
        roster.tracker.begin_reconnect(peer);
        let incarnation = roster.tracker.join(peer, Instant::now());
        let ack = ControlMsg::JoinAck {
            incarnation,
            m: config.m as u32,
            k: config.k as u32,
            n_users: config.n_users as u32,
            deadline_ms: config.session_deadline.as_millis() as u64,
            mesh_budget_ms: config.mesh_budget.as_millis() as u64,
        };
        if write_frame(&mut stream, &ack).is_err() {
            roster.tracker.disconnect(peer);
            roster.writers[peer] = None;
            roster.mesh_addrs[peer] = None;
            return;
        }
        roster.writers[peer] = Some(writer);
        roster.mesh_addrs[peer] = Some(mesh_addr);
        incarnation
    };
    let _ = events.send(Event::Joined);
    let _ = stream.set_read_timeout(None);

    loop {
        match read_frame(&mut stream) {
            Ok(ControlMsg::Ping) => {
                shared.roster().tracker.heartbeat(peer, Instant::now());
            }
            Ok(ControlMsg::OutcomeReport { epoch, id, outcome }) if id as usize == peer => {
                let _ = events.send(Event::Report { epoch, peer, outcome });
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    // Only this life may declare the peer dead: a rejoin may already
    // have superseded this connection.
    {
        let mut roster = shared.roster();
        if roster.tracker.incarnation(peer) == incarnation {
            roster.tracker.disconnect(peer);
            roster.writers[peer] = None;
            roster.mesh_addrs[peer] = None;
        }
    }
    let _ = events.send(Event::Disconnected);
}

/// Configuration of a provider role process.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// This provider's id in `0..m`.
    pub id: usize,
    /// The coordinator's control address (`--join`).
    pub coordinator: String,
    /// Where to bind the mesh listener (default an ephemeral loopback
    /// port; the coordinator learns the bound address from the Join).
    pub mesh_listen: String,
    /// First redial delay of the reconnect backoff.
    pub backoff_base: Duration,
    /// Redial delay ceiling.
    pub backoff_cap: Duration,
    /// Dial attempts before the provider gives up for good.
    pub reconnect_budget: u32,
    /// Control-plane heartbeat period.
    pub heartbeat: Duration,
    /// Jitter seed of the backoff schedule.
    pub backoff_seed: u64,
}

impl ProviderConfig {
    /// Defaults: ephemeral loopback mesh listener, 50 ms → 2 s backoff
    /// with a budget of 40 dials, 150 ms heartbeats, id-derived jitter.
    pub fn new(id: usize, coordinator: impl Into<String>) -> ProviderConfig {
        ProviderConfig {
            id,
            coordinator: coordinator.into(),
            mesh_listen: "127.0.0.1:0".into(),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            reconnect_budget: 40,
            heartbeat: Duration::from_millis(150),
            backoff_seed: id as u64 + 1,
        }
    }
}

/// End-of-run summary of a provider.
#[derive(Debug, Clone, Default)]
pub struct ProviderReport {
    /// Work orders executed.
    pub epochs: u64,
    /// Epochs this provider decided non-⊥.
    pub cleared: u64,
    /// Epochs this provider decided ⊥.
    pub aborted: u64,
    /// Control-plane reconnects after the first successful join.
    pub rejoins: u32,
}

/// The provider role: join the coordinator (redialling under backoff),
/// then clear every [`ControlMsg::WorkOrder`] over a fresh per-epoch
/// [`MuxEndpoint`] mesh until [`ControlMsg::Shutdown`].
///
/// A severed control connection sends the provider back to the dial
/// loop: it rejoins under a fresh incarnation and resumes at the next
/// epoch boundary. Mesh bring-up failures (a dead peer mid-epoch)
/// resolve to ⊥, never a hang.
///
/// # Errors
///
/// Local setup failures (mesh listener bind) or an exhausted reconnect
/// budget. Peer and coordinator deaths during a run are handled, not
/// errors.
pub fn run_provider(config: ProviderConfig) -> Result<ProviderReport, ClusterError> {
    let listener = TcpListener::bind(&config.mesh_listen)?;
    let mesh_addr = listener.local_addr()?.to_string();
    let program = Arc::new(DoubleAuctionProgram::new());
    let mut backoff = Backoff::new(
        config.backoff_base,
        config.backoff_cap,
        config.reconnect_budget,
        config.backoff_seed,
    );
    let mut report = ProviderReport::default();
    let mut joined_before = false;

    loop {
        // Dial the coordinator, paced by the jittered backoff.
        let mut stream = loop {
            match TcpStream::connect(&config.coordinator) {
                Ok(stream) => break stream,
                Err(_) => match backoff.next_delay() {
                    Some(delay) => thread::sleep(delay),
                    None => {
                        return Err(ClusterError::ReconnectExhausted {
                            attempts: backoff.attempts(),
                        })
                    }
                },
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let handshake = write_frame(
            &mut stream,
            &ControlMsg::Join { id: config.id as u32, mesh_addr: mesh_addr.clone() },
        )
        .and_then(|()| read_frame(&mut stream));
        let Ok(ControlMsg::JoinAck { incarnation, m, k, n_users, deadline_ms, mesh_budget_ms }) =
            handshake
        else {
            match backoff.next_delay() {
                Some(delay) => {
                    thread::sleep(delay);
                    continue;
                }
                None => {
                    return Err(ClusterError::ReconnectExhausted { attempts: backoff.attempts() })
                }
            }
        };
        backoff.reset();
        let _ = stream.set_read_timeout(None);
        if joined_before {
            report.rejoins += 1;
        }
        joined_before = true;

        // Heartbeat and outcome reports share one mutexed writer.
        let writer = Arc::new(Mutex::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(e) => return Err(ClusterError::Io(e)),
        }));
        let hb_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = {
            let writer = Arc::clone(&writer);
            let stop = Arc::clone(&hb_stop);
            let period = config.heartbeat;
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let beat =
                        write_frame(&mut writer.lock().expect("writer lock"), &ControlMsg::Ping);
                    if beat.is_err() {
                        break;
                    }
                    thread::sleep(period);
                }
            })
        };

        // Serve work orders until shutdown or a dead control link.
        let lost_link = loop {
            match read_frame(&mut stream) {
                Ok(ControlMsg::WorkOrder { epoch, session, seed, bids, peers }) => {
                    let outcome = clear_one_epoch(
                        &config,
                        &listener,
                        incarnation,
                        m as usize,
                        k as usize,
                        n_users as usize,
                        session,
                        seed,
                        bids,
                        &peers,
                        Duration::from_millis(deadline_ms),
                        Duration::from_millis(mesh_budget_ms),
                        &program,
                    );
                    report.epochs += 1;
                    if outcome.is_abort() {
                        report.aborted += 1;
                    } else {
                        report.cleared += 1;
                    }
                    let sent = write_frame(
                        &mut writer.lock().expect("writer lock"),
                        &ControlMsg::OutcomeReport { epoch, id: config.id as u32, outcome },
                    );
                    if sent.is_err() {
                        break true;
                    }
                }
                Ok(ControlMsg::Shutdown) => break false,
                Ok(_) => {}
                Err(_) => break true,
            }
        };
        hb_stop.store(true, Ordering::Relaxed);
        let _ = heartbeat.join();
        if !lost_link {
            return Ok(report);
        }
        // Control link died: rejoin at the next epoch boundary.
    }
}

/// Run one epoch's session: bring up the per-epoch mesh under the
/// incarnation hello, drive the engine to a decision, ⊥ on any failure.
#[allow(clippy::too_many_arguments)]
fn clear_one_epoch(
    config: &ProviderConfig,
    listener: &TcpListener,
    incarnation: u32,
    m: usize,
    k: usize,
    n_users: usize,
    session: u64,
    seed: u64,
    bids: BidVector,
    peers: &[PeerInfo],
    deadline: Duration,
    mesh_budget: Duration,
    program: &Arc<DoubleAuctionProgram>,
) -> Outcome {
    if peers.len() != m {
        return Outcome::Abort;
    }
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(m);
    for peer in peers {
        match peer.mesh_addr.parse() {
            Ok(addr) => addrs.push(addr),
            Err(_) => return Outcome::Abort,
        }
    }
    let min_incarnations: Vec<u32> = peers.iter().map(|p| p.incarnation).collect();
    let options = MeshOptions { incarnation, min_incarnations, budget: mesh_budget };
    let Ok(listener) = listener.try_clone() else { return Outcome::Abort };
    let me = ProviderId(config.id as u32);
    let mut endpoint = match MuxEndpoint::establish_with_options(me, 1, listener, &addrs, &options)
    {
        // One lane: this process runs exactly one session at a time.
        Ok(mut lanes) => lanes.remove(0),
        // A dead peer never completes bring-up: honest-or-⊥, bounded
        // by the mesh budget.
        Err(_) => return Outcome::Abort,
    };
    let cfg = FrameworkConfig::new(m, k, n_users, m).with_session(SessionId(session));
    let mut engine = SessionEngine::new(
        cfg,
        me,
        Arc::clone(program),
        bids,
        // The engine seed fan-out rule of every other runtime.
        seed.wrapping_add(config.id as u64 + 1),
    );
    drive(&mut engine, &mut endpoint, deadline)
}

/// Deterministic per-epoch workload, derived purely from the epoch
/// seed: §6.2-shaped unit valuations in `[0.75, 1.25]`, demands in
/// `(0, 1]`, asks priced in `[0.01, 0.5]` with capacity around the
/// demand share — gainful trades exist in most epochs, scarce ones in
/// some.
pub fn generate_epoch_bids(n_users: usize, m: usize, seed: u64) -> BidVector {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut builder = BidVector::builder(n_users, m);
    let mut total_demand_micro = 0u64;
    for i in 0..n_users {
        let valuation = Money::from_micro(750_000 + (next() % 500_001) as i64);
        let demand = Bw::from_micro(1 + next() % MICRO as u64);
        total_demand_micro += demand.micro();
        builder = builder.user_bid(i, UserBid::new(valuation, demand));
    }
    for j in 0..m {
        let unit_cost = Money::from_micro(10_000 + (next() % 490_001) as i64);
        let share = total_demand_micro / m as u64 + 1;
        let scale = 500_000 + next() % 1_500_001; // capacity factor in [0.5, 2.0]
        let capacity = Bw::from_micro((share as u128 * scale as u128 / MICRO as u128) as u64 + 1);
        builder = builder.provider_ask(j, ProviderAsk::new(unit_cost, capacity));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ControlMsg) {
        let bytes = msg.encode_to_bytes();
        assert_eq!(ControlMsg::decode_all(&bytes).expect("decodes"), msg);
    }

    #[test]
    fn control_messages_round_trip() {
        roundtrip(ControlMsg::Join { id: 2, mesh_addr: "127.0.0.1:4100".into() });
        roundtrip(ControlMsg::JoinAck {
            incarnation: 3,
            m: 3,
            k: 1,
            n_users: 8,
            deadline_ms: 5000,
            mesh_budget_ms: 2000,
        });
        roundtrip(ControlMsg::Ping);
        roundtrip(ControlMsg::WorkOrder {
            epoch: 7,
            session: 8,
            seed: 0xFEED,
            bids: generate_epoch_bids(4, 3, 99),
            peers: vec![
                PeerInfo { id: 0, mesh_addr: "127.0.0.1:1".into(), incarnation: 1 },
                PeerInfo { id: 1, mesh_addr: "127.0.0.1:2".into(), incarnation: 4 },
            ],
        });
        roundtrip(ControlMsg::OutcomeReport { epoch: 7, id: 1, outcome: Outcome::Abort });
        roundtrip(ControlMsg::Shutdown);
    }

    #[test]
    fn epoch_bids_are_deterministic_in_the_seed() {
        let a = generate_epoch_bids(16, 3, 1234);
        let b = generate_epoch_bids(16, 3, 1234);
        assert_eq!(a, b, "same seed, same workload");
        let c = generate_epoch_bids(16, 3, 1235);
        assert_ne!(a, c, "different seed, different workload");
        assert_eq!(a.num_users(), 16);
        assert_eq!(a.num_asks(), 3);
        for ask in a.asks() {
            assert!(ask.unit_cost().is_positive());
            assert!(!ask.capacity().is_zero());
        }
    }

    #[test]
    fn cluster_config_validates_the_coalition_bound() {
        assert!(ClusterConfig::new(3, 1, 4).validate().is_ok());
        assert!(matches!(ClusterConfig::new(2, 1, 4).validate(), Err(ClusterError::Config(_))));
        let mut cfg = ClusterConfig::new(3, 1, 4);
        cfg.n_users = 0;
        assert!(cfg.validate().is_err());
    }

    /// Regression for the join race: a dispatch that found a peer Up
    /// with no control writer yet aborted a healthy epoch as `PeerDown`.
    /// The test holds the roster while a provider's `Join` lands; at no
    /// point may the peer read Up with an empty writer slot, and after
    /// the join (and after the disconnect) the two agree.
    #[test]
    fn join_publishes_liveness_and_writer_together() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut coordinator =
            Coordinator::new(listener, ClusterConfig::new(3, 1, 4)).expect("coordinator");
        let up_without_writer = |roster: &Roster| {
            roster.tracker.state(0) == PeerState::Up && roster.writers[0].is_none()
        };

        let mut provider = TcpStream::connect(coordinator.local_addr()).expect("connect");
        provider.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        {
            let roster = coordinator.shared.roster();
            let join = ControlMsg::Join { id: 0, mesh_addr: "127.0.0.1:9".into() };
            write_frame(&mut provider, &join).expect("send join");
            // Give the connection thread ample time to accept and read
            // the join while the roster is held.
            let until = Instant::now() + Duration::from_millis(300);
            while Instant::now() < until {
                assert!(!up_without_writer(&roster), "peer Up before its writer is installed");
                thread::sleep(Duration::from_millis(5));
            }
        }
        assert!(matches!(read_frame(&mut provider), Ok(ControlMsg::JoinAck { .. })));
        {
            let roster = coordinator.shared.roster();
            assert_eq!(roster.tracker.state(0), PeerState::Up);
            assert!(roster.writers[0].is_some(), "joined peer has no writer");
            assert_eq!(roster.mesh_addrs[0].as_deref(), Some("127.0.0.1:9"));
        }

        drop(provider);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let roster = coordinator.shared.roster();
            if roster.tracker.state(0) != PeerState::Up {
                assert!(roster.writers[0].is_none(), "departed peer kept its writer");
                assert!(roster.mesh_addrs[0].is_none(), "departed peer kept its mesh address");
                break;
            }
            assert!(roster.writers[0].is_some(), "peer Up without a writer");
            assert!(Instant::now() < deadline, "disconnect never observed");
            drop(roster);
            thread::sleep(Duration::from_millis(5));
        }
        coordinator.teardown();
    }

    /// In-process smoke of the full cluster: one coordinator, three
    /// provider threads, real sockets — the process-kill harness in
    /// `tests/process_kill.rs` does the same over real child processes.
    #[test]
    fn cluster_clears_epochs_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut config = ClusterConfig::new(3, 1, 6);
        config.epochs = 3;
        config.join_timeout = Duration::from_secs(10);
        let coordinator = Coordinator::new(listener, config).expect("coordinator");
        let addr = coordinator.local_addr().to_string();

        let providers: Vec<_> = (0..3)
            .map(|id| {
                let addr = addr.clone();
                thread::spawn(move || run_provider(ProviderConfig::new(id, addr)))
            })
            .collect();

        let report = coordinator.run(|_| {}).expect("run");
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.cleared() + report.aborted(), 3);
        assert_eq!(report.reconnects, 0, "no deaths, no reconnects");
        // A quiet loopback cluster should actually clear.
        assert!(report.cleared() >= 1, "no epoch cleared: {:?}", report.epochs);
        for provider in providers {
            let provider_report = provider.join().expect("provider thread").expect("provider run");
            assert_eq!(provider_report.rejoins, 0);
            assert_eq!(provider_report.epochs, 3);
        }
    }
}
