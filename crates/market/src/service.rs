//! The long-lived market daemon: streaming ingestion in, epoch outcomes
//! out, one persistent mesh underneath.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use dauctioneer_core::{
    unanimous, AllocatorProgram, BatchSession, BidCollector, SessionPool, TransportKind,
};
use dauctioneer_net::{
    shard_for, ChaosMetrics, ChaosStats, MuxMesh, ShardedHub, TrafficMetrics, TrafficSnapshot,
};
use dauctioneer_telemetry::{
    AbortReason, EpochTrace, FlightLevel, FlightRecorder, Histogram, TraceRing,
};
use dauctioneer_types::{BidVector, Outcome, ProviderAsk, SealRecord, SessionId, UserBid, UserId};

use crate::config::{EpochPolicy, MarketConfig, MarketError};
use crate::ingress::{IngressQueue, Pop, Submission, SubmitError};
use crate::journal::{Journal, JournalError};
use crate::stats::{MarketStats, StatsShared};

/// A cloneable submitter handle onto a running market.
///
/// `Ok(())` from the submit methods means *queued for the scheduler* —
/// the verdict of the §3.2 collection rules (accepted, duplicate,
/// invalid…) is applied asynchronously when the scheduler folds the
/// submission into the open epoch, and is visible in aggregate through
/// [`MarketService::stats`]. `Err` is the backpressure surface:
/// [`SubmitError::Overloaded`] under the shed policy,
/// [`SubmitError::Closed`] once the market is shutting down.
#[derive(Debug, Clone)]
pub struct MarketHandle {
    queue: Arc<IngressQueue>,
}

impl MarketHandle {
    /// Submit one user bid for the open (or next) epoch.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the ingress queue is full under
    /// [`crate::Backpressure::Shed`]; [`SubmitError::Closed`] after
    /// shutdown began. Under [`crate::Backpressure::Block`] this call
    /// blocks instead of returning `Overloaded`.
    pub fn submit_bid(&self, user: UserId, bid: UserBid) -> Result<(), SubmitError> {
        self.queue.push(Submission::Bid { user, bid })
    }

    /// Submit a provider ask for the open (or next) epoch, overwriting
    /// the configured default for that slot.
    ///
    /// # Errors
    ///
    /// Same backpressure surface as [`MarketHandle::submit_bid`].
    pub fn submit_ask(&self, slot: usize, ask: ProviderAsk) -> Result<(), SubmitError> {
        self.queue.push(Submission::Ask { slot, ask })
    }
}

/// One closed epoch's result, delivered on the subscription channel.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Zero-based epoch counter.
    pub epoch: u64,
    /// The session id the epoch cleared under
    /// (`first_session + epoch`).
    pub session: SessionId,
    /// The session seed used (before the per-provider fan-out), so an
    /// epoch can be replayed offline as a one-shot session.
    pub seed: u64,
    /// Bids accepted into this epoch.
    pub accepted_bids: usize,
    /// The closed bid vector every provider input to bid agreement
    /// (identical across providers: one collector folds the single
    /// submission stream and every provider receives a copy).
    pub bids: BidVector,
    /// Outcome at each provider, by provider index.
    pub outcomes: Vec<Outcome>,
    /// Definition 1 over `outcomes`: the agreed pair iff every provider
    /// decided it.
    pub outcome: Outcome,
    /// Epoch close → unanimous outcome latency.
    pub latency: Duration,
    /// The mechanism the epoch cleared under (the program's
    /// `AllocatorProgram::name`) — the same provenance string sealed
    /// into the journal's settlement chain.
    pub mechanism: &'static str,
}

/// What [`MarketService::start`] reconstructed from a recovered journal
/// before accepting any new submission.
///
/// Sealed epochs are restored as written; unsealed (in-flight) epochs
/// are **re-cleared** on the fresh pool with their original session ids
/// and seeds (`first_session + e`, `seed + (e+1)·7919`), so every
/// replayed [`EpochOutcome`] is byte-identical to what the crashed
/// process would have produced. Replayed outcomes are reported here
/// rather than on the subscription channel, which does not exist yet at
/// recovery time.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epochs already sealed on the settlement chain, in chain order.
    pub sealed: Vec<SealRecord>,
    /// In-flight epochs re-cleared during recovery, in epoch order
    /// (their new seals follow the recovered chain tip).
    pub replayed: Vec<EpochOutcome>,
    /// The epoch index the resumed scheduler continues from.
    pub next_epoch: u64,
    /// Torn-tail bytes truncated from the journal file.
    pub dropped_bytes: u64,
}

/// The persistent mesh a market runs over, kept alive for the life of
/// the scheduler and torn down only after the pool's workers are gone.
/// The fields exist purely for their ownership (Drop order), never read.
/// The TCP flavour is **one** multiplexed mesh with a lane per shard —
/// one socket per provider pair for the whole market, however many
/// shards clear concurrently.
#[allow(dead_code)]
enum Mesh {
    InProc(ShardedHub),
    Tcp(MuxMesh),
}

/// The telemetry plumbing one market shares across its scheduler,
/// clearers, and watchers: the crash flight recorder, the epoch trace
/// ring, the chaos fault counters, and the fail-stop dump path.
#[derive(Debug, Clone)]
pub(crate) struct Telemetry {
    pub(crate) flight: Arc<FlightRecorder>,
    pub(crate) traces: Arc<TraceRing>,
    pub(crate) chaos: ChaosMetrics,
    dump_path: Option<PathBuf>,
}

impl Telemetry {
    fn new(config: &MarketConfig) -> Telemetry {
        Telemetry {
            flight: Arc::new(FlightRecorder::new(config.telemetry.flight_capacity)),
            traces: Arc::new(TraceRing::new(config.telemetry.trace_capacity)),
            chaos: ChaosMetrics::new(),
            dump_path: config.telemetry.flight_dump_path.clone(),
        }
    }
}

/// Attribute an aborted epoch to the configuration that forced it.
///
/// The classification is a structural argument, not guesswork: if every
/// provider decided a real outcome yet unanimity still failed, the abort
/// is ⊥-divergence by Definition 1. Otherwise at least one provider
/// pinned ⊥, and the configured disturbances own it in order of intent —
/// adversaries are targeted (they *aim* to force ⊥), chaos is
/// environmental, and a clean configuration that still timed out is a
/// plain deadline miss.
fn classify_abort(
    config: &MarketConfig,
    outcomes: &[Outcome],
    agreed: &Outcome,
) -> Option<AbortReason> {
    if !agreed.is_abort() {
        return None;
    }
    if !outcomes.is_empty() && outcomes.iter().all(|o| !o.is_abort()) {
        return Some(AbortReason::Divergence);
    }
    if !config.adversaries.is_empty() {
        return Some(AbortReason::Adversary);
    }
    if config.chaos.as_ref().is_some_and(|plan| !plan.is_benign()) {
        return Some(AbortReason::ChaosFault);
    }
    Some(AbortReason::Deadline)
}

/// The journal fail-stop path with a black box: record the error as a
/// flight event, count the abort under its own reason, write the flight
/// dump where the config asked for it, and only then die. The dump is
/// best-effort — a failing disk must not mask the original panic.
fn journal_fail_stop(
    telemetry: &Telemetry,
    stats: &StatsShared,
    what: &str,
    err: &JournalError,
) -> ! {
    stats.record_abort_reason(AbortReason::JournalFailStop);
    telemetry.flight.record(
        FlightLevel::Error,
        "journal_fail_stop",
        &[("what", what.to_string()), ("error", err.to_string())],
    );
    if let Some(path) = &telemetry.dump_path {
        let _ = std::fs::write(path, telemetry.flight.dump_json());
    }
    panic!("journal {what}: {err}");
}

/// A cloneable, read-only observation handle onto a running market: the
/// bridge between the service and a metrics registry, scrape endpoint,
/// heartbeat printer, or signal-triggered flight dump. Everything here
/// reads shared state the market updates anyway — holding a watch costs
/// the hot path nothing.
#[derive(Debug, Clone)]
pub struct MarketWatch {
    queue: Arc<IngressQueue>,
    stats: Arc<StatsShared>,
    journal: Option<Arc<Journal>>,
    metrics: Vec<TrafficMetrics>,
    telemetry: Telemetry,
}

impl MarketWatch {
    /// Live counters and latency percentiles (same as
    /// [`MarketService::stats`]).
    pub fn stats(&self) -> MarketStats {
        self.stats.snapshot(
            self.queue.shed_bids_count(),
            self.queue.shed_asks_count(),
            self.queue.enqueued_count(),
            self.queue.depth(),
            self.journal.as_deref(),
            self.telemetry.chaos.snapshot(),
        )
    }

    /// Traffic counters of the persistent mesh, merged across shards.
    pub fn traffic(&self) -> TrafficSnapshot {
        let mut total = TrafficSnapshot::default();
        for m in &self.metrics {
            total.merge(&m.snapshot());
        }
        total
    }

    /// Chaos fault-injection counters, cumulative since startup.
    pub fn chaos(&self) -> ChaosStats {
        self.telemetry.chaos.snapshot()
    }

    /// The live epoch close-latency histogram (log2 buckets, in µs).
    /// The clone shares the underlying cells — it keeps counting.
    pub fn close_latency_histogram(&self) -> Histogram {
        self.stats.close_latency_us.clone()
    }

    /// Dump the crash flight recorder as JSON (the `dauction
    /// flight-dump` input format).
    pub fn flight_dump_json(&self) -> String {
        self.telemetry.flight.dump_json()
    }

    /// Events recorded by the flight recorder so far.
    pub fn flight_recorded(&self) -> u64 {
        self.telemetry.flight.recorded()
    }

    /// Snapshot the retained per-epoch traces, oldest first.
    pub fn recent_traces(&self) -> Vec<EpochTrace> {
        self.telemetry.traces.recent()
    }

    /// Record a custom flight event (e.g. the daemon noting "serve
    /// started" or "shutdown requested" so operator actions land in the
    /// same black box as market events).
    pub fn record_flight(&self, level: FlightLevel, kind: &str, fields: &[(&str, String)]) {
        self.telemetry.flight.record(level, kind, fields);
    }
}

/// A long-lived auction daemon: accepts streaming bid/ask submissions,
/// closes epochs under an [`EpochPolicy`], and clears each epoch as one
/// paper session over a **persistent** [`SessionPool`] — no thread or
/// transport is ever created per epoch.
///
/// ```
/// use dauctioneer_core::DoubleAuctionProgram;
/// use dauctioneer_market::{EpochPolicy, MarketConfig, MarketService};
/// use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid, UserId};
/// use std::sync::Arc;
///
/// let config = MarketConfig::new(3, 1, 4, 1)
///     .with_epoch(EpochPolicy::ByCount(2))
///     .with_asks(vec![ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0))]);
/// let mut market =
///     MarketService::start(config, Arc::new(DoubleAuctionProgram::new())).unwrap();
/// let outcomes = market.take_outcomes().unwrap();
/// let handle = market.handle();
/// handle.submit_bid(UserId(0), UserBid::new(Money::from_f64(1.2), Bw::from_f64(0.5))).unwrap();
/// handle.submit_bid(UserId(1), UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.4))).unwrap();
/// let epoch = outcomes.recv().unwrap(); // second accepted bid closed the epoch
/// assert!(!epoch.outcome.is_abort());
/// let stats = market.shutdown();
/// assert_eq!(stats.epochs_closed, 1);
/// ```
pub struct MarketService {
    queue: Arc<IngressQueue>,
    stats: Arc<StatsShared>,
    metrics: Vec<TrafficMetrics>,
    outcomes: Option<Receiver<EpochOutcome>>,
    subscribed: Arc<AtomicBool>,
    scheduler: Option<JoinHandle<()>>,
    worker_ids: Vec<Vec<ThreadId>>,
    journal: Option<Arc<Journal>>,
    recovery: Option<RecoveryReport>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for MarketService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarketService")
            .field("worker_threads", &self.worker_ids.iter().map(Vec::len).sum::<usize>())
            .field("queue_depth", &self.queue.depth())
            .finish()
    }
}

impl MarketService {
    /// Validate the configuration, bring up the persistent mesh and
    /// worker pool, and start the epoch scheduler.
    ///
    /// # Errors
    ///
    /// [`MarketError`] for invalid knob combinations (checked before any
    /// thread or socket exists) or transport bring-up failure.
    pub fn start<P: AllocatorProgram + 'static>(
        config: MarketConfig,
        program: Arc<P>,
    ) -> Result<MarketService, MarketError> {
        config.validate()?;
        let shards = config.shards.max(1);
        let framework = config.framework();
        let telemetry = Telemetry::new(&config);
        // Provenance: stamped on every outcome and sealed into the
        // journal's settlement chain.
        let mechanism = program.name();

        // Durability comes up before the mesh: a market that cannot
        // journal must not open for business at all. Recovery reads the
        // journal's longest valid prefix, truncates the torn tail, and
        // classifies every unsealed epoch — the re-clearing itself waits
        // until the pool exists.
        let (journal, recovered) = match &config.journal {
            None => (None, None),
            Some(jc) if jc.recover => {
                let (journal, log) =
                    Journal::recover(&jc.path, jc.fsync).map_err(MarketError::Journal)?;
                // A journal sealed under a different mechanism must not
                // be extended: re-clearing its in-flight epochs would
                // produce outcomes the crashed process could never have
                // sealed, forking the settlement history.
                if let Some(journaled) = &log.mechanism {
                    if journaled != mechanism {
                        return Err(MarketError::MechanismMismatch {
                            journaled: journaled.clone(),
                            configured: mechanism.to_string(),
                        });
                    }
                }
                (Some(Arc::new(journal)), Some(log))
            }
            Some(jc) => {
                let journal = Journal::create(&jc.path, jc.fsync).map_err(MarketError::Journal)?;
                (Some(Arc::new(journal)), None)
            }
        };

        // The one and only transport/thread bring-up of the service's
        // life: every epoch reuses this mesh and these workers.
        let (mesh, metrics, pool) = match config.transport {
            TransportKind::InProc => {
                let mut hub = ShardedHub::new(config.m, shards, config.latency, config.seed);
                let metrics = hub.shard_metrics();
                let pool = SessionPool::new_with_faults_metrics(
                    &framework,
                    &program,
                    hub.take_endpoints(),
                    config.chaos,
                    &config.adversaries,
                    Some(telemetry.chaos.clone()),
                );
                (Mesh::InProc(hub), metrics, pool)
            }
            TransportKind::Tcp => {
                let mut mesh = MuxMesh::loopback(config.m, shards)
                    .map_err(|e| MarketError::Transport(e.to_string()))?;
                let metrics = vec![mesh.metrics()];
                let pool = SessionPool::new_with_faults_metrics(
                    &framework,
                    &program,
                    mesh.take_lane_endpoints(),
                    config.chaos,
                    &config.adversaries,
                    Some(telemetry.chaos.clone()),
                );
                (Mesh::Tcp(mesh), metrics, pool)
            }
        };

        let queue = Arc::new(IngressQueue::new(config.ingress_capacity, config.backpressure));
        let stats = Arc::new(StatsShared::new(pool.threads_spawned(), mechanism));
        let worker_ids = pool.worker_ids().to_vec();
        let subscribed = Arc::new(AtomicBool::new(false));
        let (outcomes_tx, outcomes_rx) = channel();

        // Replay any recovered in-flight epochs on the fresh pool,
        // synchronously and in epoch order, before the scheduler (or any
        // submitter) exists. Each re-clear reuses the epoch's original
        // session and seed, so the outcome is byte-identical to what the
        // crashed process would have produced; the new seals extend the
        // recovered settlement chain.
        let (recovery, start_epoch, pending_asks) = match recovered {
            None => (None, 0, Vec::new()),
            Some(log) => {
                let journal = journal.as_ref().expect("recovery implies a journal");
                let mut replayed = Vec::with_capacity(log.in_flight.len());
                for in_flight in &log.in_flight {
                    let mut collector = fresh_collector(&config);
                    for (slot, ask) in &in_flight.asks {
                        if (*slot as usize) < config.n_asks {
                            collector.set_ask(*slot as usize, *ask);
                        }
                    }
                    let mut accepted = 0usize;
                    for (user, bid) in &in_flight.bids {
                        // Journaled bids were accepted once, so the
                        // collector rules accept the same stream again.
                        if collector.submit(*user, *bid).is_accepted() {
                            accepted += 1;
                        }
                    }
                    let session = SessionId(config.first_session + in_flight.epoch);
                    let seed = config.seed.wrapping_add((in_flight.epoch + 1).wrapping_mul(7919));
                    let bids = collector.close();
                    let closed_at = Instant::now();
                    let shard = shard_for(session, pool.num_shards());
                    let (outcomes, outcome, _timings) =
                        run_clear(&config, &pool, shard, session, seed, &bids);
                    let latency = closed_at.elapsed();
                    journal
                        .append_seal(
                            in_flight.epoch,
                            session,
                            seed,
                            accepted as u64,
                            bids.clone(),
                            mechanism,
                            outcome.clone(),
                        )
                        .map_err(MarketError::Journal)?;
                    stats.record_epoch(latency, classify_abort(&config, &outcomes, &outcome));
                    telemetry.flight.record(
                        FlightLevel::Info,
                        "recovery_replay",
                        &[
                            ("epoch", in_flight.epoch.to_string()),
                            ("accepted", accepted.to_string()),
                            ("aborted", outcome.is_abort().to_string()),
                        ],
                    );
                    replayed.push(EpochOutcome {
                        epoch: in_flight.epoch,
                        session,
                        seed,
                        accepted_bids: accepted,
                        bids,
                        outcomes,
                        outcome,
                        latency,
                        mechanism,
                    });
                }
                telemetry.flight.record(
                    FlightLevel::Info,
                    "recovery_complete",
                    &[
                        ("sealed", log.sealed.len().to_string()),
                        ("replayed", replayed.len().to_string()),
                        ("dropped_bytes", log.dropped_bytes.to_string()),
                    ],
                );
                let report = RecoveryReport {
                    sealed: log.sealed,
                    replayed,
                    next_epoch: log.next_epoch,
                    dropped_bytes: log.dropped_bytes,
                };
                (Some(report), log.next_epoch, log.pending_asks)
            }
        };

        let scheduler = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let subscribed = Arc::clone(&subscribed);
            let journal = journal.clone();
            let telemetry = telemetry.clone();
            std::thread::Builder::new()
                .name("market-scheduler".into())
                .spawn(move || {
                    run_scheduler(
                        config,
                        queue,
                        stats,
                        pool,
                        mesh,
                        outcomes_tx,
                        subscribed,
                        journal,
                        telemetry,
                        start_epoch,
                        pending_asks,
                        mechanism,
                    )
                })
                .expect("spawn market scheduler thread")
        };

        Ok(MarketService {
            queue,
            stats,
            metrics,
            outcomes: Some(outcomes_rx),
            subscribed,
            scheduler: Some(scheduler),
            worker_ids,
            journal,
            recovery,
            telemetry,
        })
    }

    /// [`MarketService::start`] with the program built from
    /// `config.mechanism` — the spec-driven entry point behind the
    /// `--mechanism` flag. The program sells [`market_capacities`](crate::market_capacities):
    /// the configured default asks' capacities, or one unit per
    /// provider when no asks are configured.
    ///
    /// # Errors
    ///
    /// Everything [`MarketService::start`] rejects, plus
    /// [`MarketError::MechanismMismatch`] when recovering a journal
    /// sealed under a different mechanism.
    pub fn start_from_spec(config: MarketConfig) -> Result<MarketService, MarketError> {
        let program = Arc::new(crate::mechanism::build_program(&config));
        MarketService::start(config, program)
    }

    /// A cloneable submitter handle. Any number of threads may hold one.
    pub fn handle(&self) -> MarketHandle {
        MarketHandle { queue: Arc::clone(&self.queue) }
    }

    /// Take the epoch-outcome subscription (single consumer; `None` on
    /// the second call). Publication starts with the take: epochs closed
    /// while nobody subscribes are **not** buffered (a headless,
    /// stats-only deployment would otherwise accumulate one
    /// [`EpochOutcome`] per epoch forever). Subscribe before the first
    /// submission to see every epoch. Epochs clearing concurrently on
    /// different shards may arrive slightly out of epoch order; the
    /// [`EpochOutcome::epoch`] counter disambiguates.
    pub fn take_outcomes(&mut self) -> Option<Receiver<EpochOutcome>> {
        let taken = self.outcomes.take();
        if taken.is_some() {
            self.subscribed.store(true, Ordering::Release);
        }
        taken
    }

    /// Live counters and latency percentiles.
    pub fn stats(&self) -> MarketStats {
        self.stats.snapshot(
            self.queue.shed_bids_count(),
            self.queue.shed_asks_count(),
            self.queue.enqueued_count(),
            self.queue.depth(),
            self.journal.as_deref(),
            self.telemetry.chaos.snapshot(),
        )
    }

    /// A cloneable, read-only observation handle: everything a metrics
    /// registry, heartbeat printer, or flight-dump trigger needs,
    /// without keeping a borrow of the service alive.
    pub fn watch(&self) -> MarketWatch {
        MarketWatch {
            queue: Arc::clone(&self.queue),
            stats: Arc::clone(&self.stats),
            journal: self.journal.clone(),
            metrics: self.metrics.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Chaos fault-injection counters, cumulative since startup.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.telemetry.chaos.snapshot()
    }

    /// Dump the crash flight recorder as JSON (the `dauction
    /// flight-dump` input format).
    pub fn flight_dump_json(&self) -> String {
        self.telemetry.flight.dump_json()
    }

    /// Snapshot the retained per-epoch traces, oldest first.
    pub fn recent_traces(&self) -> Vec<EpochTrace> {
        self.telemetry.traces.recent()
    }

    /// What recovery reconstructed from the journal, if this service was
    /// started with [`crate::JournalConfig::recovering`]. `None` for
    /// fresh (or journal-less) services.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The write-ahead journal, if the service runs with one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// Traffic counters of the persistent mesh, cumulative since
    /// startup and merged across shards. Strictly monotonic across
    /// epochs — the observable proof that every epoch rides the same
    /// transport.
    pub fn traffic(&self) -> TrafficSnapshot {
        let mut total = TrafficSnapshot::default();
        for m in &self.metrics {
            total.merge(&m.snapshot());
        }
        total
    }

    /// Thread ids of the provider workers, recorded at spawn:
    /// `worker_ids()[s][j]` is shard `s`'s provider-`j` worker. Constant
    /// for the life of the service (and re-verified on every epoch reply
    /// by the pool).
    pub fn worker_ids(&self) -> &[Vec<ThreadId>] {
        &self.worker_ids
    }

    /// Drain, then shut down: stop accepting submissions, let the
    /// scheduler fold every already-queued submission into a final
    /// epoch, clear it, and tear the pool and mesh down. No accepted
    /// bid is lost. Returns the final stats.
    pub fn shutdown(mut self) -> MarketStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MarketService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The epoch scheduler: single consumer of the ingress queue, sole
/// driver of the worker pool.
#[allow(clippy::too_many_arguments)] // one call site; the args are the service's wiring
fn run_scheduler(
    config: MarketConfig,
    queue: Arc<IngressQueue>,
    stats: Arc<StatsShared>,
    pool: SessionPool,
    mesh: Mesh,
    outcomes_tx: Sender<EpochOutcome>,
    subscribed: Arc<AtomicBool>,
    journal: Option<Arc<Journal>>,
    telemetry: Telemetry,
    start_epoch: u64,
    pending_asks: Vec<(u64, ProviderAsk)>,
    mechanism: &'static str,
) {
    // One clearer thread per shard, spawned once alongside the workers:
    // a closed epoch is handed to its session's shard-clearer, so epochs
    // hashing to different shards clear **concurrently** while the
    // scheduler keeps folding the next epoch's submissions — this is
    // what makes `shards > 1` a real throughput knob for the market, not
    // just for batches. Within one shard, its single clearer serialises
    // epochs, which the per-worker order of the control channels would
    // force anyway.
    let pool = Arc::new(pool);
    let num_shards = pool.num_shards();
    let mut clear_txs: Vec<SyncSender<ClearJob>> = Vec::with_capacity(num_shards);
    let mut clearers = Vec::with_capacity(num_shards);
    for shard in 0..num_shards {
        // The clear queue is bounded: when a shard's clearer falls
        // CLEAR_BACKLOG epochs behind (e.g. every epoch is waiting out
        // the session deadline under fault injection), the scheduler's
        // send blocks, it stops draining ingress, and the ingress
        // policy (shed or block) engages — overload surfaces at the
        // submitters instead of accumulating as unbounded shutdown
        // debt.
        let (tx, rx) = sync_channel::<ClearJob>(CLEAR_BACKLOG);
        let config = config.clone();
        let stats = Arc::clone(&stats);
        let pool = Arc::clone(&pool);
        let outcomes_tx = outcomes_tx.clone();
        let subscribed = Arc::clone(&subscribed);
        let journal = journal.clone();
        let telemetry = telemetry.clone();
        clearers.push(
            std::thread::Builder::new()
                .name(format!("market-clearer-{shard}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        clear_epoch(
                            &config,
                            &stats,
                            &pool,
                            &outcomes_tx,
                            &subscribed,
                            journal.as_deref(),
                            &telemetry,
                            shard,
                            job,
                            mechanism,
                        );
                    }
                })
                .expect("spawn market clearer thread"),
        );
        clear_txs.push(tx);
    }
    drop(outcomes_tx); // the clearers hold the only publishing handles

    let mut epoch_index = start_epoch;
    // Streamed asks a recovered journal attributed to the resumed
    // scheduler's first epoch: already journaled under `start_epoch`, so
    // they pre-populate the first collector without being re-journaled.
    let mut pending_asks = pending_asks;
    let mut draining = false;
    while !draining {
        let mut collector = fresh_collector(&config);
        for (slot, ask) in pending_asks.drain(..) {
            if (slot as usize) < config.n_asks {
                collector.set_ask(slot as usize, ask);
            }
        }
        let mut accepted = 0usize;
        // The staleness window starts at the first **accepted** bid
        // (asks and rejected bids keep the epoch unopened), as the
        // [`EpochPolicy`] contract states.
        let mut opened: Option<Instant> = None;
        // The trace origin is the queue-push instant of the epoch's
        // opening bid: the ingress span is the queue wait the epoch's
        // first bidder actually experienced.
        let mut origin: Option<Instant> = None;
        let mut ingress_wait = Duration::ZERO;

        // Fold submissions until the policy closes the epoch or the
        // queue closes (drain-then-shutdown flushes the rest). With
        // nothing accepted yet the scheduler just blocks on the queue.
        loop {
            let due = match config.epoch {
                EpochPolicy::ByCount(n) => accepted >= n,
                EpochPolicy::ByTime(d) => opened.is_some_and(|o| o.elapsed() >= d),
                EpochPolicy::Hybrid { count, max_wait } => {
                    accepted >= count || opened.is_some_and(|o| o.elapsed() >= max_wait)
                }
            };
            if due {
                break; // `due` implies at least one accepted bid
            }
            let pop = match (config.epoch, opened) {
                // Count-only closure depends solely on arrivals, and no
                // window is running before the first accepted bid: block.
                (EpochPolicy::ByCount(_), _) | (_, None) => queue.pop(),
                (EpochPolicy::ByTime(d), Some(o)) => {
                    queue.pop_timeout(d.saturating_sub(o.elapsed()))
                }
                (EpochPolicy::Hybrid { max_wait, .. }, Some(o)) => {
                    queue.pop_timeout(max_wait.saturating_sub(o.elapsed()))
                }
            };
            match pop {
                Pop::Item(queued) => {
                    let pushed_at = queued.at;
                    let was_accepted = apply(
                        &config,
                        &stats,
                        journal.as_deref(),
                        &telemetry,
                        epoch_index,
                        &mut collector,
                        queued.submission,
                    );
                    if was_accepted {
                        accepted += 1;
                        if opened.is_none() {
                            let now = Instant::now();
                            opened = Some(now);
                            origin = Some(pushed_at);
                            ingress_wait = now.saturating_duration_since(pushed_at);
                        }
                    }
                }
                Pop::Timeout => {} // re-check `due`
                Pop::Closed => {
                    draining = true;
                    break;
                }
            }
        }

        if accepted > 0 {
            let session = SessionId(config.first_session + epoch_index);
            // A distinct, reproducible seed per epoch (7919 = the
            // 1000th prime, an arbitrary odd stride).
            let seed = config.seed.wrapping_add((epoch_index + 1).wrapping_mul(7919));
            let opened_at = opened.expect("accepted > 0 implies an opened epoch");
            let origin = origin.unwrap_or(opened_at);
            let closed_at = Instant::now();
            let trace = (config.telemetry.trace_capacity > 0).then(|| {
                let mut trace = EpochTrace::new(epoch_index, session.0, seed);
                trace.span("ingress", Duration::ZERO, ingress_wait);
                trace.span(
                    "collect",
                    opened_at.saturating_duration_since(origin),
                    closed_at.saturating_duration_since(opened_at),
                );
                trace
            });
            let job = ClearJob {
                epoch: epoch_index,
                session,
                seed,
                accepted,
                bids: collector.close(),
                closed_at,
                origin,
                trace,
            };
            let shard = shard_for(session, num_shards);
            // A dead clearer (panicked shard) drops this epoch's
            // outcome; the market itself keeps running.
            let _ = clear_txs[shard].send(job);
            epoch_index += 1;
        }
    }
    // Drain-then-shutdown, stage two: the queue is closed and every
    // submission is folded; now let the clearers finish every in-flight
    // epoch before any worker or mesh goes away.
    drop(clear_txs);
    for clearer in clearers {
        let _ = clearer.join();
    }
    // A deliberate exit must leave nothing in the page cache: whatever
    // the policy deferred is synced now, once, before the process can
    // end. (Crash exits are the journal's whole point and skip this.)
    if let Some(journal) = &journal {
        if let Err(err) = journal.sync() {
            journal_fail_stop(&telemetry, &stats, "final sync", &err);
        }
    }
    // Workers joined (and their endpoints dropped) before the mesh goes.
    Arc::try_unwrap(pool).expect("all clearers joined").shutdown();
    drop(mesh);
}

/// Closed epochs a shard's clearer may be behind before the scheduler
/// blocks (and, transitively, the ingress queue starts filling).
const CLEAR_BACKLOG: usize = 32;

/// A closed epoch on its way to the clearing pool.
struct ClearJob {
    epoch: u64,
    session: SessionId,
    seed: u64,
    accepted: usize,
    /// The closed vector (every provider collected the same stream; m
    /// copies of this are the m per-provider `b̄ⱼ` inputs).
    bids: BidVector,
    /// When the epoch closed — the latency clock includes any wait for
    /// the shard's clearer, which is real backlog, not measurement slack.
    closed_at: Instant,
    /// The trace origin: the queue-push instant of the opening bid
    /// (equal to the open instant when no stamp was available).
    origin: Instant,
    /// The epoch's span tree so far (ingress + collect recorded by the
    /// scheduler); the clearer appends dispatch/session/seal and
    /// finishes it. `None` when tracing is disabled.
    trace: Option<EpochTrace>,
}

/// A fresh collector for a new epoch, with the configured default asks
/// attached. One collector suffices: every provider sees the identical
/// submission stream through the single ingress queue, so the m
/// per-provider `b̄ⱼ` vectors are m copies of its closed output
/// (divergence across providers is the *bidders'* move in the paper,
/// not something one service handle can express).
fn fresh_collector(config: &MarketConfig) -> BidCollector {
    let mut collector = BidCollector::new(config.n_users, config.n_asks);
    for (slot, ask) in config.asks.iter().enumerate() {
        collector.set_ask(slot, *ask);
    }
    collector
}

/// Fold one submission into the epoch's collector, updating the verdict
/// counters. Returns `true` iff a bid was accepted (the unit the epoch
/// policies count).
///
/// This is where the write-ahead discipline lives: an accepted bid is
/// journaled — and made durable per the fsync policy — *before* its
/// verdict is counted or can trigger an epoch close. A journal append
/// failure is fail-stop by design ([`journal_fail_stop`]): a durable
/// market must not acknowledge what it cannot journal — but it does
/// leave a flight dump behind on the way down.
fn apply(
    config: &MarketConfig,
    stats: &StatsShared,
    journal: Option<&Journal>,
    telemetry: &Telemetry,
    epoch: u64,
    collector: &mut BidCollector,
    submission: Submission,
) -> bool {
    use std::sync::atomic::Ordering;
    match submission {
        Submission::Bid { user, bid } => {
            let verdict = collector.submit(user, bid);
            if verdict.is_accepted() {
                if let Some(journal) = journal {
                    if let Err(err) = journal.append_accepted(epoch, user, bid) {
                        journal_fail_stop(telemetry, stats, "accepted bid", &err);
                    }
                }
            }
            let counter = match verdict {
                dauctioneer_core::SubmissionOutcome::Accepted => &stats.bids_accepted,
                dauctioneer_core::SubmissionOutcome::RejectedInvalid => {
                    &stats.bids_rejected_invalid
                }
                dauctioneer_core::SubmissionOutcome::RejectedDuplicate => {
                    &stats.bids_rejected_duplicate
                }
                dauctioneer_core::SubmissionOutcome::RejectedUnknownBidder
                | dauctioneer_core::SubmissionOutcome::RejectedLate => &stats.bids_rejected_unknown,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            verdict.is_accepted()
        }
        Submission::Ask { slot, ask } => {
            if slot >= config.n_asks {
                stats.asks_rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if let Some(journal) = journal {
                if let Err(err) = journal.append_ask(epoch, slot as u64, ask) {
                    journal_fail_stop(telemetry, stats, "ask", &err);
                }
            }
            collector.set_ask(slot, ask);
            stats.asks_set.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Run one closed epoch as a session on `shard` of the persistent pool
/// and reduce the per-provider columns to the unanimous Definition-1
/// outcome. Shared by the clearer threads and recovery's synchronous
/// re-clears — one code path is what makes "replayed outcomes are
/// byte-identical" structural rather than coincidental.
///
/// The third element is each provider's decide offset within the drive
/// (`None` for a provider that never decided — a ⊥ column), feeding the
/// per-session child spans of the epoch trace.
#[allow(clippy::type_complexity)] // the tuple IS the contract: columns, agreement, timings
fn run_clear(
    config: &MarketConfig,
    pool: &SessionPool,
    shard: usize,
    session: SessionId,
    seed: u64,
    bids: &BidVector,
) -> (Vec<Outcome>, Outcome, Vec<Option<Duration>>) {
    let collected: Vec<BidVector> = vec![bids.clone(); config.m];
    let mut shard_specs: Vec<Vec<BatchSession>> = vec![Vec::new(); pool.num_shards()];
    shard_specs[shard].push(BatchSession { session, collected, seed });

    let (columns, decided) = pool.run_epoch_traced(shard_specs, config.session_deadline);
    let outcomes: Vec<Outcome> =
        columns[shard].iter().map(|provider| provider[0].clone()).collect();
    let timings: Vec<Option<Duration>> =
        decided[shard].iter().map(|provider| provider[0]).collect();
    let outcome = unanimous(outcomes.iter().map(Some));
    (outcomes, outcome, timings)
}

/// Clear one closed epoch as a session on this clearer's shard of the
/// persistent pool, sealing it onto the settlement chain (when
/// journaling) and publishing the outcome if anyone subscribed.
#[allow(clippy::too_many_arguments)] // one call site; the args are the clearer's wiring
fn clear_epoch(
    config: &MarketConfig,
    stats: &StatsShared,
    pool: &SessionPool,
    outcomes_tx: &Sender<EpochOutcome>,
    subscribed: &AtomicBool,
    journal: Option<&Journal>,
    telemetry: &Telemetry,
    shard: usize,
    job: ClearJob,
    mechanism: &'static str,
) {
    let drive_started = Instant::now();
    let (outcomes, outcome, timings) =
        run_clear(config, pool, shard, job.session, job.seed, &job.bids);
    let drive_duration = drive_started.elapsed();
    let reason = classify_abort(config, &outcomes, &outcome);
    let latency = job.closed_at.elapsed();
    // The seal is appended before the epoch is counted or published —
    // the same write-ahead ordering the accepted bids get. Concurrent
    // clearers serialize on the journal lock; the chain order is the
    // append order.
    let seal_started = Instant::now();
    if let Some(journal) = journal {
        if let Err(err) = journal.append_seal(
            job.epoch,
            job.session,
            job.seed,
            job.accepted as u64,
            job.bids.clone(),
            mechanism,
            outcome.clone(),
        ) {
            journal_fail_stop(telemetry, stats, "epoch seal", &err);
        }
    }
    let seal_duration = seal_started.elapsed();
    stats.record_epoch(latency, reason);
    match reason {
        None => telemetry.flight.record(
            FlightLevel::Info,
            "epoch_cleared",
            &[
                ("epoch", job.epoch.to_string()),
                ("accepted", job.accepted.to_string()),
                ("latency_us", latency.as_micros().to_string()),
            ],
        ),
        Some(reason) => telemetry.flight.record(
            FlightLevel::Warn,
            "epoch_aborted",
            &[
                ("epoch", job.epoch.to_string()),
                ("reason", reason.label().to_string()),
                ("latency_us", latency.as_micros().to_string()),
            ],
        ),
    }
    if let Some(mut trace) = job.trace {
        // All span offsets are relative to the trace origin (the opening
        // bid's queue-push instant); the dispatch span covers the clear
        // backlog wait plus the drive itself.
        let dispatch_start = drive_started.saturating_duration_since(job.origin);
        let dispatch = trace.span("dispatch", dispatch_start, drive_duration);
        for (j, decided) in timings.iter().enumerate() {
            // A provider that never decided spans the whole drive: its
            // worker held the session until the deadline pinned ⊥.
            trace.span_under(
                dispatch,
                &format!("session[{j}]"),
                dispatch_start,
                decided.unwrap_or(drive_duration),
            );
        }
        trace.span("seal", dispatch_start + drive_duration, seal_duration);
        trace.finish(job.origin.elapsed(), reason);
        telemetry.traces.push(trace);
    }
    // Publication starts with the subscription; unobserved epochs are
    // not buffered (and a dropped receiver must not kill the market).
    if subscribed.load(Ordering::Acquire) {
        let _ = outcomes_tx.send(EpochOutcome {
            epoch: job.epoch,
            session: job.session,
            seed: job.seed,
            accepted_bids: job.accepted,
            bids: job.bids,
            outcomes,
            outcome,
            latency,
            mechanism,
        });
    }
}
