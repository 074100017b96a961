//! Persistent provider worker pool: long-lived threads and meshes that
//! outlive any single batch.
//!
//! [`crate::batch`] answers "clear these N sessions once"; a continuous
//! market service must answer "clear *epoch after epoch* of sessions over
//! the same infrastructure". Respawning a mesh (and, for TCP, its
//! listeners, connections, and reader/writer threads) plus `m` provider
//! threads per epoch would make epoch latency a function of bring-up cost
//! instead of protocol cost. A [`SessionPool`] therefore spawns its
//! worker threads **once**, hands each worker its transport endpoint
//! **once**, and then feeds the workers work orders over control
//! channels: each call to [`SessionPool::run_epoch`] drives one batch of
//! sessions through [`drive_multi_timed`] on the existing threads.
//!
//! Session-tag framing makes the reuse safe: a straggler frame of epoch
//! *e* still sitting in an endpoint's inbox when epoch *e+1* starts
//! carries a session tag no live engine matches, so the drive loop drops
//! it — exactly the isolation the engine already guarantees for
//! concurrent sessions, extended across time.
//!
//! The pool is transport-agnostic (anything implementing [`Transport`]),
//! and [`crate::batch::run_batch_with`] is now a thin wrapper: build a
//! mesh, build a pool over it, run **one** epoch, shut down.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

use dauctioneer_net::{ChaosMetrics, ChaosTransport, FaultPlan};
use dauctioneer_types::{BidVector, Outcome, ProviderId, SessionId};

use crate::adversary::{strategy_for, Adversary, AdversaryTransport};
use crate::allocator::AllocatorProgram;
use crate::config::FrameworkConfig;
use crate::engine::{drive_multi_timed, SessionEngine, Transport};

/// One epoch's worth of work for a single provider worker.
struct WorkOrder {
    /// `(session, collected bids, engine seed)` for every session this
    /// provider drives this epoch. The seed is already fanned out per
    /// provider (`spec.seed + j + 1`) by [`SessionPool::run_epoch`].
    specs: Vec<(SessionId, BidVector, u64)>,
    /// Wall-clock budget for the epoch; undecided sessions read ⊥.
    deadline: Duration,
    /// Where to deliver this provider's outcomes and per-session decide
    /// offsets, in spec order, stamped with the worker's thread id (the
    /// churn detector).
    reply: Sender<(ThreadId, Vec<Outcome>, Vec<Option<Duration>>)>,
}

/// A persistent pool of provider worker threads over long-lived
/// transports.
///
/// Construction spawns `m` worker threads per shard, each owning one
/// endpoint of that shard's mesh, and that is the **only** place threads
/// are ever spawned: every reply a worker sends carries its
/// [`ThreadId`], and [`SessionPool::run_epoch`] checks it against the
/// roster recorded at spawn time, so a regression that quietly respawned
/// workers per epoch would panic rather than pass unnoticed. Workers
/// block on their control channel between epochs and exit when the pool
/// shuts down (dropping their endpoints, which tears the mesh down
/// drain-then-shutdown style for TCP).
///
/// The pool deliberately does **not** own the mesh objects themselves
/// (hubs need to stay alive only as long as their endpoints, which the
/// workers own); callers keep the mesh — and its traffic counters —
/// alive alongside the pool and drop it after [`SessionPool::shutdown`].
pub struct SessionPool {
    /// `controls[s][j]` feeds shard `s`'s provider-`j` worker.
    controls: Vec<Vec<Sender<WorkOrder>>>,
    /// `ids[s][j]` is the thread id recorded when that worker spawned.
    ids: Vec<Vec<ThreadId>>,
    handles: Vec<JoinHandle<()>>,
    m: usize,
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("shards", &self.controls.len())
            .field("providers", &self.m)
            .field("threads_spawned", &self.threads_spawned())
            .finish()
    }
}

impl SessionPool {
    /// Spawn the workers: one thread per provider per shard, each taking
    /// ownership of its endpoint in `shard_endpoints[s][j]`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any shard does not have
    /// exactly `cfg.m` endpoints.
    pub fn new<P, T>(
        cfg: &FrameworkConfig,
        program: &Arc<P>,
        shard_endpoints: Vec<Vec<T>>,
    ) -> SessionPool
    where
        P: AllocatorProgram + 'static,
        T: Transport + Send + 'static,
    {
        SessionPool::new_with_faults(cfg, program, shard_endpoints, None, &[])
    }

    /// [`SessionPool::new`] with the chaos plane threaded in: every
    /// endpoint is wrapped in a [`ChaosTransport`] executing `chaos`
    /// (salted by its shard index, so shards don't suffer lock-stepped
    /// faults) and an [`AdversaryTransport`] running the strategy the
    /// `adversaries` roster assigns to its provider. With `chaos: None`
    /// and an empty roster both wrappers are exact pass-throughs and
    /// this is [`SessionPool::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SessionPool::new`], plus an
    /// invalid `chaos` plan or an adversary naming a provider `>= m`
    /// (both local programming errors; the market service validates its
    /// operator input before reaching this point).
    pub fn new_with_faults<P, T>(
        cfg: &FrameworkConfig,
        program: &Arc<P>,
        shard_endpoints: Vec<Vec<T>>,
        chaos: Option<FaultPlan>,
        adversaries: &[Adversary],
    ) -> SessionPool
    where
        P: AllocatorProgram + 'static,
        T: Transport + Send + 'static,
    {
        SessionPool::new_with_faults_metrics(
            cfg,
            program,
            shard_endpoints,
            chaos,
            adversaries,
            None,
        )
    }

    /// [`SessionPool::new_with_faults`] with a [`ChaosMetrics`] handle
    /// cloned into every chaos wrapper, so fault injections by the
    /// worker-owned transports are countable from outside the pool
    /// while the run is live (the scrape endpoint's view).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`SessionPool::new_with_faults`].
    pub fn new_with_faults_metrics<P, T>(
        cfg: &FrameworkConfig,
        program: &Arc<P>,
        shard_endpoints: Vec<Vec<T>>,
        chaos: Option<FaultPlan>,
        adversaries: &[Adversary],
        chaos_metrics: Option<ChaosMetrics>,
    ) -> SessionPool
    where
        P: AllocatorProgram + 'static,
        T: Transport + Send + 'static,
    {
        if let Some(plan) = &chaos {
            plan.validate().expect("invalid fault plan");
        }
        for adversary in adversaries {
            assert!(
                adversary.provider.index() < cfg.m,
                "adversary names provider {} but the mesh has only {} providers",
                adversary.provider,
                cfg.m
            );
        }
        let plan = chaos.unwrap_or_else(FaultPlan::none);
        let wrapped: Vec<Vec<_>> = shard_endpoints
            .into_iter()
            .enumerate()
            .map(|(s, endpoints)| {
                endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(j, endpoint)| {
                        let mut chaos = ChaosTransport::with_salt(endpoint, plan, s as u64);
                        if let Some(metrics) = &chaos_metrics {
                            chaos = chaos.with_metrics(metrics.clone());
                        }
                        AdversaryTransport::new(
                            chaos,
                            strategy_for(adversaries, ProviderId(j as u32)),
                        )
                    })
                    .collect()
            })
            .collect();
        SessionPool::spawn(cfg, program, wrapped)
    }

    /// The shared spawn path: workers over already-wrapped transports.
    fn spawn<P, T>(
        cfg: &FrameworkConfig,
        program: &Arc<P>,
        shard_endpoints: Vec<Vec<T>>,
    ) -> SessionPool
    where
        P: AllocatorProgram + 'static,
        T: Transport + Send + 'static,
    {
        cfg.validate().expect("invalid framework configuration");
        let m = cfg.m;
        let mut controls = Vec::with_capacity(shard_endpoints.len());
        let mut ids = Vec::with_capacity(shard_endpoints.len());
        let mut handles = Vec::new();
        for (s, endpoints) in shard_endpoints.into_iter().enumerate() {
            assert_eq!(endpoints.len(), m, "shard {s}: one endpoint per provider");
            let mut shard_controls = Vec::with_capacity(m);
            let mut shard_ids = Vec::with_capacity(m);
            for (j, mut endpoint) in endpoints.into_iter().enumerate() {
                let (tx, rx): (Sender<WorkOrder>, Receiver<WorkOrder>) = channel();
                let cfg = cfg.clone();
                let program = Arc::clone(program);
                let handle = std::thread::Builder::new()
                    .name(format!("market-worker-{s}-{j}"))
                    .spawn(move || {
                        let me = std::thread::current().id();
                        // The worker loop: one iteration per epoch, until
                        // every control sender is gone (pool shutdown).
                        while let Ok(order) = rx.recv() {
                            let mut engines: Vec<SessionEngine<P>> = order
                                .specs
                                .into_iter()
                                .map(|(session, bids, seed)| {
                                    SessionEngine::new(
                                        cfg.clone().with_session(session),
                                        ProviderId(j as u32),
                                        Arc::clone(&program),
                                        bids,
                                        seed,
                                    )
                                })
                                .collect();
                            let (outcomes, decided_at) =
                                drive_multi_timed(&mut engines, &mut endpoint, order.deadline);
                            let _ = order.reply.send((me, outcomes, decided_at));
                        }
                    })
                    .expect("spawn pool worker thread");
                shard_controls.push(tx);
                shard_ids.push(handle.thread().id());
                handles.push(handle);
            }
            controls.push(shard_controls);
            ids.push(shard_ids);
        }
        SessionPool { controls, ids, handles, m }
    }

    /// Number of shards the pool drives.
    pub fn num_shards(&self) -> usize {
        self.controls.len()
    }

    /// Providers per shard (`m`).
    pub fn providers(&self) -> usize {
        self.m
    }

    /// Worker threads spawned at construction (`m × shards`). Constant
    /// for the life of the pool — epochs never spawn.
    pub fn threads_spawned(&self) -> usize {
        self.ids.iter().map(Vec::len).sum()
    }

    /// The thread ids of every worker, recorded at spawn:
    /// `ids()[s][j]` is shard `s`'s provider-`j` worker. Stable across
    /// epochs by construction and verified on every reply.
    pub fn worker_ids(&self) -> &[Vec<ThreadId>] {
        &self.ids
    }

    /// Drive one epoch: `shard_specs[s]` are the sessions shard `s`
    /// clears this epoch (empty shards are skipped entirely). Blocks
    /// until every worker has finished its sessions.
    ///
    /// Returns `columns[s][j][i]` = provider `j`'s outcome for shard
    /// `s`'s `i`-th session (an empty shard yields an empty column list).
    /// A worker that died reads as ⊥ for all of its sessions, mirroring
    /// the one-shot batch semantics for a panicked provider thread.
    ///
    /// # Panics
    ///
    /// Panics if `shard_specs.len()` differs from [`Self::num_shards`],
    /// a session's `collected` length is not `m`, or a reply arrives
    /// from a thread that is not the worker spawned for that slot (the
    /// per-epoch-churn detector).
    pub fn run_epoch(
        &self,
        shard_specs: Vec<Vec<crate::batch::BatchSession>>,
        deadline: Duration,
    ) -> Vec<Vec<Vec<Outcome>>> {
        self.run_epoch_traced(shard_specs, deadline).0
    }

    /// [`SessionPool::run_epoch`] that also returns *when* each provider
    /// decided each session: `timings[s][j][i]` is provider `j`'s decide
    /// offset (from its drive-loop entry) for shard `s`'s `i`-th
    /// session, `None` when that provider never decided (its outcome is
    /// ⊥). The market's epoch traces render these as the per-session
    /// span blocks under the dispatch span.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SessionPool::run_epoch`].
    #[allow(clippy::type_complexity)]
    pub fn run_epoch_traced(
        &self,
        shard_specs: Vec<Vec<crate::batch::BatchSession>>,
        deadline: Duration,
    ) -> (Vec<Vec<Vec<Outcome>>>, Vec<Vec<Vec<Option<Duration>>>>) {
        assert_eq!(shard_specs.len(), self.controls.len(), "one spec list per shard");
        // Dispatch every shard before collecting any reply, so shards run
        // concurrently exactly as in the one-shot batch path.
        type Replies = Vec<Receiver<(ThreadId, Vec<Outcome>, Vec<Option<Duration>>)>>;
        let mut pending: Vec<Option<(Replies, usize)>> = Vec::with_capacity(shard_specs.len());
        for (shard_controls, specs) in self.controls.iter().zip(shard_specs) {
            if specs.is_empty() {
                pending.push(None);
                continue;
            }
            let n_sessions = specs.len();
            // Transpose the shard's sessions into per-provider columns
            // with the canonical seed fan-out (`spec.seed + j + 1`).
            let mut per_provider: Vec<Vec<(SessionId, BidVector, u64)>> =
                (0..self.m).map(|_| Vec::with_capacity(n_sessions)).collect();
            for spec in specs {
                assert_eq!(
                    spec.collected.len(),
                    self.m,
                    "one collected vector per provider per session"
                );
                for (j, bids) in spec.collected.into_iter().enumerate() {
                    per_provider[j].push((spec.session, bids, spec.seed + j as u64 + 1));
                }
            }
            let mut replies = Vec::with_capacity(self.m);
            for (control, specs) in shard_controls.iter().zip(per_provider) {
                let (reply_tx, reply_rx) = channel();
                // A send to a dead worker fails; the missing reply then
                // reads as ⊥ below.
                let _ = control.send(WorkOrder { specs, deadline, reply: reply_tx });
                replies.push(reply_rx);
            }
            pending.push(Some((replies, n_sessions)));
        }
        let mut columns = Vec::with_capacity(pending.len());
        let mut timings = Vec::with_capacity(pending.len());
        for (s, shard) in pending.into_iter().enumerate() {
            let (shard_columns, shard_timings) = match shard {
                None => (Vec::new(), Vec::new()),
                Some((replies, n_sessions)) => {
                    let mut shard_columns = Vec::with_capacity(replies.len());
                    let mut shard_timings = Vec::with_capacity(replies.len());
                    for (j, rx) in replies.into_iter().enumerate() {
                        match rx.recv() {
                            Ok((worker, outcomes, decided_at)) => {
                                assert_eq!(
                                    worker, self.ids[s][j],
                                    "shard {s} provider {j}: epoch served by a different \
                                     thread than was spawned — per-epoch worker churn"
                                );
                                shard_columns.push(outcomes);
                                shard_timings.push(decided_at);
                            }
                            Err(_) => {
                                shard_columns.push(vec![Outcome::Abort; n_sessions]);
                                shard_timings.push(vec![None; n_sessions]);
                            }
                        }
                    }
                    (shard_columns, shard_timings)
                }
            };
            columns.push(shard_columns);
            timings.push(shard_timings);
        }
        (columns, timings)
    }

    /// Stop the workers and join them. Dropping the pool does the same;
    /// the explicit form exists so callers can sequence "workers gone,
    /// endpoints dropped" *before* dropping the mesh that carried them.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Dropping every control sender disconnects the workers' recv
        // loops; they drop their endpoints and exit.
        self.controls.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DoubleAuctionProgram;
    use crate::batch::BatchSession;
    use dauctioneer_net::{LatencyModel, ShardedHub};
    use dauctioneer_types::{Bw, Money, ProviderAsk, UserBid};

    fn bids(valuation: f64) -> BidVector {
        BidVector::builder(2, 1)
            .user_bid(0, UserBid::new(Money::from_f64(valuation), Bw::from_f64(0.5)))
            .user_bid(1, UserBid::new(Money::from_f64(0.9), Bw::from_f64(0.5)))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
            .build()
    }

    #[test]
    fn pool_clears_consecutive_epochs_without_respawning() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let mut hub = ShardedHub::new(3, 2, LatencyModel::Zero, 1);
        let pool =
            SessionPool::new(&cfg, &Arc::new(DoubleAuctionProgram::new()), hub.take_endpoints());
        assert_eq!(pool.threads_spawned(), 6);
        let roster: Vec<Vec<ThreadId>> = pool.worker_ids().to_vec();
        for epoch in 0..3u64 {
            let spec = BatchSession::uniform(SessionId(epoch), bids(1.0), 3, 100 + epoch);
            let shard = dauctioneer_net::shard_for(spec.session, 2);
            let mut shard_specs = vec![Vec::new(), Vec::new()];
            shard_specs[shard].push(spec);
            // run_epoch itself asserts every reply came from the thread
            // spawned for that slot.
            let columns = pool.run_epoch(shard_specs, Duration::from_secs(60));
            let outcomes: Vec<Outcome> =
                columns[shard].iter().map(|provider| provider[0].clone()).collect();
            assert!(
                !crate::engine::unanimous(outcomes.iter().map(Some)).is_abort(),
                "epoch {epoch} aborted"
            );
            assert_eq!(pool.worker_ids(), roster.as_slice(), "worker roster changed");
        }
        assert_eq!(pool.threads_spawned(), 6, "epochs must never spawn worker threads");
        pool.shutdown();
        drop(hub);
    }

    #[test]
    fn empty_epoch_is_a_no_op() {
        let cfg = FrameworkConfig::new(3, 1, 2, 1);
        let mut hub = ShardedHub::new(3, 1, LatencyModel::Zero, 1);
        let pool =
            SessionPool::new(&cfg, &Arc::new(DoubleAuctionProgram::new()), hub.take_endpoints());
        let columns = pool.run_epoch(vec![Vec::new()], Duration::from_secs(1));
        assert_eq!(columns, vec![Vec::<Vec<Outcome>>::new()]);
    }
}
