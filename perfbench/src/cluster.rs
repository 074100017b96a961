//! The multi-process deployment shape: `Coordinator::new`/`run` in this
//! process, every provider a `dauction provider` child over loopback.
//!
//! A run is a sequence of rounds. Each round spawns the providers,
//! clears `EPOCHS_PER_ROUND` back-to-back epochs and shuts the cluster
//! down, so set-up is measured once per round. A round that has not
//! sealed every epoch by its wall-clock cap has its providers killed:
//! the coordinator then resolves the rest as `PeerDown`, and every epoch
//! not sealed by the cap counts as failed.

use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dauctioneer::core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions};
use dauctioneer::market::cluster::generate_epoch_bids;
use dauctioneer::market::{
    AbortReason, ClusterConfig, ClusterEpoch, ControlMsg, Coordinator, PeerInfo,
};
use dauctioneer::types::{Encode, SessionId};

use crate::gen::SplitMix;
use crate::layers::{self, Epoch};
use crate::report::Report;
use crate::stats::{Summary, Window};
use crate::sys;
use crate::Ctx;

const M: usize = 3;
const K: usize = 1;
const N_USERS: usize = 64;
const EPOCHS_PER_ROUND: u64 = 400;
/// Wall-clock cap of one round, spawn to last seal.
const ROUND_CAP: Duration = Duration::from_secs(20);
/// How long providers get to exit after the coordinator's shutdown.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// The coordinator's epoch seed rule (`ClusterConfig::seed` plus
/// `(epoch + 1) · 7919`, as the in-process market), needed to rebuild
/// an epoch's bids for replay. A change to the rule fails the replay
/// check instead of passing unnoticed.
fn epoch_seed(base: u64, epoch: u64) -> u64 {
    base.wrapping_add((epoch + 1).wrapping_mul(7919))
}

fn framework() -> FrameworkConfig {
    FrameworkConfig::new(M, K, N_USERS, M)
}

/// One round as observed from outside the coordinator.
#[derive(Default)]
struct Round {
    seed: u64,
    /// Spawn to epoch 0's dispatch.
    setup_s: Option<f64>,
    /// Epoch 0's dispatch to the last seal.
    load_s: f64,
    epochs: Vec<ClusterEpoch>,
    /// Per epoch: sealed before the cap.
    in_time: Vec<bool>,
    attempted: u64,
    threads: u64,
    provider_rss_mib: f64,
    errors: Vec<String>,
}

impl Round {
    /// Epochs cleared and sealed before the cap.
    fn cleared(&self) -> impl Iterator<Item = &ClusterEpoch> {
        self.epochs
            .iter()
            .zip(&self.in_time)
            .filter(|(e, in_time)| **in_time && !e.outcome.is_abort())
            .map(|(e, _)| e)
    }
}

fn spawn_providers(dauction: &Path, addr: &str) -> Result<Vec<Child>, String> {
    let mut children = Vec::with_capacity(M);
    for id in 0..M {
        let child = Command::new(dauction)
            .args(["provider", "--id", &id.to_string(), "--join", addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(e) => {
                reap(&mut children, Duration::ZERO);
                return Err(format!("spawn {}: {e}", dauction.display()));
            }
        }
    }
    Ok(children)
}

/// Wait up to `grace` for every child, then kill and wait for the rest.
fn reap(children: &mut [Child], grace: Duration) {
    let deadline = Instant::now() + grace;
    for child in children.iter_mut() {
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        if let Ok(None) = child.try_wait() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

fn round(dauction: &Path, seed: u64) -> Result<Round, String> {
    let mut r = Round { seed, attempted: EPOCHS_PER_ROUND, ..Round::default() };
    let spawned = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind control: {e}"))?;
    let mut config = ClusterConfig::new(M, K, N_USERS);
    config.epochs = EPOCHS_PER_ROUND;
    config.seed = seed;
    config.join_timeout = ROUND_CAP;
    let coordinator =
        Coordinator::new(listener, config).map_err(|e| format!("coordinator: {e}"))?;
    let addr = coordinator.local_addr().to_string();
    let mut children = spawn_providers(dauction, &addr)?;

    let sealed = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let runner = {
        let sealed = Arc::clone(&sealed);
        thread::spawn(move || {
            let mut seen: Vec<(Instant, ClusterEpoch)> = Vec::new();
            let report = coordinator.run(|e| {
                seen.push((Instant::now(), e.clone()));
                sealed.fetch_add(1, Ordering::Relaxed);
            });
            let _ = done_tx.send(());
            (report, seen)
        })
    };
    let mut cap_hit: Option<Instant> = None;
    let mut sampled = false;
    while let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_millis(10))
    {
        if !sampled && sealed.load(Ordering::Relaxed) >= EPOCHS_PER_ROUND / 2 {
            sampled = true;
            r.threads = sys::threads(std::process::id())
                + children.iter().map(|c| sys::threads(c.id())).sum::<u64>();
            r.provider_rss_mib =
                children.iter().map(|c| sys::peak_rss_mib(c.id()).unwrap_or(0.0)).sum();
        }
        if cap_hit.is_none() && spawned.elapsed() >= ROUND_CAP {
            cap_hit = Some(Instant::now());
            for child in children.iter_mut() {
                let _ = child.kill();
            }
        }
    }
    let joined = runner.join();
    reap(&mut children, EXIT_GRACE);
    let (report, seen) = joined.map_err(|_| "coordinator thread panicked".to_string())?;
    match report {
        Ok(report) => {
            if report.epochs.len() as u64 != EPOCHS_PER_ROUND || seen.len() != report.epochs.len() {
                r.errors.push(format!(
                    "round {seed}: {} epochs reported, {} observed, {EPOCHS_PER_ROUND} run",
                    report.epochs.len(),
                    seen.len()
                ));
            }
        }
        // Bring-up never completed within the cap: every epoch failed.
        Err(e) => eprintln!("round {seed}: coordinator gave up: {e}"),
    }
    if let (Some((first_seen, first)), Some((last_seen, _))) = (seen.first(), seen.last()) {
        let dispatched = first_seen.checked_sub(first.latency).unwrap_or(spawned);
        r.setup_s = Some(dispatched.saturating_duration_since(spawned).as_secs_f64());
        r.load_s = last_seen.saturating_duration_since(dispatched).as_secs_f64();
    }
    for (i, (at, epoch)) in seen.into_iter().enumerate() {
        if epoch.epoch != i as u64 {
            r.errors.push(format!("round {seed}: epoch {} observed at position {i}", epoch.epoch));
        }
        if epoch.reason == Some(AbortReason::Divergence) {
            r.errors.push(format!("round {seed}: epoch {} diverged", epoch.epoch));
        }
        if epoch.outcome.is_abort() != epoch.reason.is_some() {
            r.errors.push(format!("round {seed}: epoch {} abort without a reason", epoch.epoch));
        }
        r.in_time.push(cap_hit.is_none_or(|cap| at < cap));
        r.epochs.push(epoch);
    }
    Ok(r)
}

/// Replay one cleared epoch of the round as a one-shot session; the
/// outcome must be byte-identical.
fn check_replay(r: &mut Round, pick: u64) {
    let cleared: Vec<&ClusterEpoch> = r.epochs.iter().filter(|e| !e.outcome.is_abort()).collect();
    if cleared.is_empty() {
        return;
    }
    let e = cleared[(pick % cleared.len() as u64) as usize];
    let seed = epoch_seed(r.seed, e.epoch);
    let bids = generate_epoch_bids(N_USERS, M, seed);
    if bids.num_valid_users() as u64 != e.accepted {
        r.errors.push(format!(
            "epoch {}: {} bids accepted, {} generated",
            e.epoch,
            e.accepted,
            bids.num_valid_users()
        ));
    }
    let replay = run_session(
        &framework().with_session(SessionId(e.session)),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids; M],
        &RunOptions { seed, ..RunOptions::default() },
    );
    if replay.unanimous().encode_to_bytes() != e.outcome.encode_to_bytes() {
        r.errors.push(format!("epoch {} differs from its one-shot replay", e.epoch));
    }
}

/// All rounds of one phase.
#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
    cpu_s: f64,
}

impl Phase {
    fn epochs(&self) -> impl Iterator<Item = (&ClusterEpoch, bool)> {
        self.rounds.iter().flat_map(|r| r.epochs.iter().zip(r.in_time.iter().copied()))
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn cleared(&self) -> u64 {
        self.rounds.iter().map(|r| r.cleared().count() as u64).sum()
    }

    fn load_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.load_s).sum()
    }

    /// One window per round.
    fn windows(&self) -> Vec<Summary> {
        self.rounds
            .iter()
            .map(|r| {
                let cleared: Vec<&ClusterEpoch> = r.cleared().collect();
                Window {
                    secs: r.load_s.max(f64::MIN_POSITIVE),
                    // The coordinator synthesizes each epoch's bids when
                    // the epoch starts, so every bid waits exactly its
                    // epoch.
                    bid_latency: cleared
                        .iter()
                        .flat_map(|e| {
                            std::iter::repeat_n(e.latency.as_secs_f64(), e.accepted as usize)
                        })
                        .collect(),
                    epoch_latency: cleared.iter().map(|e| e.latency.as_secs_f64()).collect(),
                    cleared_bids: cleared.iter().map(|e| e.accepted).sum(),
                    epochs: r.epochs.len() as u64,
                    steal_ticks: 0,
                }
                .summary()
            })
            .collect()
    }

    fn epochs_per_s(&self) -> f64 {
        self.epochs().count() as f64 / self.load_s().max(f64::MIN_POSITIVE)
    }

    /// Latencies of the epochs cleared in time.
    fn latencies(&self) -> Vec<f64> {
        self.rounds.iter().flat_map(Round::cleared).map(|e| e.latency.as_secs_f64()).collect()
    }
}

fn run_phase(ctx: &Ctx, seconds: f64, seeds: &mut SplitMix) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let cpu_before = sys::cpu(ctx.clk_tck)?;
    let started = Instant::now();
    while phase.rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let seed = seeds.next_u64() >> 16;
        let mut r = round(&ctx.dauction, seed)?;
        check_replay(&mut r, seeds.next_u64());
        let lat: Vec<f64> = r.epochs.iter().map(|e| e.latency.as_secs_f64()).collect();
        let cleared = r.cleared().count();
        let peer_down = r.epochs.iter().filter(|e| e.reason == Some(AbortReason::PeerDown)).count();
        eprintln!(
            "round seed={seed}: setup {:.6} s, {} epochs in {:.3} s, epoch p50 {:.6} s, {cleared} cleared, {peer_down} peer-down",
            r.setup_s.unwrap_or(f64::NAN),
            r.epochs.len(),
            r.load_s,
            crate::stats::p50(&lat)
        );
        phase.rounds.push(r);
    }
    phase.cpu_s = sys::cpu(ctx.clk_tck)?.since(&cpu_before).total();
    Ok(phase)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut seeds = SplitMix::new(ctx.seed);
    let phase = run_phase(ctx, ctx.seconds, &mut seeds)?;
    for r in &phase.rounds {
        for e in &r.errors {
            report.fail(e.clone());
        }
    }
    let bids_per_epoch = N_USERS as u64;
    let cleared = phase.cleared();
    let peak = sys::peak_rss_mib(std::process::id())?
        + phase.rounds.iter().map(|r| r.provider_rss_mib).fold(0.0, f64::max);
    crate::end_to_end(
        report,
        crate::EndToEnd {
            setup_s: phase.rounds.iter().filter_map(|r| r.setup_s).collect(),
            windows: phase.windows(),
            bids: phase.attempted() * bids_per_epoch,
            cleared_bids: cleared * bids_per_epoch,
            epochs: phase.attempted(),
            cleared_epochs: cleared,
            cpu_s: phase.cpu_s,
            peak_rss_mib: peak,
        },
    );
    Ok(())
}

/// Epochs the persistent-mesh probe clears.
const PROBE_EPOCHS: u64 = 256;

/// The cluster's own first `PROBE_EPOCHS` bid vectors of round seed
/// `base`, each with its one-shot outcome.
fn probe_epochs(base: u64) -> Vec<Epoch> {
    (0..PROBE_EPOCHS).map(|e| cluster_epoch(base, e)).collect()
}

/// Epoch `e` of round seed `base` as the coordinator generates it, with
/// its one-shot outcome.
fn cluster_epoch(base: u64, e: u64) -> Epoch {
    let seed = epoch_seed(base, e);
    let bids = generate_epoch_bids(N_USERS, M, seed);
    let session = SessionId(ClusterConfig::new(M, K, N_USERS).first_session + e);
    let outcome = run_session(
        &framework().with_session(session),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids.clone(); M],
        &RunOptions { seed, ..RunOptions::default() },
    )
    .unanimous();
    Epoch { session, seed, bids, outcome }
}

/// A `WorkOrder` as the coordinator sends it for epoch 0 of round seed
/// `base`, and the `OutcomeReport` a provider answers it with.
pub fn control_messages(base: u64) -> (ControlMsg, ControlMsg) {
    let Epoch { session, seed, bids, outcome } = cluster_epoch(base, 0);
    let peers = (0..M as u32)
        .map(|id| PeerInfo { id, mesh_addr: format!("127.0.0.1:{}", 40_000 + id), incarnation: 1 })
        .collect();
    let order = ControlMsg::WorkOrder { epoch: 0, session: session.0, seed, bids, peers };
    (order, ControlMsg::OutcomeReport { epoch: 0, id: 0, outcome })
}

/// Sessions of `epochs` over a persistent loopback mesh; each must agree
/// with its one-shot outcome.
fn mesh_probe(epochs: &[Epoch], report: &mut Report) -> Result<layers::SessionProbe, String> {
    let probe = layers::session_probe(&framework(), epochs)?;
    for (i, (epoch, got)) in epochs.iter().zip(&probe.outcomes).enumerate() {
        if got.encode_to_bytes() != epoch.outcome.encode_to_bytes() {
            report.fail(format!("probe epoch {i}: persistent mesh disagrees with run_session"));
        }
    }
    Ok(probe)
}

fn peer_down_aborts<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> u64 {
    phases
        .into_iter()
        .flat_map(|p| p.epochs())
        .filter(|(e, _)| e.reason == Some(AbortReason::PeerDown))
        .count() as u64
}

/// One round of the deployed cluster, measured as a layer probe by
/// workloads that do not run the cluster themselves: its median epoch,
/// the session time of its own bid vectors over a persistent mesh, and
/// its `PeerDown` aborts.
pub fn probe(ctx: &Ctx, report: &mut Report) -> Result<crate::ClusterLayer, String> {
    let mut seeds = SplitMix::new(ctx.seed ^ 0xC1_057E);
    let seed = seeds.next_u64() >> 16;
    let mut r = round(&ctx.dauction, seed)?;
    check_replay(&mut r, seeds.next_u64());
    let phase = Phase { rounds: vec![r], cpu_s: 0.0 };
    for e in phase.rounds.iter().flat_map(|r| &r.errors) {
        report.fail(e.clone());
    }
    let session = mesh_probe(&probe_epochs(seed), report)?;
    Ok(crate::ClusterLayer {
        epoch_p50_s: crate::stats::p50(&phase.latencies()),
        session_p50_s: crate::stats::p50(&session.session_s),
        peer_down_aborts: peer_down_aborts([&phase]),
    })
}

pub fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut seeds = SplitMix::new(ctx.seed);
    // Untraced, traced, untraced: the overhead ratio compares the
    // traced phase with both neighbours, so drift cancels.
    let before = run_phase(ctx, ctx.seconds / 2.0, &mut seeds)?;
    let traced = run_phase(ctx, ctx.seconds, &mut seeds)?;
    let after = run_phase(ctx, ctx.seconds / 2.0, &mut seeds)?;
    let phases = [&before, &traced, &after];
    for r in phases.iter().flat_map(|p| &p.rounds) {
        for e in &r.errors {
            report.fail(e.clone());
        }
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted()).sum();
    let cleared: u64 = phases.iter().map(|p| p.cleared()).sum();
    report.attempted = attempted * N_USERS as u64;
    report.failed = (attempted - cleared) * N_USERS as u64;

    // The cluster's own bid vectors over a mesh that outlives them,
    // twice for the exact-count gate.
    let epochs = probe_epochs(traced.rounds[0].seed);
    let a = mesh_probe(&epochs, report)?;
    let b = mesh_probe(&epochs, report)?;
    let counts = |p: &layers::SessionProbe| (p.traffic.total_messages(), p.traffic.total_bytes());
    if counts(&a) != counts(&b) {
        report.fail(format!(
            "exact net counts differ across two same-seed probes: {:?} vs {:?}",
            counts(&a),
            counts(&b)
        ));
    }
    let n = PROBE_EPOCHS as f64;
    let layers = crate::Layers {
        submit_s: Vec::new(),
        ingress_wait_s: Vec::new(),
        collect_s: Vec::new(),
        backlog_s: a.backlog_s.clone(),
        seal_s: Vec::new(),
        session_s: a.session_s.clone(),
        skew_s: a.skew_s.clone(),
        fsyncs_per_epoch: 0.0,
        journal_bytes_per_epoch: 0.0,
        fsync_mean_s: None,
        fsync_max_s: None,
        net_msgs_per_epoch: a.traffic.total_messages() as f64 / n,
        net_bytes_per_epoch: a.traffic.total_bytes() as f64 / n,
        net_dropped: a.traffic.total_dropped() + b.traffic.total_dropped(),
        io_threads: a.traffic.io_threads,
        replay_epochs: [epochs.clone(), epochs],
        framework: framework(),
        cluster: Some(crate::ClusterLayer {
            epoch_p50_s: crate::stats::p50(&traced.latencies()),
            session_p50_s: crate::stats::p50(&a.session_s),
            peer_down_aborts: peer_down_aborts(phases),
        }),
        threads: traced.rounds.iter().map(|r| r.threads).max().unwrap_or(0),
        overhead_ratio: crate::stats::overhead_ratio(
            (before.epochs_per_s() + after.epochs_per_s()) / 2.0,
            traced.epochs_per_s(),
            true,
        ),
        unattributed_share: None,
        gen_lag_s: None,
    };
    crate::per_layer(ctx, report, layers)
}
