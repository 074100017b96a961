//! The in-process deployment shape: one `MarketService` fed by one
//! submitting thread of this process, outcomes read off its
//! subscription.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dauctioneer::core::{
    run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions, TransportKind,
};
use dauctioneer::market::{
    verify_log, Backpressure, EpochOutcome, EpochPolicy, FsyncPolicy, JournalConfig, MarketConfig,
    MarketService, MarketStats, TelemetryConfig,
};
use dauctioneer::net::TrafficSnapshot;
use dauctioneer::telemetry::EpochTrace;
use dauctioneer::types::{Encode, UserBid, UserId};
use dauctioneer::workload::epoch_supply;

use crate::gen::{BidStream, SplitMix};
use crate::layers::Epoch;
use crate::stats::{self, median_over, window_index, Attributor, EpochOrder, Summary, Window};
use crate::sys;
use crate::Ctx;

pub const M: usize = 3;
pub const K: usize = 1;

/// Sampled epochs per run that are replayed as one-shot sessions.
const REPLAY_SAMPLES: usize = 4;

/// Load each market of an end-to-end run carries.
const MARKET_S: f64 = 2.0;

/// Share of the machine's CPU time the hypervisor may steal during a
/// window before the window is left out of the medians. Stolen time is
/// measured machine-wide (`/proc/stat`); on a shared host it comes in
/// bursts that halve a CPU-bound market's throughput.
const STEAL_LIMIT: f64 = 0.02;

/// How long, as a multiple of `--seconds`, an end-to-end run may go on
/// loading fresh markets to replace windows lost to stolen CPU.
const STEAL_EXTENSION: f64 = 1.5;

/// Load before the first window of a market: the pipeline fills and the
/// mesh warms up.
const WARMUP_S: f64 = 0.5;

/// Submission records handed to the outcome reader at once.
const SENT_BATCH: usize = 256;

/// Retained traces in a traced run: every epoch of a 20 s open-loop
/// load, the last ~19 s of a saturated one.
const TRACE_RING: usize = 16_384;

/// One serve workload.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub transport: TransportKind,
    pub n_users: usize,
    /// Accepted bids that close an epoch.
    pub epoch_bids: usize,
    pub epoch: EpochPolicy,
    /// Journal with `fsync=always`.
    pub durable: bool,
    /// Open-loop Poisson rate in bids/s; `None` is a closed loop.
    pub open_rate: Option<f64>,
    /// Width of the load windows whose medians the timings and rates
    /// are: long enough for a tail percentile of epochs, short enough
    /// for many windows per run.
    pub window_s: f64,
}

/// Deployed durable market, independent bidders: TCP mux mesh, journal
/// with fsync=always, Hybrid close at 16 bids with a staleness bound far
/// above the fill time, open-loop Poisson load at about a quarter of
/// this shape's closed-loop saturation.
pub fn durable_open(rate: f64) -> ServeWorkload {
    ServeWorkload {
        name: "serve-durable-open",
        transport: TransportKind::Tcp,
        n_users: 64,
        epoch_bids: 16,
        epoch: EpochPolicy::Hybrid { count: 16, max_wait: Duration::from_millis(500) },
        durable: true,
        open_rate: Some(rate),
        // ~310 epochs per window: each window's tail is its p95.
        window_s: 2.0,
    }
}

/// Protocol-bound market: in-process hub, no journal, 128-bid epochs,
/// closed loop submitting as fast as the market accepts.
pub fn saturate() -> ServeWorkload {
    ServeWorkload {
        name: "serve-saturate",
        transport: TransportKind::InProc,
        n_users: 256,
        epoch_bids: 128,
        epoch: EpochPolicy::ByCount(128),
        durable: false,
        open_rate: None,
        // ~400 epochs and ~50k bids per window.
        window_s: 0.5,
    }
}

impl ServeWorkload {
    fn framework(&self) -> FrameworkConfig {
        FrameworkConfig::new(M, K, self.n_users, M)
    }

    fn start(
        &self,
        seed: u64,
        journal: Option<&Path>,
        telemetry: TelemetryConfig,
    ) -> Result<MarketService, String> {
        let mut config = MarketConfig::new(M, K, self.n_users, M)
            .with_asks(epoch_supply(M, self.epoch_bids as f64))
            .with_epoch(self.epoch)
            .with_transport(self.transport, 1)
            .with_telemetry(telemetry);
        config.backpressure = Backpressure::Block;
        config.seed = seed;
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
            config.journal = Some(JournalConfig::new(path).with_fsync(FsyncPolicy::Always));
        }
        MarketService::start(config, Arc::new(DoubleAuctionProgram::new()))
            .map_err(|e| format!("market start: {e}"))
    }

    fn journal_path(&self, dir: &Path, tag: &str) -> Option<PathBuf> {
        self.durable.then(|| dir.join(format!("{}-{tag}.wal", self.name)))
    }
}

/// One submission as the generator made it.
struct Sent {
    /// Scheduled send time (open loop) or submit call (closed loop).
    at: Instant,
    user: UserId,
    bid: UserBid,
}

/// What one load phase against one market measured.
#[derive(Default)]
struct Load {
    submitted: u64,
    cleared_bids: u64,
    epochs: u64,
    cleared_epochs: u64,
    /// End of the warm-up to the last outcome, seconds.
    load_s: f64,
    windows: Vec<Summary>,
    /// Latency of each epoch's opening bid, by epoch.
    opening_latency: Vec<(u64, f64)>,
    gen_lag: Vec<f64>,
    submit_s: Vec<f64>,
    samples: Vec<Epoch>,
    stats: Option<MarketStats>,
    traffic: TrafficSnapshot,
    traces: Vec<EpochTrace>,
    cpu_s: f64,
    threads: u64,
    errors: Vec<String>,
}

impl Load {
    /// Headline of the closed loop: median over undisturbed windows of
    /// cleared bids/s.
    fn cleared_per_s(&self) -> f64 {
        median_over(&stats::undisturbed(&self.windows), |w| Some(w.cleared_bids as f64 / w.secs))
            .unwrap_or(0.0)
    }

    /// Headline of the open loop: median over undisturbed windows of the
    /// bid p50.
    fn bid_p50(&self) -> f64 {
        median_over(&stats::undisturbed(&self.windows), |w| w.bid_p50.map(|q| q.value))
            .unwrap_or(0.0)
    }
}

/// Everything the outcome reader learned.
#[derive(Default)]
struct Consumed {
    cleared_bids: u64,
    epochs: u64,
    cleared_epochs: u64,
    attributed: u64,
    unanswered: u64,
    last_receipt: Option<Instant>,
    windows: Vec<Window>,
    opening_latency: Vec<(u64, f64)>,
    samples: Vec<Epoch>,
    errors: Vec<String>,
}

/// Read every outcome, attribute bids to epochs in FIFO order, check
/// each epoch, and time each cleared bid from its send to the outcome.
fn consume(
    mut next_outcome: impl FnMut() -> Option<EpochOutcome>,
    sent: &mpsc::Receiver<Vec<Sent>>,
    measured_from: Instant,
    window_s: f64,
    n_windows: usize,
    sample_seed: u64,
) -> Consumed {
    let mut c = Consumed { windows: vec![Window::default(); n_windows], ..Consumed::default() };
    let mut order = EpochOrder::new(0);
    let mut attributor = Attributor::default();
    let mut rng = SplitMix::new(sample_seed);
    while let Some(outcome) = next_outcome() {
        let receipt = Instant::now();
        c.last_receipt = Some(receipt);
        for (_, epoch) in order.push(outcome.epoch, outcome) {
            while attributor.pending() < epoch.accepted_bids {
                match sent.recv() {
                    Ok(batch) => batch.into_iter().for_each(|s| attributor.submitted(s)),
                    Err(_) => break,
                }
            }
            let bids = match attributor.close_epoch(epoch.accepted_bids) {
                Ok(bids) => bids,
                Err(e) => {
                    c.errors.push(format!("epoch {}: {e}", epoch.epoch));
                    continue;
                }
            };
            c.attributed += bids.len() as u64;
            c.epochs += 1;
            // Outcomes of the warm-up (before `measured_from`) are checked
            // and counted but stay out of the windows.
            let mut window = receipt.checked_duration_since(measured_from).map(|offset| {
                &mut c.windows[window_index(offset.as_secs_f64(), window_s, n_windows)]
            });
            if let Some(window) = window.as_deref_mut() {
                window.epochs += 1;
            }
            if epoch.outcomes.len() != M || epoch.outcomes.iter().any(|o| *o != epoch.outcome) {
                c.errors.push(format!("epoch {}: provider columns not unanimous", epoch.epoch));
            }
            if epoch.bids.num_valid_users() != epoch.accepted_bids {
                c.errors.push(format!(
                    "epoch {}: {} bids in the vector, {} accepted",
                    epoch.epoch,
                    epoch.bids.num_valid_users(),
                    epoch.accepted_bids
                ));
            }
            if let Some(s) =
                bids.iter().find(|s| epoch.bids.user_bid(s.user).as_bid() != Some(&s.bid))
            {
                c.errors.push(format!(
                    "epoch {}: bid of user {} is not the one submitted",
                    epoch.epoch, s.user.0
                ));
            }
            if !epoch.outcome.is_abort() {
                c.cleared_epochs += 1;
                c.cleared_bids += bids.len() as u64;
                if let Some(window) = window {
                    window.cleared_bids += bids.len() as u64;
                    window.epoch_latency.push(epoch.latency.as_secs_f64());
                    for s in &bids {
                        let latency = receipt.saturating_duration_since(s.at).as_secs_f64();
                        window.bid_latency.push(latency);
                    }
                }
                if let Some(first) = bids.first() {
                    let opening = receipt.saturating_duration_since(first.at).as_secs_f64();
                    c.opening_latency.push((epoch.epoch, opening));
                }
            }
            // Reservoir sample of epochs to replay.
            let record = || Epoch {
                session: epoch.session,
                seed: epoch.seed,
                bids: epoch.bids.clone(),
                outcome: epoch.outcome.clone(),
            };
            if c.samples.len() < REPLAY_SAMPLES {
                c.samples.push(record());
            } else {
                let slot = (rng.next_u64() % c.epochs) as usize;
                if slot < REPLAY_SAMPLES {
                    c.samples[slot] = record();
                }
            }
        }
    }
    if order.held() > 0 {
        c.errors.push(format!("{} epochs published after a missing epoch", order.held()));
    }
    c.unanswered =
        attributor.pending() as u64 + sent.try_iter().map(|b| b.len() as u64).sum::<u64>();
    c
}

/// Sleep until `due`; the scheduler's lateness is measured, not hidden.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// Drive one market for `WARMUP_S` plus `seconds` and shut it down
/// (drain included). Only outcomes after the warm-up enter the windows.
fn run_load(
    w: &ServeWorkload,
    mut market: MarketService,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
) -> Load {
    let mut load = Load::default();
    let watch = market.watch();
    let traffic_before = watch.traffic();
    let outcomes = market.take_outcomes().expect("first subscription");
    let handle = market.handle();
    let (sent_tx, sent_rx) = mpsc::channel::<Vec<Sent>>();
    let n_windows = ((seconds / w.window_s).round() as usize).max(1);
    let window_s = w.window_s;
    let start = Instant::now();
    let measured_from = start + Duration::from_secs_f64(WARMUP_S);
    let reader = thread::spawn(move || {
        consume(|| outcomes.recv().ok(), &sent_rx, measured_from, window_s, n_windows, 0x5EED)
    });
    // Machine-wide steal at each window boundary.
    let steal = thread::spawn(move || {
        (0..=n_windows)
            .map(|i| {
                wait_until(measured_from + Duration::from_secs_f64(window_s * i as f64));
                sys::steal_ticks()
            })
            .collect::<Vec<u64>>()
    });
    // Submissions reach the reader in batches, which keeps the
    // benchmark's own cost per bid small. The reader only needs the
    // records of closed epochs: a full ingress queue holds more bids than
    // a batch, and an idle open loop hands its batch over first, so the
    // reader never waits on a record still being batched.
    let mut batch = Vec::with_capacity(SENT_BATCH);
    let mut stream = BidStream::new(ctx.seed, w.n_users, w.epoch_bids);
    let mut gaps = SplitMix::new(ctx.seed ^ 0xA5A5_A5A5);
    let cpu_before = sys::cpu(ctx.clk_tck).unwrap_or_default();
    let end = measured_from + Duration::from_secs_f64(seconds);
    let half = measured_from + Duration::from_secs_f64(seconds / 2.0);
    let mut due = start;
    loop {
        let (user, bid) = stream.next_bid();
        let at = match w.open_rate {
            Some(rate) => {
                due += Duration::from_secs_f64(gaps.exp_gap(rate));
                // A generator that fell behind its schedule still stops
                // on time; its lateness is what `gen_lag` records.
                if due >= end || Instant::now() >= end {
                    break;
                }
                // Hand over what is batched before idling: the reader may
                // be waiting for exactly these records.
                if !batch.is_empty() && due > Instant::now() {
                    let _ = sent_tx.send(std::mem::take(&mut batch));
                }
                wait_until(due);
                load.gen_lag.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                due
            }
            None => {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                now
            }
        };
        let called = Instant::now();
        if let Err(e) = handle.submit_bid(user, bid) {
            load.errors.push(format!("submit refused: {e:?}"));
            break;
        }
        if traced {
            load.submit_s.push(called.elapsed().as_secs_f64());
        }
        load.submitted += 1;
        if load.threads == 0 && called >= half {
            load.threads = sys::threads(std::process::id());
        }
        batch.push(Sent { at, user, bid });
        if batch.len() == SENT_BATCH {
            let _ = sent_tx.send(std::mem::replace(&mut batch, Vec::with_capacity(SENT_BATCH)));
        }
    }
    let _ = sent_tx.send(batch);
    drop(sent_tx);
    drop(handle);
    let stats = market.shutdown();
    let consumed = reader.join().unwrap_or_else(|_| Consumed {
        errors: vec!["outcome reader panicked".into()],
        ..Consumed::default()
    });
    load.cpu_s = sys::cpu(ctx.clk_tck).unwrap_or_default().since(&cpu_before).total();
    let traffic = watch.traffic();
    load.traffic = delta(&traffic_before, &traffic);
    if traced {
        load.traces = watch.recent_traces();
    }

    // Every submission is accounted for by the market and by the epochs.
    let rejected =
        stats.bids_rejected_invalid + stats.bids_rejected_duplicate + stats.bids_rejected_unknown;
    if load.submitted != stats.bids_accepted + stats.bids_shed + rejected {
        load.errors.push(format!(
            "submitted {} != accepted {} + shed {} + rejected {rejected}",
            load.submitted, stats.bids_accepted, stats.bids_shed
        ));
    }
    if consumed.attributed != stats.bids_accepted || consumed.unanswered != 0 {
        load.errors.push(format!(
            "{} accepted bids, {} found in epochs, {} unanswered",
            stats.bids_accepted, consumed.attributed, consumed.unanswered
        ));
    }
    if consumed.epochs != stats.epochs_closed {
        load.errors
            .push(format!("{} epochs closed, {} published", stats.epochs_closed, consumed.epochs));
    }
    if load.traffic.total_dropped() != 0 {
        load.errors.push(format!("{} messages dropped", load.traffic.total_dropped()));
    }
    load.load_s = consumed
        .last_receipt
        .map_or(0.0, |t| t.saturating_duration_since(measured_from).as_secs_f64());
    let spans = stats::windows(n_windows, w.window_s, load.load_s);
    let steal = steal.join().unwrap_or_default();
    load.windows = consumed
        .windows
        .into_iter()
        .zip(spans)
        .enumerate()
        .map(|(i, (w, span))| {
            let stolen = match (steal.get(i), steal.get(i + 1)) {
                (Some(a), Some(b)) => b.saturating_sub(*a),
                _ => 0,
            };
            let mut summary = Window { secs: span.secs, steal_ticks: stolen, ..w }.summary();
            summary.disturbed = stolen as f64 > STEAL_LIMIT * span.secs * ctx.nproc * ctx.clk_tck;
            summary
        })
        .collect();
    load.cleared_bids = consumed.cleared_bids;
    load.epochs = consumed.epochs;
    load.cleared_epochs = consumed.cleared_epochs;
    load.opening_latency = consumed.opening_latency;
    load.samples = consumed.samples;
    load.errors.extend(consumed.errors);
    load.stats = Some(stats);
    load
}

fn delta(before: &TrafficSnapshot, after: &TrafficSnapshot) -> TrafficSnapshot {
    let mut d = after.clone();
    for (p, b) in d.per_provider.iter_mut().zip(&before.per_provider) {
        p.sent_messages -= b.sent_messages;
        p.sent_bytes -= b.sent_bytes;
        p.received_messages -= b.received_messages;
        p.received_bytes -= b.received_bytes;
        p.dropped_messages -= b.dropped_messages;
        p.dropped_bytes -= b.dropped_bytes;
    }
    d
}

/// Replay sampled epochs as one-shot `run_session`s with their seed and
/// bids; the outcome must be byte-identical.
fn check_replays(cfg: &FrameworkConfig, samples: &[Epoch], errors: &mut Vec<String>) {
    for epoch in samples {
        let report = run_session(
            &cfg.clone().with_session(epoch.session),
            Arc::new(DoubleAuctionProgram::new()),
            vec![epoch.bids.clone(); cfg.m],
            &RunOptions { seed: epoch.seed, ..RunOptions::default() },
        );
        if report.unanimous().encode_to_bytes() != epoch.outcome.encode_to_bytes() {
            errors.push(format!("session {} differs from its one-shot replay", epoch.session.0));
        }
    }
}

/// The journal must verify, with one seal per closed epoch.
fn check_journal(path: &Path, stats: &MarketStats, errors: &mut Vec<String>) {
    match verify_log(path) {
        Ok(summary) => {
            if summary.seals != stats.epochs_closed || summary.accepted != stats.bids_accepted {
                errors.push(format!(
                    "journal holds {} seals and {} bids for {} epochs and {} bids",
                    summary.seals, summary.accepted, stats.epochs_closed, stats.bids_accepted
                ));
            }
        }
        Err(e) => errors.push(format!("verify_log: {e}")),
    }
}

/// Cold starts measured per run on top of one per market; the median
/// of all is `setup_s`.
const EXTRA_SETUPS: usize = 15;

/// The end-to-end run: one fresh market per `MARKET_S` of the run, each
/// loaded in turn, their windows pooled; windows with stolen CPU above
/// `STEAL_LIMIT` are replaced by further markets while time allows. Within one market the epoch
/// latency settles on one of a few levels for the market's whole life
/// (thread placement on the CPUs); a market per window samples those
/// levels, so a run's medians do not rest on a single draw.
pub fn run(w: &ServeWorkload, ctx: &Ctx, report: &mut crate::report::Report) -> Result<(), String> {
    let segments = ((ctx.seconds / MARKET_S).round() as usize).max(1);
    let wanted = ((ctx.seconds / w.window_s).round() as usize).max(1);
    let give_up = Instant::now() + Duration::from_secs_f64(STEAL_EXTENSION * ctx.seconds);
    let mut setups = Vec::with_capacity(segments + EXTRA_SETUPS);
    for i in 0..EXTRA_SETUPS {
        let journal = w.journal_path(&ctx.dir, &format!("setup{i}"));
        let t = Instant::now();
        let market = w.start(ctx.seed, journal.as_deref(), TelemetryConfig::disabled())?;
        setups.push(t.elapsed().as_secs_f64());
        market.shutdown();
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
        }
    }
    let mut total = crate::EndToEnd { setup_s: Vec::new(), ..crate::EndToEnd::default() };
    // The nominal markets, then more while stolen CPU left fewer clean
    // windows than the run asks for, up to `STEAL_EXTENSION` times the
    // run.
    let mut segment = 0;
    while segment < segments
        || (total.windows.iter().filter(|w| !w.disturbed).count() < wanted
            && Instant::now() < give_up)
    {
        let seed = ctx.seed.wrapping_add(segment as u64 * 0x9E37_79B9);
        let ctx = Ctx { seed, ..ctx.clone() };
        let journal = w.journal_path(&ctx.dir, &format!("load{segment}"));
        let t = Instant::now();
        let market = w.start(seed, journal.as_deref(), TelemetryConfig::disabled())?;
        setups.push(t.elapsed().as_secs_f64());
        let mut load = run_load(w, market, &ctx, MARKET_S, false);
        check_replays(&w.framework(), &load.samples, &mut load.errors);
        if let (Some(path), Some(stats)) = (&journal, &load.stats) {
            check_journal(path, stats, &mut load.errors);
        }
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
        }
        for e in load.errors.drain(..) {
            report.fail(e);
        }
        total.windows.extend(load.windows);
        segment += 1;
        total.bids += load.submitted;
        total.cleared_bids += load.cleared_bids;
        total.epochs += load.epochs;
        total.cleared_epochs += load.cleared_epochs;
        total.cpu_s += load.cpu_s;
    }
    total.setup_s = setups;
    total.peak_rss_mib = sys::peak_rss_mib(std::process::id())?;
    crate::end_to_end(report, total);
    Ok(())
}

/// Epochs the exact-count probe closes.
const COUNT_EPOCHS: usize = 24;

/// Deterministic per-epoch counts of the first `COUNT_EPOCHS` epochs of
/// the seed's bid stream, submitted closed-loop into a fresh market.
#[derive(Debug, PartialEq)]
struct Counts {
    net_msgs: u64,
    net_bytes: u64,
    fsyncs: u64,
    journal_bytes: u64,
    epochs: Vec<Epoch>,
}

fn count_probe(w: &ServeWorkload, ctx: &Ctx, tag: &str) -> Result<Counts, String> {
    let journal = w.journal_path(&ctx.dir, tag);
    let mut market = w.start(ctx.seed, journal.as_deref(), TelemetryConfig::disabled())?;
    let outcomes = market.take_outcomes().expect("first subscription");
    let handle = market.handle();
    let (stats0, traffic0) = (market.stats(), market.traffic());
    let mut stream = BidStream::new(ctx.seed, w.n_users, w.epoch_bids);
    for _ in 0..COUNT_EPOCHS * w.epoch_bids {
        let (user, bid) = stream.next_bid();
        handle.submit_bid(user, bid).map_err(|e| format!("count probe submit: {e:?}"))?;
    }
    let mut epochs = Vec::with_capacity(COUNT_EPOCHS);
    let mut order = EpochOrder::new(0);
    while epochs.len() < COUNT_EPOCHS {
        let outcome = outcomes
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "count probe: epoch never published".to_string())?;
        for (_, e) in order.push(outcome.epoch, outcome) {
            epochs.push(Epoch {
                session: e.session,
                seed: e.seed,
                bids: e.bids,
                outcome: e.outcome,
            });
        }
    }
    let (stats1, traffic1) = (market.stats(), market.traffic());
    drop(handle);
    market.shutdown();
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }
    let n = COUNT_EPOCHS as u64;
    let traffic = delta(&traffic0, &traffic1);
    Ok(Counts {
        net_msgs: traffic.total_messages(),
        net_bytes: traffic.total_bytes(),
        fsyncs: stats1.journal_fsyncs - stats0.journal_fsyncs,
        journal_bytes: stats1.journal_bytes - stats0.journal_bytes,
        epochs: {
            debug_assert_eq!(epochs.len() as u64, n);
            epochs
        },
    })
}

/// The traced run: an untraced and a traced half for the overhead ratio,
/// the span tree of every traced epoch, and the exact-count and replay
/// probes.
pub fn run_traced(
    w: &ServeWorkload,
    ctx: &Ctx,
    report: &mut crate::report::Report,
) -> Result<(), String> {
    // Untraced, traced, untraced: the overhead ratio compares the
    // traced load with both neighbours, so warm-up and drift cancel.
    let untraced = |tag: &str| -> Result<Load, String> {
        let journal = w.journal_path(&ctx.dir, tag);
        let market = w.start(ctx.seed, journal.as_deref(), TelemetryConfig::disabled())?;
        Ok(run_load(w, market, ctx, ctx.seconds / 2.0, false))
    };
    let before = untraced("before")?;
    let journal = w.journal_path(&ctx.dir, "traced");
    let telemetry = TelemetryConfig { trace_capacity: TRACE_RING, ..TelemetryConfig::default() };
    let market = w.start(ctx.seed, journal.as_deref(), telemetry)?;
    let mut traced = run_load(w, market, ctx, ctx.seconds, true);
    let after = untraced("after")?;
    check_replays(&w.framework(), &traced.samples, &mut traced.errors);
    if let (Some(path), Some(stats)) = (&journal, &traced.stats) {
        check_journal(path, stats, &mut traced.errors);
    }
    let loads = [&before, &traced, &after];
    for e in loads.iter().flat_map(|l| &l.errors) {
        report.fail(e.clone());
    }
    report.attempted = loads.iter().map(|l| l.submitted).sum();
    report.failed = report.attempted - loads.iter().map(|l| l.cleared_bids).sum::<u64>();

    // The overhead headline: latency for the open loop (its throughput
    // is the offered rate), throughput for the closed loop.
    let overhead = match w.open_rate {
        Some(_) => stats::overhead_ratio(
            (before.bid_p50() + after.bid_p50()) / 2.0,
            traced.bid_p50(),
            false,
        ),
        None => stats::overhead_ratio(
            (before.cleared_per_s() + after.cleared_per_s()) / 2.0,
            traced.cleared_per_s(),
            true,
        ),
    };

    let spans = SpanTable::of(&traced.traces);
    let opening: std::collections::HashMap<u64, f64> =
        traced.opening_latency.iter().copied().collect();
    let shares: Vec<f64> = spans
        .rows
        .iter()
        .filter_map(|r| {
            opening.get(&r.epoch).map(|&lat| {
                stats::unattributed_share(lat, &[r.ingress, r.collect, r.dispatch, r.seal])
            })
        })
        .collect();
    if shares.is_empty() {
        report.fail("traced run recorded no spans");
    }

    let a = count_probe(w, ctx, "count-a")?;
    let b = count_probe(w, ctx, "count-b")?;
    if a != b {
        report.fail(format!(
            "exact counts differ across two same-seed runs: net {}/{} vs {}/{}, journal {}/{} vs {}/{}",
            a.net_msgs, a.net_bytes, b.net_msgs, b.net_bytes, a.fsyncs, a.journal_bytes, b.fsyncs,
            b.journal_bytes
        ));
    }
    let n = a.epochs.len() as f64;
    let stats = traced.stats.as_ref().expect("shutdown stats");
    let layers = crate::Layers {
        submit_s: traced.submit_s,
        ingress_wait_s: spans.rows.iter().map(|r| r.ingress).collect(),
        collect_s: spans.rows.iter().map(|r| r.collect).collect(),
        backlog_s: spans.rows.iter().map(|r| r.dispatch - r.session_max).collect(),
        seal_s: spans.rows.iter().map(|r| r.seal).collect(),
        session_s: spans.rows.iter().map(|r| r.session_max).collect(),
        skew_s: spans.rows.iter().map(|r| r.session_max - r.session_min).collect(),
        fsyncs_per_epoch: a.fsyncs as f64 / n,
        journal_bytes_per_epoch: a.journal_bytes as f64 / n,
        fsync_mean_s: w.durable.then_some(stats.journal_fsync_mean.as_secs_f64()),
        fsync_max_s: w.durable.then_some(stats.journal_fsync_max.as_secs_f64()),
        net_msgs_per_epoch: a.net_msgs as f64 / n,
        net_bytes_per_epoch: a.net_bytes as f64 / n,
        net_dropped: traced.traffic.total_dropped(),
        io_threads: traced.traffic.io_threads,
        replay_epochs: [a.epochs, b.epochs],
        framework: w.framework(),
        cluster: None,
        threads: traced.threads,
        overhead_ratio: overhead,
        unattributed_share: Some(stats::p50(&shares)),
        gen_lag_s: w.open_rate.map(|_| traced.gen_lag),
    };
    crate::per_layer(ctx, report, layers)
}

/// The spans of each traced epoch, flattened.
struct SpanRow {
    epoch: u64,
    ingress: f64,
    collect: f64,
    dispatch: f64,
    seal: f64,
    session_max: f64,
    session_min: f64,
}

struct SpanTable {
    rows: Vec<SpanRow>,
}

impl SpanTable {
    fn of(traces: &[EpochTrace]) -> SpanTable {
        let rows = traces
            .iter()
            .filter_map(|t| {
                let span = |name: &str| {
                    t.spans.iter().find(|s| s.name == name).map(|s| s.duration.as_secs_f64())
                };
                let sessions: Vec<f64> = t
                    .spans
                    .iter()
                    .filter(|s| s.name.starts_with("session["))
                    .map(|s| s.duration.as_secs_f64())
                    .collect();
                Some(SpanRow {
                    epoch: t.epoch,
                    ingress: span("ingress")?,
                    collect: span("collect")?,
                    dispatch: span("dispatch")?,
                    seal: span("seal")?,
                    session_max: sessions.iter().copied().reduce(f64::max)?,
                    session_min: sessions.iter().copied().reduce(f64::min)?,
                })
            })
            .collect();
        SpanTable { rows }
    }
}
