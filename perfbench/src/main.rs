//! The repository benchmark: three workloads over both deployment
//! shapes of the market, end-to-end metrics with tracing off, and a
//! traced run that times each layer through its public functions.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --dauction PATH
//!           [--clk-tck HZ] [--source ID] [--work-dir DIR]
//! ```
//!
//! Workloads: `serve-durable-open`, `serve-saturate`, `cluster-closed`.
//! Every metric is printed by name with its unit; the last line of
//! standard output is the JSON result. Failed correctness checks print
//! `CHECK FAILED` lines and set `"correct": false`. See `NOTES.md` for
//! what each metric means and which layer should move it.

mod cluster;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use dauctioneer::core::FrameworkConfig;

use crate::layers::{BlockTally, Epoch, BLOCKS};
use crate::report::Report;
use crate::stats::{median_over, p50, percentile, tail, Quantile, Summary};

/// Open-loop rate of `serve-durable-open`, bids/s: about a quarter of
/// the closed-loop saturation of that market shape on the reference
/// 2-CPU machine (see NOTES.md).
const DURABLE_OPEN_RATE: f64 = 2500.0;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub dauction: PathBuf,
    pub clk_tck: f64,
    /// CPUs available to this process.
    pub nproc: f64,
    pub dir: PathBuf,
}

struct Args {
    workload: String,
    trace: bool,
    source: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dauction = None;
    let mut clk_tck = 100.0;
    let mut source = "unknown".to_string();
    let mut dir = PathBuf::from(".perfbench_work");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--dauction" => dauction = Some(PathBuf::from(value)),
            "--clk-tck" => clk_tck = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--source" => source = value.clone(),
            "--work-dir" => dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected (0, 60]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace: trace.ok_or("--trace is required")?,
        source,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            dauction: dauction.ok_or("--dauction is required")?,
            clk_tck,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
            dir,
        },
    })
}

/// What an untraced run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub windows: Vec<Summary>,
    pub bids: u64,
    pub cleared_bids: u64,
    pub epochs: u64,
    pub cleared_epochs: u64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

/// A timing as the median over windows of each window's p50 and of its
/// tail percentile (the highest with at least ten samples beyond it).
fn timing(
    report: &mut Report,
    base: &str,
    windows: &[Summary],
    dropped: usize,
    read: fn(&Summary) -> (Option<Quantile>, Option<Quantile>),
) {
    let counts: Vec<f64> = windows.iter().filter_map(|w| read(w).0.map(|q| q.n as f64)).collect();
    let qs: Vec<f64> = windows.iter().filter_map(|w| read(w).1.map(|q| q.q)).collect();
    let how = |q: &str| {
        format!(
            "median over {} windows ({dropped} more left out for stolen CPU) of each window's \
             {q}; ~{:.0} samples per window",
            windows.len(),
            p50(&counts)
        )
    };
    let median = median_over(windows, |w| read(w).0.map(|q| q.value));
    let tail_q = p50(&qs);
    let tail = median_over(windows, |w| read(w).1.map(|q| q.value));
    match (median, tail) {
        (Some(m), Some(t)) => {
            report.metric(&format!("{base}_p50_s"), m, "s", how("p50"));
            report.metric(&format!("{base}_p99_s"), t, "s", how(&format!("p{tail_q}")));
        }
        _ => {
            report.fail(format!("no {base} samples"));
            report.metric(&format!("{base}_p50_s"), 0.0, "s", "no samples");
            report.metric(&format!("{base}_p99_s"), 0.0, "s", "no samples");
        }
    }
}

/// Emit the end-to-end metrics.
pub fn end_to_end(report: &mut Report, e: EndToEnd) {
    report.attempted = e.bids;
    report.failed = e.bids - e.cleared_bids;
    let setups = e.setup_s.len();
    report.metric("setup_s", p50(&e.setup_s), "s", format!("median of {setups} set-ups"));
    let windows = stats::undisturbed(&e.windows);
    let dropped = e.windows.len() - windows.len();
    timing(report, "bid_latency", &windows, dropped, |w| (w.bid_p50, w.bid_tail));
    timing(report, "epoch_latency", &windows, dropped, |w| (w.epoch_p50, w.epoch_tail));
    let n = windows.len();
    let detail: Vec<String> = e
        .windows
        .iter()
        .map(|w| {
            let v = |q: Option<Quantile>| q.map_or(0.0, |q| q.value);
            format!(
                "[{}, {}, {}, {}, {}, {}, {}]",
                w.cleared_bids as f64 / w.secs,
                w.epochs as f64 / w.secs,
                v(w.bid_p50),
                v(w.bid_tail),
                v(w.epoch_p50),
                v(w.epoch_tail),
                w.steal_ticks
            )
        })
        .collect();
    // Per window: cleared bids/s, epochs/s, bid p50, bid tail, epoch p50,
    // epoch tail, stolen ticks.
    eprintln!("windows: [{}]", detail.join(", "));
    let rate = |f: fn(&Summary) -> u64| {
        median_over(&windows, |w| Some(f(w) as f64 / w.secs)).unwrap_or(0.0)
    };
    report.metric(
        "cleared_bids_per_s",
        rate(|w| w.cleared_bids),
        "1/s",
        format!("median over {n} windows; {} bids in cleared epochs in all", e.cleared_bids),
    );
    report.metric(
        "epochs_per_s",
        rate(|w| w.epochs),
        "1/s",
        format!("median over {n} windows; {} epochs in all", e.epochs),
    );
    report.metric(
        "bid_clear_ratio",
        e.cleared_bids as f64 / e.bids.max(1) as f64,
        "ratio",
        format!("{} of {} submitted bids in a cleared epoch", e.cleared_bids, e.bids),
    );
    report.metric(
        "epoch_clear_ratio",
        e.cleared_epochs as f64 / e.epochs.max(1) as f64,
        "ratio",
        format!("{} of {} epochs cleared and sealed in time", e.cleared_epochs, e.epochs),
    );
    report.metric(
        "cpu_ms_per_epoch",
        e.cpu_s * 1e3 / e.epochs.max(1) as f64,
        "ms",
        format!("{:.3} CPU-s user+sys over {} epochs", e.cpu_s, e.epochs),
    );
    report.metric("peak_rss_mib", e.peak_rss_mib, "MiB", "VmHWM");
    if e.epochs == 0 || e.cleared_bids == 0 {
        report.fail("nothing cleared");
    }
}

/// The deployed cluster's median epoch, to be split into control round
/// trip, mesh bring-up, session and what is left, and its aborts.
pub struct ClusterLayer {
    pub epoch_p50_s: f64,
    /// Session time of the cluster's own bid vectors over a persistent
    /// loopback mesh.
    pub session_p50_s: f64,
    pub peer_down_aborts: u64,
}

/// What a traced run measured, before it becomes metrics. Empty
/// samples and `None` mark a layer that is not on the workload's path;
/// it is reported as 0 and says so.
pub struct Layers {
    pub submit_s: Vec<f64>,
    pub ingress_wait_s: Vec<f64>,
    pub collect_s: Vec<f64>,
    pub backlog_s: Vec<f64>,
    pub seal_s: Vec<f64>,
    pub session_s: Vec<f64>,
    pub skew_s: Vec<f64>,
    pub fsyncs_per_epoch: f64,
    pub journal_bytes_per_epoch: f64,
    pub fsync_mean_s: Option<f64>,
    pub fsync_max_s: Option<f64>,
    pub net_msgs_per_epoch: f64,
    pub net_bytes_per_epoch: f64,
    pub net_dropped: u64,
    pub io_threads: u64,
    /// The same epochs recorded by two same-seed runs; replayed through
    /// the blocks, their counts must agree exactly.
    pub replay_epochs: [Vec<Epoch>; 2],
    pub framework: FrameworkConfig,
    /// The cluster layer as this workload measured it; `None` runs the
    /// cluster probe.
    pub cluster: Option<ClusterLayer>,
    pub threads: u64,
    pub overhead_ratio: f64,
    /// Median share of the opening bid's latency the market's spans do
    /// not cover (serve workloads).
    pub unattributed_share: Option<f64>,
    pub gen_lag_s: Option<Vec<f64>>,
}

const NOT_ON_PATH: &str = "n/a: not on this workload's path";

fn layer_timing(report: &mut Report, name: &str, samples: &[f64], q: f64) {
    let read = if q >= 99.0 { tail(samples) } else { percentile(samples, q) };
    match read {
        Some(p) => report.metric(name, p.value, "s", format!("p{} of {}", p.q, p.n)),
        None => report.metric(name, 0.0, "s", NOT_ON_PATH),
    }
}

/// Run the probes every traced run shares and emit the per-layer
/// metrics.
pub fn per_layer(ctx: &Ctx, report: &mut Report, l: Layers) -> Result<(), String> {
    layer_timing(report, "ingress.submit_p99_s", &l.submit_s, 99.0);
    layer_timing(report, "ingress.wait_p50_s", &l.ingress_wait_s, 50.0);
    layer_timing(report, "collect.p50_s", &l.collect_s, 50.0);
    layer_timing(report, "dispatch.backlog_p50_s", &l.backlog_s, 50.0);
    layer_timing(report, "seal.p50_s", &l.seal_s, 50.0);
    layer_timing(report, "seal.p99_s", &l.seal_s, 99.0);

    report.metric("journal.fsyncs_per_epoch", l.fsyncs_per_epoch, "count", "exact");
    report.metric("journal.bytes_per_epoch", l.journal_bytes_per_epoch, "B", "exact");
    for (name, v) in
        [("journal.fsync_mean_s", l.fsync_mean_s), ("journal.fsync_max_s", l.fsync_max_s)]
    {
        match v {
            Some(v) => report.metric(name, v, "s", "MarketStats"),
            None => report.metric(name, 0.0, "s", NOT_ON_PATH),
        }
    }

    layer_timing(report, "session.p50_s", &l.session_s, 50.0);
    layer_timing(report, "session.p99_s", &l.session_s, 99.0);
    layer_timing(report, "session.skew_p50_s", &l.skew_s, 50.0);

    // The paper's blocks, replayed from two same-seed recordings.
    let mut tallies = [BlockTally::default(), BlockTally::default()];
    let mut clear_s = Vec::new();
    for (tally, epochs) in tallies.iter_mut().zip(&l.replay_epochs) {
        for epoch in epochs {
            let outcome = layers::replay_blocks(&l.framework, epoch, tally)?;
            if outcome != epoch.outcome {
                report.fail(format!("session {}: block replay disagrees", epoch.session.0));
            }
            let (t, same) = layers::clear_centralised(epoch);
            clear_s.push(t);
            if !same {
                report.fail(format!(
                    "session {}: distributed outcome differs from the centralised mechanism",
                    epoch.session.0
                ));
            }
        }
    }
    if tallies[0].counts() != tallies[1].counts() {
        report.fail(format!(
            "block counts differ across two same-seed runs: {:?} vs {:?}",
            tallies[0].counts(),
            tallies[1].counts()
        ));
    }
    let n = l.replay_epochs[0].len().max(1) as f64;
    for (i, block) in BLOCKS.iter().enumerate() {
        let t = &tallies[0];
        let how = format!("per epoch, {n} epochs replayed on one thread");
        report.metric(&format!("block.{block}.busy_s"), t.busy_s[i] / n, "s", how.clone());
        report.metric(
            &format!("block.{block}.msgs"),
            t.msgs[i] as f64 / n,
            "count",
            "exact, ".to_string() + &how,
        );
        report.metric(
            &format!("block.{block}.bytes"),
            t.bytes[i] as f64 / n,
            "B",
            "exact, ".to_string() + &how,
        );
    }
    layer_timing(report, "mechanism.clear_s", &clear_s, 50.0);

    report.metric("net.msgs_per_epoch", l.net_msgs_per_epoch, "count", "exact");
    report.metric("net.bytes_per_epoch", l.net_bytes_per_epoch, "B", "exact");
    report.metric("net.dropped", l.net_dropped as f64, "count", "must be 0");
    if l.net_dropped != 0 {
        report.fail(format!("{} messages dropped", l.net_dropped));
    }
    report.metric("net.io_threads", l.io_threads as f64, "count", "");

    // Control plane and mesh bring-up, probed on loopback with the
    // provider's settings and the cluster's own work orders, on every
    // workload.
    let (order, reply) = cluster::control_messages(ctx.seed);
    let bringup = p50(&layers::mesh_bringup(l.framework.m, 40)?);
    let rtt = p50(&layers::control_rtt(&order, &reply, 200)?);
    report.metric("mesh.bringup_p50_s", bringup, "s", "p50 of 40 bring-ups");
    report.metric("control.rtt_p50_s", rtt, "s", "p50 of 200 round trips");
    let cluster = match l.cluster {
        Some(c) => c,
        None => cluster::probe(ctx, report)?,
    };
    let u = stats::cluster_unattributed(cluster.epoch_p50_s, rtt, bringup, cluster.session_p50_s);
    report.metric(
        "cluster.unattributed_p50_s",
        u,
        "s",
        format!(
            "cluster epoch p50 {:.6} - (rtt + bring-up + session {:.6})",
            cluster.epoch_p50_s, cluster.session_p50_s
        ),
    );
    report.metric("cluster.peer_down_aborts", cluster.peer_down_aborts as f64, "count", "");
    let cluster_share = if cluster.epoch_p50_s > 0.0 { u / cluster.epoch_p50_s } else { 0.0 };
    report.metric("proc.threads", l.threads as f64, "count", "mid-load");
    report.metric(
        "trace.overhead_ratio",
        l.overhead_ratio,
        "ratio",
        "traced / untraced headline cost",
    );
    match l.unattributed_share {
        Some(share) => report.metric(
            "trace.unattributed_share",
            share,
            "ratio",
            "median share of the opening bid's latency outside ingress+collect+dispatch+seal",
        ),
        None => report.metric(
            "trace.unattributed_share",
            cluster_share,
            "ratio",
            "cluster.unattributed_p50_s over the cluster epoch p50",
        ),
    }
    match &l.gen_lag_s {
        Some(lags) => layer_timing(report, "gen.lag_p99_s", lags, 99.0),
        None => report.metric("gen.lag_p99_s", 0.0, "s", "n/a: closed loop"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rate = match args.workload.as_str() {
        "serve-durable-open" => format!("{DURABLE_OPEN_RATE} bids/s open-loop Poisson"),
        _ => "closed loop".to_string(),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} source={} load={rate}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        args.source
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: work dir {}: {e}", ctx.dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-durable-open", false) => {
            serve::run(&serve::durable_open(DURABLE_OPEN_RATE), ctx, &mut report)
        }
        ("serve-durable-open", true) => {
            serve::run_traced(&serve::durable_open(DURABLE_OPEN_RATE), ctx, &mut report)
        }
        ("serve-saturate", false) => serve::run(&serve::saturate(), ctx, &mut report),
        ("serve-saturate", true) => serve::run_traced(&serve::saturate(), ctx, &mut report),
        ("cluster-closed", false) => cluster::run(ctx, &mut report),
        ("cluster-closed", true) => cluster::run_traced(ctx, &mut report),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    match result {
        Ok(()) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
