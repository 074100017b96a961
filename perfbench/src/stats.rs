//! The benchmark's own arithmetic: order statistics, FIFO attribution of
//! bids to epochs, and the shares of time no layer accounts for.

use std::collections::{BTreeMap, VecDeque};

/// Percentiles the tail rule may report, highest first. The tail metrics
/// are named `_p99_s`, so the ladder stops at 99.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile, in `0..=100`.
    pub q: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples it was read from.
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `q` in `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(Quantile { q, value: v[rank(q, v.len()) - 1], n: v.len() })
}

/// Median (nearest rank); `0.0` for an empty sample.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// The tail rule: the highest percentile of the ladder (99, 95, 90, 75,
/// 50) that leaves at least ten samples beyond its nearest-rank
/// position. A sample too small for any of them reports its maximum as
/// percentile 100, which is never an underestimate.
pub fn tail(samples: &[f64]) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    for q in TAIL_LADDER {
        let r = rank(q, n);
        if n - r >= TAIL_MIN_BEYOND {
            return Some(Quantile { q, value: v[r - 1], n });
        }
    }
    Some(Quantile { q: 100.0, value: v[n - 1], n })
}

/// The outcomes that arrived in one window of the load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Length of the window.
    pub secs: f64,
    /// Latency of each cleared bid.
    pub bid_latency: Vec<f64>,
    /// Latency of each cleared epoch.
    pub epoch_latency: Vec<f64>,
    pub cleared_bids: u64,
    pub epochs: u64,
    /// CPU ticks stolen from the machine during the window.
    pub steal_ticks: u64,
}

/// Which of `n` windows of `width` seconds an arrival `offset` seconds
/// into the load falls in; the drain after the last boundary belongs to
/// the last window.
pub fn window_index(offset: f64, width: f64, n: usize) -> usize {
    ((offset.max(0.0) / width) as usize).min(n.saturating_sub(1))
}

/// Split a load of `load_s` seconds into `n` windows of `width`: every
/// window but the last is `width` long, the last runs to the end.
pub fn windows(n: usize, width: f64, load_s: f64) -> Vec<Window> {
    (0..n)
        .map(|i| Window {
            secs: if i + 1 < n { width } else { (load_s - width * i as f64).max(width / 100.0) },
            ..Window::default()
        })
        .collect()
}

/// What is kept of a window once its samples are read: the counts and
/// the percentiles the metrics use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub secs: f64,
    pub cleared_bids: u64,
    pub epochs: u64,
    pub steal_ticks: u64,
    /// The machine lost enough CPU to its hypervisor during the window
    /// that its timings say more about the host than the program.
    pub disturbed: bool,
    pub bid_p50: Option<Quantile>,
    pub bid_tail: Option<Quantile>,
    pub epoch_p50: Option<Quantile>,
    pub epoch_tail: Option<Quantile>,
}

impl Window {
    pub fn summary(&self) -> Summary {
        Summary {
            secs: self.secs,
            cleared_bids: self.cleared_bids,
            epochs: self.epochs,
            steal_ticks: self.steal_ticks,
            disturbed: false,
            bid_p50: percentile(&self.bid_latency, 50.0),
            bid_tail: tail(&self.bid_latency),
            epoch_p50: percentile(&self.epoch_latency, 50.0),
            epoch_tail: tail(&self.epoch_latency),
        }
    }
}

/// The windows the hypervisor did not disturb, or all of them when it
/// disturbed every one.
pub fn undisturbed(windows: &[Summary]) -> Vec<Summary> {
    let clean: Vec<Summary> = windows.iter().filter(|w| !w.disturbed).copied().collect();
    if clean.is_empty() {
        windows.to_vec()
    } else {
        clean
    }
}

/// Median over windows of a per-window statistic; windows where it is
/// undefined are skipped.
pub fn median_over(windows: &[Summary], stat: impl Fn(&Summary) -> Option<f64>) -> Option<f64> {
    let per: Vec<f64> = windows.iter().filter_map(stat).collect();
    percentile(&per, 50.0).map(|q| q.value)
}

/// Delivers epochs in index order, whatever order they arrive in.
#[derive(Debug)]
pub struct EpochOrder<T> {
    next: u64,
    held: BTreeMap<u64, T>,
}

impl<T> EpochOrder<T> {
    /// Expect epochs from `first` on.
    pub fn new(first: u64) -> EpochOrder<T> {
        EpochOrder { next: first, held: BTreeMap::new() }
    }

    /// Accept epoch `epoch` and return every epoch now deliverable, in
    /// order.
    pub fn push(&mut self, epoch: u64, item: T) -> Vec<(u64, T)> {
        self.held.insert(epoch, item);
        let mut ready = Vec::new();
        while let Some(item) = self.held.remove(&self.next) {
            ready.push((self.next, item));
            self.next += 1;
        }
        ready
    }

    /// Epochs received but still waiting for an earlier one.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

/// FIFO attribution of submitted bids to epochs. With one submitter and
/// every bid accepted, epoch `e` holds exactly the next `accepted_bids`
/// submissions after those of epochs `< e`, however early the epoch
/// policy closed it.
#[derive(Debug)]
pub struct Attributor<T> {
    pending: VecDeque<T>,
}

impl<T> Default for Attributor<T> {
    fn default() -> Attributor<T> {
        Attributor { pending: VecDeque::new() }
    }
}

impl<T> Attributor<T> {
    /// Record one submission, in submission order.
    pub fn submitted(&mut self, item: T) {
        self.pending.push_back(item);
    }

    /// Submissions not yet attributed to an epoch.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Attribute the next `accepted` submissions to the next epoch (in
    /// epoch order).
    ///
    /// # Errors
    ///
    /// Fewer than `accepted` submissions are outstanding: the epoch
    /// claims bids nobody submitted.
    pub fn close_epoch(&mut self, accepted: usize) -> Result<Vec<T>, String> {
        if self.pending.len() < accepted {
            return Err(format!(
                "epoch holds {accepted} bids but only {} submissions are unattributed",
                self.pending.len()
            ));
        }
        Ok(self.pending.drain(..accepted).collect())
    }
}

/// Share of a latency that the named spans do not cover,
/// `(latency − Σ spans) / latency`. Negative when the spans overlap or
/// overrun the latency; reported as is, never clamped.
pub fn unattributed_share(latency: f64, spans: &[f64]) -> f64 {
    if latency <= 0.0 {
        return 0.0;
    }
    (latency - spans.iter().sum::<f64>()) / latency
}

/// The part of the cluster's median epoch that the control round trip,
/// the mesh bring-up and the session itself do not explain.
pub fn cluster_unattributed(
    epoch_p50: f64,
    rtt_p50: f64,
    bringup_p50: f64,
    session_p50: f64,
) -> f64 {
    epoch_p50 - (rtt_p50 + bringup_p50 + session_p50)
}

/// What tracing costs the headline: `> 1` means the traced run did
/// worse. `higher_is_better` names the headline's direction
/// (throughput) or its opposite (latency).
pub fn overhead_ratio(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    let (num, den) = if higher_is_better { (untraced, traced) } else { (traced, untraced) };
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n in reverse.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(p50(&ramp(5)), 3.0);
        assert_eq!(p50(&[]), 0.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond_it() {
        // 1000 samples: rank 990, 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.q, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, p95 (rank 950) leaves 49.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.q, t.value), (95.0, 950.0));
        // 100 samples: p90 (rank 90) leaves exactly 10.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.q, t.value), (90.0, 90.0));
        // 40 samples: p75 (rank 30) leaves 10.
        assert_eq!(tail(&ramp(40)).unwrap().q, 75.0);
        // 20 samples: only the median leaves 10.
        assert_eq!(tail(&ramp(20)).unwrap().q, 50.0);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_maximum() {
        let t = tail(&ramp(7)).unwrap();
        assert_eq!((t.q, t.value, t.n), (100.0, 7.0, 7));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn fifo_attribution_follows_early_closes() {
        // 20 submissions; a Hybrid policy closes epoch 0 at its count
        // (16) and epoch 1 early, on its staleness bound, at 4.
        let mut a = Attributor::default();
        for i in 0..20 {
            a.submitted(i);
        }
        assert_eq!(a.close_epoch(16).unwrap(), (0..16).collect::<Vec<_>>());
        assert_eq!(a.close_epoch(4).unwrap(), vec![16, 17, 18, 19]);
        assert_eq!(a.pending(), 0);
        // An epoch claiming more bids than were submitted is caught.
        a.submitted(20);
        assert!(a.close_epoch(2).is_err());
    }

    #[test]
    fn epochs_are_attributed_in_index_order_even_when_delivered_out_of_order() {
        let mut order = EpochOrder::new(0);
        let mut a = Attributor::default();
        for i in 0..10 {
            a.submitted(i);
        }
        // Epoch 1 (3 bids) arrives before epoch 0 (7 bids, early close).
        assert!(order.push(1, 3usize).is_empty());
        assert_eq!(order.held(), 1);
        let ready = order.push(0, 7usize);
        assert_eq!(ready, vec![(0, 7), (1, 3)]);
        let got: Vec<Vec<i32>> = ready.iter().map(|&(_, n)| a.close_epoch(n).unwrap()).collect();
        assert_eq!(got, vec![(0..7).collect::<Vec<_>>(), vec![7, 8, 9]]);
        assert_eq!(order.held(), 0);
    }

    #[test]
    fn windows_split_the_load_and_keep_the_drain_in_the_last() {
        assert_eq!(window_index(0.5, 2.0, 5), 0);
        assert_eq!(window_index(3.9, 2.0, 5), 1);
        // Outcomes drained after the last boundary stay in the last window.
        assert_eq!(window_index(10.04, 2.0, 5), 4);
        assert_eq!(window_index(-1.0, 2.0, 5), 0);
        let w = windows(5, 2.0, 10.04);
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].secs, 2.0);
        assert!((w[4].secs - 2.04).abs() < 1e-9);
    }

    #[test]
    fn medians_over_windows_ignore_one_bad_window() {
        let mut w = windows(5, 1.0, 5.0);
        for (i, win) in w.iter_mut().enumerate() {
            win.cleared_bids = if i == 2 { 10 } else { 100 + i as u64 };
        }
        w[0].bid_latency = ramp(20);
        let w: Vec<Summary> = w.iter().map(Window::summary).collect();
        let rate = median_over(&w, |win| Some(win.cleared_bids as f64 / win.secs));
        assert_eq!(rate, Some(101.0));
        // Windows with no sample are skipped, not read as zero.
        assert_eq!(median_over(&w, |win| win.bid_tail.map(|q| q.value)), Some(10.0));
        assert_eq!(median_over(&w, |win| win.epoch_p50.map(|q| q.value)), None);
    }

    #[test]
    fn disturbed_windows_are_left_out_unless_all_are() {
        let mut w: Vec<Summary> = windows(3, 1.0, 3.0).iter().map(Window::summary).collect();
        w[1].disturbed = true;
        assert_eq!(undisturbed(&w).len(), 2);
        w.iter_mut().for_each(|s| s.disturbed = true);
        assert_eq!(undisturbed(&w).len(), 3);
    }

    #[test]
    fn unattributed_share_is_what_the_spans_leave_over() {
        assert!((unattributed_share(10.0, &[2.0, 3.0, 4.0]) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_share(10.0, &[]), 1.0);
        // Overlapping spans are reported, not hidden.
        assert!(unattributed_share(1.0, &[0.75, 0.5]) < 0.0);
        assert_eq!(unattributed_share(0.0, &[1.0]), 0.0);
    }

    #[test]
    fn cluster_unattributed_subtracts_the_measured_layers() {
        let u = cluster_unattributed(0.004, 0.0001, 0.0015, 0.0009);
        assert!((u - 0.0015).abs() < 1e-12);
        // Probes that overrun the epoch show as a negative residue.
        assert!(cluster_unattributed(0.001, 0.0005, 0.0005, 0.0005) < 0.0);
    }

    #[test]
    fn overhead_ratio_is_above_one_when_tracing_costs() {
        // Throughput: 100 untraced vs 80 traced.
        assert!((overhead_ratio(100.0, 80.0, true) - 1.25).abs() < 1e-12);
        // Latency: 2 ms untraced vs 3 ms traced.
        assert!((overhead_ratio(0.002, 0.003, false) - 1.5).abs() < 1e-12);
        assert_eq!(overhead_ratio(1.0, 0.0, true), 0.0);
    }
}
