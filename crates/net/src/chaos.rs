//! Seeded, deterministic fault injection over any [`Transport`].
//!
//! The paper's claim is not that the auctioneer works on a good network —
//! it is that `m` mutually distrusting providers reach the *same* outcome
//! (or the external ⊥ of §3.2) when links lose, duplicate, reorder,
//! delay, or corrupt their messages. This module makes that claim
//! falsifiable in-process: a [`FaultPlan`] assigns per-link fault
//! probabilities, and a [`ChaosTransport`] wraps any transport —
//! [`Endpoint`][crate::Endpoint], [`MuxEndpoint`][crate::MuxEndpoint],
//! or any other [`Transport`] — applying the plan at the receiving edge
//! of every link.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(plan.seed, salt, from,
//! to, n)` where `n` is the position of the message in its directed
//! link's FIFO stream — **not** of wall-clock time, thread scheduling,
//! or a shared RNG. Because both transports deliver FIFO per ordered
//! pair, the *n*-th message from provider `i` to provider `j` suffers
//! exactly the same fate on every run with the same seed, on every
//! backend. A chaos run is therefore replayable from its seed alone,
//! and the same seed produces the same per-link fault trace under
//! in-process channels and under real TCP sockets.
//!
//! Only the *contents and per-link order* of deliveries are
//! deterministic; the interleaving across links still follows the
//! schedule, exactly like the fault-free transports.
//!
//! # Termination
//!
//! No fault can park a message forever: delays are bounded by the plan's
//! delay range, and a message held back for reordering is released when
//! the next message on its link arrives or after
//! [`FaultPlan::reorder_hold`], whichever comes first. A chaos run
//! therefore always terminates — sessions that lost a critical message
//! simply hit their deadline and read ⊥, the paper's external abort.

use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_types::ProviderId;

use crate::hub::RecvError;
use crate::transport::Transport;

/// Per-link fault probabilities and their seed: the full description of
/// one chaos experiment.
///
/// All probabilities are in `[0, 1]` and apply independently per
/// message at the receiving edge of each directed link (see the module
/// docs for the decision order). The zero plan ([`FaultPlan::none`]) is
/// exactly transparent: a [`ChaosTransport`] carrying it delivers the
/// same messages in the same per-link order as the bare transport.
///
/// # Example
///
/// ```
/// use dauctioneer_net::FaultPlan;
///
/// let plan = FaultPlan::seeded(7).with_drop(0.1).with_corrupt(0.02);
/// assert!(plan.validate().is_ok());
/// // Replayable: the spec string round-trips.
/// let respelled: FaultPlan = plan.to_string().parse().unwrap();
/// assert_eq!(plan, respelled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a message is dropped (never delivered).
    pub drop: f64,
    /// Probability a message is delivered twice back-to-back.
    pub duplicate: f64,
    /// Probability a message is held back and delivered after the next
    /// message on its link (FIFO violation).
    pub reorder: f64,
    /// Probability a message is delayed by a duration sampled from
    /// [`FaultPlan::delay_range`].
    pub delay: f64,
    /// Probability one payload byte is flipped.
    pub corrupt: f64,
    /// Probability a directed link is **partitioned**: a total seeded
    /// blackout of that link — every message on it is swallowed. Decided
    /// once per link (not per message), so a partitioned link stays
    /// black, modelling a network partition rather than loss.
    pub partition: f64,
    /// When set, a partitioned link heals after this many messages have
    /// been attempted on it: message indices `< heal_after` are
    /// swallowed, later ones pass to the ordinary fault lanes. `None`
    /// means the partition never heals within the run.
    pub heal_after: Option<u64>,
    /// Inclusive bounds the extra delay is sampled from.
    pub delay_range: (Duration, Duration),
    /// How long a reorder-held message waits for a successor before
    /// being released anyway (the termination bound).
    pub reorder_hold: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The benign plan: no faults, seed 0. Exactly transparent.
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// A plan with all probabilities zero and the given seed; compose
    /// with the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            corrupt: 0.0,
            partition: 0.0,
            heal_after: None,
            delay_range: (Duration::from_millis(1), Duration::from_millis(20)),
            reorder_hold: Duration::from_millis(50),
        }
    }

    /// Set the drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop = p;
        self
    }

    /// Set the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate = p;
        self
    }

    /// Set the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> FaultPlan {
        self.reorder = p;
        self
    }

    /// Set the delay probability and the sampled delay bounds.
    pub fn with_delay(mut self, p: f64, min: Duration, max: Duration) -> FaultPlan {
        self.delay = p;
        self.delay_range = (min, max);
        self
    }

    /// Set the corrupt-payload probability.
    pub fn with_corrupt(mut self, p: f64) -> FaultPlan {
        self.corrupt = p;
        self
    }

    /// Set the per-link partition probability and (optionally) the
    /// message index at which a partitioned link heals.
    pub fn with_partition(mut self, p: f64, heal_after: Option<u64>) -> FaultPlan {
        self.partition = p;
        self.heal_after = heal_after;
        self
    }

    /// Replace the seed, keeping every probability.
    pub fn reseeded(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// `true` when every fault probability is zero — the wrapper will be
    /// exactly transparent.
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay == 0.0
            && self.corrupt == 0.0
            && self.partition == 0.0
    }

    /// Reject impossible plans up front.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] when a probability is outside `[0, 1]` (or not
    /// a number) or the delay range is inverted.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (name, p) in [
            ("drop", self.drop),
            ("dup", self.duplicate),
            ("reorder", self.reorder),
            ("delay", self.delay),
            ("corrupt", self.corrupt),
            ("partition", self.partition),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError::BadProbability { knob: name, value: p });
            }
        }
        if self.delay_range.0 > self.delay_range.1 {
            return Err(FaultPlanError::InvertedDelayRange {
                min: self.delay_range.0,
                max: self.delay_range.1,
            });
        }
        Ok(())
    }

    /// The fate of the `index`-th message on the directed link
    /// `from → to` under this plan. Pure: same inputs, same decision,
    /// forever. `salt` keeps independent meshes (hub shards) from
    /// experiencing lock-stepped faults.
    pub fn decide(&self, salt: u64, from: ProviderId, to: ProviderId, index: u64) -> FaultDecision {
        let link = splitmix64(
            splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ ((from.0 as u64) << 32 | to.0 as u64),
        );
        let roll = |lane: u64| unit_f64(prf(link, index, lane));
        // Partition is a property of the *link*, not the message: one
        // roll at index 0 on its own lane decides the link's fate, and
        // an unhealed partition swallows every message before
        // `heal_after` (all of them when `None`).
        let partitioned = unit_f64(prf(link, 0, 7)) < self.partition
            && self.heal_after.map_or(true, |heal| index < heal);
        let drop = !partitioned && roll(0) < self.drop;
        let duplicate = !partitioned && !drop && roll(1) < self.duplicate;
        let reorder = !partitioned && !drop && roll(2) < self.reorder;
        let delay = if !partitioned && !drop && !reorder && roll(3) < self.delay {
            let (min, max) = self.delay_range;
            let span = max.saturating_sub(min);
            Some(
                min + Duration::from_nanos(
                    (unit_f64(prf(link, index, 4)) * span.as_nanos() as f64) as u64,
                ),
            )
        } else {
            None
        };
        let corrupt = !partitioned && !drop && roll(5) < self.corrupt;
        FaultDecision {
            partitioned,
            drop,
            duplicate,
            reorder,
            delay,
            corrupt,
            entropy: prf(link, index, 6),
        }
    }

    /// Apply this decision's corruption to `payload` (one byte flipped
    /// at a PRF-chosen position with a PRF-chosen non-zero mask).
    fn corrupt_payload(payload: &Bytes, entropy: u64) -> Bytes {
        if payload.is_empty() {
            return payload.clone();
        }
        let mut altered = payload.to_vec();
        let pos = (entropy % altered.len() as u64) as usize;
        let mask = (((entropy >> 16) & 0xFF) as u8) | 1; // never the identity flip
        altered[pos] ^= mask;
        Bytes::from(altered)
    }
}

/// `FaultPlan` parses from and serialises to a compact
/// `key=value,key=value` spec, the format `dauction serve --chaos`
/// takes: `seed=7,drop=0.1,dup=0.05,reorder=0.1,delay=0.05,`
/// `delay-ms=1..20,corrupt=0.01,partition=0.3,heal_after=40,hold-ms=50`.
/// Absent keys keep the [`FaultPlan::seeded`] defaults; `heal_after`
/// only matters alongside a non-zero `partition`.
impl std::str::FromStr for FaultPlan {
    type Err = FaultPlanError;

    fn from_str(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::seeded(0);
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| FaultPlanError::BadSpec {
                detail: format!("`{pair}`: expected key=value"),
            })?;
            let bad = |detail: String| FaultPlanError::BadSpec { detail };
            match key.trim() {
                "seed" => plan.seed = value.parse().map_err(|e| bad(format!("seed: {e}")))?,
                "drop" => plan.drop = value.parse().map_err(|e| bad(format!("drop: {e}")))?,
                "dup" => plan.duplicate = value.parse().map_err(|e| bad(format!("dup: {e}")))?,
                "reorder" => {
                    plan.reorder = value.parse().map_err(|e| bad(format!("reorder: {e}")))?
                }
                "delay" => plan.delay = value.parse().map_err(|e| bad(format!("delay: {e}")))?,
                "corrupt" => {
                    plan.corrupt = value.parse().map_err(|e| bad(format!("corrupt: {e}")))?
                }
                "partition" => {
                    plan.partition = value.parse().map_err(|e| bad(format!("partition: {e}")))?
                }
                "heal_after" => {
                    plan.heal_after =
                        Some(value.parse().map_err(|e| bad(format!("heal_after: {e}")))?)
                }
                "delay-ms" => {
                    let (lo, hi) = value
                        .split_once("..")
                        .ok_or_else(|| bad(format!("delay-ms: `{value}`: expected MIN..MAX")))?;
                    plan.delay_range = (parse_ms("delay-ms", lo)?, parse_ms("delay-ms", hi)?);
                }
                "hold-ms" => plan.reorder_hold = parse_ms("hold-ms", value)?,
                other => return Err(bad(format!("unknown knob `{other}`"))),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Parse a (possibly fractional) non-negative millisecond value of a
/// chaos spec into a [`Duration`].
fn parse_ms(knob: &str, value: &str) -> Result<Duration, FaultPlanError> {
    let bad = |detail: String| FaultPlanError::BadSpec { detail };
    let ms: f64 = value.trim().parse().map_err(|e| bad(format!("{knob}: {e}")))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(bad(format!("{knob}: must be a finite non-negative number, got {value}")));
    }
    Ok(Duration::from_secs_f64(ms / 1e3))
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fractional milliseconds, so sub-ms delay bounds survive the
        // print → parse round trip (f64 Display is shortest-exact).
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "seed={},drop={},dup={},reorder={},delay={},delay-ms={}..{},corrupt={},partition={}",
            self.seed,
            self.drop,
            self.duplicate,
            self.reorder,
            self.delay,
            ms(self.delay_range.0),
            ms(self.delay_range.1),
            self.corrupt,
            self.partition,
        )?;
        if let Some(heal) = self.heal_after {
            write!(f, ",heal_after={heal}")?;
        }
        write!(f, ",hold-ms={}", ms(self.reorder_hold))
    }
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability knob is outside `[0, 1]` (or NaN).
    BadProbability {
        /// The knob name.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `delay_range.0 > delay_range.1`.
    InvertedDelayRange {
        /// Configured lower bound.
        min: Duration,
        /// Configured upper bound.
        max: Duration,
    },
    /// A `--chaos` spec string did not parse.
    BadSpec {
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadProbability { knob, value } => {
                write!(f, "fault probability `{knob}` must be in [0, 1], got {value}")
            }
            FaultPlanError::InvertedDelayRange { min, max } => {
                write!(f, "delay range inverted: {min:?} > {max:?}")
            }
            FaultPlanError::BadSpec { detail } => write!(f, "bad chaos spec: {detail}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The fate of one message, as decided by [`FaultPlan::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Swallowed by a link partition (a blackout, counted separately
    /// from probabilistic drops).
    pub partitioned: bool,
    /// Never delivered.
    pub drop: bool,
    /// Delivered twice.
    pub duplicate: bool,
    /// Held until the next message on the link (or the hold bound).
    pub reorder: bool,
    /// Delivered this much later than it arrived.
    pub delay: Option<Duration>,
    /// One payload byte flipped.
    pub corrupt: bool,
    /// PRF residue driving the corruption position/mask.
    entropy: u64,
}

impl FaultDecision {
    /// `true` when the message passes through untouched.
    pub fn is_clean(&self) -> bool {
        !self.partitioned
            && !self.drop
            && !self.duplicate
            && !self.reorder
            && !self.corrupt
            && self.delay.is_none()
    }
}

/// Counters of the faults a [`ChaosTransport`] actually injected —
/// chaos-induced loss is observable, never silent (the same principle as
/// the hub's undeliverable-drop counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages dropped by the plan.
    pub dropped: u64,
    /// Extra copies delivered by the plan.
    pub duplicated: u64,
    /// Messages held back past a successor.
    pub reordered: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Messages delivered with a flipped byte.
    pub corrupted: u64,
    /// Messages swallowed by a link partition.
    pub partitioned: u64,
}

impl ChaosStats {
    /// Total fault events injected.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.delayed
            + self.corrupted
            + self.partitioned
    }

    /// Add `other`'s counters into this snapshot (used to aggregate the
    /// per-worker transports of a pool).
    pub fn merge(&mut self, other: &ChaosStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
        self.corrupted += other.corrupted;
        self.partitioned += other.partitioned;
    }
}

/// Shared, cloneable fault counters — the live-observability twin of the
/// per-transport [`ChaosStats`] snapshot.
///
/// A [`ChaosTransport`] is owned by its worker thread, so its private
/// `stats()` are only readable at teardown; attach a `ChaosMetrics` (one
/// handle per pool, cloned into every wrapper) and the same counts
/// become visible mid-run to a scrape endpoint. Cloning shares the
/// cells, mirroring [`TrafficMetrics`](crate::TrafficMetrics).
#[derive(Debug, Clone, Default)]
pub struct ChaosMetrics {
    cells: std::sync::Arc<ChaosCells>,
}

#[derive(Debug, Default)]
struct ChaosCells {
    dropped: std::sync::atomic::AtomicU64,
    duplicated: std::sync::atomic::AtomicU64,
    reordered: std::sync::atomic::AtomicU64,
    delayed: std::sync::atomic::AtomicU64,
    corrupted: std::sync::atomic::AtomicU64,
    partitioned: std::sync::atomic::AtomicU64,
}

impl ChaosMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> ChaosMetrics {
        ChaosMetrics::default()
    }

    fn bump(&self, cell: &std::sync::atomic::AtomicU64) {
        cell.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters (relaxed reads; exact once
    /// the run has quiesced).
    pub fn snapshot(&self) -> ChaosStats {
        use std::sync::atomic::Ordering::Relaxed;
        ChaosStats {
            dropped: self.cells.dropped.load(Relaxed),
            duplicated: self.cells.duplicated.load(Relaxed),
            reordered: self.cells.reordered.load(Relaxed),
            delayed: self.cells.delayed.load(Relaxed),
            corrupted: self.cells.corrupted.load(Relaxed),
            partitioned: self.cells.partitioned.load(Relaxed),
        }
    }
}

/// A message parked in the delay stage.
struct Parked {
    deliver_at: Instant,
    seq: u64,
    from: ProviderId,
    payload: Bytes,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap reversed: earliest deadline pops first, FIFO on ties.
        other.deliver_at.cmp(&self.deliver_at).then(other.seq.cmp(&self.seq))
    }
}

/// A message held back to violate its link's FIFO order.
struct Held {
    payload: Bytes,
    release_at: Instant,
}

/// A [`Transport`] adapter injecting the faults of a [`FaultPlan`] at
/// the receiving edge of every link.
///
/// Wraps any transport; the protocol layer sees the same interface and
/// cannot tell it is being sabotaged. All faults are applied on
/// *receive* — the `n`-th message received from each peer is the `n`-th
/// message that peer sent (FIFO transports), which is what makes the
/// decisions replayable from the seed.
///
/// # Example
///
/// ```
/// use dauctioneer_net::{ChaosTransport, FaultPlan, LatencyModel, ThreadedHub, Transport};
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
/// let mut eps = hub.take_endpoints();
/// let plain = eps.remove(0);
/// // Drop everything arriving at endpoint 1:
/// let mut lossy = ChaosTransport::new(eps.remove(0), FaultPlan::seeded(9).with_drop(1.0));
/// plain.send(lossy.me(), Bytes::from_static(b"doomed"));
/// assert!(lossy.recv_timeout(Duration::from_millis(50)).is_err());
/// assert_eq!(lossy.stats().dropped, 1);
/// ```
pub struct ChaosTransport<T> {
    inner: T,
    plan: FaultPlan,
    salt: u64,
    /// Per-peer receive index: position of the next message in that
    /// directed link's FIFO stream.
    indices: Vec<u64>,
    /// Per-peer held (reorder) message, at most one per link.
    held: Vec<Option<Held>>,
    parked: BinaryHeap<Parked>,
    ready: VecDeque<(ProviderId, Bytes)>,
    seq: u64,
    stats: ChaosStats,
    /// Optional shared counters bumped alongside `stats`, so a pool can
    /// aggregate fault counts across its worker-owned transports live.
    metrics: Option<ChaosMetrics>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner` under `plan` (salt 0 — single-mesh runs).
    pub fn new(inner: T, plan: FaultPlan) -> ChaosTransport<T> {
        ChaosTransport::with_salt(inner, plan, 0)
    }

    /// Wrap `inner` under `plan`, salting the per-link PRF streams —
    /// pass the shard index so independent meshes of one run don't
    /// suffer lock-stepped faults.
    pub fn with_salt(inner: T, plan: FaultPlan, salt: u64) -> ChaosTransport<T> {
        let m = inner.num_providers();
        ChaosTransport {
            inner,
            plan,
            salt,
            indices: vec![0; m],
            held: (0..m).map(|_| None).collect(),
            parked: BinaryHeap::new(),
            ready: VecDeque::new(),
            seq: 0,
            stats: ChaosStats::default(),
            metrics: None,
        }
    }

    /// Attach shared counters: every future fault bump also lands in
    /// `metrics`, making this wrapper's injections visible outside its
    /// owning thread. Builder-style so it chains onto the constructors.
    pub fn with_metrics(mut self, metrics: ChaosMetrics) -> ChaosTransport<T> {
        self.metrics = Some(metrics);
        self
    }

    /// The plan this wrapper is executing.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Unwrap, discarding any in-flight held/parked messages.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn park(&mut self, from: ProviderId, payload: Bytes, deliver_at: Instant) {
        let seq = self.seq;
        self.seq += 1;
        self.parked.push(Parked { deliver_at, seq, from, payload });
    }

    /// Route one freshly received message per its fault decision.
    fn ingest(&mut self, from: ProviderId, payload: Bytes, now: Instant) {
        let slot = from.index();
        let index = self.indices[slot];
        self.indices[slot] = index + 1;
        let decision = self.plan.decide(self.salt, from, self.inner.me(), index);

        if decision.partitioned {
            // A blacked-out link: the message vanishes, counted under
            // its own reason so a partition is distinguishable from
            // probabilistic loss.
            self.stats.partitioned += 1;
            if let Some(m) = &self.metrics {
                m.bump(&m.cells.partitioned);
            }
            return;
        }
        if decision.drop {
            // The held message (if any) keeps waiting for the next
            // *delivered* successor or its hold bound.
            self.stats.dropped += 1;
            if let Some(m) = &self.metrics {
                m.bump(&m.cells.dropped);
            }
            return;
        }
        let payload = if decision.corrupt {
            self.stats.corrupted += 1;
            if let Some(m) = &self.metrics {
                m.bump(&m.cells.corrupted);
            }
            FaultPlan::corrupt_payload(&payload, decision.entropy)
        } else {
            payload
        };
        let copies = if decision.duplicate {
            self.stats.duplicated += 1;
            if let Some(m) = &self.metrics {
                m.bump(&m.cells.duplicated);
            }
            2
        } else {
            1
        };
        // A delivered successor completes the pending swap: it goes out
        // first (its own reorder flag is ignored — swaps don't stack),
        // then the held message right behind it.
        let swap = self.held[slot].take();
        // Where the successor itself lands; the released held message
        // must follow it there, or a delayed successor would quietly
        // restore the original order and undo the swap.
        let mut successor_at = now;
        for _ in 0..copies {
            if swap.is_none() && decision.reorder && self.held[slot].is_none() {
                self.stats.reordered += 1;
                if let Some(m) = &self.metrics {
                    m.bump(&m.cells.reordered);
                }
                self.held[slot] = Some(Held {
                    payload: payload.clone(),
                    release_at: now + self.plan.reorder_hold,
                });
            } else if let Some(extra) = decision.delay {
                self.stats.delayed += 1;
                if let Some(m) = &self.metrics {
                    m.bump(&m.cells.delayed);
                }
                successor_at = now + extra;
                self.park(from, payload.clone(), successor_at);
            } else {
                self.ready.push_back((from, payload.clone()));
            }
        }
        if let Some(held) = swap {
            if successor_at > now {
                // Same due instant as the successor: the heap's FIFO
                // tie-break (enqueue seq) keeps the held copy behind it.
                self.park(from, held.payload, successor_at);
            } else {
                self.ready.push_back((from, held.payload));
            }
        }
    }

    /// Move everything whose time has come into the ready queue.
    fn promote_due(&mut self, now: Instant) {
        while self.parked.peek().is_some_and(|p| p.deliver_at <= now) {
            let p = self.parked.pop().expect("peeked");
            self.ready.push_back((p.from, p.payload));
        }
        for slot in 0..self.held.len() {
            if self.held[slot].as_ref().is_some_and(|h| h.release_at <= now) {
                let held = self.held[slot].take().expect("checked");
                self.ready.push_back((ProviderId(slot as u32), held.payload));
            }
        }
    }

    /// The earliest instant a parked or held message becomes due.
    fn next_due(&self) -> Option<Instant> {
        let parked = self.parked.peek().map(|p| p.deliver_at);
        let held = self.held.iter().flatten().map(|h| h.release_at).min();
        match (parked, held) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn me(&self) -> ProviderId {
        self.inner.me()
    }

    fn num_providers(&self) -> usize {
        self.inner.num_providers()
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        // All faults are applied at the receiving edge (see type docs);
        // sends pass straight through.
        self.inner.send(to, payload);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        // The benign plan never parks or holds anything: the honest
        // fast path is a direct forward, costing one branch.
        if self.plan.is_benign() {
            return self.inner.recv_timeout(timeout);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            self.promote_due(now);
            if let Some(msg) = self.ready.pop_front() {
                return Ok(msg);
            }
            // Wait on the inner transport, but never past an internal
            // deadline (a parked/held message coming due) or the
            // caller's.
            let wake = match self.next_due() {
                Some(due) => due.min(deadline),
                None => deadline,
            };
            let wait = wake.saturating_duration_since(now);
            match self.inner.recv_timeout(wait) {
                Ok((from, payload)) => self.ingest(from, payload, Instant::now()),
                Err(RecvError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(RecvError::Timeout);
                    }
                    // An internal deadline fired: loop to promote it.
                }
                Err(RecvError::Disconnected) => {
                    // Drain what chaos still holds before giving up.
                    if self.ready.is_empty()
                        && self.parked.is_empty()
                        && self.held.iter().all(Option::is_none)
                    {
                        return Err(RecvError::Disconnected);
                    }
                    match self.next_due() {
                        Some(due) if due > deadline => return Err(RecvError::Timeout),
                        Some(due) => {
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        }
                        None => {} // ready has items; next loop pops one
                    }
                }
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ChaosTransport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .field("salt", &self.salt)
            .field("stats", &self.stats)
            .finish()
    }
}

/// SplitMix64: the one-shot mixer every fault decision derives from.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent 64-bit stream per (link, message index, decision lane).
fn prf(link: u64, index: u64, lane: u64) -> u64 {
    splitmix64(link ^ splitmix64(index.wrapping_mul(0xA24B_AED4_963E_E407) ^ splitmix64(lane)))
}

/// Map a PRF draw onto `[0, 1)` with 53 bits of precision.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::ThreadedHub;
    use crate::latency::LatencyModel;

    fn pair() -> (crate::hub::Endpoint, crate::hub::Endpoint) {
        // Endpoints own their channels; the zero-latency hub has no
        // delayer thread, so it can be dropped immediately.
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let mut eps = hub.take_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (a, b)
    }

    #[test]
    fn benign_plan_is_transparent() {
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, FaultPlan::none());
        for i in 0..10u8 {
            a.send(ProviderId(1), Bytes::copy_from_slice(&[i]));
        }
        for i in 0..10u8 {
            let (from, payload) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(from, ProviderId(0));
            assert_eq!(payload[0], i, "benign chaos must preserve FIFO");
        }
        assert_eq!(chaos.stats(), ChaosStats::default());
    }

    #[test]
    fn full_drop_loses_everything_and_counts() {
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, FaultPlan::seeded(3).with_drop(1.0));
        for _ in 0..5 {
            a.send(ProviderId(1), Bytes::from_static(b"x"));
        }
        assert_eq!(chaos.recv_timeout(Duration::from_millis(40)), Err(RecvError::Timeout));
        assert_eq!(chaos.stats().dropped, 5);
    }

    #[test]
    fn full_duplicate_doubles_every_message() {
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, FaultPlan::seeded(3).with_duplicate(1.0));
        a.send(ProviderId(1), Bytes::from_static(b"m"));
        let first = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        let second = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first, second);
        assert_eq!(chaos.stats().duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, FaultPlan::seeded(5).with_corrupt(1.0));
        let original = Bytes::from_static(b"payload-bytes");
        a.send(ProviderId(1), original.clone());
        let (_, payload) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(payload.len(), original.len());
        let diff = payload.iter().zip(original.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "exactly one byte flipped");
    }

    #[test]
    fn reorder_swaps_with_successor() {
        let (a, b) = pair();
        // Reorder every message: msg0 held, released after msg1, which
        // is itself held and released after msg2, and so on — the swap
        // cascades but nothing is lost.
        let mut chaos = ChaosTransport::new(b, FaultPlan::seeded(11).with_reorder(1.0));
        for i in 0..4u8 {
            a.send(ProviderId(1), Bytes::copy_from_slice(&[i]));
        }
        let mut got = Vec::new();
        while got.len() < 4 {
            let (_, payload) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
            got.push(payload[0]);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "reorder must not lose messages");
        assert_ne!(got, vec![0, 1, 2, 3], "order must actually change");
        assert!(chaos.stats().reordered > 0);
    }

    #[test]
    fn reorder_survives_a_delayed_successor() {
        // Find a seed whose link stream says: message 0 is reordered,
        // message 1 is delayed. The swap must still manifest — the held
        // message 0 follows the delayed message 1, not jump back ahead.
        let plan_for = |seed| {
            FaultPlan::seeded(seed).with_reorder(0.5).with_delay(
                1.0,
                Duration::from_millis(10),
                Duration::from_millis(15),
            )
        };
        let seed = (0..)
            .find(|&s| {
                let p = plan_for(s);
                let d0 = p.decide(0, ProviderId(0), ProviderId(1), 0);
                let d1 = p.decide(0, ProviderId(0), ProviderId(1), 1);
                d0.reorder && !d0.duplicate && d1.delay.is_some() && !d1.duplicate && !d1.drop
            })
            .unwrap();
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, plan_for(seed));
        a.send(ProviderId(1), Bytes::from_static(b"first"));
        a.send(ProviderId(1), Bytes::from_static(b"second"));
        let (_, x) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        let (_, y) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&x[..], b"second", "the delayed successor still goes first");
        assert_eq!(&y[..], b"first", "the held message stays swapped behind it");
    }

    #[test]
    fn reorder_hold_releases_a_final_message() {
        let (a, b) = pair();
        let mut plan = FaultPlan::seeded(11).with_reorder(1.0);
        plan.reorder_hold = Duration::from_millis(20);
        let mut chaos = ChaosTransport::new(b, plan);
        a.send(ProviderId(1), Bytes::from_static(b"last"));
        // No successor ever arrives: the hold bound must release it.
        let (_, payload) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&payload[..], b"last");
    }

    #[test]
    fn delay_defers_but_delivers() {
        let (a, b) = pair();
        let plan = FaultPlan::seeded(7).with_delay(
            1.0,
            Duration::from_millis(15),
            Duration::from_millis(25),
        );
        let mut chaos = ChaosTransport::new(b, plan);
        let start = Instant::now();
        a.send(ProviderId(1), Bytes::from_static(b"slow"));
        let (_, payload) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&payload[..], b"slow");
        assert!(start.elapsed() >= Duration::from_millis(12), "{:?}", start.elapsed());
        assert_eq!(chaos.stats().delayed, 1);
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let plan = FaultPlan::seeded(42)
            .with_drop(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.2)
            .with_delay(0.2, Duration::from_millis(1), Duration::from_millis(5))
            .with_corrupt(0.1);
        for index in 0..200 {
            let a = plan.decide(3, ProviderId(0), ProviderId(1), index);
            let b = plan.decide(3, ProviderId(0), ProviderId(1), index);
            assert_eq!(a, b, "same inputs, same decision");
        }
        // Different links and salts see different fault streams.
        let traces = |salt, from: u32, to: u32| -> Vec<bool> {
            (0..200).map(|i| plan.decide(salt, ProviderId(from), ProviderId(to), i).drop).collect()
        };
        assert_ne!(traces(0, 0, 1), traces(0, 1, 0), "directed links are independent");
        assert_ne!(traces(0, 0, 1), traces(1, 0, 1), "salts decorrelate shards");
    }

    #[test]
    fn spec_string_round_trips() {
        let plan: FaultPlan =
            "seed=9,drop=0.25,dup=0.1,reorder=0.05,delay=0.5,delay-ms=2..8,corrupt=0.01,hold-ms=30"
                .parse()
                .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop, 0.25);
        assert_eq!(plan.delay_range, (Duration::from_millis(2), Duration::from_millis(8)));
        assert_eq!(plan.reorder_hold, Duration::from_millis(30));
        let round: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, round);
    }

    #[test]
    fn sub_millisecond_bounds_survive_the_spec_round_trip() {
        let plan = FaultPlan::seeded(4).with_delay(
            0.5,
            Duration::from_micros(500),
            Duration::from_micros(2_250),
        );
        let spec = plan.to_string();
        assert!(spec.contains("delay-ms=0.5..2.25"), "{spec}");
        let round: FaultPlan = spec.parse().unwrap();
        assert_eq!(plan, round, "replaying the printed spec must reproduce the plan exactly");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("drop=1.5".parse::<FaultPlan>().is_err(), "probability out of range");
        assert!("nope=1".parse::<FaultPlan>().is_err(), "unknown knob");
        assert!("drop".parse::<FaultPlan>().is_err(), "missing value");
        assert!("delay-ms=9..2,delay=0.1".parse::<FaultPlan>().is_err(), "inverted range");
    }

    #[test]
    fn validate_names_the_bad_knob() {
        let err = FaultPlan::seeded(1).with_drop(2.0).validate().unwrap_err();
        assert!(err.to_string().contains("drop"));
        assert!(FaultPlan::seeded(1).with_drop(f64::NAN).validate().is_err());
    }

    #[test]
    fn benign_detection() {
        assert!(FaultPlan::none().is_benign());
        assert!(!FaultPlan::none().with_drop(0.01).is_benign());
        assert!(!FaultPlan::none().with_partition(0.01, None).is_benign());
    }

    #[test]
    fn partition_spec_round_trips() {
        let plan: FaultPlan = "seed=3,partition=0.4,heal_after=25".parse().unwrap();
        assert_eq!(plan.partition, 0.4);
        assert_eq!(plan.heal_after, Some(25));
        let round: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, round);
        // Without heal_after the key must not be printed at all, and the
        // spec still round-trips.
        let forever: FaultPlan = "partition=1".parse().unwrap();
        assert!(!forever.to_string().contains("heal_after"));
        let round: FaultPlan = forever.to_string().parse().unwrap();
        assert_eq!(forever, round);
        assert!("partition=1.5".parse::<FaultPlan>().is_err(), "probability out of range");
        assert!("heal_after=-1".parse::<FaultPlan>().is_err(), "negative heal index");
    }

    #[test]
    fn partition_is_per_link_and_heals_at_the_configured_index() {
        let plan = FaultPlan::seeded(13).with_partition(0.5, Some(10));
        // Find one blacked-out link and one clear link: the decision is
        // a property of the link, so every message before the heal index
        // agrees with message 0.
        let linked = |from: u32, to: u32| plan.decide(0, ProviderId(from), ProviderId(to), 0);
        let dead = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .find(|&(a, b)| linked(a, b).partitioned)
            .expect("some link is partitioned at p=0.5");
        let alive = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .find(|&(a, b)| !linked(a, b).partitioned)
            .expect("some link is clear at p=0.5");
        for index in 0..10 {
            let d = plan.decide(0, ProviderId(dead.0), ProviderId(dead.1), index);
            assert!(d.partitioned, "dead link swallows message {index}");
            assert!(!d.is_clean() && !d.drop && !d.corrupt, "partition suppresses lanes");
            assert!(!plan.decide(0, ProviderId(alive.0), ProviderId(alive.1), index).partitioned);
        }
        for index in 10..20 {
            let d = plan.decide(0, ProviderId(dead.0), ProviderId(dead.1), index);
            assert!(!d.partitioned, "link heals at heal_after: message {index} passes");
        }
        // An unhealing partition stays black forever.
        let forever = FaultPlan::seeded(13).with_partition(0.5, None);
        for index in 0..100 {
            assert!(
                forever.decide(0, ProviderId(dead.0), ProviderId(dead.1), index).partitioned,
                "unhealed partition swallows message {index}"
            );
        }
    }

    #[test]
    fn partitioned_link_counts_and_delivers_nothing() {
        let (a, b) = pair();
        let mut chaos = ChaosTransport::new(b, FaultPlan::seeded(3).with_partition(1.0, Some(3)));
        for i in 0..5u8 {
            a.send(ProviderId(1), Bytes::copy_from_slice(&[i]));
        }
        // Messages 0..3 are swallowed by the blackout; 3 and 4 arrive
        // after the heal, in order.
        let (_, first) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        let (_, second) = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first[0], 3, "first post-heal message");
        assert_eq!(second[0], 4);
        assert_eq!(chaos.stats().partitioned, 3);
        assert_eq!(chaos.stats().dropped, 0, "partition is not a drop");
    }
}
