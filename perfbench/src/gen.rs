//! Seeded inputs: the bid stream the serve workloads submit and the
//! open-loop arrival schedule.

use std::collections::VecDeque;

use dauctioneer::types::{Bw, Money, UserBid, UserId};

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// An endless stream of user bids in which no user appears twice within
/// any `window` consecutive bids. An epoch is a contiguous run of at most
/// `window` accepted bids, so every bid of the stream is accepted, even
/// when an epoch closes early.
#[derive(Debug)]
pub struct BidStream {
    rng: SplitMix,
    n_users: usize,
    window: usize,
    recent: VecDeque<u32>,
    in_window: Vec<bool>,
}

impl BidStream {
    /// # Panics
    ///
    /// Panics unless `1 <= window <= n_users`.
    pub fn new(seed: u64, n_users: usize, window: usize) -> BidStream {
        assert!(window >= 1 && window <= n_users, "window must be in 1..=n_users");
        BidStream {
            rng: SplitMix::new(seed),
            n_users,
            window,
            recent: VecDeque::with_capacity(window),
            in_window: vec![false; n_users],
        }
    }

    /// The next bid: a user outside the last `window - 1` draws, a unit
    /// valuation in `[0.75, 1.25]` and a demand in `(0, 1]`.
    pub fn next_bid(&mut self) -> (UserId, UserBid) {
        let user = loop {
            let u = (self.rng.next_u64() % self.n_users as u64) as usize;
            if !self.in_window[u] {
                break u;
            }
        };
        if self.recent.len() == self.window - 1 {
            if let Some(old) = self.recent.pop_front() {
                self.in_window[old as usize] = false;
            }
        }
        if self.window > 1 {
            self.recent.push_back(user as u32);
            self.in_window[user] = true;
        }
        let valuation = Money::from_micro(750_000 + (self.rng.next_u64() % 500_001) as i64);
        let demand = Bw::from_micro(1 + self.rng.next_u64() % 1_000_000);
        (UserId(user as u32), UserBid::new(valuation, demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_user_repeats_within_a_window() {
        for (n_users, window) in [(64, 16), (256, 128), (4, 4), (8, 1)] {
            let mut stream = BidStream::new(7, n_users, window);
            let users: Vec<u32> = (0..5000).map(|_| stream.next_bid().0 .0).collect();
            for run in users.windows(window) {
                let mut seen = vec![false; n_users];
                for &u in run {
                    assert!(!seen[u as usize], "user {u} repeats within {window}");
                    seen[u as usize] = true;
                }
            }
        }
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let a: Vec<_> = {
            let mut s = BidStream::new(3, 64, 16);
            (0..100).map(|_| s.next_bid()).collect()
        };
        let mut s = BidStream::new(3, 64, 16);
        assert!(a.iter().all(|bid| *bid == s.next_bid()));
        let mut other = BidStream::new(4, 64, 16);
        assert!(a.iter().any(|bid| *bid != other.next_bid()));
    }
}
