//! Byte-level pins on whole sessions: three fixed-seed double-auction
//! sessions at the benchmark's epoch shape (m = 3, k = 1, n = 256 user
//! slots holding 128 bids, one ask per provider). Each pin is the SHA-256
//! of the encoded unanimous outcome plus the mesh's exact message and byte
//! totals, so a change meant to leave the protocol's outputs and wire
//! untouched (a hashing or encoding optimisation) must reproduce every
//! value here exactly.

use std::sync::Arc;

use dauctioneer_core::{run_session, DoubleAuctionProgram, FrameworkConfig, RunOptions};
use dauctioneer_crypto::sha256;
use dauctioneer_types::{BidVector, Bw, Encode, Money, ProviderAsk, UserBid};

const M: usize = 3;
const N_USERS: usize = 256;
const BIDS: usize = 128;

/// SplitMix64: a fixed generator, so the pinned bids never depend on an
/// external RNG's stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `BIDS` bids in distinct slots (one of each even/odd pair) and `M` asks.
fn bids(seed: u64) -> BidVector {
    let mut state = seed;
    let mut unit = || (splitmix(&mut state) % 1000) as f64 / 1000.0;
    let mut b = BidVector::builder(N_USERS, M);
    for i in 0..BIDS {
        let slot = 2 * i + (unit() < 0.5) as usize;
        let bid = UserBid::new(Money::from_f64(0.1 + 1.9 * unit()), Bw::from_f64(0.1 + unit()));
        b = b.user_bid(slot, bid);
    }
    for j in 0..M {
        let ask = ProviderAsk::new(Money::from_f64(0.2 + 0.2 * unit()), Bw::from_f64(20.0));
        b = b.provider_ask(j, ask);
    }
    b.build()
}

/// `(outcome SHA-256, messages, bytes)` of one honest session.
fn pin(seed: u64) -> (String, u64, u64) {
    let report = run_session(
        &FrameworkConfig::new(M, 1, N_USERS, M),
        Arc::new(DoubleAuctionProgram::new()),
        vec![bids(seed); M],
        &RunOptions { seed, ..RunOptions::default() },
    );
    let outcome = report.unanimous();
    assert!(!outcome.is_abort(), "seed {seed}: an honest session must clear");
    let digest = sha256(&outcome.encode_to_bytes()).to_hex();
    (digest, report.traffic.total_messages(), report.traffic.total_bytes())
}

#[test]
fn outcomes_and_traffic_match_the_pinned_bytes() {
    // Recorded from runs; they equal the serve-saturate benchmark's exact
    // per-epoch wire counts (42 messages, 70,566 bytes).
    let pinned: [(u64, &str, u64, u64); 3] = [
        (1, "b20de3de017af31b37892c866f5537e999320fe9ca654c9d6149296e2d9fbf2e", 42, 70_566),
        (7, "22511edd400ba13369084e09c4c27383cd34f350852c1371bc31d48ac513207d", 42, 70_566),
        (42, "f3d38e6d4f421910a36015d12958cc678fc089140f1f7f6fb488185c1dca4b46", 42, 70_566),
    ];
    for (seed, digest, msgs, bytes) in pinned {
        assert_eq!(pin(seed), (digest.to_string(), msgs, bytes), "seed {seed}");
    }
}
