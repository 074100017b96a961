//! The commit–echo–reveal exchange: the shared engine under rational
//! consensus and the common coin.
//!
//! Every provider contributes a *public part* (its input bits, for
//! consensus; empty, for the coin) and a *hidden random part* it first
//! commits to and later reveals. Three rounds:
//!
//! 1. **COMMIT** — broadcast `(public, H(nonce‖random))`. A provider's
//!    randomness is bound before it can see anyone else's.
//! 2. **ECHO** — broadcast the digests of every round-1 message received.
//!    All echo vectors must agree; a provider that sent different round-1
//!    messages to different peers (equivocation — there are no signatures
//!    in this trust model, exactly as in the paper's prototype) is caught
//!    here and the block aborts with ⊥.
//! 3. **REVEAL** — after *all* commits and echoes are in, broadcast the
//!    opening. A reveal that does not match its commitment aborts.
//!
//! Because honest providers reveal only after holding all `m` commitments,
//! any coalition of `k < m` providers fixes its randomness before seeing
//! `m − k ≥ k + 1` honest contributions, so it cannot bias the combined
//! value — the unbiasability argument of Abraham, Dolev and Halpern's coin
//! that the paper's common-coin block builds on. Any *detectable* deviation
//! collapses the outcome to ⊥ (utility 0), which under solution preference
//! makes following the protocol the best response: this is what makes the
//! blocks built on this engine k-resilient.

use bytes::Bytes;
use dauctioneer_crypto::{sha256, Commitment, CommitmentOpening, Digest};
use dauctioneer_net::{frame, unframe};
use dauctioneer_types::{Decode, Encode, ProviderId, Reader, Writer};

use crate::block::{Block, BlockResult, Ctx};

/// Round tags within one exchange.
const ROUND_COMMIT: u64 = 1;
const ROUND_ECHO: u64 = 2;
const ROUND_REVEAL: u64 = 3;

/// One provider's contribution after a successful exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contribution {
    /// The public part the provider attached to its commit.
    pub public: Bytes,
    /// The random bytes it revealed.
    pub random: Bytes,
}

/// The commit–echo–reveal exchange among all `m` providers.
///
/// Output: one [`Contribution`] per provider (index = provider id), or ⊥.
#[derive(Debug)]
pub struct CommitReveal {
    me: ProviderId,
    m: usize,
    reveal_len: usize,
    opening: Option<CommitmentOpening>,
    /// This provider's encoded round-1 message, built once and broadcast
    /// by [`Block::start`].
    commit_msg: Bytes,
    /// Round-1 payloads per provider: (public, commitment).
    commits: Vec<Option<(Bytes, Commitment)>>,
    /// Digest of each provider's round-1 *message bytes* (for echoing).
    commit_digests: Vec<Option<Digest>>,
    /// Echo vectors per provider.
    echoes: Vec<Option<Vec<Digest>>>,
    /// Revealed randoms per provider.
    reveals: Vec<Option<Bytes>>,
    echoed: bool,
    revealed: bool,
    result: Option<BlockResult<Vec<Contribution>>>,
    /// Reused encode buffer for this exchange's outgoing rounds: one warm
    /// allocation absorbs COMMIT, ECHO and REVEAL instead of each round
    /// growing a fresh [`Writer`].
    scratch: Writer,
}

impl CommitReveal {
    /// Create an exchange where this provider contributes `public` and the
    /// hidden `random` bytes (must be `reveal_len` long — every provider's
    /// random part has a fixed, config-derived length).
    ///
    /// # Panics
    ///
    /// Panics if `random.len() != reveal_len` (a local programming error,
    /// not a protocol condition).
    pub fn new(
        me: ProviderId,
        m: usize,
        public: Bytes,
        random: Bytes,
        nonce: [u8; 32],
        reveal_len: usize,
    ) -> CommitReveal {
        assert_eq!(random.len(), reveal_len, "random part must be exactly reveal_len");
        // The commitment and our round-1 message are each hashed exactly
        // once here; no later round recomputes them from the opening.
        let (commitment, opening) = Commitment::commit(&random, nonce);
        let mut scratch = Writer::new();
        public.encode(&mut scratch);
        scratch.put_slice(commitment.digest().as_bytes());
        let commit_msg = scratch.finish_reset();
        // Record our own contribution as if received.
        let mut commits = vec![None; m];
        let mut commit_digests = vec![None; m];
        commit_digests[me.index()] = Some(sha256(&commit_msg));
        commits[me.index()] = Some((public, commitment));
        CommitReveal {
            me,
            m,
            reveal_len,
            opening: Some(opening),
            commit_msg,
            commits,
            commit_digests,
            echoes: vec![None; m],
            reveals: vec![None; m],
            echoed: false,
            revealed: false,
            result: None,
            scratch,
        }
    }

    fn abort(&mut self) {
        if self.result.is_none() {
            self.result = Some(BlockResult::Abort);
        }
    }

    fn all_commits(&self) -> bool {
        self.commits.iter().all(Option::is_some)
    }

    fn all_echoes(&self) -> bool {
        self.echoes.iter().all(Option::is_some)
    }

    fn all_reveals(&self) -> bool {
        self.reveals.iter().all(Option::is_some)
    }

    /// Advance rounds whenever their prerequisites are complete.
    fn progress(&mut self, ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        if self.all_commits() && !self.echoed {
            self.echoed = true;
            let digests: Vec<Digest> =
                self.commit_digests.iter().map(|d| d.expect("all commits held")).collect();
            self.scratch.put_u64(digests.len() as u64);
            for d in &digests {
                self.scratch.put_slice(d.as_bytes());
            }
            self.echoes[self.me.index()] = Some(digests);
            let msg = self.scratch.finish_reset();
            ctx.broadcast(frame(ROUND_ECHO, &msg));
        }
        if self.echoed {
            // Every echo vector must match ours, or someone equivocated in
            // round 1. Compare eagerly: a mismatch is final no matter what
            // else arrives.
            let mine = self.echoes[self.me.index()].clone().expect("own echo set");
            for echo in self.echoes.iter().flatten() {
                if *echo != mine {
                    self.abort();
                    return;
                }
            }
        }
        if self.echoed && self.all_echoes() && !self.revealed {
            self.revealed = true;
            let opening = self.opening.take().expect("reveal happens once");
            self.scratch.put_slice(opening.nonce());
            self.scratch.put_len_prefixed(opening.payload());
            self.reveals[self.me.index()] = Some(Bytes::copy_from_slice(opening.payload()));
            let msg = self.scratch.finish_reset();
            ctx.broadcast(frame(ROUND_REVEAL, &msg));
        }
        if self.revealed && self.all_reveals() {
            let contributions = self
                .commits
                .iter()
                .zip(&self.reveals)
                .map(|(c, r)| {
                    let (public, _) = c.clone().expect("all commits held");
                    Contribution { public, random: r.clone().expect("all reveals held") }
                })
                .collect();
            self.result = Some(BlockResult::Value(contributions));
        }
    }

    fn on_commit(&mut self, from: ProviderId, payload: &[u8]) {
        if self.commits[from.index()].is_some() {
            // Duplicate round-1 message: protocol violation.
            self.abort();
            return;
        }
        let mut r = Reader::new(payload);
        let public = match Bytes::decode(&mut r) {
            Ok(b) => b,
            Err(_) => return self.abort(),
        };
        let Ok(digest_bytes) = r.get_slice(32) else {
            return self.abort();
        };
        if r.remaining() != 0 {
            return self.abort();
        }
        let commitment =
            Commitment::from_digest(Digest(digest_bytes.try_into().expect("32 bytes")));
        self.commits[from.index()] = Some((public, commitment));
        // Digest over the round-1 payload (without the round frame), the
        // same bytes the sender hashed for its own slot.
        self.commit_digests[from.index()] = Some(sha256(payload));
    }

    fn on_echo(&mut self, from: ProviderId, payload: &[u8]) {
        if self.echoes[from.index()].is_some() {
            self.abort();
            return;
        }
        let mut r = Reader::new(payload);
        let Ok(len) = r.get_u64() else {
            return self.abort();
        };
        if len as usize != self.m {
            return self.abort();
        }
        let mut digests = Vec::with_capacity(self.m);
        for _ in 0..self.m {
            match r.get_slice(32) {
                Ok(s) => digests.push(Digest(s.try_into().expect("32 bytes"))),
                Err(_) => return self.abort(),
            }
        }
        if r.remaining() != 0 {
            return self.abort();
        }
        self.echoes[from.index()] = Some(digests);
    }

    fn on_reveal(&mut self, from: ProviderId, payload: &[u8]) {
        if self.reveals[from.index()].is_some() {
            self.abort();
            return;
        }
        let mut r = Reader::new(payload);
        let Ok(nonce_bytes) = r.get_slice(32) else {
            return self.abort();
        };
        let nonce: [u8; 32] = nonce_bytes.try_into().expect("32 bytes");
        let Ok(random) = r.get_len_prefixed() else {
            return self.abort();
        };
        if r.remaining() != 0 || random.len() != self.reveal_len {
            return self.abort();
        }
        // Verify against the commitment from round 1 (which must precede —
        // our channels are FIFO, but an adversarial schedule across blocks
        // could still deliver oddly; without the commit we cannot verify,
        // and accepting unverified reveals would break unbiasability).
        let Some((_, commitment)) = &self.commits[from.index()] else {
            return self.abort();
        };
        let opening = CommitmentOpening::from_parts(nonce, random.to_vec());
        if !commitment.verify(&opening) {
            return self.abort();
        }
        self.reveals[from.index()] = Some(Bytes::copy_from_slice(random));
    }
}

impl Block for CommitReveal {
    type Output = Vec<Contribution>;

    fn start(&mut self, ctx: &mut dyn Ctx) {
        ctx.broadcast(frame(ROUND_COMMIT, &self.commit_msg));
        self.progress(ctx);
    }

    fn on_message(&mut self, from: ProviderId, payload: &[u8], ctx: &mut dyn Ctx) {
        if self.result.is_some() {
            return;
        }
        if from == self.me || from.index() >= self.m {
            self.abort();
            return;
        }
        let Ok((round, inner)) = unframe(payload) else {
            self.abort();
            return;
        };
        match round {
            ROUND_COMMIT => self.on_commit(from, inner),
            ROUND_ECHO => self.on_echo(from, inner),
            ROUND_REVEAL => self.on_reveal(from, inner),
            _ => self.abort(),
        }
        self.progress(ctx);
    }

    fn result(&self) -> Option<&BlockResult<Vec<Contribution>>> {
        self.result.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::OutboxCtx;

    /// Drive `m` exchanges to completion by synchronously delivering all
    /// queued messages until quiescence; returns each block's result.
    fn run_all(blocks: &mut [CommitReveal]) -> Vec<Option<BlockResult<Vec<Contribution>>>> {
        let m = blocks.len();
        let mut ctxs: Vec<OutboxCtx> =
            (0..m).map(|i| OutboxCtx::new(ProviderId(i as u32), m)).collect();
        for (b, c) in blocks.iter_mut().zip(&mut ctxs) {
            b.start(c);
        }
        loop {
            let mut moved = false;
            for i in 0..m {
                for (to, payload) in ctxs[i].drain() {
                    moved = true;
                    let from = ProviderId(i as u32);
                    // Split borrow: deliver into a fresh ctx then merge.
                    let mut ctx = OutboxCtx::new(to, m);
                    blocks[to.index()].on_message(from, &payload, &mut ctx);
                    ctxs[to.index()].outbox.extend(ctx.drain());
                }
            }
            if !moved {
                break;
            }
        }
        blocks.iter().map(|b| b.result().cloned()).collect()
    }

    fn make(me: u32, m: usize, public: &[u8], random: &[u8]) -> CommitReveal {
        CommitReveal::new(
            ProviderId(me),
            m,
            Bytes::copy_from_slice(public),
            Bytes::copy_from_slice(random),
            [me as u8 + 1; 32],
            random.len(),
        )
    }

    #[test]
    fn honest_exchange_completes_with_all_contributions() {
        let m = 4;
        let mut blocks: Vec<CommitReveal> =
            (0..m).map(|i| make(i as u32, m, &[i as u8], &[i as u8; 8])).collect();
        let results = run_all(&mut blocks);
        for r in &results {
            let contributions = r.as_ref().unwrap().as_value().unwrap();
            assert_eq!(contributions.len(), m);
            for (i, c) in contributions.iter().enumerate() {
                assert_eq!(&c.public[..], &[i as u8]);
                assert_eq!(&c.random[..], &[i as u8; 8]);
            }
        }
    }

    #[test]
    fn all_providers_see_identical_contributions() {
        let m = 3;
        let mut blocks: Vec<CommitReveal> =
            (0..m).map(|i| make(i as u32, m, b"pub", &[i as u8; 4])).collect();
        let results = run_all(&mut blocks);
        let first = results[0].as_ref().unwrap().as_value().unwrap().clone();
        for r in &results[1..] {
            assert_eq!(r.as_ref().unwrap().as_value().unwrap(), &first);
        }
    }

    #[test]
    fn wrong_reveal_length_rejected_at_construction() {
        let result = std::panic::catch_unwind(|| {
            CommitReveal::new(ProviderId(0), 2, Bytes::new(), Bytes::from_static(b"xy"), [0; 32], 4)
        });
        assert!(result.is_err());
    }

    #[test]
    fn malformed_message_aborts() {
        let m = 2;
        let mut block = make(0, m, b"p", &[0; 4]);
        let mut ctx = OutboxCtx::new(ProviderId(0), m);
        block.start(&mut ctx);
        block.on_message(ProviderId(1), b"garbage", &mut ctx); // too short to unframe
        assert_eq!(block.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn unknown_round_aborts() {
        let m = 2;
        let mut block = make(0, m, b"p", &[0; 4]);
        let mut ctx = OutboxCtx::new(ProviderId(0), m);
        block.start(&mut ctx);
        block.on_message(ProviderId(1), &frame(9, b"x"), &mut ctx);
        assert_eq!(block.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn duplicate_commit_aborts() {
        let m = 3;
        let mut alice = make(0, m, b"p", &[0; 4]);
        let bob = make(1, m, b"p", &[1; 4]);
        let mut ctx = OutboxCtx::new(ProviderId(0), m);
        alice.start(&mut ctx);
        let bob_commit = frame(ROUND_COMMIT, &bob.commit_msg);
        alice.on_message(ProviderId(1), &bob_commit, &mut ctx);
        assert!(alice.result().is_none());
        alice.on_message(ProviderId(1), &bob_commit, &mut ctx);
        assert_eq!(alice.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn equivocating_commit_is_caught_by_echo_comparison() {
        // Provider 2 sends different round-1 messages to 0 and 1. Drive the
        // protocol by hand far enough for echoes to cross.
        let m = 3;
        let mut p0 = make(0, m, b"x", &[0; 4]);
        let mut p1 = make(1, m, b"x", &[1; 4]);
        let p2a = make(2, m, b"x", &[2; 4]);
        let p2b = make(2, m, b"DIFFERENT", &[9; 4]);
        let mut c0 = OutboxCtx::new(ProviderId(0), m);
        let mut c1 = OutboxCtx::new(ProviderId(1), m);
        p0.start(&mut c0);
        p1.start(&mut c1);
        // Exchange 0 ↔ 1 commits.
        for (to, payload) in c0.drain() {
            if to == ProviderId(1) {
                p1.on_message(ProviderId(0), &payload, &mut c1);
            }
        }
        for (to, payload) in c1.drain() {
            if to == ProviderId(0) {
                p0.on_message(ProviderId(1), &payload, &mut c0);
            }
        }
        // Equivocated commits from "provider 2".
        let commit_a = frame(ROUND_COMMIT, &p2a.commit_msg);
        let commit_b = frame(ROUND_COMMIT, &p2b.commit_msg);
        p0.on_message(ProviderId(2), &commit_a, &mut c0);
        p1.on_message(ProviderId(2), &commit_b, &mut c1);
        // Both now have all commits and echo; cross-deliver the echoes.
        let echoes0 = c0.drain();
        for (to, payload) in echoes0 {
            if to == ProviderId(1) {
                p1.on_message(ProviderId(0), &payload, &mut c1);
            }
        }
        // p1 sees p0's echo disagreeing about provider 2's digest → ⊥.
        assert_eq!(p1.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn false_reveal_aborts() {
        let m = 2;
        let mut p0 = make(0, m, b"x", &[0; 4]);
        let p1 = make(1, m, b"x", &[1; 4]);
        let mut c0 = OutboxCtx::new(ProviderId(0), m);
        p0.start(&mut c0);
        // Deliver p1's commit and echo honestly.
        let commit1 = frame(ROUND_COMMIT, &p1.commit_msg);
        p0.on_message(ProviderId(1), &commit1, &mut c0);
        // Build p1's echo = digests of both round-1 payloads (same view as
        // p0: digests are over the unframed commit message).
        let own_msg0 = p0.commit_digests[0].unwrap();
        let msg1_digest = sha256(&p1.commit_msg);
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_slice(own_msg0.as_bytes());
        w.put_slice(msg1_digest.as_bytes());
        p0.on_message(ProviderId(1), &frame(ROUND_ECHO, &w.finish()), &mut c0);
        assert!(p0.result().is_none(), "still awaiting reveal");
        // A reveal that does not match the commitment.
        let mut w = Writer::new();
        w.put_slice(&[7u8; 32]);
        w.put_len_prefixed(&[9u8; 4]);
        p0.on_message(ProviderId(1), &frame(ROUND_REVEAL, &w.finish()), &mut c0);
        assert_eq!(p0.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn reveal_before_commit_aborts() {
        let m = 2;
        let mut p0 = make(0, m, b"x", &[0; 4]);
        let mut c0 = OutboxCtx::new(ProviderId(0), m);
        p0.start(&mut c0);
        let mut w = Writer::new();
        w.put_slice(&[1u8; 32]);
        w.put_len_prefixed(&[1u8; 4]);
        p0.on_message(ProviderId(1), &frame(ROUND_REVEAL, &w.finish()), &mut c0);
        assert_eq!(p0.result(), Some(&BlockResult::Abort));
    }

    #[test]
    fn message_claiming_to_be_from_self_aborts() {
        let m = 2;
        let mut p0 = make(0, m, b"x", &[0; 4]);
        let mut c0 = OutboxCtx::new(ProviderId(0), m);
        p0.start(&mut c0);
        p0.on_message(ProviderId(0), &frame(ROUND_COMMIT, b""), &mut c0);
        assert_eq!(p0.result(), Some(&BlockResult::Abort));
    }
}
