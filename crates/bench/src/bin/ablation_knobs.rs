//! **Ablation A2**: the design knobs called out in `docs/ARCHITECTURE.md`
//! ("The building blocks (§4)" and "Where the trust model is weaker than
//! it looks").
//!
//! 1. `validation: full vs hash` — input validation broadcasting the full
//!    agreed vector (faithful to the paper) vs a 32-byte digest.
//! 2. `ε sweep` — the (1−ε) dial of the standard auction: solution
//!    quality (welfare fraction of the exact optimum) vs solve time.
//! 3. `solver vs greedy` — what the expensive welfare maximisation buys
//!    over the fast heuristic.
//!
//! ```text
//! cargo run --release -p dauctioneer-bench --bin ablation_knobs [--csv] [--rounds N]
//! ```

use std::sync::Arc;

use dauctioneer_bench::{fmt_secs, time_once, CommonArgs, Stats, Table};
use dauctioneer_core::{DoubleAuctionProgram, FrameworkConfig};
use dauctioneer_mechanisms::solver::{
    solve_branch_bound, solve_greedy, BranchBoundConfig, Instance,
};
use dauctioneer_sim::{run_timed_auction, LinkModel};
use dauctioneer_types::{BidVector, Bw, Money, UserBid};
use dauctioneer_workload::{DoubleAuctionWorkload, StandardAuctionWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A node-heavy multiple-knapsack instance: near-uniform value densities
/// with tight capacities, so the fractional bound barely prunes.
fn hard_instance(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = BidVector::builder(n, 0);
    let mut total = 0.0;
    for i in 0..n {
        let v = 1.0 + rng.gen_range(-0.02..0.02);
        let d = rng.gen_range(0.3..0.7);
        total += d;
        b = b.user_bid(i, UserBid::new(Money::from_f64(v), Bw::from_f64(d)));
    }
    let caps = vec![Bw::from_f64(total * 0.19), Bw::from_f64(total * 0.18)];
    Instance::from_bids(&b.build(), &caps)
}

fn main() {
    let args = CommonArgs::parse(3);

    // Knob 1: validation payload.
    eprintln!("ablation A2.1: input validation, full vector vs hash-only (m=8, k=3)");
    let mut t1 = Table::new(&["n", "validation=full", "validation=hash"], args.csv);
    for n in if args.quick { vec![200usize] } else { vec![200usize, 1000] } {
        let bids = DoubleAuctionWorkload::new(n, 8, 0).generate();
        let mut cells = vec![n.to_string()];
        for hash_only in [false, true] {
            let stats = Stats::of(
                &(0..args.rounds)
                    .map(|r| {
                        let cfg =
                            FrameworkConfig::new(8, 3, n, 8).with_hash_only_validation(hash_only);
                        let report = run_timed_auction(
                            &cfg,
                            Arc::new(DoubleAuctionProgram::new()),
                            vec![bids.clone(); 8],
                            LinkModel::community_net(),
                            r as u64,
                        );
                        assert!(!report.unanimous().is_abort());
                        report.span.expect("decided")
                    })
                    .collect::<Vec<_>>(),
            );
            cells.push(fmt_secs(stats.mean_s));
        }
        t1.row(cells);
    }
    println!("{}", t1.render());

    // Knob 2: the ε dial, on a deliberately hard instance (near-uniform
    // value densities with tight capacity — the regime where the
    // branch-and-bound's feasible space explodes).
    eprintln!("ablation A2.2: epsilon sweep on a hard knapsack instance (n=24, m=2)");
    let mut t2 = Table::new(&["epsilon", "welfare fraction", "nodes", "time"], args.csv);
    let instance = hard_instance(24, 1);
    let exact_cfg =
        BranchBoundConfig { epsilon_ppm: 0, max_nodes: u64::MAX, shuffle_providers: true };
    let (exact, _) = solve_branch_bound(&instance, exact_cfg, &mut StdRng::seed_from_u64(1));
    for eps_ppm in [0u32, 10_000, 50_000, 100_000, 250_000] {
        let cfg = BranchBoundConfig { epsilon_ppm: eps_ppm, ..exact_cfg };
        let ((solution, stats), elapsed) =
            time_once(|| solve_branch_bound(&instance, cfg, &mut StdRng::seed_from_u64(1)));
        let fraction = solution.welfare.micro() as f64 / exact.welfare.micro() as f64;
        t2.row(vec![
            format!("{:.2}", eps_ppm as f64 / 1_000_000.0),
            format!("{fraction:.4}"),
            stats.nodes.to_string(),
            fmt_secs(elapsed.as_secs_f64()),
        ]);
    }
    println!("{}", t2.render());

    // Knob 3: solver vs greedy welfare.
    eprintln!("ablation A2.3: branch-and-bound vs greedy welfare across seeds (n=16, m=4)");
    let mut t3 = Table::new(&["seed", "greedy welfare", "b&b welfare", "gain"], args.csv);
    for seed in 0..5u64 {
        let (bids, capacities) = StandardAuctionWorkload::new(16, 4, seed).generate();
        let instance = Instance::from_bids(&bids, &capacities);
        let greedy = solve_greedy(&instance);
        let (bb, _) = solve_branch_bound(
            &instance,
            BranchBoundConfig { epsilon_ppm: 0, max_nodes: 5_000_000, shuffle_providers: true },
            &mut StdRng::seed_from_u64(seed),
        );
        let gain = if greedy.welfare.micro() == 0 {
            0.0
        } else {
            bb.welfare.micro() as f64 / greedy.welfare.micro() as f64 - 1.0
        };
        t3.row(vec![
            seed.to_string(),
            greedy.welfare.to_string(),
            bb.welfare.to_string(),
            format!("{:+.2}%", gain * 100.0),
        ]);
    }
    println!("{}", t3.render());
    println!("# hash-only validation trims bytes but not rounds; epsilon buys large node");
    println!("# savings for tiny welfare loss; exact search beats greedy by a few percent.");
}
