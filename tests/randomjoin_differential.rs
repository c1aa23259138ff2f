//! Differential: the optimized solver's `RandomJoin` path (the paper's
//! Appendix B link rate `σ(1 − ∏(1 − a_t/σ))`, the only one solved by
//! bisection) is **bitwise identical** to the frozen
//! `mlf_core::reference` engine — rates by `to_bits`, freeze reasons and
//! iteration counts.
//!
//! The optimized bisection stops as soon as a link can no longer set the
//! next water level, and evaluates the load in place. Both are exact only
//! if no skipped search would have landed below the running minimum, so
//! besides a seeded grid on the Figure-5 shape this file builds the
//! near-tie networks where an inexact skip would show: identical
//! bottlenecks, capacities one part in 10¹⁴ apart, and a link saturated at
//! the current level ahead of links that would have bisected.
//!
//! The grid's `#[ignore]`d twin runs the same grid over 3,000 seeds
//! (108,000 solves): `cargo test --release --test randomjoin_differential
//! -- --ignored`.

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes};
use mlf_net::topology::{random_network_with, SplitMix64};
use mlf_net::{Graph, Network, Session, SessionId, SessionType, TopologyFamily};
use std::ops::Range;

mod common;
use common::assert_bitwise;

/// The four topology families of the Figure-5 network sweep.
const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 4 },
    TopologyFamily::Dumbbell,
];

/// `(nodes, sessions, max receivers per session)`: the Figure-5 shape,
/// then a small dense one and a larger one.
const SHAPES: [(usize, usize, usize); 3] = [(30, 8, 5), (12, 4, 4), (48, 12, 6)];

/// The per-session models a mixed configuration draws from, so
/// `RandomJoin` sessions share links with linear ones.
const MIX: [LinkRateModel; 5] = [
    LinkRateModel::RandomJoin { sigma: 6.0 },
    LinkRateModel::RandomJoin { sigma: 2.5 },
    LinkRateModel::Efficient,
    LinkRateModel::Scaled(2.0),
    LinkRateModel::Sum,
];

/// Solve through a reused workspace and against the frozen reference, and
/// assert every bit agrees.
fn check(label: &str, net: &Network, cfg: &LinkRateConfig, ws: &mut SolverWorkspace) {
    let optimized = Hybrid::as_declared()
        .with_config(cfg.clone())
        .solve(net, ws);
    let reference = reference::solve_in(net, cfg, &Regimes::AsDeclared);
    assert_bitwise(label, &optimized, &reference);
}

/// A random network of the given family and shape; odd seeds turn about a
/// third of the sessions single-rate.
fn network(family: TopologyFamily, seed: u64, shape: (usize, usize, usize)) -> Network {
    let (nodes, sessions, receivers) = shape;
    let mut net = random_network_with(family, seed, nodes, sessions, receivers).unwrap();
    if seed % 2 == 1 {
        let mut rng = SplitMix64(seed ^ 0x5EED_5EED_5EED_5EED);
        for i in 0..net.session_count() {
            if rng.below(3) == 0 {
                net = net.with_session_kind(SessionId(i), SessionType::SingleRate);
            }
        }
    }
    net
}

/// The three link-rate configurations of the grid: uniform `RandomJoin` at
/// σ = 6 (the Figure-5 sweep's), at σ = 2.5, and a per-session mix whose
/// first session is always `RandomJoin`.
fn configs(net: &Network, seed: u64) -> [LinkRateConfig; 3] {
    let m = net.session_count();
    let mut rng = SplitMix64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mixed = (1..m).fold(LinkRateConfig::uniform(m, MIX[0]), |cfg, i| {
        cfg.with_session(i, MIX[rng.below(MIX.len())])
    });
    [
        LinkRateConfig::uniform(m, LinkRateModel::RandomJoin { sigma: 6.0 }),
        LinkRateConfig::uniform(m, LinkRateModel::RandomJoin { sigma: 2.5 }),
        mixed,
    ]
}

/// Every seed × family × shape × configuration, one workspace per family
/// so aggregate state must not leak across solves. Returns the solve count.
fn check_grid(seeds: Range<u64>) -> usize {
    let mut solves = 0;
    for family in FAMILIES {
        let mut ws = SolverWorkspace::new();
        for seed in seeds.clone() {
            for shape in SHAPES {
                let net = network(family, seed, shape);
                for (c, cfg) in configs(&net, seed).iter().enumerate() {
                    let label = format!("{}/seed {seed}/{shape:?}/config {c}", family.label());
                    check(&label, &net, cfg, &mut ws);
                    solves += 1;
                }
            }
        }
    }
    solves
}

#[test]
fn random_join_grid_matches_reference() {
    assert_eq!(check_grid(0..56), 2_016);
}

#[test]
#[ignore = "scale leg (108,000 solves, ≈40 s in release on 2 cores); CI runs it with --ignored"]
fn random_join_grid_matches_reference_at_scale() {
    assert_eq!(check_grid(0..3_000), 108_000);
}

/// A source behind a roomy root link, fanning out over one branch link per
/// entry of `branches`; each branch ends in a hub with `receivers` leaves,
/// and one multi-rate session per branch takes that hub's leaves.
fn branches_network(branches: &[f64], receivers: usize) -> Network {
    let mut g = Graph::new();
    let src = g.add_node();
    let root = g.add_node();
    g.add_link(src, root, 1_000.0).unwrap();
    let mut sessions = Vec::new();
    for &cap in branches {
        let hub = g.add_node();
        g.add_link(root, hub, cap).unwrap();
        let leaves: Vec<_> = (0..receivers)
            .map(|_| {
                let leaf = g.add_node();
                g.add_link(hub, leaf, 1_000.0).unwrap();
                leaf
            })
            .collect();
        sessions.push(Session::multi_rate(src, leaves));
    }
    Network::new(g, sessions).unwrap()
}

fn random_join(net: &Network, sigma: f64) -> LinkRateConfig {
    LinkRateConfig::uniform(net.session_count(), LinkRateModel::RandomJoin { sigma })
}

#[test]
fn identical_parallel_bottlenecks_match_reference() {
    // Two branches with the same capacity and receiver set saturate at the
    // same level: the second one's search meets the cut-off exactly.
    let mut ws = SolverWorkspace::new();
    for sigma in [6.0, 2.5] {
        for cap in [1.0, 3.0, 7.25] {
            for receivers in 1..=4 {
                let net = branches_network(&[cap, cap], receivers);
                let label = format!("parallel/σ {sigma}/c {cap}/{receivers} receivers");
                check(&label, &net, &random_join(&net, sigma), &mut ws);
            }
        }
    }
}

#[test]
fn identical_bottlenecks_in_series_match_reference() {
    // One session over two equal links in a row: both saturate at the same
    // level, and the freeze reason must name the first.
    let mut ws = SolverWorkspace::new();
    for sigma in [6.0, 2.5] {
        for cap in [1.0, 3.0, 7.25] {
            let mut g = Graph::new();
            let n = g.add_nodes(5);
            g.add_link(n[0], n[1], cap).unwrap();
            g.add_link(n[1], n[2], cap).unwrap();
            g.add_link(n[2], n[3], 1_000.0).unwrap();
            g.add_link(n[2], n[4], 1_000.0).unwrap();
            let net = Network::new(
                g,
                vec![
                    Session::multi_rate(n[0], vec![n[3], n[4]]),
                    Session::unicast(n[0], n[4]),
                ],
            )
            .unwrap();
            let label = format!("series/σ {sigma}/c {cap}");
            check(&label, &net, &random_join(&net, sigma), &mut ws);
            let mixed = random_join(&net, sigma).with_session(1, LinkRateModel::Efficient);
            check(&format!("{label}/mixed"), &net, &mixed, &mut ws);
        }
    }
}

#[test]
fn capacities_one_part_in_1e14_apart_match_reference() {
    // The two saturation levels differ by less than the bisection's
    // tolerance, in either link order.
    let mut ws = SolverWorkspace::new();
    for sigma in [6.0, 2.5] {
        for cap in [1.0, 3.0, 7.25] {
            let near = cap * (1.0 + 1e-14);
            assert!(near > cap, "the perturbation must survive rounding");
            for receivers in 1..=4 {
                for branches in [[cap, near], [near, cap]] {
                    let net = branches_network(&branches, receivers);
                    let label = format!("near-tie/σ {sigma}/{branches:?}/{receivers} receivers");
                    check(&label, &net, &random_join(&net, sigma), &mut ws);
                }
            }
        }
    }
}

#[test]
fn a_link_saturated_at_the_current_level_cuts_off_later_links() {
    // The first branch is full at level 0, so every later branch — each of
    // which would otherwise bisect — meets a cut-off equal to the level.
    let mut ws = SolverWorkspace::new();
    for sigma in [6.0, 2.5] {
        for receivers in 1..=3 {
            let net = branches_network(&[1e-12, 2.0, 3.5, 2.0, 5.0], receivers);
            let label = format!("saturated-first/σ {sigma}/{receivers} receivers");
            check(&label, &net, &random_join(&net, sigma), &mut ws);
            let mixed = random_join(&net, sigma)
                .with_session(2, LinkRateModel::Efficient)
                .with_session(4, LinkRateModel::Sum);
            check(&format!("{label}/mixed"), &net, &mixed, &mut ws);
        }
    }
}
