//! Differential: the incidence-indexed solver core is **bitwise identical**
//! to the frozen pre-refactor reference (`mlf_core::reference`).
//!
//! The optimized engines replace the reference's `links × sessions ×
//! receivers` rescans with CSR incidence iteration and incrementally
//! maintained per-slot aggregates; their contract is that every produced
//! bit — rates, freeze reasons, iteration counts — matches the old scans.
//! These tests drive that claim across all four `TopologyFamily` variants
//! crossed with every link-rate model (including the nonlinear
//! `RandomJoin` bisection path), randomized session-type mixes and κ caps,
//! plus the weighted and unicast engines.

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace, Unicast, Weighted};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes, Weights};
use mlf_net::topology::{random_network_with, random_tree, SplitMix64};
use mlf_net::{Network, NodeId, Session, SessionId, SessionType, TopologyFamily};
use proptest::prelude::*;

mod common;
use common::assert_bitwise;

const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 3 },
    TopologyFamily::Dumbbell,
];

const MODELS: [LinkRateModel; 4] = [
    LinkRateModel::Efficient,
    LinkRateModel::Scaled(2.0),
    LinkRateModel::Sum,
    LinkRateModel::RandomJoin { sigma: 4.0 },
];

/// A random network of the given family, with a deterministic sprinkle of
/// single-rate sessions and κ caps derived from the seed.
fn mixed_network(family: TopologyFamily, seed: u64, nodes: usize) -> Network {
    let mut net = random_network_with(family, seed, nodes, 5, 4).unwrap();
    let mut rng = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in 0..net.session_count() {
        if rng.below(3) == 0 {
            net = net.with_session_kind(SessionId(i), SessionType::SingleRate);
        }
    }
    let mut sessions = net.sessions().to_vec();
    for s in sessions.iter_mut() {
        if rng.below(3) == 0 {
            s.max_rate = 0.5 + rng.below(40) as f64 * 0.25;
        }
    }
    Network::with_routes(net.graph().clone(), sessions, net.routes().to_vec())
        .expect("same routes remain valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hybrid (declared session types) under every model × family: the
    /// full generalized progressive-filling engine, linear and bisection
    /// paths alike.
    #[test]
    fn hybrid_matches_reference(
        seed in any::<u64>(),
        nodes in 6usize..24,
        family_ix in 0usize..4,
        model_ix in 0usize..4,
    ) {
        let family = FAMILIES[family_ix];
        let model = MODELS[model_ix];
        let net = mixed_network(family, seed, nodes);
        let cfg = LinkRateConfig::uniform(net.session_count(), model);
        let mut ws = SolverWorkspace::new();
        let optimized = Hybrid::as_declared()
            .with_config(cfg.clone())
            .solve(&net, &mut ws);
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(
            &format!("{}/{:?}/seed {seed}", family.label(), model),
            &optimized,
            &reference,
        );
    }

    /// Per-session model mixes (different models on one link) through a
    /// reused workspace — aggregate state must not leak across solves.
    #[test]
    fn mixed_models_match_reference(seed in any::<u64>(), nodes in 6usize..20) {
        let net = mixed_network(TopologyFamily::FlatTree, seed, nodes);
        let mut cfg = LinkRateConfig::efficient(net.session_count());
        for i in 0..net.session_count() {
            cfg = cfg.with_session(i, MODELS[(seed as usize + i) % MODELS.len()]);
        }
        let mut ws = SolverWorkspace::new();
        for _ in 0..2 {
            let optimized = Hybrid::as_declared()
                .with_config(cfg.clone())
                .solve(&net, &mut ws);
            let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
            assert_bitwise(&format!("mixed/seed {seed}"), &optimized, &reference);
        }
    }

    /// The weighted engine against its reference, with deterministic
    /// pseudo-random weights.
    #[test]
    fn weighted_matches_reference(seed in any::<u64>(), nodes in 6usize..20, family_ix in 0usize..4) {
        let net = random_network_with(FAMILIES[family_ix], seed, nodes, 4, 4).unwrap();
        let w = Weights::from_values(
            net.sessions()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (0..s.receivers.len())
                        .map(|k| 0.5 + ((seed as usize + 3 * i + 7 * k) % 9) as f64 * 0.375)
                        .collect()
                })
                .collect(),
        );
        let mut ws = SolverWorkspace::new();
        let optimized = Weighted::new(w.clone()).solve(&net, &mut ws);
        let reference = reference::weighted_solve(&net, &w);
        assert_bitwise(&format!("weighted/seed {seed}"), &optimized, &reference);
    }
}

/// The unicast engine against its reference on random all-unicast trees.
#[test]
fn unicast_matches_reference() {
    let mut rng = SplitMix64(0xD1FF_EE12_71A1 ^ 0xABCD);
    let mut ws = SolverWorkspace::new();
    for seed in 0..60u64 {
        let g = random_tree(seed, 12, 1.0, 8.0);
        let nodes = g.node_count();
        let mut sessions = Vec::new();
        for s in 0..5 {
            let from = NodeId((seed as usize + s) % nodes);
            let mut to = NodeId(rng.below(nodes));
            if to == from {
                to = NodeId((to.0 + 1) % nodes);
            }
            let mut sess = Session::unicast(from, to);
            if rng.below(3) == 0 {
                sess = sess.with_max_rate(0.5 + rng.below(20) as f64 * 0.3);
            }
            sessions.push(sess);
        }
        let net = Network::new(g, sessions).unwrap();
        let optimized = Unicast::new().solve(&net, &mut ws);
        let reference = reference::unicast_solve(&net);
        assert_bitwise(&format!("unicast/seed {seed}"), &optimized, &reference);
    }
}

/// Grid sweeps under scenario-level `Uniform` link rates: the parallel
/// executor reproduces the serial grid bitwise across every topology
/// family.
#[test]
fn uniform_rate_grid_sweeps_match_serial_across_families() {
    use mlf_core::allocator::MultiRate;
    use mlf_scenario::{LinkRates, Scenario, SweepGrid};

    for family in FAMILIES {
        let grid = SweepGrid::seeds(0..6)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let mut scenario = Scenario::builder()
            .label(family.label())
            .random_networks_with(family, 16, 4, 4)
            .link_rates(LinkRates::Uniform(LinkRateModel::Efficient))
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let serial = scenario.sweep_grid(&grid);
        for threads in [2usize, 5] {
            let par = scenario.sweep_grid_par(&grid, threads);
            assert_eq!(serial, par, "{} at {threads} threads", family.label());
        }
    }
}

/// The paper's fixture networks, for good measure (fixed shapes exercise
/// free riders and single-rate closures deliberately).
#[test]
fn paper_figures_match_reference() {
    for (label, net) in [
        ("figure1", mlf_net::paper::figure1().network),
        ("figure2", mlf_net::paper::figure2().network),
        ("figure3a", mlf_net::paper::figure3a().network),
    ] {
        let cfg = LinkRateConfig::efficient(net.session_count());
        let mut ws = SolverWorkspace::new();
        let optimized = Hybrid::as_declared().solve(&net, &mut ws);
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(label, &optimized, &reference);
    }
}
