//! Gates the incidence-indexed solver on solver-bound workloads: large
//! GT-ITM-style transit–stub hierarchies and wide high-fanout k-ary trees,
//! swept over a `seeds × link-rate models` grid of the three linear models
//! (Efficient, Scaled(2) and Sum).
//!
//! 1. **Determinism**: each workload's parallel grid sweep is asserted
//!    bitwise identical to the serial one at 2 and 4 threads.
//! 2. **Linear solve floors**: per model, over both workloads' networks,
//!    every optimized solve is asserted bitwise equal to the frozen
//!    `mlf_core::reference::solve_in`, then the reference must take at
//!    least the model's floor in [`FLOORS`] times as long as the optimized
//!    solver.
//!
//! `cargo bench -p mlf-bench --bench solver_hot_path`

use mlf_bench::paired::{assert_bitwise, assert_floor, median_time_ratio};
use mlf_core::allocator::{Allocator, MultiRate, SolverWorkspace};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes};
use mlf_net::topology::random_network_with;
use mlf_net::{Network, SessionType, TopologyFamily};
use mlf_scenario::{Scenario, SweepGrid};
use std::hint::black_box;
use std::ops::Range;

/// Each linear model with its least reference/optimized solve time.
/// Calibrated on a 2-core x86-64 container, where the medians on the code
/// as it stands were 2.54-2.82 (Efficient), 2.33-2.58 (Scaled) and
/// 2.10-2.24 (Sum): each floor catches a solve 1.43x as slow from the top
/// of its model's range.
const FLOORS: [(LinkRateModel, f64); 3] = [
    (LinkRateModel::Efficient, 2.2),
    (LinkRateModel::Scaled(2.0), 2.0),
    (LinkRateModel::Sum, 1.8),
];

/// One solver-bound workload: a topology family at scale.
struct Workload {
    label: &'static str,
    family: TopologyFamily,
    nodes: usize,
    sessions: usize,
    max_receivers: usize,
}

const SEEDS: Range<u64> = 0..24;

const WORKLOADS: [Workload; 2] = [
    Workload {
        label: "transit-stub-96",
        family: TopologyFamily::TransitStub { transit: 8 },
        nodes: 96,
        sessions: 12,
        max_receivers: 6,
    },
    Workload {
        label: "kary-85",
        family: TopologyFamily::KaryTree { arity: 4 },
        nodes: 85,
        sessions: 10,
        max_receivers: 8,
    },
];

fn assert_parallel_agreement() {
    let grid = SweepGrid::seeds(SEEDS).with_models(FLOORS.map(|(model, _)| model));
    for w in &WORKLOADS {
        let mut scenario = Scenario::builder()
            .label(format!("solver-hot-path/{}", w.label))
            .random_networks_with(w.family, w.nodes, w.sessions, w.max_receivers)
            .allocator(MultiRate::new())
            .build()
            .expect("valid hot-path scenario");
        let serial = scenario.sweep_grid(&grid);
        for threads in [2usize, 4] {
            let par = scenario.sweep_grid_par(&grid, threads);
            assert_eq!(
                serial, par,
                "{}: parallel diverged at {threads} threads",
                w.label
            );
        }
    }
    println!(
        "determinism: parallel grid sweeps bitwise-identical to serial across {} workloads",
        WORKLOADS.len()
    );
}

/// Both workloads' networks, as the grid sweep builds them.
fn networks() -> Vec<Network> {
    WORKLOADS
        .iter()
        .flat_map(|w| {
            SEEDS.map(move |seed| {
                random_network_with(w.family, seed, w.nodes, w.sessions, w.max_receivers)
                    .expect("workload shapes are valid")
            })
        })
        .collect()
}

fn main() {
    assert_parallel_agreement();

    let nets = networks();
    let regimes = Regimes::Uniform(SessionType::MultiRate);
    let mut ws = SolverWorkspace::new();
    for (model, floor) in FLOORS {
        let cfgs: Vec<_> = nets
            .iter()
            .map(|net| LinkRateConfig::uniform(net.session_count(), model))
            .collect();
        for (i, (net, cfg)) in nets.iter().zip(&cfgs).enumerate() {
            let solved = MultiRate::new()
                .solve_with(net, cfg, &mut ws)
                .expect("MultiRate takes link-rate configs");
            let label = format!("{model:?} network {i}");
            assert_bitwise(&label, &solved, &reference::solve_in(net, cfg, &regimes));
        }
        println!(
            "bitwise: optimized {model:?} solves equal the reference on all {} networks",
            nets.len()
        );
        let ratio = median_time_ratio(
            || {
                for (net, cfg) in nets.iter().zip(&cfgs) {
                    black_box(reference::solve_in(net, cfg, &regimes));
                }
            },
            || {
                for (net, cfg) in nets.iter().zip(&cfgs) {
                    black_box(MultiRate::new().solve_with(net, cfg, &mut ws));
                }
            },
        );
        assert_floor(
            &format!("{model:?}-solve reference/optimized"),
            ratio,
            floor,
        );
    }
}
