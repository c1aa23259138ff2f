//! Gates the Figure-5-scale allocator sweep: 256 seeded random topologies
//! (30 nodes, 8 sessions, up to 5 receivers) under the Appendix B
//! random-join link-rate model, the `Scenario::sweep_par` workload.
//!
//! 1. **Determinism**: the parallel sweep is asserted bitwise identical to
//!    the serial one at 2, 4 and 8 threads.
//! 2. **RandomJoin solve floor**: on the sweep's own networks, every
//!    optimized solve is asserted bitwise equal to the frozen
//!    `mlf_core::reference::solve_in`, then the reference must take at
//!    least [`RANDOM_JOIN_FLOOR`] times as long as the optimized solver.
//! 3. **Sweep ceiling**: the serial sweep (topology build, solve, audit,
//!    metrics and the executor) may take at most [`SWEEP_CEILING`] times
//!    as long as the [`yardstick`].
//!
//! `cargo bench -p mlf-bench --bench parallel_sweep`

use mlf_bench::paired::{
    assert_bitwise, assert_ceiling, assert_floor, median_time_ratio, yardstick,
};
use mlf_core::allocator::{Allocator, MultiRate, SolverWorkspace};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes};
use mlf_net::topology::random_network;
use mlf_net::{Network, SessionType};
use mlf_scenario::{LinkRates, Scenario, SweepGrid};
use std::hint::black_box;

const SEEDS: u64 = 256;
const RANDOM_JOIN: LinkRateModel = LinkRateModel::RandomJoin { sigma: 6.0 };

/// Least reference/optimized RandomJoin solve time. Calibrated on a
/// 2-core x86-64 container: medians 3.40-3.91 on the code as it stands,
/// 1.60-1.78 with the bisection cut-off disabled.
const RANDOM_JOIN_FLOOR: f64 = 2.4;

/// Most serial-sweep/yardstick time. Calibrated on the same container:
/// medians 1.89-2.08 on the code as it stands; a fairness audit slow
/// enough to make the sweep 1.56x as long puts it at 2.97-3.25.
const SWEEP_CEILING: f64 = 2.5;

fn scenario() -> Scenario {
    Scenario::builder()
        .label("fig5-scale-parallel-sweep")
        .random_networks(30, 8, 5)
        .link_rates(LinkRates::Uniform(RANDOM_JOIN))
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario")
}

fn assert_parallel_matches_serial(scenario: &mut Scenario) {
    let grid = SweepGrid::seeds(0..SEEDS);
    let serial = scenario.sweep_grid(&grid);
    for threads in [2usize, 4, 8] {
        let parallel = scenario.sweep_grid_par(&grid, threads);
        assert_eq!(
            serial, parallel,
            "sweep_par diverged from serial at {threads} threads"
        );
    }
    println!(
        "determinism: parallel sweep bitwise-identical to serial over {SEEDS} seeds \
         at 2/4/8 threads"
    );
}

/// The sweep's networks (`random_networks` draws the same flat trees).
fn corpus() -> Vec<(Network, LinkRateConfig)> {
    (0..SEEDS)
        .map(|seed| {
            let net = random_network(seed, 30, 8, 5).expect("Figure-5 shape is valid");
            let cfg = LinkRateConfig::uniform(net.session_count(), RANDOM_JOIN);
            (net, cfg)
        })
        .collect()
}

fn main() {
    let mut scenario = scenario();
    assert_parallel_matches_serial(&mut scenario);

    let corpus = corpus();
    let regimes = Regimes::Uniform(SessionType::MultiRate);
    let mut ws = SolverWorkspace::new();
    for (seed, (net, cfg)) in corpus.iter().enumerate() {
        let solved = MultiRate::new()
            .solve_with(net, cfg, &mut ws)
            .expect("MultiRate takes link-rate configs");
        let label = format!("seed {seed}");
        assert_bitwise(&label, &solved, &reference::solve_in(net, cfg, &regimes));
    }
    println!("bitwise: optimized RandomJoin solves equal the reference on all {SEEDS} networks");
    assert_floor(
        "randomjoin-solve reference/optimized",
        median_time_ratio(
            || {
                for (net, cfg) in &corpus {
                    black_box(reference::solve_in(net, cfg, &regimes));
                }
            },
            || {
                for (net, cfg) in &corpus {
                    black_box(MultiRate::new().solve_with(net, cfg, &mut ws));
                }
            },
        ),
        RANDOM_JOIN_FLOOR,
    );

    let yardstick = yardstick();
    assert_ceiling(
        "serial-sweep/yardstick",
        median_time_ratio(
            || {
                black_box(scenario.sweep_par(0..SEEDS, 1));
            },
            &yardstick,
        ),
        SWEEP_CEILING,
    );
}
