//! Benchmarks the incidence-indexed incremental solver core on
//! solver-bound workloads — large GT-ITM-style transit–stub hierarchies and
//! wide high-fanout k-ary trees, swept over a `seeds × link-rate models`
//! grid.
//!
//! Two things are recorded:
//!
//! 1. **Correctness, always**: the parallel grid sweep is asserted bitwise
//!    identical to the serial one before any timing runs.
//! 2. **Throughput artifact**: the grid sweep's points-per-second — the
//!    number that tracks raw solver hot-path cost (topology build, index
//!    build and progressive filling) — is written as
//!    `BENCH_solver_hot_path.json` for the CI regression gate.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_net::TopologyFamily;
use mlf_scenario::{Scenario, SweepGrid, SweepReport};
use std::hint::black_box;

/// One solver-bound workload: a topology family at scale plus a model grid.
struct Workload {
    label: &'static str,
    family: TopologyFamily,
    nodes: usize,
    sessions: usize,
    max_receivers: usize,
    grid: SweepGrid,
}

fn workloads() -> Vec<Workload> {
    let models = [
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(2.0),
        LinkRateModel::Sum,
    ];
    vec![
        Workload {
            label: "transit-stub-96",
            family: TopologyFamily::TransitStub { transit: 8 },
            nodes: 96,
            sessions: 12,
            max_receivers: 6,
            grid: SweepGrid::seeds(0..24).with_models(models),
        },
        Workload {
            label: "kary-85",
            family: TopologyFamily::KaryTree { arity: 4 },
            nodes: 85,
            sessions: 10,
            max_receivers: 8,
            grid: SweepGrid::seeds(0..24).with_models(models),
        },
    ]
}

fn scenario_for(w: &Workload) -> Scenario {
    Scenario::builder()
        .label(format!("solver-hot-path/{}", w.label))
        .random_networks_with(w.family, w.nodes, w.sessions, w.max_receivers)
        .allocator(MultiRate::new())
        .build()
        .expect("valid hot-path scenario")
}

fn total_points(ws: &[Workload]) -> u64 {
    ws.iter()
        .map(|w| (w.grid.seeds.len() * w.grid.models.len()) as u64)
        .sum()
}

/// One pass over every workload, on fresh scenarios.
fn sweep_fresh(ws: &[Workload]) -> Vec<SweepReport> {
    ws.iter()
        .map(|w| scenario_for(w).sweep_grid(&w.grid))
        .collect()
}

fn assert_parallel_agreement(ws: &[Workload]) {
    for w in ws {
        let mut scenario = scenario_for(w);
        let serial = scenario.sweep_grid(&w.grid);
        for threads in [2usize, 4] {
            let par = scenario.sweep_grid_par(&w.grid, threads);
            assert_eq!(
                serial, par,
                "{}: parallel diverged at {threads} threads",
                w.label
            );
        }
    }
    println!(
        "determinism: parallel grid sweeps bitwise-identical to serial across {} workloads",
        ws.len()
    );
}

fn bench_solver_hot_path(c: &mut Criterion) {
    let ws = workloads();
    assert_parallel_agreement(&ws);
    let points = total_points(&ws);

    // The gated number. Fresh scenario per pass, so every point pays
    // topology build + index build + solve.
    or_exit(measure_and_emit(
        "solver_hot_path",
        points,
        "points",
        || sweep_fresh(&ws).iter().map(|r| r.points.len()).sum(),
    ));

    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping criterion sampling");
        return;
    }

    // Criterion samples on the first workload only.
    let w = &ws[0];
    let mut group = c.benchmark_group("solver/hot_path_grid");
    group.bench_function("cold", |b| {
        b.iter(|| black_box(scenario_for(w).sweep_grid(&w.grid).points.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_solver_hot_path);
criterion_main!(benches);
