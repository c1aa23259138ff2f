//! Differential test for the parallel sweep executor: `Scenario::sweep_par`
//! and `Scenario::sweep_grid_par` must be **bitwise identical** to the
//! serial `sweep`/`sweep_grid` for the same seeds, at any thread count.
//!
//! CI's sweep-determinism job runs this whole file in release.

use multicast_fairness::prelude::*;

/// Families × allocators the differential runs over. Everything the sweep
/// reports (metrics, property counts, model tags) must agree to the bit —
/// `SweepReport` equality compares raw f64s, so any divergence in merge
/// order, workspace reuse, or per-thread solve state fails the assert.
fn scenarios() -> Vec<Scenario> {
    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];
    families
        .into_iter()
        .map(|family| {
            Scenario::builder()
                .label(format!("differential/{}", family.label()))
                .random_networks_with(family, 18, 5, 4)
                .allocator(MultiRate::new())
                .build()
                .expect("valid differential scenario")
        })
        .collect()
}

fn assert_identical_at(threads: usize) {
    for mut scenario in scenarios() {
        let label = scenario.label().to_string();
        let serial = scenario.sweep(0..32);
        let parallel = scenario.sweep_par(0..32, threads);
        assert_eq!(serial, parallel, "{label}: sweep_par({threads}) diverged");

        let grid = SweepGrid::seeds(0..8).with_models([
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::RandomJoin { sigma: 4.0 },
        ]);
        let serial_grid = scenario.sweep_grid(&grid);
        let parallel_grid = scenario.sweep_grid_par(&grid, threads);
        assert_eq!(
            serial_grid, parallel_grid,
            "{label}: sweep_grid_par({threads}) diverged"
        );
    }
}

#[test]
fn parallel_sweep_matches_serial_on_two_threads() {
    assert_identical_at(2);
}

#[test]
fn parallel_sweep_matches_serial_on_four_threads() {
    assert_identical_at(4);
}

#[test]
fn parallel_sweep_matches_serial_on_eight_threads() {
    assert_identical_at(8);
}

#[test]
fn parallel_sweep_matches_serial_with_more_threads_than_seeds() {
    // Thread counts beyond the job count collapse to one job per worker;
    // the merge contract must still hold.
    assert_identical_at(64);
}

#[test]
fn grid_blocks_equal_single_model_sweeps() {
    // Serial ≡ parallel cannot catch a transposition both paths share, so
    // pin the layout itself: the m-th block of a grid is a plain sweep of
    // the same seeds by a scenario whose own link rates are model m.
    let models = [
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(2.0),
        LinkRateModel::RandomJoin { sigma: 4.0 },
    ];
    let family = TopologyFamily::KaryTree { arity: 3 };
    let build = |rates| {
        Scenario::builder()
            .label("differential/layout")
            .random_networks_with(family, 18, 5, 4)
            .link_rates(rates)
            .allocator(MultiRate::new())
            .build()
            .expect("valid layout scenario")
    };
    let seeds = 0..9u64;
    let grid = SweepGrid::seeds(seeds.clone()).with_models(models);
    let scenario = build(LinkRates::Efficient);
    for threads in [1, 2, 7] {
        let report = scenario.sweep_grid_par(&grid, threads);
        let blocks: Vec<_> = report.points.chunks(seeds.clone().count()).collect();
        assert_eq!(blocks.len(), models.len());
        for (m, (&model, block)) in models.iter().zip(blocks).enumerate() {
            let single = build(LinkRates::Uniform(model)).sweep(seeds.clone());
            assert_eq!(block.len(), single.points.len());
            for (got, want) in block.iter().zip(&single.points) {
                assert_eq!(got.model, Some(model), "block {m} at {threads} threads");
                assert_eq!(got.seed, want.seed, "block {m} at {threads} threads");
                assert_eq!(got.metrics, want.metrics, "block {m} at {threads} threads");
                assert_eq!(
                    got.properties_holding, want.properties_holding,
                    "block {m} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn fixed_network_sweeps_also_shard_cleanly() {
    // Fixed sources ignore seeds, but the executor path is shared; a
    // layered scenario exercises the report-side state too.
    let example = mlf_net::paper::figure2();
    let mut scenario = Scenario::builder()
        .label("differential/fixed")
        .network(example.network.clone())
        .allocator(Hybrid::as_declared())
        .layering(LayerSchedule::exponential(4))
        .build()
        .unwrap();
    let serial = scenario.sweep(0..16);
    for threads in [2, 8] {
        assert_eq!(serial, scenario.sweep_par(0..16, threads));
    }
}
