//! Differential test for the protocol sweep engine:
//! `ProtocolScenario::sweep_par` must be **bitwise identical** to the
//! serial `sweep` for the same grid, at any thread count, across all
//! `ProtocolKind`s and a loss grid — the same contract the allocator
//! sweeps prove in `parallel_sweep_differential.rs`, now for the Figure 8
//! path.
//!
//! CI's sweep-determinism job runs this whole file in release.

use multicast_fairness::prelude::*;
use multicast_fairness::protocols::run_point;

/// A scaled-down star (8 receivers, 4k packets, 2 trials) so the full
/// differential grid stays fast; determinism does not depend on scale.
fn scenario() -> ProtocolScenario {
    ProtocolScenario::builder()
        .label("differential/protocols")
        .template(ExperimentParams {
            receivers: 8,
            packets: 4_000,
            trials: 2,
            ..ExperimentParams::quick(0.001, 0.0).expect("valid template losses")
        })
        .build()
        .expect("valid differential protocol scenario")
}

/// All three protocols × a 4-point loss grid × 2 replicate seeds = 24
/// points per sweep. Everything a point carries (trial statistics, loss
/// tags, seeds, latencies) must agree to the bit — `ProtocolSweepReport`
/// equality compares raw f64s, so any divergence in merge order, shard
/// boundaries, or per-job seeding fails the assert.
fn grid() -> ProtocolSweepGrid {
    ProtocolSweepGrid::independent_losses([0.0, 0.02, 0.05, 0.09]).with_seeds([11, 12])
}

fn assert_identical_at(threads: usize) {
    let s = scenario();
    let g = grid();
    assert_eq!(g.kinds, ProtocolKind::ALL.to_vec());
    let serial = s.sweep(&g);
    assert_eq!(serial.points.len(), 3 * 4 * 2);
    let parallel = s.sweep_par(&g, threads);
    assert_eq!(
        serial, parallel,
        "protocol sweep_par({threads}) diverged from serial"
    );
    // Every protocol kind must actually be exercised by the grid.
    for kind in ProtocolKind::ALL {
        assert_eq!(serial.points_for(kind).count(), 8, "{}", kind.label());
    }
}

#[test]
fn protocol_sweep_matches_serial_on_two_threads() {
    assert_identical_at(2);
}

#[test]
fn protocol_sweep_matches_serial_on_four_threads() {
    assert_identical_at(4);
}

#[test]
fn protocol_sweep_matches_serial_on_eight_threads() {
    assert_identical_at(8);
}

#[test]
fn protocol_sweep_matches_serial_with_more_threads_than_jobs() {
    // Thread counts beyond the job count collapse to one job per worker;
    // the merge contract must still hold.
    assert_identical_at(64);
}

#[test]
fn latency_axis_sweep_matches_serial_at_any_thread_count() {
    // The Section 5 latency ablation as a grid axis: (3 protocols × 2
    // losses × 3 latency pairs × 2 seeds) = 36 points, serial vs parallel
    // bitwise — and every latency pair must be represented with its tags.
    let s = scenario();
    let g = ProtocolSweepGrid::independent_losses([0.0, 0.04])
        .with_latencies([(0, 0), (4, 25), (13, 0)])
        .with_seeds([11, 12]);
    let serial = s.sweep(&g);
    assert_eq!(serial.points.len(), 3 * 2 * 3 * 2);
    for threads in [2, 8, 64] {
        let parallel = s.sweep_par(&g, threads);
        assert_eq!(
            serial, parallel,
            "latency-axis sweep_par({threads}) diverged from serial"
        );
    }
    for &(join, leave) in &[(0u64, 0u64), (4, 25), (13, 0)] {
        assert_eq!(
            serial
                .points
                .iter()
                .filter(|p| p.join_latency == join && p.leave_latency == leave)
                .count(),
            12,
            "latency pair ({join},{leave})"
        );
    }
}

#[test]
fn per_receiver_distributions_ride_the_sweep_points() {
    // Satellite of the latency axis: every sweep point carries the
    // per-receiver goodput / mean-level distributions (receivers × trials
    // observations), identical across the serial and parallel paths (the
    // whole-report equality above already pins that; this pins the shape).
    let s = scenario();
    let g = grid();
    let report = s.sweep(&g);
    for p in &report.points {
        assert_eq!(p.receiver_goodput().count(), 8 * 2);
        assert_eq!(p.receiver_mean_level().count(), 8 * 2);
        assert!(p.receiver_goodput().min() >= 0.0);
        assert!(p.receiver_goodput().max() >= p.receiver_goodput().min());
    }
}

#[test]
fn figure8_through_the_executor_matches_the_serial_series() {
    // A Figure 8 panel through the executor must reproduce, bit for bit
    // and at any thread count, a direct `run_point` on every point's own
    // parameters.
    let s = scenario();
    let g = ProtocolSweepGrid::figure8_axis(3);
    for threads in [2, 8] {
        for p in s.sweep_par(&g, threads).points {
            let params = ExperimentParams {
                seed: p.seed,
                join_latency: p.join_latency,
                leave_latency: p.leave_latency,
                ..*s.template()
            }
            .with_independent_loss(p.independent_loss)
            .expect("grid losses are valid");
            assert_eq!(
                p.outcome,
                run_point(p.kind, &params),
                "{} at loss {} diverged on {threads} threads",
                p.kind.label(),
                p.independent_loss
            );
        }
    }
}

#[test]
fn repeated_sweeps_are_reproducible() {
    // The whole chain (grid expansion, per-job seeding, trial RNGs) is a
    // pure function of the spec: two sweeps of the same grid are equal.
    let s = scenario();
    let g = grid();
    assert_eq!(s.sweep(&g), s.sweep(&g));
}
