//! Gates the Figure-8-shape protocol sweep: `ProtocolScenario` over all
//! three protocols × a 6-point independent-loss axis × 2 replicate seeds,
//! scaled down per point (24 receivers, 50k packets, 3 trials).
//!
//! 1. **Determinism**: the parallel sweep is asserted bitwise identical to
//!    the serial one at 2, 4 and 8 threads.
//! 2. **Protocol sweep ceiling**: the serial sweep (star engine, loss
//!    sampling, receiver controllers and the executor) may take at most
//!    [`PROTOCOL_CEILING`] times as long as the [`yardstick`].
//!
//! `cargo bench -p mlf-bench --bench protocol_sweep`

use mlf_bench::paired::{assert_ceiling, median_time_ratio, yardstick};
use mlf_protocols::ExperimentParams;
use mlf_scenario::{ProtocolScenario, ProtocolSweepGrid};
use std::hint::black_box;

/// Most serial-protocol-sweep/yardstick time. Calibrated on a 2-core
/// x86-64 container: medians 18.1-21.3 on the code as it stands; receiver
/// controllers slow enough to make the sweep 1.44x as long put it at
/// 24.7-30.5.
const PROTOCOL_CEILING: f64 = 23.5;

fn scenario() -> ProtocolScenario {
    ProtocolScenario::builder()
        .label("fig8-scale-protocol-sweep")
        .template(ExperimentParams {
            receivers: 24,
            packets: 50_000,
            trials: 3,
            ..ExperimentParams::quick(0.0001, 0.0).expect("valid losses")
        })
        .build()
        .expect("valid protocol scenario")
}

fn main() {
    let scenario = scenario();
    let seed = 0x51_66_C0_99;
    let grid = ProtocolSweepGrid::figure8_axis(6).with_seeds([seed, seed + 1]);

    let serial = scenario.sweep(&grid);
    for threads in [2usize, 4, 8] {
        let parallel = scenario.sweep_par(&grid, threads);
        assert_eq!(
            serial, parallel,
            "protocol sweep_par diverged from serial at {threads} threads"
        );
    }
    println!(
        "determinism: parallel protocol sweep bitwise-identical to serial over {} points \
         (3 protocols x 6 losses x 2 seeds) at 2/4/8 threads",
        serial.points.len()
    );

    let yardstick = yardstick();
    assert_ceiling(
        "serial-protocol-sweep/yardstick",
        median_time_ratio(
            || {
                black_box(scenario.sweep(&grid));
            },
            &yardstick,
        ),
        PROTOCOL_CEILING,
    );
}
