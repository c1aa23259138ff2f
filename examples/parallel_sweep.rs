//! Parallel sweeps over structurally diverse random topologies.
//!
//! This example shows the two PR-2 capabilities together:
//!
//! * `TopologyFamily` — the sweep below draws networks from four different
//!   structural families (flat random trees, balanced k-ary trees,
//!   transit–stub hierarchies, dumbbell meshes) instead of one tree shape;
//! * `Scenario::sweep_par` — each family's 48-seed sweep is sharded across
//!   worker threads, and the merged points are *bitwise identical* to the
//!   serial `sweep`, which the example asserts before reporting.
//!
//! Run with `cargo run --release --example parallel_sweep`.

use multicast_fairness::prelude::*;

fn main() {
    let seeds = 0u64..48;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Sweeping {} seeds per family across {threads} worker thread(s)\n",
        seeds.end
    );

    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 2 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];

    println!(
        "{:<14} {:>10} {:>14} {:>16}",
        "family", "mean Jain", "mean min rate", "all-props rate"
    );
    for family in families {
        let mut scenario = Scenario::builder()
            .label(format!("parallel-sweep/{}", family.label()))
            .random_networks_with(family, 24, 6, 5)
            .allocator(MultiRate::new())
            .build()
            .expect("valid sweep parameters");

        // The parallel engine must reproduce the serial sweep exactly —
        // same seeds, same bits, regardless of thread count.
        let serial = scenario.sweep(seeds.clone());
        let parallel = scenario.sweep_par(seeds.clone(), threads);
        assert_eq!(
            serial,
            parallel,
            "parallel sweep diverged from serial for {}",
            family.label()
        );

        println!(
            "{:<14} {:>10.4} {:>14.4} {:>16.3}",
            family.label(),
            parallel.mean_jain(),
            parallel.mean_min_rate(),
            parallel.all_properties_rate(),
        );
    }

    // Degenerate requests fail loudly at build time instead of silently
    // running a different experiment (the pre-PR-2 behaviour).
    match Scenario::builder().random_networks(1, 0, 3).build() {
        Err(err) => println!("\nDegenerate sweep request is rejected: {err}"),
        Ok(_) => unreachable!("a 1-node 0-session sweep must not build"),
    }
}
