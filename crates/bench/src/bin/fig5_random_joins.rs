//! Figure 5 regenerator: redundancy of a single layer with random joins,
//! for the paper's five receiver-rate configurations, 1 to 100 receivers
//! (analytic closed form + Monte-Carlo confirmation at selected points),
//! plus a network-level random-join sweep across the four topology
//! families, executed through the parallel sweep engine.
//!
//! `cargo run --release -p mlf-bench --bin fig5_random_joins
//!    [--max-receivers 100] [--mc-quanta 200] [--mc-sigma 100]
//!    [--sweep-seeds 64] [--threads 0] [--checkpoint PATH]`
//!
//! With `--checkpoint PATH` each family's network sweep appends every
//! finished shard of seeds to `PATH.<family>`; a re-run with the same path
//! resumes from those files and prints how many shards it restored per
//! family. The merged bytes are identical with and without a checkpoint.

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_layering::randomjoin::{self, Figure5Config};
use mlf_net::TopologyFamily;
use mlf_scenario::checkpoint::SHARD_SIZE;
use mlf_scenario::{LinkRates, Scenario};
use std::path::PathBuf;

const KNOBS: &[cli::Knob] = &[
    knob(
        "max-receivers",
        "100",
        "largest receiver count on the x axis",
    ),
    knob(
        "mc-quanta",
        "200",
        "Monte-Carlo quanta per confirmation point",
    ),
    knob(
        "mc-sigma",
        "100",
        "packets per quantum in the Monte-Carlo runs",
    ),
    knob(
        "sweep-seeds",
        "64",
        "random topologies per family in the network sweep",
    ),
    knob(
        "threads",
        "0",
        "sweep worker threads (0 = available parallelism)",
    ),
    knob(
        "checkpoint",
        "",
        "checkpoint base path: resume the network sweep from PATH.<family> (empty = off)",
    ),
];

/// The Monte-Carlo confirmation points: `(config, receivers)`.
const MC_POINTS: [(Figure5Config, usize); 6] = [
    (Figure5Config::All01, 10),
    (Figure5Config::All05, 10),
    (Figure5Config::All09, 10),
    (Figure5Config::First05Rest01, 10),
    (Figure5Config::First09Rest01, 10),
    (Figure5Config::All01, 50),
];

/// Refuse knob values that leave a run with no work or no packets to sample.
fn check_knobs(
    max_receivers: usize,
    mc_quanta: usize,
    mc_sigma: usize,
    sweep_seeds: u64,
) -> Result<(), String> {
    if max_receivers == 0 {
        return Err("--max-receivers must be at least 1".to_string());
    }
    if mc_quanta == 0 {
        return Err("--mc-quanta must be at least 1".to_string());
    }
    // Every confirmation receiver needs a nonzero packet quota (this also
    // refuses --mc-sigma 0).
    let smallest = MC_POINTS
        .iter()
        .flat_map(|&(cfg, r)| cfg.rates(r))
        .fold(f64::INFINITY, f64::min);
    if (smallest * mc_sigma as f64).round() == 0.0 {
        return Err(format!(
            "--mc-sigma {mc_sigma} rounds the receiver rate {smallest} to a zero packet quota"
        ));
    }
    if sweep_seeds == 0 {
        return Err("--sweep-seeds must be at least 1".to_string());
    }
    Ok(())
}

fn main() {
    let args = Args::for_binary(
        "fig5_random_joins",
        "Figure 5 regenerator: single-layer random-join redundancy",
        KNOBS,
    );
    let max_receivers: usize = or_exit(args.get("max-receivers", 100));
    let mc_quanta: usize = or_exit(args.get("mc-quanta", 200));
    let mc_sigma: usize = or_exit(args.get("mc-sigma", 100));
    let sweep_seeds: u64 = or_exit(args.get("sweep-seeds", 64));
    let threads: usize = or_exit(args.get("threads", 0));
    let checkpoint: String = or_exit(args.get("checkpoint", String::new()));
    or_exit(check_knobs(max_receivers, mc_quanta, mc_sigma, sweep_seeds));

    // Log-spaced x-axis like the paper's log plot.
    let mut xs = vec![1usize, 2, 3, 4, 5, 7, 10, 14, 20, 30, 50, 70];
    xs.push(max_receivers);
    xs.retain(|&x| x <= max_receivers);
    xs.dedup();

    let mut t = Table::new([
        "receivers",
        "All 0.1",
        "All 0.5",
        "1st .5 rest .1",
        "All 0.9",
        "1st .9 rest .1",
    ]);
    for point in randomjoin::figure5_series(&xs) {
        t.numeric_row(point.receivers.to_string(), &point.redundancy, 3);
    }
    println!("Figure 5 (analytic): redundancy of a single layer, random joins\n");
    print!("{t}");
    println!(
        "\nasymptotes (σ / max rate): {:?}",
        Figure5Config::ALL.map(|c| c.asymptote())
    );

    println!("\nMonte-Carlo confirmation ({mc_sigma} packets/quantum, {mc_quanta} quanta):\n");
    let mut mc = Table::new(["config", "receivers", "analytic", "simulated"]);
    for (cfg, r) in MC_POINTS {
        let analytic = randomjoin::analytic_redundancy(&cfg.rates(r), 1.0);
        let sim = randomjoin::monte_carlo_redundancy(cfg, r, mc_sigma, mc_quanta, 0x515)
            .expect("check_knobs guarantees every receiver a nonzero quota");
        mc.row([
            cfg.label().to_string(),
            r.to_string(),
            format!("{analytic:.3}"),
            format!("{sim:.3}"),
        ]);
    }
    print!("{mc}");

    let path = write_csv(".", "fig5_random_joins", &t.records()).expect("csv");
    println!("\nseries written to {}", path.display());

    // ---- Network-level sweep through the parallel engine -----------------
    // The same random-join redundancy model, now inside whole networks:
    // every session of every random topology carries RandomJoin link rates
    // and the multi-rate allocator solves the resulting fixed point. Each
    // family's seeds are sharded across `threads` workers by `sweep_par`,
    // whose merge order makes the output independent of the thread count.
    // sweep_par resolves 0 to available parallelism and clamps to the job
    // count internally; the banner reports what was requested.
    println!(
        "\nNetwork sweep (random-join model, {sweep_seeds} seeds/family, \
         requested worker threads: {}):\n",
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];
    let mut sweep_table = Table::new([
        "family",
        "mean Jain",
        "mean min rate",
        "mean satisfaction",
        "all-props rate",
    ]);
    if !checkpoint.is_empty() {
        // The writer creates the file, not its directory.
        if let Some(parent) = std::path::Path::new(&checkpoint).parent() {
            or_exit(std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create checkpoint directory {}: {e}",
                    parent.display()
                )
            }));
        }
    }
    let mut restored_shards: Vec<(&'static str, u64)> = Vec::new();
    for family in families {
        let scenario = Scenario::builder()
            .label(format!("fig5-sweep/{}", family.label()))
            .random_networks_with(family, 30, 8, 5)
            .link_rates(LinkRates::Uniform(LinkRateModel::RandomJoin { sigma: 6.0 }))
            .allocator(MultiRate::new())
            .build()
            .expect("family sweep scenario");
        let report = if !checkpoint.is_empty() {
            let path = PathBuf::from(format!("{checkpoint}.{}", family.label()));
            let (report, restored) =
                or_exit(scenario.sweep_par_checkpointed(0..sweep_seeds, threads, &path));
            restored_shards.push((family.label(), restored));
            report
        } else {
            scenario.sweep_par(0..sweep_seeds, threads)
        };
        sweep_table.row([
            family.label().to_string(),
            format!("{:.4}", report.mean_jain()),
            format!("{:.4}", report.mean_min_rate()),
            format!("{:.4}", report.mean_of(|p| p.metrics.satisfaction)),
            format!("{:.3}", report.all_properties_rate()),
        ]);
    }
    print!("{sweep_table}");
    let shards = sweep_seeds.div_ceil(SHARD_SIZE as u64);
    if !restored_shards.is_empty() {
        println!();
    }
    for (family, restored) in &restored_shards {
        println!("checkpoint [{family}]: {restored}/{shards} shards restored");
    }
}
