//! Figure 6 regenerator: normalized fair rate vs redundancy for the four
//! `m/n` curves, from the closed form *and* cross-checked against the
//! allocator on a concrete bottleneck network.
//!
//! `cargo run -p mlf-bench --bin fig6_fair_rate_impact [--steps 19]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_core::{redundancy, LinkRateConfig, LinkRateModel};
use mlf_net::{Graph, Network, Session};
use mlf_scenario::{LinkRates, Scenario};

const FRACTIONS: [f64; 4] = [0.01, 0.05, 0.1, 1.0];
const KNOBS: &[cli::Knob] = &[knob(
    "steps",
    "19",
    "number of redundancy steps on the v axis",
)];

fn main() {
    let args = Args::for_binary(
        "fig6_fair_rate_impact",
        "Figure 6 regenerator: normalized fair rate vs redundancy",
        KNOBS,
    );
    let steps: usize = or_exit(args.get("steps", 19));
    if steps < 2 {
        eprintln!("error: --steps must be at least 2");
        std::process::exit(2);
    }

    println!("Figure 6: normalized fair rate vs redundancy v\n");
    let mut t = Table::new(["v", "m/n=0.01", "m/n=0.05", "m/n=0.1", "m/n=1"]);
    for row in redundancy::figure6_series(&FRACTIONS, 10.0, steps) {
        t.numeric_row(format!("{:.1}", row.v), &row.normalized_rates, 4);
    }
    print!("{t}");

    // Allocator cross-check at m/n = 0.1 (n = 20 sessions, m = 2), v = 4.
    let (net, cfg) = bottleneck(100.0, 20, 2, 4.0);
    let mut scenario = Scenario::builder()
        .label("figure6-cross-check")
        .network(net)
        .link_rates(LinkRates::Explicit(cfg))
        .check_properties(false)
        .build()
        .expect("figure 6 scenario");
    let report = scenario.run();
    let measured = report.metrics.min_rate / (100.0 / 20.0);
    let predicted = redundancy::normalized_fair_rate(0.1, 4.0);
    println!(
        "\nallocator cross-check (n=20, m=2, v=4): measured {measured:.4}, closed form {predicted:.4}"
    );
    assert!((measured - predicted).abs() < 1e-9);

    let path = write_csv(".", "fig6_fair_rate_impact", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}

/// `n` sessions on a single bottleneck, `m` of them 2-receiver multi-rate
/// sessions with redundancy `v`.
fn bottleneck(capacity: f64, n: usize, m: usize, v: f64) -> (Network, LinkRateConfig) {
    let mut g = Graph::new();
    let src = g.add_node();
    let hub = g.add_node();
    g.add_link(src, hub, capacity).unwrap();
    let mut sessions = Vec::new();
    for i in 0..n {
        if i < m {
            let a = g.add_node();
            let b = g.add_node();
            g.add_link(hub, a, capacity * 10.0).unwrap();
            g.add_link(hub, b, capacity * 10.0).unwrap();
            sessions.push(Session::multi_rate(src, vec![a, b]));
        } else {
            sessions.push(Session::unicast(src, hub));
        }
    }
    let net = Network::new(g, sessions).unwrap();
    let mut cfg = LinkRateConfig::efficient(n);
    for i in 0..m {
        cfg = cfg.with_session(i, LinkRateModel::Scaled(v));
    }
    (net, cfg)
}
