//! Figure 1 regenerator: the three-session example network, its multi-rate
//! max-min fair allocation, per-link session rates, and the property audit
//! the prose walks through — composed as a `Scenario`.
//!
//! `cargo run -p mlf-bench --bin fig1_example`

use mlf_bench::{write_csv, Args, Table};
use mlf_core::LinkRateConfig;
use mlf_net::{paper, LinkId, SessionId};
use mlf_scenario::Scenario;

fn main() {
    Args::for_binary(
        "fig1_example",
        "Figure 1 regenerator: the three-session example network and its property audit",
        &[],
    );
    let example = paper::figure1();
    let mut scenario = Scenario::builder()
        .label("figure1")
        .network(example.network)
        .build()
        .expect("figure 1 scenario");
    let report = scenario.run();
    let net = scenario.network().expect("fixed network");
    let cfg = LinkRateConfig::efficient(net.session_count());
    let alloc = &report.solution.allocation;

    println!("Figure 1: multi-rate max-min fair allocation\n");
    let mut rates = Table::new(["receiver", "rate", "paper"]);
    for (r, a) in alloc.iter() {
        let expected = example.expected_rates[r.session.0][r.index];
        rates.row([format!("{r}"), format!("{a:.0}"), format!("{expected:.0}")]);
    }
    print!("{rates}");

    println!("\nSession link rates (u1 : u2 : u3), capacities, utilization\n");
    let mut links = Table::new(["link", "capacity", "u1:u2:u3", "full"]);
    for j in 0..net.link_count() {
        let l = LinkId(j);
        let triple: Vec<String> = (0..3)
            .map(|i| format!("{:.0}", alloc.session_link_rate(net, &cfg, l, SessionId(i))))
            .collect();
        links.row([
            format!("{l}"),
            format!("{:.0}", net.graph().capacity(l)),
            triple.join(":"),
            format!("{}", alloc.is_fully_utilized(net, &cfg, l)),
        ]);
    }
    print!("{links}");

    println!(
        "\nAll four fairness properties hold: {} (paper: yes)",
        report.fairness.expect("properties audited").all_hold()
    );

    let path = write_csv(".", "fig1_example", &rates.records()).expect("csv");
    println!("series written to {}", path.display());
}
