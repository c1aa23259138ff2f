//! Figure 4 regenerator: redundancy 2 on the shared link breaks the
//! session-perspective fairness properties while the receiver-perspective
//! ones survive. Two `Scenario`s: the redundant link-rate config vs the
//! efficient counterfactual.
//!
//! `cargo run -p mlf-bench --bin fig4_redundancy`

use mlf_bench::{write_csv, Args, Table};
use mlf_core::{redundancy, LinkRateConfig, LinkRateModel};
use mlf_net::{paper, LinkId, SessionId};
use mlf_scenario::{LinkRates, Scenario};

fn main() {
    Args::for_binary(
        "fig4_redundancy",
        "Figure 4 regenerator: redundancy 2 on the shared link",
        &[],
    );
    let ex = paper::figure4();
    let redundant = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));

    // The scenario's link-rate config drives both the solve and the
    // property audit — one source of truth.
    let mut scenario_red = Scenario::builder()
        .label("figure4-redundant")
        .network(ex.network.clone())
        .link_rates(LinkRates::Explicit(redundant.clone()))
        .build()
        .expect("figure 4 scenario");
    let mut scenario_eff = Scenario::builder()
        .label("figure4-efficient")
        .network(ex.network)
        .build()
        .expect("figure 4 scenario");

    let report_red = scenario_red.run();
    let report_eff = scenario_eff.run();
    let net = scenario_red.network().expect("fixed network");
    let a_red = &report_red.solution.allocation;
    let a_eff = &report_eff.solution.allocation;

    println!("Figure 4: S1 with redundancy 2 on shared links\n");
    let mut t = Table::new(["receiver", "redundant v=2", "efficient v=1"]);
    for (r, a) in a_red.iter() {
        t.row([
            format!("{r}"),
            format!("{a:.2}"),
            format!("{:.2}", a_eff.rate(r)),
        ]);
    }
    print!("{t}");

    println!("\nShared link l4 under v=2:");
    println!(
        "  u_1,4 = {:.0}, u_2,4 = {:.0}, capacity {:.0}, redundancy of S1 = {:.1}",
        a_red.session_link_rate(net, &redundant, LinkId(3), SessionId(0)),
        a_red.session_link_rate(net, &redundant, LinkId(3), SessionId(1)),
        net.graph().capacity(LinkId(3)),
        redundancy(net, &redundant, a_red, LinkId(3), SessionId(0)).unwrap(),
    );

    let rep = report_red.fairness.expect("audited");
    println!("\nProperties under redundancy 2:");
    println!(
        "  receiver-perspective (1, 2): {} {}   <- survive, as the paper notes",
        rep.fully_utilized_receiver_fair(),
        rep.same_path_receiver_fair()
    );
    println!(
        "  session-perspective (3, 4):  {} {}   <- fail for S2 (paper: fail)",
        rep.per_receiver_link_fair(),
        rep.per_session_link_fair()
    );

    println!(
        "\nEfficient counterfactual holds all four properties: {}",
        report_eff.fairness.expect("audited").all_hold()
    );

    let path = write_csv(".", "fig4_redundancy", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
