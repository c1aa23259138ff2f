//! Figure 2 regenerator: the single-rate failure example. Prints the
//! single-rate max-min allocation, the multi-rate replacement, which of the
//! four fairness properties each satisfies, and the Lemma 3 ordering —
//! two `Scenario`s over the same topology, differing only in allocator.
//!
//! `cargo run -p mlf-bench --bin fig2_single_rate`

use mlf_bench::{write_csv, Args, Table};
use mlf_core::allocator::{Hybrid, MultiRate};
use mlf_core::is_strictly_min_unfavorable;
use mlf_net::paper;
use mlf_scenario::Scenario;

fn main() {
    Args::for_binary(
        "fig2_single_rate",
        "Figure 2 regenerator: the single-rate failure example",
        &[],
    );
    let example = paper::figure2();
    // The declared regime (S1 single-rate) vs the multi-rate replacement:
    // one network, two allocators.
    let mut declared = Scenario::builder()
        .label("figure2-declared")
        .network(example.network.clone())
        .allocator(Hybrid::as_declared())
        .build()
        .expect("figure 2 scenario");
    let mut replaced = Scenario::builder()
        .label("figure2-multi-rate")
        .network(example.network)
        .allocator(MultiRate::new())
        .build()
        .expect("figure 2 scenario");

    let single_report = declared.run();
    let multi_report = replaced.run();
    let a_single = &single_report.solution.allocation;
    let a_multi = &multi_report.solution.allocation;
    let r_single = single_report.fairness.expect("audited");
    let r_multi = multi_report.fairness.expect("audited");

    println!("Figure 2: single-rate S1 vs its multi-rate replacement\n");
    let mut t = Table::new(["receiver", "single-rate", "multi-rate"]);
    for (r, a) in a_single.iter() {
        t.row([
            format!("{r}"),
            format!("{a:.2}"),
            format!("{:.2}", a_multi.rate(r)),
        ]);
    }
    print!("{t}");

    println!("\nproperty                         single-rate  multi-rate");
    for (name, s, m) in [
        (
            "1 fully-utilized-receiver-fair",
            r_single.fully_utilized_receiver_fair(),
            r_multi.fully_utilized_receiver_fair(),
        ),
        (
            "2 same-path-receiver-fair",
            r_single.same_path_receiver_fair(),
            r_multi.same_path_receiver_fair(),
        ),
        (
            "3 per-receiver-link-fair",
            r_single.per_receiver_link_fair(),
            r_multi.per_receiver_link_fair(),
        ),
        (
            "4 per-session-link-fair",
            r_single.per_session_link_fair(),
            r_multi.per_session_link_fair(),
        ),
    ] {
        println!("  {name:<32} {s:<12} {m}");
    }
    println!("\npaper: single-rate holds only property 4; multi-rate holds all four.");
    println!(
        "Lemma 3 ordering (single <m multi): {}",
        is_strictly_min_unfavorable(&a_single.ordered_vector(), &a_multi.ordered_vector())
    );

    let path = write_csv(".", "fig2_single_rate", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
