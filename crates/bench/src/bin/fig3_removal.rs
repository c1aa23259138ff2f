//! Figure 3 regenerator: receiver removal moves max-min fair rates in
//! *either* direction. Prints both example networks before/after removing
//! `r3,2` next to the paper's values. One allocator + one workspace serve
//! all four solves.
//!
//! `cargo run -p mlf-bench --bin fig3_removal`

use mlf_bench::{write_csv, Args, Table};
use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_net::paper::{self, RemovalExample};

fn main() {
    Args::for_binary(
        "fig3_removal",
        "Figure 3 regenerator: receiver removal moves fair rates in either direction",
        &[],
    );
    println!("Figure 3: the effect of removing receiver r3,2\n");
    let mut ws = SolverWorkspace::new();
    run("3(a) intra-session DECREASE", paper::figure3a(), &mut ws);
    println!();
    run("3(b) intra-session INCREASE", paper::figure3b(), &mut ws);
}

fn run(title: &str, ex: RemovalExample, ws: &mut SolverWorkspace) {
    let allocator = Hybrid::as_declared();
    let before = allocator.solve(&ex.network, ws).allocation;
    let after_net = ex.network.without_receiver(ex.removed).expect("removable");
    let after = allocator.solve(&after_net, ws).allocation;

    println!("-- Figure {title} --");
    let mut t = Table::new(["receiver", "before", "after", "paper before", "paper after"]);
    for (r, b) in before.iter() {
        let removed = r == ex.removed;
        let a = if removed {
            "-".to_string()
        } else {
            // Indices shift after removal within the same session.
            let idx = if r.session == ex.removed.session && r.index > ex.removed.index {
                r.index - 1
            } else {
                r.index
            };
            format!("{:.0}", after.rates()[r.session.0][idx])
        };
        let pb = format!("{:.0}", ex.before[r.session.0][r.index]);
        let pa = if removed {
            "-".to_string()
        } else {
            let idx = if r.session == ex.removed.session && r.index > ex.removed.index {
                r.index - 1
            } else {
                r.index
            };
            format!("{:.0}", ex.after[r.session.0][idx])
        };
        t.row([format!("{r}"), format!("{b:.0}"), a, pb, pa]);
    }
    print!("{t}");
    let name = if title.contains("(a)") {
        "fig3a_removal"
    } else {
        "fig3b_removal"
    };
    let path = write_csv(".", name, &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
