//! Section 3 fixed-layer regenerator: enumerate the feasible allocations of
//! the single-link two-session example and show none is max-min fair.
//!
//! `cargo run -p mlf-bench --bin fig_fixed_layers [--capacity 6]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_layering::fixed;

const KNOBS: &[cli::Knob] = &[knob("capacity", "6", "capacity of the single shared link")];

fn main() {
    let args = Args::for_binary(
        "fig_fixed_layers",
        "Section 3 fixed-layer example: no max-min fair allocation exists",
        KNOBS,
    );
    let capacity: f64 = or_exit(args.get("capacity", 6.0));
    if !(capacity.is_finite() && capacity > 0.0) {
        eprintln!("error: --capacity must be positive and finite, got {capacity}");
        std::process::exit(2);
    }

    let analysis = fixed::section3_example(capacity);
    println!(
        "Single link of capacity {capacity}; S1 layers 3 x {:.2}, S2 layers 2 x {:.2}\n",
        capacity / 3.0,
        capacity / 2.0
    );
    let mut t = Table::new(["a1", "a2", "max-min fair?"]);
    for alloc in &analysis.feasible {
        let a1 = alloc.rates()[0][0];
        let a2 = alloc.rates()[1][0];
        let is_mm = fixed::is_max_min_within(alloc, &analysis.feasible);
        t.row([format!("{a1:.2}"), format!("{a2:.2}"), format!("{is_mm}")]);
    }
    print!("{t}");
    println!(
        "\nfeasible allocations: {} (paper: 7 at c = 6)",
        analysis.feasible.len()
    );
    match &analysis.max_min {
        None => println!("max-min fair allocation: NONE EXISTS (paper: none exists)"),
        Some(a) => println!("max-min fair allocation: {:?} (unexpected!)", a.rates()),
    }

    let path = write_csv(".", "fig_fixed_layers", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
