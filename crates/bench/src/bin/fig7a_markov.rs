//! Figure 7(a) regenerator: exact Markov analysis of the two-receiver star.
//! Sweeps how a fixed end-to-end loss budget is split between shared and
//! independent loss, reproducing the paper's analytic headline: redundancy
//! is highest when receivers experience the same (independent) end-to-end
//! loss rates.
//!
//! `cargo run -p mlf-bench --bin fig7a_markov [--layers 8] [--loss 0.04]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_protocols::{markov, validate_loss, ProtocolKind};

const KNOBS: &[cli::Knob] = &[
    knob("layers", "8", "number of layers in the ladder"),
    knob("loss", "0.04", "total per-receiver loss budget"),
];

/// How the asymmetric sweep splits twice the loss budget between the two
/// receivers: receiver 1 gets `split`, receiver 2 the rest.
const SPLITS: [f64; 5] = [0.5, 0.4, 0.3, 0.2, 0.1];

/// The most layers `markov::two_receiver_chain` builds a chain for.
const MAX_LAYERS: usize = 12;

/// Refuse a ladder the exact chain cannot hold, and a loss budget that puts
/// any receiver of either sweep outside `[0, 1)`.
fn check_knobs(layers: usize, loss: f64) -> Result<(), String> {
    if !(1..=MAX_LAYERS).contains(&layers) {
        return Err(format!(
            "--layers must be between 1 and {MAX_LAYERS}, got {layers}"
        ));
    }
    validate_loss("total", loss).map_err(|e| e.to_string())?;
    let widest = 2.0 * loss * (1.0 - SPLITS[SPLITS.len() - 1]);
    validate_loss("the asymmetric sweep's largest", widest).map_err(|e| e.to_string())
}

fn main() {
    let args = Args::for_binary(
        "fig7a_markov",
        "Figure 7(a) regenerator: exact two-receiver Markov analysis",
        KNOBS,
    );
    let layers: usize = or_exit(args.get("layers", 8));
    let loss: f64 = or_exit(args.get("loss", 0.04));
    or_exit(check_knobs(layers, loss));

    println!("Two-receiver star, {layers} layers, total per-receiver loss ≈ {loss}\n");

    // Sweep 1: shared vs independent split of the loss budget.
    println!("-- shared/independent split of the loss budget --\n");
    let mut t = Table::new([
        "shared",
        "independent",
        "Uncoordinated",
        "Deterministic",
        "Coordinated",
    ]);
    for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let p_s = loss * share;
        let p_i = loss * (1.0 - share);
        let reds: Vec<f64> = ProtocolKind::ALL
            .iter()
            .map(|&k| markov::two_receiver_chain(k, layers, p_s, p_i, p_i).stationary_redundancy())
            .collect();
        let mut cells = vec![format!("{p_s:.3}"), format!("{p_i:.3}")];
        cells.extend(reds.iter().map(|r| format!("{r:.4}")));
        t.row(cells);
    }
    print!("{t}");
    println!("\n(shared loss synchronizes leaves -> lower redundancy)\n");

    // Sweep 2: asymmetry between the two receivers' independent losses.
    println!("-- asymmetric independent loss, fixed total --\n");
    let mut t2 = Table::new(["p1", "p2", "Uncoordinated", "Coordinated"]);
    for split in SPLITS {
        let p1 = 2.0 * loss * split;
        let p2 = 2.0 * loss * (1.0 - split);
        let u = markov::two_receiver_chain(ProtocolKind::Uncoordinated, layers, 1e-4, p1, p2)
            .stationary_redundancy();
        let c = markov::two_receiver_chain(ProtocolKind::Coordinated, layers, 1e-4, p1, p2)
            .stationary_redundancy();
        t2.row([
            format!("{p1:.3}"),
            format!("{p2:.3}"),
            format!("{u:.4}"),
            format!("{c:.4}"),
        ]);
    }
    print!("{t2}");
    println!("\n(equal loss rates maximize redundancy — the paper's key finding)");

    let path = write_csv(".", "fig7a_markov", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
