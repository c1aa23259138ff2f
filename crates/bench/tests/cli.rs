//! Command-line contract of the figure binaries: an invalid knob value is
//! refused with exit code 2 and an `error:` line, before any work runs.

use std::path::Path;
use std::process::Command;

/// One refused command line: the binary, its arguments, and the error line
/// it must print.
type Row<'a> = (&'a str, &'a [&'a str], &'a str);

/// Run every row and assert each is refused with exit code 2, its error
/// line on stderr and no table on stdout. The other knobs in a row are kept
/// small, so a binary that wrongly accepts a value stays quick; every row
/// runs before the test fails, and the failure names each bad row.
fn assert_refused(rows: &[Row]) {
    let mut failures = Vec::new();
    for &(binary, args, error) in rows {
        let out = Command::new(binary)
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(2) || !stderr.contains(error) || !out.stdout.is_empty() {
            let name = Path::new(binary).file_name().unwrap_or_default();
            failures.push(format!(
                "{name:?} {args:?}: {}, stdout {} bytes, stderr: {stderr}",
                out.status,
                out.stdout.len()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

const FIG1: &str = env!("CARGO_BIN_EXE_fig1_example");
const FIG2: &str = env!("CARGO_BIN_EXE_fig2_single_rate");
const FIG3: &str = env!("CARGO_BIN_EXE_fig3_removal");
const FIG4: &str = env!("CARGO_BIN_EXE_fig4_redundancy");
const FIG5: &str = env!("CARGO_BIN_EXE_fig5_random_joins");
const FIG6: &str = env!("CARGO_BIN_EXE_fig6_fair_rate_impact");
const FIG7A: &str = env!("CARGO_BIN_EXE_fig7a_markov");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8_protocols");
const FIXED: &str = env!("CARGO_BIN_EXE_fig_fixed_layers");
const ACTIVE: &str = env!("CARGO_BIN_EXE_ablation_active");
const BURST: &str = env!("CARGO_BIN_EXE_ablation_burst");
const LATENCY: &str = env!("CARGO_BIN_EXE_ablation_latency");
const TREE: &str = env!("CARGO_BIN_EXE_ext_tree_protocols");

/// `fig5_random_joins` with the given sweep and Monte-Carlo knobs.
fn fig5_args<'a>(sweep_seeds: &'a str, mc_quanta: &'a str, mc_sigma: &'a str) -> [&'a str; 10] {
    [
        "--sweep-seeds",
        sweep_seeds,
        "--max-receivers",
        "5",
        "--mc-quanta",
        mc_quanta,
        "--mc-sigma",
        mc_sigma,
        "--threads",
        "1",
    ]
}

#[test]
fn fig5_refuses_an_empty_network_sweep() {
    assert_refused(&[(
        FIG5,
        &fig5_args("0", "20", "10"),
        "error: --sweep-seeds must be at least 1",
    )]);
}

#[test]
fn fig5_refuses_zero_max_receivers() {
    assert_refused(&[(
        FIG5,
        &[
            "--max-receivers",
            "0",
            "--sweep-seeds",
            "1",
            "--mc-quanta",
            "20",
            "--threads",
            "1",
        ],
        "error: --max-receivers must be at least 1",
    )]);
}

#[test]
fn fig5_refuses_zero_monte_carlo_quanta() {
    assert_refused(&[(
        FIG5,
        &fig5_args("1", "0", "10"),
        "error: --mc-quanta must be at least 1",
    )]);
}

#[test]
fn fig5_refuses_a_zero_monte_carlo_sigma() {
    assert_refused(&[(
        FIG5,
        &fig5_args("1", "20", "0"),
        "error: --mc-sigma 0 rounds",
    )]);
}

#[test]
fn fig5_refuses_a_monte_carlo_sigma_that_rounds_a_quota_to_zero() {
    // 0.1 × 2 packets rounds to a zero quota.
    assert_refused(&[(
        FIG5,
        &fig5_args("1", "20", "2"),
        "error: --mc-sigma 2 rounds the receiver rate 0.1 to a zero packet quota",
    )]);
}

#[test]
fn knobless_binaries_refuse_unknown_options() {
    assert_refused(&[
        (FIG1, &["--bogus", "1"], "error: unknown option --bogus"),
        (FIG2, &["--bogus", "1"], "error: unknown option --bogus"),
        (FIG3, &["--bogus", "1"], "error: unknown option --bogus"),
        (FIG4, &["--bogus", "1"], "error: unknown option --bogus"),
    ]);
}

#[test]
fn experiment_binaries_refuse_zero_counts() {
    assert_refused(&[
        (
            FIG8,
            &[
                "--layers",
                "0",
                "--trials",
                "1",
                "--points",
                "2",
                "--packets",
                "1000",
            ],
            "error: layers must be at least 1",
        ),
        (
            FIG8,
            &[
                "--layers",
                "60",
                "--trials",
                "1",
                "--packets",
                "10",
                "--receivers",
                "2",
                "--points",
                "2",
            ],
            "error: layers must be at most 59, got 60",
        ),
        (
            FIG8,
            &[
                "--trials",
                "0",
                "--points",
                "2",
                "--packets",
                "1000",
                "--receivers",
                "4",
            ],
            "error: trials must be at least 1",
        ),
        (
            ACTIVE,
            &["--trials", "0", "--packets", "1000", "--receivers", "4"],
            "error: trials must be at least 1",
        ),
        (
            BURST,
            &["--trials", "0", "--packets", "1000", "--receivers", "4"],
            "error: --trials must be at least 1",
        ),
        (
            LATENCY,
            &["--trials", "0", "--packets", "1000", "--receivers", "4"],
            "error: trials must be at least 1",
        ),
        (
            TREE,
            &["--trials", "0", "--packets", "1000"],
            "error: --trials must be at least 1",
        ),
    ]);
}

#[test]
fn binaries_refuse_knobs_their_library_would_panic_on() {
    assert_refused(&[
        (
            FIG7A,
            &["--layers", "0"],
            "error: --layers must be between 1 and 12, got 0",
        ),
        (
            FIG7A,
            &["--loss", "nan"],
            "error: total loss rate must be finite, got NaN",
        ),
        (
            FIG7A,
            &["--loss", "1.5"],
            "error: total loss rate 1.5 is outside [0, 1)",
        ),
        (FIG6, &["--steps", "0"], "error: --steps must be at least 2"),
        (
            FIXED,
            &["--capacity", "nan"],
            "error: --capacity must be positive and finite, got NaN",
        ),
        (
            FIXED,
            &["--capacity", "-1"],
            "error: --capacity must be positive and finite, got -1",
        ),
        (
            FIXED,
            &["--capacity", "0"],
            "error: --capacity must be positive and finite, got 0",
        ),
        (
            BURST,
            &["--loss", "nan", "--trials", "1", "--packets", "1000"],
            "error: independent loss rate must be finite, got NaN",
        ),
        (
            TREE,
            &["--loss", "nan", "--trials", "1", "--packets", "1000"],
            "error: per-link loss rate must be finite, got NaN",
        ),
        (
            TREE,
            &["--depth", "0", "--trials", "1", "--packets", "1000"],
            "error: --depth must be at least 1",
        ),
        (
            TREE,
            &["--depth", "17", "--trials", "1", "--packets", "1000"],
            "error: --depth must be at most 16, got 17",
        ),
    ]);
}
