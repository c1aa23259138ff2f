//! Command-line contract of the figure binaries: an invalid knob value is
//! refused at argument parsing with exit code 2, before any work runs.

use std::process::Command;

/// Run `fig5_random_joins` with the given sweep and Monte-Carlo knobs (the
/// rest kept small, so a binary that wrongly accepts a value stays quick),
/// and assert it is refused with exit code 2, the given error line and no
/// table.
fn assert_fig5_refuses(sweep_seeds: &str, mc_quanta: &str, mc_sigma: &str, error: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_random_joins"))
        .args(["--sweep-seeds", sweep_seeds, "--max-receivers", "5"])
        .args([
            "--mc-quanta",
            mc_quanta,
            "--mc-sigma",
            mc_sigma,
            "--threads",
            "1",
        ])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("fig5_random_joins runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(error), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table is printed");
}

#[test]
fn fig5_refuses_an_empty_network_sweep() {
    assert_fig5_refuses("0", "20", "10", "error: --sweep-seeds must be at least 1");
}

#[test]
fn fig5_refuses_zero_monte_carlo_quanta() {
    assert_fig5_refuses("1", "0", "10", "error: --mc-quanta must be at least 1");
}

#[test]
fn fig5_refuses_a_zero_monte_carlo_sigma() {
    assert_fig5_refuses("1", "20", "0", "error: --mc-sigma 0 rounds");
}

#[test]
fn fig5_refuses_a_monte_carlo_sigma_that_rounds_a_quota_to_zero() {
    // 0.1 × 2 packets rounds to a zero quota.
    assert_fig5_refuses(
        "1",
        "20",
        "2",
        "error: --mc-sigma 2 rounds the receiver rate 0.1 to a zero packet quota",
    );
}
