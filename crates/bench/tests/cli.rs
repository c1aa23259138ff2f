//! Command-line contract of the figure binaries: an invalid knob value is
//! refused at argument parsing with exit code 2, before any work runs.

use std::process::Command;

#[test]
fn fig5_refuses_an_empty_network_sweep() {
    // Small knobs keep a binary that wrongly accepts the value quick.
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_random_joins"))
        .args(["--sweep-seeds", "0", "--max-receivers", "5"])
        .args(["--mc-quanta", "20", "--mc-sigma", "10", "--threads", "1"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("fig5_random_joins runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --sweep-seeds must be at least 1"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no table is printed");
}
