//! Paired bench gates: every gated bench times the code under test against
//! frozen code in the same process, so the machine's speed cancels out.
//!
//! A gate runs its two sides alternately, [`REPS`] times each after one
//! untimed warm-up of each, and takes the median of the per-repetition
//! time ratios. The frozen side is one of the fingerprint-locked
//! references (`mlf_core::reference`, `mlf_sim::reference`,
//! `mlf_sim::reference_tree`): either the optimized engine's own reference
//! (a speed-up *floor*), or the [`yardstick`], a fixed reference solve that
//! stands in for the machine's speed where no reference pairs with the
//! timed path (a *ceiling*). Every floor and ceiling is a constant in its
//! bench, calibrated from measured spreads; `docs/benchmarks.md` lists
//! them with the machine they were calibrated on.

use mlf_core::{reference, LinkRateConfig, LinkRateModel, MaxMinSolution, Regimes};
use mlf_net::topology::random_network;
use mlf_net::{Network, SessionType};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each side of a gate.
pub const REPS: usize = 11;

/// The median over [`REPS`] interleaved repetitions of
/// `time(numerator) / time(denominator)`.
pub fn median_time_ratio(mut numerator: impl FnMut(), mut denominator: impl FnMut()) -> f64 {
    numerator();
    denominator();
    let mut ratios: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            numerator();
            let num = t.elapsed().as_secs_f64();
            let t = Instant::now();
            denominator();
            num / t.elapsed().as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[REPS / 2]
}

/// Print a gate's verdict and fail the bench when `ratio` is below
/// `floor`.
pub fn assert_floor(gate: &str, ratio: f64, floor: f64) {
    println!("gate {gate}: {ratio:.2} (median of {REPS}), floor {floor:.2}");
    assert!(
        ratio >= floor,
        "{gate}: {ratio:.2} is below the floor {floor:.2}"
    );
}

/// Print a gate's verdict and fail the bench when `ratio` is above
/// `ceiling`.
pub fn assert_ceiling(gate: &str, ratio: f64, ceiling: f64) {
    println!("gate {gate}: {ratio:.2} (median of {REPS}), ceiling {ceiling:.2}");
    assert!(
        ratio <= ceiling,
        "{gate}: {ratio:.2} is above the ceiling {ceiling:.2}"
    );
}

/// Assert an optimized solve and a frozen-reference solve agree bit for
/// bit: iteration counts, freeze reasons, and every rate by `to_bits`.
pub fn assert_bitwise(label: &str, optimized: &MaxMinSolution, reference: &MaxMinSolution) {
    let bits = |s: &MaxMinSolution| -> Vec<Vec<u64>> {
        s.allocation
            .rates()
            .iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(optimized.iterations, reference.iterations, "{label}");
    assert_eq!(optimized.reasons, reference.reasons, "{label}");
    assert_eq!(bits(optimized), bits(reference), "{label}");
}

/// The denominator of the ceiling gates: one pass of the frozen reference
/// solving the first 64 Figure-5 networks (30 nodes, 8 sessions, up to 5
/// receivers) under the Appendix B random-join model. The corpus is built
/// here, outside the timed pass.
///
/// The reference's own code is fingerprint-locked, but it calls shared
/// code that is not: the `mlf_net::Network` accessors and routes and
/// `mlf_core::linkrate`. The optimized solver and the Figure-5 sweep call
/// the same code, so a slowdown there moves both sides of every solver
/// floor and of the sweep ceiling, and no gate sees it.
pub fn yardstick() -> impl Fn() {
    let corpus: Vec<(Network, LinkRateConfig)> = (0..64)
        .map(|seed| {
            let net = random_network(seed, 30, 8, 5).expect("Figure-5 shape is valid");
            let cfg = LinkRateConfig::uniform(
                net.session_count(),
                LinkRateModel::RandomJoin { sigma: 6.0 },
            );
            (net, cfg)
        })
        .collect();
    move || {
        for (net, cfg) in &corpus {
            black_box(reference::solve_in(
                net,
                cfg,
                &Regimes::Uniform(SessionType::MultiRate),
            ));
        }
    }
}
