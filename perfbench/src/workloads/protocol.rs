//! `protocol_figures`: the two Section-4 figures. Figure 7(a)'s 25
//! two-receiver Markov chains (`mlf_protocols::markov`) and the Figure
//! 8(a) grid (3 protocols × 11 independent losses, 100 receivers, 8
//! layers) through `ProtocolScenario::sweep_par`, at a reduced trial
//! budget. The chains are spread over every core.

use super::{protocol_rig, Counts, Trace, Workload, PROTOCOLS_MARKOV, PROTOCOLS_POINT};
use crate::checks::{same_bits, Checks};
use crate::util::par_map;
use crate::util::Digest;
use mlf_protocols::{markov, run_trial, ExperimentParams, ProtocolKind};
use mlf_scenario::{ProtocolScenario, ProtocolSweepGrid, ProtocolSweepPoint, ProtocolSweepReport};
use mlf_sim::{reference, RunningStats, StarConfig, StarReport};

/// Layers in the ladder (paper: 8).
pub const LAYERS: usize = 8;
/// Receivers on the Figure-8 star (paper: 100).
pub const RECEIVERS: usize = 100;
/// Shared-link loss of panel 8(a).
pub const SHARED_LOSS: f64 = 1e-4;
/// Packets per trial (paper: 100,000).
pub const PACKETS: u64 = 100_000;
/// Trials per point. The paper runs 30; two keep one pass near a second
/// while every point still averages over 200,000 slots.
pub const TRIALS: usize = 2;
/// Points on the independent-loss axis (paper: 11, on `[0, 0.1]`).
pub const LOSS_POINTS: usize = 11;
/// Figure 7(a)'s total per-receiver loss budget.
const MARKOV_LOSS: f64 = 0.04;
/// The paper's bound on Coordinated redundancy in Figure 8.
pub const COORDINATED_BOUND: f64 = 2.5;
/// Grid points (one per protocol) re-run on the frozen star engine.
const REFERENCE_SAMPLE: [usize; 3] = [2, 16, 30];

/// One Figure-7(a) chain: protocol, shared loss, and the two receivers'
/// independent losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovCase {
    kind: ProtocolKind,
    p_s: f64,
    p_1: f64,
    p_2: f64,
}

/// The 25 chains of `fig7a_markov`: the shared/independent split of the
/// loss budget (5 splits × 3 protocols), then the asymmetric split of the
/// independent loss (5 splits × Uncoordinated and Coordinated).
pub fn figure7a_cases() -> Vec<MarkovCase> {
    let mut cases = Vec::with_capacity(25);
    for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (p_s, p_i) = (MARKOV_LOSS * share, MARKOV_LOSS * (1.0 - share));
        for kind in ProtocolKind::ALL {
            cases.push(MarkovCase {
                kind,
                p_s,
                p_1: p_i,
                p_2: p_i,
            });
        }
    }
    for split in ASYMMETRIC_SPLITS {
        for kind in [ProtocolKind::Uncoordinated, ProtocolKind::Coordinated] {
            cases.push(MarkovCase {
                kind,
                p_s: 1e-4,
                p_1: 2.0 * MARKOV_LOSS * split,
                p_2: 2.0 * MARKOV_LOSS * (1.0 - split),
            });
        }
    }
    cases
}

/// Receiver 1's share of the independent loss in the asymmetric sweep;
/// the first split is the equal-loss case.
const ASYMMETRIC_SPLITS: [f64; 5] = [0.5, 0.4, 0.3, 0.2, 0.1];

/// A solved chain: its stationary redundancy and state count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainResult {
    /// Stationary shared-link redundancy.
    pub redundancy: f64,
    /// States of the chain.
    pub states: usize,
}

/// Solve one Figure-7(a) chain.
pub fn solve_chain(case: &MarkovCase) -> ChainResult {
    let model = markov::two_receiver_chain(case.kind, LAYERS, case.p_s, case.p_1, case.p_2);
    ChainResult {
        redundancy: model.stationary_redundancy(),
        // One state per (ℓ₁, ℓ₂) pair of subscription levels.
        states: model.layers * model.layers,
    }
}

/// One pass: the Figure-8 sweep and the Figure-7(a) chains.
#[derive(Debug, Clone)]
pub struct ProtocolOutput {
    /// The Figure-8(a) grid.
    pub fig8: ProtocolSweepReport,
    /// The chains, in [`figure7a_cases`] order.
    pub chains: Vec<ChainResult>,
}

/// The `protocol_figures` workload.
pub struct ProtocolFigures {
    scenario: ProtocolScenario,
    grid: ProtocolSweepGrid,
    cases: Vec<MarkovCase>,
}

impl ProtocolFigures {
    fn template(&self) -> &ExperimentParams {
        self.scenario.template()
    }
}

/// Trial `trial` of `kind` at `params` on the frozen
/// `mlf_sim::reference::run_star`, seeded the way `run_trial` seeds the
/// optimized engine.
pub fn reference_trial(kind: ProtocolKind, params: &ExperimentParams, trial: usize) -> StarReport {
    let seed = params.seed.wrapping_add(trial as u64);
    let (mut controllers, mut markers) = protocol_rig(kind, params.receivers, params.layers, seed);
    let cfg = StarConfig::figure8(
        params.layers,
        params.receivers,
        params.shared_loss,
        params.independent_loss,
    )
    .with_latencies(params.join_latency, params.leave_latency);
    reference::run_star(&cfg, &mut controllers, &mut markers, params.packets, seed)
}

/// Re-run every trial of `point` on the optimized and the frozen star
/// engines: the two reports must be identical, and the point's redundancy
/// statistic must be the one those trials give.
pub fn check_point_against_reference(
    template: &ExperimentParams,
    point: &ProtocolSweepPoint,
) -> Result<(), String> {
    let params = ExperimentParams {
        seed: point.seed,
        ..*template
    }
    .with_independent_loss(point.independent_loss)
    .map_err(|e| e.to_string())?;
    let mut redundancy = RunningStats::new();
    for trial in 0..params.trials {
        let optimized = run_trial(point.kind, &params, trial);
        if optimized != reference_trial(point.kind, &params, trial) {
            return Err(format!(
                "{} at loss {} trial {trial}: star engine differs from the reference",
                point.kind.label(),
                point.independent_loss
            ));
        }
        if let Some(r) = optimized.shared_redundancy() {
            redundancy.push(r);
        }
    }
    if redundancy != point.outcome.redundancy {
        return Err(format!(
            "{} at loss {}: sweep redundancy {:?} differs from its trials' {:?}",
            point.kind.label(),
            point.independent_loss,
            point.outcome.redundancy,
            redundancy
        ));
    }
    Ok(())
}

/// The paper's Section-4 claims, checked on one pass: equal independent
/// losses maximize Figure 7(a)'s redundancy, and Figure 8's Coordinated
/// redundancy stays below [`COORDINATED_BOUND`].
pub fn check_claims(out: &ProtocolOutput, checks: &mut Checks) {
    let cases = figure7a_cases();
    let asymmetric: Vec<(MarkovCase, ChainResult)> = cases
        .iter()
        .copied()
        .zip(out.chains.iter().copied())
        .skip(15)
        .collect();
    for kind in [ProtocolKind::Uncoordinated, ProtocolKind::Coordinated] {
        let reds: Vec<f64> = asymmetric
            .iter()
            .filter(|(c, _)| c.kind == kind)
            .map(|(_, r)| r.redundancy)
            .collect();
        let equal = reds.first().copied().unwrap_or(f64::NAN);
        checks.check(
            reds.len() == ASYMMETRIC_SPLITS.len() && reds.iter().all(|&r| r <= equal),
            || {
                format!(
                    "Figure 7(a), {}: equal loss does not maximize redundancy: {reds:?}",
                    kind.label()
                )
            },
        );
    }
    let worst = out
        .fig8
        .points_for(ProtocolKind::Coordinated)
        .map(ProtocolSweepPoint::redundancy)
        .fold(f64::NEG_INFINITY, f64::max);
    checks.check(worst < COORDINATED_BOUND, || {
        format!("Figure 8: Coordinated redundancy reaches {worst}, not below {COORDINATED_BOUND}")
    });
}

fn stats_digest(d: Digest, s: &RunningStats) -> Digest {
    d.u64(s.count())
        .f64(s.mean())
        .f64(s.std_dev())
        .f64(s.min())
        .f64(s.max())
}

fn point_digest(d: Digest, p: &ProtocolSweepPoint) -> Digest {
    let o = &p.outcome;
    [
        &o.redundancy,
        &o.mean_level,
        &o.goodput,
        &o.observed_loss,
        &o.receiver_goodput,
        &o.receiver_mean_level,
    ]
    .into_iter()
    .fold(
        d.u64(p.kind as u64)
            .f64(p.shared_loss)
            .f64(p.independent_loss)
            .u64(p.seed)
            .u64(p.join_latency)
            .u64(p.leave_latency),
        stats_digest,
    )
}

/// A bitwise fingerprint of a Figure-8 report.
pub fn fig8_digest(report: &ProtocolSweepReport) -> u64 {
    report
        .points
        .iter()
        .fold(Digest::default(), point_digest)
        .value()
}

impl Workload for ProtocolFigures {
    type Output = ProtocolOutput;

    fn setup(seed: u64) -> Result<Self, String> {
        let template = ExperimentParams {
            layers: LAYERS,
            receivers: RECEIVERS,
            shared_loss: SHARED_LOSS,
            independent_loss: 0.0,
            packets: PACKETS,
            trials: TRIALS,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            join_latency: 0,
            leave_latency: 0,
        }
        .validated()
        .map_err(|e| e.to_string())?;
        let scenario = ProtocolScenario::builder()
            .label("fig8a_protocols")
            .template(template)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(ProtocolFigures {
            scenario,
            grid: ProtocolSweepGrid::figure8_axis(LOSS_POINTS),
            cases: figure7a_cases(),
        })
    }

    fn warm_up(&self, threads: usize) {
        let losses = self.grid.independent_losses.iter().copied().take(2);
        let slice = ProtocolSweepGrid::independent_losses(losses);
        std::hint::black_box(self.scenario.sweep_par(&slice, threads));
        let cases = &self.cases[..4];
        std::hint::black_box(par_map(cases, threads, solve_chain));
    }

    fn run(&self, threads: usize) -> ProtocolOutput {
        ProtocolOutput {
            fig8: self.scenario.sweep_par(&self.grid, threads),
            chains: par_map(&self.cases, threads, solve_chain),
        }
    }

    fn counts(&self, out: &ProtocolOutput) -> Counts {
        let points = out.fig8.points.len() as u64;
        let trials = points * self.template().trials as u64;
        Counts {
            jobs: points + out.chains.len() as u64,
            slots: trials * self.template().packets,
            trials,
            markov_states: out.chains.iter().map(|c| c.states as u64).sum(),
            ..Counts::default()
        }
    }

    fn digest(&self, out: &ProtocolOutput) -> u64 {
        out.chains
            .iter()
            .fold(Digest::default().u64(fig8_digest(&out.fig8)), |d, c| {
                d.f64(c.redundancy).u64(c.states as u64)
            })
            .value()
    }

    fn check(&self, out: &ProtocolOutput, threads: usize, checks: &mut Checks) {
        if threads > 1 {
            let serial = self.run(1);
            checks.check(
                serial.fig8 == out.fig8 && self.digest(&serial) == self.digest(out),
                || "serial and parallel passes differ".to_string(),
            );
        }
        for &i in &REFERENCE_SAMPLE {
            let verdict = out
                .fig8
                .points
                .get(i)
                .ok_or_else(|| format!("Figure 8 has no point {i}"))
                .and_then(|p| check_point_against_reference(self.template(), p));
            checks.check(verdict.is_ok(), || verdict.unwrap_err());
        }
        check_claims(out, checks);
    }

    fn traced(&self, out: &ProtocolOutput, trace: &mut Trace, checks: &mut Checks) {
        trace.sweep(|trace| {
            for point in &out.fig8.points {
                let again = trace.job(|t| {
                    t.span(PROTOCOLS_POINT, || {
                        self.scenario
                            .run_point(point.kind, point.independent_loss, point.seed)
                    })
                });
                checks.check(again == *point, || {
                    format!(
                        "{} at loss {}: traced point differs from the sweep",
                        point.kind.label(),
                        point.independent_loss
                    )
                });
            }
        });
        trace.sweep(|trace| {
            for (case, chain) in self.cases.iter().zip(&out.chains) {
                let again = trace.job(|t| t.span(PROTOCOLS_MARKOV, || solve_chain(case)));
                checks.check(
                    same_bits(again.redundancy, chain.redundancy) && again.states == chain.states,
                    || format!("{case:?}: traced chain differs"),
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_template() -> ExperimentParams {
        ExperimentParams {
            layers: LAYERS,
            receivers: 6,
            shared_loss: SHARED_LOSS,
            independent_loss: 0.0,
            packets: 3_000,
            trials: 2,
            seed: 11,
            join_latency: 0,
            leave_latency: 0,
        }
    }

    fn tiny_sweep() -> ProtocolSweepReport {
        ProtocolScenario::builder()
            .template(tiny_template())
            .build()
            .expect("valid template")
            .sweep_par(&ProtocolSweepGrid::independent_losses([0.02, 0.08]), 2)
    }

    #[test]
    fn figure7a_has_25_chains_and_equal_loss_first() {
        let cases = figure7a_cases();
        assert_eq!(cases.len(), 25);
        assert_eq!(cases[15].p_1, cases[15].p_2);
        assert_eq!(cases[16].p_1, cases[16].p_2);
    }

    #[test]
    fn sampled_points_match_the_reference_engine() {
        for point in &tiny_sweep().points {
            assert_eq!(
                check_point_against_reference(&tiny_template(), point),
                Ok(())
            );
        }
    }

    #[test]
    fn a_corrupted_point_fails_the_reference_check() {
        let mut point = tiny_sweep().points[4].clone();
        point.outcome.redundancy.push(1.0);
        assert!(check_point_against_reference(&tiny_template(), &point).is_err());
    }

    #[test]
    fn claims_fail_on_violating_outputs() {
        let fig8 = tiny_sweep();
        let chains: Vec<ChainResult> = figure7a_cases().iter().map(solve_chain).collect();
        let out = ProtocolOutput { fig8, chains };
        let mut checks = Checks::default();
        check_claims(&out, &mut checks);
        assert_eq!(
            (checks.attempted(), checks.failed()),
            (3, 0),
            "{}",
            checks.record().render()
        );

        let mut bad = out.clone();
        bad.chains[17].redundancy = bad.chains[15].redundancy + 0.5;
        let mut checks = Checks::default();
        check_claims(&bad, &mut checks);
        assert_eq!(checks.failed(), 1);
        assert!(fig8_digest(&bad.fig8) == fig8_digest(&out.fig8));
    }
}
