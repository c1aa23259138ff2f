//! The allocator workloads: the Figure-5 network sweep shape over four
//! topology families, solved either under RandomJoin link rates
//! (`alloc_randomjoin`, through `Scenario::sweep_par`) or as a grid over
//! three linear link-rate models (`alloc_linear_grid`, through
//! `Scenario::sweep_grid_par`).

use super::{Counts, Trace, Workload, CORE_METRICS, CORE_PROPERTIES, CORE_SOLVE, NET_TOPOLOGY};
use crate::checks::{same_bits, Checks};
use crate::util::Digest;
use mlf_core::allocator::{Allocator, MultiRate, Regimes, SolverWorkspace};
use mlf_core::{metrics, properties, reference, LinkRateConfig, LinkRateModel, MaxMinSolution};
use mlf_net::topology::random_network_with;
use mlf_net::{Network, SessionType, TopologyFamily};
use mlf_scenario::{LinkRates, Scenario, SweepGrid, SweepPoint, SweepReport};
use std::ops::Range;

/// The Figure-5 sweep's four topology families.
pub const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 4 },
    TopologyFamily::Dumbbell,
];
/// Nodes per random topology.
pub const NODES: usize = 30;
/// Sessions per random topology.
pub const SESSIONS: usize = 8;
/// Most receivers per session.
pub const MAX_RECEIVERS: usize = 5;
/// The RandomJoin layer rate σ of the Figure-5 sweep.
pub const SIGMA: f64 = 6.0;
/// Topology seeds per family in one pass. Kept at the scenario's network
/// cache capacity (256), so the grid's three models can share topologies
/// the way they do in the figure binaries.
pub const SEEDS_PER_FAMILY: u64 = 256;
/// Every `SAMPLE_EVERY`-th seed of a pass is re-solved on the reference.
const SAMPLE_EVERY: u64 = 32;
/// The linear link-rate models of the grid workload.
pub const GRID_MODELS: [LinkRateModel; 3] = [
    LinkRateModel::Efficient,
    LinkRateModel::Sum,
    LinkRateModel::Scaled(2.0),
];

/// The RandomJoin model the `alloc_randomjoin` scenarios carry.
pub const RANDOM_JOIN: LinkRateModel = LinkRateModel::RandomJoin { sigma: SIGMA };

/// An allocator workload over one block of topology seeds: the RandomJoin
/// sweep (`GRID = false`) or the linear-model grid (`GRID = true`).
pub struct Alloc<const GRID: bool> {
    scenarios: Vec<(TopologyFamily, Scenario)>,
    seeds: Range<u64>,
}

/// The `alloc_randomjoin` workload.
pub type RandomJoin = Alloc<false>;
/// The `alloc_linear_grid` workload.
pub type LinearGrid = Alloc<true>;

/// The block of topology seeds workload seed `seed` selects: distinct
/// seeds give disjoint blocks.
pub fn seed_block(seed: u64) -> Result<Range<u64>, String> {
    let start = seed
        .checked_mul(SEEDS_PER_FAMILY)
        .filter(|s| s.checked_add(SEEDS_PER_FAMILY).is_some())
        .ok_or_else(|| format!("seed {seed} is too large"))?;
    Ok(start..start + SEEDS_PER_FAMILY)
}

impl<const GRID: bool> Alloc<GRID> {
    /// Build the four family scenarios over `seeds`.
    pub fn new(seeds: Range<u64>) -> Result<Self, String> {
        let scenarios = FAMILIES
            .iter()
            .map(|&family| {
                let builder = Scenario::builder()
                    .label(family.label())
                    .random_networks_with(family, NODES, SESSIONS, MAX_RECEIVERS)
                    .allocator(MultiRate::new());
                let builder = if GRID {
                    builder
                } else {
                    builder.link_rates(LinkRates::Uniform(RANDOM_JOIN))
                };
                builder
                    .build()
                    .map(|s| (family, s))
                    .map_err(|e| format!("scenario for {}: {e}", family.label()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Alloc { scenarios, seeds })
    }

    fn sweep(&self, scenario: &Scenario, seeds: Range<u64>, threads: usize) -> SweepReport {
        if GRID {
            scenario.sweep_grid_par(&SweepGrid::seeds(seeds).with_models(GRID_MODELS), threads)
        } else {
            scenario.sweep_par(seeds, threads)
        }
    }
}

/// The link-rate model a point was solved under.
fn model_of(point: &SweepPoint) -> LinkRateModel {
    point.model.unwrap_or(RANDOM_JOIN)
}

/// The Figure-5-shaped topology of `family` for `seed`.
pub fn topology(family: TopologyFamily, seed: u64) -> Result<Network, String> {
    random_network_with(family, seed, NODES, SESSIONS, MAX_RECEIVERS)
        .map_err(|e| format!("topology {} seed {seed}: {e}", family.label()))
}

/// The multi-rate solve every sweep point makes.
pub fn solve(
    net: &Network,
    cfg: &LinkRateConfig,
    ws: &mut SolverWorkspace,
) -> Result<MaxMinSolution, String> {
    MultiRate::new()
        .solve_with(net, cfg, ws)
        .ok_or_else(|| "the multi-rate allocator ignored the link-rate config".to_string())
}

/// The scalar outputs a sweep point carries, recomputed outside the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointValues {
    jain: f64,
    min_rate: f64,
    total_rate: f64,
    satisfaction: f64,
    iterations: usize,
}

impl PointValues {
    /// The values `ScenarioMetrics` reports for `solution` on `net`.
    pub fn measure(net: &Network, solution: &MaxMinSolution) -> PointValues {
        let a = &solution.allocation;
        PointValues {
            jain: metrics::jain_index(a),
            min_rate: a.min_rate(),
            total_rate: a.total_rate(),
            satisfaction: metrics::satisfaction(net, a),
            iterations: solution.iterations,
        }
    }

    /// Whether `point` carries exactly these values (bitwise) and
    /// `holding` audited properties.
    pub fn matches(&self, point: &SweepPoint, holding: usize, source: &str) -> Result<(), String> {
        let m = &point.metrics;
        let same = same_bits(m.jain_index, self.jain)
            && same_bits(m.min_rate, self.min_rate)
            && same_bits(m.total_rate, self.total_rate)
            && same_bits(m.satisfaction, self.satisfaction)
            && m.iterations == self.iterations
            && point.properties_holding == Some(holding);
        if same {
            Ok(())
        } else {
            Err(format!(
                "sweep point {m:?} ({:?} properties) differs from the {source} {self:?} ({holding} properties)",
                point.properties_holding
            ))
        }
    }
}

/// Re-solve `point` with the frozen `mlf_core::reference` engine and
/// compare: the optimized solve must equal the reference solve, and the
/// point's metrics and audit must be what the reference solution gives.
pub fn check_against_reference(
    family: TopologyFamily,
    point: &SweepPoint,
    model: LinkRateModel,
) -> Result<(), String> {
    let net = topology(family, point.seed)?;
    let cfg = LinkRateConfig::uniform(net.session_count(), model);
    let optimized = solve(&net, &cfg, &mut SolverWorkspace::new())?;
    let frozen = reference::solve_in(&net, &cfg, &Regimes::Uniform(SessionType::MultiRate));
    let context = || format!("{} seed {} {model:?}", family.label(), point.seed);
    if optimized != frozen || solution_digest(&optimized) != solution_digest(&frozen) {
        return Err(format!(
            "{}: optimized solve differs from the reference",
            context()
        ));
    }
    let holding = properties::check_all(&net, &cfg, &frozen.allocation).count_holding();
    PointValues::measure(&net, &frozen)
        .matches(point, holding, "reference re-solve")
        .map_err(|e| format!("{}: {e}", context()))
}

fn solution_digest(s: &MaxMinSolution) -> u64 {
    let rates = s.allocation.rates();
    rates
        .iter()
        .flatten()
        .fold(Digest::default().u64(rates.len() as u64), |d, &r| d.f64(r))
        .u64(s.iterations as u64)
        .value()
}

fn model_digest(d: Digest, model: Option<LinkRateModel>) -> Digest {
    match model {
        None => d.u64(0),
        Some(LinkRateModel::Efficient) => d.u64(1),
        Some(LinkRateModel::Sum) => d.u64(2),
        Some(LinkRateModel::Scaled(f)) => d.u64(3).f64(f),
        Some(LinkRateModel::RandomJoin { sigma }) => d.u64(4).f64(sigma),
    }
}

/// A bitwise fingerprint of a sweep report's points.
pub fn report_digest(report: &SweepReport) -> u64 {
    report
        .points
        .iter()
        .fold(Digest::default(), |d, p| {
            let m = &p.metrics;
            model_digest(d.u64(p.seed), p.model)
                .f64(m.jain_index)
                .f64(m.min_rate)
                .f64(m.total_rate)
                .f64(m.satisfaction)
                .u64(m.iterations as u64)
                .u64(p.properties_holding.map_or(u64::MAX, |h| h as u64))
        })
        .value()
}

fn counts(out: &[SweepReport]) -> Counts {
    let mut c = Counts::default();
    for r in out {
        c.jobs += r.points.len() as u64;
        c.solver_iterations += r
            .points
            .iter()
            .map(|p| p.metrics.iterations as u64)
            .sum::<u64>();
        c.cache_hits += r.cache.hits;
        c.cache_misses += r.cache.misses;
        c.cache_evictions += r.cache.evictions;
    }
    c
}

fn digest(out: &[SweepReport]) -> u64 {
    out.iter()
        .fold(Digest::default(), |d, r| d.u64(report_digest(r)))
        .value()
}

impl<const GRID: bool> Workload for Alloc<GRID> {
    type Output = Vec<SweepReport>;

    fn setup(seed: u64) -> Result<Self, String> {
        Self::new(seed_block(seed)?)
    }

    fn warm_up(&self, threads: usize) {
        let slice = self.seeds.start..self.seeds.start + SEEDS_PER_FAMILY / 8;
        for (_, s) in &self.scenarios {
            std::hint::black_box(self.sweep(s, slice.clone(), threads));
        }
    }

    fn run(&self, threads: usize) -> Self::Output {
        self.scenarios
            .iter()
            .map(|(_, s)| self.sweep(s, self.seeds.clone(), threads))
            .collect()
    }

    fn counts(&self, out: &Self::Output) -> Counts {
        counts(out)
    }

    fn digest(&self, out: &Self::Output) -> u64 {
        digest(out)
    }

    fn check(&self, out: &Self::Output, threads: usize, checks: &mut Checks) {
        for ((family, scenario), report) in self.scenarios.iter().zip(out) {
            if threads > 1 {
                let serial = self.sweep(scenario, self.seeds.clone(), 1);
                checks.check(
                    serial == *report && report_digest(&serial) == report_digest(report),
                    || format!("{}: serial and parallel sweeps differ", family.label()),
                );
            }
            for point in report
                .points
                .iter()
                .filter(|p| (p.seed - self.seeds.start).is_multiple_of(SAMPLE_EVERY))
            {
                let verdict = check_against_reference(*family, point, model_of(point));
                checks.check(verdict.is_ok(), || verdict.unwrap_err());
            }
        }
    }

    fn traced(&self, out: &Self::Output, trace: &mut Trace, checks: &mut Checks) {
        let mut ws = SolverWorkspace::new();
        for ((family, _), report) in self.scenarios.iter().zip(out) {
            trace.sweep(|trace| {
                for point in &report.points {
                    let model = model_of(point);
                    let got = trace.job(|t| {
                        let net = t.span(NET_TOPOLOGY, || topology(*family, point.seed))?;
                        let cfg = LinkRateConfig::uniform(net.session_count(), model);
                        let solution = t.span(CORE_SOLVE, || solve(&net, &cfg, &mut ws))?;
                        let holding = t.span(CORE_PROPERTIES, || {
                            properties::check_all(&net, &cfg, &solution.allocation).count_holding()
                        });
                        let values = t.span(CORE_METRICS, || PointValues::measure(&net, &solution));
                        Ok::<_, String>((values, holding))
                    });
                    let verdict = got.and_then(|(values, holding)| {
                        values.matches(point, holding, "traced re-solve")
                    });
                    checks.check(verdict.is_ok(), || {
                        format!(
                            "{} seed {}: {}",
                            family.label(),
                            point.seed,
                            verdict.unwrap_err()
                        )
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small<const GRID: bool>() -> (Alloc<GRID>, Vec<SweepReport>) {
        let alloc = Alloc::<GRID>::new(40..43).expect("valid scenarios");
        let out = alloc.run(2);
        (alloc, out)
    }

    fn assert_clean<const GRID: bool>() {
        let (alloc, out) = small::<GRID>();
        let mut checks = Checks::default();
        alloc.check(&out, 2, &mut checks);
        alloc.traced(&out, &mut Trace::new(true), &mut checks);
        assert!(checks.attempted() > 0);
        assert_eq!(
            checks.failed(),
            0,
            "grid={GRID}: {}",
            checks.record().render()
        );
    }

    #[test]
    fn seed_blocks_are_disjoint_and_bounded() {
        assert_eq!(seed_block(0), Ok(0..SEEDS_PER_FAMILY));
        assert_eq!(seed_block(2), Ok(512..768));
        assert!(seed_block(u64::MAX / 2).is_err());
    }

    #[test]
    fn clean_sweeps_pass_every_check() {
        assert_clean::<false>();
        assert_clean::<true>();
    }

    #[test]
    fn a_corrupted_point_fails_the_reference_check() {
        let (alloc, out) = small::<false>();
        let point = &out[0].points[0];
        assert_eq!(
            check_against_reference(FAMILIES[0], point, RANDOM_JOIN),
            Ok(())
        );
        let mut bad = point.clone();
        bad.metrics.jain_index = f64::from_bits(bad.metrics.jain_index.to_bits() ^ 1);
        assert!(check_against_reference(FAMILIES[0], &bad, RANDOM_JOIN).is_err());

        let mut corrupted = out.clone();
        corrupted[0].points[0] = bad;
        let mut checks = Checks::default();
        alloc.check(&corrupted, 2, &mut checks);
        // The serial re-run and the reference re-solve both catch it.
        assert_eq!(checks.failed(), 2, "{}", checks.record().render());
        assert!(checks.error_rate() > 0.0);
    }

    #[test]
    fn digests_see_a_single_flipped_bit() {
        let (_, out) = small::<true>();
        let mut flipped = out.clone();
        let m = &mut flipped[3].points[5].metrics;
        m.total_rate = f64::from_bits(m.total_rate.to_bits() ^ 1);
        assert_ne!(digest(&out), digest(&flipped));
        assert_eq!(counts(&out), counts(&flipped));
        assert_eq!(counts(&out).jobs, 4 * 3 * 3);
    }
}
