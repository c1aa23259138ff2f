//! # mlf-scenario — declarative experiment composition
//!
//! Every figure of the paper — and every experiment this workspace has
//! grown beyond it — composes the same five ingredients: a topology (from
//! `mlf-net`), a session link-rate model (`LinkRateConfig`), an allocation
//! regime (an `mlf-core` [`Allocator`]), optionally a layer ladder (from
//! `mlf-layering`), and metric/property reporting. Before this crate, each
//! figure binary, example, and test hand-wired those pieces; a [`Scenario`]
//! declares them once and offers [`Scenario::run`] for a single solve and
//! [`Scenario::sweep`]/[`Scenario::sweep_grid`] for parameter grids.
//!
//! A scenario owns one [`SolverWorkspace`], so a sweep's repeated solves
//! reuse scratch buffers instead of re-allocating per call — the hot-path
//! win the Figure 5/8 sweeps need. A sweep job is one seed: its topology
//! is built once and solved under every requested link-rate model in turn,
//! so a grid's models share one build with no cache in between, and
//! [`SweepReport::cache`] counts that topology work. For multi-core
//! machines, [`Scenario::sweep_par`] and [`Scenario::sweep_grid_par`]
//! shard the seeds across `std::thread::scope` workers (one workspace per
//! worker) and merge the points back in deterministic order, so the
//! parallel output is **bitwise identical** to the serial one at any thread
//! count.
//!
//! ## The shared executor
//!
//! The shard/merge machinery itself lives in [`executor::run_jobs_par`],
//! generic over the job and output types: balanced contiguous partition,
//! one worker-local state per thread, in-order merge. Allocator sweeps
//! instantiate it with seed jobs and per-worker [`SolverWorkspace`]s;
//! [`protocol`] instantiates it with `(protocol, loss, seed)` jobs and
//! stateless workers, which is how the Figure 8 protocol comparisons
//! ([`ProtocolScenario`] over a [`ProtocolSweepGrid`]) get the same
//! parallel, bitwise-deterministic treatment as allocator sweeps. See the
//! [`executor`] module docs for the exact determinism contract.
//!
//! ## Checkpointed sweeps
//!
//! [`Scenario::sweep_par_checkpointed`] is [`Scenario::sweep_par`] plus an
//! append-only [`checkpoint`] file: every finished shard of jobs is synced
//! to disk as one verified line, and a re-run with the same path computes
//! only the shards the file lacks. The merged report is bitwise identical
//! to [`Scenario::sweep`].
//!
//! ## Topology families
//!
//! Random sweeps draw their topologies from a [`TopologyFamily`]:
//! [`ScenarioBuilder::random_networks`] uses the flat random-attachment
//! tree, and [`ScenarioBuilder::random_networks_with`] selects any family —
//! balanced k-ary trees, GT-ITM-style transit–stub hierarchies, or dumbbell
//! meshes — so sweeps cover structurally diverse networks instead of one
//! tree shape. Degenerate requests (one node, zero sessions) are rejected
//! at [`ScenarioBuilder::build`] time via [`ScenarioError::Topology`]
//! rather than silently rewritten.
//!
//! ## Example
//!
//! ```
//! use mlf_core::allocator::MultiRate;
//! use mlf_net::{Graph, Network, Session};
//! use mlf_scenario::Scenario;
//!
//! // One layered video session against a competing unicast.
//! let mut g = Graph::new();
//! let (src, hub) = (g.add_node(), g.add_node());
//! let (a, b) = (g.add_node(), g.add_node());
//! g.add_link(src, hub, 10.0).unwrap();
//! g.add_link(hub, a, 2.0).unwrap();
//! g.add_link(hub, b, 6.0).unwrap();
//! let net = Network::new(g, vec![
//!     Session::multi_rate(src, vec![a, b]),
//!     Session::unicast(src, b),
//! ]).unwrap();
//!
//! let mut scenario = Scenario::builder()
//!     .label("quickstart")
//!     .network(net)
//!     .allocator(MultiRate::new())
//!     .build()
//!     .unwrap();
//! let report = scenario.run();
//! assert_eq!(report.solution.allocation.rates(), &[vec![2.0, 3.0], vec![3.0]]);
//! assert!(report.fairness.unwrap().all_hold()); // Theorem 1
//! ```
//!
//! Sweeps over random topologies are deterministic in their seeds, and the
//! parallel executor reproduces the serial points exactly:
//!
//! ```
//! use mlf_net::TopologyFamily;
//! use mlf_scenario::Scenario;
//!
//! let mut s = Scenario::builder()
//!     .random_networks_with(TopologyFamily::TransitStub { transit: 3 }, 12, 4, 4)
//!     .build()
//!     .unwrap();
//! let once = s.sweep(0..8);
//! let again = s.sweep(0..8);
//! assert_eq!(once.points, again.points);
//! let parallel = s.sweep_par(0..8, 4);
//! assert_eq!(once.points, parallel.points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod executor;
mod hash;
pub mod protocol;

pub use checkpoint::CheckpointError;
pub use protocol::ProtocolScenarioError;
pub use protocol::{
    ProtocolScenario, ProtocolScenarioBuilder, ProtocolSweepGrid, ProtocolSweepPoint,
    ProtocolSweepReport,
};

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{
    metrics, properties, FairnessReport, LinkRateConfig, LinkRateModel, MaxMinSolution,
};
use mlf_layering::LayerSchedule;
use mlf_net::topology::random_network_with;
use mlf_net::{Network, ReceiverId, TopologyError, TopologyFamily};
use std::borrow::Cow;

/// Where a scenario's networks come from.
#[derive(Debug, Clone)]
pub(crate) enum NetworkSource {
    /// One fixed network (e.g. a paper figure).
    Fixed(Network),
    /// A `mlf_net::topology` random family, one network per sweep seed.
    Random {
        /// The structural family the topologies are drawn from.
        family: TopologyFamily,
        /// Number of nodes in the random graph.
        nodes: usize,
        /// Number of multicast sessions.
        sessions: usize,
        /// Maximum receivers per session.
        max_receivers: usize,
    },
}

/// How the per-session link-rate models are chosen.
#[derive(Debug, Clone, Default)]
pub enum LinkRates {
    /// Every session efficient (`v = max`, the Section 2 assumption).
    #[default]
    Efficient,
    /// The same model for every session.
    Uniform(LinkRateModel),
    /// An explicit per-session configuration (fixed networks only; its
    /// length must match the network's session count).
    Explicit(LinkRateConfig),
}

impl LinkRates {
    fn resolve(&self, session_count: usize) -> LinkRateConfig {
        match self {
            LinkRates::Efficient => LinkRateConfig::efficient(session_count),
            LinkRates::Uniform(m) => LinkRateConfig::uniform(session_count, *m),
            LinkRates::Explicit(cfg) => cfg.clone(),
        }
    }
}

/// Why a [`ScenarioBuilder`] refused to build.
// mlf-lint: allow(unused-pub, reason = "returned by the public ScenarioBuilder::build that the examples and binaries call")
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Neither [`ScenarioBuilder::network`] nor
    /// [`ScenarioBuilder::random_networks`] was called.
    MissingNetwork,
    /// An explicit [`LinkRateConfig`] does not cover the fixed network's
    /// sessions.
    ConfigShape {
        /// Sessions in the network.
        expected: usize,
        /// Models in the config.
        got: usize,
    },
    /// An explicit [`LinkRateConfig`] cannot parameterize a random-network
    /// sweep (session counts are not fixed); use `Efficient` or `Uniform`.
    ExplicitConfigOnRandom,
    /// Non-efficient link rates were configured for an allocator whose
    /// regime has no link-rate parameterization (`Weighted`, `Unicast`).
    AllocatorIgnoresLinkRates,
    /// A random-network source was configured with parameters its topology
    /// family rejects (too few nodes, zero sessions, zero receivers, …).
    /// Earlier versions silently clamped these into a different experiment.
    Topology(TopologyError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingNetwork => {
                write!(
                    f,
                    "scenario needs a network source (network(..) or random_networks(..))"
                )
            }
            ScenarioError::ConfigShape { expected, got } => write!(
                f,
                "link-rate config covers {got} sessions but the network has {expected}"
            ),
            ScenarioError::ExplicitConfigOnRandom => write!(
                f,
                "explicit link-rate configs don't compose with random-network sweeps; \
                 use LinkRates::Efficient or LinkRates::Uniform"
            ),
            ScenarioError::AllocatorIgnoresLinkRates => write!(
                f,
                "this allocator has no link-rate parameterization; configure link \
                 rates with MultiRate, SingleRate, or Hybrid"
            ),
            ScenarioError::Topology(e) => write!(f, "bad random-network source: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Builder for [`Scenario`]. Obtain via [`Scenario::builder`].
// mlf-lint: allow(unused-pub, reason = "returned by the public Scenario::builder that the examples and binaries call")
pub struct ScenarioBuilder {
    label: String,
    source: Option<NetworkSource>,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            label: "scenario".to_string(),
            source: None,
            link_rates: LinkRates::Efficient,
            allocator: Box::new(Hybrid::as_declared()),
            layering: None,
            check_properties: true,
        }
    }
}

impl ScenarioBuilder {
    /// Name the scenario (shows up in reports).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Solve this fixed network.
    pub fn network(mut self, net: Network) -> Self {
        self.source = Some(NetworkSource::Fixed(net));
        self
    }

    /// Sweep over flat random-tree topologies
    /// (`random_network(seed, nodes, sessions, max_receivers)`), one per
    /// seed. Shorthand for [`ScenarioBuilder::random_networks_with`] with
    /// [`TopologyFamily::FlatTree`].
    pub fn random_networks(self, nodes: usize, sessions: usize, max_receivers: usize) -> Self {
        self.random_networks_with(TopologyFamily::FlatTree, nodes, sessions, max_receivers)
    }

    /// Sweep over random topologies of an explicit [`TopologyFamily`]
    /// (balanced k-ary trees, transit–stub hierarchies, dumbbell meshes, …),
    /// one network per seed. Parameters the family cannot realize are
    /// rejected at [`ScenarioBuilder::build`] time.
    pub fn random_networks_with(
        mut self,
        family: TopologyFamily,
        nodes: usize,
        sessions: usize,
        max_receivers: usize,
    ) -> Self {
        self.source = Some(NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        });
        self
    }

    /// Choose the link-rate models (default: every session efficient).
    pub fn link_rates(mut self, rates: LinkRates) -> Self {
        self.link_rates = rates;
        self
    }

    /// Choose the allocation regime (default:
    /// [`Hybrid::as_declared`] — each session's declared type).
    pub fn allocator(mut self, allocator: impl Allocator + 'static) -> Self {
        self.allocator = Box::new(allocator);
        self
    }

    /// Quantize fair rates onto a layer ladder and report the fit.
    pub fn layering(mut self, schedule: LayerSchedule) -> Self {
        self.layering = Some(schedule);
        self
    }

    /// Audit the four Section 2 fairness properties on every run
    /// (default: on).
    pub fn check_properties(mut self, check: bool) -> Self {
        self.check_properties = check;
        self
    }

    /// Validate and assemble the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let source = self.source.ok_or(ScenarioError::MissingNetwork)?;
        if !matches!(self.link_rates, LinkRates::Efficient) && !self.allocator.supports_link_rates()
        {
            return Err(ScenarioError::AllocatorIgnoresLinkRates);
        }
        if let NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } = &source
        {
            // The same validation random_network_with performs, surfaced at
            // build time so sweeps never panic mid-run on a bad request.
            family
                .validate_request(*nodes, *sessions, *max_receivers)
                .map_err(ScenarioError::Topology)?;
        }
        if let LinkRates::Explicit(cfg) = &self.link_rates {
            match &source {
                NetworkSource::Fixed(net) => {
                    if cfg.len() != net.session_count() {
                        return Err(ScenarioError::ConfigShape {
                            expected: net.session_count(),
                            got: cfg.len(),
                        });
                    }
                }
                NetworkSource::Random { .. } => {
                    return Err(ScenarioError::ExplicitConfigOnRandom);
                }
            }
        }
        Ok(Scenario {
            label: self.label,
            source,
            link_rates: self.link_rates,
            allocator: self.allocator,
            layering: self.layering,
            check_properties: self.check_properties,
            ws: SolverWorkspace::new(),
        })
    }
}

/// A declarative experiment: topology × link-rate model × allocation regime
/// × (optional) layering × reporting, with solver scratch reused across
/// every run it performs.
///
/// Every sweep maps one per-seed job over its seeds: the seed's topology is
/// built once and solved under each requested link-rate model in order, so
/// the models of a grid share one build. A point is a pure function of its
/// `(seed, model)` pair, which is what keeps serial, parallel and resumed
/// sweeps bitwise identical.
pub struct Scenario {
    label: String,
    source: NetworkSource,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
    ws: SolverWorkspace,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The scenario's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The fixed network, when the source is fixed.
    pub fn network(&self) -> Option<&Network> {
        match &self.source {
            NetworkSource::Fixed(net) => Some(net),
            NetworkSource::Random { .. } => None,
        }
    }

    /// How many solves this scenario's workspace has served.
    pub fn solves(&self) -> u64 {
        self.ws.solves()
    }

    /// Solve the scenario once (seed 0 for random sources).
    pub fn run(&mut self) -> ScenarioReport {
        // Detach the owned workspace so the solve path can borrow `self`
        // immutably (the same path the parallel workers use).
        let mut ws = std::mem::take(&mut self.ws);
        let report = self.report_for(&self.network_for(0), 0, None, &mut ws);
        self.ws = ws;
        report
    }

    /// The network of one seed: a fixed source lends its own, a random
    /// source builds the seeded topology.
    fn network_for(&self, seed: u64) -> Cow<'_, Network> {
        match &self.source {
            NetworkSource::Fixed(net) => Cow::Borrowed(net),
            NetworkSource::Random {
                family,
                nodes,
                sessions,
                max_receivers,
            } => Cow::Owned(
                random_network_with(*family, seed, *nodes, *sessions, *max_receivers)
                    // mlf-lint: allow(panic-unwrap, reason = "ScenarioBuilder::build already rejected invalid random-source parameters, so regeneration cannot fail")
                    .expect("random-source parameters were validated at build time"),
            ),
        }
    }

    /// The full per-point report against an already-built network. This is
    /// the whole solve path: serial sweeps call it with the scenario's own
    /// workspace, parallel workers with their per-thread one — which is why
    /// the two executors agree bitwise (a solve's result never depends on
    /// workspace history).
    fn report_for(
        &self,
        net: &Network,
        seed: u64,
        model_override: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
    ) -> ScenarioReport {
        let cfg = match model_override {
            Some(m) => LinkRateConfig::uniform(net.session_count(), m),
            None => self.link_rates.resolve(net.session_count()),
        };
        // The allocator solves under the scenario's link-rate config — the
        // same one the property audit uses. Allocators without link-rate
        // parameterization (Weighted, Unicast) only compose with efficient
        // link rates, enforced at build()/sweep_grid() time.
        let solution =
            if matches!(self.link_rates, LinkRates::Efficient) && model_override.is_none() {
                self.allocator.solve(net, ws)
            } else {
                self.allocator
                    .solve_with(net, &cfg, ws)
                    // mlf-lint: allow(panic-unwrap, reason = "build()/sweep_grid() already rejected allocator/link-rate combinations that solve_with cannot handle")
                    .expect("allocator link-rate support was validated at build time")
            };
        let fairness = self
            .check_properties
            .then(|| properties::check_all(net, &cfg, &solution.allocation));
        let layering = self
            .layering
            .as_ref()
            .map(|s| LayeringSummary::new(s, net, &solution));
        let metrics = ScenarioMetrics::measure(net, &solution);
        ScenarioReport {
            label: self.label.clone(),
            seed,
            solution,
            fairness,
            metrics,
            layering,
        }
    }

    /// One sweep job: every point of `seed`. The seed's topology is built
    /// once and solved under each of `models` in order (`None` = the
    /// scenario's own link rates). Every sweep entry point maps this
    /// function over its seeds.
    fn seed_points(
        &self,
        seed: u64,
        models: &[Option<LinkRateModel>],
        ws: &mut SolverWorkspace,
    ) -> Vec<SweepPoint> {
        let net = self.network_for(seed);
        models
            .iter()
            .map(|&model| SweepPoint::from_report(self.report_for(&net, seed, model, ws), model))
            .collect()
    }

    /// The topology work of `seeds` jobs over `models` models each: a
    /// random source builds one topology per seed (a miss) and reuses it
    /// for every further model (a hit); a fixed source builds nothing.
    fn topology_counts(&self, seeds: usize, models: usize) -> CacheStats {
        match self.source {
            NetworkSource::Fixed(_) => CacheStats::default(),
            NetworkSource::Random { .. } => CacheStats {
                hits: (seeds * models.saturating_sub(1)) as u64,
                misses: seeds as u64,
                evictions: 0,
            },
        }
    }

    /// Assemble a report from per-seed points, laid back out models-major
    /// (every seed under the first model, then under the second, …).
    fn report_from(&self, per_seed: Vec<Vec<SweepPoint>>, models: usize) -> SweepReport {
        let cache = self.topology_counts(per_seed.len(), models);
        let mut points = Vec::with_capacity(per_seed.len() * models);
        let mut columns: Vec<_> = per_seed.into_iter().map(Vec::into_iter).collect();
        for _ in 0..models {
            points.extend(columns.iter_mut().filter_map(Iterator::next));
        }
        SweepReport {
            label: self.label.clone(),
            points,
            cache,
        }
    }

    /// Run one solve per seed, reusing the scenario's workspace
    /// throughout. The result is a pure function of the seeds (and the
    /// scenario spec): two sweeps with equal seeds produce equal points.
    pub fn sweep<I: IntoIterator<Item = u64>>(&mut self, seeds: I) -> SweepReport {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        self.sweep_serial(&seeds, &[None])
    }

    /// Run the full `seeds × models` grid (the Figure 4/5/6 pattern: the
    /// same topologies under different redundancy models). Each seeded
    /// topology is built once and solved under every model of the grid.
    pub fn sweep_grid(&mut self, grid: &SweepGrid) -> SweepReport {
        self.check_grid(grid);
        self.sweep_serial(&grid.seeds, &Self::grid_models(grid))
    }

    /// The serial executor: the per-seed jobs in order, on the scenario's
    /// own workspace (so [`Scenario::solves`] counts them).
    fn sweep_serial(&mut self, seeds: &[u64], models: &[Option<LinkRateModel>]) -> SweepReport {
        let mut ws = std::mem::take(&mut self.ws);
        let per_seed = seeds
            .iter()
            .map(|&seed| self.seed_points(seed, models, &mut ws))
            .collect();
        self.ws = ws;
        self.report_from(per_seed, models.len())
    }

    /// The models every seed of a grid is solved under: the grid's uniform
    /// models, or the scenario's own link rates when it names none.
    fn grid_models(grid: &SweepGrid) -> Vec<Option<LinkRateModel>> {
        if grid.models.is_empty() {
            vec![None]
        } else {
            grid.models.iter().copied().map(Some).collect()
        }
    }

    fn check_grid(&self, grid: &SweepGrid) {
        assert!(
            grid.models.is_empty() || self.allocator.supports_link_rates(),
            "{}",
            ScenarioError::AllocatorIgnoresLinkRates
        );
    }

    /// [`Scenario::sweep`], sharded across `threads` scoped worker threads.
    ///
    /// Each worker solves a contiguous shard of the seed list with its own
    /// [`SolverWorkspace`]; shards are merged back in seed order, so the
    /// result is **bitwise identical** to the serial [`Scenario::sweep`]
    /// for the same seeds, at any thread count (a solve's output never
    /// depends on workspace history). `threads == 0` means "use
    /// `std::thread::available_parallelism`". The scenario's own workspace
    /// is untouched, so [`Scenario::solves`] does not count parallel
    /// solves.
    pub fn sweep_par<I: IntoIterator<Item = u64>>(&self, seeds: I, threads: usize) -> SweepReport {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        self.sweep_seeds_par(&seeds, &[None], threads)
    }

    /// [`Scenario::sweep_grid`], sharded across `threads` scoped worker
    /// threads. Point order (models-major, then seeds) and every point's
    /// bits match the serial executor exactly.
    pub fn sweep_grid_par(&self, grid: &SweepGrid, threads: usize) -> SweepReport {
        self.check_grid(grid);
        self.sweep_seeds_par(&grid.seeds, &Self::grid_models(grid), threads)
    }

    fn sweep_seeds_par(
        &self,
        seeds: &[u64],
        models: &[Option<LinkRateModel>],
        threads: usize,
    ) -> SweepReport {
        let per_seed = executor::run_jobs_par(seeds, threads, SolverWorkspace::new, |ws, &seed| {
            self.seed_points(seed, models, ws)
        });
        self.report_from(per_seed, models.len())
    }
}

/// A parameter grid for [`Scenario::sweep_grid`]: topology seeds crossed
/// with uniform link-rate models (empty `models` = use the scenario's own).
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// Topology seeds (one network per seed for random sources).
    pub seeds: Vec<u64>,
    /// Uniform link-rate models to apply, each across the whole grid.
    pub models: Vec<LinkRateModel>,
}

impl SweepGrid {
    /// A seeds-only grid.
    pub fn seeds(seeds: impl IntoIterator<Item = u64>) -> Self {
        SweepGrid {
            seeds: seeds.into_iter().collect(),
            models: Vec::new(),
        }
    }

    /// Cross the grid with uniform link-rate models.
    pub fn with_models(mut self, models: impl IntoIterator<Item = LinkRateModel>) -> Self {
        self.models = models.into_iter().collect();
        self
    }
}

/// Scalar metrics of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Jain's fairness index of the receiver rates.
    pub jain_index: f64,
    /// The smallest receiver rate.
    pub min_rate: f64,
    /// Sum of receiver rates.
    pub total_rate: f64,
    /// Mean satisfaction (rate / isolated rate) across receivers.
    pub satisfaction: f64,
    /// Water-filling iterations the solve performed.
    pub iterations: usize,
}

impl ScenarioMetrics {
    fn measure(net: &Network, solution: &MaxMinSolution) -> Self {
        ScenarioMetrics {
            jain_index: metrics::jain_index(&solution.allocation),
            min_rate: solution.allocation.min_rate(),
            total_rate: solution.allocation.total_rate(),
            satisfaction: metrics::satisfaction(net, &solution.allocation),
            iterations: solution.iterations,
        }
    }
}

/// How one receiver's fair rate fits the scenario's layer ladder.
// mlf-lint: allow(unused-pub, reason = "the element type of the public LayeringSummary::fits field")
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFit {
    /// The receiver.
    pub receiver: ReceiverId,
    /// Its max-min fair rate.
    pub fair_rate: f64,
    /// The deepest layer prefix whose cumulative rate fits under the fair
    /// rate.
    pub level: usize,
    /// That prefix's cumulative rate.
    pub fixed_rate: f64,
    /// The fraction of the fair rate the fixed prefix leaves on the table
    /// (recoverable by quantum join/leave scheduling).
    pub deficit: f64,
}

/// The layering report of one run: per-receiver ladder fits.
// mlf-lint: allow(unused-pub, reason = "the type of the public ScenarioReport::layering field")
#[derive(Debug, Clone, PartialEq)]
pub struct LayeringSummary {
    /// Per-receiver fits, session-major.
    pub fits: Vec<LayerFit>,
}

impl LayeringSummary {
    fn new(schedule: &LayerSchedule, net: &Network, solution: &MaxMinSolution) -> Self {
        let fits = net
            .receivers()
            .map(|r| {
                let fair = solution.allocation.rate(r);
                let level = schedule.level_for_rate(fair);
                let fixed = schedule.cumulative_rate(level);
                LayerFit {
                    receiver: r,
                    fair_rate: fair,
                    level,
                    fixed_rate: fixed,
                    deficit: (fair - fixed) / fair.max(1e-12),
                }
            })
            .collect();
        LayeringSummary { fits }
    }
}

/// Everything one [`Scenario::run`] produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's label.
    pub label: String,
    /// The topology seed this run used (0 for fixed networks' `run()`).
    pub seed: u64,
    /// The full solver output (allocation + freeze diagnostics).
    pub solution: MaxMinSolution,
    /// The Section 2 property audit, unless disabled.
    pub fairness: Option<FairnessReport>,
    /// Scalar metrics.
    pub metrics: ScenarioMetrics,
    /// Ladder fits, when a layering schedule was configured.
    pub layering: Option<LayeringSummary>,
}

/// One point of a sweep, compressed to comparable scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The topology seed.
    pub seed: u64,
    /// The uniform link-rate model applied, for grid sweeps.
    pub model: Option<LinkRateModel>,
    /// Scalar metrics of the solve.
    pub metrics: ScenarioMetrics,
    /// How many of the four fairness properties held (when audited).
    pub properties_holding: Option<usize>,
}

impl SweepPoint {
    fn from_report(report: ScenarioReport, model: Option<LinkRateModel>) -> Self {
        SweepPoint {
            seed: report.seed,
            model,
            metrics: report.metrics,
            properties_holding: report.fairness.as_ref().map(|f| f.count_holding()),
        }
    }
}

/// The topology work of one sweep, counted from its jobs: how many seeded
/// topologies were built, and how many further models were solved on one
/// already built. Sweeps hold nothing between jobs, so a repeated seed is
/// built again and counted again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Further models solved on a topology the job had already built.
    pub hits: u64,
    /// Topologies built (one per computed seed of a random source; a fixed
    /// source builds none).
    pub misses: u64,
    /// Always 0: nothing is held between jobs, so nothing is evicted.
    pub evictions: u64,
}

/// The outcome of a sweep: one [`SweepPoint`] per (seed, model) pair.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The scenario's label.
    pub label: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// The topology work this call did (see [`CacheStats`]).
    pub cache: CacheStats,
}

/// Equality compares the **deterministic output** — label and points —
/// and deliberately ignores [`SweepReport::cache`]: the counters record the
/// work a call did, and a resumed checkpointed sweep does less of it than a
/// fresh one for the same points. This is what lets the differential
/// suites assert `serial == parallel == resumed`.
impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.points == other.points
    }
}

impl SweepReport {
    /// Mean of a per-point metric.
    pub fn mean_of(&self, f: impl Fn(&SweepPoint) -> f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(f).sum::<f64>() / self.points.len() as f64
    }

    /// Mean Jain index across points.
    pub fn mean_jain(&self) -> f64 {
        self.mean_of(|p| p.metrics.jain_index)
    }

    /// Mean minimum rate across points.
    pub fn mean_min_rate(&self) -> f64 {
        self.mean_of(|p| p.metrics.min_rate)
    }

    /// Fraction of points where all four properties held.
    pub fn all_properties_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .filter(|p| p.properties_holding == Some(4))
            .count() as f64
            / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_core::allocator::{MultiRate, SingleRate, Weighted};
    use mlf_net::{Graph, Session};

    fn two_branch_network() -> Network {
        let mut g = Graph::new();
        let (src, hub) = (g.add_node(), g.add_node());
        let (a, b) = (g.add_node(), g.add_node());
        g.add_link(src, hub, 10.0).unwrap();
        g.add_link(hub, a, 2.0).unwrap();
        g.add_link(hub, b, 6.0).unwrap();
        Network::new(
            g,
            vec![
                Session::multi_rate(src, vec![a, b]),
                Session::unicast(src, b),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builder_validates_inputs() {
        assert_eq!(
            Scenario::builder().build().err(),
            Some(ScenarioError::MissingNetwork)
        );
        let err = Scenario::builder()
            .network(two_branch_network())
            .link_rates(LinkRates::Explicit(LinkRateConfig::efficient(5)))
            .build()
            .err();
        assert_eq!(
            err,
            Some(ScenarioError::ConfigShape {
                expected: 2,
                got: 5
            })
        );
        let err = Scenario::builder()
            .random_networks(10, 3, 3)
            .link_rates(LinkRates::Explicit(LinkRateConfig::efficient(3)))
            .build()
            .err();
        assert_eq!(err, Some(ScenarioError::ExplicitConfigOnRandom));
    }

    #[test]
    fn fixed_run_reports_paper_numbers() {
        let mut s = Scenario::builder()
            .label("fixture")
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let report = s.run();
        assert_eq!(
            report.solution.allocation.rates(),
            &[vec![2.0, 3.0], vec![3.0]]
        );
        assert!(report.fairness.unwrap().all_hold());
        assert!((report.metrics.total_rate - 8.0).abs() < 1e-9);
        assert_eq!(s.network().unwrap().session_count(), 2);
        assert_eq!(s.solves(), 1);
    }

    #[test]
    fn regime_comparison_through_scenarios() {
        let net = two_branch_network();
        let multi = Scenario::builder()
            .network(net.clone())
            .allocator(MultiRate::new())
            .build()
            .unwrap()
            .run();
        let single = Scenario::builder()
            .network(net)
            .allocator(SingleRate::new())
            .build()
            .unwrap()
            .run();
        // Multi-rate is strictly fairer by Jain's index on this network
        // (2,3,3 vs 2,2,4) and no receiver is worse off at the bottom.
        assert!(multi.metrics.jain_index > single.metrics.jain_index);
        assert!(multi.metrics.min_rate >= single.metrics.min_rate);
    }

    #[test]
    fn sweeps_are_deterministic_and_reuse_the_workspace() {
        let mut s = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let a = s.sweep(0..10);
        let b = s.sweep(0..10);
        assert_eq!(a, b);
        // Both sweeps solved on the scenario's own workspace.
        assert_eq!(s.solves(), 20);
        assert_eq!(a.points.len(), 10);
        // Theorem 1 holds at every point of an all-multi-rate sweep.
        assert_eq!(a.all_properties_rate(), 1.0);
    }

    #[test]
    fn grid_cells_share_solves_when_models_normalize_equal() {
        // The scenario's default (Efficient) and an explicit Efficient grid
        // model are the *same* solve: equal metrics cell for cell, each
        // point labelled with what its sweep requested.
        let mut s = Scenario::builder()
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5).with_models([LinkRateModel::Efficient]);
        let with_model = s.sweep_grid(&grid);
        let plain = s.sweep(0..5);
        assert!(with_model
            .points
            .iter()
            .all(|p| p.model == Some(LinkRateModel::Efficient)));
        assert!(plain.points.iter().all(|p| p.model.is_none()));
        for (a, b) in with_model.points.iter().zip(&plain.points) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn fixed_sources_share_one_solve_across_seeds() {
        // A fixed network's solve is seed-independent: every seed reports
        // the same metrics under its own seed label.
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let report = s.sweep(0..8);
        for (seed, p) in report.points.iter().enumerate() {
            assert_eq!(p.seed, seed as u64);
            assert_eq!(p.metrics, report.points[0].metrics);
        }
    }

    fn counts(stats: CacheStats) -> (u64, u64, u64) {
        (stats.hits, stats.misses, stats.evictions)
    }

    #[test]
    fn grid_counters_count_one_build_per_seed() {
        const SEEDS: u64 = 5;
        let mut s = Scenario::builder()
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..SEEDS).with_models([
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
        ]);
        let want = (SEEDS * 2, SEEDS, 0);
        assert_eq!(counts(s.sweep_grid(&grid).cache), want, "serial");
        for threads in [0, 1, 2, 3, 7] {
            assert_eq!(
                counts(s.sweep_grid_par(&grid, threads).cache),
                want,
                "{threads} threads"
            );
        }
        // One model per seed: every job builds, none reuses.
        assert_eq!(counts(s.sweep(0..SEEDS).cache), (0, SEEDS, 0));
        assert_eq!(counts(s.sweep_par(0..SEEDS, 2).cache), (0, SEEDS, 0));
    }

    #[test]
    fn fixed_sources_build_no_topology() {
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid =
            SweepGrid::seeds(0..4).with_models([LinkRateModel::Efficient, LinkRateModel::Sum]);
        assert_eq!(counts(s.sweep(0..8).cache), (0, 0, 0));
        assert_eq!(counts(s.sweep_par(0..8, 3).cache), (0, 0, 0));
        assert_eq!(counts(s.sweep_grid(&grid).cache), (0, 0, 0));
        assert_eq!(counts(s.sweep_grid_par(&grid, 2).cache), (0, 0, 0));
    }

    #[test]
    fn resumed_checkpointed_sweeps_count_only_recomputed_shards() {
        use checkpoint::SHARD_SIZE;
        let s = Scenario::builder()
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        // Three shards; the last two revisit the first shard's seeds, so a
        // sweep that memoized points would report hits here.
        let seeds: Vec<u64> = (0..12).chain(0..12).collect();
        assert_eq!(seeds.len(), 3 * SHARD_SIZE);
        for threads in [1, 2] {
            let path = std::env::temp_dir().join(format!(
                "mlf-topology-counts-{}-{threads}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let (fresh, restored) = s
                .sweep_par_checkpointed(seeds.iter().copied(), threads, &path)
                .unwrap();
            assert_eq!(restored, 0);
            assert_eq!(counts(fresh.cache), (0, 24, 0), "{threads} threads");
            // Keep the header and shard 0; shards 1 and 2 are recomputed.
            let text = std::fs::read_to_string(&path).unwrap();
            let kept: String = text.split_inclusive('\n').take(2).collect();
            std::fs::write(&path, kept).unwrap();
            let (resumed, restored) = s
                .sweep_par_checkpointed(seeds.iter().copied(), threads, &path)
                .unwrap();
            assert_eq!(restored, 1);
            assert_eq!(counts(resumed.cache), (0, 16, 0), "{threads} threads");
            assert_eq!(resumed, fresh);
            let (full, restored) = s
                .sweep_par_checkpointed(seeds.iter().copied(), threads, &path)
                .unwrap();
            assert_eq!(restored, 3);
            assert_eq!(counts(full.cache), (0, 0, 0), "{threads} threads");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn sweep_par_is_bitwise_identical_to_serial_at_any_thread_count() {
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 2 },
            TopologyFamily::TransitStub { transit: 3 },
            TopologyFamily::Dumbbell,
        ] {
            let mut s = Scenario::builder()
                .label(family.label())
                .random_networks_with(family, 14, 4, 4)
                .allocator(MultiRate::new())
                .build()
                .unwrap();
            let serial = s.sweep(0..12);
            for threads in [1, 2, 3, 5, 8, 64] {
                let parallel = s.sweep_par(0..12, threads);
                assert_eq!(serial, parallel, "{} at {threads} threads", family.label());
            }
            // threads == 0 delegates to available_parallelism.
            assert_eq!(serial, s.sweep_par(0..12, 0));
        }
    }

    #[test]
    fn sweep_grid_par_matches_serial_order_and_bits() {
        let mut s = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let serial = s.sweep_grid(&grid);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                serial,
                s.sweep_grid_par(&grid, threads),
                "{threads} threads"
            );
        }
        // Seeds-only grids go through the same job path.
        let seeds_only = SweepGrid::seeds(3..9);
        assert_eq!(s.sweep_grid(&seeds_only), s.sweep_grid_par(&seeds_only, 3));
    }

    #[test]
    fn degenerate_random_sources_are_rejected_at_build_time() {
        let err = Scenario::builder().random_networks(1, 3, 3).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(
                mlf_net::TopologyError::TooFewNodes {
                    family: "flat-tree",
                    requested: 1,
                    minimum: 2,
                }
            ))
        );
        let err = Scenario::builder().random_networks(10, 0, 3).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(mlf_net::TopologyError::NoSessions))
        );
        let err = Scenario::builder().random_networks(10, 3, 0).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(mlf_net::TopologyError::NoReceivers))
        );
        let err = Scenario::builder()
            .random_networks_with(TopologyFamily::Dumbbell, 3, 2, 2)
            .build()
            .err();
        assert!(matches!(
            err,
            Some(ScenarioError::Topology(
                mlf_net::TopologyError::TooFewNodes { .. }
            ))
        ));
        let msg = err.unwrap().to_string();
        assert!(msg.contains("bad random-network source"), "{msg}");
    }

    #[test]
    fn family_sweeps_produce_structurally_distinct_points() {
        // The same seeds through two different families must not produce
        // identical sweeps (otherwise the family never reached the
        // generator).
        let sweep_for = |family| {
            Scenario::builder()
                .random_networks_with(family, 16, 4, 4)
                .allocator(MultiRate::new())
                .build()
                .unwrap()
                .sweep(0..8)
        };
        let flat = sweep_for(TopologyFamily::FlatTree);
        let dumbbell = sweep_for(TopologyFamily::Dumbbell);
        assert_ne!(flat.points, dumbbell.points);
    }

    #[test]
    fn grid_sweeps_cross_models_with_seeds() {
        let mut s = Scenario::builder()
            .random_networks(10, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..4)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let report = s.sweep_grid(&grid);
        assert_eq!(report.points.len(), 8);
        // Lemma 4's direction in aggregate: redundancy shrinks min rates.
        let eff: Vec<&SweepPoint> = report
            .points
            .iter()
            .filter(|p| p.model == Some(LinkRateModel::Efficient))
            .collect();
        let red: Vec<&SweepPoint> = report
            .points
            .iter()
            .filter(|p| p.model == Some(LinkRateModel::Scaled(2.0)))
            .collect();
        for (e, r) in eff.iter().zip(&red) {
            assert!(r.metrics.min_rate <= e.metrics.min_rate + 1e-9);
        }
        // And the redundancy model must actually bite somewhere: at least
        // one seed's allocation strictly shrinks (guards against the model
        // override silently not reaching the allocator).
        assert!(
            eff.iter()
                .zip(&red)
                .any(|(e, r)| r.metrics.total_rate < e.metrics.total_rate - 1e-9),
            "Scaled(2.0) never changed any allocation across the grid"
        );
    }

    #[test]
    fn link_rates_reach_the_allocator() {
        // A Uniform(Scaled) scenario must produce a *different* allocation
        // from the efficient default on a network where redundancy binds.
        let net = two_branch_network();
        let efficient = Scenario::builder()
            .network(net.clone())
            .allocator(MultiRate::new())
            .build()
            .unwrap()
            .run();
        let scaled = Scenario::builder()
            .network(net)
            .allocator(MultiRate::new())
            .link_rates(LinkRates::Uniform(LinkRateModel::Scaled(4.0)))
            .build()
            .unwrap()
            .run();
        assert!(scaled.metrics.total_rate < efficient.metrics.total_rate - 1e-9);
    }

    #[test]
    fn weighted_rejects_non_efficient_link_rates() {
        let err = Scenario::builder()
            .network(two_branch_network())
            .allocator(Weighted::uniform())
            .link_rates(LinkRates::Uniform(LinkRateModel::Sum))
            .build()
            .err();
        assert_eq!(err, Some(ScenarioError::AllocatorIgnoresLinkRates));
    }

    #[test]
    fn layering_summary_reports_ladder_fits() {
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .layering(LayerSchedule::exponential(4)) // cumulative 1,2,4,8
            .build()
            .unwrap();
        let report = s.run();
        let summary = report.layering.unwrap();
        assert_eq!(summary.fits.len(), 3);
        // r1,1 fair rate 2 sits exactly on the ladder (level 2); r1,2 at 3
        // fits level 2 (cumulative 2) with deficit 1/3.
        assert_eq!(summary.fits[0].level, 2);
        assert!((summary.fits[0].deficit).abs() < 1e-9);
        assert!((summary.fits[1].deficit - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_allocator_composes_with_scenarios() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 9.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let mut s = Scenario::builder()
            .network(net)
            .allocator(Weighted::new(mlf_core::Weights::from_values(vec![
                vec![2.0],
                vec![1.0],
            ])))
            .build()
            .unwrap();
        let report = s.run();
        assert_eq!(report.solution.allocation.rates(), &[vec![6.0], vec![3.0]]);
    }
}
