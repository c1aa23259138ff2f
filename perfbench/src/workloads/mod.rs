//! The four workloads. Each builds its inputs from the workload seed and
//! drives the library only through the public entry points the figure
//! binaries use.

pub mod alloc;
pub mod protocol;
pub mod tree;

use crate::checks::Checks;
use crate::util::Json;
use mlf_protocols::{make_receiver, CoordinatedSender, ProtocolKind};
use mlf_sim::{MarkerSource, NoMarkers, ReceiverController, SimRng, Tick};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Deterministic work counts of one pass over a job set. They must repeat
/// exactly between passes on the same inputs, and they turn timings into
/// per-unit costs that compare across machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Jobs in the set (sweep points, protocol points, chains, tree runs).
    pub jobs: u64,
    /// Water-filling iterations summed over every solve.
    pub solver_iterations: u64,
    /// Packet-engine slots simulated.
    pub slots: u64,
    /// Packet-engine trials run.
    pub trials: u64,
    /// Sweep solve-cache hits.
    pub cache_hits: u64,
    /// Sweep solve-cache misses.
    pub cache_misses: u64,
    /// Sweep solve-cache evictions.
    pub cache_evictions: u64,
    /// Markov-chain states summed over every chain solved.
    pub markov_states: u64,
}

impl Counts {
    /// The run-record form.
    pub fn record(&self) -> Json {
        Json::obj([
            ("jobs", Json::UInt(self.jobs)),
            ("solver_iterations", Json::UInt(self.solver_iterations)),
            ("slots", Json::UInt(self.slots)),
            ("trials", Json::UInt(self.trials)),
            ("cache_hits", Json::UInt(self.cache_hits)),
            ("cache_misses", Json::UInt(self.cache_misses)),
            ("cache_evictions", Json::UInt(self.cache_evictions)),
            ("markov_states", Json::UInt(self.markov_states)),
        ])
    }
}

/// A layer a traced run attributes time to, named by the module it calls.
pub type Phase = &'static str;

/// Topology generation (`mlf_net::topology::random_network_with`).
pub const NET_TOPOLOGY: Phase = "net.topology";
/// The multi-rate solve (`MultiRate::solve_with`), index build included.
pub const CORE_SOLVE: Phase = "core.solve";
/// The fairness audit (`mlf_core::properties::check_all`).
pub const CORE_PROPERTIES: Phase = "core.properties";
/// Point metrics (`mlf_core::metrics`).
pub const CORE_METRICS: Phase = "core.metrics";
/// One Figure-8 point's trials (`ProtocolScenario::run_point`): the star
/// engine driven by the protocol state machines.
pub const PROTOCOLS_POINT: Phase = "protocols.point";
/// One Figure-7(a) chain (`mlf_protocols::markov`).
pub const PROTOCOLS_MARKOV: Phase = "protocols.markov";
/// One tree run (`mlf_sim::tree::run_tree`).
pub const SIM_TREE: Phase = "sim.tree";

/// Every phase, in report order.
pub const PHASES: [Phase; 7] = [
    NET_TOPOLOGY,
    CORE_SOLVE,
    CORE_PROPERTIES,
    CORE_METRICS,
    PROTOCOLS_POINT,
    PROTOCOLS_MARKOV,
    SIM_TREE,
];

/// Spans of a traced serial pass, kept in memory: time per phase, the
/// duration of every job, and which jobs one parallel sweep call shards.
/// A disabled trace records nothing, which is how a traced run measures
/// its own overhead.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    phase_s: BTreeMap<Phase, f64>,
    job_ms: Vec<f64>,
    sweeps: Vec<Range<usize>>,
}

impl Trace {
    /// A trace that records spans (`enabled`) or only runs the work.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            phase_s: BTreeMap::new(),
            job_ms: Vec::new(),
            sweeps: Vec::new(),
        }
    }

    /// Time `f` as one span of `phase`.
    pub fn span<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.phase_s.entry(phase).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Time `f` as one job; its phase spans nest inside.
    pub fn job<T>(&mut self, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let out = f(self);
        self.job_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Run `f`, whose jobs one parallel sweep call of the untraced pass
    /// shards across its workers.
    pub fn sweep<T>(&mut self, f: impl FnOnce(&mut Trace) -> T) -> T {
        let first = self.job_ms.len();
        let out = f(self);
        self.sweeps.push(first..self.job_ms.len());
        out
    }

    /// The job ranges of each parallel sweep call, in order.
    pub fn sweeps(&self) -> &[Range<usize>] {
        &self.sweeps
    }

    /// Seconds spent in `phase`.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_s.get(phase).copied().unwrap_or(0.0)
    }

    /// Every job's duration in milliseconds, in job order.
    pub fn job_ms(&self) -> &[f64] {
        &self.job_ms
    }
}

/// The sender-side marker source of each protocol.
pub enum Markers {
    /// Uncoordinated senders never mark.
    None(NoMarkers),
    /// The Coordinated protocol's join markers.
    Coordinated(CoordinatedSender),
}

impl MarkerSource for Markers {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        match self {
            Markers::None(m) => m.marker(slot, layer),
            Markers::Coordinated(m) => m.marker(slot, layer),
        }
    }
}

/// The receivers and sender of one protocol run, seeded from `seed` the
/// way `mlf_protocols::run_trial` seeds a trial.
pub fn protocol_rig(
    kind: ProtocolKind,
    receivers: usize,
    layers: usize,
    seed: u64,
) -> (Vec<Box<dyn ReceiverController>>, Markers) {
    let base = SimRng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
    let controllers = (0..receivers)
        .map(|r| make_receiver(kind, base.split(1_000_000 + r as u64)))
        .collect();
    let markers = match kind {
        ProtocolKind::Coordinated => Markers::Coordinated(CoordinatedSender::new(layers)),
        _ => Markers::None(NoMarkers),
    };
    (controllers, markers)
}

/// One workload: inputs built from a seed, a fixed job set, its output
/// checks and its traced form.
pub trait Workload: Sized {
    /// What one pass over the job set returns.
    type Output;

    /// Build the inputs from the workload seed.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Run a fixed slice of the job set once (the warm-up, part of setup).
    fn warm_up(&self, threads: usize);

    /// One pass over the job set through the public entry points.
    fn run(&self, threads: usize) -> Self::Output;

    /// Deterministic work counts of one pass.
    fn counts(&self, out: &Self::Output) -> Counts;

    /// A bitwise fingerprint of one pass's outputs.
    fn digest(&self, out: &Self::Output) -> u64;

    /// Check a pass's outputs: reference re-runs of a deterministic
    /// sample, serial against parallel, and the paper's claims.
    fn check(&self, out: &Self::Output, threads: usize, checks: &mut Checks);

    /// The job set serially, one span per layer call, each job's result
    /// checked against the untraced pass `out`.
    fn traced(&self, out: &Self::Output, trace: &mut Trace, checks: &mut Checks);
}
