//! Per-layer probes of the traced run: each times calls into one module's
//! public functions from outside, on fixed inputs made from the workload
//! seed, and reports a per-unit cost that compares across machines.

use crate::checks::Checks;
use crate::workloads::alloc::{self, FAMILIES, GRID_MODELS, RANDOM_JOIN};
use crate::workloads::protocol::{self, figure7a_cases, LAYERS, RECEIVERS, SHARED_LOSS};
use crate::workloads::protocol_rig;
use crate::workloads::tree::{self, Engine};
use mlf_core::allocator::{Regimes, SolverWorkspace};
use mlf_core::{properties, reference, LinkRateConfig, LinkRateModel, MaxMinSolution};
use mlf_net::topology::kary_tree;
use mlf_net::{Network, Session, SessionId, SessionType};
use mlf_protocols::{run_trial, ExperimentParams, ProtocolKind};
use mlf_sim::{
    reference as star_reference, run_star, run_tree, Action, LossProcess, NoMarkers, PacketEvent,
    ReceiverController, SimRng, StarConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Topology seeds per family in the allocator probes.
const PROBE_SEEDS: u64 = 16;
/// Independent loss of the star probes.
const STAR_LOSS: f64 = 0.05;
/// Slots per star probe run.
const STAR_SLOTS: u64 = 20_000;
/// Slots per tree probe run.
const TREE_SLOTS: u64 = 1024;
/// Slots of the tree reference comparison.
const TREE_REF_SLOTS: u64 = 64;
/// Loss draws per loss probe call.
const DRAWS: u64 = 1_000_000;

/// Repeats probe calls for a fixed budget and reports medians.
pub struct Prober {
    budget: Duration,
}

impl Prober {
    /// A prober giving each probe `budget` of repetitions.
    pub fn new(budget: Duration) -> Prober {
        Prober { budget }
    }

    /// Call `f` (which returns one per-unit cost) until the budget is
    /// spent and at least `min` calls were made; the median cost.
    fn median(&self, min: usize, mut f: impl FnMut() -> f64) -> f64 {
        let start = Instant::now();
        let mut xs = Vec::new();
        while xs.len() < min || start.elapsed() < self.budget {
            xs.push(f());
        }
        crate::util::median(&xs).unwrap_or(f64::NAN)
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Every per-layer probe; reference comparisons are recorded in `checks`.
pub fn run_all(seed: u64, prober: &Prober, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let mut out = allocator_probes(seed, prober, checks)?;
    out.extend(star_probes(seed, prober, checks)?);
    out.extend(tree_probes(seed, prober, checks)?);
    Ok(out)
}

fn solve(net: &Network, cfg: &LinkRateConfig, ws: &mut SolverWorkspace) -> MaxMinSolution {
    alloc::solve(net, cfg, ws).expect("the multi-rate allocator honours link-rate configs")
}

fn allocator_probes(
    seed: u64,
    prober: &Prober,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let block = alloc::seed_block(seed)?;
    let inputs: Vec<_> = FAMILIES
        .iter()
        .flat_map(|&f| (block.start..block.start + PROBE_SEEDS).map(move |s| (f, s)))
        .collect();
    let build = || -> Result<Vec<Network>, String> {
        inputs.iter().map(|&(f, s)| alloc::topology(f, s)).collect()
    };
    let nets = build()?;
    let n = nets.len() as f64;
    let mut out = vec![Metric::new(
        "net.topology.build_us",
        "us",
        prober.median(3, || {
            let t = Instant::now();
            black_box(build().expect("inputs were built once already"));
            secs(t) * 1e6 / n
        }),
    )];

    let models = [
        ("randomjoin", RANDOM_JOIN),
        ("efficient", GRID_MODELS[0]),
        ("sum", GRID_MODELS[1]),
        ("scaled", GRID_MODELS[2]),
    ];
    let cfgs = |model: LinkRateModel| -> Vec<LinkRateConfig> {
        nets.iter()
            .map(|net| LinkRateConfig::uniform(net.session_count(), model))
            .collect()
    };
    let mut ws = SolverWorkspace::new();
    let (mut solve_s, mut ref_s, mut iterations) = (0.0, 0.0, 0u64);
    let mut solutions = Vec::new();
    for (label, model) in models {
        let cfg = cfgs(model);
        let per_net = prober.median(3, || {
            let t = Instant::now();
            for (net, cfg) in nets.iter().zip(&cfg) {
                black_box(solve(net, cfg, &mut ws));
            }
            secs(t) / n
        });
        let per_net_ref = prober.median(1, || {
            let t = Instant::now();
            for (net, cfg) in nets.iter().zip(&cfg) {
                black_box(reference::solve_in(
                    net,
                    cfg,
                    &Regimes::Uniform(SessionType::MultiRate),
                ));
            }
            secs(t) / n
        });
        for (net, cfg) in nets.iter().zip(&cfg) {
            let optimized = solve(net, cfg, &mut ws);
            let frozen = reference::solve_in(net, cfg, &Regimes::Uniform(SessionType::MultiRate));
            checks.check(optimized == frozen, || {
                format!("probe {label}: optimized solve differs from the reference")
            });
            iterations += optimized.iterations as u64;
            solutions.push((net, cfg.clone(), optimized));
        }
        solve_s += per_net * n;
        ref_s += per_net_ref * n;
        out.push(Metric::new(
            format!("core.solve.{label}_us"),
            "us",
            per_net * 1e6,
        ));
    }
    out.push(Metric::new(
        "core.solve.iterations",
        "count",
        iterations as f64,
    ));
    out.push(Metric::new(
        "core.solve.ns_per_iteration",
        "ns",
        solve_s * 1e9 / iterations as f64,
    ));
    out.push(Metric::new(
        "core.solve.ref_speedup",
        "ratio",
        ref_s / solve_s,
    ));

    let calls = solutions.len() as f64;
    out.push(Metric::new(
        "core.properties.check_all_us",
        "us",
        prober.median(3, || {
            let t = Instant::now();
            for (net, cfg, s) in &solutions {
                black_box(properties::check_all(net, cfg, &s.allocation));
            }
            secs(t) * 1e6 / calls
        }),
    ));
    out.push(Metric::new(
        "core.metrics.us",
        "us",
        prober.median(3, || {
            let t = Instant::now();
            for (net, _, s) in &solutions {
                black_box(alloc::PointValues::measure(net, s));
            }
            secs(t) * 1e6 / calls
        }),
    ));
    Ok(out)
}

/// A receiver that climbs to a fixed level and then never moves: the
/// star engine's cost at the protocols' subscription levels, without
/// their churn.
struct StaticReceiver {
    level: usize,
}

impl ReceiverController for StaticReceiver {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        if ev.level < self.level {
            Action::JoinUp
        } else {
            Action::Stay
        }
    }
}

fn star_probes(seed: u64, prober: &Prober, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let params = ExperimentParams {
        layers: LAYERS,
        receivers: RECEIVERS,
        shared_loss: SHARED_LOSS,
        independent_loss: STAR_LOSS,
        packets: STAR_SLOTS,
        trials: 1,
        seed,
        join_latency: 0,
        leave_latency: 0,
    }
    .validated()
    .map_err(|e| e.to_string())?;
    // Each static receiver holds its mean level over the three protocols'
    // trials, rounded.
    let trials: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&kind| run_trial(kind, &params, 0))
        .collect();
    let levels: Vec<usize> = (0..RECEIVERS)
        .map(|r| {
            let mean = trials.iter().map(|t| t.mean_level(r)).sum::<f64>() / trials.len() as f64;
            (mean.round() as usize).clamp(1, LAYERS)
        })
        .collect();
    let cfg = StarConfig::figure8(LAYERS, RECEIVERS, SHARED_LOSS, STAR_LOSS);
    let statics = || {
        levels
            .iter()
            .map(|&level| StaticReceiver { level })
            .collect::<Vec<_>>()
    };
    let static_ns = prober.median(3, || {
        let mut ctls = statics();
        let t = Instant::now();
        black_box(run_star(&cfg, &mut ctls, &mut NoMarkers, STAR_SLOTS, seed));
        secs(t) * 1e9 / STAR_SLOTS as f64
    });
    let ref_ns = prober.median(1, || {
        let mut ctls = statics();
        let t = Instant::now();
        black_box(star_reference::run_star(
            &cfg,
            &mut ctls,
            &mut NoMarkers,
            STAR_SLOTS,
            seed,
        ));
        secs(t) * 1e9 / STAR_SLOTS as f64
    });
    let optimized = run_star(&cfg, &mut statics(), &mut NoMarkers, STAR_SLOTS, seed);
    let frozen = star_reference::run_star(&cfg, &mut statics(), &mut NoMarkers, STAR_SLOTS, seed);
    checks.check(optimized == frozen, || {
        "probe: static star engine differs from the reference".to_string()
    });
    let mut out = vec![
        Metric::new("sim.star.ns_per_slot", "ns", static_ns),
        Metric::new("sim.star.ref_speedup", "ratio", ref_ns / static_ns),
    ];

    let mut rng = SimRng::seed_from_u64(seed);
    let mut loss = LossProcess::bernoulli(STAR_LOSS);
    out.push(Metric::new(
        "sim.loss.ns_per_draw",
        "ns",
        prober.median(3, || {
            let t = Instant::now();
            let mut lost = 0u64;
            for _ in 0..DRAWS {
                lost += u64::from(loss.sample(&mut rng));
            }
            black_box(lost);
            secs(t) * 1e9 / DRAWS as f64
        }),
    ));

    let mut trial_ns = Vec::new();
    for kind in ProtocolKind::ALL {
        let ns = prober.median(3, || {
            let t = Instant::now();
            black_box(run_trial(kind, &params, 0));
            secs(t) * 1e9 / STAR_SLOTS as f64
        });
        trial_ns.push(ns);
        out.push(Metric::new(
            format!("protocols.trial_ns_per_slot.{}", kind_name(kind)),
            "ns",
            ns,
        ));
    }
    let mean_trial = trial_ns.iter().sum::<f64>() / trial_ns.len() as f64;
    out.push(Metric::new(
        "protocols.controller_share",
        "ratio",
        1.0 - static_ns / mean_trial,
    ));

    // One chain per protocol from the shared/independent-split sweep.
    let cases: Vec<_> = figure7a_cases().into_iter().skip(6).take(3).collect();
    out.push(Metric::new(
        "protocols.markov.chain_ms",
        "ms",
        prober.median(1, || {
            let t = Instant::now();
            for case in &cases {
                black_box(protocol::solve_chain(case));
            }
            secs(t) * 1e3 / cases.len() as f64
        }),
    ));
    out.push(Metric::new(
        "protocols.markov.states",
        "count",
        protocol::solve_chain(&cases[0]).states as f64,
    ));
    Ok(out)
}

fn kind_name(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Uncoordinated => "uncoordinated",
        ProtocolKind::Deterministic => "deterministic",
        ProtocolKind::Coordinated => "coordinated",
    }
}

fn tree_probes(seed: u64, prober: &Prober, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let (graph, root, leaves, routes) = tree::leaf_tree_parts(tree::ARITY, tree::DEPTH)?;
    let sessions = vec![Session::multi_rate(root, leaves)];
    let with_routes_ms = prober.median(1, || {
        let (g, s, r) = (graph.clone(), sessions.clone(), vec![routes.clone()]);
        let t = Instant::now();
        black_box(Network::with_routes(g, s, r).expect("explicit tree routes are valid"));
        secs(t) * 1e3
    });
    let net = Network::with_routes(graph, sessions, vec![routes])
        .map_err(|e| format!("tree network: {e}"))?;

    // Network::new routes by one breadth-first search per receiver, so it
    // is probed on the depth-3 tree (1,000 receivers).
    let (small, small_root, levels) = kary_tree(3, tree::ARITY, |_| 1e6);
    let small_sessions = vec![Session::multi_rate(small_root, levels[3].clone())];
    let new_ms = prober.median(3, || {
        let (g, s) = (small.clone(), small_sessions.clone());
        let t = Instant::now();
        black_box(Network::new(g, s).expect("a tree is routable"));
        secs(t) * 1e3
    });
    let mut out = vec![
        Metric::new("net.network.new_ms", "ms", new_ms),
        Metric::new("net.network.with_routes_ms", "ms", with_routes_ms),
    ];

    let cfg = tree::tree_config(&net);
    // A zero-slot run is the engine's set-up alone: validation, the
    // per-link level index, and the membership and loss state.
    out.push(Metric::new(
        "sim.tree.setup_ms",
        "ms",
        prober.median(3, || {
            let receivers = net.session(SessionId(0)).receivers.len();
            let (mut controllers, mut markers) =
                protocol_rig(ProtocolKind::Uncoordinated, receivers, LAYERS, seed);
            let t = Instant::now();
            black_box(
                run_tree(&net, &cfg, &mut controllers, &mut markers, 0, seed)
                    .expect("valid tree run"),
            );
            secs(t) * 1e3
        }),
    ));
    let run = |kind, slots, engine| {
        tree::run_protocol(&net, &cfg, kind, slots, seed, engine).expect("valid tree run")
    };
    let mut tree_ns = Vec::new();
    for kind in ProtocolKind::ALL {
        let ns = prober.median(1, || {
            let t = Instant::now();
            black_box(run(kind, TREE_SLOTS, Engine::Optimized));
            secs(t) * 1e9 / TREE_SLOTS as f64
        });
        tree_ns.push(ns);
        out.push(Metric::new(
            format!("sim.tree.ns_per_slot.{}", kind_name(kind)),
            "ns",
            ns,
        ));
    }
    // The frozen engine runs a shorter budget; both per-slot costs include
    // each run's set-up.
    let mut ref_s = 0.0;
    for kind in ProtocolKind::ALL {
        let optimized = run(kind, TREE_REF_SLOTS, Engine::Optimized);
        let t = Instant::now();
        let frozen = run(kind, TREE_REF_SLOTS, Engine::Reference);
        ref_s += secs(t);
        checks.check(optimized == frozen, || {
            format!(
                "probe {}: tree engine differs from the reference",
                kind.label()
            )
        });
    }
    let ref_ns = ref_s * 1e9 / (TREE_REF_SLOTS as f64 * tree_ns.len() as f64);
    let opt_ns = tree_ns.iter().sum::<f64>() / tree_ns.len() as f64;
    out.push(Metric::new(
        "sim.tree.ref_speedup",
        "ratio",
        ref_ns / opt_ns,
    ));
    Ok(out)
}
