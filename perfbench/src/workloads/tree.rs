//! `tree_100k`: the three Section-4 protocols on a complete 10-ary tree
//! of depth 5 (100,000 leaf receivers, 111,110 links) through
//! `mlf_sim::tree::run_tree`, the protocol runs spread over every core.

use super::{protocol_rig, Counts, Trace, Workload, SIM_TREE};
use crate::checks::Checks;
use crate::util::par_map;
use crate::util::Digest;
use mlf_net::{Graph, LinkId, Network, NodeId, Session, SessionId};
use mlf_protocols::ProtocolKind;
use mlf_sim::tree::{run_tree, TreeConfig, TreeReport};
use mlf_sim::{reference_tree, LossProcess};

/// Children per interior node.
pub const ARITY: usize = 10;
/// Tree depth: `ARITY^DEPTH` leaf receivers.
pub const DEPTH: usize = 5;
/// Layers in the exponential ladder.
pub const LAYERS: usize = 8;
/// Bernoulli loss of every link.
pub const LINK_LOSS: f64 = 0.03;
/// Trials (run seeds) per protocol in one pass.
pub const TRIALS: u64 = 2;
/// Slots per trial.
pub const SLOTS: u64 = 1024;
/// Slots of the reference re-runs: the frozen engine costs about ten
/// times the optimized one per slot at this scale.
pub const REFERENCE_SLOTS: u64 = 64;

/// A complete `arity`-ary tree of the given depth with every leaf a
/// receiver of one multi-rate session. Routes are recorded while the tree
/// is built and handed to `Network::with_routes`: routing 10⁵ receivers by
/// `Network::new`'s per-receiver breadth-first search takes over a minute.
pub fn leaf_tree(arity: usize, depth: usize) -> Result<Network, String> {
    let (graph, root, leaves, routes) = leaf_tree_parts(arity, depth)?;
    Network::with_routes(graph, vec![Session::multi_rate(root, leaves)], vec![routes])
        .map_err(|e| format!("tree network: {e}"))
}

/// The pieces of [`leaf_tree`]: graph, root, leaves and their routes.
pub type TreeParts = (Graph, NodeId, Vec<NodeId>, Vec<Vec<LinkId>>);

/// Build the pieces of [`leaf_tree`].
pub fn leaf_tree_parts(arity: usize, depth: usize) -> Result<TreeParts, String> {
    let mut g = Graph::new();
    let root = g.add_node();
    let mut frontier: Vec<(NodeId, Vec<LinkId>)> = vec![(root, Vec::new())];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for (parent, route) in &frontier {
            for _ in 0..arity {
                let child = g.add_node();
                let link = g
                    .add_link(*parent, child, 1e6)
                    .map_err(|e| format!("tree link: {e}"))?;
                let mut r = route.clone();
                r.push(link);
                next.push((child, r));
            }
        }
        frontier = next;
    }
    let (leaves, routes) = frontier.into_iter().unzip();
    Ok((g, root, leaves, routes))
}

/// The tree run configuration: the exponential 8-layer ladder and
/// Bernoulli loss on every link.
pub fn tree_config(net: &Network) -> TreeConfig {
    TreeConfig {
        layer_rates: (0..LAYERS)
            .map(|i| {
                if i == 0 {
                    1.0
                } else {
                    (1u64 << (i - 1)) as f64
                }
            })
            .collect(),
        link_loss: vec![LossProcess::bernoulli(LINK_LOSS); net.link_count()],
        join_latency: 0,
        leave_latency: 0,
    }
}

/// Which tree engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `mlf_sim::tree::run_tree`.
    Optimized,
    /// The frozen `mlf_sim::reference_tree::run_tree`.
    Reference,
}

/// One protocol run of `slots` slots on `net`.
pub fn run_protocol(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
    engine: Engine,
) -> Result<TreeReport, String> {
    let receivers = net.session(SessionId(0)).receivers.len();
    let (mut controllers, mut markers) = protocol_rig(kind, receivers, LAYERS, seed);
    match engine {
        Engine::Optimized => run_tree(net, cfg, &mut controllers, &mut markers, slots, seed)
            .map_err(|e| format!("tree run: {e}")),
        Engine::Reference => Ok(reference_tree::run_tree(
            net,
            cfg,
            &mut controllers,
            &mut markers,
            slots,
            seed,
        )),
    }
}

/// A bitwise fingerprint of a tree report.
pub fn report_digest(r: &TreeReport) -> u64 {
    let levels: Vec<u64> = r.final_levels.iter().map(|&l| l as u64).collect();
    r.downstream
        .iter()
        .fold(
            Digest::default()
                .u64(r.slots)
                .u64s(&r.carried)
                .u64s(&r.offered)
                .u64s(&r.delivered)
                .u64s(&r.congestion_events)
                .u64s(&levels),
            |d, down| d.u64(down.len() as u64),
        )
        .value()
}

/// Compare the optimized and frozen engines on one protocol.
pub fn check_against_reference(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
) -> Result<(), String> {
    let optimized = run_protocol(net, cfg, kind, slots, seed, Engine::Optimized)?;
    let frozen = run_protocol(net, cfg, kind, slots, seed, Engine::Reference)?;
    if optimized == frozen {
        Ok(())
    } else {
        Err(format!(
            "{}: tree engine differs from the reference over {slots} slots",
            kind.label()
        ))
    }
}

/// The `tree_100k` workload: every protocol for [`TRIALS`] trial seeds,
/// one `run_tree` job each, spread over every core.
pub struct Tree100k {
    net: Network,
    cfg: TreeConfig,
    jobs: Vec<(ProtocolKind, u64)>,
}

impl Tree100k {
    fn run_jobs(&self, slots: u64, threads: usize) -> Vec<TreeReport> {
        par_map(&self.jobs, threads, |&(kind, seed)| {
            run_protocol(&self.net, &self.cfg, kind, slots, seed, Engine::Optimized)
                .expect("the complete tree and its config are valid")
        })
    }
}

impl Workload for Tree100k {
    type Output = Vec<TreeReport>;

    fn setup(seed: u64) -> Result<Self, String> {
        let net = leaf_tree(ARITY, DEPTH)?;
        let cfg = tree_config(&net);
        let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jobs = ProtocolKind::ALL
            .iter()
            .flat_map(|&kind| (0..TRIALS).map(move |t| (kind, base.wrapping_add(t))))
            .collect();
        Ok(Tree100k { net, cfg, jobs })
    }

    fn warm_up(&self, threads: usize) {
        std::hint::black_box(self.run_jobs(SLOTS / 8, threads));
    }

    fn run(&self, threads: usize) -> Vec<TreeReport> {
        self.run_jobs(SLOTS, threads)
    }

    fn counts(&self, out: &Vec<TreeReport>) -> Counts {
        Counts {
            jobs: out.len() as u64,
            slots: out.iter().map(|r| r.slots).sum(),
            trials: out.len() as u64,
            ..Counts::default()
        }
    }

    fn digest(&self, out: &Vec<TreeReport>) -> u64 {
        out.iter()
            .fold(Digest::default(), |d, r| d.u64(report_digest(r)))
            .value()
    }

    fn check(&self, out: &Vec<TreeReport>, threads: usize, checks: &mut Checks) {
        if threads > 1 {
            let serial = self.run(1);
            checks.check(serial == *out, || {
                "serial and parallel tree passes differ".to_string()
            });
        }
        for &(kind, seed) in self.jobs.iter().step_by(TRIALS as usize) {
            let verdict =
                check_against_reference(&self.net, &self.cfg, kind, REFERENCE_SLOTS, seed);
            checks.check(verdict.is_ok(), || verdict.unwrap_err());
        }
    }

    fn traced(&self, out: &Vec<TreeReport>, trace: &mut Trace, checks: &mut Checks) {
        trace.sweep(|trace| {
            for (&(kind, seed), expected) in self.jobs.iter().zip(out) {
                let again = trace.job(|t| {
                    t.span(SIM_TREE, || {
                        run_protocol(&self.net, &self.cfg, kind, SLOTS, seed, Engine::Optimized)
                    })
                });
                checks.check(again.as_ref() == Ok(expected), || {
                    format!("{}: traced tree run differs", kind.label())
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_trees_match_the_reference_and_digests_see_corruption() {
        let net = leaf_tree(3, 3).expect("valid tree");
        assert_eq!(net.session(SessionId(0)).receivers.len(), 27);
        assert_eq!(net.link_count(), 3 + 9 + 27);
        let cfg = tree_config(&net);
        for kind in ProtocolKind::ALL {
            assert_eq!(check_against_reference(&net, &cfg, kind, 500, 9), Ok(()));
        }
        let report = run_protocol(
            &net,
            &cfg,
            ProtocolKind::Coordinated,
            500,
            9,
            Engine::Optimized,
        )
        .expect("valid run");
        let mut bad = report.clone();
        bad.carried[4] += 1;
        assert_ne!(report_digest(&report), report_digest(&bad));
    }
}
