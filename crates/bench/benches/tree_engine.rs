//! Benchmarks the per-link bitset tree engine tentpole up to six-figure
//! scale: complete trees (one multi-rate session, every leaf a
//! receiver) with an 8-layer exponential ladder, bitset engine versus the
//! frozen pre-bitset reference (`mlf_sim::reference_tree`).
//!
//! 1. **Determinism**: every protocol's bitset run is asserted bitwise
//!    identical (whole `TreeReport`) to the reference run on a moderate
//!    4-ary depth-4 tree (256 receivers). The workspace differential covers
//!    the same claim across random shapes; this is the bench-shaped pin.
//! 2. **Speed-up floors**: over all three protocols, the reference's time
//!    per slot must be at least [`Floor::floor`] times the bitset
//!    engine's, on that tree ([`REGRESSION`]) and at 10⁵ receivers
//!    ([`ACCEPTANCE`]). The reference is O(links × downstream) per slot,
//!    so at 10⁵ it runs a shorter slot budget.
//!
//! `cargo bench -p mlf-bench --bench tree_engine`

use mlf_bench::paired::{assert_floor, median_time_ratio};
use mlf_layering::LayerSchedule;
use mlf_net::{Graph, LinkId, Network, Session};
use mlf_protocols::experiment::trial_rig;
use mlf_protocols::ProtocolKind;
use mlf_sim::tree::{run_tree_into, TreeConfig, TreeReport, TreeScratch};
use mlf_sim::{reference_tree, LossProcess};
use std::hint::black_box;

const LAYERS: usize = 8;
const SEED: u64 = 0x51_66_C0_99;

/// A speed-up floor on one complete `arity`-ary tree of `depth`: the
/// bitset engine runs `slots` per protocol, the reference `ref_slots`.
struct Floor {
    gate: &'static str,
    arity: usize,
    depth: usize,
    slots: u64,
    ref_slots: u64,
    floor: f64,
}

/// The bitwise assert and the regression floor, on a 4-ary depth-4 tree
/// (256 receivers), both engines over the same 20,000 slots. Measured
/// 8.4-10.1x on a 2-core x86-64 container; a bitset engine 1.41x as slow
/// read 6.2-6.9.
const REGRESSION: Floor = Floor {
    gate: "tree-engine reference/bitset per slot, 256 receivers",
    arity: 4,
    depth: 4,
    slots: 20_000,
    ref_slots: 20_000,
    floor: 7.5,
};

/// The engine's acceptance bar, at 10⁵ receivers (111,110 links). Measured
/// 7.8-11.1x on the same container: the reference's time per repetition
/// swings by half at this scale, which leaves no constant that passes the
/// unchanged engine and fails one 1.43x as slow. The reference costs ~10⁶
/// receiver/route checks per slot here; 128 slots keep a repetition under
/// a second.
const ACCEPTANCE: Floor = Floor {
    gate: "tree-engine reference/bitset per slot, 1e5 receivers",
    arity: 10,
    depth: 5,
    slots: 2048,
    ref_slots: 128,
    floor: 5.0,
};

/// A complete `arity`-ary tree of the given depth with every leaf a
/// receiver, built with explicit routes: recording each node's root path
/// during construction and handing them to [`Network::with_routes`] skips
/// the per-receiver BFS of [`Network::new`], which at 10⁵ receivers ×
/// 2×10⁵ graph elements would dominate the whole bench.
fn leaf_tree(arity: usize, depth: usize) -> Network {
    let mut g = Graph::new();
    let root = g.add_node();
    let mut frontier: Vec<(mlf_net::NodeId, Vec<LinkId>)> = vec![(root, Vec::new())];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for (p, route) in &frontier {
            for _ in 0..arity {
                let c = g.add_node();
                let l = g.add_link(*p, c, 1e6).expect("fresh link");
                let mut r = route.clone();
                r.push(l);
                next.push((c, r));
            }
        }
        frontier = next;
    }
    let (leaves, routes): (Vec<_>, Vec<_>) = frontier.into_iter().unzip();
    Network::with_routes(g, vec![Session::multi_rate(root, leaves)], vec![routes])
        .expect("explicit routes of a complete tree are valid")
}

fn config(net: &Network) -> TreeConfig {
    TreeConfig {
        layer_rates: LayerSchedule::exponential(LAYERS).rates().to_vec(),
        link_loss: vec![LossProcess::bernoulli(0.03); net.link_count()],
        join_latency: 0,
        leave_latency: 0,
    }
}

fn receivers_of(net: &Network) -> usize {
    net.session(mlf_net::SessionId(0)).receivers.len()
}

/// One bitset run through reusable scratch (the production trial path).
fn run_bitset(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    report: &mut TreeReport,
    scratch: &mut TreeScratch,
) {
    let (mut ctls, mut mk) = trial_rig(kind, receivers_of(net), LAYERS, SEED);
    run_tree_into(net, cfg, &mut ctls, &mut mk, slots, SEED, report, scratch)
        .expect("bench configuration is valid");
}

fn run_reference(net: &Network, cfg: &TreeConfig, kind: ProtocolKind, slots: u64) -> TreeReport {
    let (mut ctls, mut mk) = trial_rig(kind, receivers_of(net), LAYERS, SEED);
    reference_tree::run_tree(net, cfg, &mut ctls, &mut mk, slots, SEED)
}

fn assert_engines_agree(net: &Network, cfg: &TreeConfig, slots: u64) {
    let mut report = TreeReport::empty();
    let mut scratch = TreeScratch::default();
    for kind in ProtocolKind::ALL {
        run_bitset(net, cfg, kind, slots, &mut report, &mut scratch);
        let reference = run_reference(net, cfg, kind, slots);
        assert_eq!(
            report,
            reference,
            "bitset engine diverged from reference for {}",
            kind.label()
        );
    }
    println!(
        "determinism: bitset engine bitwise-identical to reference across all 3 protocols \
         at {} receivers x {slots} slots",
        receivers_of(net)
    );
}

/// Time both engines on `f`'s tree and assert its floor.
fn assert_tree_floor(f: &Floor) {
    let net = leaf_tree(f.arity, f.depth);
    let cfg = config(&net);
    let mut report = TreeReport::empty();
    let mut scratch = TreeScratch::default();
    let time_ratio = median_time_ratio(
        || {
            for kind in ProtocolKind::ALL {
                black_box(run_reference(&net, &cfg, kind, f.ref_slots));
            }
        },
        || {
            for kind in ProtocolKind::ALL {
                run_bitset(&net, &cfg, kind, f.slots, &mut report, &mut scratch);
            }
            black_box(&report);
        },
    );
    assert_floor(
        f.gate,
        time_ratio * f.slots as f64 / f.ref_slots as f64,
        f.floor,
    );
}

fn main() {
    let net = leaf_tree(REGRESSION.arity, REGRESSION.depth);
    assert_engines_agree(&net, &config(&net), REGRESSION.slots);
    assert_tree_floor(&REGRESSION);
    assert_tree_floor(&ACCEPTANCE);
}
