//! Checks the workspace hot-path claim: `Allocator::solve` with a reused
//! `SolverWorkspace` vs a fresh workspace per call (`Allocator::allocate`),
//! on the Figure 5 random-join sweep (RandomJoin link-rate models force the
//! bisection solver, the allocator's most scratch-hungry code path).
//!
//! A counting global allocator reports heap allocations **per solve** for
//! both paths — the number the workspace design exists to cut — and the
//! workspace reports the bisection halvings per solve, the deterministic
//! unit of RandomJoin solver work. Both paths must agree, and two
//! identical sweeps must do identical solver work. Nothing here is timed.
//!
//! `cargo bench -p mlf-bench --bench workspace_reuse`

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{LinkRateConfig, LinkRateModel};
use mlf_net::topology::random_network;
use mlf_net::Network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a relaxed counter increment on the allocation path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The sweep corpus: one network per seed, all sessions under the Appendix B
/// random-join model (Figure 5's setting, fed back into the allocator).
fn sweep_corpus() -> (Vec<Network>, LinkRateConfig) {
    let nets: Vec<Network> = (0..24u64)
        .map(|s| random_network(s, 30, 8, 5).unwrap())
        .collect();
    let cfg = LinkRateConfig::uniform(8, LinkRateModel::RandomJoin { sigma: 6.0 });
    (nets, cfg)
}

fn fresh_sweep(nets: &[Network], cfg: &LinkRateConfig) -> f64 {
    let allocator = Hybrid::as_declared().with_config(cfg.clone());
    nets.iter()
        .map(|net| allocator.allocate(net).total_rate())
        .sum()
}

fn workspace_sweep(nets: &[Network], allocator: &Hybrid, ws: &mut SolverWorkspace) -> f64 {
    nets.iter()
        .map(|net| allocator.solve(net, ws).allocation.total_rate())
        .sum()
}

fn report_allocation_counts(nets: &[Network], cfg: &LinkRateConfig) {
    let allocator = Hybrid::as_declared().with_config(cfg.clone());
    let mut ws = SolverWorkspace::new();
    // Warm the workspace so steady-state reuse is measured, then compare.
    let (warm_total, _) = allocations_during(|| workspace_sweep(nets, &allocator, &mut ws));
    let warm_halvings = ws.bisection_halvings();
    let (reused_total, reused_allocs) =
        allocations_during(|| workspace_sweep(nets, &allocator, &mut ws));
    assert_eq!(
        ws.bisection_halvings(),
        2 * warm_halvings,
        "identical sweeps do identical solver work"
    );
    let (fresh_total, fresh_allocs) = allocations_during(|| fresh_sweep(nets, cfg));
    assert_eq!(warm_total, reused_total);
    assert_eq!(reused_total, fresh_total, "paths must agree");
    let n = nets.len() as u64;
    println!(
        "allocations/solve over the {n}-network random-join sweep: \
         fresh workspace per call {}  |  reused workspace {}  ({:.1}x fewer)",
        fresh_allocs / n,
        reused_allocs / n,
        fresh_allocs as f64 / reused_allocs.max(1) as f64
    );
    println!(
        "bisection halvings/solve over the same sweep: {:.1}",
        warm_halvings as f64 / n as f64
    );
}

fn main() {
    let (nets, cfg) = sweep_corpus();
    report_allocation_counts(&nets, &cfg);
}
