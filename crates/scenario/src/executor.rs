//! The deterministic parallel job executor shared by every sweep in the
//! workspace.
//!
//! [`run_jobs_par`] is the one shard/merge entry point, generic over the
//! job type: allocator sweeps shard seed jobs over per-thread
//! [`SolverWorkspace`]s, checkpointed sweeps shard whole checkpoint shards
//! the same way, and protocol sweeps shard `(protocol, loss, seed)` jobs
//! with stateless workers.
//!
//! ## The determinism contract
//!
//! For any `jobs`, `threads`, worker-state factory `init`, and job function
//! `solve`:
//!
//! 1. **Balanced contiguous partition.** The job slice is split into
//!    `min(threads, jobs.len())` contiguous shards; the first
//!    `jobs % threads` shards take one extra job, so no requested worker
//!    sits idle while another holds two extra jobs.
//! 2. **Worker-local state.** Each worker calls `init()` exactly once and
//!    threads the resulting state through its shard in order. State never
//!    crosses shards, so `solve` may mutate it freely (scratch buffers,
//!    RNGs re-seeded per job) without affecting other shards.
//! 3. **In-order merge.** Shard outputs are concatenated in shard order, so
//!    the output vector is index-for-index the same as the serial loop
//!    `jobs.iter().map(|j| solve(&mut init(), j))` *provided* `solve`'s
//!    output for a job does not depend on worker-state history. Every
//!    caller in this workspace satisfies that (a solve's result never reads
//!    workspace history; a protocol point re-seeds its RNGs from the job),
//!    which is what makes parallel output **bitwise identical** to serial
//!    at any thread count.
//!
//! `threads == 0` means "use [`std::thread::available_parallelism`]";
//! `threads == 1` (or a single job) runs inline on the calling thread with
//! no spawn at all, so the serial path and the one-thread parallel path are
//! literally the same code.
//!
//! [`SolverWorkspace`]: mlf_core::allocator::SolverWorkspace

/// Run `jobs` across `threads` scoped worker threads and return the outputs
/// in job order.
///
/// * `init` builds one worker-local state per thread (a scratch workspace,
///   an RNG pool, …). It runs on the worker thread itself.
/// * `solve` maps one job to one output, with mutable access to its
///   worker's state.
///
/// The output is **bitwise identical** to the serial loop over `jobs` as
/// long as `solve(state, job)`'s result is a pure function of `job` (state
/// is scratch, not history) — see the module docs for the full contract.
///
/// # Panics
///
/// Propagates panics from `solve`/`init` (the scope joins every worker).
// mlf-lint: allow(unused-pub, reason = "reserved for a perfbench probe of executor overhead (ROADMAP item 7)")
pub fn run_jobs_par<J, O, S, Init, Solve>(
    jobs: &[J],
    threads: usize,
    init: Init,
    solve: Solve,
) -> Vec<O>
where
    J: Sync,
    O: Send,
    Init: Fn() -> S + Sync,
    Solve: Fn(&mut S, &J) -> O + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let threads = threads.clamp(1, jobs.len().max(1));
    let solve_shard = |shard: &[J]| -> Vec<O> {
        let mut state = init();
        shard.iter().map(|job| solve(&mut state, job)).collect()
    };
    if threads == 1 {
        return solve_shard(jobs);
    }
    // Balanced partition: the first `jobs % threads` shards take one extra
    // job, so every requested worker gets work (a plain `chunks(div_ceil)`
    // can leave whole workers idle — e.g. 9 jobs on 8 threads would spawn
    // only 5).
    let base = jobs.len() / threads;
    let extra = jobs.len() % threads;
    let mut outputs = Vec::with_capacity(jobs.len());
    let solve_shard = &solve_shard;
    std::thread::scope(|scope| {
        let mut rest = jobs;
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let (shard, tail) = rest.split_at(base + usize::from(i < extra));
                rest = tail;
                scope.spawn(move || solve_shard(shard))
            })
            .collect();
        for worker in workers {
            // mlf-lint: allow(panic-unwrap, reason = "re-raising a worker panic on the coordinating thread is the correct failure mode; swallowing it would silently drop that shard's results")
            outputs.extend(worker.join().expect("sweep worker panicked"));
        }
    });
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    #[test]
    fn output_is_in_job_order_at_any_thread_count() {
        let jobs = square_jobs(23);
        let serial: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [0, 1, 2, 3, 5, 8, 23, 64] {
            let par = run_jobs_par(&jobs, threads, || (), |_, &j| j * j);
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn empty_job_lists_are_fine() {
        let out = run_jobs_par(&[] as &[u64], 8, || (), |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_state_is_local_and_initialized_once_per_thread() {
        // Each worker counts its own jobs; the per-job output records the
        // counter *before* increment. Serial order would give 0,1,2,…;
        // sharded runs restart the count at each shard boundary. Either
        // way, the sum of (count==0) outputs equals the number of workers
        // that actually ran.
        let jobs = square_jobs(10);
        let out = run_jobs_par(
            &jobs,
            4,
            || 0u64,
            |count, _| {
                let seen = *count;
                *count += 1;
                seen
            },
        );
        assert_eq!(out.len(), 10);
        let shard_starts = out.iter().filter(|&&c| c == 0).count();
        assert_eq!(shard_starts, 4, "one fresh state per worker: {out:?}");
    }

    #[test]
    fn balanced_partition_uses_every_requested_worker() {
        // 9 jobs on 8 threads: a div_ceil chunking would spawn only 5
        // workers; the balanced split gives shard sizes 2,1,1,1,1,1,1,1.
        let jobs = square_jobs(9);
        let out = run_jobs_par(
            &jobs,
            8,
            || false,
            |fresh, &j| {
                let first = !*fresh;
                *fresh = true;
                (j, first)
            },
        );
        assert_eq!(out.iter().filter(|&&(_, first)| first).count(), 8);
        // And the merge is still in job order.
        let ids: Vec<u64> = out.iter().map(|&(j, _)| j).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }
}
