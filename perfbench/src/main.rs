//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed as `name = value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A run record with the machine, the work counts
//! and every check goes to `perfbench/runs/`. See `perfbench/README.md`.

mod checks;
mod probes;
mod util;
mod workloads;

use checks::Checks;
use probes::{Metric, Prober};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use util::{nproc, process_cpu_seconds, timed, Json, Summary};
use workloads::alloc::{LinearGrid, RandomJoin};
use workloads::protocol::ProtocolFigures;
use workloads::tree::Tree100k;
use workloads::{Trace, Workload, PHASES};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "alloc_randomjoin",
    "alloc_linear_grid",
    "protocol_figures",
    "tree_100k",
];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed passes per untraced run, however long a pass takes.
const MIN_PASSES: usize = 3;
/// Untraced parallel passes a traced run times as its base line.
const TRACED_BASE_PASSES: usize = 3;
/// Per-layer probes in a traced run; each gets an equal share of
/// `--seconds`.
const PROBES: u32 = 30;

const USAGE: &str = "usage: mlf-perfbench --workload <alloc_randomjoin|alloc_linear_grid|protocol_figures|tree_100k> \
--seed <n> --seconds <1..=3600> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=3600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required, from 1 to 3600")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    checks: Checks,
    record: Vec<(&'static str, Json)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "alloc_randomjoin" => bench::<RandomJoin>(&args),
        "alloc_linear_grid" => bench::<LinearGrid>(&args),
        "protocol_figures" => bench::<ProtocolFigures>(&args),
        _ => bench::<Tree100k>(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    match write_record(&args, &outcome) {
        Ok(path) => println!("run record: {}", path.display()),
        Err(e) => eprintln!("warning: run record not written: {e}"),
    }
    println!("{}", result_line(&outcome).render());
}

/// The last line of standard output.
fn result_line(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.checks.failed() == 0)),
        ("attempted", Json::UInt(o.checks.attempted())),
        ("failed", Json::UInt(o.checks.failed())),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| {
                        let v =
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_record(args: &Args, o: &Outcome) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut fields = vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("machine", util::machine_record(args.seed)),
        ("result", result_line(o)),
        ("checks", o.checks.record()),
    ];
    fields.extend(o.record.iter().cloned());
    let mut text = Json::obj(fields).render();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let threads = nproc();
    if args.trace {
        traced::<W>(args, threads)
    } else {
        untraced::<W>(args, threads)
    }
}

fn summary_record(xs: &[f64]) -> Json {
    match Summary::of(xs) {
        Some(s) => Json::obj([
            ("p50", Json::Num(s.p50)),
            ("tail_percentile", Json::Num(s.tail_pct)),
            ("tail", Json::Num(s.tail)),
            ("samples", Json::UInt(s.count as u64)),
        ]),
        None => Json::Null,
    }
}

fn samples(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// The end-to-end run: set up `SETUPS` times, check one pass, then time
/// passes for `--seconds`.
fn untraced<W: Workload>(args: &Args, threads: usize) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so peak memory holds one.
        drop(workload.take());
        let (w, took) = timed(|| W::setup(args.seed).inspect(|w| w.warm_up(threads)));
        workload = Some(w?);
        setups.push(took.as_secs_f64());
    }
    let w = workload.ok_or("no set-up ran")?;

    let mut checks = Checks::default();
    let first = w.run(threads);
    let counts = w.counts(&first);
    let digest = w.digest(&first);
    w.check(&first, threads, &mut checks);
    drop(first);

    let budget = Duration::from_secs(args.seconds);
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let (mut user, mut sys) = (0.0, 0.0);
    let mut last = None;
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let before = process_cpu_seconds()?;
        let (out, took) = timed(|| w.run(threads));
        let after = process_cpu_seconds()?;
        walls.push(took.as_secs_f64());
        user += after.0 - before.0;
        sys += after.1 - before.1;
        cpus.push(after.0 + after.1 - before.0 - before.1);
        let again = w.counts(&out);
        checks.check(again == counts, || {
            format!(
                "pass {}: work counts {again:?} differ from {counts:?}",
                walls.len()
            )
        });
        last = Some(out);
    }
    let passes = walls.len() as f64;
    let (user, sys) = (user / passes, sys / passes);
    // Process CPU time comes in 10 ms ticks: the mean of the middle half
    // of the passes resolves below a tick and, like the median wall time,
    // ignores the passes another tenant's burst slowed.
    let cpu = util::interquartile_mean(&cpus).ok_or("no pass ran")?;
    let last = last.ok_or("no pass ran")?;
    checks.check(w.digest(&last) == digest, || {
        "the last timed pass's outputs differ from the checked pass".to_string()
    });
    drop(last);

    let wall = util::median(&walls).ok_or("no pass ran")?;
    let setup = util::median(&setups).ok_or("no set-up ran")?;
    let metrics = vec![
        Metric::new("wall_s", "s", wall),
        Metric::new("cpu_s", "s", cpu),
        Metric::new("setup_s", "s", setup),
        Metric::new("peak_rss_mb", "MiB", util::peak_rss_mb()?),
    ];
    let mut per_unit = vec![("cpu_ns_per_job", cpu * 1e9 / counts.jobs as f64)];
    if counts.slots > 0 {
        per_unit.push(("cpu_ns_per_slot", cpu * 1e9 / counts.slots as f64));
    }
    if counts.solver_iterations > 0 {
        per_unit.push((
            "cpu_ns_per_solver_iteration",
            cpu * 1e9 / counts.solver_iterations as f64,
        ));
    }
    let record = vec![
        ("threads", Json::UInt(threads as u64)),
        ("error_rate", Json::Num(checks.error_rate())),
        ("cpu_user_s", Json::Num(user)),
        ("cpu_sys_s", Json::Num(sys)),
        ("counts", counts.record()),
        ("digest", Json::str(format!("{digest:016x}"))),
        ("pass_wall_s", summary_record(&walls)),
        ("pass_wall_s_samples", samples(&walls)),
        ("pass_cpu_s_samples", samples(&cpus)),
        ("setup_s_samples", samples(&setups)),
        (
            "per_unit",
            Json::obj(per_unit.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
    ];
    Ok(Outcome {
        metrics,
        checks,
        record,
    })
}

/// The slowest contiguous shard over the mean shard, for the balanced
/// partition the sweep executor uses.
fn shard_imbalance(job_ms: &[f64], threads: usize) -> f64 {
    let mut rest = job_ms;
    let shards: Vec<f64> = util::shard_sizes(job_ms.len(), threads)
        .into_iter()
        .map(|n| {
            let (shard, tail) = rest.split_at(n);
            rest = tail;
            shard.iter().sum()
        })
        .collect();
    let mean = shards.iter().sum::<f64>() / shards.len() as f64;
    let max = shards.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// The per-layer run: untraced base lines, one traced serial pass with a
/// span around every layer call, then the per-layer probes.
fn traced<W: Workload>(args: &Args, threads: usize) -> Result<Outcome, String> {
    let w = W::setup(args.seed)?;
    w.warm_up(threads);
    let mut checks = Checks::default();

    let mut parallel_walls = Vec::new();
    let mut out = None;
    for _ in 0..TRACED_BASE_PASSES {
        let (o, took) = timed(|| w.run(threads));
        parallel_walls.push(took.as_secs_f64());
        out = Some(o);
    }
    let out = out.ok_or("no pass ran")?;
    let parallel_wall = util::median(&parallel_walls).ok_or("no pass ran")?;
    let counts = w.counts(&out);
    let (serial, serial_wall) = timed(|| w.run(1));
    let serial_wall = serial_wall.as_secs_f64();
    checks.check(w.digest(&serial) == w.digest(&out), || {
        "serial and parallel passes differ".to_string()
    });
    drop(serial);

    let ((), plain_wall) = timed(|| w.traced(&out, &mut Trace::new(false), &mut checks));
    let mut trace = Trace::new(true);
    let ((), traced_wall) = timed(|| w.traced(&out, &mut trace, &mut checks));
    let traced_wall = traced_wall.as_secs_f64();
    drop(out);

    let sweep_ms: f64 = trace
        .sweeps()
        .iter()
        .map(|r| trace.job_ms()[r.clone()].iter().sum::<f64>())
        .sum();
    let imbalance = if sweep_ms > 0.0 {
        trace
            .sweeps()
            .iter()
            .map(|r| {
                let jobs = &trace.job_ms()[r.clone()];
                shard_imbalance(jobs, threads) * jobs.iter().sum::<f64>()
            })
            .sum::<f64>()
            / sweep_ms
    } else {
        1.0
    };
    let jobs = Summary::of(trace.job_ms()).ok_or("the traced pass ran no jobs")?;
    let cache_lookups = counts.cache_hits + counts.cache_misses;

    let mut metrics = vec![Metric::new(
        "trace.overhead_ratio",
        "ratio",
        traced_wall / plain_wall.as_secs_f64(),
    )];
    metrics.extend(PHASES.iter().map(|p| {
        Metric::new(
            format!("phase.{p}.share"),
            "ratio",
            trace.phase_seconds(p) / traced_wall,
        )
    }));
    metrics.extend([
        Metric::new(
            "scenario.executor.efficiency",
            "ratio",
            serial_wall / (threads as f64 * parallel_wall),
        ),
        Metric::new("scenario.executor.shard_imbalance", "ratio", imbalance),
        Metric::new("scenario.job_p50_ms", "ms", jobs.p50),
        Metric::new("scenario.job_tail_ms", "ms", jobs.tail),
        Metric::new("scenario.job_tail_percentile", "percentile", jobs.tail_pct),
        Metric::new("scenario.job_samples", "count", jobs.count as f64),
        Metric::new("scenario.cache.hits", "count", counts.cache_hits as f64),
        Metric::new("scenario.cache.misses", "count", counts.cache_misses as f64),
        Metric::new(
            "scenario.cache.evictions",
            "count",
            counts.cache_evictions as f64,
        ),
        Metric::new(
            "scenario.cache.hit_rate",
            "ratio",
            if cache_lookups == 0 {
                0.0
            } else {
                counts.cache_hits as f64 / cache_lookups as f64
            },
        ),
        Metric::new("work.jobs", "count", counts.jobs as f64),
        Metric::new(
            "work.solver_iterations",
            "count",
            counts.solver_iterations as f64,
        ),
        Metric::new("work.slots", "count", counts.slots as f64),
        Metric::new("work.markov_states", "count", counts.markov_states as f64),
    ]);
    let prober = Prober::new(Duration::from_secs(args.seconds) / PROBES);
    metrics.extend(probes::run_all(args.seed, &prober, &mut checks)?);

    let record = vec![
        ("threads", Json::UInt(threads as u64)),
        ("error_rate", Json::Num(checks.error_rate())),
        ("counts", counts.record()),
        ("untraced_parallel_wall_s", Json::Num(parallel_wall)),
        ("untraced_serial_wall_s", Json::Num(serial_wall)),
        (
            "spans_off_serial_wall_s",
            Json::Num(plain_wall.as_secs_f64()),
        ),
        ("traced_serial_wall_s", Json::Num(traced_wall)),
    ];
    Ok(Outcome {
        metrics,
        checks,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        assert_eq!(
            args(&[
                "--workload",
                "tree_100k",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1"
            ]),
            Ok(Args {
                workload: "tree_100k".into(),
                seed: 3,
                seconds: 10,
                trace: true,
            })
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "tree_100k",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "tree_100k",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "tree_100k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "tree_100k", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn shard_imbalance_follows_the_balanced_partition() {
        assert_eq!(shard_imbalance(&[1.0, 1.0, 1.0, 1.0], 2), 1.0);
        // Shards [3, 1] and [1]: 4 / 2.5.
        assert_eq!(shard_imbalance(&[3.0, 1.0, 1.0], 2), 1.6);
        assert_eq!(shard_imbalance(&[5.0, 1.0], 1), 1.0);
        assert_eq!(shard_imbalance(&[], 2), 1.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        checks.check(false, || "corrupted".into());
        let o = Outcome {
            metrics: vec![Metric::new("wall_s", "s", 1.25)],
            checks,
            record: Vec::new(),
        };
        assert_eq!(
            result_line(&o).render(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
