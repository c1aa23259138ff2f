//! Small self-contained helpers: order statistics, a JSON writer, an
//! output digest, process resource readings and the machine record.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// The median of `xs` (mean of the two middle values for even lengths).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`). `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The mean of the middle half of `xs`: a quarter of the samples (rounded
/// down) is dropped from each end. `None` for an empty slice.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The percentile ladder a tail is reported from, in tenths of a percent
/// (integers, so "ten samples beyond" is decided exactly).
const PERMILLE_LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of the ladder 50/90/95/99/99.9 that still has
/// at least ten of `n` samples beyond it. With fewer than 20 samples no
/// percentile above the median qualifies and the tail stays at the median.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as u64;
    let permille = PERMILLE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    permille as f64 / 10.0
}

/// Median, the tail at [`tail_percentile`], and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median sample.
    pub p50: f64,
    /// The percentile the tail is reported at.
    pub tail_pct: f64,
    /// The sample at `tail_pct`.
    pub tail: f64,
    /// How many samples the summary rests on.
    pub count: usize,
}

impl Summary {
    /// Summarize `xs`; `None` when there are no samples.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let tail_pct = tail_percentile(xs.len());
        Some(Summary {
            p50: median(xs)?,
            tail_pct,
            tail: quantile(xs, tail_pct / 100.0)?,
            count: xs.len(),
        })
    }
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive fingerprint of a
/// run's outputs. Floats enter by their exact bit patterns, so two digests
/// agree only when every output agrees bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in one word.
    pub fn u64(mut self, x: u64) -> Self {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mix in a float by its bit pattern.
    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    /// Mix in a slice of words, prefixed by its length.
    pub fn u64s(self, xs: &[u64]) -> Self {
        xs.iter().fold(self.u64(xs.len() as u64), |d, &x| d.u64(x))
    }

    /// The fingerprint.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A JSON value, enough for run records and the result line.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned count, written exactly.
    UInt(u64),
    /// A measured number, written with every digit Rust's shortest
    /// round-trip formatting gives; non-finite values become `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialize on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The shard sizes of the sweep executor's balanced contiguous partition:
/// `jobs` split into `min(threads, jobs)` shards, the first `jobs %
/// shards` of them one job longer.
pub fn shard_sizes(jobs: usize, threads: usize) -> Vec<usize> {
    let shards = threads.clamp(1, jobs.max(1));
    (0..shards)
        .map(|i| jobs / shards + usize::from(i < jobs % shards))
        .collect()
}

/// Map `f` over `jobs` on `threads` scoped threads, one contiguous shard
/// each (as the sweep executor partitions), and return the outputs in job
/// order: the closed-loop load of a job list spread over every core.
pub fn par_map<J: Sync, O: Send>(jobs: &[J], threads: usize, f: impl Fn(&J) -> O + Sync) -> Vec<O> {
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = jobs;
        let workers: Vec<_> = shard_sizes(jobs.len(), threads)
            .into_iter()
            .map(|n| {
                let (shard, tail) = rest.split_at(n);
                rest = tail;
                scope.spawn(move || shard.iter().map(f).collect::<Vec<O>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a benchmark job panicked"))
            .collect()
    })
}

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds of this process so far, counting every
/// thread, including worker threads that have already exited.
pub fn process_cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Field 2 (the command name) may contain spaces; fields 14 and 15
    // (utime, stime) are the 12th and 13th after its closing parenthesis.
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / CLOCK_TICKS_PER_SEC)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)?, tick(12)?))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Worker threads for the parallel entry points: every core this process
/// may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine a result was measured on, recorded beside it.
pub fn machine_record(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::UInt(nproc() as u64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::UInt(seed)),
    ])
}

/// The commit of the checkout the benchmark runs in, or `unknown` when
/// the working directory is not the root of a git repository.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            Some(3.5)
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), Some(5.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        // Every reported tail really has ten samples beyond it.
        for n in [20, 100, 250, 1000, 1024, 3072, 10_000, 50_000] {
            let p = tail_percentile(n);
            let beyond = n as f64 * (100.0 - p) / 100.0;
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_states_its_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.p50, 500.5);
        assert!((s.tail - 990.01).abs() < 1e-9);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn json_writer_escapes_and_keeps_every_digit() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("x", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1e-7)),
            ("n", Json::UInt(u64::MAX)),
            ("bad", Json::Num(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            v.render(),
            "{\"s\": \"a\\\"b\\\\c\\nd\\u0001\", \"x\": 0.30000000000000004, \
             \"tiny\": 0.0000001, \"n\": 18446744073709551615, \"bad\": null, \
             \"arr\": [true, null]}"
        );
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = Digest::default().u64(1).u64(2).value();
        let b = Digest::default().u64(2).u64(1).value();
        assert_ne!(a, b);
        let z = Digest::default().f64(0.0).value();
        let nz = Digest::default().f64(-0.0).value();
        assert_ne!(z, nz, "floats must enter by bit pattern");
        assert_ne!(
            Digest::default().u64s(&[]).value(),
            Digest::default().value()
        );
    }

    #[test]
    fn par_map_keeps_job_order() {
        let jobs: Vec<u64> = (0..23).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map(&jobs, threads, |j| j * j);
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
        }
        assert!(par_map(&[] as &[u64], 2, |j| *j).is_empty());
        assert_eq!(shard_sizes(9, 8), vec![2, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(shard_sizes(25, 2), vec![13, 12]);
        assert_eq!(shard_sizes(0, 2), vec![0]);
    }

    #[test]
    fn process_readings_are_positive() {
        let (user, sys) = process_cpu_seconds().expect("cpu");
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
    }
}
