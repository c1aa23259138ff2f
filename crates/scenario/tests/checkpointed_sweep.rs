//! Checkpointed sweeps: the on-disk format round-trips every `f64` bit
//! pattern exactly, and `Scenario::sweep_par_checkpointed` resumed from
//! any prefix of its file, from a torn tail, from an empty file, or after a
//! real mid-sweep panic produces points bitwise identical to
//! `Scenario::sweep`. Terminated-but-corrupt lines and foreign files are
//! hard errors: a bad shard is never merged.

use mlf_core::allocator::{Allocator, MultiRate, SolverWorkspace};
use mlf_core::{LinkRateModel, MaxMinSolution};
use mlf_net::Network;
use mlf_scenario::checkpoint::{
    decode_point, encode_point, load_checkpoint, shard_content_hash, CheckpointError,
    CheckpointMeta, CheckpointWriter, LoadedCheckpoint, ShardRecord, FORMAT, POINT_BYTES,
    SHARD_SIZE,
};
use mlf_scenario::{Scenario, ScenarioMetrics, SweepPoint, SweepReport};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Five shards: four full ones and a short tail shard.
const SEEDS: std::ops::Range<u64> = 0..(4 * SHARD_SIZE as u64 + 3);

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// A fresh path under the system temp dir, unique per test process and
/// call (tests run concurrently in one binary).
fn tmp(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mlf-checkpointed-sweep-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn scenario() -> Scenario {
    Scenario::builder()
        .label("checkpointed-sweep")
        .random_networks(14, 4, 4)
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario spec")
}

fn assert_bitwise(got: &[SweepPoint], want: &[SweepPoint]) {
    assert_eq!(got.len(), want.len(), "point count differs");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            encode_point(g),
            encode_point(w),
            "point {i} differs bitwise"
        );
    }
}

/// Run `scenario` checkpointed at `path`, expecting success.
fn run(scenario: &Scenario, threads: usize, path: &Path) -> (SweepReport, u64) {
    scenario
        .sweep_par_checkpointed(SEEDS, threads, path)
        .expect("checkpointed sweep succeeds")
}

// ---------------------------------------------------------------------------
// Round-trip over arbitrary bit patterns
// ---------------------------------------------------------------------------

/// `f64`s drawn directly from bit patterns, with the exotic corners that
/// break naive float serialisation drawn often.
fn any_f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 2.0), // subnormal
    ]
}

fn any_model() -> impl Strategy<Value = Option<LinkRateModel>> {
    prop_oneof![
        Just(None),
        Just(Some(LinkRateModel::Efficient)),
        Just(Some(LinkRateModel::Sum)),
        any_f64_bits().prop_map(|f| Some(LinkRateModel::Scaled(f))),
        any_f64_bits().prop_map(|sigma| Some(LinkRateModel::RandomJoin { sigma })),
    ]
}

fn any_point() -> impl Strategy<Value = SweepPoint> {
    (
        any::<u64>(),
        any_model(),
        (
            any_f64_bits(),
            any_f64_bits(),
            any_f64_bits(),
            any_f64_bits(),
        ),
        any::<usize>(),
        prop_oneof![Just(None), (0usize..5).prop_map(Some)],
    )
        .prop_map(
            |(seed, model, (jain, min, total, sat), iterations, props)| SweepPoint {
                seed,
                model,
                metrics: ScenarioMetrics {
                    jain_index: jain,
                    min_rate: min,
                    total_rate: total,
                    satisfaction: sat,
                    iterations,
                },
                properties_holding: props,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → load round-trips every point bitwise, through the real
    /// file.
    #[test]
    fn checkpoint_file_round_trips_any_bit_pattern(
        points in proptest::collection::vec(any_point(), 1..12),
    ) {
        let path = tmp("roundtrip");
        let meta = CheckpointMeta {
            sweep: 0x005e_ed1d,
            shards: 1,
            shard_size: points.len() as u64,
        };
        let rec = ShardRecord {
            shard: 0,
            start: 0,
            hash: shard_content_hash(0, 0, &points),
            points: points.clone(),
        };
        {
            let mut w = CheckpointWriter::create(&path, &meta).expect("create");
            w.append_shard(&rec).expect("append");
        }
        let loaded = load_checkpoint(&path, &meta).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.shards.len(), 1);
        prop_assert!(!loaded.dropped_tail);
        let got = &loaded.shards[0];
        prop_assert_eq!(got.shard, 0);
        prop_assert_eq!(got.start, 0);
        prop_assert_eq!(got.points.len(), points.len());
        for (g, w) in got.points.iter().zip(&points) {
            prop_assert_eq!(encode_point(g), encode_point(w));
        }
    }

    /// The canonical point encoding is exactly [`POINT_BYTES`] wide and
    /// `decode_point` inverts it bit for bit — NaN payloads, −0.0,
    /// infinities and subnormals included.
    #[test]
    fn point_encoding_decodes_to_identical_bits(point in any_point()) {
        let enc = encode_point(&point);
        prop_assert_eq!(enc.len(), POINT_BYTES);
        let dec = decode_point(&enc).expect("well-formed encoding decodes");
        prop_assert_eq!(encode_point(&dec), enc);
    }
}

#[test]
fn writer_resume_appends_after_the_intact_prefix() {
    // Interrupted-writer lifecycle, driven directly: create, append one
    // shard, reopen via `resume` from the loaded intact prefix, append the
    // second shard, and load the whole file back.
    let path = tmp("resume-writer");
    let mk_points = |seed: u64| {
        vec![SweepPoint {
            seed,
            model: None,
            metrics: ScenarioMetrics {
                jain_index: 1.0,
                min_rate: 0.5,
                total_rate: 2.0,
                satisfaction: 0.75,
                iterations: 3,
            },
            properties_holding: Some(4),
        }]
    };
    let meta = CheckpointMeta {
        sweep: 0xab1e_cafe,
        shards: 2,
        shard_size: 1,
    };
    let rec = |shard: u64| ShardRecord {
        shard,
        start: shard,
        hash: shard_content_hash(shard, shard, &mk_points(shard)),
        points: mk_points(shard),
    };
    {
        let mut w = CheckpointWriter::create(&path, &meta).expect("create");
        w.append_shard(&rec(0)).expect("append shard 0");
    }
    let header = std::fs::read_to_string(&path).expect("readable checkpoint");
    assert!(
        header.lines().next().unwrap_or("").contains(FORMAT),
        "header line must carry the format tag {FORMAT}"
    );
    let loaded: LoadedCheckpoint = load_checkpoint(&path, &meta).expect("intact prefix");
    assert_eq!(loaded.shards.len(), 1);
    assert_eq!(
        loaded.valid_len,
        std::fs::metadata(&path).expect("stat").len()
    );
    {
        let mut w = CheckpointWriter::resume(&path, &meta, &loaded).expect("resume");
        w.append_shard(&rec(1)).expect("append shard 1");
    }
    let full = load_checkpoint(&path, &meta).expect("full file");
    std::fs::remove_file(&path).ok();
    assert_eq!(full.shards.len(), 2);
    for (i, s) in full.shards.iter().enumerate() {
        assert_eq!(s.shard, i as u64);
        assert_eq!(
            encode_point(&s.points[0]),
            encode_point(&mk_points(i as u64)[0])
        );
    }
}

// ---------------------------------------------------------------------------
// Resume from every prefix
// ---------------------------------------------------------------------------

/// Run one full checkpointed sweep; return the serial points and the
/// file's lines (each with its newline).
fn finished_file(path: &Path, threads: usize) -> (Vec<SweepPoint>, Vec<String>) {
    let serial = scenario().sweep(SEEDS);
    let (report, restored) = run(&scenario(), threads, path);
    assert_eq!(restored, 0, "a fresh path restores nothing");
    assert_bitwise(&report.points, &serial.points);
    let text = std::fs::read_to_string(path).expect("checkpoint exists");
    let lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
    assert_eq!(
        lines.len(),
        1 + SEEDS.end.div_ceil(SHARD_SIZE as u64) as usize
    );
    (serial.points, lines)
}

#[test]
fn every_prefix_and_every_torn_line_resumes_bitwise() {
    for threads in [1, 2] {
        let path = tmp("prefix");
        let (serial, lines) = finished_file(&path, threads);
        for keep in 1..=lines.len() {
            let prefix = lines[..keep].concat();
            // The intact prefix, then the same prefix plus half of the
            // next line: an append torn mid-line by a kill.
            let mut cuts = vec![prefix.clone()];
            if let Some(next) = lines.get(keep) {
                cuts.push(prefix.clone() + &next[..next.len() / 2]);
            }
            for cut in cuts {
                std::fs::write(&path, &cut).expect("rewrite");
                let (report, restored) = run(&scenario(), threads, &path);
                assert_bitwise(&report.points, &serial);
                assert_eq!(restored, keep as u64 - 1, "{threads} threads, {keep} lines");
                // The resumed run completed the file.
                let done = std::fs::read_to_string(&path).expect("readable");
                assert_eq!(done.lines().count(), lines.len());
                assert!(done.ends_with('\n'));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn an_empty_file_recomputes_everything() {
    // A kill between creating the file and writing its header leaves zero
    // bytes; that is the empty valid prefix, not an error.
    let path = tmp("empty");
    std::fs::write(&path, b"").expect("create empty");
    let serial = scenario().sweep(SEEDS);
    let (report, restored) = run(&scenario(), 2, &path);
    assert_eq!(restored, 0);
    assert_bitwise(&report.points, &serial.points);
    let text = std::fs::read_to_string(&path).expect("readable");
    assert!(text.starts_with("{\"format\":"), "the header is written");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// A real mid-sweep crash
// ---------------------------------------------------------------------------

/// `MultiRate` under the same name and signature (so its checkpoints are
/// interchangeable with plain `MultiRate` ones), panicking once its solve
/// budget runs out.
struct Fuse {
    budget: Arc<AtomicU64>,
}

impl Allocator for Fuse {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        let left = self.budget.fetch_sub(1, Ordering::SeqCst);
        assert!(left > 0, "injected crash: solve budget exhausted");
        MultiRate::new().solve(net, ws)
    }

    fn name(&self) -> &'static str {
        MultiRate::new().name()
    }

    fn signature(&self) -> Option<String> {
        MultiRate::new().signature()
    }
}

#[test]
fn a_panic_mid_sweep_loses_only_the_unfinished_shard() {
    let serial = scenario().sweep(SEEDS);
    // Two full shards and three jobs of the third, one solve per job.
    let budget = Arc::new(AtomicU64::new(2 * SHARD_SIZE as u64 + 3));
    let crashing = Scenario::builder()
        .label("checkpointed-sweep")
        .random_networks(14, 4, 4)
        .allocator(Fuse {
            budget: Arc::clone(&budget),
        })
        .build()
        .expect("valid scenario spec");
    for threads in [1, 2] {
        let path = tmp("crash");
        budget.store(2 * SHARD_SIZE as u64 + 3, Ordering::SeqCst);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            crashing.sweep_par_checkpointed(SEEDS, 1, &path)
        }));
        assert!(crashed.is_err(), "the fuse must blow mid-sweep");
        let text = std::fs::read_to_string(&path).expect("the file survives the panic");
        assert!(
            text.ends_with('\n'),
            "every finished shard is a terminated line"
        );
        assert_eq!(
            text.lines().count(),
            1 + 2,
            "header plus the two finished shards"
        );
        // Disarm the fuse and resume.
        budget.store(u64::MAX, Ordering::SeqCst);
        let (report, restored) = crashing
            .sweep_par_checkpointed(SEEDS, threads, &path)
            .expect("resume completes the sweep");
        assert_eq!(restored, 2);
        assert_bitwise(&report.points, &serial.points);
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------------
// Topology counters
// ---------------------------------------------------------------------------

#[test]
fn checkpointed_reports_count_the_topologies_they_built() {
    let jobs = SEEDS.end - SEEDS.start;
    let counts = |r: &SweepReport| (r.cache.hits, r.cache.misses, r.cache.evictions);
    let path = tmp("counters");
    let (cold, _) = run(&scenario(), 2, &path);
    assert_eq!(counts(&cold), (0, jobs, 0), "one build per seed");
    // Resume with the first two shards on disk: only the other seeds are
    // built, and the staleness re-solve is not counted.
    let text = std::fs::read_to_string(&path).expect("readable");
    let kept: String = text
        .split_inclusive('\n')
        .filter(|l| {
            !l.starts_with("{\"shard\":")
                || l.starts_with("{\"shard\":0,")
                || l.starts_with("{\"shard\":1,")
        })
        .collect();
    std::fs::write(&path, kept).expect("rewrite");
    let (warm, restored) = run(&scenario(), 2, &path);
    assert_eq!(restored, 2);
    assert_eq!(counts(&warm), (0, jobs - 2 * SHARD_SIZE as u64, 0));
    // Nothing left to compute: nothing built.
    let (full, restored) = run(&scenario(), 2, &path);
    assert_eq!(restored, SEEDS.end.div_ceil(SHARD_SIZE as u64));
    assert_eq!(counts(&full), (0, 0, 0));
    assert_bitwise(&full.points, &cold.points);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Files that must not resume
// ---------------------------------------------------------------------------

#[test]
fn terminated_corrupt_line_is_a_hard_error_never_merged() {
    let path = tmp("corrupt");
    let (_serial, lines) = finished_file(&path, 2);
    // Flip one byte in the middle of a *terminated* interior line: silent
    // disk corruption, not a torn append.
    let mut bytes = lines.concat().into_bytes();
    let target = lines[0].len() + lines[1].len() / 2;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite");
    match scenario().sweep_par_checkpointed(SEEDS, 2, &path) {
        Err(CheckpointError::Corrupt { line: 2, .. }) => {}
        other => panic!("expected Corrupt on line 2, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_is_bound_to_its_sweep() {
    let path = tmp("binding");
    finished_file(&path, 2);
    // The same file offered to a different sweep (two more seeds) must be
    // rejected up front, not half-merged.
    match scenario().sweep_par_checkpointed(0..SEEDS.end + 2, 2, &path) {
        Err(CheckpointError::HeaderMismatch { field: "sweep", .. }) => {}
        other => panic!("expected HeaderMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
