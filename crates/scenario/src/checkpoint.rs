//! Checkpointed sweeps: [`Scenario::sweep_par_checkpointed`] is
//! [`Scenario::sweep_par`] plus an append-only file.
//!
//! The seed list is cut into fixed shards of [`SHARD_SIZE`] seeds. The
//! open shards run through [`crate::executor::run_jobs_par`] with the same
//! per-seed job and worker workspace as [`Scenario::sweep_par`], and each
//! shard appends one sealed, fsynced line to the file before it returns
//! its points. The file is therefore always a valid checkpoint of every shard
//! finished so far. A re-run with the same path loads the file, computes
//! only the missing shards, and merges all shards in shard order. The report is **bitwise
//! identical** to [`Scenario::sweep`] however often the process died on the
//! way, because every sweep point is a pure function of its seed.
//!
//! # Format
//!
//! Hand-rolled JSON, one object per line (no external serializer is
//! available offline, and the format is small enough that a hand parser is
//! the more auditable choice — the same call `mlf_bench::regression` makes
//! for its artifact records):
//!
//! ```text
//! {"format":"mlf-sweep-checkpoint-v1","sweep":"0x…","shards":N,"shard_size":K,"check":"0x…"}
//! {"shard":0,"start":0,"len":2,"hash":"0x…","points":["<hex>","<hex>"],"check":"0x…"}
//! ```
//!
//! * The **header** binds the file to one sweep: `sweep` is the
//!   sweep-identity digest (label, allocator signature, audit switch,
//!   source parameters, and the full job list), `shards` and `shard_size`
//!   pin the shard geometry. A checkpoint can never resume a *different*
//!   sweep — mismatches are [`CheckpointError::HeaderMismatch`].
//! * Each **shard line** stores the shard's points in the canonical
//!   66-byte encoding ([`encode_point`]), hex-armored, plus the FNV-1a
//!   content hash ([`shard_content_hash`]) of the shard.
//! * Every line ends with `"check"`: the FNV-1a digest of the line's bytes
//!   up to (and excluding) the `,"check"` suffix. A flipped bit anywhere
//!   in a line is detected on load.
//!
//! # Torn tails
//!
//! A crash can only damage the **tail** of an append-only file: the writer
//! syncs line by line, so every earlier line is complete. On load, an
//! *unterminated* final line (no trailing newline) is discarded and the
//! surviving byte length reported, so the resumed writer can truncate and
//! continue; a zero-byte file (a kill between creating the file and
//! writing its header) is the empty valid prefix. A line that is
//! terminated but fails its checksum or its content hash is damage the
//! append-only model cannot explain, and is always a hard
//! [`CheckpointError::Corrupt`] — a bad shard is never merged.
//!
//! # Staleness
//!
//! The header pins the sweep's *inputs*, not the bits the running build
//! produces from them: a file written by a build whose solver rounds
//! differently, or for a different fixed network with the same session
//! count, would pass every check above. So a resume solves the first job
//! of the lowest-index restored shard again (on a fresh workspace) and
//! compares it bitwise with the restored point; a mismatch is
//! [`CheckpointError::Stale`]. Agreement between the threads of one build
//! is pinned separately by the serial ≡ parallel differentials.

use crate::executor;
use crate::hash::{fnv1a, Fnv1a};
use crate::{LinkRates, NetworkSource, Scenario, ScenarioMetrics, SweepPoint, SweepReport};
use mlf_core::allocator::SolverWorkspace;
use mlf_core::LinkRateModel;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Jobs per checkpoint shard. Part of the header, so changing it makes
/// every existing checkpoint refuse to resume.
pub const SHARD_SIZE: usize = 8;

/// The format tag every checkpoint header carries.
pub const FORMAT: &str = "mlf-sweep-checkpoint-v1";

/// Bytes of one encoded sweep point (see [`encode_point`]).
pub const POINT_BYTES: usize = 66;

/// Why a checkpoint could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An OS-level file operation failed.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The operation that failed (`"open"`, `"read"`, `"write"`, …).
        op: &'static str,
        /// The OS error, stringified.
        message: String,
    },
    /// The header belongs to a different sweep or geometry.
    HeaderMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value the resuming sweep expected.
        expected: String,
        /// The value stored in the file.
        got: String,
    },
    /// A terminated line failed to parse, failed its checksum, or failed
    /// its content hash. Never merged, never recovered.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A shard line names a shard index outside the header's geometry.
    ShardOutOfRange {
        /// The stored shard index.
        shard: u64,
        /// The header's shard count.
        shards: u64,
    },
    /// A restored point differs bitwise from what this build computes for
    /// the same job: the file was written by a build (or for a fixed
    /// network) whose bits differ. Never merged.
    Stale {
        /// The restored shard whose first point was re-solved.
        shard: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(
                    f,
                    "checkpoint {op} failed for {}: {message}",
                    path.display()
                )
            }
            CheckpointError::HeaderMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "checkpoint belongs to a different sweep: {field} is {got}, expected {expected}"
            ),
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "checkpoint line {line} is corrupt: {reason}")
            }
            CheckpointError::ShardOutOfRange { shard, shards } => {
                write!(f, "checkpoint shard {shard} out of range ({shards} shards)")
            }
            CheckpointError::Stale { shard } => write!(
                f,
                "checkpoint is stale: shard {shard} differs from what this build computes; \
                 delete the file to recompute"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The sweep identity a checkpoint is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The sweep-identity digest.
    pub sweep: u64,
    /// Total shard count of the sweep.
    pub shards: u64,
    /// Configured jobs per shard.
    pub shard_size: u64,
}

/// One accepted shard as stored on (or loaded from) disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Shard index within the sweep.
    pub shard: u64,
    /// Index of the shard's first job in the canonical job list.
    pub start: u64,
    /// The shard's points, in job order.
    pub points: Vec<SweepPoint>,
    /// The shard's FNV-1a content hash ([`shard_content_hash`]).
    pub hash: u64,
}

/// The result of [`load_checkpoint`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Every intact shard record, in file order.
    pub shards: Vec<ShardRecord>,
    /// Byte length of the intact prefix (what a resumed writer keeps).
    pub valid_len: u64,
    /// Whether an unterminated tail was discarded.
    pub dropped_tail: bool,
    /// Whether the intact prefix includes the header line.
    pub has_header: bool,
}

// ---------------------------------------------------------------------------
// Canonical point encoding
// ---------------------------------------------------------------------------

/// The wire code of an optional uniform link-rate model: a tag byte plus
/// the model's parameter bits.
fn model_code(model: Option<LinkRateModel>) -> (u8, u64) {
    match model {
        None => (0, 0),
        Some(LinkRateModel::Efficient) => (1, 0),
        Some(LinkRateModel::Scaled(v)) => (2, v.to_bits()),
        Some(LinkRateModel::Sum) => (3, 0),
        Some(LinkRateModel::RandomJoin { sigma }) => (4, sigma.to_bits()),
    }
}

fn model_from_code(tag: u8, bits: u64) -> Result<Option<LinkRateModel>, String> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(LinkRateModel::Efficient)),
        2 => Ok(Some(LinkRateModel::Scaled(f64::from_bits(bits)))),
        3 => Ok(Some(LinkRateModel::Sum)),
        4 => Ok(Some(LinkRateModel::RandomJoin {
            sigma: f64::from_bits(bits),
        })),
        t => Err(format!("unknown model tag {t}")),
    }
}

/// Encode one sweep point into its canonical 66-byte little-endian form.
///
/// The encoding is **total and injective on bit patterns**: every `f64` is
/// stored by `to_bits`, so NaNs and signed zeros round-trip exactly and
/// two points are bitwise equal iff their encodings are equal — which is
/// why the shard hashes, the staleness check, and the checkpoint file all
/// speak this encoding rather than `PartialEq`.
pub fn encode_point(p: &SweepPoint) -> [u8; POINT_BYTES] {
    let mut out = [0u8; POINT_BYTES];
    out[0..8].copy_from_slice(&p.seed.to_le_bytes());
    let (tag, bits) = model_code(p.model);
    out[8] = tag;
    out[9..17].copy_from_slice(&bits.to_le_bytes());
    out[17..25].copy_from_slice(&p.metrics.jain_index.to_bits().to_le_bytes());
    out[25..33].copy_from_slice(&p.metrics.min_rate.to_bits().to_le_bytes());
    out[33..41].copy_from_slice(&p.metrics.total_rate.to_bits().to_le_bytes());
    out[41..49].copy_from_slice(&p.metrics.satisfaction.to_bits().to_le_bytes());
    out[49..57].copy_from_slice(&(p.metrics.iterations as u64).to_le_bytes());
    let (ptag, pval) = match p.properties_holding {
        None => (0u8, 0u64),
        Some(n) => (1, n as u64),
    };
    out[57] = ptag;
    out[58..66].copy_from_slice(&pval.to_le_bytes());
    out
}

/// Decode a canonical 66-byte point encoding (inverse of [`encode_point`]).
pub fn decode_point(bytes: &[u8]) -> Result<SweepPoint, String> {
    if bytes.len() != POINT_BYTES {
        return Err(format!(
            "encoded point is {} bytes, expected {POINT_BYTES}",
            bytes.len()
        ));
    }
    let u64_at = |off: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let model = model_from_code(bytes[8], u64_at(9))?;
    let properties_holding = match bytes[57] {
        0 => None,
        1 => Some(u64_at(58) as usize),
        t => Err(format!("unknown properties tag {t}"))?,
    };
    Ok(SweepPoint {
        seed: u64_at(0),
        model,
        metrics: ScenarioMetrics {
            jain_index: f64::from_bits(u64_at(17)),
            min_rate: f64::from_bits(u64_at(25)),
            total_rate: f64::from_bits(u64_at(33)),
            satisfaction: f64::from_bits(u64_at(41)),
            iterations: u64_at(49) as usize,
        },
        properties_holding,
    })
}

/// The deterministic content hash of one shard: FNV-1a over the shard
/// index, its job offset, its length, and every point's canonical
/// encoding. The checkpoint stores it per line and verifies it on load.
pub fn shard_content_hash(shard: u64, start: u64, points: &[SweepPoint]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(shard);
    h.write_u64(start);
    h.write_u64(points.len() as u64);
    for p in points {
        h.write(&encode_point(p));
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Hex armor
// ---------------------------------------------------------------------------

fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err("odd-length hex string".to_string());
    }
    let digit = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    };
    let raw = s.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Ok(out)
}

fn hex_u64(v: u64) -> String {
    format!("0x{v:016x}")
}

fn parse_hex_u64(s: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hash, got {s:?}"))?;
    if digits.len() != 16 {
        return Err(format!("expected 16 hex digits, got {}", digits.len()));
    }
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hash {s:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Line building and parsing
// ---------------------------------------------------------------------------

/// Append the `,"check":"0x…"}` suffix: the line checksum over everything
/// before it.
fn seal_line(mut body: String) -> String {
    let check = fnv1a(body.as_bytes());
    body.push_str(",\"check\":\"");
    body.push_str(&hex_u64(check));
    body.push_str("\"}");
    body
}

/// Split a sealed line back into its body and verify the checksum.
fn unseal_line(line: &str) -> Result<&str, String> {
    let at = line
        .rfind(",\"check\":\"")
        .ok_or_else(|| "missing check field".to_string())?;
    let body = &line[..at];
    let tail = &line[at + ",\"check\":\"".len()..];
    let stored = tail
        .strip_suffix("\"}")
        .ok_or_else(|| "malformed check suffix".to_string())?;
    let stored = parse_hex_u64(stored)?;
    let actual = fnv1a(body.as_bytes());
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {}, computed {}",
            hex_u64(stored),
            hex_u64(actual)
        ));
    }
    Ok(body)
}

fn header_line(meta: &CheckpointMeta) -> String {
    seal_line(format!(
        "{{\"format\":\"{FORMAT}\",\"sweep\":\"{}\",\"shards\":{},\"shard_size\":{}",
        hex_u64(meta.sweep),
        meta.shards,
        meta.shard_size
    ))
}

fn shard_line(rec: &ShardRecord) -> String {
    let mut body = format!(
        "{{\"shard\":{},\"start\":{},\"len\":{},\"hash\":\"{}\",\"points\":[",
        rec.shard,
        rec.start,
        rec.points.len(),
        hex_u64(rec.hash)
    );
    for (i, p) in rec.points.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&to_hex(&encode_point(p)));
        body.push('"');
    }
    body.push(']');
    seal_line(body)
}

/// A tiny forward-only scanner over one line body. The writer controls the
/// format exactly, so parsing is strict: expected literals must match byte
/// for byte.
struct Scan<'a> {
    s: &'a str,
}

impl<'a> Scan<'a> {
    fn lit(&mut self, lit: &str) -> Result<(), String> {
        match self.s.strip_prefix(lit) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => Err(format!(
                "expected {lit:?} at {:?}",
                &self.s[..self.s.len().min(24)]
            )),
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self
            .s
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.s.len());
        if end == 0 {
            return Err(format!(
                "expected digits at {:?}",
                &self.s[..self.s.len().min(24)]
            ));
        }
        let v = self.s[..end]
            .parse::<u64>()
            .map_err(|e| format!("bad integer: {e}"))?;
        self.s = &self.s[end..];
        Ok(v)
    }

    /// A double-quoted string with no escapes (the format never needs any).
    fn quoted(&mut self) -> Result<&'a str, String> {
        self.lit("\"")?;
        let end = self
            .s
            .find('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        let v = &self.s[..end];
        self.s = &self.s[end + 1..];
        Ok(v)
    }
}

fn parse_header(body: &str) -> Result<CheckpointMeta, String> {
    let mut sc = Scan { s: body };
    sc.lit("{\"format\":")?;
    let format = sc.quoted()?;
    if format != FORMAT {
        return Err(format!("unknown format {format:?}"));
    }
    sc.lit(",\"sweep\":")?;
    let sweep = parse_hex_u64(sc.quoted()?)?;
    sc.lit(",\"shards\":")?;
    let shards = sc.u64()?;
    sc.lit(",\"shard_size\":")?;
    let shard_size = sc.u64()?;
    if !sc.s.is_empty() {
        return Err(format!("trailing bytes after header: {:?}", sc.s));
    }
    Ok(CheckpointMeta {
        sweep,
        shards,
        shard_size,
    })
}

fn parse_shard(body: &str) -> Result<ShardRecord, String> {
    let mut sc = Scan { s: body };
    sc.lit("{\"shard\":")?;
    let shard = sc.u64()?;
    sc.lit(",\"start\":")?;
    let start = sc.u64()?;
    sc.lit(",\"len\":")?;
    let len = sc.u64()?;
    sc.lit(",\"hash\":")?;
    let hash = parse_hex_u64(sc.quoted()?)?;
    sc.lit(",\"points\":[")?;
    let mut points = Vec::new();
    if sc.lit("]").is_err() {
        loop {
            let raw = from_hex(sc.quoted()?)?;
            points.push(decode_point(&raw)?);
            if sc.lit(",").is_err() {
                sc.lit("]")?;
                break;
            }
        }
    }
    if !sc.s.is_empty() {
        return Err(format!("trailing bytes after shard: {:?}", sc.s));
    }
    if points.len() as u64 != len {
        return Err(format!(
            "length field says {len} points, line holds {}",
            points.len()
        ));
    }
    let actual = shard_content_hash(shard, start, &points);
    if actual != hash {
        return Err(format!(
            "content hash mismatch: stored {}, computed {}",
            hex_u64(hash),
            hex_u64(actual)
        ));
    }
    Ok(ShardRecord {
        shard,
        start,
        points,
        hash,
    })
}

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        op,
        message: e.to_string(),
    }
}

/// The append-only writer side of a checkpoint file. Every finished shard
/// becomes one synced line, so the on-disk prefix is always a valid
/// checkpoint of everything finished so far.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Create (or truncate) a checkpoint and write its header line.
    pub fn create(path: &Path, meta: &CheckpointMeta) -> Result<Self, CheckpointError> {
        let file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        let mut w = CheckpointWriter {
            file,
            path: path.to_path_buf(),
        };
        w.write_line(&header_line(meta))?;
        Ok(w)
    }

    /// Reopen an existing checkpoint after [`load_checkpoint`]: the file is
    /// truncated to the loaded `valid_len` (discarding any recovered torn
    /// tail) and appending resumes there. Writes a fresh header if the
    /// intact prefix lost it.
    pub fn resume(
        path: &Path,
        meta: &CheckpointMeta,
        loaded: &LoadedCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        file.set_len(loaded.valid_len)
            .map_err(|e| io_err(path, "truncate", e))?;
        let mut w = CheckpointWriter {
            file,
            path: path.to_path_buf(),
        };
        w.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&w.path, "seek", e))?;
        if !loaded.has_header {
            w.write_line(&header_line(meta))?;
        }
        Ok(w)
    }

    /// Append one finished shard, flush it, and **fsync** it — the shard
    /// is durably on disk before its points return to the executor, so a
    /// process killed between a shard and the merge (even by power loss,
    /// not just SIGKILL) never loses a finished shard line.
    pub fn append_shard(&mut self, rec: &ShardRecord) -> Result<(), CheckpointError> {
        self.write_line(&shard_line(rec))
    }

    fn write_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.file
            .write_all(&bytes)
            .map_err(|e| io_err(&self.path, "write", e))?;
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "sync", e))
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        // Belt and braces: every line is already flushed and synced as it
        // is written, but a final best-effort sync on any exit path costs
        // nothing and covers future buffered-writer refactors.
        let _ = self.file.flush();
        let _ = self.file.sync_data();
    }
}

/// Load a checkpoint, verifying every line checksum, every shard content
/// hash, and the header against `expected`. An unterminated final line is
/// dropped ([`LoadedCheckpoint::dropped_tail`]) and an empty file loads as
/// the empty prefix; see the module docs.
pub fn load_checkpoint(
    path: &Path,
    expected: &CheckpointMeta,
) -> Result<LoadedCheckpoint, CheckpointError> {
    let mut src = String::new();
    File::open(path)
        .map_err(|e| io_err(path, "open", e))?
        .read_to_string(&mut src)
        .map_err(|e| io_err(path, "read", e))?;
    let mut loaded = LoadedCheckpoint {
        shards: Vec::new(),
        valid_len: 0,
        dropped_tail: false,
        has_header: false,
    };
    let mut rest = src.as_str();
    let mut line_no = 0usize;
    while !rest.is_empty() {
        line_no += 1;
        let Some(nl) = rest.find('\n') else {
            // Unterminated tail: the one anomaly an append-only crash can
            // produce. Drop it; the resumed writer truncates it away.
            loaded.dropped_tail = true;
            break;
        };
        let line = &rest[..nl];
        rest = &rest[nl + 1..];
        let corrupt = |reason: String| CheckpointError::Corrupt {
            line: line_no,
            reason,
        };
        let body = unseal_line(line).map_err(corrupt)?;
        if line_no == 1 {
            let meta = parse_header(body).map_err(corrupt)?;
            check_header(&meta, expected)?;
            loaded.has_header = true;
        } else {
            let rec = parse_shard(body).map_err(corrupt)?;
            if rec.shard >= expected.shards {
                return Err(CheckpointError::ShardOutOfRange {
                    shard: rec.shard,
                    shards: expected.shards,
                });
            }
            loaded.shards.push(rec);
        }
        loaded.valid_len += line.len() as u64 + 1;
    }
    Ok(loaded)
}

fn check_header(got: &CheckpointMeta, expected: &CheckpointMeta) -> Result<(), CheckpointError> {
    let mismatch = |field, e: String, g: String| {
        Err(CheckpointError::HeaderMismatch {
            field,
            expected: e,
            got: g,
        })
    };
    if got.sweep != expected.sweep {
        return mismatch("sweep", hex_u64(expected.sweep), hex_u64(got.sweep));
    }
    if got.shards != expected.shards {
        return mismatch(
            "shards",
            expected.shards.to_string(),
            got.shards.to_string(),
        );
    }
    if got.shard_size != expected.shard_size {
        return mismatch(
            "shard_size",
            expected.shard_size.to_string(),
            got.shard_size.to_string(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The checkpointed sweep
// ---------------------------------------------------------------------------

/// The identity of one sweep: everything that determines the merged
/// bytes — scenario spec, allocator identity, audit switch, and the exact
/// seed list. Binds checkpoints to their sweep so a file can never resume a
/// different experiment. Each seed is hashed as a `(None, seed)` job, the
/// encoding existing checkpoint files were written with, so they keep
/// resuming.
fn sweep_identity(scenario: &Scenario, seeds: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(scenario.label.as_bytes());
    h.write(scenario.allocator.name().as_bytes());
    let sig = scenario
        .allocator
        .signature()
        .unwrap_or_else(|| "<opaque>".to_string());
    h.write(sig.as_bytes());
    h.write_u64(u64::from(scenario.check_properties));
    match &scenario.source {
        NetworkSource::Fixed(net) => {
            h.write(b"fixed");
            h.write_u64(net.session_count() as u64);
        }
        NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } => {
            h.write(b"random");
            h.write(family.label().as_bytes());
            h.write_u64(*nodes as u64);
            h.write_u64(*sessions as u64);
            h.write_u64(*max_receivers as u64);
        }
    }
    match &scenario.link_rates {
        LinkRates::Efficient => h.write(b"eff"),
        LinkRates::Uniform(m) => {
            h.write(b"uniform");
            let (tag, bits) = model_code(Some(*m));
            h.write(&[tag]);
            h.write_u64(bits);
        }
        LinkRates::Explicit(cfg) => {
            h.write(b"explicit");
            for i in 0..cfg.len() {
                let (tag, bits) = model_code(Some(*cfg.model(i)));
                h.write(&[tag]);
                h.write_u64(bits);
            }
        }
    }
    h.write_u64(seeds.len() as u64);
    let (tag, bits) = model_code(None);
    for &seed in seeds {
        h.write(&[tag]);
        h.write_u64(bits);
        h.write_u64(seed);
    }
    h.finish()
}

impl Scenario {
    /// [`Scenario::sweep_par`] with an append-only checkpoint at `path`.
    ///
    /// When `path` exists, its intact shards are restored instead of
    /// recomputed (after the staleness check); otherwise it is created.
    /// Every shard computed by this call is durably appended before the
    /// merge. Returns the report — bitwise identical to
    /// [`Scenario::sweep`] over the same seeds — and the number of shards
    /// restored from the file. The report's [`CacheStats`](crate::CacheStats)
    /// count only the seeds this call computed. See the
    /// [module docs](crate::checkpoint).
    pub fn sweep_par_checkpointed<I: IntoIterator<Item = u64>>(
        &self,
        seeds: I,
        threads: usize,
        path: &Path,
    ) -> Result<(SweepReport, u64), CheckpointError> {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        let shards: Vec<&[u64]> = seeds.chunks(SHARD_SIZE).collect();
        let meta = CheckpointMeta {
            sweep: sweep_identity(self, &seeds),
            shards: shards.len() as u64,
            shard_size: SHARD_SIZE as u64,
        };
        let mut done: Vec<Option<Vec<SweepPoint>>> = vec![None; shards.len()];
        let writer = if path.exists() {
            let mut loaded = load_checkpoint(path, &meta)?;
            for rec in std::mem::take(&mut loaded.shards) {
                let i = rec.shard as usize;
                let start = (i * SHARD_SIZE) as u64;
                if rec.start != start || rec.points.len() != shards[i].len() {
                    return Err(CheckpointError::Corrupt {
                        line: 0,
                        reason: format!(
                            "shard {i} geometry disagrees with the sweep \
                             (start {} len {}, expected start {start} len {})",
                            rec.start,
                            rec.points.len(),
                            shards[i].len()
                        ),
                    });
                }
                done[i] = Some(rec.points);
            }
            self.check_not_stale(&shards, &done)?;
            CheckpointWriter::resume(path, &meta, &loaded)?
        } else {
            CheckpointWriter::create(path, &meta)?
        };
        let restored = done.iter().flatten().count() as u64;
        let open: Vec<usize> = (0..shards.len()).filter(|&i| done[i].is_none()).collect();
        let cache = self.topology_counts(open.iter().map(|&i| shards[i].len()).sum(), 1);
        let writer = Mutex::new(writer);
        let computed = executor::run_jobs_par(&open, threads, SolverWorkspace::new, |ws, &i| {
            let points: Vec<SweepPoint> = shards[i]
                .iter()
                .flat_map(|&seed| self.seed_points(seed, &[None], ws))
                .collect();
            let start = (i * SHARD_SIZE) as u64;
            let rec = ShardRecord {
                shard: i as u64,
                start,
                hash: shard_content_hash(i as u64, start, &points),
                points,
            };
            writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append_shard(&rec)?;
            Ok(rec.points)
        });
        for (i, points) in open.into_iter().zip(computed) {
            done[i] = Some(points?);
        }
        let report = SweepReport {
            label: self.label.clone(),
            points: done.into_iter().flatten().flatten().collect(),
            cache,
        };
        Ok((report, restored))
    }

    /// The resume-time staleness check (see the module docs): re-solve the
    /// first seed of the lowest-index restored shard on a fresh workspace,
    /// and require the restored point's exact bits.
    fn check_not_stale(
        &self,
        shards: &[&[u64]],
        done: &[Option<Vec<SweepPoint>>],
    ) -> Result<(), CheckpointError> {
        let Some((i, restored)) = done
            .iter()
            .enumerate()
            .find_map(|(i, d)| Some((i, d.as_ref()?)))
        else {
            return Ok(());
        };
        let fresh = self.seed_points(shards[i][0], &[None], &mut SolverWorkspace::new());
        if encode_point(&fresh[0]) != encode_point(&restored[0]) {
            return Err(CheckpointError::Stale { shard: i as u64 });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seed: u64, model: Option<LinkRateModel>) -> SweepPoint {
        SweepPoint {
            seed,
            model,
            metrics: ScenarioMetrics {
                jain_index: 0.5 + seed as f64,
                min_rate: -0.0,
                total_rate: f64::NAN,
                satisfaction: f64::INFINITY,
                iterations: 7,
            },
            properties_holding: (seed % 2 == 0).then_some(4),
        }
    }

    #[test]
    fn point_encoding_round_trips_exotic_bit_patterns() {
        for (seed, model) in [
            (0, None),
            (1, Some(LinkRateModel::Efficient)),
            (2, Some(LinkRateModel::Scaled(f64::NAN))),
            (3, Some(LinkRateModel::Sum)),
            (4, Some(LinkRateModel::RandomJoin { sigma: -0.0 })),
        ] {
            let p = point(seed, model);
            let enc = encode_point(&p);
            let back = decode_point(&enc).unwrap();
            // Bitwise comparison via re-encoding: NaN != NaN under
            // PartialEq, but the encodings must agree exactly.
            assert_eq!(enc, encode_point(&back));
        }
        assert!(decode_point(&[0u8; 65]).is_err());
        let mut bad = encode_point(&point(0, None));
        bad[8] = 9; // unknown model tag
        assert!(decode_point(&bad).is_err());
    }

    #[test]
    fn file_round_trip_and_header_binding() {
        let dir = std::env::temp_dir().join("mlf-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.ckpt");
        let meta = CheckpointMeta {
            sweep: 0xabcd,
            shards: 3,
            shard_size: 2,
        };
        let recs: Vec<ShardRecord> = (0..2u64)
            .map(|i| {
                let pts = vec![point(i * 2, None), point(i * 2 + 1, None)];
                ShardRecord {
                    shard: i,
                    start: i * 2,
                    hash: shard_content_hash(i, i * 2, &pts),
                    points: pts,
                }
            })
            .collect();
        let mut w = CheckpointWriter::create(&path, &meta).unwrap();
        for r in &recs {
            w.append_shard(r).unwrap();
        }
        let loaded = load_checkpoint(&path, &meta).unwrap();
        assert_eq!(loaded.shards.len(), 2);
        assert!(!loaded.dropped_tail);
        for (a, b) in loaded.shards.iter().zip(&recs) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.hash, b.hash);
            let enc_a: Vec<_> = a.points.iter().map(encode_point).collect();
            let enc_b: Vec<_> = b.points.iter().map(encode_point).collect();
            assert_eq!(enc_a, enc_b);
        }
        // A different sweep identity refuses to resume.
        let other = CheckpointMeta {
            sweep: 0xbeef,
            ..meta
        };
        assert!(matches!(
            load_checkpoint(&path, &other),
            Err(CheckpointError::HeaderMismatch { field: "sweep", .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_corrupt_tails_are_told_apart() {
        let dir = std::env::temp_dir().join("mlf-ckpt-tails");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tails.ckpt");
        let meta = CheckpointMeta {
            sweep: 7,
            shards: 2,
            shard_size: 1,
        };
        let pts = vec![point(0, None)];
        let rec = ShardRecord {
            shard: 0,
            start: 0,
            hash: shard_content_hash(0, 0, &pts),
            points: pts,
        };
        let mut w = CheckpointWriter::create(&path, &meta).unwrap();
        w.append_shard(&rec).unwrap();
        let intact = std::fs::read(&path).unwrap();

        // Torn tail: drop the trailing newline and a few bytes. The header
        // survives; the torn shard line is dropped.
        std::fs::write(&path, &intact[..intact.len() - 5]).unwrap();
        let torn = load_checkpoint(&path, &meta).unwrap();
        assert!(torn.dropped_tail);
        assert_eq!(torn.shards.len(), 0);
        assert!(torn.has_header);

        // Terminated but bit-flipped line: a hard error, never merged.
        let mut flipped = intact.clone();
        let mid = flipped.len() - 20;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            load_checkpoint(&path, &meta),
            Err(CheckpointError::Corrupt { line: 2, .. })
        ));

        // A zero-byte file is the empty valid prefix, not an error.
        std::fs::write(&path, b"").unwrap();
        let empty = load_checkpoint(&path, &meta).unwrap();
        assert!(!empty.has_header && !empty.dropped_tail);
        assert_eq!(empty.valid_len, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_validly_sealed_but_doctored_point_is_refused_as_stale() {
        use mlf_core::allocator::MultiRate;
        let path =
            std::env::temp_dir().join(format!("mlf-ckpt-stale-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scenario = Scenario::builder()
            .label("stale")
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let seeds = 0..(2 * SHARD_SIZE as u64);
        let (full, restored) = scenario
            .sweep_par_checkpointed(seeds.clone(), 1, &path)
            .unwrap();
        assert_eq!(restored, 0);
        // Rewrite shard 0 with one doctored point, sealed and hashed
        // exactly as a build that computes other bits would write it.
        let mut points = full.points[..SHARD_SIZE].to_vec();
        points[0].metrics.jain_index = f64::from_bits(points[0].metrics.jain_index.to_bits() ^ 1);
        let rec = ShardRecord {
            shard: 0,
            start: 0,
            hash: shard_content_hash(0, 0, &points),
            points,
        };
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("{\"shard\":0,") {
                    shard_line(&rec)
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        // Every line still verifies on load...
        let meta = CheckpointMeta {
            sweep: sweep_identity(&scenario, &seeds.clone().collect::<Vec<_>>()),
            shards: 2,
            shard_size: SHARD_SIZE as u64,
        };
        assert_eq!(load_checkpoint(&path, &meta).unwrap().shards.len(), 2);
        // ...but the resume refuses to merge the doctored shard.
        assert_eq!(
            scenario.sweep_par_checkpointed(seeds, 1, &path),
            Err(CheckpointError::Stale { shard: 0 })
        );
        std::fs::remove_file(&path).unwrap();
    }
}
