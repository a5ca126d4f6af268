//! Out-of-core sharded dataset store (`store.v2`).
//!
//! The in-memory [`Dataset`](chef_model::Dataset) keeps the whole
//! `n × d` feature matrix in
//! one heap allocation, which caps the reachable scale at available
//! RAM. This module stores the same data as a **directory of
//! fixed-width row-major shards** plus a small manifest, and serves it
//! back through the [`DatasetStore`] trait with features left on disk:
//!
//! ```text
//! store-dir/
//!   store.v2           versioned manifest: dims, chunk size, checksums
//!   chunk-00000.bin    rows 0..chunk_rows, raw f64 LE, row-major
//!   chunk-00001.bin    rows chunk_rows..2*chunk_rows
//!   ...
//!   labels.bin         soft labels + clean flags + ground truth
//! ```
//!
//! * [`StoreWriter`] builds a store **streaming**, one row at a time,
//!   holding only the current chunk (a few MB) plus the label columns
//!   in memory — so a store larger than RAM can be written.
//! * [`MmapStore`] opens a store read-only. Feature chunks are
//!   memory-mapped (`MAP_SHARED`, via the offline `memmap` shim) so the
//!   kernel's page cache owns residency; the [`DatasetStore`] hint
//!   methods translate to `madvise` and a bounded window of
//!   recently-hinted chunks is kept resident (older chunks are released
//!   with `MADV_DONTNEED`). When `mmap` itself is unavailable the store
//!   falls back to positional reads (`pread`) that load chunks into
//!   owned buffers — a correctness fallback, not memory-bounded.
//! * Labels, clean flags and ground truth are deliberately
//!   **RAM-resident** (they are O(n), not O(n·d), and the cleaning loop
//!   mutates them every round). Label mutations are in-memory only:
//!   durability across crashes belongs to the `checkpoint.v1` subsystem,
//!   which re-applies its label patches to a freshly opened store on
//!   resume.
//!
//! Integrity: the manifest records a byte size and a byte-wise
//! FNV-1a-64 checksum per shard and for `labels.bin`, plus a
//! **per-block checksum table** (fixed block size, default 1 MiB) and a
//! `labels_fnv64` line, both folded over 64-bit words — the byte-serial
//! chain alone would floor every verification. [`MmapStore::open`]
//! rejects any manifest version but `chef-store.v2`, checks every shard
//! size and verifies `labels.bin` before serving any data. Shard bytes
//! are verified **on first touch**: each block exactly once, by the
//! access path that first reads it (`feature` / `feature_rows` /
//! `gather_rows`), tracked by a per-shard atomic bitmap. A cleaning
//! round scores every uncleaned row and retrains over all of them, so
//! one round verifies every block anyway; deferring the work makes open
//! cost O(manifest + labels) instead of O(dataset bytes) — the
//! `ooc-window` benchmark's `store.open_ms` and `store.verify_ms`
//! counters show the split. Corruption found on the access path
//! poisons the store and panics with the [`StoreError::Corrupt`]
//! rendering; [`MmapStore::verify_rows`] / [`MmapStore::verify_all`]
//! surface the error value itself.
//!
//! Verification and residency hints run on the reading thread only: the
//! access path that consumes a block is the one that checksums it, so
//! scored results are bit-identical serial or parallel.
//! See DESIGN.md §15.

use chef_model::{DatasetStore, SoftLabel, StoreIoStats};
use memmap::Mmap;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version line of the manifest (per-block checksums).
pub const STORE_VERSION_V2: &str = "chef-store.v2";
/// Manifest file name inside a store directory.
pub const MANIFEST_FILE_V2: &str = "store.v2";
/// Label sidecar file name inside a store directory.
pub const LABELS_FILE: &str = "labels.bin";
/// Default verification block size written by [`StoreWriter`]: large
/// enough that the checksum table stays tiny (16 B of hex per MiB of
/// data), small enough that first-touch verification of one scored
/// window costs milliseconds, not seconds.
pub const DEFAULT_BLOCK_BYTES: usize = 1 << 20;

/// File name of shard `idx` (`chunk-00000.bin`, `chunk-00001.bin`, …).
pub fn chunk_file_name(idx: usize) -> String {
    format!("chunk-{idx:05}.bin")
}

/// FNV-1a 64 offset basis: the `state` to start [`fnv1a64`] from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64, streaming form: fold `bytes` into `state` (start from
/// [`FNV_OFFSET`]). Corruption *detection*, not authentication; the
/// store, `checkpoint.v1` and the bench fingerprints all use this copy.
pub fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a folded over 64-bit little-endian words (trailing bytes
/// byte-wise). The byte-at-a-time form above is a strictly serial
/// xor→multiply chain (~4 cycles *per byte*), which puts a hard floor
/// under every verification on the open/first-touch path; folding a
/// word per step cuts the chain 8×. The per-block table and the
/// `labels_fnv64` line use this form; the whole-shard and `labels`
/// `fnv=` fields stay byte-wise.
fn fnv1a64_words(mut state: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        state ^= u64::from_le_bytes(w.try_into().unwrap());
        state = state.wrapping_mul(FNV_PRIME);
    }
    fnv1a64(state, words.remainder())
}

/// Durably replace `path` with `bytes`: write a `.tmp` sibling, fsync
/// it, rename it over `path`, then fsync the parent directory so the
/// rename itself survives power loss, not only a process kill. A crash
/// at any step leaves either the old file or the new one, never a torn
/// one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Errors opening or validating a store directory.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The manifest's version line is not [`STORE_VERSION_V2`].
    Version(String),
    /// The manifest is syntactically malformed.
    Format(String),
    /// A shard or sidecar failed integrity checks (torn write).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Version(v) => {
                write!(
                    f,
                    "unknown store version {v:?} (expected {STORE_VERSION_V2:?})"
                )
            }
            StoreError::Format(m) => write!(f, "malformed store manifest: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Per-shard record in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Number of rows stored in this shard.
    pub rows: usize,
    /// Exact byte size of the shard file (`rows × dim × 8`).
    pub bytes: u64,
    /// Byte-wise FNV-1a-64 checksum of the shard file's contents (checked
    /// when the `pread` fallback loads the whole shard).
    pub fnv: u64,
    /// Per-block word-folded FNV-1a-64 checksums, checked on first
    /// touch. Block `b` covers bytes `[b·block_bytes, (b+1)·block_bytes)` of
    /// the shard, with the last block possibly short.
    pub blocks: Vec<u64>,
}

/// Parsed `store.v2` manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest generation; always `2`.
    pub version: u32,
    /// Total number of samples across all shards.
    pub n: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Rows per shard (every shard but the last holds exactly this many).
    pub chunk_rows: usize,
    /// Verification block size in bytes (positive).
    pub block_bytes: usize,
    /// Byte size of `labels.bin`.
    pub labels_bytes: u64,
    /// Byte-wise FNV-1a-64 checksum of `labels.bin` (recorded, not
    /// checked: opens verify [`labels_fnv_words`](Self::labels_fnv_words)).
    pub labels_fnv: u64,
    /// Word-folded FNV-1a-64 of `labels.bin`, verified at every open.
    pub labels_fnv_words: u64,
    /// Shard records, in shard order.
    pub chunks: Vec<ChunkMeta>,
}

impl Manifest {
    /// Render the manifest in its on-disk line format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(STORE_VERSION_V2);
        out.push('\n');
        out.push_str(&format!("n={}\n", self.n));
        out.push_str(&format!("dim={}\n", self.dim));
        out.push_str(&format!("num_classes={}\n", self.num_classes));
        out.push_str(&format!("chunk_rows={}\n", self.chunk_rows));
        out.push_str(&format!("block_bytes={}\n", self.block_bytes));
        out.push_str(&format!(
            "labels bytes={} fnv={:016x}\n",
            self.labels_bytes, self.labels_fnv
        ));
        out.push_str(&format!("labels_fnv64={:016x}\n", self.labels_fnv_words));
        out.push_str(&format!("chunks={}\n", self.chunks.len()));
        for (i, c) in self.chunks.iter().enumerate() {
            out.push_str(&format!(
                "chunk={i} rows={} bytes={} fnv={:016x}\n",
                c.rows, c.bytes, c.fnv
            ));
            out.push_str(&format!("blocks={i}"));
            for b in &c.blocks {
                out.push_str(&format!(" {b:016x}"));
            }
            out.push('\n');
        }
        out
    }

    /// Number of verification blocks in shard `c` (at least 1).
    pub fn num_blocks(&self, c: usize) -> usize {
        self.chunks[c].blocks.len()
    }

    /// Parse a manifest from its on-disk text, rejecting unknown
    /// versions before looking at anything else.
    pub fn parse(text: &str) -> Result<Manifest, StoreError> {
        let mut lines = text.lines();
        let version_line = lines.next().unwrap_or("").trim();
        if version_line != STORE_VERSION_V2 {
            return Err(StoreError::Version(version_line.to_string()));
        }
        fn kv<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, StoreError> {
            let line = line.ok_or_else(|| StoreError::Format(format!("missing {key} line")))?;
            line.trim()
                .strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| StoreError::Format(format!("expected `{key}=...`, got {line:?}")))
        }
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, StoreError> {
            s.parse()
                .map_err(|_| StoreError::Format(format!("bad {what}: {s:?}")))
        }
        let n: usize = num(kv(lines.next(), "n")?, "n")?;
        let dim: usize = num(kv(lines.next(), "dim")?, "dim")?;
        let num_classes: usize = num(kv(lines.next(), "num_classes")?, "num_classes")?;
        let chunk_rows: usize = num(kv(lines.next(), "chunk_rows")?, "chunk_rows")?;
        if dim == 0 || num_classes == 0 || chunk_rows == 0 {
            return Err(StoreError::Format(
                "dim, num_classes and chunk_rows must be positive".into(),
            ));
        }
        // Every shard holds at most `chunk_rows` rows (checked below), so
        // this bound keeps each shard's `rows × dim × 8` in range.
        if chunk_rows
            .checked_mul(dim)
            .and_then(|x| x.checked_mul(8))
            .is_none()
        {
            return Err(StoreError::Format(format!(
                "chunk_rows×dim×8 overflows (chunk_rows={chunk_rows}, dim={dim})"
            )));
        }
        let block_bytes: usize = num(kv(lines.next(), "block_bytes")?, "block_bytes")?;
        if block_bytes == 0 {
            return Err(StoreError::Format("block_bytes must be positive".into()));
        }
        let labels_line = lines
            .next()
            .ok_or_else(|| StoreError::Format("missing labels line".into()))?;
        let (labels_bytes, labels_fnv) = parse_sized_entry(labels_line, "labels")?;
        let v = kv(lines.next(), "labels_fnv64")?;
        let labels_fnv_words = u64::from_str_radix(v, 16)
            .map_err(|_| StoreError::Format(format!("bad labels_fnv64 {v:?}")))?;
        let num_chunks: usize = num(kv(lines.next(), "chunks")?, "chunks")?;
        let mut chunks = Vec::new();
        for i in 0..num_chunks {
            let line = lines
                .next()
                .ok_or_else(|| StoreError::Format(format!("missing chunk {i} line")))?;
            let rest = line
                .trim()
                .strip_prefix(&format!("chunk={i} rows="))
                .ok_or_else(|| StoreError::Format(format!("bad chunk line {line:?}")))?;
            let (rows_s, tail) = rest
                .split_once(' ')
                .ok_or_else(|| StoreError::Format(format!("bad chunk line {line:?}")))?;
            let rows: usize = num(rows_s, "chunk rows")?;
            let (bytes, fnv) = parse_sized_entry(&format!("x {tail}"), "x")?;
            let line = lines
                .next()
                .ok_or_else(|| StoreError::Format(format!("missing blocks {i} line")))?;
            let rest = line
                .trim()
                .strip_prefix(&format!("blocks={i}"))
                .ok_or_else(|| StoreError::Format(format!("bad blocks line {line:?}")))?;
            let blocks: Vec<u64> = rest
                .split_whitespace()
                .map(|s| {
                    u64::from_str_radix(s, 16)
                        .map_err(|_| StoreError::Format(format!("bad block fnv {s:?}")))
                })
                .collect::<Result<_, _>>()?;
            let expect = (bytes as usize).div_ceil(block_bytes).max(1);
            if blocks.len() != expect {
                return Err(StoreError::Format(format!(
                    "chunk {i} lists {} block checksums, expected {expect}",
                    blocks.len()
                )));
            }
            chunks.push(ChunkMeta {
                rows,
                bytes,
                fnv,
                blocks,
            });
        }
        let total = chunks
            .iter()
            .try_fold(0usize, |acc, c| acc.checked_add(c.rows));
        if total != Some(n) {
            return Err(StoreError::Format(format!(
                "chunk rows do not sum to n={n}"
            )));
        }
        for (i, c) in chunks.iter().enumerate() {
            let expect_rows = if i + 1 < chunks.len() {
                chunk_rows
            } else {
                c.rows // last shard may be short
            };
            if c.rows != expect_rows || c.rows == 0 || c.rows > chunk_rows {
                return Err(StoreError::Format(format!(
                    "chunk {i} holds {} rows (chunk_rows={chunk_rows})",
                    c.rows
                )));
            }
            if c.bytes != (c.rows * dim * 8) as u64 {
                return Err(StoreError::Format(format!(
                    "chunk {i} byte size {} does not match rows×dim×8",
                    c.bytes
                )));
            }
        }
        Ok(Manifest {
            version: 2,
            n,
            dim,
            num_classes,
            chunk_rows,
            block_bytes,
            labels_bytes,
            labels_fnv,
            labels_fnv_words,
            chunks,
        })
    }

    /// Read and parse the `store.v2` manifest inside `dir`.
    pub fn read(dir: &Path) -> Result<Manifest, StoreError> {
        Manifest::parse(&fs::read_to_string(dir.join(MANIFEST_FILE_V2))?)
    }
}

/// Parse a `<name> bytes=<u64> fnv=<hex16>` manifest line.
fn parse_sized_entry(line: &str, name: &str) -> Result<(u64, u64), StoreError> {
    let parts: Vec<&str> = line.trim().split(' ').collect();
    let bad = || StoreError::Format(format!("bad {name} line {line:?}"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let bytes = parts[1]
        .strip_prefix("bytes=")
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let fnv = parts[2]
        .strip_prefix("fnv=")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(bad)?;
    Ok((bytes, fnv))
}

/// Streaming store builder: create, [`push_row`](Self::push_row) `n`
/// times, [`finish`](Self::finish). Memory use is one chunk's worth of
/// feature bytes plus the O(n) label columns, independent of how many
/// chunks the finished store holds — which is what lets a
/// larger-than-RAM store be generated row by row.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    dim: usize,
    num_classes: usize,
    chunk_rows: usize,
    block_bytes: usize,
    buf: Vec<u8>,
    rows_in_chunk: usize,
    chunks: Vec<ChunkMeta>,
    labels: Vec<SoftLabel>,
    clean: Vec<bool>,
    truth: Vec<Option<usize>>,
}

impl StoreWriter {
    /// Create (or truncate) a store directory. The writer emits a
    /// `store.v2` manifest with per-block checksums at
    /// [`DEFAULT_BLOCK_BYTES`] granularity; tune with
    /// [`with_block_bytes`](Self::with_block_bytes).
    pub fn create(
        dir: &Path,
        dim: usize,
        num_classes: usize,
        chunk_rows: usize,
    ) -> io::Result<StoreWriter> {
        assert!(dim > 0 && num_classes > 0 && chunk_rows > 0);
        fs::create_dir_all(dir)?;
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            dim,
            num_classes,
            chunk_rows,
            block_bytes: DEFAULT_BLOCK_BYTES,
            buf: Vec::with_capacity(chunk_rows * dim * 8),
            rows_in_chunk: 0,
            chunks: Vec::new(),
            labels: Vec::new(),
            clean: Vec::new(),
            truth: Vec::new(),
        })
    }

    /// Override the verification block size (bytes). Must be called
    /// before the first chunk flushes; mainly for tests that want many
    /// blocks per shard without writing gigabytes.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> StoreWriter {
        assert!(block_bytes > 0, "block_bytes must be positive");
        assert!(
            self.chunks.is_empty() && self.buf.is_empty(),
            "with_block_bytes must be called before pushing rows"
        );
        self.block_bytes = block_bytes;
        self
    }

    /// Append one sample. Rows land in shards in append order, so row
    /// `i` of the finished store is the `i`-th pushed row.
    pub fn push_row(
        &mut self,
        features: &[f64],
        label: SoftLabel,
        clean: bool,
        truth: Option<usize>,
    ) -> io::Result<()> {
        assert_eq!(features.len(), self.dim, "feature row has wrong width");
        assert_eq!(label.num_classes(), self.num_classes);
        for &x in features {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self.labels.push(label);
        self.clean.push(clean);
        self.truth.push(truth);
        self.rows_in_chunk += 1;
        if self.rows_in_chunk == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.rows_in_chunk == 0 {
            return Ok(());
        }
        let path = self.dir.join(chunk_file_name(self.chunks.len()));
        let mut f = File::create(&path)?;
        f.write_all(&self.buf)?;
        f.sync_all()?;
        self.chunks.push(ChunkMeta {
            rows: self.rows_in_chunk,
            bytes: self.buf.len() as u64,
            fnv: fnv1a64(FNV_OFFSET, &self.buf),
            blocks: self
                .buf
                .chunks(self.block_bytes)
                .map(|b| fnv1a64_words(FNV_OFFSET, b))
                .collect(),
        });
        self.buf.clear();
        self.rows_in_chunk = 0;
        Ok(())
    }

    /// Flush the final (possibly short) shard, write `labels.bin` and
    /// the manifest. The manifest is written last, through
    /// [`write_atomic`], so a crash mid-write leaves a directory that
    /// [`MmapStore::open`] refuses to serve, and a finished store's
    /// manifest survives power loss.
    pub fn finish(mut self) -> io::Result<Manifest> {
        self.flush_chunk()?;
        let labels_buf = encode_labels(&self.labels, &self.clean, &self.truth, self.num_classes);
        let labels_path = self.dir.join(LABELS_FILE);
        let mut f = File::create(&labels_path)?;
        f.write_all(&labels_buf)?;
        f.sync_all()?;
        let manifest = Manifest {
            version: 2,
            n: self.labels.len(),
            dim: self.dim,
            num_classes: self.num_classes,
            chunk_rows: self.chunk_rows,
            block_bytes: self.block_bytes,
            labels_bytes: labels_buf.len() as u64,
            labels_fnv: fnv1a64(FNV_OFFSET, &labels_buf),
            labels_fnv_words: fnv1a64_words(FNV_OFFSET, &labels_buf),
            chunks: std::mem::take(&mut self.chunks),
        };
        write_atomic(
            &self.dir.join(MANIFEST_FILE_V2),
            manifest.render().as_bytes(),
        )?;
        Ok(manifest)
    }
}

/// Copy any [`DatasetStore`] into a fresh `store.v2` directory.
pub fn write_store(data: &dyn DatasetStore, dir: &Path, chunk_rows: usize) -> io::Result<Manifest> {
    let mut w = StoreWriter::create(dir, data.dim(), data.num_classes(), chunk_rows)?;
    for i in 0..data.len() {
        w.push_row(
            data.feature(i),
            data.label(i).clone(),
            data.is_clean(i),
            data.ground_truth(i),
        )?;
    }
    w.finish()
}

// labels.bin layout: [n × C f64 LE probs][n × u8 clean][n × i64 LE truth]
// with truth = −1 encoding "no ground truth".
fn encode_labels(
    labels: &[SoftLabel],
    clean: &[bool],
    truth: &[Option<usize>],
    num_classes: usize,
) -> Vec<u8> {
    let n = labels.len();
    let mut buf = Vec::with_capacity(n * num_classes * 8 + n + n * 8);
    for l in labels {
        for &p in l.probs() {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    for &c in clean {
        buf.push(u8::from(c));
    }
    for t in truth {
        let v: i64 = t.map_or(-1, |c| c as i64);
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// The RAM-resident label state decoded from `labels.bin`: soft labels,
/// clean flags, and optional ground truth per sample.
type DecodedLabels = (Vec<SoftLabel>, Vec<bool>, Vec<Option<usize>>);

fn decode_labels(buf: &[u8], n: usize, num_classes: usize) -> Result<DecodedLabels, StoreError> {
    // n × (8C + 9) bytes: C f64 probabilities, a clean byte, an i64 truth.
    let expect = num_classes
        .checked_mul(8)
        .and_then(|x| x.checked_add(9))
        .and_then(|x| x.checked_mul(n))
        .ok_or_else(|| {
            StoreError::Format(format!(
                "labels.bin size overflows (n={n}, num_classes={num_classes})"
            ))
        })?;
    if buf.len() != expect {
        return Err(StoreError::Corrupt(format!(
            "labels.bin is {} bytes, expected {expect}",
            buf.len()
        )));
    }
    // This loop is the floor of the cold open (it runs once per
    // sample), so it takes the trusted constructor: the bytes just passed the manifest checksum and were
    // written from validated `SoftLabel`s, and re-validating a million
    // rows costs more than the entire rest of a lazy open.
    let clean_at = n * num_classes * 8;
    let mut labels = Vec::with_capacity(n);
    for row in buf[..clean_at].chunks_exact(num_classes * 8) {
        let probs = row
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        labels.push(SoftLabel::from_verified(probs));
    }
    let clean: Vec<bool> = buf[clean_at..clean_at + n]
        .iter()
        .map(|&b| b != 0)
        .collect();
    // Ground truth is used as a class index, so it is range-checked even
    // though the checksum passed.
    let truth = buf[clean_at + n..]
        .chunks_exact(8)
        .enumerate()
        .map(|(i, b)| match i64::from_le_bytes(b.try_into().unwrap()) {
            v if v < 0 => Ok(None),
            v if (v as u64) < num_classes as u64 => Ok(Some(v as usize)),
            v => Err(StoreError::Corrupt(format!(
                "labels.bin: ground truth {v} of row {i} is not a class of {num_classes}"
            ))),
        })
        .collect::<Result<_, _>>()?;
    Ok((labels, clean, truth))
}

/// How an [`MmapStore`] opens its shards.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Maximum number of chunks the residency window keeps hinted
    /// resident at once; older chunks are released with
    /// `MADV_DONTNEED` as new ones are hinted. `0` disables eviction.
    pub residency_chunks: usize,
    /// Skip `mmap` and use the `pread` fallback (loads every chunk
    /// into an owned buffer — correctness fallback, not memory-bounded).
    pub force_pread: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            residency_chunks: 32,
            force_pread: false,
        }
    }
}

#[derive(Debug)]
enum ChunkData {
    Mapped(Mmap),
    Loaded(Vec<f64>),
}

/// A `store.v2` directory opened for the cleaning pipeline: features
/// served from memory-mapped shards, label columns RAM-resident.
///
/// ```
/// use chef_data::store::{MmapStore, StoreWriter};
/// use chef_model::{DatasetStore, SoftLabel};
///
/// let dir = std::env::temp_dir().join(format!("doc-store-{}", std::process::id()));
/// let mut w = StoreWriter::create(&dir, 2, 2, 4).unwrap();
/// for i in 0..10 {
///     let x = [i as f64, -(i as f64)];
///     w.push_row(&x, SoftLabel::onehot(i % 2, 2), false, Some(i % 2)).unwrap();
/// }
/// w.finish().unwrap();
///
/// let store = MmapStore::open(&dir).unwrap();
/// assert_eq!(store.len(), 10);
/// assert_eq!(store.feature(7), &[7.0, -7.0]);
/// assert_eq!(store.contiguous_limit(5), 8); // rows 4..8 share a shard
/// assert_eq!(store.shard_boundaries(), vec![0, 4, 8, 10]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct MmapStore {
    manifest: Manifest,
    data: Vec<ChunkData>,
    // Queue of chunk indices currently hinted resident, oldest first.
    // A Mutex (not RwLock) because every operation mutates the queue;
    // contention is per-chunk-transition, not per-row.
    resident: Mutex<VecDeque<usize>>,
    // Last chunk this store noted an access to — a lock-free dedup so
    // the per-read residency tracking costs one atomic load on the
    // straight-line path (consecutive reads land in the same chunk).
    last_touched: AtomicUsize,
    residency_chunks: usize,
    // First-touch verification state.
    verify: LazyVerify,
    // Once a corrupt block is seen the whole store is poisoned: every
    // subsequent verified access fails with the same message, whichever
    // reader thread found the corruption first.
    poisoned: AtomicBool,
    poison_msg: Mutex<Option<String>>,
    stats: IoCounters,
    labels: Vec<SoftLabel>,
    clean: Vec<bool>,
    truth: Vec<Option<usize>>,
}

/// Per-shard atomic bitmaps recording which verification blocks have
/// been checksummed. Bit `b` of `bits[c]` (word `b/64`, bit `b%64`) is
/// set once block `b` of shard `c` verified clean. Relaxed ordering is
/// enough: the worst race is two threads verifying the same block once
/// each — idempotent, and counted honestly by the counters.
#[derive(Debug)]
struct LazyVerify {
    bits: Vec<Vec<AtomicU64>>,
}

/// Monotonic I/O counters behind [`DatasetStore::io_stats`].
#[derive(Debug, Default)]
struct IoCounters {
    verify_ns: AtomicU64,
    blocks_verified: AtomicU64,
    lazy_verify_hits: AtomicU64,
    advise_calls: AtomicU64,
}

impl IoCounters {
    fn snapshot(&self) -> StoreIoStats {
        StoreIoStats {
            verify_ms: self.verify_ns.load(Ordering::Relaxed) / 1_000_000,
            blocks_verified: self.blocks_verified.load(Ordering::Relaxed),
            lazy_verify_hits: self.lazy_verify_hits.load(Ordering::Relaxed),
            advise_calls: self.advise_calls.load(Ordering::Relaxed),
        }
    }
}

impl MmapStore {
    /// Open `dir` with default [`StoreOptions`].
    ///
    /// Open checks the manifest, every shard's size and `labels.bin`,
    /// but not shard contents: each block is checksummed on first
    /// touch, and a corrupt block panics the read that reaches it. A
    /// caller that must reject a damaged store before serving anything
    /// from it calls [`verify_all`](Self::verify_all) (or
    /// [`verify_rows`](Self::verify_rows) for a range) right after open.
    ///
    /// # Errors
    ///
    /// [`StoreError::Version`] for any manifest version but
    /// `chef-store.v2`, [`StoreError::Corrupt`] for torn shards (size
    /// mismatch, or a checksum mismatch in a shard the `pread` fallback
    /// loads) or a damaged `labels.bin`,
    /// [`StoreError::Format`]/[`StoreError::Io`] otherwise.
    pub fn open(dir: &Path) -> Result<MmapStore, StoreError> {
        MmapStore::open_with(dir, StoreOptions::default())
    }

    /// Open `dir` with explicit options (see [`open`](Self::open)).
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<MmapStore, StoreError> {
        let manifest = Manifest::read(dir)?;
        let mut open_verify_ns = 0u64;
        let mut open_blocks = 0u64;

        // Label sidecar: small (O(n)) and RAM-resident by design, so it
        // is verified at open — cleaning decisions never run on
        // unverified labels. It is about to be decoded into RAM anyway,
        // so read it once and hash the buffer in memory; the transient
        // buffer is the same O(n·C) the decoded labels occupy.
        let labels_path = dir.join(LABELS_FILE);
        let labels_buf = fs::read(&labels_path)?;
        let t0 = Instant::now();
        let labels_ok = labels_buf.len() as u64 == manifest.labels_bytes
            && fnv1a64_words(FNV_OFFSET, &labels_buf) == manifest.labels_fnv_words;
        open_verify_ns += t0.elapsed().as_nanos() as u64;
        if !labels_ok {
            return Err(StoreError::Corrupt(
                "labels.bin size/checksum mismatch".into(),
            ));
        }
        let (labels, clean, truth) = decode_labels(&labels_buf, manifest.n, manifest.num_classes)?;
        drop(labels_buf);

        let mut data = Vec::with_capacity(manifest.chunks.len());
        let mut verify_bits: Vec<Vec<AtomicU64>> = Vec::with_capacity(manifest.chunks.len());
        for (i, meta) in manifest.chunks.iter().enumerate() {
            let path = dir.join(chunk_file_name(i));
            let file = File::open(&path)?;
            let size = file.metadata()?.len();
            if size != meta.bytes {
                return Err(StoreError::Corrupt(format!(
                    "torn shard {}: {size} bytes on disk, manifest says {}",
                    chunk_file_name(i),
                    meta.bytes
                )));
            }
            let mapped = if opts.force_pread {
                None
            } else {
                match Mmap::map(&file) {
                    Ok(map)
                        if (map.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>()) =>
                    {
                        Some(map)
                    }
                    // mmap unavailable (or, theoretically, misaligned):
                    // fall back to loading this chunk via pread.
                    _ => None,
                }
            };
            let (chunk, verified) = match mapped {
                Some(map) => (ChunkData::Mapped(map), 0u64),
                None => {
                    // The loaded fallback materializes the whole shard
                    // now anyway, so verify it in full here against the
                    // whole-shard checksum; its bitmap is born all-set.
                    let bytes = read_file_bytes(&file, size)?;
                    let t0 = Instant::now();
                    let ok = fnv1a64(FNV_OFFSET, &bytes) == meta.fnv;
                    open_verify_ns += t0.elapsed().as_nanos() as u64;
                    open_blocks += manifest.num_blocks(i) as u64;
                    if !ok {
                        return Err(StoreError::Corrupt(format!(
                            "torn shard {}: checksum mismatch",
                            chunk_file_name(i)
                        )));
                    }
                    (ChunkData::Loaded(bytes_to_floats(&bytes)), !0u64)
                }
            };
            let words = manifest.num_blocks(i).div_ceil(64);
            verify_bits.push((0..words).map(|_| AtomicU64::new(verified)).collect());
            data.push(chunk);
        }

        let stats = IoCounters::default();
        stats.verify_ns.store(open_verify_ns, Ordering::Relaxed);
        stats.blocks_verified.store(open_blocks, Ordering::Relaxed);
        Ok(MmapStore {
            manifest,
            data,
            resident: Mutex::new(VecDeque::new()),
            last_touched: AtomicUsize::new(usize::MAX),
            residency_chunks: opts.residency_chunks,
            verify: LazyVerify { bits: verify_bits },
            poisoned: AtomicBool::new(false),
            poison_msg: Mutex::new(None),
            stats,
            labels,
            clean,
            truth,
        })
    }

    /// The parsed manifest this store was opened from.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Verify every not-yet-verified block covering rows `lo..hi`,
    /// returning the corruption instead of panicking.
    pub fn verify_rows(&self, lo: usize, hi: usize) -> Result<(), StoreError> {
        assert!(
            lo <= hi && hi <= self.manifest.n,
            "bad row range {lo}..{hi}"
        );
        if lo == hi {
            return Ok(());
        }
        let d8 = self.manifest.dim * 8;
        let rows_per = self.manifest.chunk_rows;
        for c in self.chunk_of(lo)..=self.chunk_of(hi - 1) {
            let c_lo = lo.max(c * rows_per) - c * rows_per;
            let c_hi = hi.min((c + 1) * rows_per) - c * rows_per;
            self.ensure_bytes_verified(c, c_lo * d8, c_hi * d8)?;
        }
        Ok(())
    }

    /// Verify every not-yet-verified block in the store: the fallible,
    /// reject-before-serving check.
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for (c, meta) in self.manifest.chunks.iter().enumerate() {
            self.ensure_bytes_verified(c, 0, meta.bytes as usize)?;
        }
        Ok(())
    }

    /// The `&[f64]` view of shard `c`.
    fn chunk_floats(&self, c: usize) -> &[f64] {
        match &self.data[c] {
            // SAFETY: alignment was checked at open (mmap is page-
            // aligned), the length is a multiple of 8 (size was checked
            // against rows×dim×8), and the mapping lives as long as self.
            ChunkData::Mapped(m) => unsafe {
                std::slice::from_raw_parts(m.as_ptr() as *const f64, m.len() / 8)
            },
            ChunkData::Loaded(v) => v,
        }
    }

    /// Chunk index holding row `i`.
    #[inline]
    fn chunk_of(&self, i: usize) -> usize {
        i / self.manifest.chunk_rows
    }

    /// Record a corrupt-block message and trip the poison flag. The
    /// message is stored before the flag is raised (Release) so any
    /// thread that observes the flag (Acquire) reads the message.
    fn poison(&self, msg: &str) {
        *self.poison_msg.lock().unwrap() = Some(msg.to_string());
        self.poisoned.store(true, Ordering::Release);
    }

    fn poison_check(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::Acquire) {
            let msg = self
                .poison_msg
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "store poisoned by earlier corruption".into());
            return Err(StoreError::Corrupt(msg));
        }
        Ok(())
    }

    /// First-touch verification of every block covering the byte range
    /// `[byte_lo, byte_hi)` of shard `c`. O(1) per already-verified
    /// block (one Relaxed bitmap load); checksums only what a reader is
    /// about to consume otherwise.
    fn ensure_bytes_verified(
        &self,
        c: usize,
        byte_lo: usize,
        byte_hi: usize,
    ) -> Result<(), StoreError> {
        self.poison_check()?;
        if byte_hi <= byte_lo {
            return Ok(());
        }
        let bb = self.manifest.block_bytes;
        let words = &self.verify.bits[c];
        for b in byte_lo / bb..=(byte_hi - 1) / bb {
            if words[b / 64].load(Ordering::Relaxed) & (1u64 << (b % 64)) != 0 {
                self.stats.lazy_verify_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.verify_block(c, b)?;
        }
        Ok(())
    }

    /// Checksum one block against the manifest table, set its bitmap
    /// bit on success, poison the store on mismatch.
    fn verify_block(&self, c: usize, b: usize) -> Result<(), StoreError> {
        let bb = self.manifest.block_bytes;
        let got = match &self.data[c] {
            ChunkData::Mapped(m) => {
                let t0 = Instant::now();
                let got = fnv1a64_words(FNV_OFFSET, m.byte_range(b * bb, bb));
                self.stats
                    .verify_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                got
            }
            // Loaded shards are verified in full when materialized at
            // open and their bitmaps born all-set, so this arm is only
            // reachable through a stale bitmap — which cannot happen —
            // but answering "verified" keeps it harmless if it ever did.
            ChunkData::Loaded(_) => return Ok(()),
        };
        if got != self.manifest.chunks[c].blocks[b] {
            let msg = format!(
                "torn shard {}: block {b} checksum mismatch (first-touch)",
                chunk_file_name(c)
            );
            self.poison(&msg);
            return Err(StoreError::Corrupt(msg));
        }
        self.stats.blocks_verified.fetch_add(1, Ordering::Relaxed);
        self.verify.bits[c][b / 64].fetch_or(1u64 << (b % 64), Ordering::Relaxed);
        Ok(())
    }

    /// Hint the given chunks resident and evict the oldest hinted
    /// chunks beyond the residency budget.
    fn touch_chunks(&self, chunks: impl Iterator<Item = usize>) {
        let mut q = self.resident.lock().unwrap();
        for c in chunks {
            if let ChunkData::Mapped(m) = &self.data[c] {
                m.advise_willneed(0, m.len());
                self.stats.advise_calls.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(pos) = q.iter().position(|&x| x == c) {
                q.remove(pos); // re-touch: move to the back of the window
            }
            q.push_back(c);
            if self.residency_chunks > 0 {
                while q.len() > self.residency_chunks {
                    let old = q.pop_front().unwrap();
                    if let ChunkData::Mapped(m) = &self.data[old] {
                        m.advise_dontneed(0, m.len());
                        self.stats.advise_calls.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Release the given chunks (and forget them from the window).
    fn release_chunks(&self, chunks: impl Iterator<Item = usize>) {
        let mut q = self.resident.lock().unwrap();
        for c in chunks {
            if let ChunkData::Mapped(m) = &self.data[c] {
                m.advise_dontneed(0, m.len());
                self.stats.advise_calls.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(pos) = q.iter().position(|&x| x == c) {
                q.remove(pos);
            }
        }
    }

    /// Note a read landing in chunk `c`, keeping the residency window
    /// honest even for consumers that never call the hint methods —
    /// e.g. the conjugate-gradient solver's full-dataset HVP scans,
    /// which stream every row once per iteration. Without this, one CG
    /// pass would fault the whole file resident and an out-of-core run
    /// would peak at the in-memory footprint. Reads are never blocked:
    /// an evicted chunk simply refaults from the page cache.
    #[inline]
    fn note_chunk_access(&self, c: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.residency_chunks == 0 || self.last_touched.load(Relaxed) == c {
            return;
        }
        self.last_touched.store(c, Relaxed);
        self.touch_chunks(std::iter::once(c));
    }

    /// Panic with the [`StoreError`] rendering if the bytes of rows
    /// `r..r + rows` of shard `c` fail first-touch verification:
    /// `&[f64]` cannot carry a Result (the fallible twin is
    /// [`MmapStore::verify_rows`]).
    fn verify_or_panic(&self, c: usize, r: usize, rows: usize) {
        let d8 = self.manifest.dim * 8;
        if let Err(e) = self.ensure_bytes_verified(c, r * d8, (r + rows) * d8) {
            panic!("{e}");
        }
    }

    /// Number of chunks the residency window currently holds hinted
    /// resident (at most `residency_chunks` when that is non-zero).
    pub fn resident_chunks(&self) -> usize {
        self.resident.lock().unwrap().len()
    }
}

impl DatasetStore for MmapStore {
    fn len(&self) -> usize {
        self.manifest.n
    }

    fn dim(&self) -> usize {
        self.manifest.dim
    }

    fn num_classes(&self) -> usize {
        self.manifest.num_classes
    }

    fn feature(&self, i: usize) -> &[f64] {
        assert!(i < self.manifest.n, "row {i} out of bounds");
        let c = self.chunk_of(i);
        let r = i - c * self.manifest.chunk_rows;
        let d = self.manifest.dim;
        self.verify_or_panic(c, r, 1);
        self.note_chunk_access(c);
        &self.chunk_floats(c)[r * d..(r + 1) * d]
    }

    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64] {
        assert!(
            lo <= hi && hi <= self.manifest.n,
            "bad row range {lo}..{hi}"
        );
        assert!(
            hi <= self.contiguous_limit(lo),
            "feature_rows({lo}, {hi}) crosses a shard boundary; \
             callers must respect contiguous_limit"
        );
        let c = self.chunk_of(lo);
        let r = lo - c * self.manifest.chunk_rows;
        let d = self.manifest.dim;
        self.verify_or_panic(c, r, hi - lo);
        self.note_chunk_access(c);
        &self.chunk_floats(c)[r * d..(r + (hi - lo)) * d]
    }

    /// Streams the rows chunk by chunk: the batch positions are ordered
    /// by row index (which groups them by chunk), each group is
    /// verified and copied straight out of its chunk, and the chunk is
    /// released right after (`DONTNEED`, dropped from the window). A
    /// scattered gather therefore costs one `madvise` per chunk touched
    /// and leaves no chunk resident behind it; keeping the batch's
    /// chunks mapped instead lets them fill up page by page and raises
    /// peak RSS. Sequential scans keep using the window (`feature_rows`,
    /// `advise_range`). With `residency_chunks == 0` nothing is
    /// released, as everywhere else.
    fn gather_rows(&self, rows: &[usize], out: &mut [f64]) {
        let (d, rows_per) = (self.manifest.dim, self.manifest.chunk_rows);
        assert_eq!(out.len(), rows.len() * d, "gather_rows: panel size");
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_unstable_by_key(|&pos| rows[pos]);
        if let Some(&pos) = order.last() {
            assert!(
                rows[pos] < self.manifest.n,
                "row {} out of bounds",
                rows[pos]
            );
        }
        for group in order.chunk_by(|&a, &b| self.chunk_of(rows[a]) == self.chunk_of(rows[b])) {
            let c = self.chunk_of(rows[group[0]]);
            let floats = self.chunk_floats(c);
            for &pos in group {
                let r = rows[pos] - c * rows_per;
                self.verify_or_panic(c, r, 1);
                out[pos * d..(pos + 1) * d].copy_from_slice(&floats[r * d..(r + 1) * d]);
            }
            if self.residency_chunks > 0 {
                self.release_chunks(std::iter::once(c));
            }
        }
        // The walk may have released the chunk a sequential reader
        // last noted; forget it so that reader re-enters the window.
        self.last_touched.store(usize::MAX, Ordering::Relaxed);
    }

    fn contiguous_limit(&self, lo: usize) -> usize {
        ((self.chunk_of(lo) + 1) * self.manifest.chunk_rows).min(self.manifest.n)
    }

    fn shard_boundaries(&self) -> Vec<usize> {
        (0..=self.data.len())
            .map(|c| (c * self.manifest.chunk_rows).min(self.manifest.n))
            .collect()
    }

    fn label(&self, i: usize) -> &SoftLabel {
        &self.labels[i]
    }

    fn is_clean(&self, i: usize) -> bool {
        self.clean[i]
    }

    fn ground_truth(&self, i: usize) -> Option<usize> {
        self.truth[i]
    }

    fn clean_label(&mut self, i: usize, label: SoftLabel) {
        assert_eq!(label.num_classes(), self.manifest.num_classes);
        self.labels[i] = label;
        self.clean[i] = true;
    }

    fn set_label(&mut self, i: usize, label: SoftLabel) {
        assert_eq!(label.num_classes(), self.manifest.num_classes);
        self.labels[i] = label;
    }

    fn mark_uncleaned(&mut self, i: usize) {
        self.clean[i] = false;
    }

    fn advise_range(&self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.touch_chunks(self.chunk_of(lo)..=self.chunk_of(hi - 1));
    }

    fn advise_scanned(&self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.release_chunks(self.chunk_of(lo)..=self.chunk_of(hi - 1));
    }

    fn io_stats(&self) -> Option<StoreIoStats> {
        Some(self.stats.snapshot())
    }
}

fn read_file_bytes(file: &File, size: u64) -> io::Result<Vec<u8>> {
    let mut bytes = vec![0u8; size as usize];
    memmap::read_exact_at(file, &mut bytes, 0)?;
    Ok(bytes)
}

fn bytes_to_floats(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;
    use chef_model::Dataset;

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chef-store-{}-{name}", std::process::id()))
    }

    fn fixture(n: usize, d: usize) -> Dataset {
        let mut raw = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        let mut clean = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..d {
                raw.push((i * d + j) as f64 * 0.25 - 3.0);
            }
            let p = (i % 10) as f64 / 10.0;
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            clean.push(i % 3 == 0);
            truth.push(if i % 7 == 0 { None } else { Some(i % 2) });
        }
        Dataset::new(Matrix::from_vec(n, d, raw), labels, clean, truth, 2)
    }

    fn assert_same(a: &dyn DatasetStore, b: &dyn DatasetStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.num_classes(), b.num_classes());
        for i in 0..a.len() {
            assert_eq!(a.feature(i), b.feature(i), "row {i}");
            assert_eq!(a.label(i).probs(), b.label(i).probs(), "label {i}");
            assert_eq!(a.is_clean(i), b.is_clean(i), "clean {i}");
            assert_eq!(a.ground_truth(i), b.ground_truth(i), "truth {i}");
        }
    }

    #[test]
    fn round_trip_preserves_every_row_bit_for_bit() {
        let dir = tmp_dir("roundtrip");
        let data = fixture(37, 5);
        let manifest = write_store(&data, &dir, 8).unwrap();
        assert_eq!(manifest.chunks.len(), 5); // 4 full shards + 5 rows
        assert_eq!(manifest.chunks[4].rows, 5);
        let store = MmapStore::open(&dir).unwrap();
        assert_same(&data, &store);
        // Shard geometry.
        assert_eq!(store.shard_boundaries(), vec![0, 8, 16, 24, 32, 37]);
        assert_eq!(store.contiguous_limit(0), 8);
        assert_eq!(store.contiguous_limit(33), 37);
        // Zero-copy block reads within a shard match the dense matrix.
        assert_eq!(store.feature_rows(8, 16), data.feature_rows(8, 16));
        assert_eq!(store.feature_rows(32, 37), data.feature_rows(32, 37));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pread_fallback_is_equivalent() {
        let dir = tmp_dir("pread");
        let data = fixture(20, 3);
        write_store(&data, &dir, 6).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                force_pread: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_same(&data, &store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn to_dataset_materializes_the_same_data() {
        let dir = tmp_dir("todataset");
        let data = fixture(25, 4);
        write_store(&data, &dir, 10).unwrap();
        let store = MmapStore::open(&dir).unwrap();
        let back = store.to_dataset();
        assert_same(&data, &back);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn label_mutations_update_ram_state() {
        let dir = tmp_dir("mutate");
        write_store(&fixture(12, 2), &dir, 4).unwrap();
        let mut store = MmapStore::open(&dir).unwrap();
        let before_uncleaned = store.uncleaned_indices();
        store.clean_label(1, SoftLabel::onehot(0, 2));
        assert!(store.is_clean(1));
        assert_eq!(store.label(1).probs(), &[1.0, 0.0]);
        assert_eq!(store.uncleaned_indices().len(), before_uncleaned.len() - 1);
        store.mark_uncleaned(1);
        assert!(!store.is_clean(1));
        store.set_label(2, SoftLabel::new(vec![0.4, 0.6]));
        assert!(!store.is_clean(2) || store.is_clean(2)); // set_label leaves the flag
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn residency_hints_do_not_change_data() {
        let dir = tmp_dir("hints");
        let data = fixture(40, 3);
        write_store(&data, &dir, 8).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                residency_chunks: 2, // force eviction
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.advise_range(0, 40);
        for i in 0..40 {
            assert_eq!(store.feature(i), data.feature(i));
        }
        store.advise_scanned(0, 40);
        assert_eq!(store.feature(39), data.feature(39)); // still readable
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let dir = tmp_dir("version");
        write_store(&fixture(5, 2), &dir, 4).unwrap();
        let path = dir.join(MANIFEST_FILE_V2);
        let text = fs::read_to_string(&path).unwrap();
        for version in ["chef-store.v3", "chef-store.v1"] {
            fs::write(&path, text.replacen("chef-store.v2", version, 1)).unwrap();
            match MmapStore::open(&dir) {
                Err(StoreError::Version(v)) => assert_eq!(v, version),
                other => panic!("expected version error, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_emits_v2_manifest_with_block_table() {
        let dir = tmp_dir("v2meta");
        let m = write_store(&fixture(9, 4), &dir, 4).unwrap();
        assert_eq!(m.version, 2);
        assert_eq!(m.block_bytes, DEFAULT_BLOCK_BYTES);
        assert!(dir.join(MANIFEST_FILE_V2).exists());
        assert!(!dir.join("store.v1").exists());
        for (c, meta) in m.chunks.iter().enumerate() {
            // Shards here are far below one block, so each is a single
            // block covering the whole shard: the word-folded block
            // checksum sits beside the byte-wise whole-shard one.
            let bytes = fs::read(dir.join(chunk_file_name(c))).unwrap();
            assert_eq!(meta.blocks.len(), 1, "chunk {c}");
            assert_eq!(meta.fnv, fnv1a64(FNV_OFFSET, &bytes), "chunk {c}");
            assert_eq!(
                meta.blocks[0],
                fnv1a64_words(FNV_OFFSET, &bytes),
                "chunk {c}"
            );
            assert_eq!(m.num_blocks(c), 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_blocks_round_trip_and_verify_lazily() {
        let dir = tmp_dir("smallblocks");
        let data = fixture(30, 4);
        let mut w = StoreWriter::create(&dir, 4, 2, 8)
            .unwrap()
            .with_block_bytes(64); // 2 rows per block, 4 blocks per shard
        for i in 0..30 {
            w.push_row(
                data.feature(i),
                data.label(i).clone(),
                data.is_clean(i),
                data.ground_truth(i),
            )
            .unwrap();
        }
        let m = w.finish().unwrap();
        assert_eq!(m.chunks[0].blocks.len(), 4);
        let store = MmapStore::open(&dir).unwrap();
        assert_same(&data, &store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_first_touch_verifies_each_block_exactly_once() {
        let dir = tmp_dir("lazyonce");
        let data = fixture(40, 3);
        write_store(&data, &dir, 8).unwrap(); // 5 shards, 1 block each
        let store = MmapStore::open(&dir).unwrap();
        let at_open = store.io_stats().unwrap();
        assert_eq!(at_open.blocks_verified, 0, "nothing touched yet");
        for i in 0..40 {
            assert_eq!(store.feature(i), data.feature(i));
        }
        let after_first = store.io_stats().unwrap();
        assert_eq!(after_first.blocks_verified, 5, "one verify per block");
        for i in 0..40 {
            let _ = store.feature(i);
        }
        let after_second = store.io_stats().unwrap();
        assert_eq!(after_second.blocks_verified, 5, "bitmap made reads free");
        assert!(after_second.lazy_verify_hits > after_first.lazy_verify_hits);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_detects_bitflip_on_first_touch_of_that_block() {
        let dir = tmp_dir("lazyflip");
        let data = fixture(30, 4);
        let mut w = StoreWriter::create(&dir, 4, 2, 8)
            .unwrap()
            .with_block_bytes(64);
        for i in 0..30 {
            w.push_row(
                data.feature(i),
                data.label(i).clone(),
                data.is_clean(i),
                data.ground_truth(i),
            )
            .unwrap();
        }
        w.finish().unwrap();
        // Flip a bit in the LAST block of shard 0 (rows 6..8).
        let chunk = dir.join(chunk_file_name(0));
        let mut bytes = fs::read(&chunk).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        fs::write(&chunk, &bytes).unwrap();
        let store = MmapStore::open(&dir).unwrap();
        // Untouched-block reads still fine:
        assert_eq!(store.feature(0), data.feature(0));
        store.verify_rows(0, 6).unwrap();
        // Touching the corrupt block surfaces Corrupt:
        match store.verify_rows(6, 8) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // ... and the store stays poisoned for verified reads.
        assert!(matches!(
            store.verify_rows(0, 6),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_shard_truncation_is_rejected() {
        let dir = tmp_dir("torn-size");
        write_store(&fixture(10, 2), &dir, 4).unwrap();
        let chunk = dir.join(chunk_file_name(1));
        let bytes = fs::read(&chunk).unwrap();
        fs::write(&chunk, &bytes[..bytes.len() - 8]).unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("torn shard"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_shard_bitflip_is_rejected_by_checksum() {
        let dir = tmp_dir("torn-flip");
        write_store(&fixture(10, 2), &dir, 4).unwrap();
        let chunk = dir.join(chunk_file_name(0));
        let mut bytes = fs::read(&chunk).unwrap();
        bytes[3] ^= 0x40; // same size, different contents
        fs::write(&chunk, &bytes).unwrap();
        let store = MmapStore::open(&dir).unwrap();
        match store.verify_all() {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overflowing_sizes_are_format_errors_not_panics() {
        // rows × dim × 8 overflows usize.
        let text = "chef-store.v2\nn=1\ndim=2305843009213693952\nnum_classes=2\n\
                    chunk_rows=1\nblock_bytes=64\nlabels bytes=0 fnv=0000000000000000\n\
                    labels_fnv64=0000000000000000\nchunks=1\n\
                    chunk=0 rows=1 bytes=0 fnv=0000000000000000\nblocks=0 0000000000000000\n";
        assert!(
            matches!(Manifest::parse(text), Err(StoreError::Format(_))),
            "{:?}",
            Manifest::parse(text)
        );
        // A chunk count far beyond the lines that follow it.
        let text = text
            .replace("dim=2305843009213693952", "dim=2")
            .replace("chunks=1", "chunks=1000000000000000000");
        assert!(
            matches!(Manifest::parse(&text), Err(StoreError::Format(_))),
            "{:?}",
            Manifest::parse(&text)
        );
        // A manifest whose n × (8·num_classes + 9) labels.bin size
        // overflows, beside an empty labels.bin that matches its
        // recorded size and checksum.
        let dir = tmp_dir("overflow");
        fs::create_dir_all(&dir).unwrap();
        let n = 1usize << 40;
        let m = Manifest {
            version: 2,
            n,
            dim: 1,
            num_classes: 1 << 30,
            chunk_rows: n,
            block_bytes: 1 << 50,
            labels_bytes: 0,
            labels_fnv: FNV_OFFSET,
            labels_fnv_words: FNV_OFFSET,
            chunks: vec![ChunkMeta {
                rows: n,
                bytes: (n * 8) as u64,
                fnv: 0,
                blocks: vec![0],
            }],
        };
        fs::write(dir.join(MANIFEST_FILE_V2), m.render()).unwrap();
        fs::write(dir.join(LABELS_FILE), b"").unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected format error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_ground_truth_is_rejected() {
        let dir = tmp_dir("truth");
        write_store(&fixture(6, 2), &dir, 4).unwrap();
        // Row 1's truth becomes class 7 of a 2-class store, with both
        // labels checksums recomputed so only the range check can catch it.
        let labels_path = dir.join(LABELS_FILE);
        let mut buf = fs::read(&labels_path).unwrap();
        let at = 6 * 2 * 8 + 6 + 8;
        buf[at..at + 8].copy_from_slice(&7i64.to_le_bytes());
        fs::write(&labels_path, &buf).unwrap();
        let mut m = Manifest::read(&dir).unwrap();
        m.labels_fnv = fnv1a64(FNV_OFFSET, &buf);
        m.labels_fnv_words = fnv1a64_words(FNV_OFFSET, &buf);
        fs::write(dir.join(MANIFEST_FILE_V2), m.render()).unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("ground truth 7"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_io_error() {
        let dir = tmp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(MmapStore::open(&dir), Err(StoreError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_renders_and_parses_losslessly() {
        let dir = tmp_dir("manifest");
        let m = write_store(&fixture(17, 3), &dir, 5).unwrap();
        let parsed = Manifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
        fs::remove_dir_all(&dir).unwrap();
    }
}
