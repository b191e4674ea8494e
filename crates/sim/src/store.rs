//! Durable checkpoint store: crash-safe persistence of rank checkpoints
//! under a store directory, and the scan/validate/select logic a restarted
//! job uses to resume from the newest complete generation.
//!
//! # Store layout
//!
//! A store is one flat directory. A *generation* is one durable snapshot of
//! the whole job at a tick boundary; its id **is** the tick. Generation `g`
//! with `R` ranks consists of:
//!
//! * `g{g:012}-r{r:04}.ckpt` for each rank `r` — the rank's payload (a full
//!   [`ReplicaPayload`] `RPL1` frame, or a [`DeltaReplica`] `RPLD` frame
//!   diffed against the previous generation), followed by an 8-byte footer
//!   `[u32 payload_len][u32 crc32(payload)]`;
//! * `g{g:012}.mft` — a fixed-size manifest (kind, base generation, rank
//!   count) with the same footer, written **last**.
//!
//! # Commit protocol
//!
//! Every file is written with the same discipline: write the bytes to a
//! `.tmp-`-prefixed sibling, `fsync` it, then atomically `rename` it into
//! place (and `fsync` the directory when the policy asks for durability).
//! The manifest is only written once all `R` rank files of the generation
//! are in place, so a manifest's existence certifies a complete generation.
//! A crash therefore leaves the store in one of three states, all safe:
//!
//! * torn temp file — ignored by every scan (the `.tmp-` prefix);
//! * renamed rank files but no manifest — the generation is uncommitted
//!   and invisible; recovery uses the previous committed one;
//! * torn or bit-corrupted manifest/rank file — the CRC footer rejects it
//!   and recovery falls back to the next-newest committed generation.
//!
//! # Delta generations
//!
//! Delta generations store [`DeltaReplica`] frames whose `base_tick` is the
//! previous generation, so restoring generation `g` walks the manifest
//! `base` pointers back to the nearest full generation and applies the
//! deltas in order onto the materialized mirror. Writers emit a full
//! generation first and every [`DURABLE_FULL_EVERY`]-th boundary after
//! that, bounding every rebuild chain.

use crate::checkpoint::{CheckpointError, DeltaBase, DeltaReplica, DeltaSlots, ReplicaPayload};
use compass_comm::crc32;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use tn_core::wire::Reader;
use tn_core::Spike;

/// Leading magic of a generation manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CMF1";

/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;

/// Manifest body size (footer excluded).
const MANIFEST_BYTES: usize = 32;

/// CRC/length footer size appended to every store file.
const FOOTER_BYTES: usize = 8;

/// Every `DURABLE_FULL_EVERY`-th generation a writer emits is a full
/// [`ReplicaPayload`] rather than a delta, bounding the rebuild chain a
/// restart must walk (and the garbage a delta chain pins).
pub const DURABLE_FULL_EVERY: u64 = 8;

/// How and where a run persists checkpoints
/// (see [`crate::RunOptions::durability`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Store directory (created if absent).
    pub dir: PathBuf,
    /// Persist a generation every `every` ticks (0 disables; the start
    /// boundary is always persisted so a restart can re-anchor).
    pub every: u32,
    /// Committed generations [`CheckpointStore::gc`] keeps (chains are
    /// kept whole, so the on-disk count may exceed this; 0 keeps all).
    pub retain: usize,
    /// `fsync` files and the directory at every commit step. Turning this
    /// off trades crash-safety against the OS page cache for speed — the
    /// bench harness measures exactly that gap.
    pub sync: bool,
}

impl DurabilityPolicy {
    /// Durable store at `dir` with the default cadence: every 4 ticks,
    /// retain 4 generations, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityPolicy {
            dir: dir.into(),
            every: 4,
            retain: 4,
            sync: true,
        }
    }
}

/// Why a store operation failed. Validation failures of *individual
/// generations* are not errors — recovery skips to an older generation —
/// so these surface only genuine filesystem failures and store-level
/// contradictions.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A committed generation names a different rank count than the world
    /// being resumed — the store belongs to another decomposition.
    RankMismatch {
        /// Ranks the resuming world has.
        expected: u32,
        /// Ranks the newest committed generation holds.
        got: u32,
    },
    /// A payload is too long for the footer's 32-bit length field. Nothing
    /// was written: the generation is skipped and earlier ones stay valid
    /// — a truncated length would seal a file no reader ever accepts.
    PayloadTooLarge {
        /// File the payload was meant for.
        name: String,
        /// Its length in bytes.
        len: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(
                    f,
                    "checkpoint store I/O failed on {}: {source}",
                    path.display()
                )
            }
            StoreError::RankMismatch { expected, got } => write!(
                f,
                "checkpoint store was written by a {got}-rank world, cannot resume {expected} ranks"
            ),
            StoreError::PayloadTooLarge { name, len } => write!(
                f,
                "payload of {len} bytes for {name} exceeds the store's 32-bit length field"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::RankMismatch { .. } | StoreError::PayloadTooLarge { .. } => None,
        }
    }
}

/// Whether a generation's rank files are full payloads or deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Rank files are [`ReplicaPayload`] frames: self-contained.
    Full,
    /// Rank files are [`DeltaReplica`] frames against the `base`
    /// generation.
    Delta,
}

/// A decoded, CRC-verified generation manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Generation id — the tick boundary the snapshot sits at.
    pub gen: u64,
    /// Full or delta.
    pub kind: GenKind,
    /// For deltas, the generation the rank files diff against; equals
    /// `gen` for full generations.
    pub base: u64,
    /// Ranks in the world that wrote the generation.
    pub ranks: u32,
}

impl Manifest {
    pub(crate) fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_BYTES);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.push(match self.kind {
            GenKind::Full => 0,
            GenKind::Delta => 1,
        });
        out.push(0); // reserved
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&self.ranks.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        debug_assert_eq!(out.len(), MANIFEST_BYTES);
        out
    }

    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::frame(bytes, MANIFEST_MAGIC, MANIFEST_BYTES)?;
        r.version_u16(MANIFEST_VERSION)?;
        let kind = match r.u8()? {
            0 => GenKind::Full,
            1 => GenKind::Delta,
            _ => return Err(CheckpointError::BadMagic),
        };
        r.u8()?; // reserved
        let (gen, base, ranks) = (r.u64()?, r.u64()?, r.u32()?);
        r.u32()?; // reserved
        r.finish()?;
        Ok(Manifest {
            gen,
            kind,
            base,
            ranks,
        })
    }
}

/// The state a restarted job resumes from: the newest fully-committed,
/// fully-valid generation, materialized (delta chains applied) into one
/// [`ReplicaPayload`] per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumePoint {
    /// The tick boundary every rank resumes at.
    pub tick: u32,
    /// The committed generation the point came from.
    pub gen: u64,
    /// Per-rank state, indexed by rank: checkpoint plus the recorded
    /// trace/fires history the previous process had already produced.
    pub payloads: Vec<ReplicaPayload>,
}

/// One generation's verdict from [`CheckpointStore::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCheck {
    /// The manifest (already CRC-valid, or the file would be an orphan).
    pub manifest: Manifest,
    /// Whether every rank file validates and (for deltas) the chain
    /// materializes.
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: String,
}

/// What [`CheckpointStore::fsck`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Per committed generation, newest first.
    pub generations: Vec<GenCheck>,
    /// Files that belong to no committed generation: torn temps,
    /// uncommitted rank files, unreadable manifests.
    pub orphans: Vec<PathBuf>,
}

impl FsckReport {
    /// True when every committed generation validates.
    pub fn clean(&self) -> bool {
        self.generations.iter().all(|g| g.ok)
    }
}

/// What [`CheckpointStore::gc`] removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Committed generations still in the store.
    pub kept: usize,
    /// Files deleted (manifests, rank files, stale temps).
    pub removed_files: usize,
}

/// A durable checkpoint store rooted at one directory. See the module
/// docs for the layout and commit protocol.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    sync: bool,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn rank_file_name(gen: u64, rank: u32) -> String {
    format!("g{gen:012}-r{rank:04}.ckpt")
}

fn manifest_file_name(gen: u64) -> String {
    format!("g{gen:012}.mft")
}

/// The `[u32 len][u32 crc]` footer of a `len`-byte payload for file
/// `name`, or [`StoreError::PayloadTooLarge`] when `len` does not fit.
fn footer(name: &str, len: usize, crc: u32) -> Result<[u8; FOOTER_BYTES], StoreError> {
    let len32 = u32::try_from(len).map_err(|_| StoreError::PayloadTooLarge {
        name: name.to_owned(),
        len,
    })?;
    let mut out = [0u8; FOOTER_BYTES];
    out[..4].copy_from_slice(&len32.to_le_bytes());
    out[4..].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// A payload with its footer appended, as one buffer: how files were
/// sealed before [`CheckpointStore::write_atomic`] stopped copying, kept
/// as the reference the tests hold its files to.
#[cfg(test)]
pub(crate) fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FOOTER_BYTES);
    out.extend_from_slice(payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates the footer and returns the payload slice, or a reason the
/// file is not a complete, uncorrupted store file.
pub(crate) fn unseal(bytes: &[u8]) -> Result<&[u8], String> {
    let mut r = Reader::new(bytes);
    let footed = r
        .take(bytes.len().saturating_sub(FOOTER_BYTES))
        .and_then(|body| Ok((body, r.u32()? as usize, r.u32()?)));
    let Ok((body, len, crc)) = footed else {
        return Err(format!("{} bytes is too short for a footer", bytes.len()));
    };
    if len != body.len() {
        return Err(format!(
            "footer names a {len}-byte payload, file holds {}",
            body.len()
        ));
    }
    let actual = crc32(body);
    if actual != crc {
        return Err(format!(
            "CRC mismatch: footer {crc:#010x}, payload {actual:#010x}"
        ));
    }
    Ok(body)
}

impl CheckpointStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>, sync: bool) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(CheckpointStore { dir, sync })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `body`, then its footer, to `name` with the crash-safe
    /// discipline: temp sibling, fsync, atomic rename, directory fsync.
    /// `body` goes to the file as it lies — checksummed in place, never
    /// copied. Returns the bytes that reached disk.
    fn write_atomic(&self, name: &str, body: &[u8]) -> Result<u64, StoreError> {
        let footer = footer(name, body.len(), crc32(body))?;
        // The temp name must be unique per writer: every rank's background
        // thread commits the same manifest bytes, and racing renames of a
        // *shared* temp would leave the losers with ENOENT. The `.tmp-`
        // prefix keeps every scanner ignoring it; the suffix keeps writers
        // out of each other's way.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{name}-{}-{seq}", std::process::id()));
        {
            let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(body).map_err(|e| io_err(&tmp, e))?;
            f.write_all(&footer).map_err(|e| io_err(&tmp, e))?;
            if self.sync {
                f.sync_all().map_err(|e| io_err(&tmp, e))?;
            }
        }
        let dst = self.dir.join(name);
        fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        if self.sync {
            // Persist the rename itself: fsync the directory.
            let d = File::open(&self.dir).map_err(|e| io_err(&self.dir, e))?;
            d.sync_all().map_err(|e| io_err(&self.dir, e))?;
        }
        Ok((body.len() + FOOTER_BYTES) as u64)
    }

    /// Persists one rank's payload for generation `gen`. Returns the bytes
    /// written (payload + footer).
    ///
    /// # Errors
    /// [`StoreError::PayloadTooLarge`] for a payload of 4 GiB or more,
    /// before anything is written; [`StoreError::Io`] otherwise.
    pub fn write_rank(&self, gen: u64, rank: u32, payload: &[u8]) -> Result<u64, StoreError> {
        self.write_atomic(&rank_file_name(gen, rank), payload)
    }

    /// On-disk footprint of one committed generation: the manifest plus
    /// every rank file (sealed sizes, as stored). Missing files count as
    /// zero — `fsck` is the tool that flags them.
    pub fn generation_bytes(&self, m: &Manifest) -> u64 {
        let mut total = fs::metadata(self.dir.join(manifest_file_name(m.gen)))
            .map(|md| md.len())
            .unwrap_or(0);
        for rank in 0..m.ranks {
            total += fs::metadata(self.dir.join(rank_file_name(m.gen, rank)))
                .map(|md| md.len())
                .unwrap_or(0);
        }
        total
    }

    /// Commits generation `gen` if — and only if — all `ranks` rank files
    /// are in place, by writing the manifest last. Racing writers (each
    /// rank's background thread calls this after its own rename) produce
    /// byte-identical manifests through distinct temp files, so the race
    /// is idempotent. Returns whether this call found the generation
    /// complete.
    pub fn try_commit(&self, m: Manifest) -> Result<bool, StoreError> {
        for rank in 0..m.ranks {
            if !self.dir.join(rank_file_name(m.gen, rank)).exists() {
                return Ok(false);
            }
        }
        self.write_atomic(&manifest_file_name(m.gen), &m.to_bytes())?;
        Ok(true)
    }

    /// Reads and CRC-validates one rank file of a generation. A missing,
    /// torn, or corrupted file is a soft `Err(reason)` (the caller falls
    /// back to an older generation), not a [`StoreError`].
    fn read_rank(&self, gen: u64, rank: u32) -> Result<Vec<u8>, String> {
        let path = self.dir.join(rank_file_name(gen, rank));
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        unseal(&bytes)
            .map(<[u8]>::to_vec)
            .map_err(|r| format!("{}: {r}", path.display()))
    }

    /// Scans the directory for committed generations: every readable,
    /// CRC-valid manifest, ascending by generation. Unreadable or
    /// corrupt manifests are skipped (their generations are treated as
    /// never committed); only directory-level I/O failures are errors.
    pub fn manifests(&self) -> Result<Vec<Manifest>, StoreError> {
        let mut found = BTreeMap::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".mft") || name.starts_with(".tmp-") {
                continue;
            }
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            let Ok(body) = unseal(&bytes) else { continue };
            let Ok(m) = Manifest::from_bytes(body) else {
                continue;
            };
            found.insert(m.gen, m);
        }
        Ok(found.into_values().collect())
    }

    /// Resolves the delta chain for `target`: the full generation it
    /// bottoms out at, then every delta up to and including `target`,
    /// ascending. `Err(reason)` when a link is missing or the chain
    /// does not terminate.
    fn chain_for<'a>(
        by_gen: &'a BTreeMap<u64, Manifest>,
        target: &'a Manifest,
    ) -> Result<Vec<&'a Manifest>, String> {
        let mut chain = vec![target];
        let mut cur = target;
        while cur.kind == GenKind::Delta {
            let base = by_gen
                .get(&cur.base)
                .ok_or_else(|| format!("generation {} misses its base {}", cur.gen, cur.base))?;
            if base.gen >= cur.gen {
                return Err(format!(
                    "generation {} names a non-decreasing base {}",
                    cur.gen, base.gen
                ));
            }
            chain.push(base);
            cur = base;
        }
        chain.reverse();
        Ok(chain)
    }

    /// Materializes one committed generation into per-rank payloads,
    /// validating every file it touches. Soft-fails with a reason so
    /// recovery can fall back to an older generation.
    fn materialize(
        &self,
        by_gen: &BTreeMap<u64, Manifest>,
        target: &Manifest,
    ) -> Result<Vec<ReplicaPayload>, String> {
        let chain = Self::chain_for(by_gen, target)?;
        let (full, deltas) = chain
            .split_first()
            .expect("chain holds at least the target");
        if full.kind != GenKind::Full {
            return Err(format!(
                "chain bottoms out at non-full generation {}",
                full.gen
            ));
        }
        let mut payloads = Vec::with_capacity(target.ranks as usize);
        for rank in 0..target.ranks {
            let bytes = self.read_rank(full.gen, rank)?;
            let payload = ReplicaPayload::from_bytes(&bytes)
                .map_err(|e| format!("generation {} rank {rank}: {e}", full.gen))?;
            if payload.ckpt.rank() != rank || u64::from(payload.ckpt.start_tick()) != full.gen {
                return Err(format!(
                    "generation {} rank {rank} holds rank {} at tick {}",
                    full.gen,
                    payload.ckpt.rank(),
                    payload.ckpt.start_tick()
                ));
            }
            payloads.push(payload);
        }
        for link in deltas {
            if link.ranks != target.ranks {
                return Err(format!(
                    "generation {} holds {} ranks, chain expects {}",
                    link.gen, link.ranks, target.ranks
                ));
            }
            for (rank, mirror) in payloads.iter_mut().enumerate() {
                let bytes = self.read_rank(link.gen, rank as u32)?;
                let delta = DeltaReplica::from_bytes(&bytes)
                    .map_err(|e| format!("generation {} rank {rank}: {e}", link.gen))?;
                delta
                    .apply(mirror)
                    .map_err(|e| format!("generation {} rank {rank}: {e}", link.gen))?;
            }
        }
        Ok(payloads)
    }

    /// Finds the newest committed generation that fully validates for an
    /// `expect_ranks`-rank world and materializes it. `Ok(None)` means a
    /// cold start (no usable generation); corrupt candidates are skipped
    /// in favour of older ones. A newest-candidate whose *manifest* names
    /// a different rank count is a hard [`StoreError::RankMismatch`] —
    /// the store belongs to another decomposition and silently ignoring
    /// it would fork history.
    pub fn recover(&self, expect_ranks: u32) -> Result<Option<ResumePoint>, StoreError> {
        let manifests = self.manifests()?;
        let by_gen: BTreeMap<u64, Manifest> = manifests.iter().map(|m| (m.gen, *m)).collect();
        for m in manifests.iter().rev() {
            if m.ranks != expect_ranks {
                return Err(StoreError::RankMismatch {
                    expected: expect_ranks,
                    got: m.ranks,
                });
            }
            if let Ok(payloads) = self.materialize(&by_gen, m) {
                return Ok(Some(ResumePoint {
                    tick: m.gen as u32,
                    gen: m.gen,
                    payloads,
                }));
            }
        }
        Ok(None)
    }

    /// Validates every committed generation (and reports every file that
    /// belongs to none) without materializing state for a resume.
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        let manifests = self.manifests()?;
        let by_gen: BTreeMap<u64, Manifest> = manifests.iter().map(|m| (m.gen, *m)).collect();
        let mut report = FsckReport::default();
        for m in manifests.iter().rev() {
            let (ok, detail) = match self.materialize(&by_gen, m) {
                Ok(_) => (true, String::new()),
                Err(reason) => (false, reason),
            };
            report.generations.push(GenCheck {
                manifest: *m,
                ok,
                detail,
            });
        }
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let committed = parse_gen(name).is_some_and(|g| by_gen.contains_key(&g));
            if !committed {
                report.orphans.push(entry.path());
            }
        }
        report.orphans.sort();
        Ok(report)
    }

    /// Removes old generations, keeping the newest `retain` committed
    /// ones — extended backward so every kept delta's chain stays whole —
    /// plus every file belonging to a *newer* (possibly still-forming)
    /// generation. Manifests are deleted before their rank files, so a
    /// crash mid-GC only ever decommits, never corrupts. `retain == 0`
    /// keeps everything.
    pub fn gc(&self, retain: usize) -> Result<GcReport, StoreError> {
        let manifests = self.manifests()?;
        let by_gen: BTreeMap<u64, Manifest> = manifests.iter().map(|m| (m.gen, *m)).collect();
        let mut report = GcReport::default();
        if retain == 0 || manifests.len() <= retain {
            report.kept = manifests.len();
            return Ok(report);
        }
        let newest = manifests.last().map_or(0, |m| m.gen);
        let mut keep: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for m in manifests.iter().rev().take(retain) {
            if let Ok(chain) = Self::chain_for(&by_gen, m) {
                keep.extend(chain.iter().map(|l| l.gen));
            } else {
                keep.insert(m.gen);
            }
        }
        // Decommit first (manifest deletion is the commit point in
        // reverse), then drop the now-invisible rank files and any stale
        // temps for dropped generations.
        for m in &manifests {
            if !keep.contains(&m.gen)
                && fs::remove_file(self.dir.join(manifest_file_name(m.gen))).is_ok()
            {
                report.removed_files += 1;
            }
        }
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".mft") && !name.starts_with(".tmp-") {
                continue;
            }
            let Some(gen) = parse_gen(name) else { continue };
            if gen > newest || keep.contains(&gen) {
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                report.removed_files += 1;
            }
        }
        report.kept = keep.len();
        Ok(report)
    }
}

/// Extracts the generation id from any store file name (rank file,
/// manifest, or their temps).
fn parse_gen(name: &str) -> Option<u64> {
    let name = name.strip_prefix(".tmp-").unwrap_or(name);
    let rest = name.strip_prefix('g')?;
    let digits = rest.get(..12)?;
    digits.parse().ok()
}

/// Payload buffers a [`DurableWriter`] circulates between the tick loop
/// and its writer thread: one being written while the next is staged.
const WRITER_BUFFERS: usize = 2;

/// Durable persistence for one rank of a running job: a background writer
/// thread owns all store I/O, fed staged boundary payloads over a channel
/// so the tick loop does not wait on the disk — unless the disk falls
/// [`WRITER_BUFFERS`] generations behind. The writer commits each
/// generation's manifest once every rank's file is visible (racing
/// committers are idempotent — identical bytes through distinct temps) and
/// garbage-collects per policy after its own successful commits.
///
/// Payloads travel in [`WRITER_BUFFERS`] buffers that go round: `stage`
/// takes a free one, fills it and sends it; the writer hands it back on a
/// second channel once the file is renamed into place. In steady state
/// nothing is allocated, and resident payload memory is bounded by the
/// buffers rather than by how far the disk lags the tick loop.
pub(crate) struct DurableWriter {
    tx: mpsc::Sender<(Manifest, Vec<u8>)>,
    /// Buffers the writer has finished with (all of them, at first).
    free: mpsc::Receiver<Vec<u8>>,
    /// Ends with bytes written, generations persisted, the first failure.
    handle: std::thread::JoinHandle<(u64, u64, Option<StoreError>)>,
    me: u32,
    ranks: u32,
    /// The policy's cadence in ticks.
    pub(crate) every: u32,
    /// The previous staged generation — the next delta's base.
    base: DeltaBase,
}

impl DurableWriter {
    /// Opens the store under `pol` and starts the writer thread of rank
    /// `me` of a `ranks`-rank world.
    pub(crate) fn spawn(pol: &DurabilityPolicy, me: u32, ranks: u32) -> Result<Self, String> {
        let store =
            CheckpointStore::open(&pol.dir, pol.sync).map_err(|e| format!("rank {me}: {e}"))?;
        let retain = pol.retain;
        let persist = move |manifest: Manifest, payload: &[u8]| {
            let bytes = store.write_rank(manifest.gen, me, payload)?;
            if store.try_commit(manifest)? && retain != 0 {
                // Best-effort GC: a failed sweep never loses data,
                // it only leaves extra files behind.
                let _ = store.gc(retain);
            }
            Ok(bytes)
        };
        Self::spawn_with(persist, pol.every, me, ranks)
    }

    /// [`DurableWriter::spawn`] over any `persist` step (returns the bytes
    /// it wrote): the seam the tests gate or kill the writer through.
    fn spawn_with(
        mut persist: impl FnMut(Manifest, &[u8]) -> Result<u64, StoreError> + Send + 'static,
        every: u32,
        me: u32,
        ranks: u32,
    ) -> Result<Self, String> {
        let (tx, rx) = mpsc::channel::<(Manifest, Vec<u8>)>();
        let (free_tx, free) = mpsc::channel();
        for _ in 0..WRITER_BUFFERS {
            free_tx.send(Vec::new()).expect("receiver is in scope");
        }
        let handle = std::thread::Builder::new()
            .name(format!("durable-writer-{me}"))
            .spawn(move || {
                let (mut bytes, mut gens) = (0u64, 0u64);
                let mut err: Option<StoreError> = None;
                for (manifest, payload) in rx {
                    // Keep draining after a failure; the first error wins.
                    if err.is_none() {
                        match persist(manifest, &payload) {
                            Ok(n) => (bytes, gens) = (bytes + n, gens + 1),
                            Err(e) => err = Some(e),
                        }
                    }
                    // The tick loop may already be gone; nobody needs it then.
                    let _ = free_tx.send(payload);
                }
                (bytes, gens, err)
            })
            .map_err(|e| format!("rank {me}: spawn durable writer: {e}"))?;
        Ok(Self {
            tx,
            free,
            handle,
            me,
            ranks,
            every,
            base: DeltaBase::default(),
        })
    }

    /// Stages `snap`, the rank's boundary snapshot at tick `t`, as the
    /// next generation (`trace`/`fires` are the rank's recorded history up
    /// to `t`). The first generation of this writer and every
    /// [`DURABLE_FULL_EVERY`]-th after it is a self-contained full payload;
    /// the rest ship only the 64-byte chunks that changed since the
    /// previous generation, classified bytewise against it (independent of
    /// the buddy path's shared dirty bits). A rollback replay re-stages
    /// boundaries it already passed (`t <= base.tick`), which forces a full
    /// payload — the store just overwrites those generations with
    /// re-anchored state. The writer keeps the blob as its next diff base
    /// and leaves its old base behind in `snap` as a buffer to reuse.
    ///
    /// Blocks while every payload buffer is still with the writer thread:
    /// a disk slower than the tick loop slows the run, it does not grow it.
    pub(crate) fn stage(&mut self, t: u32, snap: &mut Vec<u8>, trace: &[Spike], fires: &[u64]) {
        let full = self.base.ships.is_multiple_of(DURABLE_FULL_EVERY) || t <= self.base.tick;
        // A closed channel means the writer thread died; its failure
        // surfaces at join time, and until then a fresh buffer keeps the
        // tick loop moving.
        let mut payload = self.free.recv().unwrap_or_default();
        self.base.payload_into(
            &mut payload,
            full,
            self.me,
            t,
            snap,
            DeltaSlots::Compared,
            trace,
            fires,
        );
        let manifest = Manifest {
            gen: u64::from(t),
            kind: if full { GenKind::Full } else { GenKind::Delta },
            base: u64::from(if full { t } else { self.base.tick }),
            ranks: self.ranks,
        };
        let _ = self.tx.send((manifest, payload));
        self.base.advance(t, trace, fires);
        std::mem::swap(&mut self.base.blob, snap);
    }

    /// Closes the channel so the writer finishes the queued generations,
    /// and waits for it. Returns bytes written, generations persisted, and
    /// the first failure, rendered.
    pub(crate) fn join(self) -> (u64, u64, Option<String>) {
        let me = self.me;
        drop(self.tx);
        match self.handle.join() {
            Ok((bytes, gens, err)) => (bytes, gens, err.map(|e| format!("rank {me}: {e}"))),
            Err(_) => (0, 0, Some(format!("rank {me}: durable writer panicked"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RankCheckpoint;
    use tn_core::CORE_SNAPSHOT_BYTES;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("compass-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(rank: u32, tick: u32, fill: u8) -> ReplicaPayload {
        let mut blob = vec![fill; 2 * CORE_SNAPSHOT_BYTES];
        blob[16..24].copy_from_slice(&u64::from(tick).to_le_bytes());
        let at = CORE_SNAPSHOT_BYTES;
        blob[at + 16..at + 24].copy_from_slice(&u64::from(tick).to_le_bytes());
        ReplicaPayload {
            ckpt: RankCheckpoint {
                rank,
                start_tick: tick,
                blob,
            },
            trace: Vec::new(),
            fires_per_tick: vec![u64::from(fill); tick as usize],
        }
    }

    fn commit_full(store: &CheckpointStore, gen: u64, ranks: u32, fill: u8) {
        for r in 0..ranks {
            let p = payload(r, gen as u32, fill);
            store.write_rank(gen, r, &p.to_bytes()).unwrap();
        }
        assert!(store
            .try_commit(Manifest {
                gen,
                kind: GenKind::Full,
                base: gen,
                ranks,
            })
            .unwrap());
    }

    /// Commits a delta generation advancing every rank from `base` by
    /// mutating one body byte of slot 0.
    fn commit_delta(store: &CheckpointStore, gen: u64, base: u64, ranks: u32, fill: u8) {
        for r in 0..ranks {
            let old = payload(r, base as u32, fill);
            let mut cur = old.ckpt.blob.clone();
            let elapsed = gen - base;
            for slot in 0..2 {
                let at = slot * CORE_SNAPSHOT_BYTES + 16;
                let t = u64::from_le_bytes(cur[at..at + 8].try_into().unwrap());
                cur[at..at + 8].copy_from_slice(&(t + elapsed).to_le_bytes());
            }
            cur[40] = cur[40].wrapping_add(1);
            let d = DeltaReplica::diff(
                base as u32,
                gen as u32,
                vec![0, 1],
                &old.ckpt.blob,
                &cur,
                Vec::new(),
                vec![9; (gen - base) as usize],
            );
            store.write_rank(gen, r, &d.to_bytes()).unwrap();
        }
        assert!(store
            .try_commit(Manifest {
                gen,
                kind: GenKind::Delta,
                base,
                ranks,
            })
            .unwrap());
    }

    #[test]
    fn full_generation_roundtrips() {
        let dir = scratch("full");
        let store = CheckpointStore::open(&dir, true).unwrap();
        assert!(
            store.recover(2).unwrap().is_none(),
            "empty store = cold start"
        );
        commit_full(&store, 8, 2, 3);
        let rp = store.recover(2).unwrap().expect("committed generation");
        assert_eq!(rp.tick, 8);
        assert_eq!(rp.gen, 8);
        assert_eq!(rp.payloads.len(), 2);
        assert_eq!(rp.payloads[1], payload(1, 8, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chain_materializes_onto_the_full_base() {
        let dir = scratch("chain");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 1, 5);
        commit_delta(&store, 8, 4, 1, 5);
        let rp = store.recover(1).unwrap().expect("delta generation");
        assert_eq!(rp.tick, 8);
        let p = &rp.payloads[0];
        assert_eq!(p.ckpt.start_tick(), 8);
        assert_eq!(p.ckpt.blob[40], 6, "delta chunk patched over the base");
        assert_eq!(p.fires_per_tick.len(), 4 + 4, "history suffix appended");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_generation_is_invisible() {
        let dir = scratch("uncommitted");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 2, 1);
        // Rank files for gen 8 but no manifest: the crash hit between
        // the renames and the commit.
        let p = payload(0, 8, 2);
        store.write_rank(8, 0, &p.to_bytes()).unwrap();
        let rp = store.recover(2).unwrap().expect("previous generation");
        assert_eq!(rp.gen, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_temp_files_are_ignored() {
        let dir = scratch("torn-temp");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 1, 1);
        // A write killed mid-temp: partial bytes, never renamed.
        fs::write(dir.join(".tmp-g000000000008-r0000.ckpt"), b"RPL1par").unwrap();
        fs::write(dir.join(".tmp-g000000000008.mft"), b"CM").unwrap();
        let rp = store.recover(1).unwrap().expect("previous generation");
        assert_eq!(rp.gen, 4);
        assert!(store.fsck().unwrap().clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_decommits_its_generation() {
        let dir = scratch("torn-mft");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 1, 1);
        commit_full(&store, 8, 1, 2);
        // Truncate gen 8's manifest as a torn write would.
        let mft = dir.join(manifest_file_name(8));
        let bytes = fs::read(&mft).unwrap();
        fs::write(&mft, &bytes[..bytes.len() - 3]).unwrap();
        let rp = store.recover(1).unwrap().expect("previous generation");
        assert_eq!(rp.gen, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_rank_file_falls_back_to_previous_generation() {
        let dir = scratch("bitflip");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 2, 1);
        commit_full(&store, 8, 2, 2);
        // Flip one payload bit in gen 8, rank 1: CRC must catch it.
        let path = dir.join(rank_file_name(8, 1));
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let rp = store.recover(2).unwrap().expect("previous generation");
        assert_eq!(rp.gen, 4);
        let fsck = store.fsck().unwrap();
        assert!(!fsck.clean());
        assert!(fsck
            .generations
            .iter()
            .any(|g| g.manifest.gen == 8 && !g.ok));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_delta_chain_falls_back_to_its_full_base() {
        let dir = scratch("chainbreak");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 1, 5);
        commit_delta(&store, 6, 4, 1, 5);
        // Corrupt the delta's rank file: gen 6 must soft-fail, gen 4 win.
        let path = dir.join(rank_file_name(6, 0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let rp = store.recover(1).unwrap().expect("full base");
        assert_eq!(rp.gen, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rank_count_mismatch_is_a_hard_error() {
        let dir = scratch("ranks");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 2, 1);
        assert!(matches!(
            store.recover(3),
            Err(StoreError::RankMismatch {
                expected: 3,
                got: 2
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_chains_whole() {
        let dir = scratch("gc");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 0, 1, 1);
        commit_full(&store, 4, 1, 2);
        commit_delta(&store, 8, 4, 1, 2);
        commit_delta(&store, 12, 8, 1, 2);
        let report = store.gc(2).unwrap();
        // Newest 2 are the deltas at 8 and 12; their chain pins 4. Only
        // generation 0 drops (manifest + rank file).
        assert_eq!(report.kept, 3);
        assert_eq!(report.removed_files, 2);
        let gens: Vec<u64> = store.manifests().unwrap().iter().map(|m| m.gen).collect();
        assert_eq!(gens, vec![4, 8, 12]);
        let rp = store.recover(1).unwrap().expect("chain survives gc");
        assert_eq!(rp.gen, 12);
        // retain = 0 keeps everything.
        let report = store.gc(0).unwrap();
        assert_eq!(report.kept, 3);
        assert_eq!(report.removed_files, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_orphans() {
        let dir = scratch("fsck");
        let store = CheckpointStore::open(&dir, false).unwrap();
        commit_full(&store, 4, 1, 1);
        let p = payload(0, 8, 2);
        store.write_rank(8, 0, &p.to_bytes()).unwrap();
        fs::write(dir.join(".tmp-g000000000012-r0000.ckpt"), b"torn").unwrap();
        let report = store.fsck().unwrap();
        assert!(report.clean(), "committed generations are fine");
        assert_eq!(report.orphans.len(), 2, "uncommitted rank file + temp");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrips_and_rejects_malformed_bytes() {
        let m = Manifest {
            gen: 40,
            kind: GenKind::Delta,
            base: 32,
            ranks: 4,
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
        assert!(Manifest::from_bytes(b"short").is_err());
        let mut bad = m.to_bytes();
        bad[0] = b'X';
        assert_eq!(Manifest::from_bytes(&bad), Err(CheckpointError::BadMagic));
        let mut bad = m.to_bytes();
        bad[4] = 9;
        assert_eq!(
            Manifest::from_bytes(&bad),
            Err(CheckpointError::UnsupportedVersion(9))
        );
        let mut bad = m.to_bytes();
        bad[6] = 7; // unknown kind
        assert!(Manifest::from_bytes(&bad).is_err());
    }

    #[test]
    fn seal_unseal_roundtrip_and_rejection() {
        let sealed = seal(b"hello");
        assert_eq!(unseal(&sealed).unwrap(), b"hello");
        assert!(unseal(&sealed[..sealed.len() - 1]).is_err(), "torn tail");
        let mut bad = sealed.clone();
        bad[1] ^= 1;
        assert!(unseal(&bad).is_err(), "payload bit flip");
        let mut bad = sealed;
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(unseal(&bad).is_err(), "footer bit flip");
        assert!(unseal(b"abc").is_err(), "shorter than a footer");
    }

    #[test]
    fn write_atomic_files_are_the_sealed_payload_byte_for_byte() {
        let dir = scratch("seal-identity");
        let store = CheckpointStore::open(&dir, false).unwrap();
        // Empty, shorter than a slice word, ragged, and snapshot-sized.
        for (gen, len) in [0usize, 5, 1027, 3 * CORE_SNAPSHOT_BYTES]
            .iter()
            .enumerate()
        {
            let body: Vec<u8> = (0..*len).map(|i| (i * 31 + gen) as u8).collect();
            let written = store.write_rank(gen as u64, 0, &body).unwrap();
            let file = fs::read(dir.join(rank_file_name(gen as u64, 0))).unwrap();
            assert_eq!(file, seal(&body), "{len}-byte payload");
            assert_eq!(written, file.len() as u64);
            assert_eq!(unseal(&file).unwrap(), &body[..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_past_the_length_field_is_refused_not_truncated() {
        // The length is faked: the check sits on the number, so no 4 GiB
        // buffer is needed to reach it.
        assert!(footer("f", u32::MAX as usize, 7).is_ok());
        let Ok(len) = usize::try_from(1u64 << 32) else {
            return; // a 32-bit usize cannot even name such a payload
        };
        match footer("g000000000008-r0001.ckpt", len, 7) {
            Err(StoreError::PayloadTooLarge { name, len: got }) => {
                assert_eq!(name, "g000000000008-r0001.ckpt");
                assert_eq!(got, len);
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    /// Stages a one-core boundary at tick `t` without a recorded history.
    fn stage_tick(writer: &mut DurableWriter, t: u32) {
        let mut snap = payload(0, t, 9).ckpt.blob[..CORE_SNAPSHOT_BYTES].to_vec();
        writer.stage(t, &mut snap, &[], &[]);
    }

    #[test]
    fn stage_blocks_while_both_buffers_are_with_the_writer() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // The writer announces each generation it picks up, then waits at
        // the gate; nothing here sleeps to order the two threads.
        let (picked_tx, picked) = mpsc::channel::<u64>();
        let (gate, gate_rx) = mpsc::channel::<()>();
        let persist = move |m: Manifest, body: &[u8]| {
            picked_tx.send(m.gen).expect("test is listening");
            gate_rx.recv().expect("test opens the gate");
            Ok(body.len() as u64)
        };
        let mut writer = DurableWriter::spawn_with(persist, 4, 0, 1).unwrap();
        let staged = Arc::new(AtomicU32::new(0));
        let tick_loop = std::thread::spawn({
            let staged = Arc::clone(&staged);
            move || {
                for t in [0, 4, 8] {
                    stage_tick(&mut writer, t);
                    staged.fetch_add(1, Ordering::SeqCst);
                }
                writer.join()
            }
        });
        // Generation 0 is with the writer and held there; generation 4
        // fits the second buffer; generation 8 has no buffer to go into.
        assert_eq!(picked.recv().unwrap(), 0);
        while staged.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        for _ in 0..1000 {
            std::thread::yield_now();
            assert_eq!(staged.load(Ordering::SeqCst), 2, "third stage must wait");
        }
        // Releasing generation 0 returns its buffer: the third stage lands.
        gate.send(()).unwrap();
        assert_eq!(picked.recv().unwrap(), 4);
        while staged.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        gate.send(()).unwrap();
        assert_eq!(picked.recv().unwrap(), 8);
        gate.send(()).unwrap();
        let (bytes, gens, err) = tick_loop.join().unwrap();
        assert_eq!((gens, err), (3, None));
        assert!(
            bytes > CORE_SNAPSHOT_BYTES as u64,
            "one full payload and two deltas"
        );
    }

    #[test]
    fn stage_outlives_a_dead_writer_and_join_reports_it() {
        let (died_tx, died) = mpsc::channel::<()>();
        let persist = move |_: Manifest, _: &[u8]| -> Result<u64, StoreError> {
            // Dropped by the unwind: the test's proof the thread is gone.
            let _died_tx = &died_tx;
            panic!("writer dies on its first generation");
        };
        let mut writer = DurableWriter::spawn_with(persist, 4, 0, 1).unwrap();
        stage_tick(&mut writer, 0);
        assert!(died.recv().is_err(), "only the unwind closes the channel");
        // One buffer is still queued on the return channel; every stage
        // after it finds the channel closed. None may hang.
        for t in [4, 8, 12, 16] {
            stage_tick(&mut writer, t);
        }
        let (bytes, gens, err) = writer.join();
        assert_eq!((bytes, gens), (0, 0));
        assert!(err.unwrap().contains("durable writer panicked"));
    }

    #[test]
    fn staged_payloads_are_the_reference_bytes_and_rollback_forces_full() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let persist = {
            let seen = Arc::clone(&seen);
            move |m: Manifest, body: &[u8]| {
                seen.lock().unwrap().push((m, body.to_vec()));
                Ok(body.len() as u64)
            }
        };
        let mut writer = DurableWriter::spawn_with(persist, 4, 2, 3).unwrap();
        let blob = |t: u32, body: u8| {
            let mut b = payload(2, t, 1).ckpt.blob;
            b[300] = body;
            b
        };
        let fires: Vec<u64> = (0..12).collect();
        // Tick 8 follows tick 4 as a delta; tick 4 again is a rollback
        // replay and must re-anchor; tick 8 after it is a delta once more.
        let steps = [(0u32, 0u8), (4, 0), (8, 1), (4, 0), (8, 2)];
        let mut want = Vec::new();
        let mut prev: Option<(u32, Vec<u8>)> = None;
        for &(t, body) in &steps {
            let cur = blob(t, body);
            let history = &fires[..t as usize];
            let reference = match &prev {
                Some((base_tick, base)) if t > *base_tick => {
                    let had = *base_tick as usize;
                    let dirty = if base[300] == cur[300] {
                        vec![]
                    } else {
                        vec![0]
                    };
                    let delta = DeltaReplica::diff(
                        *base_tick,
                        t,
                        dirty,
                        base,
                        &cur,
                        Vec::new(),
                        history[had..].to_vec(),
                    );
                    let m = Manifest {
                        gen: u64::from(t),
                        kind: GenKind::Delta,
                        base: u64::from(*base_tick),
                        ranks: 3,
                    };
                    (m, delta.to_bytes())
                }
                _ => {
                    let full = ReplicaPayload {
                        ckpt: RankCheckpoint {
                            rank: 2,
                            start_tick: t,
                            blob: cur.clone(),
                        },
                        trace: Vec::new(),
                        fires_per_tick: history.to_vec(),
                    };
                    let m = Manifest {
                        gen: u64::from(t),
                        kind: GenKind::Full,
                        base: u64::from(t),
                        ranks: 3,
                    };
                    (m, full.to_bytes())
                }
            };
            want.push(reference);
            let mut snap = cur.clone();
            writer.stage(t, &mut snap, &[], history);
            prev = Some((t, cur));
        }
        assert_eq!(writer.join().2, None);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), want.len());
        for (k, (got, want)) in seen.iter().zip(&want).enumerate() {
            assert_eq!(got.0, want.0, "manifest of step {k}");
            assert_eq!(got.1, want.1, "payload of step {k}");
        }
    }

    #[test]
    fn parse_gen_extracts_ids() {
        assert_eq!(parse_gen("g000000000042-r0003.ckpt"), Some(42));
        assert_eq!(parse_gen("g000000000008.mft"), Some(8));
        assert_eq!(parse_gen(".tmp-g000000000008.mft"), Some(8));
        assert_eq!(parse_gen("README"), None);
    }
}
