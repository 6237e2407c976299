//! Crash-safe fleet checkpoints: per-shard progress persisted so an
//! interrupted run can resume bit-identically.
//!
//! Because a user's sessions are a pure function of `(seed, user_id)` and
//! shards fold users in id order, the whole resumable state of a fleet
//! run is tiny: per shard, the next user id to simulate and the integer
//! [`FleetSummary`] of the users already folded. No RNG state, no radio
//! state, no in-flight session survives a crash — and none needs to.
//!
//! # File format (version 2, little-endian)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  "EWBFLTCK"                                   8 bytes  │
//! │ version u32                                         4 bytes  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ identity record                                              │
//! │   len u32 │ payload (RunIdentity) │ crc32(payload) u32       │
//! ├──────────────────────────────────────────────────────────────┤
//! │ shard count u32                                              │
//! │ shard record × count                                         │
//! │   len u32 │ payload (idx u32, next_user u64, FleetSummary)   │
//! │           │ crc32(payload) u32                               │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every record is length-prefixed and CRC32-guarded, the trailer must
//! land exactly on end-of-file, and histograms carry their bin counts —
//! so a torn write, a flipped byte, a truncation, or a stale version is
//! always detected and rejected with a typed [`CheckpointError`], never
//! silently merged. Saving goes through a temp file + atomic rename: a
//! crash mid-save leaves the previous checkpoint intact.

use crate::sim::FleetConfig;
use crate::summary::{FleetSummary, LOAD_BINS, SAVED_BINS, SHARE_BINS};
use ewb_core::cases::Case;
use std::fmt;
use std::path::{Path, PathBuf};

/// The checkpoint file magic.
pub const MAGIC: [u8; 8] = *b"EWBFLTCK";
/// The format version this build reads and writes.
pub const VERSION: u32 = 2;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), hand-rolled so the crate
// stays dependency-free. Table built at compile time.
// ---------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = build_crc32_table();

/// IEEE CRC32 of `bytes` (the `cksum`/zlib polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A 32-bit fingerprint of a [`FleetSummary`]: the CRC32 of its canonical
/// checkpoint serialization. Two summaries fingerprint equal iff every
/// integer field matches — what the CI chaos job compares across clean,
/// killed, and resumed runs.
pub fn summary_fingerprint(summary: &FleetSummary) -> u32 {
    let mut buf = Vec::new();
    push_summary(&mut buf, summary);
    crc32(&buf)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a checkpoint could not be loaded, saved, or applied. Every parse
/// failure names the structure it died in; a checkpoint that does not
/// match the resuming run's identity is rejected field by field.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// What was being attempted ("read", "write", "rename", …).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file ended before a structure was complete.
    Truncated {
        /// The structure being read.
        what: &'static str,
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// The 8 bytes found instead.
        found: [u8; 8],
    },
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// The version found.
        found: u32,
    },
    /// A record's CRC32 did not match its payload — a flipped or torn
    /// byte.
    Corrupt {
        /// The record that failed.
        what: String,
        /// CRC32 stored in the file.
        stored_crc: u32,
        /// CRC32 computed over the payload.
        computed_crc: u32,
    },
    /// The file parsed but its structure is inconsistent (bad bin counts,
    /// out-of-order shard records, trailing bytes, …).
    Malformed {
        /// What is inconsistent.
        what: String,
    },
    /// The checkpoint belongs to a different run than the one resuming.
    RunMismatch {
        /// The identity field that differs.
        field: &'static str,
        /// Value in the checkpoint file.
        checkpoint: String,
        /// Value of the resuming run.
        run: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, source } => {
                write!(f, "checkpoint {op} failed for {}: {source}", path.display())
            }
            CheckpointError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "checkpoint truncated inside {what}: needed {needed} bytes, {available} left"
            ),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a fleet checkpoint: magic {found:02x?} (expected {MAGIC:02x?})"
            ),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {VERSION})"
            ),
            CheckpointError::Corrupt {
                what,
                stored_crc,
                computed_crc,
            } => write!(
                f,
                "checkpoint {what} is corrupt: stored CRC32 {stored_crc:#010x}, \
                 computed {computed_crc:#010x}"
            ),
            CheckpointError::Malformed { what } => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::RunMismatch {
                field,
                checkpoint,
                run,
            } => write!(
                f,
                "checkpoint belongs to a different run: {field} is {checkpoint} in the file \
                 but {run} in this run — refusing to merge"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Little-endian record encoding
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_hist(out: &mut Vec<u8>, hist: &[u64]) {
    push_u32(out, hist.len() as u32);
    for &v in hist {
        push_u64(out, v);
    }
}

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, CheckpointError> {
        let b = self.take(16, what)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    fn hist(&mut self, expected: usize, what: &'static str) -> Result<Vec<u64>, CheckpointError> {
        let n = self.u32(what)? as usize;
        if n != expected {
            return Err(CheckpointError::Malformed {
                what: format!("{what} has {n} bins, this build expects {expected}"),
            });
        }
        let mut hist = Vec::with_capacity(n);
        for _ in 0..n {
            hist.push(self.u64(what)?);
        }
        Ok(hist)
    }
}

fn push_summary(out: &mut Vec<u8>, s: &FleetSummary) {
    push_u64(out, s.users);
    push_u64(out, s.sessions);
    push_u64(out, s.visits);
    push_u64(out, s.releases);
    push_u64(out, s.degraded_policy_visits);
    push_u128(out, s.baseline_uj);
    push_u128(out, s.optimized_uj);
    push_u128(out, s.baseline_load_us);
    push_u128(out, s.optimized_load_us);
    for v in s.baseline_residency_us {
        push_u128(out, v);
    }
    for v in s.optimized_residency_us {
        push_u128(out, v);
    }
    push_hist(out, &s.saved_hist);
    push_hist(out, &s.baseline_load_hist);
    push_hist(out, &s.optimized_load_hist);
    push_hist(out, &s.dch_share_hist);
}

fn read_summary(r: &mut Reader<'_>) -> Result<FleetSummary, CheckpointError> {
    Ok(FleetSummary {
        users: r.u64("summary.users")?,
        sessions: r.u64("summary.sessions")?,
        visits: r.u64("summary.visits")?,
        releases: r.u64("summary.releases")?,
        degraded_policy_visits: r.u64("summary.degraded_policy_visits")?,
        baseline_uj: r.u128("summary.baseline_uj")?,
        optimized_uj: r.u128("summary.optimized_uj")?,
        baseline_load_us: r.u128("summary.baseline_load_us")?,
        optimized_load_us: r.u128("summary.optimized_load_us")?,
        baseline_residency_us: [
            r.u128("summary.baseline_residency_us")?,
            r.u128("summary.baseline_residency_us")?,
            r.u128("summary.baseline_residency_us")?,
            r.u128("summary.baseline_residency_us")?,
        ],
        optimized_residency_us: [
            r.u128("summary.optimized_residency_us")?,
            r.u128("summary.optimized_residency_us")?,
            r.u128("summary.optimized_residency_us")?,
            r.u128("summary.optimized_residency_us")?,
        ],
        saved_hist: r.hist(SAVED_BINS, "summary.saved_hist")?,
        baseline_load_hist: r.hist(LOAD_BINS, "summary.baseline_load_hist")?,
        optimized_load_hist: r.hist(LOAD_BINS, "summary.optimized_load_hist")?,
        dch_share_hist: r.hist(SHARE_BINS, "summary.dch_share_hist")?,
    })
}

/// Stable numeric id of a [`Case`] for the identity record.
fn case_id(case: Case) -> u8 {
    match case {
        Case::Original => 0,
        Case::OriginalAlwaysOff => 1,
        Case::EnergyAwareAlwaysOff => 2,
        Case::Accurate9 => 3,
        Case::Predict9 => 4,
        Case::Accurate20 => 5,
        Case::Predict20 => 6,
    }
}

// ---------------------------------------------------------------------
// Identity, progress, checkpoint
// ---------------------------------------------------------------------

/// Everything that pins a fleet run's results: resuming is only sound
/// against a checkpoint written by a run with the identical identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// Root seed of every per-user stream.
    pub seed: u64,
    /// Total users of the run.
    pub users: u64,
    /// Shard count (fixes every shard's user range).
    pub shards: u64,
    /// Stable numeric id (`case_id`) of the baseline case.
    pub baseline: u8,
    /// Stable numeric id (`case_id`) of the optimized case.
    pub optimized: u8,
    /// [`FaultTier::index`](ewb_core::profile::FaultTier::index) of the
    /// run's link-quality tier.
    pub tier: u8,
    /// Bit pattern of the predictor-outage probability (exact, not
    /// rounded: a different probability is a different run).
    pub outage_prob_bits: u64,
}

impl RunIdentity {
    /// The identity of a run configured by `cfg`.
    pub fn of(cfg: &FleetConfig) -> Self {
        RunIdentity {
            seed: cfg.seed,
            users: cfg.users,
            shards: cfg.shards as u64,
            baseline: case_id(cfg.baseline),
            optimized: case_id(cfg.optimized),
            tier: cfg.tier.index(),
            outage_prob_bits: cfg.predictor_outage_prob.to_bits(),
        }
    }

    fn push(&self, out: &mut Vec<u8>) {
        push_u64(out, self.seed);
        push_u64(out, self.users);
        push_u64(out, self.shards);
        out.push(self.baseline);
        out.push(self.optimized);
        out.push(self.tier);
        push_u64(out, self.outage_prob_bits);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(RunIdentity {
            seed: r.u64("identity.seed")?,
            users: r.u64("identity.users")?,
            shards: r.u64("identity.shards")?,
            baseline: r.take(1, "identity.baseline")?[0],
            optimized: r.take(1, "identity.optimized")?[0],
            tier: r.take(1, "identity.tier")?[0],
            outage_prob_bits: r.u64("identity.outage_prob_bits")?,
        })
    }

    /// Rejects resuming `cfg` against this identity unless every field
    /// matches, naming the first mismatched field.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::RunMismatch`] on the first differing field.
    pub fn check_matches(&self, cfg: &FleetConfig) -> Result<(), CheckpointError> {
        let run = RunIdentity::of(cfg);
        let fields: [(&'static str, u64, u64); 7] = [
            ("seed", self.seed, run.seed),
            ("users", self.users, run.users),
            ("shards", self.shards, run.shards),
            ("baseline case", self.baseline.into(), run.baseline.into()),
            (
                "optimized case",
                self.optimized.into(),
                run.optimized.into(),
            ),
            ("fault tier", self.tier.into(), run.tier.into()),
            (
                "predictor outage probability (bits)",
                self.outage_prob_bits,
                run.outage_prob_bits,
            ),
        ];
        for (field, ours, theirs) in fields {
            if ours != theirs {
                return Err(CheckpointError::RunMismatch {
                    field,
                    checkpoint: ours.to_string(),
                    run: theirs.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// One shard's committed progress: the users in
/// `[range.start, next_user)` are folded into `summary`; `next_user`
/// is the first user not yet simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProgress {
    /// First user id the shard has not committed yet.
    pub next_user: u64,
    /// Integer summary of every committed user of the shard.
    pub summary: FleetSummary,
}

/// A complete checkpoint: the run identity plus one [`ShardProgress`]
/// per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The run this checkpoint belongs to.
    pub identity: RunIdentity,
    /// Per-shard committed progress, indexed by shard.
    pub shards: Vec<ShardProgress>,
}

impl Checkpoint {
    /// A fresh checkpoint for `cfg`: every shard at the start of its
    /// range with an empty summary.
    pub fn new(cfg: &FleetConfig) -> Self {
        Checkpoint {
            identity: RunIdentity::of(cfg),
            shards: (0..cfg.shards)
                .map(|shard| ShardProgress {
                    next_user: crate::sim::shard_range(cfg.users, cfg.shards, shard).start,
                    summary: FleetSummary::default(),
                })
                .collect(),
        }
    }

    /// Serializes to this build's byte format (version `VERSION`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        push_u32(&mut out, VERSION);

        let mut ident = Vec::new();
        self.identity.push(&mut ident);
        push_u32(&mut out, ident.len() as u32);
        let ident_crc = crc32(&ident);
        out.extend_from_slice(&ident);
        push_u32(&mut out, ident_crc);

        push_u32(&mut out, self.shards.len() as u32);
        let mut record = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            record.clear();
            push_u32(&mut record, idx as u32);
            push_u64(&mut record, shard.next_user);
            push_summary(&mut record, &shard.summary);
            push_u32(&mut out, record.len() as u32);
            let crc = crc32(&record);
            out.extend_from_slice(&record);
            push_u32(&mut out, crc);
        }
        out
    }

    /// Parses this build's byte format, verifying magic, version, every
    /// record CRC, structural consistency, and that no bytes trail the
    /// last record.
    ///
    /// # Errors
    ///
    /// The typed [`CheckpointError`] naming what failed.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(buf);
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(CheckpointError::BadMagic { found });
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }

        let identity = read_record(&mut r, "identity record", RunIdentity::read)?;
        let shard_count = r.u32("shard count")? as usize;
        if shard_count as u64 != identity.shards {
            return Err(CheckpointError::Malformed {
                what: format!(
                    "shard count {shard_count} disagrees with identity ({} shards)",
                    identity.shards
                ),
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for expected_idx in 0..shard_count {
            let progress = read_record(&mut r, "shard record", |r| {
                let idx = r.u32("shard.index")? as usize;
                if idx != expected_idx {
                    return Err(CheckpointError::Malformed {
                        what: format!("shard record {expected_idx} carries index {idx}"),
                    });
                }
                Ok(ShardProgress {
                    next_user: r.u64("shard.next_user")?,
                    summary: read_summary(r)?,
                })
            })?;
            shards.push(progress);
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed {
                what: format!(
                    "{} trailing bytes after the last shard record",
                    r.remaining()
                ),
            });
        }
        Ok(Checkpoint { identity, shards })
    }

    /// Structural validation against `cfg` (which must already pass
    /// [`RunIdentity::check_matches`]): every shard cursor inside its
    /// range, and every shard summary counting exactly its committed
    /// users — the double-count guard for resumed state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::RunMismatch`] or [`CheckpointError::Malformed`].
    pub fn check_matches(&self, cfg: &FleetConfig) -> Result<(), CheckpointError> {
        self.identity.check_matches(cfg)?;
        for (shard, progress) in self.shards.iter().enumerate() {
            let range = crate::sim::shard_range(cfg.users, cfg.shards, shard);
            if progress.next_user < range.start || progress.next_user > range.end {
                return Err(CheckpointError::Malformed {
                    what: format!(
                        "shard {shard} cursor {} outside its user range {range:?}",
                        progress.next_user
                    ),
                });
            }
            let committed = progress.next_user - range.start;
            if progress.summary.users != committed {
                return Err(CheckpointError::Malformed {
                    what: format!(
                        "shard {shard} summary counts {} users but its cursor committed \
                         {committed} — refusing to resume (double-count guard)",
                        progress.summary.users
                    ),
                });
            }
        }
        Ok(())
    }

    /// Loads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] or any parse error of
    /// [`from_bytes`](Checkpoint::from_bytes).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            op: "read",
            source,
        })?;
        Self::from_bytes(&bytes)
    }

    /// Saves atomically: writes `<path>.tmp`, then renames over `path`.
    /// A crash at any instant leaves either the previous checkpoint or
    /// the new one — never a torn file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] naming the failed operation.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = tmp_path(path);
        std::fs::write(&tmp, self.to_bytes()).map_err(|source| CheckpointError::Io {
            path: tmp.clone(),
            op: "write",
            source,
        })?;
        std::fs::rename(&tmp, path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            op: "rename",
            source,
        })
    }
}

/// `<path>.tmp` — the staging file of an atomic save.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Reads one length-prefixed, CRC-guarded record: `len u32 | payload |
/// crc32 u32`, parsing the payload with `parse` and demanding it consume
/// the payload exactly.
fn read_record<T>(
    r: &mut Reader<'_>,
    what: &'static str,
    parse: impl FnOnce(&mut Reader<'_>) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let len = r.u32(what)? as usize;
    let payload = r.take(len, what)?;
    let stored_crc = r.u32(what)?;
    let computed_crc = crc32(payload);
    if stored_crc != computed_crc {
        return Err(CheckpointError::Corrupt {
            what: what.to_string(),
            stored_crc,
            computed_crc,
        });
    }
    let mut pr = Reader::new(payload);
    let value = parse(&mut pr)?;
    if pr.remaining() != 0 {
        return Err(CheckpointError::Malformed {
            what: format!("{what} has {} unread payload bytes", pr.remaining()),
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The IEEE CRC32 check vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let cfg = FleetConfig::paper(100);
        let ck = Checkpoint::new(&cfg);
        assert_eq!(ck.shards.len(), cfg.shards);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, ck);
        assert!(ck.check_matches(&cfg).is_ok());
    }

    #[test]
    fn version_1_files_are_refused() {
        let mut bytes = Checkpoint::new(&FleetConfig::paper(100)).to_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion { found: 1 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn identity_mismatches_name_the_field() {
        let cfg = FleetConfig::paper(100);
        let ck = Checkpoint::new(&cfg);
        let other = FleetConfig { seed: 7, ..cfg };
        match ck.check_matches(&other) {
            Err(CheckpointError::RunMismatch { field: "seed", .. }) => {}
            other => panic!("expected a seed RunMismatch, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_separate_summaries() {
        let a = FleetSummary::default();
        let b = FleetSummary {
            users: 1,
            ..FleetSummary::default()
        };
        assert_ne!(summary_fingerprint(&a), summary_fingerprint(&b));
        assert_eq!(summary_fingerprint(&a), summary_fingerprint(&a.clone()));
    }
}
