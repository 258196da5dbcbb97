//! The coordinator's durable replication log: a layered **snapshot +
//! suffix journal** that every replication consumer shares.
//!
//! The log answers one question — "what must a replica holding `have`
//! rows receive to mirror the coordinator?" — with one invariant:
//!
//! * the **snapshot** (an encoded [`SketchStore`], self-validating via
//!   its FNV-1a-64 trailer) covers store rows `[0, base)`; it is `None`
//!   exactly when `base == 0`;
//! * the **frames** vector holds the raw release frames for rows
//!   `[base, base + frames.len())`, in ingest order.
//!
//! Compaction folds the journal prefix into a fresh snapshot when the
//! suffix grows past a threshold, so catch-up cost is bounded by the
//! threshold instead of the full ingest history.
//!
//! ## On-disk layout
//!
//! With a data directory configured the log persists as two files,
//! updated crash-consistently (snapshot renamed into place **before**
//! the journal is rewritten, so a crash between the two leaves a
//! snapshot that is merely ahead of the journal — reconciled at load):
//!
//! ```text
//! snapshot.bin   raw SketchStore snapshot bytes (DPSS, self-validating)
//! journal.log    header + append-only records
//!
//! header:  magic "DPJL" | version u8 | base u64 LE
//!          | spec flag u8 [+ len u32 LE + spec JSON]
//!          | FNV-1a-64 of the preceding header bytes (u64 LE)
//! record:  len u32 LE | frame bytes | FNV-1a-64 of the frame (u64 LE)
//! ```
//!
//! Loading never panics and never silently diverges: a corrupt
//! snapshot, a torn journal tail, or a journal whose base the snapshot
//! does not reach each degrade to the **valid prefix** of the state,
//! with a typed [`RecoveryNote`] describing what was dropped. State
//! whose spec names a kernel this build does not run (the retired
//! `v2-simd`) does not degrade: loading refuses it whole, typed.

use dp_core::sketcher::SketcherSpec;
use dp_core::wire::fnv1a64;
use dp_core::CoreError;
use dp_engine::{EngineError, SketchStore};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Journal file magic (the snapshot file needs none: its payload is a
/// self-validating `DPSS` store snapshot).
const JOURNAL_MAGIC: [u8; 4] = *b"DPJL";
const JOURNAL_VERSION: u8 = 1;
const SNAPSHOT_FILE: &str = "snapshot.bin";
const JOURNAL_FILE: &str = "journal.log";

/// Tuning for [`crate::Server::bind_coordinator_with`]: the sharded
/// tile side, the journal compaction threshold, and where (whether) the
/// replication log persists.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorConfig {
    /// Tile side sharded all-pairs plans use (clamped ≥ 1).
    pub tile: usize,
    /// Compact the journal into a fresh snapshot once it holds this
    /// many frames; `0` never compacts (the pre-durability behavior).
    pub compact_threshold: usize,
    /// Directory for `snapshot.bin` + `journal.log`; `None` keeps the
    /// log in memory only. At bind, existing state in the directory is
    /// recovered (and wins over the caller's engine).
    pub data_dir: Option<PathBuf>,
}

/// What disk recovery had to repair or drop. Every note keeps the valid
/// prefix of the state — recovery degrades, it never panics and never
/// silently adopts corrupt bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryNote {
    /// `snapshot.bin` failed its checksum or structural validation; it
    /// was ignored (the journal may still rebuild from row 0).
    SnapshotCorrupt(String),
    /// `journal.log` had an unreadable header; the whole journal was
    /// dropped (the snapshot, if any, still loads).
    JournalHeaderCorrupt(String),
    /// The journal's record tail was torn or bit-flipped; the first
    /// `kept` records (the valid prefix) were loaded.
    JournalTruncated {
        /// Records loaded before the corruption.
        kept: usize,
    },
    /// The journal starts at a row the snapshot does not reach (e.g.
    /// the snapshot file was lost or corrupt after a compaction); its
    /// frames cannot attach to any loadable state and were dropped.
    JournalAhead {
        /// First row the journal covers.
        journal_base: u64,
        /// Rows the loadable snapshot covers.
        snapshot_rows: u64,
    },
    /// The snapshot already covers more rows than the journal's tip (a
    /// crash between snapshot rename and journal rewrite); the fully
    /// superseded journal was dropped.
    JournalStale {
        /// Last row the journal covers.
        journal_tip: u64,
        /// Rows the snapshot covers.
        snapshot_rows: u64,
    },
    /// A journaled frame passed its checksum but was refused by the
    /// engine at replay (semantic divergence); it and everything after
    /// it were dropped.
    FrameRefused {
        /// Index of the refused frame within the replayed suffix.
        index: usize,
    },
}

impl fmt::Display for RecoveryNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SnapshotCorrupt(why) => write!(f, "snapshot.bin ignored: {why}"),
            Self::JournalHeaderCorrupt(why) => write!(f, "journal.log dropped: {why}"),
            Self::JournalTruncated { kept } => {
                write!(f, "journal.log tail torn; kept the first {kept} record(s)")
            }
            Self::JournalAhead {
                journal_base,
                snapshot_rows,
            } => write!(
                f,
                "journal starts at row {journal_base} but the snapshot covers only \
                 {snapshot_rows}; journal dropped"
            ),
            Self::JournalStale {
                journal_tip,
                snapshot_rows,
            } => write!(
                f,
                "snapshot covers {snapshot_rows} rows, past the journal tip \
                 {journal_tip}; superseded journal dropped"
            ),
            Self::FrameRefused { index } => write!(
                f,
                "journal frame {index} refused by the engine at replay; \
                 dropped it and the rest"
            ),
        }
    }
}

/// What [`load_dir`] reconciled from disk: the decoded snapshot (raw
/// bytes kept alongside, so the log can serve them without
/// re-encoding), the journal suffix **after** the snapshot's rows, the
/// journaled spec, and every repair made along the way.
pub(crate) struct LoadedState {
    pub(crate) spec_json: Option<String>,
    /// `(raw snapshot bytes, decoded store, generation)`.
    pub(crate) snapshot: Option<(Vec<u8>, SketchStore, u64)>,
    /// Journal frames covering rows the snapshot does not.
    pub(crate) suffix: Vec<Vec<u8>>,
    pub(crate) notes: Vec<RecoveryNote>,
}

impl LoadedState {
    /// Whether the directory held any usable replicated state.
    pub(crate) fn holds_state(&self) -> bool {
        self.snapshot.is_some() || !self.suffix.is_empty()
    }
}

/// Serialize the journal header (see the module doc for the layout).
fn journal_header(base: u64, spec_json: Option<&str>) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + spec_json.map_or(0, str::len));
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.push(JOURNAL_VERSION);
    out.extend_from_slice(&base.to_le_bytes());
    match spec_json {
        Some(json) => {
            out.push(1);
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        None => out.push(0),
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Serialize one journal record: length-prefixed frame bytes with their
/// own FNV-1a-64 trailer, so a torn or bit-flipped tail is detected
/// record by record at load.
fn journal_record(frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.len() + 12);
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
    out.extend_from_slice(&fnv1a64(frame).to_le_bytes());
    out
}

/// Parse a journal file: `(base, spec_json, frames, truncation note)`.
///
/// # Errors
/// A [`RecoveryNote::JournalHeaderCorrupt`] when the header itself is
/// unreadable (nothing salvageable); record-level corruption is not an
/// error — the valid prefix is returned with a truncation note.
#[allow(clippy::type_complexity)]
fn parse_journal(
    bytes: &[u8],
) -> Result<(u64, Option<String>, Vec<Vec<u8>>, Option<RecoveryNote>), RecoveryNote> {
    fn take(bytes: &[u8], pos: &mut usize, len: usize, what: &str) -> Result<usize, RecoveryNote> {
        if bytes.len() - *pos < len {
            return Err(RecoveryNote::JournalHeaderCorrupt(format!(
                "truncated header ({what})"
            )));
        }
        let at = *pos;
        *pos += len;
        Ok(at)
    }
    let bad = |why: &str| RecoveryNote::JournalHeaderCorrupt(why.to_string());
    let mut pos = 0usize;
    let at = take(bytes, &mut pos, 4, "magic")?;
    if bytes[at..at + 4] != JOURNAL_MAGIC {
        return Err(bad("bad magic"));
    }
    let at = take(bytes, &mut pos, 1, "version")?;
    if bytes[at] != JOURNAL_VERSION {
        return Err(bad(&format!("unsupported version {}", bytes[at])));
    }
    let at = take(bytes, &mut pos, 8, "base")?;
    let base = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let at = take(bytes, &mut pos, 1, "spec flag")?;
    let spec_json = match bytes[at] {
        0 => None,
        1 => {
            let at = take(bytes, &mut pos, 4, "spec length")?;
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let at = take(bytes, &mut pos, len, "spec JSON")?;
            match std::str::from_utf8(&bytes[at..at + len]) {
                Ok(json) => Some(json.to_string()),
                Err(_) => return Err(bad("spec JSON is not UTF-8")),
            }
        }
        other => return Err(bad(&format!("bad spec flag {other}"))),
    };
    let header_end = pos;
    let at = take(bytes, &mut pos, 8, "header checksum")?;
    let stored = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..header_end]) != stored {
        return Err(bad("header checksum mismatch"));
    }
    let mut frames = Vec::new();
    let mut note = None;
    while pos < bytes.len() {
        let truncated = RecoveryNote::JournalTruncated { kept: frames.len() };
        if bytes.len() - pos < 4 {
            note = Some(truncated);
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() - pos - 4 < len + 8 {
            note = Some(truncated);
            break;
        }
        let frame = &bytes[pos + 4..pos + 4 + len];
        let stored = u64::from_le_bytes(
            bytes[pos + 4 + len..pos + 12 + len]
                .try_into()
                .expect("8 bytes"),
        );
        if fnv1a64(frame) != stored {
            note = Some(truncated);
            break;
        }
        frames.push(frame.to_vec());
        pos += 12 + len;
    }
    Ok((base, spec_json, frames, note))
}

/// Load and reconcile a data directory into the valid prefix of its
/// replicated state. Missing files are simply absent state (a fresh
/// directory loads as empty with no notes); corruption degrades with
/// typed notes, never a panic.
///
/// # Errors
/// [`CoreError::UnknownKernel`] when the snapshot's spec or the journal
/// header's names a kernel this build does not run. Such state is not
/// corrupt, so it is not degraded: dropping the snapshot would lose
/// acked rows, and replaying the journal would answer them under other
/// bits than they were acked under.
pub(crate) fn load_dir(dir: &Path) -> Result<LoadedState, CoreError> {
    let mut notes = Vec::new();
    let mut snapshot = None;
    if let Ok(bytes) = fs::read(dir.join(SNAPSHOT_FILE)) {
        match SketchStore::decode_snapshot(&bytes) {
            Ok((store, generation)) => snapshot = Some((bytes, store, generation)),
            Err(EngineError::Core(e @ CoreError::UnknownKernel(_))) => return Err(e),
            Err(e) => notes.push(RecoveryNote::SnapshotCorrupt(e.to_string())),
        }
    }
    let mut journal_base = 0u64;
    let mut spec_json = None;
    let mut frames = Vec::new();
    match fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) if !bytes.is_empty() => match parse_journal(&bytes) {
            Ok((base, spec, parsed, truncation)) => {
                if let Some(Err(e @ CoreError::UnknownKernel(_))) =
                    spec.as_deref().map(SketcherSpec::from_json)
                {
                    return Err(e);
                }
                journal_base = base;
                spec_json = spec;
                frames = parsed;
                notes.extend(truncation);
            }
            Err(note) => notes.push(note),
        },
        _ => {}
    }
    let snapshot_rows = snapshot
        .as_ref()
        .map_or(0, |(_, store, _)| store.n() as u64);
    let journal_tip = journal_base + frames.len() as u64;
    let suffix = if frames.is_empty() {
        Vec::new()
    } else if snapshot_rows < journal_base {
        notes.push(RecoveryNote::JournalAhead {
            journal_base,
            snapshot_rows,
        });
        Vec::new()
    } else if snapshot_rows > journal_tip {
        notes.push(RecoveryNote::JournalStale {
            journal_tip,
            snapshot_rows,
        });
        Vec::new()
    } else {
        frames.split_off((snapshot_rows - journal_base) as usize)
    };
    if spec_json.is_none() {
        if let Some((_, store, _)) = &snapshot {
            spec_json = store.spec().map(SketcherSpec::to_json);
        }
    }
    Ok(LoadedState {
        spec_json,
        snapshot,
        suffix,
        notes,
    })
}

/// Write `bytes` to `path` atomically: a sibling temp file renamed into
/// place, so readers (and a crash) see either the old file or the new
/// one, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// The layered replication log (see the module doc). Owned by the
/// coordinator's shard state behind its journal mutex; all methods are
/// infallible from the caller's view — disk trouble degrades the log to
/// in-memory (durability is best-effort once the filesystem misbehaves;
/// replication itself must keep serving).
pub(crate) struct ReplicationLog {
    /// The spec replicated to workers on revival `Hello` replay.
    pub(crate) spec_json: Option<String>,
    /// Store rows the snapshot covers: frames start at row `base`.
    pub(crate) base: usize,
    /// Encoded store snapshot covering `[0, base)`; `None` iff `base == 0`.
    pub(crate) snapshot: Option<Vec<u8>>,
    /// Generation embedded in (and verified against) the snapshot.
    pub(crate) snapshot_generation: u64,
    /// Raw release frames for rows `[base, base + frames.len())`.
    pub(crate) frames: Vec<Vec<u8>>,
    /// Compact once the journal holds this many frames (`0` = never).
    pub(crate) threshold: usize,
    /// Snapshot compactions performed since bind.
    pub(crate) compactions: u64,
    dir: Option<PathBuf>,
    /// Open append handle on `journal.log`, kept across appends.
    appender: Option<File>,
}

impl ReplicationLog {
    /// A fresh in-memory log starting at `base` pre-existing rows.
    #[cfg(test)]
    pub(crate) fn in_memory(base: usize) -> Self {
        Self {
            spec_json: None,
            base,
            snapshot: None,
            snapshot_generation: 0,
            frames: Vec::new(),
            threshold: 0,
            compactions: 0,
            dir: None,
            appender: None,
        }
    }

    /// Assemble a log from reconciled parts (fresh bind or disk
    /// recovery) and, when a directory is given, rewrite the files to
    /// exactly this state so the next load starts clean.
    pub(crate) fn assemble(
        spec_json: Option<String>,
        base: usize,
        snapshot: Option<Vec<u8>>,
        snapshot_generation: u64,
        frames: Vec<Vec<u8>>,
        threshold: usize,
        dir: Option<PathBuf>,
    ) -> Self {
        let mut log = Self {
            spec_json,
            base,
            snapshot,
            snapshot_generation,
            frames,
            threshold,
            compactions: 0,
            dir,
            appender: None,
        };
        log.rewrite_disk();
        log
    }

    /// First store row the journal does **not** cover.
    pub(crate) fn tip(&self) -> usize {
        self.base + self.frames.len()
    }

    /// Append one accepted release frame (row `tip()`), persisting the
    /// record when a journal file is open.
    pub(crate) fn append(&mut self, frame: Vec<u8>) {
        if let Some(file) = &mut self.appender {
            let record = journal_record(&frame);
            if file.write_all(&record).and_then(|()| file.flush()).is_err() {
                // Disk went away mid-run: degrade to in-memory rather
                // than leave a half journal that would load as torn.
                self.appender = None;
                self.dir = None;
            }
        }
        self.frames.push(frame);
    }

    /// Whether the journal suffix has outgrown its threshold.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.threshold > 0 && self.frames.len() >= self.threshold
    }

    /// Install a snapshot covering `[0, rows)` — a compaction fold or a
    /// recovered image — dropping the journal frames it supersedes and
    /// rewriting the disk files (snapshot first; see the module doc's
    /// crash-consistency note).
    pub(crate) fn install_snapshot(&mut self, bytes: Vec<u8>, rows: usize, generation: u64) {
        let covered = rows.saturating_sub(self.base);
        if covered >= self.frames.len() {
            self.frames.clear();
        } else {
            self.frames.drain(..covered);
        }
        self.base = rows;
        self.snapshot = Some(bytes);
        self.snapshot_generation = generation;
        self.rewrite_disk();
    }

    /// Record the accepted spec (journal header rewrite when it
    /// actually changed).
    pub(crate) fn set_spec(&mut self, json: &str) {
        if self.spec_json.as_deref() == Some(json) {
            return;
        }
        self.spec_json = Some(json.to_string());
        self.rewrite_journal();
    }

    /// Rewrite both files to the log's current state: snapshot renamed
    /// into place **before** the journal, so a crash between the two
    /// leaves a snapshot merely ahead of the journal (reconciled by
    /// [`load_dir`] as [`RecoveryNote::JournalStale`]) — never a
    /// journal whose base no snapshot reaches.
    fn rewrite_disk(&mut self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        if let Some(snapshot) = &self.snapshot {
            if write_atomic(&dir.join(SNAPSHOT_FILE), snapshot).is_err() {
                self.dir = None;
                self.appender = None;
                return;
            }
        }
        self.rewrite_journal();
    }

    /// Rewrite `journal.log` (header + every held frame) atomically and
    /// reopen the append handle.
    fn rewrite_journal(&mut self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        let mut bytes = journal_header(self.base as u64, self.spec_json.as_deref());
        for frame in &self.frames {
            bytes.extend_from_slice(&journal_record(frame));
        }
        let path = dir.join(JOURNAL_FILE);
        let reopened =
            write_atomic(&path, &bytes).and_then(|()| OpenOptions::new().append(true).open(&path));
        match reopened {
            Ok(file) => self.appender = Some(file),
            Err(_) => {
                self.dir = None;
                self.appender = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{Construction, SketcherSpec};
    use dp_core::PrivateSketcher;
    use dp_engine::QueryEngine;
    use dp_hashing::Seed;

    fn spec(d: usize) -> SketcherSpec {
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5)
            .build()
            .expect("config");
        SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7))
    }

    fn release_frames(spec: &SketcherSpec, n: usize) -> Vec<Vec<u8>> {
        let d = spec.config().input_dim();
        let sketcher = spec.build().expect("sketcher");
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((5 * i + j) % 11) as f64 - 5.0).collect())
            .collect();
        sketcher
            .sketch_batch(&rows, Seed::new(99))
            .expect("batch")
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| {
                Release {
                    party_id: 400 + i as u64,
                    sketch,
                }
                .to_bytes()
                .expect("frame")
            })
            .collect()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dp-replication-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A store snapshot + the raw frames that grew it to `total` rows,
    /// compacted at `base`: snapshot covers `[0, base)`, frames cover
    /// the rest.
    #[allow(clippy::type_complexity)]
    fn staged_state(base: usize, total: usize) -> (Vec<u8>, usize, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let spec = spec(24);
        let frames = release_frames(&spec, total);
        let mut engine = QueryEngine::new(SketchStore::with_spec(spec).expect("store"));
        for frame in &frames[..base] {
            engine.ingest_bytes(frame).expect("ingest");
        }
        let snapshot = engine.store().encode_snapshot(3);
        let (prefix, suffix) = frames.split_at(base);
        (snapshot, base, prefix.to_vec(), suffix.to_vec())
    }

    #[test]
    fn persisted_log_roundtrips_through_load() {
        let dir = scratch_dir("roundtrip");
        let (snapshot, base, _, suffix) = staged_state(3, 5);
        let spec_json = spec(24).to_json();
        let mut log = ReplicationLog::assemble(
            Some(spec_json.clone()),
            base,
            Some(snapshot.clone()),
            3,
            Vec::new(),
            0,
            Some(dir.clone()),
        );
        for frame in &suffix {
            log.append(frame.clone());
        }
        drop(log);

        let state = load_dir(&dir).expect("loads");
        assert!(state.notes.is_empty(), "{:?}", state.notes);
        assert_eq!(state.spec_json.as_deref(), Some(spec_json.as_str()));
        let (bytes, store, generation) = state.snapshot.expect("snapshot");
        assert_eq!(bytes, snapshot);
        assert_eq!(store.n(), base);
        assert_eq!(generation, 3);
        assert_eq!(state.suffix, suffix);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bitflipped_journal_tails_keep_the_valid_prefix() {
        let (_, _, _, frames) = staged_state(0, 4);
        let dir = scratch_dir("torn-tail");
        let mut log = ReplicationLog::assemble(None, 0, None, 0, Vec::new(), 0, Some(dir.clone()));
        for frame in &frames {
            log.append(frame.clone());
        }
        drop(log);
        let path = dir.join(JOURNAL_FILE);
        let pristine = fs::read(&path).expect("journal");

        // Chop bytes off the tail: every truncation point inside the
        // last record loads the first three frames and a typed note.
        let last_record = journal_record(&frames[3]).len();
        for cut in 1..last_record {
            fs::write(&path, &pristine[..pristine.len() - cut]).expect("truncate");
            let state = load_dir(&dir).expect("loads");
            assert_eq!(state.suffix, frames[..3], "cut {cut}");
            assert_eq!(
                state.notes,
                vec![RecoveryNote::JournalTruncated { kept: 3 }],
                "cut {cut}"
            );
        }

        // Bit-flip inside the third record's frame bytes: two frames
        // survive, the flipped one and its successor are dropped.
        let mut flipped = pristine.clone();
        let third_at = journal_header(0, None).len()
            + journal_record(&frames[0]).len()
            + journal_record(&frames[1]).len();
        flipped[third_at + 6] ^= 0x01;
        fs::write(&path, &flipped).expect("flip");
        let state = load_dir(&dir).expect("loads");
        assert_eq!(state.suffix, frames[..2]);
        assert_eq!(
            state.notes,
            vec![RecoveryNote::JournalTruncated { kept: 2 }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_snapshot_is_ignored_with_a_typed_note() {
        let dir = scratch_dir("flipped-snapshot");
        let (snapshot, base, _, suffix) = staged_state(2, 4);
        let mut log = ReplicationLog::assemble(
            None,
            base,
            Some(snapshot.clone()),
            3,
            Vec::new(),
            0,
            Some(dir.clone()),
        );
        for frame in &suffix {
            log.append(frame.clone());
        }
        drop(log);
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).expect("snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).expect("flip");

        // The snapshot is refused; the journal (base 2) then has no
        // state to attach to, so its frames are dropped too — degraded,
        // typed, and panic-free.
        let state = load_dir(&dir).expect("loads");
        assert!(state.snapshot.is_none());
        assert!(state.suffix.is_empty());
        assert!(
            matches!(state.notes[0], RecoveryNote::SnapshotCorrupt(_)),
            "{:?}",
            state.notes
        );
        assert_eq!(
            state.notes[1],
            RecoveryNote::JournalAhead {
                journal_base: 2,
                snapshot_rows: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_ahead_of_snapshot_keeps_the_snapshot_and_drops_the_journal() {
        let dir = scratch_dir("journal-ahead");
        let (snapshot, _, _, _) = staged_state(2, 2);
        // A journal claiming to start at row 5 while the snapshot holds
        // only 2 rows: the gap [2, 5) is unrecoverable, so the journal
        // must be dropped — attaching its frames at row 2 would be
        // silent divergence.
        let (_, _, _, frames) = staged_state(0, 1);
        let mut bytes = journal_header(5, None);
        bytes.extend_from_slice(&journal_record(&frames[0]));
        write_atomic(&dir.join(SNAPSHOT_FILE), &snapshot).expect("snapshot");
        fs::write(dir.join(JOURNAL_FILE), &bytes).expect("journal");

        let state = load_dir(&dir).expect("loads");
        let (_, store, _) = state.snapshot.expect("snapshot survives");
        assert_eq!(store.n(), 2);
        assert!(state.suffix.is_empty());
        assert_eq!(
            state.notes,
            vec![RecoveryNote::JournalAhead {
                journal_base: 5,
                snapshot_rows: 2
            }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_behind_the_snapshot_is_superseded() {
        // The crash window: snapshot renamed into place, journal not
        // yet rewritten. The old journal (base 0, 1 frame) is wholly
        // covered by the 3-row snapshot and must be dropped, not
        // replayed on top.
        let dir = scratch_dir("stale-journal");
        let (snapshot, _, frames, _) = staged_state(3, 3);
        write_atomic(&dir.join(SNAPSHOT_FILE), &snapshot).expect("snapshot");
        let mut bytes = journal_header(0, None);
        bytes.extend_from_slice(&journal_record(&frames[0]));
        fs::write(dir.join(JOURNAL_FILE), &bytes).expect("journal");

        let state = load_dir(&dir).expect("loads");
        let (_, store, _) = state.snapshot.expect("snapshot survives");
        assert_eq!(store.n(), 3);
        assert!(state.suffix.is_empty());
        assert_eq!(
            state.notes,
            vec![RecoveryNote::JournalStale {
                journal_tip: 1,
                snapshot_rows: 3
            }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_header_drops_the_journal_only() {
        let dir = scratch_dir("bad-header");
        let (snapshot, _, _, _) = staged_state(2, 2);
        write_atomic(&dir.join(SNAPSHOT_FILE), &snapshot).expect("snapshot");
        fs::write(dir.join(JOURNAL_FILE), b"not a journal at all").expect("garbage");

        let state = load_dir(&dir).expect("loads");
        assert!(state.snapshot.is_some());
        assert!(state.suffix.is_empty());
        assert!(
            matches!(state.notes[..], [RecoveryNote::JournalHeaderCorrupt(_)]),
            "{:?}",
            state.notes
        );
        // An empty directory, by contrast, is clean absence: no notes.
        let fresh = scratch_dir("fresh");
        let state = load_dir(&fresh).expect("loads");
        assert!(!state.holds_state());
        assert!(state.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&fresh);
    }

    #[test]
    fn install_snapshot_supersedes_the_covered_frames() {
        let dir = scratch_dir("compaction");
        let (_, _, _, frames) = staged_state(0, 6);
        let mut log = ReplicationLog::assemble(None, 0, None, 0, Vec::new(), 4, Some(dir.clone()));
        for frame in &frames[..4] {
            log.append(frame.clone());
        }
        assert!(log.needs_compaction());
        let (snapshot, ..) = staged_state(4, 4);
        log.install_snapshot(snapshot.clone(), 4, 3);
        assert_eq!(log.base, 4);
        assert!(log.frames.is_empty());
        assert!(!log.needs_compaction());
        // Appends after the fold extend the new suffix, on disk too.
        for frame in &frames[4..] {
            log.append(frame.clone());
        }
        assert_eq!(log.tip(), 6);
        drop(log);

        let state = load_dir(&dir).expect("loads");
        assert!(state.notes.is_empty(), "{:?}", state.notes);
        let (bytes, store, generation) = state.snapshot.expect("snapshot");
        assert_eq!(bytes, snapshot);
        assert_eq!(store.n(), 4);
        assert_eq!(generation, 3);
        assert_eq!(state.suffix, frames[4..]);
        let _ = fs::remove_dir_all(&dir);
    }
}
