//! Crash-safe campaign checkpoint journal.
//!
//! A [`CampaignJournal`] records each completed unit of campaign work — a
//! Monte Carlo grade pack or a fault-simulation chunk — keyed by a record
//! kind and a pack/chunk index, together with a fingerprint tying the file
//! to one `(design, seed, config)` tuple. Payloads are opaque `u64` word
//! vectors; callers encode their results (e.g. `f64::to_bits`) so the
//! journal itself stays dependency-free and format-stable.
//!
//! The file is an append-only log. Each `record` appends one line and
//! syncs the file's data before it returns, so every record `record` has
//! returned for survives a crash. A `SIGKILL` mid-append leaves at most
//! one torn final line, which [`CampaignJournal::open`] drops: that one
//! unit of work recomputes. The whole file is rewritten only by `create`
//! and by `open` repairing a file: the text goes to `<path>.tmp`, which is
//! synced and renamed over `<path>` before the directory is synced, so a
//! kill during a rewrite leaves either the old or the new file. Every line
//! carries a CRC32 checksum; a damaged line anywhere but at the end is
//! rejected at load with a descriptive error.
//!
//! The on-disk format is line-oriented text:
//!
//! ```text
//! sfr-journal v1
//! <crc32> H <fingerprint> <label>
//! <crc32> R <kind> <id> <n> <word>...
//! ```
//!
//! where `<crc32>` is the checksum of the rest of the line and all numeric
//! fields are lower-case hex. Records are append-ordered. Re-recording an
//! existing key with an identical payload is a no-op; a different payload
//! appends a superseding line, and the key keeps its first position with
//! the last payload.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What kind of campaign work a record checkpoints.
///
/// The kind is part of the record key, so fault-simulation chunks and grade
/// packs can share one journal file without their indices colliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// One fault-simulation chunk (classification phase).
    FaultSim,
    /// One Monte Carlo power-grading pack.
    GradePack,
}

impl RecordKind {
    fn tag(self) -> &'static str {
        match self {
            RecordKind::FaultSim => "faultsim",
            RecordKind::GradePack => "grade",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "faultsim" => Some(RecordKind::FaultSim),
            "grade" => Some(RecordKind::GradePack),
            _ => None,
        }
    }

    /// The canonical cross-link key of record `(self, id)` — the id
    /// observability traces use to point an incident at the journal
    /// entry that replays it (`"grade/3"`, `"faultsim/0"`).
    pub fn key(self, id: u64) -> String {
        format!("{}/{id}", self.tag())
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Errors surfaced when opening or validating a journal.
///
/// Write-side I/O failures during [`CampaignJournal::record`] deliberately do
/// *not* appear here: a study must not abort because its checkpoint device
/// filled up, so the journal instead degrades to in-memory operation and
/// reports the failure through [`CampaignJournal::degradation`].
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error while opening, reading, or creating the journal.
    Io { path: PathBuf, source: io::Error },
    /// The file exists but is not a loadable journal.
    Corrupt {
        path: PathBuf,
        line: usize,
        message: String,
    },
    /// The journal was written by a campaign with a different fingerprint
    /// (different design, seed, or configuration).
    Mismatch {
        path: PathBuf,
        expected: u64,
        found: u64,
        label: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::Corrupt {
                path,
                line,
                message,
            } => {
                write!(
                    f,
                    "journal {} is corrupt at line {line}: {message}",
                    path.display()
                )
            }
            JournalError::Mismatch {
                path,
                expected,
                found,
                label,
            } => {
                write!(
                    f,
                    "journal {} belongs to a different campaign \
                     (fingerprint {found:016x} [{label}], this run is {expected:016x}); \
                     delete the file or point --checkpoint/--resume elsewhere",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

const MAGIC: &str = "sfr-journal v1";

/// CRC32 (IEEE 802.3, reflected) over `bytes`. Table-free bitwise variant:
/// journal lines are short and written once per completed pack, so
/// simplicity beats throughput here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// `body` as one journal line: its CRC32, a space, `body`, a newline.
fn sealed_line(body: &str) -> String {
    format!("{:08x} {body}\n", crc32(body.as_bytes()))
}

/// The body of the line recording `words` under `(kind, id)`.
fn record_body(kind: RecordKind, id: u64, words: &[u64]) -> String {
    let mut body = format!("R {kind} {id:x} {:x}", words.len());
    for w in words {
        body.push_str(&format!(" {w:x}"));
    }
    body
}

/// Pack a UTF-8 string into `u64` words (length-prefixed, little-endian
/// bytes) so free-form text such as panic messages can ride in a journal
/// payload.
pub fn encode_str(s: &str) -> Vec<u64> {
    let bytes = s.as_bytes();
    let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
    words
}

/// Inverse of [`encode_str`]. Returns the decoded string and the number of
/// words consumed, or `None` if the words do not describe a valid string.
pub fn decode_str(words: &[u64]) -> Option<(String, usize)> {
    let (&len, rest) = words.split_first()?;
    let len = usize::try_from(len).ok()?;
    let n_words = len.div_ceil(8);
    if rest.len() < n_words {
        return None;
    }
    let mut bytes = Vec::with_capacity(len);
    for &w in &rest[..n_words] {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).ok().map(|s| (s, 1 + n_words))
}

#[derive(Debug)]
struct JournalState {
    records: BTreeMap<(RecordKind, u64), Vec<u64>>,
    /// Append order of keys, preserved across save/load so resumed files
    /// serialise identically to uninterrupted ones.
    order: Vec<(RecordKind, u64)>,
    /// Append handle on the journal file, opened by the first append after
    /// each rewrite (a rename leaves an open handle on the replaced file).
    file: Option<File>,
    /// First write-side failure, if any; once set, persistence stops and the
    /// journal runs in-memory only.
    degraded: Option<String>,
    /// Set when [`CampaignJournal::open`] recovered from a torn final line
    /// (crash-truncated or CRC-failing tail) by dropping it.
    torn_tail: Option<String>,
}

/// An append-only, checksummed checkpoint journal, synced per record.
///
/// Thread-safe: `record` takes `&self` and may be called concurrently from
/// campaign worker threads; an internal mutex serialises writes.
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    fingerprint: u64,
    label: String,
    state: Mutex<JournalState>,
}

impl CampaignJournal {
    /// Create a fresh journal at `path`, replacing any existing file.
    ///
    /// `fingerprint` ties the file to one campaign configuration; `label` is
    /// a human-readable description stored alongside it (e.g. the study
    /// name) and must not contain newlines.
    pub fn create(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        label: &str,
    ) -> Result<Self, JournalError> {
        let journal = CampaignJournal {
            path: path.into(),
            fingerprint,
            label: label.replace(['\n', '\r'], " "),
            state: Mutex::new(JournalState {
                records: BTreeMap::new(),
                order: Vec::new(),
                file: None,
                degraded: None,
                torn_tail: None,
            }),
        };
        journal
            .persist(&mut journal.lock())
            .map_err(|source| JournalError::Io {
                path: journal.path.clone(),
                source,
            })?;
        Ok(journal)
    }

    /// Open an existing journal, verifying magic and per-line checksums.
    ///
    /// A damaged **final** line — the signature of a crash- or
    /// storage-truncated tail, whatever bytes it holds — is tolerated: the
    /// tail is dropped (that unit of work recomputes) and
    /// [`Self::torn_tail`] reports what happened. Damage anywhere else
    /// still rejects the file as [`JournalError::Corrupt`].
    ///
    /// A file whose bytes differ from what the loaded records serialise to
    /// — a dropped tail, a final line without its newline, superseded
    /// records — is rewritten before anything is appended to it; an append
    /// would otherwise glue onto an unterminated final line.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let bytes = fs::read(&path).map_err(|source| JournalError::Io {
            path: path.clone(),
            source,
        })?;
        let journal = Self::parse(path, &bytes)?;
        {
            let mut state = journal.lock();
            if journal.serialize(&state).as_bytes() != bytes {
                // A write failure here degrades exactly like a failed
                // record(): the campaign still runs.
                if let Err(err) = journal.persist(&mut state) {
                    journal.degrade(&mut state, &err);
                }
            }
        }
        Ok(journal)
    }

    /// Open `path` if it exists (validating its fingerprint against
    /// `fingerprint`), otherwise create it. This is the `--checkpoint`
    /// entry point: the first run creates the file and an interrupted rerun
    /// picks up where it left off.
    pub fn open_or_create(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        label: &str,
    ) -> Result<Self, JournalError> {
        let path = path.into();
        if path.exists() {
            let journal = Self::open(&path)?;
            journal.check_fingerprint(fingerprint)?;
            Ok(journal)
        } else {
            Self::create(path, fingerprint, label)
        }
    }

    /// Verify this journal belongs to the campaign identified by `expected`.
    pub fn check_fingerprint(&self, expected: u64) -> Result<(), JournalError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(JournalError::Mismatch {
                path: self.path.clone(),
                expected,
                found: self.fingerprint,
                label: self.label.clone(),
            })
        }
    }

    fn parse(path: PathBuf, bytes: &[u8]) -> Result<Self, JournalError> {
        let corrupt = |line: usize, message: String| JournalError::Corrupt {
            path: path.clone(),
            line,
            message,
        };
        if bytes.is_empty() {
            return Err(corrupt(1, "empty file".to_string()));
        }
        // The lines `str::lines` would give, split as bytes: a torn append
        // can leave any bytes at all in the final line.
        let mut lines = bytes
            .strip_suffix(b"\n")
            .unwrap_or(bytes)
            .split(|&b| b == b'\n')
            .map(|line| line.strip_suffix(b"\r").unwrap_or(line));
        let magic = lines.next().unwrap_or_default();
        if magic != MAGIC.as_bytes() {
            let found = String::from_utf8_lossy(magic);
            return Err(corrupt(1, format!("bad magic {found:?}, want {MAGIC:?}")));
        }

        let mut fingerprint = None;
        let mut label = String::new();
        let mut records = BTreeMap::new();
        let mut order = Vec::new();
        let mut torn_tail = None;

        let body_lines: Vec<&[u8]> = lines.collect();
        let last_nonempty = body_lines.iter().rposition(|l| !l.is_empty());
        for (pos, line) in body_lines.iter().enumerate() {
            // Line 1 is the magic.
            let lineno = pos + 2;
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line)
                .map_err(|err| corrupt(lineno, err.to_string()))
                .and_then(|line| {
                    Self::parse_line(
                        &corrupt,
                        lineno,
                        line,
                        &mut fingerprint,
                        &mut label,
                        &mut records,
                        &mut order,
                    )
                });
            if let Err(err) = parsed {
                // A damaged *final* record line is the signature of a
                // crash-truncated (or storage-torn) tail: everything
                // before it checks out, so the journal recovers by
                // dropping the tail — that one unit of work simply
                // recomputes. Damage anywhere else (or before a valid
                // header exists) still rejects the file.
                if Some(pos) == last_nonempty && fingerprint.is_some() {
                    let detail = match &err {
                        JournalError::Corrupt { message, .. } => message.clone(),
                        other => other.to_string(),
                    };
                    torn_tail = Some(format!("dropped torn final line {lineno}: {detail}"));
                    break;
                }
                return Err(err);
            }
        }

        let fingerprint = fingerprint.ok_or_else(|| {
            corrupt(
                1,
                "no header line; file was never completely written".to_string(),
            )
        })?;
        Ok(CampaignJournal {
            path,
            fingerprint,
            label,
            state: Mutex::new(JournalState {
                records,
                order,
                file: None,
                degraded: None,
                torn_tail,
            }),
        })
    }

    /// Parses one non-empty journal line into the accumulating state.
    #[allow(clippy::too_many_arguments)]
    fn parse_line(
        corrupt: &dyn Fn(usize, String) -> JournalError,
        lineno: usize,
        line: &str,
        fingerprint: &mut Option<u64>,
        label: &mut String,
        records: &mut BTreeMap<(RecordKind, u64), Vec<u64>>,
        order: &mut Vec<(RecordKind, u64)>,
    ) -> Result<(), JournalError> {
        let (crc_field, body) = line
            .split_once(' ')
            .ok_or_else(|| corrupt(lineno, "missing checksum field".to_string()))?;
        let crc = u32::from_str_radix(crc_field, 16)
            .map_err(|_| corrupt(lineno, format!("bad checksum field {crc_field:?}")))?;
        let actual = crc32(body.as_bytes());
        if crc != actual {
            return Err(corrupt(
                lineno,
                format!("checksum mismatch: stored {crc:08x}, computed {actual:08x}"),
            ));
        }
        let mut fields = body.split(' ');
        match fields.next() {
            Some("H") => {
                let fp_field = fields
                    .next()
                    .ok_or_else(|| corrupt(lineno, "header missing fingerprint".into()))?;
                let fp = u64::from_str_radix(fp_field, 16)
                    .map_err(|_| corrupt(lineno, format!("bad fingerprint {fp_field:?}")))?;
                *fingerprint = Some(fp);
                *label = fields.collect::<Vec<_>>().join(" ");
            }
            Some("R") => {
                let kind_field = fields
                    .next()
                    .ok_or_else(|| corrupt(lineno, "record missing kind".into()))?;
                let kind = RecordKind::from_tag(kind_field)
                    .ok_or_else(|| corrupt(lineno, format!("unknown kind {kind_field:?}")))?;
                let id_field = fields
                    .next()
                    .ok_or_else(|| corrupt(lineno, "record missing id".into()))?;
                let id = u64::from_str_radix(id_field, 16)
                    .map_err(|_| corrupt(lineno, format!("bad id {id_field:?}")))?;
                let n_field = fields
                    .next()
                    .ok_or_else(|| corrupt(lineno, "record missing length".into()))?;
                let n = usize::from_str_radix(n_field, 16)
                    .map_err(|_| corrupt(lineno, format!("bad length {n_field:?}")))?;
                // The length field is only checked against the words
                // actually present, never trusted as an allocation size.
                let words = fields
                    .map(|w| {
                        u64::from_str_radix(w, 16)
                            .map_err(|_| corrupt(lineno, format!("bad word {w:?}")))
                    })
                    .collect::<Result<Vec<u64>, _>>()?;
                if words.len() != n {
                    return Err(corrupt(
                        lineno,
                        format!("length says {n} words, line has {}", words.len()),
                    ));
                }
                let key = (kind, id);
                if records.insert(key, words).is_none() {
                    order.push(key);
                }
            }
            Some(other) => {
                return Err(corrupt(lineno, format!("unknown line tag {other:?}")));
            }
            None => return Err(corrupt(lineno, "blank body".into())),
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalState> {
        // A panic while holding the lock leaves only fully-written in-memory
        // state behind (records are inserted atomically), so the poisoned
        // state is still valid.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The fingerprint this journal was created with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Human-readable campaign label stored in the header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Path of the on-disk journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of checkpointed records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True if no work has been checkpointed yet.
    pub fn is_empty(&self) -> bool {
        self.lock().records.is_empty()
    }

    /// Fetch the payload checkpointed for `(kind, id)`, if any.
    pub fn get(&self, kind: RecordKind, id: u64) -> Option<Vec<u64>> {
        self.lock().records.get(&(kind, id)).cloned()
    }

    /// All records in append order — `(kind, id, payload)` triples. Used by
    /// tests to build truncated journals simulating a mid-campaign kill.
    pub fn entries(&self) -> Vec<(RecordKind, u64, Vec<u64>)> {
        let state = self.lock();
        state
            .order
            .iter()
            .filter_map(|key| state.records.get(key).map(|w| (key.0, key.1, w.clone())))
            .collect()
    }

    /// If a write-side I/O error occurred, the message describing it. The
    /// journal keeps operating in memory after such a failure so the study
    /// itself still completes; callers surface this as an incident.
    pub fn degradation(&self) -> Option<String> {
        self.lock().degraded.clone()
    }

    /// If [`Self::open`] recovered from a torn final line by dropping it,
    /// the message describing the recovery. The dropped unit of work is
    /// simply recomputed by the resuming campaign.
    pub fn torn_tail(&self) -> Option<String> {
        self.lock().torn_tail.clone()
    }

    /// Checkpoint `(kind, id)` with `words`: append one line to the journal
    /// file and sync its data before returning, so the record survives a
    /// crash from then on. Re-recording an identical payload is a no-op
    /// that writes nothing. A different payload appends a superseding
    /// line; [`Self::get`], [`Self::entries`] and a reload return it, at
    /// the key's first position.
    ///
    /// Never fails the campaign: on I/O error the journal degrades to
    /// in-memory operation (see [`Self::degradation`]).
    pub fn record(&self, kind: RecordKind, id: u64, words: &[u64]) {
        let mut state = self.lock();
        let key = (kind, id);
        if state.records.get(&key).is_some_and(|old| old == words) {
            return;
        }
        if state.records.insert(key, words.to_vec()).is_none() {
            state.order.push(key);
        }
        if state.degraded.is_none() {
            let line = sealed_line(&record_body(kind, id, words));
            if let Err(err) = self.append(&mut state, &line) {
                self.degrade(&mut state, &err);
            }
        }
    }

    /// Appends `line` through the state's append handle, opening it if a
    /// rewrite dropped it, and syncs the file's data.
    fn append(&self, state: &mut JournalState, line: &str) -> io::Result<()> {
        let file = match &mut state.file {
            Some(file) => file,
            None => state
                .file
                .insert(OpenOptions::new().append(true).open(&self.path)?),
        };
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }

    /// Stops persistence after the write-side failure `err`.
    fn degrade(&self, state: &mut JournalState, err: &io::Error) {
        state.file = None;
        state.degraded = Some(format!(
            "checkpoint persistence disabled after I/O error on {}: {err}",
            self.path.display()
        ));
    }

    fn serialize(&self, state: &JournalState) -> String {
        let header = if self.label.is_empty() {
            format!("H {:016x}", self.fingerprint)
        } else {
            format!("H {:016x} {}", self.fingerprint, self.label)
        };
        let mut out = format!("{MAGIC}\n{}", sealed_line(&header));
        for key in &state.order {
            if let Some(words) = state.records.get(key) {
                out.push_str(&sealed_line(&record_body(key.0, key.1, words)));
            }
        }
        out
    }

    /// Rewrites the whole journal — write `<path>.tmp`, sync it, rename it
    /// over `<path>`, sync the directory — so a kill at any instant leaves
    /// either the old or the new file. Only `create` and a repair in
    /// `open` rewrite; `record` appends. The append handle still points at
    /// the replaced file, so it is dropped and the next append reopens.
    fn persist(&self, state: &mut JournalState) -> io::Result<()> {
        state.file = None;
        let text = self.serialize(state);
        let tmp = self.path.with_extension("journal.tmp");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Syncing the directory makes the rename itself durable; some
            // filesystems do not allow opening a directory for sync, so
            // treat that as best-effort.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sfr-journal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_records_through_disk() {
        let path = tmp_path("roundtrip");
        let j = CampaignJournal::create(&path, 0xDEAD_BEEF, "poly w=8").expect("create");
        j.record(RecordKind::GradePack, 0, &[1, 2, 3]);
        j.record(RecordKind::FaultSim, 7, &[u64::MAX]);
        j.record(RecordKind::GradePack, 1, &[]);
        assert!(j.degradation().is_none());

        let r = CampaignJournal::open(&path).expect("open");
        assert_eq!(r.fingerprint(), 0xDEAD_BEEF);
        assert_eq!(r.label(), "poly w=8");
        assert_eq!(r.get(RecordKind::GradePack, 0), Some(vec![1, 2, 3]));
        assert_eq!(r.get(RecordKind::FaultSim, 7), Some(vec![u64::MAX]));
        assert_eq!(r.get(RecordKind::GradePack, 1), Some(vec![]));
        assert_eq!(r.get(RecordKind::GradePack, 2), None);
        assert_eq!(r.len(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_or_create_validates_fingerprint() {
        let path = tmp_path("fingerprint");
        CampaignJournal::create(&path, 42, "a").expect("create");
        let ok = CampaignJournal::open_or_create(&path, 42, "a");
        assert!(ok.is_ok());
        let err = CampaignJournal::open_or_create(&path, 43, "b");
        match err {
            Err(JournalError::Mismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 43);
                assert_eq!(found, 42);
            }
            other => panic!("want Mismatch, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_line_is_rejected_with_location() {
        let path = tmp_path("corrupt");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[0xAB]);
        j.record(RecordKind::GradePack, 1, &[0xCD]);
        let mut text = fs::read_to_string(&path).expect("read");
        // Flip a payload character in the FIRST record without updating
        // its checksum: mid-file damage is never torn-tail recoverable.
        text = text.replace(" ab", " ac");
        fs::write(&path, text).expect("write");
        match CampaignJournal::open(&path) {
            Err(JournalError::Corrupt { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("want Corrupt, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_final_line_is_recovered_as_torn_tail() {
        let path = tmp_path("torn-crc");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[0xAB]);
        j.record(RecordKind::GradePack, 1, &[0xCD]);
        let mut text = fs::read_to_string(&path).expect("read");
        // Damage the FINAL record's payload without updating its
        // checksum — indistinguishable from a storage-torn tail.
        text = text.replace(" cd", " ce");
        fs::write(&path, text).expect("write");
        let r = CampaignJournal::open(&path).expect("torn tail recovers");
        assert_eq!(r.get(RecordKind::GradePack, 0), Some(vec![0xAB]));
        assert_eq!(r.get(RecordKind::GradePack, 1), None, "tail dropped");
        let note = r.torn_tail().expect("recovery reported");
        assert!(note.contains("line 4"), "{note}");
        assert!(r.degradation().is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rerecording_same_payload_is_idempotent() {
        let path = tmp_path("idempotent");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 3, &[9, 9]);
        j.record(RecordKind::GradePack, 3, &[9, 9]);
        assert_eq!(j.len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_different_payload_supersedes_at_the_first_position() {
        let path = tmp_path("supersede");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[2, 40]);
        j.record(RecordKind::GradePack, 1, &[1]);
        j.record(RecordKind::GradePack, 0, &[0, 6]);
        let want = vec![
            (RecordKind::GradePack, 0, vec![0, 6]),
            (RecordKind::GradePack, 1, vec![1]),
        ];
        assert_eq!(j.get(RecordKind::GradePack, 0), Some(vec![0, 6]));
        assert_eq!(j.entries(), want);
        let r = CampaignJournal::open(&path).expect("open");
        assert_eq!(r.entries(), want);
        assert!(r.torn_tail().is_none());
        // The reload rewrote the file without the superseded line.
        assert_eq!(
            fs::read_to_string(&path).expect("read"),
            r.serialize(&r.lock())
        );
        let _ = fs::remove_file(&path);
    }

    /// Each record costs one appended line and no rename: the file keeps
    /// its inode, and its bytes grow by exactly the new line.
    #[cfg(unix)]
    #[test]
    fn records_append_in_place() {
        use std::os::unix::fs::MetadataExt;
        let path = tmp_path("append");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        let inode = fs::metadata(&path).expect("stat").ino();
        let mut bytes = fs::read(&path).expect("read");
        for (id, words, body) in [
            (0, vec![1, 2, 3], "R grade 0 3 1 2 3"),
            (10, vec![], "R grade a 0"),
            (0, vec![0xab], "R grade 0 1 ab"),
        ] {
            j.record(RecordKind::GradePack, id, &words);
            bytes.extend_from_slice(format!("{}\n", sealed(body)).as_bytes());
            assert_eq!(fs::read(&path).expect("read"), bytes, "{body}");
            assert_eq!(fs::metadata(&path).expect("stat").ino(), inode, "{body}");
            j.record(RecordKind::GradePack, id, &words);
            assert_eq!(fs::read(&path).expect("read"), bytes, "{body} again");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invalid_utf8_in_the_final_line_is_a_torn_tail() {
        let path = tmp_path("utf8-tail");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[0xAB]);
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(b"4f2d R grade 1 1 \xff\xfe");
        fs::write(&path, &bytes).expect("write");
        let r = CampaignJournal::open(&path).expect("torn tail recovers");
        assert_eq!(r.get(RecordKind::GradePack, 0), Some(vec![0xAB]));
        assert_eq!(r.len(), 1, "tail dropped");
        let note = r.torn_tail().expect("recovery reported");
        assert!(note.contains("line 4") && note.contains("utf-8"), "{note}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invalid_utf8_before_the_final_line_is_corrupt() {
        let path = tmp_path("utf8-mid");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[0xAB]);
        j.record(RecordKind::GradePack, 1, &[0xCD]);
        let mut bytes = fs::read(&path).expect("read");
        let at = bytes
            .windows(3)
            .position(|w| w == b" ab")
            .expect("first payload word");
        bytes[at + 1] = 0xff;
        fs::write(&path, &bytes).expect("write");
        match CampaignJournal::open(&path) {
            Err(JournalError::Corrupt { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("utf-8"), "{message}");
            }
            other => panic!("want Corrupt, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_recovers_and_resumes_cleanly() {
        // A kill mid-append leaves a torn final line: the journal drops
        // it, keeps every intact record, and persists the truncation so
        // the next open is clean.
        let path = tmp_path("torn");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 0, &[10, 20]);
        j.record(RecordKind::GradePack, 1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let text = fs::read_to_string(&path).expect("read");
        let cut = text.len() - 5;
        fs::write(&path, &text[..cut]).expect("write");
        let r = CampaignJournal::open(&path).expect("torn tail recovers");
        assert_eq!(r.get(RecordKind::GradePack, 0), Some(vec![10, 20]));
        assert_eq!(r.get(RecordKind::GradePack, 1), None, "torn record lost");
        assert!(r.torn_tail().is_some());
        // The truncation was persisted: re-recording the lost pack and
        // reopening yields a fully intact journal with no recovery note.
        r.record(RecordKind::GradePack, 1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let clean = CampaignJournal::open(&path).expect("reopen");
        assert!(clean.torn_tail().is_none());
        assert_eq!(
            clean.get(RecordKind::GradePack, 1),
            Some(vec![1, 2, 3, 4, 5, 6, 7, 8])
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncation_before_any_record_still_rejects() {
        // A torn HEADER is not recoverable: without a fingerprint the
        // file cannot be tied to a campaign.
        let path = tmp_path("torn-header");
        CampaignJournal::create(&path, 1, "x").expect("create");
        let text = fs::read_to_string(&path).expect("read");
        let cut = text.len() - 3;
        fs::write(&path, &text[..cut]).expect("write");
        assert!(matches!(
            CampaignJournal::open(&path),
            Err(JournalError::Corrupt { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn str_payloads_roundtrip() {
        for s in ["", "x", "panic: index out of bounds — lane 64", "exactly8!"] {
            let words = encode_str(s);
            let (back, used) = decode_str(&words).expect("decode");
            assert_eq!(back, s);
            assert_eq!(used, words.len());
        }
        assert!(decode_str(&[]).is_none());
        assert!(decode_str(&[100]).is_none()); // claims 100 bytes, has none
    }

    #[test]
    fn entries_preserve_append_order() {
        let path = tmp_path("order");
        let j = CampaignJournal::create(&path, 1, "x").expect("create");
        j.record(RecordKind::GradePack, 5, &[5]);
        j.record(RecordKind::GradePack, 1, &[1]);
        j.record(RecordKind::FaultSim, 0, &[0]);
        let e = j.entries();
        assert_eq!(
            e.iter().map(|(k, i, _)| (*k, *i)).collect::<Vec<_>>(),
            vec![
                (RecordKind::GradePack, 5),
                (RecordKind::GradePack, 1),
                (RecordKind::FaultSim, 0),
            ]
        );
        // Order survives a reload.
        let r = CampaignJournal::open(&path).expect("open");
        assert_eq!(r.entries(), e);
        let _ = fs::remove_file(&path);
    }

    /// `body` as a journal line with a valid checksum.
    fn sealed(body: &str) -> String {
        format!("{:08x} {body}", crc32(body.as_bytes()))
    }

    #[test]
    fn huge_length_field_is_checked_against_the_words_present() {
        // A checksum-valid record claiming 2^60 words must not size an
        // allocation: its count is compared with the words present.
        let hostile = sealed("R grade 0 fffffffffffffff 1");
        let header = sealed("H 0000000000000001 x");
        let good = sealed("R grade 1 1 cd");
        let path = tmp_path("huge-length");

        let mid_file = format!("{MAGIC}\n{header}\n{hostile}\n{good}\n");
        fs::write(&path, &mid_file).expect("write");
        match CampaignJournal::open(&path) {
            Err(JournalError::Corrupt { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("length says"), "{message}");
            }
            other => panic!("want Corrupt, got {other:?}"),
        }
        assert_eq!(fs::read_to_string(&path).expect("read"), mid_file);

        fs::write(&path, format!("{MAGIC}\n{header}\n{good}\n{hostile}\n")).expect("write");
        let r = CampaignJournal::open(&path).expect("torn tail recovers");
        assert_eq!(r.get(RecordKind::GradePack, 1), Some(vec![0xCD]));
        assert_eq!(r.get(RecordKind::GradePack, 0), None, "tail dropped");
        let note = r.torn_tail().expect("recovery reported");
        assert!(note.contains("line 4"), "{note}");
        let _ = fs::remove_file(&path);
    }

    /// One damage to a journal file.
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Replace one field of one line and re-seal the line's
        /// checksum, so the damage reaches the field parsers.
        Field {
            line: usize,
            field: usize,
            token: &'static str,
        },
        /// Overwrite one byte, leaving checksums as they were.
        Byte { at: usize, byte: u8 },
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        let token = prop_oneof![
            Just("fffffffffffffff"),
            Just("ffffffffffffffff"),
            Just("10000000000000000"),
            Just("0"),
            Just("2"),
            Just("-1"),
            Just("+1"),
            Just(""),
            Just("0 0"),
            Just("zz"),
            Just("R"),
            Just("H"),
            Just("grade"),
            Just("faultsim"),
        ];
        prop_oneof![
            (any::<usize>(), any::<usize>(), token)
                .prop_map(|(line, field, token)| Mutation::Field { line, field, token }),
            (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Byte { at, byte }),
        ]
    }

    fn apply(text: &str, m: &Mutation) -> Vec<u8> {
        match *m {
            Mutation::Field { line, field, token } => {
                let lines: Vec<&str> = text.lines().collect();
                // Line 0 is the magic; every later line is sealed.
                let target = 1 + line % (lines.len() - 1);
                let body = lines[target].split_once(' ').map_or("", |(_, b)| b);
                let mut fields: Vec<&str> = body.split(' ').collect();
                let at = field % fields.len();
                fields[at] = token;
                let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                out[target] = sealed(&fields.join(" "));
                (out.join("\n") + "\n").into_bytes()
            }
            Mutation::Byte { at, byte } => {
                let mut bytes = text.as_bytes().to_vec();
                let at = at % bytes.len();
                bytes[at] = byte;
                bytes
            }
        }
    }

    /// The journal every mutation and cut case damages: one create and
    /// three records. Each of them syncs the file, so the text is built
    /// once rather than once per case.
    fn base_journal_text() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let path = tmp_path("mutation-base");
            let j = CampaignJournal::create(&path, 0xFEED, "poly w=4").expect("create");
            j.record(RecordKind::FaultSim, 0, &[7, 0, u64::MAX]);
            j.record(RecordKind::GradePack, 0, &[1, 2, 3]);
            j.record(RecordKind::GradePack, 1, &encode_str("lane panic"));
            let text = fs::read_to_string(&path).expect("read");
            let _ = fs::remove_file(&path);
            text
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_str_never_panics_on_arbitrary_words(
            words in prop::collection::vec(any::<u64>(), 0..16),
        ) {
            let _ = decode_str(&words);
        }

        /// A plausible length word in front of arbitrary payload words
        /// reaches the UTF-8 check instead of stopping at the length.
        #[test]
        fn decode_str_never_panics_on_short_lengths(
            len in 0u64..128,
            payload in prop::collection::vec(any::<u64>(), 0..16),
        ) {
            let mut words = vec![len];
            words.extend(payload);
            if let Some((s, used)) = decode_str(&words) {
                prop_assert_eq!(s.len() as u64, len);
                prop_assert!(used <= words.len());
            }
        }

        #[test]
        fn decode_str_inverts_encode_str(
            codes in prop::collection::vec(any::<u32>(), 0..40),
            trailing in prop::collection::vec(any::<u64>(), 0..4),
        ) {
            // The top two bits pick a range, so ASCII, the BMP and the
            // higher planes all occur; surrogates drop out.
            let s: String = codes
                .iter()
                .filter_map(|&c| match c >> 30 {
                    0 => char::from_u32(c & 0x7f),
                    1 => char::from_u32(c & 0xffff),
                    _ => char::from_u32(c % 0x11_0000),
                })
                .collect();
            let mut words = encode_str(&s);
            let n = words.len();
            // Words after the string belong to the next field and are
            // left unread.
            words.extend(trailing);
            prop_assert_eq!(decode_str(&words), Some((s.clone(), n)));
        }

        #[test]
        fn open_never_panics_and_leaves_rejected_files_untouched(m in mutation()) {
            let path = tmp_path("mutated");
            let mutated = apply(base_journal_text(), &m);
            fs::write(&path, &mutated).expect("write");
            if CampaignJournal::open(&path).is_err() {
                prop_assert_eq!(fs::read(&path).expect("read back"), mutated);
            }
            let _ = fs::remove_file(&path);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A kill mid-append cuts the last record line anywhere, down to
        /// all of it but its newline (`lost` 0). The cut file opens, takes
        /// one more record and reopens with every record whose line body
        /// survived, and ends up exactly as its records serialise.
        #[test]
        fn a_journal_cut_mid_append_recovers_and_appends(
            lost in prop_oneof![Just(0usize), any::<usize>()],
        ) {
            let text = base_journal_text();
            let base = CampaignJournal::parse(PathBuf::new(), text.as_bytes())
                .expect("base parses")
                .entries();
            let newline = text.len() - 1;
            let line_start = text[..newline].rfind('\n').expect("several lines") + 1;
            let cut = newline - lost % (newline - line_start + 1);
            let path = tmp_path("cut");
            fs::write(&path, &text.as_bytes()[..cut]).expect("write");

            let j = CampaignJournal::open(&path).expect("a cut tail is not corrupt");
            j.record(RecordKind::FaultSim, 9, &[0xAB]);
            let r = CampaignJournal::open(&path).expect("reopens");
            let survivors = if cut == newline { base.len() } else { base.len() - 1 };
            let mut want = base[..survivors].to_vec();
            want.push((RecordKind::FaultSim, 9, vec![0xAB]));
            prop_assert_eq!(r.entries(), want);
            prop_assert!(r.torn_tail().is_none());
            prop_assert_eq!(
                fs::read(&path).expect("read back"),
                r.serialize(&r.lock()).into_bytes()
            );
            let _ = fs::remove_file(&path);
        }
    }
}
