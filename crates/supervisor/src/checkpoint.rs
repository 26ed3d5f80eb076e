//! The `ompvar-checkpoint/1` manifest: a JSONL journal of completed
//! campaign units, crash-safe at every instant so a `kill -9` leaves a
//! loadable manifest.
//!
//! Line 1 is the campaign header (seed, fast flag, target list); every
//! further line is one finished unit — its status (`ok`/`quarantined`),
//! attempt count, the retry ledger (error text, classification, backoff
//! delay), and for successful units the checkpointed result payload that
//! `--resume` replays instead of re-running the unit. Serialization goes
//! through [`ompvar_obs::json`]. The header is staged via
//! temp-file+rename ([`crate::fsio::atomic_write`]); entries are then
//! *appended* one line at a time and flushed, so journaling cost stays
//! O(1) per unit at 100k-unit campaign scale. A `kill -9` mid-append can
//! leave a truncated final line; [`Manifest::open_resume`] drops exactly
//! that torn tail (the unit re-runs) while still rejecting mid-file
//! corruption as fatal.
//!
//! A parallel campaign journals into one manifest *per worker shard*
//! ([`create_shards`] / [`resume_shards`]) so concurrent appenders never
//! contend on one file; on resume the shards are merged in deterministic
//! order regardless of worker count or steal schedule.

use crate::chaos::{self, FaultKind, Verdict, WriteKind};
use crate::classify::Transience;
use crate::fsio::atomic_write;
use ompvar_obs::json::{self, Field, Value, Writer};
use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Manifest schema identifier, bumped on breaking format changes.
pub const SCHEMA: &str = "ompvar-checkpoint/1";

/// The campaign identity a manifest belongs to. On `--resume` the header
/// must match the live invocation exactly — resuming a `--seed 1`
/// campaign with `--seed 2` would splice incompatible results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Campaign base seed.
    pub seed: u64,
    /// Whether the campaign ran with reduced repetitions.
    pub fast: bool,
    /// Unit names, in execution order.
    pub targets: Vec<String>,
}

/// One retry the supervisor performed before a unit finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryRecord {
    /// Attempt that failed (0-based).
    pub attempt: u32,
    /// Rendered error.
    pub error: String,
    /// How the error classified.
    pub transience: Transience,
    /// Backoff slept before the next attempt (ms, 0 for permanent).
    pub backoff_ms: u64,
}

/// Terminal state of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed; `payload` holds the checkpointed result.
    Ok,
    /// Permanently failed or retry budget exhausted.
    Quarantined,
}

impl UnitStatus {
    /// Stable manifest name.
    pub const fn name(self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Quarantined => "quarantined",
        }
    }
}

/// One completed (or quarantined) unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Unit name (experiment id, or `experiment/cell` for sub-units).
    pub name: String,
    /// Terminal state.
    pub status: UnitStatus,
    /// Attempts consumed (≥ 1).
    pub attempts: u32,
    /// Failures that preceded the terminal state.
    pub retries: Vec<RetryRecord>,
    /// Checkpointed result for `Ok` units (replayed on resume).
    pub payload: Option<Value>,
}

/// Why a manifest could not be loaded for resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// A line was not a valid manifest record.
    Parse {
        /// The manifest (shard) file the bad line lives in.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
        /// The offending bytes, truncated to a readable prefix.
        snippet: String,
    },
    /// The manifest belongs to a different campaign (seed/fast/targets).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint manifest I/O: {e}"),
            CheckpointError::Parse { path, line, msg, snippet } => {
                write!(
                    f,
                    "checkpoint manifest {} line {line}: {msg}; offending bytes: {snippet:?}",
                    path.display()
                )
            }
            CheckpointError::Mismatch(msg) => {
                write!(f, "checkpoint manifest does not match this campaign: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A readable prefix of an offending manifest line, truncated on a
/// UTF-8 boundary so corruption reports stay one line long.
fn snippet_of(raw: &str) -> String {
    const MAX: usize = 64;
    if raw.len() <= MAX {
        return raw.to_string();
    }
    let mut end = MAX;
    while !raw.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [{} bytes total]", &raw[..end], raw.len())
}

fn parse_err(path: &Path, line: usize, msg: impl Into<String>, raw: &str) -> CheckpointError {
    CheckpointError::Parse {
        path: path.to_path_buf(),
        line,
        msg: msg.into(),
        snippet: snippet_of(raw),
    }
}

/// Open a manifest line: the two fields every record starts with.
fn begin_line(kind: &str) -> Writer {
    let mut w = Writer::new();
    w.begin_obj().key("schema").str(SCHEMA).key("kind").str(kind);
    w
}

fn header_json(h: &Header) -> String {
    let mut w = begin_line("campaign");
    w.key("seed").u64(h.seed).key("fast").bool(h.fast);
    w.key("targets").strs(&h.targets).end_obj();
    w.finish()
}

/// One journal line, built in one buffer with the payload streamed in.
fn entry_json(e: &Entry) -> String {
    let mut w = begin_line("unit");
    w.key("name").str(&e.name).key("status").str(e.status.name());
    w.key("attempts").u64(e.attempts.into()).key("retries").begin_arr();
    for r in &e.retries {
        w.begin_obj().key("attempt").u64(r.attempt.into()).key("error").str(&r.error);
        w.key("class").str(r.transience.name()).key("backoff_ms").u64(r.backoff_ms).end_obj();
    }
    w.end_arr().key("payload");
    match &e.payload {
        Some(p) => w.value(p),
        None => w.null(),
    };
    w.end_obj();
    w.finish()
}

/// The integer a manifest number stands for, if it is one.
fn u64_of(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// What the *first* occurrence of a key decoded to: `None` until the
/// key is met, `Some(None)` if that occurrence had the wrong type or
/// value — which a later duplicate must not repair, [`Value::get`]
/// having always read the first match only.
type First<T> = Option<Option<T>>;

fn first<T>(slot: &mut First<T>, decode: impl FnOnce() -> Option<T>) {
    if slot.is_none() {
        *slot = Some(decode());
    }
}

/// `Some` if `f` is the string `want`.
fn is_str(f: &Field<'_>, want: &str) -> Option<()> {
    (f.as_str()? == want).then_some(())
}

/// A non-negative integer field, exact over the whole `u64` range when
/// written as plain digits.
fn num_of(f: &Field<'_>) -> Option<u64> {
    match f {
        Field::Num(n, run) => run.parse().ok().or_else(|| u64_of(*n)),
        _ => None,
    }
}

/// The string `v` is, moved out of it.
fn string_of(v: Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Decode the header line; `Ok(None)` is valid JSON of another shape.
fn read_header(line: &str) -> Result<Option<Header>, json::ParseError> {
    let (mut schema, mut kind, mut seed, mut fast, mut targets) = (None, None, None, None, None);
    json::parse_object(line, |key, f| match key {
        "schema" => first(&mut schema, || is_str(&f, SCHEMA)),
        "kind" => first(&mut kind, || is_str(&f, "campaign")),
        "seed" => first(&mut seed, || num_of(&f)),
        "fast" => first(&mut fast, || match f {
            Field::Bool(b) => Some(b),
            _ => None,
        }),
        "targets" => first(&mut targets, || match f {
            Field::Tree(Value::Arr(names)) => names.into_iter().map(string_of).collect(),
            _ => None,
        }),
        _ => {}
    })?;
    Ok(schema.flatten().and(kind.flatten()).and_then(|()| {
        Some(Header { seed: seed??, fast: fast??, targets: targets?? })
    }))
}

fn retry_from(v: Value) -> Option<RetryRecord> {
    let Value::Obj(fields) = v else { return None };
    let (mut attempt, mut error, mut class, mut backoff_ms) = (None, None, None, None);
    for (key, v) in fields {
        match key.as_str() {
            "attempt" => first(&mut attempt, || u64_of(v.as_f64()?)?.try_into().ok()),
            "error" => first(&mut error, || string_of(v)),
            "class" => first(&mut class, || Transience::from_name(v.as_str()?)),
            "backoff_ms" => first(&mut backoff_ms, || u64_of(v.as_f64()?)),
            _ => {}
        }
    }
    Some(RetryRecord {
        attempt: attempt??,
        error: error??,
        transience: class??,
        backoff_ms: backoff_ms??,
    })
}

/// Decode one unit line; `Ok(None)` is valid JSON of another shape.
///
/// The fields come straight off the scanner ([`json::parse_object`]):
/// `schema`, `kind` and `status` are compared where they lie in `line`,
/// `name` is the one allocation an ordinary line costs, and `retries`
/// and `payload` are moved out of the only trees built.
fn read_unit(line: &str) -> Result<Option<Entry>, json::ParseError> {
    let (mut schema, mut kind, mut name, mut status) = (None, None, None, None);
    let (mut attempts, mut retries, mut payload) = (None, None, None);
    json::parse_object(line, |key, f| match key {
        "schema" => first(&mut schema, || is_str(&f, SCHEMA)),
        "kind" => first(&mut kind, || is_str(&f, "unit")),
        "name" => first(&mut name, || match f {
            Field::Str(s) => Some(s.into_owned()),
            _ => None,
        }),
        "status" => first(&mut status, || match f.as_str()? {
            "ok" => Some(UnitStatus::Ok),
            "quarantined" => Some(UnitStatus::Quarantined),
            _ => None,
        }),
        "attempts" => first(&mut attempts, || num_of(&f)?.try_into().ok()),
        "retries" => first(&mut retries, || match f {
            Field::Tree(Value::Arr(rs)) => rs.into_iter().map(retry_from).collect(),
            _ => None,
        }),
        // `null` is a payload-less unit, not a malformed one.
        "payload" => first(&mut payload, || match f {
            Field::Null => Some(None),
            other => Some(Some(Value::from(other))),
        }),
        _ => {}
    })?;
    Ok(schema.flatten().and(kind.flatten()).and_then(|()| {
        Some(Entry {
            name: name??,
            status: status??,
            attempts: attempts??,
            retries: retries??,
            payload: payload??,
        })
    }))
}

/// A live manifest: the append-only journal handle of one campaign run
/// (or one worker shard of a parallel campaign). It holds no entries:
/// what is journaled lives on disk, and [`Manifest::open_resume`] hands
/// the parsed entries to its caller.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    header: Header,
    /// Open append handle; re-opened on demand if an append fails.
    file: Option<File>,
    /// Whether `open_resume` dropped a torn final line (the unit it
    /// described will simply re-run).
    torn_tail: bool,
    /// Bytes of well-formed (newline-terminated) journal we believe are
    /// on disk. Before each append the file is stat'ed against this; a
    /// mismatch means a previous append tore or silently shortened the
    /// tail (crash debris, injected short append), and the journal heals
    /// itself by truncating back to the last newline.
    disk_len: u64,
}

impl Manifest {
    /// Start a fresh campaign manifest at `path` (truncating any
    /// previous one) and persist the header line atomically.
    pub fn create(path: &Path, header: Header) -> io::Result<Manifest> {
        let mut doc = header_json(&header);
        doc.push('\n');
        atomic_write(path, doc.as_bytes())?;
        let file = OpenOptions::new().append(true).open(path).ok();
        Ok(Manifest {
            path: path.to_path_buf(),
            header,
            file,
            torn_tail: false,
            disk_len: doc.len() as u64,
        })
    }

    /// Load an existing manifest for `--resume`, verifying it matches
    /// the live campaign `expect`ation. Returns the journal handle,
    /// positioned for further appends, and the entries journaled so far
    /// in file order.
    ///
    /// Torn-tail recovery: a `kill -9` mid-append leaves a truncated
    /// final line with no trailing newline. Exactly that — an
    /// unparseable *final* line that is not newline-terminated — is
    /// dropped (and truncated off the file, so later appends stay
    /// well-formed); the unit it described re-runs. Any malformed
    /// newline-terminated line is mid-file corruption and stays fatal:
    /// our appends always end in `\n`, so a complete garbage line can
    /// only mean outside interference.
    pub fn open_resume(
        path: &Path,
        expect: &Header,
    ) -> Result<(Manifest, Vec<Entry>), CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        // Split off the torn-tail candidate: whatever follows the last
        // newline. A partially flushed append is always a strict prefix
        // of `<line>\n`, so it can never contain that final newline.
        let complete_len = if text.ends_with('\n') {
            text.len()
        } else {
            text.rfind('\n').map_or(0, |i| i + 1)
        };
        let (complete, tail) = text.split_at(complete_len);

        let mut lines = complete.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        // Bad JSON and good JSON of the wrong shape are both a `Parse`
        // naming the line.
        let bad = |(i, l): (usize, &str), msg: &str| parse_err(path, i + 1, msg, l);
        let head = lines.next().ok_or_else(|| parse_err(path, 1, "empty manifest", ""))?;
        let header = read_header(head.1)
            .map_err(|e| bad(head, &e.to_string()))?
            .ok_or_else(|| bad(head, "first line is not an ompvar-checkpoint/1 campaign header"))?;
        if header != *expect {
            return Err(CheckpointError::Mismatch(format!(
                "manifest is for seed {} fast {} targets {:?}; \
                 this run is seed {} fast {} targets {:?}",
                header.seed, header.fast, header.targets, expect.seed, expect.fast, expect.targets
            )));
        }
        let mut entries = Vec::new();
        for line in lines {
            let entry = read_unit(line.1)
                .map_err(|e| bad(line, &e.to_string()))?
                .ok_or_else(|| bad(line, "line is not an ompvar-checkpoint/1 unit record"))?;
            entries.push(entry);
        }

        let mut torn_tail = false;
        let mut disk_len = text.len() as u64;
        if !tail.trim().is_empty() {
            // An un-terminated final line. If it still parses as a
            // complete unit record, only the newline is missing — accept
            // the entry and restore the terminator so later appends
            // don't concatenate onto it.
            match read_unit(tail).ok().flatten() {
                Some(e) => {
                    entries.push(e);
                    let mut f = OpenOptions::new().append(true).open(path)?;
                    f.write_all(b"\n")?;
                    disk_len += 1;
                }
                None => {
                    // The torn append of a killed run: drop it and
                    // truncate it off so future appends are well-formed.
                    eprintln!(
                        "warning: dropping torn final line ({} byte(s)) of {}; \
                         the interrupted unit will re-run",
                        tail.len(),
                        path.display()
                    );
                    OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len(complete_len as u64)?;
                    torn_tail = true;
                    disk_len = complete_len as u64;
                }
            }
        }

        let file = OpenOptions::new().append(true).open(path).ok();
        Ok((Manifest { path: path.to_path_buf(), header, file, torn_tail, disk_len }, entries))
    }

    /// Manifest location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Campaign identity.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Whether loading this manifest dropped a torn final line.
    pub fn recovered_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Journal one finished unit: append one JSONL line and flush. A
    /// kill at any instant leaves either the complete line or a torn
    /// tail that [`Manifest::open_resume`] recovers from.
    ///
    /// The journal is self-healing: before each append the file length
    /// is checked against the last known well-formed length, and any
    /// tail debris (from a previous torn or silently-short append) is
    /// truncated back to the last newline. After an append *error* the
    /// caller may retry the same entry, and a successful retry journals
    /// it exactly once.
    pub fn append(&mut self, entry: Entry) -> io::Result<()> {
        if chaos::suppressed(&self.path) {
            // The chaos "process" is dead: nothing lands, nobody hears
            // back — exactly a kill -9 right before this append.
            return Ok(());
        }
        self.preflight_tail()?;
        let mut line = entry_json(&entry);
        line.push('\n');
        match self.write_line(&line) {
            Ok(landed) => {
                if landed {
                    self.disk_len += line.len() as u64;
                }
                Ok(())
            }
            Err(e) => {
                // Leave the file well-formed for concurrent readers;
                // preflight would heal it anyway on the next attempt.
                let _ = self.repair_tail();
                Err(e)
            }
        }
    }

    /// Stat the file against the journal's well-formed length and heal
    /// any mismatch by truncating to the last newline.
    fn preflight_tail(&mut self) -> io::Result<()> {
        let actual = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if actual == self.disk_len {
            return Ok(());
        }
        self.repair_tail()
    }

    /// Truncate the file back to its last newline and resync
    /// `disk_len`. Everything past the last newline is debris from a
    /// torn or short append; the unit it described re-runs on resume.
    fn repair_tail(&mut self) -> io::Result<()> {
        let text = std::fs::read(&self.path)?;
        let keep = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if keep != text.len() {
            OpenOptions::new().write(true).open(&self.path)?.set_len(keep as u64)?;
        }
        self.disk_len = keep as u64;
        Ok(())
    }

    /// One raw line append through the chaos shim. `Ok(true)` means the
    /// whole line landed. `Ok(false)` means the caller hears `Ok` but
    /// the disk lost (some of) the bytes — a crash mid-append, or the
    /// lying short append, the honest model of an unchecked short
    /// write(2): the next preflight truncates the debris and resume
    /// re-runs the unit.
    fn write_line(&mut self, line: &str) -> io::Result<bool> {
        match chaos::decide(&self.path, WriteKind::Append, line.len()) {
            Verdict::Clean => {
                self.raw_append(line.as_bytes())?;
                Ok(true)
            }
            Verdict::Suppress => Ok(false),
            Verdict::CrashDuring { keep } | Verdict::Fault(FaultKind::ShortAppend { keep }) => {
                let _ = self.raw_append(&line.as_bytes()[..keep.min(line.len())]);
                Ok(false)
            }
            Verdict::Fault(FaultKind::TornWrite { keep }) => {
                let _ = self.raw_append(&line.as_bytes()[..keep.min(line.len())]);
                Err(chaos::injected_error(FaultKind::TornWrite { keep }))
            }
            Verdict::Fault(kind) => Err(chaos::injected_error(kind)),
        }
    }

    fn raw_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.file.is_none() {
            self.file = Some(OpenOptions::new().append(true).open(&self.path)?);
        }
        let f = self.file.as_mut().expect("just opened");
        f.write_all(bytes)?;
        f.flush()
    }
}

/// Where worker shard `shard` of a sharded campaign journals. Shard 0
/// keeps the legacy single-manifest name, so a `--jobs 1` campaign's
/// on-disk layout is exactly the pre-sharding one.
pub fn shard_path(dir: &Path, base: &str, shard: usize) -> PathBuf {
    if shard == 0 {
        dir.join(format!("{base}.jsonl"))
    } else {
        dir.join(format!("{base}.shard-{shard}.jsonl"))
    }
}

/// Every shard manifest currently on disk for `base` under `dir`, as
/// `(shard index, path)` sorted by shard index.
pub fn existing_shards(dir: &Path, base: &str) -> Vec<(usize, PathBuf)> {
    let mut found = Vec::new();
    let p0 = shard_path(dir, base, 0);
    if p0.exists() {
        found.push((0, p0));
    }
    let prefix = format!("{base}.shard-");
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.filter_map(Result::ok) {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix(&prefix).and_then(|r| r.strip_suffix(".jsonl")) {
                if let Ok(i) = rest.parse::<usize>() {
                    if i > 0 {
                        found.push((i, e.path()));
                    }
                }
            }
        }
    }
    found.sort_unstable_by_key(|(i, _)| *i);
    found
}

/// Start a fresh sharded campaign: one manifest per worker, all carrying
/// the same campaign header. Stale shard files from earlier runs (even
/// with a different worker count) are removed first, so a fresh campaign
/// can never replay another run's journal.
pub fn create_shards(
    dir: &Path,
    base: &str,
    header: &Header,
    shards: usize,
) -> io::Result<Vec<Manifest>> {
    for (_, p) in existing_shards(dir, base) {
        std::fs::remove_file(&p)?;
    }
    (0..shards.max(1))
        .map(|w| Manifest::create(&shard_path(dir, base, w), header.clone()))
        .collect()
}

/// The one body that opens, validates and merges a shard set; see
/// [`resume_shards`] for what it guarantees. `salvage` is the
/// corrupt-shard policy, the only thing its two entry points differ in:
/// `None` makes a shard that fails to parse fatal, `Some(notes)`
/// quarantines it and pushes a recovery note.
fn open_shards(
    dir: &Path,
    base: &str,
    expect: &Header,
    jobs: usize,
    mut salvage: Option<&mut Vec<String>>,
) -> Result<(Vec<Manifest>, Vec<Entry>), CheckpointError> {
    let jobs = jobs.max(1);
    let on_disk = existing_shards(dir, base);
    if !on_disk.iter().any(|(i, _)| *i == 0) {
        return Err(CheckpointError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no manifest at {}", shard_path(dir, base, 0).display()),
        )));
    }
    let mut merged: Vec<Entry> = Vec::new();
    let mut live: Vec<Option<Manifest>> = (0..jobs).map(|_| None).collect();
    for (i, p) in on_disk {
        let (m, entries) = match (Manifest::open_resume(&p, expect), salvage.as_deref_mut()) {
            (Ok(opened), _) => opened,
            (Err(e @ CheckpointError::Parse { .. }), Some(notes)) => {
                let quarantine = p.with_extension("jsonl.corrupt");
                std::fs::rename(&p, &quarantine)?;
                notes.push(format!(
                    "quarantined corrupt shard manifest ({e}); preserved as {}; \
                     its units will re-run",
                    quarantine.display()
                ));
                continue;
            }
            (Err(e), _) => return Err(e),
        };
        merged.extend(entries);
        if let Some(slot) = live.get_mut(i) {
            *slot = Some(m);
        }
    }
    // First occurrence of a unit name wins. The set borrows the names
    // where they are, so the verdicts are taken before anything moves.
    let mut seen = HashSet::with_capacity(merged.len());
    let wins: Vec<bool> = merged.iter().map(|e| seen.insert(e.name.as_str())).collect();
    let mut wins = wins.into_iter();
    merged.retain(|_| wins.next().expect("one verdict per entry"));
    let shards = live
        .into_iter()
        .enumerate()
        .map(|(w, m)| match m {
            Some(m) => Ok(m),
            None => Manifest::create(&shard_path(dir, base, w), expect.clone()),
        })
        .collect::<io::Result<Vec<Manifest>>>()?;
    Ok((shards, merged))
}

/// Resume a sharded campaign: open every shard manifest on disk
/// (validating each against `expect`, recovering torn tails), create any
/// missing shards up to the live worker count, and merge the journaled
/// entries **deterministically** — shards in index order, entries in
/// file order, first occurrence of a unit name wins. The merge result is
/// a pure function of the on-disk shard set, so a resumed report is
/// byte-identical regardless of the worker count or steal schedule of
/// the run that crashed.
///
/// Shard 0 must exist (it is the legacy manifest a sequential campaign
/// writes); shards beyond `jobs` are merged but not returned, since no
/// live worker will append to them. A shard that fails to parse is
/// fatal.
pub fn resume_shards(
    dir: &Path,
    base: &str,
    expect: &Header,
    jobs: usize,
) -> Result<(Vec<Manifest>, Vec<Entry>), CheckpointError> {
    open_shards(dir, base, expect, jobs, None)
}

/// [`resume_shards`], but corrupt shards are quarantined instead of
/// fatal: a shard whose manifest fails to *parse* is renamed to
/// `<file>.corrupt` (preserved for post-mortem), its units re-run, and a
/// recovery note describing the quarantine is pushed onto `notes` for
/// the final report. Header mismatches and real I/O failures stay fatal
/// — those mean the wrong campaign or a sick disk, not a damaged file.
pub fn resume_shards_lenient(
    dir: &Path,
    base: &str,
    expect: &Header,
    jobs: usize,
    notes: &mut Vec<String>,
) -> Result<(Vec<Manifest>, Vec<Entry>), CheckpointError> {
    open_shards(dir, base, expect, jobs, Some(notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The decoders `open_resume` used before it read fields off the
    // scanner, kept as the model the reader is checked against: parse
    // the line to a tree, then look each key up.

    fn u64_at(v: &Value, key: &str) -> Option<u64> {
        u64_of(v.get(key)?.as_f64()?)
    }

    fn header_from(v: &Value) -> Option<Header> {
        if v.get("schema")?.as_str()? != SCHEMA || v.get("kind")?.as_str()? != "campaign" {
            return None;
        }
        let targets = v
            .get("targets")?
            .as_arr()?
            .iter()
            .map(|t| t.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        Some(Header {
            seed: u64_at(v, "seed")?,
            fast: v.get("fast")?.as_bool()?,
            targets,
        })
    }

    fn entry_from(v: &Value) -> Option<Entry> {
        if v.get("schema")?.as_str()? != SCHEMA || v.get("kind")?.as_str()? != "unit" {
            return None;
        }
        let status = match v.get("status")?.as_str()? {
            "ok" => UnitStatus::Ok,
            "quarantined" => UnitStatus::Quarantined,
            _ => return None,
        };
        let retries = v
            .get("retries")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(RetryRecord {
                    attempt: u64_at(r, "attempt")?.try_into().ok()?,
                    error: r.get("error")?.as_str()?.to_string(),
                    transience: Transience::from_name(r.get("class")?.as_str()?)?,
                    backoff_ms: u64_at(r, "backoff_ms")?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let payload = match v.get("payload")? {
            Value::Null => None,
            other => Some(other.clone()),
        };
        Some(Entry {
            name: v.get("name")?.as_str()?.to_string(),
            status,
            attempts: u64_at(v, "attempts")?.try_into().ok()?,
            retries,
            payload,
        })
    }

    /// What `open_resume` made of a shard's text when it went through
    /// the decoders above: the entries, or the line and message of the
    /// `Parse` it failed with.
    fn shard_model(text: &str) -> Result<Vec<Entry>, (usize, String)> {
        let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
        let (complete, tail) = text.split_at(complete_len);
        let mut entries = Vec::new();
        for (n, (i, l)) in
            complete.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).enumerate()
        {
            let v = json::parse(l).map_err(|e| (i + 1, e.to_string()))?;
            if n == 0 {
                let what = "first line is not an ompvar-checkpoint/1 campaign header";
                header_from(&v).ok_or((i + 1, what.to_string()))?;
            } else {
                let what = "line is not an ompvar-checkpoint/1 unit record";
                entries.push(entry_from(&v).ok_or((i + 1, what.to_string()))?);
            }
        }
        entries.extend(json::parse(tail).ok().as_ref().and_then(entry_from));
        Ok(entries)
    }

    /// The merge `open_shards` did with a cloned name per entry.
    fn merge_model(shards: impl IntoIterator<Item = Vec<Entry>>) -> Vec<Entry> {
        let mut seen: HashSet<String> = HashSet::new();
        shards.into_iter().flatten().filter(|e| seen.insert(e.name.clone())).collect()
    }

    fn header() -> Header {
        Header { seed: 7, fast: true, targets: vec!["faults".into(), "campaign".into()] }
    }

    fn entry(name: &str) -> Entry {
        Entry {
            name: name.to_string(),
            status: UnitStatus::Ok,
            attempts: 3,
            retries: vec![RetryRecord {
                attempt: 0,
                error: "simulation deadlock at t=5ns: \"quoted\"".to_string(),
                transience: Transience::Transient,
                backoff_ms: 31,
            }],
            payload: Some(json::parse("{\"samples\":[1.5,2.25],\"n\":2}").unwrap()),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ompvar_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("manifest.jsonl")
    }

    fn names(entries: &[Entry]) -> Vec<&str> {
        entries.iter().map(|e| e.name.as_str()).collect()
    }

    #[test]
    fn roundtrips_header_entries_and_payload() {
        let path = tmp("roundtrip");
        let quarantined = Entry {
            name: "campaign".into(),
            status: UnitStatus::Quarantined,
            attempts: 4,
            retries: vec![],
            payload: None,
        };
        let mut m = Manifest::create(&path, header()).unwrap();
        m.append(entry("faults")).unwrap();
        m.append(quarantined.clone()).unwrap();
        let (loaded, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert_eq!(loaded.header(), &header());
        assert_eq!(entries, [entry("faults"), quarantined]);
        let f = &entries[0];
        assert_eq!(f.attempts, 3);
        assert_eq!(f.retries[0].transience, Transience::Transient);
        let p = f.payload.as_ref().unwrap();
        assert_eq!(p.get("n").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            p.get("samples").and_then(Value::as_arr).unwrap()[1].as_f64(),
            Some(2.25)
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A seed an `f64` cannot hold resumes as itself: the header's seed
    /// is read from its digits, not through a float.
    #[test]
    fn seeds_beyond_53_bits_roundtrip() {
        for seed in [(1u64 << 53) + 1, 7_596_276_583_504_774_228, u64::MAX] {
            let path = tmp("wide_seed");
            let h = Header { seed, ..header() };
            let mut m = Manifest::create(&path, h.clone()).unwrap();
            m.append(entry("faults")).unwrap();
            let (loaded, entries) = Manifest::open_resume(&path, &h).unwrap();
            assert_eq!(loaded.header(), &h);
            assert_eq!(entries, [entry("faults")]);
            let neighbour = Header { seed: seed - 1, ..header() };
            assert!(matches!(
                Manifest::open_resume(&path, &neighbour),
                Err(CheckpointError::Mismatch(_))
            ));
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    /// Bytes pinned from the emitter this one replaced: a journal line
    /// written by either binary must resume under the other.
    #[test]
    fn hostile_fixture_bytes_are_pinned() {
        let hostile = "q\"b\\s\n\u{1}\u{2028}\u{1f600}";
        let h = Header { seed: u64::MAX, fast: false, targets: vec![hostile.into(), "".into()] };
        assert_eq!(header_json(&h), "{\"schema\":\"ompvar-checkpoint/1\",\"kind\":\"campaign\",\"seed\":18446744073709551615,\"fast\":false,\"targets\":[\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"\"]}");
        assert_eq!(header_json(&Header { seed: 0, fast: true, targets: vec![] }), "{\"schema\":\"ompvar-checkpoint/1\",\"kind\":\"campaign\",\"seed\":0,\"fast\":true,\"targets\":[]}");
        let retry = |attempt, transience, backoff_ms| RetryRecord {
            attempt,
            error: hostile.to_string(),
            transience,
            backoff_ms,
        };
        let e = Entry {
            name: hostile.to_string(),
            status: UnitStatus::Ok,
            attempts: u32::MAX,
            retries: vec![
                retry(0, Transience::Transient, u64::MAX),
                retry(1, Transience::Permanent, 0),
            ],
            payload: Some(Value::Obj(vec![
                (hostile.to_string(), Value::Arr(vec![])),
                (
                    "v".to_string(),
                    Value::Arr(
                        [-0.0, 5e-324, f64::MAX, 2.1f32 as f64, f64::NAN]
                            .into_iter()
                            .map(Value::Num)
                            .collect(),
                    ),
                ),
            ])),
        };
        assert_eq!(entry_json(&e), "{\"schema\":\"ompvar-checkpoint/1\",\"kind\":\"unit\",\"name\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"status\":\"ok\",\"attempts\":4294967295,\"retries\":[{\"attempt\":0,\"error\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"class\":\"transient\",\"backoff_ms\":18446744073709551615},{\"attempt\":1,\"error\":\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\",\"class\":\"permanent\",\"backoff_ms\":0}],\"payload\":{\"q\\\"b\\\\s\\n\\u0001\u{2028}😀\":[],\"v\":[-0.0,5e-324,1.7976931348623157e308,2.0999999046325684,null]}}");
        let q = Entry {
            name: "c0".into(),
            status: UnitStatus::Quarantined,
            attempts: 1,
            retries: vec![],
            payload: None,
        };
        assert_eq!(entry_json(&q), "{\"schema\":\"ompvar-checkpoint/1\",\"kind\":\"unit\",\"name\":\"c0\",\"status\":\"quarantined\",\"attempts\":1,\"retries\":[],\"payload\":null}");
        for line in [header_json(&h), entry_json(&e), entry_json(&q)] {
            json::parse(&line).expect("valid JSON");
        }
    }

    #[test]
    fn every_line_is_independent_json() {
        let path = tmp("jsonl");
        let mut m = Manifest::create(&path, header()).unwrap();
        m.append(entry("faults")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for l in text.lines() {
            let v = json::parse(l).expect("each line parses alone");
            assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_rejects_mismatched_campaign() {
        let path = tmp("mismatch");
        Manifest::create(&path, header()).unwrap();
        let other = Header { seed: 8, ..header() };
        match Manifest::open_resume(&path, &other) {
            Err(CheckpointError::Mismatch(msg)) => {
                assert!(msg.contains("seed 7"), "{msg}");
                assert!(msg.contains("seed 8"), "{msg}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_rejects_garbage_lines() {
        let path = tmp("garbage");
        let mut doc = header_json(&header());
        doc.push_str("\nnot json\n");
        std::fs::write(&path, doc).unwrap();
        match Manifest::open_resume(&path, &header()) {
            Err(CheckpointError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Satellite regression: a kill -9 mid-append leaves a truncated
    /// final line with no trailing newline. Resume drops exactly that
    /// line (the unit re-runs), truncates it off the file, and further
    /// appends produce a well-formed journal.
    #[test]
    fn torn_final_line_is_recovered_and_truncated() {
        let path = tmp("torn");
        let mut m = Manifest::create(&path, header()).unwrap();
        m.append(entry("faults")).unwrap();
        drop(m);
        // Simulate the torn tail: half of the next entry's line.
        let full = entry_json(&entry("campaign"));
        let torn = &full[..full.len() / 2];
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(torn.as_bytes()).unwrap();
        drop(f);

        let (mut m, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert!(m.recovered_torn_tail());
        assert_eq!(names(&entries), ["faults"], "torn unit dropped, must re-run");
        // The file was truncated back to the valid prefix, so the re-run
        // appends cleanly and a second resume sees both units.
        m.append(entry("campaign")).unwrap();
        drop(m);
        let (m, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert!(!m.recovered_torn_tail());
        assert_eq!(names(&entries), ["faults", "campaign"]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Satellite regression: only the *final* line is recoverable.
    /// Mid-file corruption (a malformed line followed by more complete
    /// lines) stays fatal even when the file also ends without a
    /// newline.
    #[test]
    fn mid_file_corruption_stays_fatal() {
        let path = tmp("midfile");
        let mut doc = header_json(&header());
        doc.push_str("\n{\"schema\":\"ompvar-ch");
        doc.push('\n'); // newline-terminated garbage = complete line
        doc.push_str(&entry_json(&entry("faults")));
        doc.push('\n');
        std::fs::write(&path, &doc).unwrap();
        match Manifest::open_resume(&path, &header()) {
            Err(CheckpointError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Same, with an additional genuinely-torn tail after the valid
        // entry: the mid-file garbage is still what kills it.
        let mut doc2 = doc.clone();
        doc2.push_str("{\"schema\":\"ompv");
        std::fs::write(&path, &doc2).unwrap();
        assert!(matches!(
            Manifest::open_resume(&path, &header()),
            Err(CheckpointError::Parse { line: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A count above `u32::MAX` used to wrap through `as u32`: a line
    /// saying `"attempts":4294967297` replayed as one attempt. Like any
    /// other type-confused field it is a parse error naming the line.
    #[test]
    fn an_attempt_count_above_u32_is_refused_not_wrapped() {
        let path = tmp("u32_wrap");
        let good = entry_json(&entry("faults"));
        for (field, big) in [("\"attempts\":3", "\"attempts\":4294967297"), ("\"attempt\":0", "\"attempt\":4294967296")] {
            let line = good.replacen(field, big, 1);
            assert_ne!(line, good, "{field}");
            assert_eq!(read_unit(&line), Ok(None), "{line}");
            assert_eq!(entry_from(&json::parse(&line).unwrap()), None, "{line}");
            std::fs::write(&path, format!("{}\n{line}\n", header_json(&header()))).unwrap();
            match Manifest::open_resume(&path, &header()) {
                Err(CheckpointError::Parse { line, msg, .. }) => {
                    assert_eq!(line, 2);
                    assert!(msg.contains("not an ompvar-checkpoint/1 unit record"), "{msg}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        // `u32::MAX` itself is a count like any other.
        let max = good.replacen("\"attempts\":3", "\"attempts\":4294967295", 1);
        assert_eq!(read_unit(&max).unwrap().map(|e| e.attempts), Some(u32::MAX));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A journal line of 100 k brackets used to overflow the stack of
    /// the recursive JSON parser and abort `--resume`. It is a typed
    /// parse error wherever it sits as a complete line, and a dropped
    /// torn tail when it is the unterminated final line.
    #[test]
    fn deeply_nested_line_is_a_typed_error_not_an_abort() {
        let path = tmp("deepnest");
        let bomb = "[".repeat(100_000);
        // Final, newline-terminated.
        let mut doc = header_json(&header());
        doc.push('\n');
        doc.push_str(&entry_json(&entry("faults")));
        doc.push('\n');
        let last = format!("{doc}{bomb}\n");
        std::fs::write(&path, &last).unwrap();
        match Manifest::open_resume(&path, &header()) {
            Err(CheckpointError::Parse { line, msg, .. }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("nesting too deep"), "{msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Non-final: more complete lines follow it.
        let mid = format!("{last}{}\n", entry_json(&entry("campaign")));
        std::fs::write(&path, &mid).unwrap();
        assert!(matches!(
            Manifest::open_resume(&path, &header()),
            Err(CheckpointError::Parse { line: 3, .. })
        ));
        // Unterminated final line: a torn tail like any other.
        std::fs::write(&path, format!("{doc}{bomb}")).unwrap();
        let (m, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert!(m.recovered_torn_tail());
        assert_eq!(names(&entries), ["faults"]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A value of no particular shape decoded from arbitrary bytes, its
    /// strings and keys drawn from the ones the reader matches on so the
    /// type-confused neighbours of a real line come up.
    fn alien_from(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> Value {
        const WORDS: [&str; 12] = [
            SCHEMA, "schema", "kind", "campaign", "unit", "ok", "quarantined", "transient",
            "attempt", "error", "class", "",
        ];
        fn next(bytes: &mut std::slice::Iter<'_, u8>) -> usize {
            bytes.next().copied().unwrap_or(0) as usize
        }
        match next(bytes) % if depth == 0 { 4 } else { 6 } {
            0 => Value::Null,
            1 => Value::Bool(next(bytes) & 1 == 0),
            2 => Value::Num([-1.0, 0.5, 3.0, 1e300, 1.9e19, f64::NAN][next(bytes) % 6]),
            3 => Value::Str(WORDS[next(bytes) % WORDS.len()].to_string()),
            4 => Value::Arr((0..next(bytes) % 3).map(|_| alien_from(bytes, depth - 1)).collect()),
            _ => Value::Obj(
                (0..next(bytes) % 3)
                    .map(|_| (WORDS[next(bytes) % WORDS.len()].to_string(), alien_from(bytes, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Replace node `n` of `v` (pre-order, `v` itself is node 0) by
    /// `alien`; `v` is untouched if it has fewer nodes.
    fn graft(v: &mut Value, n: &mut usize, alien: &Value) {
        if *n == 0 {
            *v = alien.clone();
        }
        *n = n.wrapping_sub(1);
        match v {
            Value::Arr(items) => items.iter_mut().for_each(|i| graft(i, n, alien)),
            Value::Obj(fields) => fields.iter_mut().for_each(|(_, f)| graft(f, n, alien)),
            _ => {}
        }
    }

    proptest! {
        /// Hostile journal bytes, as the header line and as an entry
        /// line: resume is a typed `CheckpointError` or a manifest that
        /// dropped them as a torn tail — never a panic.
        #[test]
        fn arbitrary_bytes_as_header_or_entry_are_a_typed_error(
            bytes in prop::collection::vec(0u8..=255, 0..96),
            terminated in any::<bool>(),
        ) {
            let path = tmp("hostile_bytes");
            let mut after_header = format!("{}\n", header_json(&header())).into_bytes();
            after_header.extend(&bytes);
            for mut doc in [bytes.clone(), after_header] {
                if terminated {
                    doc.push(b'\n');
                }
                std::fs::write(&path, &doc).unwrap();
                if let Ok((_, entries)) = Manifest::open_resume(&path, &header()) {
                    prop_assert!(entries.is_empty(), "{entries:?}");
                }
            }
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }

        /// Well-formed JSON of the wrong shape — one node of a real header
        /// or entry replaced by an arbitrary value: `None` from the
        /// decoders, and through the reader `Parse` or `Mismatch`.
        #[test]
        fn type_confused_header_or_entry_is_none_or_a_typed_error(
            node in 0usize..18,
            bytes in prop::collection::vec(0u8..=255, 0..24),
        ) {
            let path = tmp("hostile_values");
            let alien = alien_from(&mut bytes.iter(), 2);
            for line in [header_json(&header()), entry_json(&entry("faults"))] {
                let mut v = json::parse(&line).unwrap();
                graft(&mut v, &mut node.clone(), &alien);
                let _ = (header_from(&v), entry_from(&v));
                let text = json::write(&v);
                for doc in [format!("{text}\n"), format!("{}\n{text}\n", header_json(&header()))] {
                    std::fs::write(&path, doc).unwrap();
                    let typed = !matches!(
                        Manifest::open_resume(&path, &header()),
                        Err(CheckpointError::Io(_))
                    );
                    prop_assert!(typed, "{text}");
                }
            }
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    proptest! {
        /// Reader ≡ model, line by line: a real header and a real entry
        /// with one node replaced by an arbitrary value and one more
        /// field — a duplicate of a key the reader knows, holding a good
        /// value or an alien one — put in at every position. The first
        /// occurrence decides, whatever follows it.
        #[test]
        fn reader_agrees_with_the_tree_model_on_confused_and_duplicate_fields(
            node in 0usize..18,
            bytes in prop::collection::vec(0u8..=255, 0..32),
        ) {
            const KEYS: [&str; 10] = [
                "schema", "kind", "name", "status", "attempts", "retries", "payload", "seed",
                "fast", "targets",
            ];
            let mut bytes = bytes.iter();
            let alien = alien_from(&mut bytes, 2);
            let extra = alien_from(&mut bytes, 2);
            for line in [header_json(&header()), entry_json(&entry("faults"))] {
                let mut v = json::parse(&line).unwrap();
                graft(&mut v, &mut node.clone(), &alien);
                for key in KEYS {
                    let Value::Obj(fields) = &v else { break };
                    let good = v.get(key).cloned().unwrap_or(Value::Null);
                    for (at, dup) in (0..=fields.len()).flat_map(|at| [(at, &extra), (at, &good)]) {
                        let mut fields = fields.clone();
                        fields.insert(at, (key.to_string(), dup.clone()));
                        let text = json::write(&Value::Obj(fields));
                        // NaN is written `null`: the model reads the text too.
                        let tree = json::parse(&text).unwrap();
                        prop_assert_eq!(read_header(&text), Ok(header_from(&tree)), "{}", text);
                        prop_assert_eq!(read_unit(&text), Ok(entry_from(&tree)), "{}", text);
                    }
                }
            }
        }
    }

    /// Reader ≡ model at campaign scale: two shards, 4 096 entries — ok
    /// and quarantined, retries with quoted errors, escaped names, names
    /// journaled twice across and within shards — a torn tail on one
    /// shard and a complete tail without its newline on the other.
    #[test]
    fn reader_agrees_with_the_tree_model_on_a_two_shard_journal() {
        let path = tmp("model");
        let dir = path.parent().unwrap().to_path_buf();
        let name = |i: usize| match i % 97 {
            0 => format!("u{i}/q\"b\\s\n\u{1}\u{2028}\u{1f600}"),
            _ => format!("unit-{i:05}"),
        };
        let h = Header { seed: u64::MAX, fast: false, targets: (0..4096).map(name).collect() };
        let mut shards = create_shards(&dir, "m", &h, 2).unwrap();
        for i in 0..4096usize {
            let e = Entry {
                // Every 50th unit was journaled by both workers, every
                // 64th twice by one.
                name: name(if i % 50 == 49 { i - 1 } else if i % 64 == 2 { i - 2 } else { i }),
                attempts: i as u32 % 5 + 1,
                ..match i % 7 {
                    3 => Entry { status: UnitStatus::Quarantined, payload: None, ..entry("") },
                    4 => Entry {
                        retries: vec![],
                        payload: Some(Value::Num(i as f64 / 3.0)),
                        ..entry("")
                    },
                    _ => Entry { retries: vec![], ..entry("") },
                }
            };
            shards[i % 2].append(e).unwrap();
        }
        let paths = [shards[0].path().to_path_buf(), shards[1].path().to_path_buf()];
        drop(shards);
        let torn = entry_json(&entry("torn"));
        let append = |p: &Path, tail: &str| {
            OpenOptions::new().append(true).open(p).unwrap().write_all(tail.as_bytes()).unwrap()
        };
        append(&paths[0], &torn[..torn.len() / 2]);
        append(&paths[1], &entry_json(&entry("unterminated")));
        let texts = paths.clone().map(|p| std::fs::read_to_string(p).unwrap());

        let model = merge_model(texts.iter().map(|t| shard_model(t).unwrap()));
        let (reopened, merged) = resume_shards(&dir, "m", &h, 2).unwrap();
        let distinct: HashSet<&str> = model.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(merged.len(), distinct.len(), "duplicates dropped");
        assert!((3900..4000).contains(&merged.len()), "{}", merged.len());
        assert_eq!(merged.last().map(|e| e.name.as_str()), Some("unterminated"));
        assert_eq!(merged, model);
        assert!(reopened[0].recovered_torn_tail() && !reopened[1].recovered_torn_tail());
        drop(reopened);

        // A complete line that is bad JSON, and one that is good JSON of
        // another shape, mid-file in shard 1: the model names the line
        // and the message, the lenient reader quarantines with both.
        let wrong_shape = entry_json(&entry("x")).replacen("\"ok\"", "\"okay\"", 1);
        let bad_json = "{\"schema\":\"ompvar-checkpoint/1\",\"name\":\"x\\q\"}";
        for bad in [bad_json, wrong_shape.as_str()] {
            let mut lines: Vec<&str> = texts[1].lines().collect();
            lines.insert(1000, bad);
            let corrupt = lines.join("\n");
            std::fs::write(&paths[0], &texts[0]).unwrap();
            std::fs::write(&paths[1], &corrupt).unwrap();
            let (line, msg) = shard_model(&corrupt).unwrap_err();
            assert_eq!(line, 1001);
            let quarantine = paths[1].with_extension("jsonl.corrupt");
            let note = format!(
                "quarantined corrupt shard manifest ({}); preserved as {}; its units will re-run",
                parse_err(&paths[1], line, msg, bad),
                quarantine.display()
            );
            let mut notes = Vec::new();
            let (_, merged) = resume_shards_lenient(&dir, "m", &h, 2, &mut notes).unwrap();
            assert_eq!(notes, [note]);
            assert_eq!(merged, merge_model([shard_model(&texts[0]).unwrap()]));
            assert_eq!(std::fs::read_to_string(&quarantine).unwrap(), corrupt);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A complete unit record that merely lost its trailing newline is
    /// accepted, and the newline is restored on disk.
    #[test]
    fn unterminated_but_complete_final_line_is_accepted() {
        let path = tmp("noterm");
        let mut doc = header_json(&header());
        doc.push('\n');
        doc.push_str(&entry_json(&entry("faults"))); // no trailing \n
        std::fs::write(&path, doc).unwrap();
        let (m, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert!(!m.recovered_torn_tail());
        assert_eq!(names(&entries), ["faults"]);
        drop(m);
        assert!(std::fs::read_to_string(&path).unwrap().ends_with('\n'));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Appends are O(1): each completion adds exactly one line; the
    /// earlier lines are never rewritten.
    #[test]
    fn appends_grow_one_line_at_a_time() {
        let path = tmp("append");
        let mut m = Manifest::create(&path, header()).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        m.append(entry("faults")).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.starts_with(&before), "prefix preserved");
        assert_eq!(after.lines().count(), before.lines().count() + 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    fn shard_header(targets: &[&str]) -> Header {
        Header { seed: 7, fast: true, targets: targets.iter().map(|s| s.to_string()).collect() }
    }

    /// Shard manifests merge deterministically: shard order, file order,
    /// first name wins — independent of which worker journaled what.
    #[test]
    fn shard_merge_is_deterministic_and_deduped() {
        let path = tmp("shards");
        let dir = path.parent().unwrap().to_path_buf();
        let h = shard_header(&["a", "b", "c"]);
        let mut shards = create_shards(&dir, "m", &h, 3).unwrap();
        assert!(shard_path(&dir, "m", 0).ends_with("m.jsonl"), "legacy name for shard 0");
        // Workers journal out of canonical order and with a duplicate.
        shards[2].append(entry("c")).unwrap();
        shards[0].append(entry("b")).unwrap();
        shards[1].append(entry("b")).unwrap(); // duplicate: shard 0 wins
        drop(shards);

        let (reopened, merged) = resume_shards(&dir, "m", &h, 2).unwrap();
        assert_eq!(reopened.len(), 2, "only live shards returned");
        assert_eq!(names(&merged), ["b", "c"], "shard order, dedup by name");
        // Resuming with MORE workers than shards creates the missing one.
        let (reopened, merged) = resume_shards(&dir, "m", &h, 4).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(merged.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh sharded campaign removes every stale shard file, even
    /// those beyond the new worker count.
    #[test]
    fn create_shards_clears_stale_files() {
        let path = tmp("stale");
        let dir = path.parent().unwrap().to_path_buf();
        let h = shard_header(&["a"]);
        let mut shards = create_shards(&dir, "m", &h, 4).unwrap();
        shards[3].append(entry("a")).unwrap();
        drop(shards);
        let _ = create_shards(&dir, "m", &h, 1).unwrap();
        assert!(!shard_path(&dir, "m", 3).exists(), "stale shard removed");
        let (_, merged) = resume_shards(&dir, "m", &h, 1).unwrap();
        assert!(merged.is_empty(), "no stale entries resurface");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: the fatal path for newline-terminated garbage must
    /// name the shard file, the line number, and the offending bytes.
    #[test]
    fn garbage_error_names_file_line_and_bytes() {
        let path = tmp("named");
        let dir = path.parent().unwrap().to_path_buf();
        let h = shard_header(&["a", "b"]);
        let mut shards = create_shards(&dir, "m", &h, 2).unwrap();
        shards[1].append(entry("b")).unwrap();
        drop(shards);
        // Corrupt shard 1 mid-file with newline-terminated garbage.
        let shard1 = shard_path(&dir, "m", 1);
        let mut text = std::fs::read_to_string(&shard1).unwrap();
        let long_garbage = format!("GARBAGE-{}\n", "x".repeat(200));
        text = text.replacen('\n', &format!("\n{long_garbage}"), 1);
        std::fs::write(&shard1, text).unwrap();

        let err = resume_shards(&dir, "m", &h, 2).unwrap_err();
        match &err {
            CheckpointError::Parse { path, line, snippet, .. } => {
                assert_eq!(path, &shard1, "error must name the shard file");
                assert_eq!(*line, 2);
                assert!(snippet.starts_with("GARBAGE-xxx"), "{snippet:?}");
                assert!(snippet.len() < 120, "snippet not truncated: {snippet:?}");
                assert!(snippet.contains("bytes total"), "{snippet:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("m.shard-1.jsonl"), "{rendered}");
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("GARBAGE-"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lenient resume quarantines the corrupt shard (renamed, preserved)
    /// with a recovery note, instead of failing the campaign.
    #[test]
    fn lenient_resume_quarantines_corrupt_shard() {
        let path = tmp("lenient");
        let dir = path.parent().unwrap().to_path_buf();
        let h = shard_header(&["a", "b"]);
        let mut shards = create_shards(&dir, "m", &h, 2).unwrap();
        shards[0].append(entry("a")).unwrap();
        shards[1].append(entry("b")).unwrap();
        drop(shards);
        let shard1 = shard_path(&dir, "m", 1);
        let text = std::fs::read_to_string(&shard1).unwrap();
        std::fs::write(&shard1, text.replacen('\n', "\nnot json\n", 1)).unwrap();

        let mut notes = Vec::new();
        let (reopened, merged) = resume_shards_lenient(&dir, "m", &h, 2, &mut notes).unwrap();
        assert_eq!(reopened.len(), 2, "quarantined shard recreated fresh");
        assert_eq!(names(&merged), ["a"], "corrupt shard's units dropped, will re-run");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("quarantined corrupt shard manifest"), "{}", notes[0]);
        assert!(notes[0].contains("m.shard-1.jsonl.corrupt"), "{}", notes[0]);
        assert!(
            shard_path(&dir, "m", 1).with_extension("jsonl.corrupt").exists(),
            "corrupt shard preserved for post-mortem"
        );
        // Mismatch stays fatal even leniently.
        let other = Header { seed: 99, ..h.clone() };
        assert!(matches!(
            resume_shards_lenient(&dir, "m", &other, 2, &mut notes),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The strict and the salvage entry point are one body: on a healthy
    /// journal they return the same shards and the same merged order
    /// (first name wins: shard index, then file order), and they part
    /// only when a shard is corrupt.
    #[test]
    fn strict_and_salvage_agree_until_a_shard_is_corrupt() {
        let path = tmp("onebody");
        let dir = path.parent().unwrap().to_path_buf();
        let h = shard_header(&["a", "b", "c", "d"]);
        let dup = |attempts| Entry { attempts, ..entry("b") };
        let mut shards = create_shards(&dir, "m", &h, 3).unwrap();
        shards[2].append(entry("d")).unwrap();
        shards[2].append(dup(9)).unwrap(); // loses to shard 1
        shards[1].append(entry("c")).unwrap();
        shards[1].append(dup(5)).unwrap(); // first in shard order: wins
        shards[1].append(dup(7)).unwrap(); // loses to the line above
        shards[0].append(entry("a")).unwrap();
        drop(shards);

        let paths = |ms: &[Manifest]| ms.iter().map(|m| m.path().to_path_buf()).collect::<Vec<_>>();
        let mut notes = Vec::new();
        for jobs in [1, 3, 4] {
            let (strict, merged) = resume_shards(&dir, "m", &h, jobs).unwrap();
            let (salvaged, salvaged_merged) =
                resume_shards_lenient(&dir, "m", &h, jobs, &mut notes).unwrap();
            assert!(notes.is_empty(), "{notes:?}");
            assert_eq!(paths(&strict), paths(&salvaged), "jobs={jobs}");
            assert_eq!(
                paths(&strict),
                (0..jobs).map(|w| shard_path(&dir, "m", w)).collect::<Vec<_>>()
            );
            assert_eq!(merged, salvaged_merged, "jobs={jobs}");
            assert_eq!(merged, [entry("a"), entry("c"), dup(5), entry("d")], "jobs={jobs}");
        }

        let shard1 = shard_path(&dir, "m", 1);
        let text = std::fs::read_to_string(&shard1).unwrap();
        std::fs::write(&shard1, text.replacen('\n', "\nnot json\n", 1)).unwrap();
        assert!(matches!(
            resume_shards(&dir, "m", &h, 3),
            Err(CheckpointError::Parse { line: 2, .. })
        ));
        assert!(shard1.exists(), "the strict path leaves the corrupt shard in place");
        let (salvaged, merged) = resume_shards_lenient(&dir, "m", &h, 3, &mut notes).unwrap();
        assert_eq!(salvaged.len(), 3);
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert_eq!(merged, [entry("a"), entry("d"), dup(9)], "shard 1 gone: shard 2's b wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The self-healing journal: a lying short append loses its bytes,
    /// but the next append truncates the debris and lands cleanly — the
    /// file never accumulates newline-terminated garbage.
    #[test]
    fn short_append_debris_is_healed_by_next_append() {
        let path = tmp("heal");
        let mut m = Manifest::create(&path, header()).unwrap();
        let scope = path.parent().unwrap().to_path_buf();
        let plan = crate::chaos::FaultPlan::none()
            .with_fault_at(0, FaultKind::ShortAppend { keep: 20 });
        let guard = crate::chaos::install(crate::chaos::IoChaos::new(&scope, plan));
        m.append(entry("faults")).unwrap(); // lies: Ok, 20 bytes of debris
        m.append(entry("campaign")).unwrap(); // heals, then lands
        drop(guard);
        let (_, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert_eq!(
            names(&entries),
            ["campaign"],
            "the lied-about unit is gone from disk and re-runs"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// An append that errors (injected EIO tearing the line) does not
    /// record the entry; the retry journals it exactly once and the
    /// torn bytes never reach a reader.
    #[test]
    fn failed_append_retries_journal_exactly_once() {
        let path = tmp("retry");
        let mut m = Manifest::create(&path, header()).unwrap();
        let scope = path.parent().unwrap().to_path_buf();
        let plan = crate::chaos::FaultPlan::none()
            .with_fault_at(0, FaultKind::TornWrite { keep: 13 });
        let guard = crate::chaos::install(crate::chaos::IoChaos::new(&scope, plan));
        let err = m.append(entry("faults")).unwrap_err();
        assert_eq!(
            crate::chaos::injected_fault(&err),
            Some(FaultKind::TornWrite { keep: 13 })
        );
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.lines().count(), 1, "failed append left only the header: {on_disk:?}");
        assert!(on_disk.ends_with('\n'), "torn bytes repaired away: {on_disk:?}");
        m.append(entry("faults")).unwrap(); // the retry
        drop(guard);
        let (loaded, entries) = Manifest::open_resume(&path, &header()).unwrap();
        assert_eq!(entries, [entry("faults")], "journaled exactly once");
        assert!(!loaded.recovered_torn_tail(), "repair left the file well-formed");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Resume without a shard-0 manifest is an I/O error (nothing to
    /// resume), matching the sequential behavior.
    #[test]
    fn resume_shards_requires_shard_zero() {
        let path = tmp("noshard0");
        let dir = path.parent().unwrap().to_path_buf();
        assert!(matches!(
            resume_shards(&dir, "m", &shard_header(&["a"]), 2),
            Err(CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
