//! Trace persistence: CSV export/import for captured waveforms, plus the
//! NDJSON log that run journals and dispatch WALs are written through.
//!
//! Lab workflows archive scope captures; the reproduction does the same
//! so traces can be post-processed outside the simulator (plotted,
//! diffed across runs, or replayed through alternative PDN models). The
//! CSV format is deliberately plain: a header line, then one row per
//! sample. Run journals (see `docs/RUN_JOURNAL.md`) are newline-delimited
//! JSON, appended through [`AppendLog`]; [`JournalReader`] iterates their
//! records without interpreting them, dropping the torn final line a
//! kill can leave behind.
//!
//! [`fsck`] / [`fsck_repair`] classify a journal or dispatch WAL as
//! clean, torn-tail, or corrupt-interior (bit rot that resume would
//! refuse), report the longest valid prefix with a per-kind record
//! census, and can truncate the file back to that prefix so `--resume`
//! accepts a previously dead checkpoint. This backs `audit journal
//! fsck`. All of them read with one line rule ([`fsck_bytes`]).

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};

use audit_error::AuditError;

use crate::json::JsonValue;

/// Writes a trace as two-column CSV (`cycle,value`).
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Example
///
/// ```
/// use audit_measure::traceio;
///
/// let mut buf = Vec::new();
/// traceio::write_csv(&mut buf, "v_die", &[1.2, 1.19]).unwrap();
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.starts_with("cycle,v_die\n"));
/// ```
pub fn write_csv<W: Write>(mut w: W, column: &str, trace: &[f64]) -> io::Result<()> {
    writeln!(w, "cycle,{column}")?;
    for (i, v) in trace.iter().enumerate() {
        writeln!(w, "{i},{v:.9}")?;
    }
    Ok(())
}

/// Error from [`read_csv`].
#[derive(Debug)]
pub enum TraceReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data row did not parse.
    Malformed {
        /// 1-based line number of the offending row.
        line: usize,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Malformed { line } => write!(f, "malformed trace row at line {line}"),
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Reads a trace written by [`write_csv`] (header skipped; the value is
/// the last comma-separated field of each row).
///
/// # Errors
///
/// Returns [`TraceReadError::Malformed`] with the offending line number
/// on parse failure, or [`TraceReadError::Io`] on read failure.
pub fn read_csv<R: BufRead>(r: R) -> Result<Vec<f64>, TraceReadError> {
    let mut out = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue; // header / trailing newline
        }
        let value = line
            .rsplit(',')
            .next()
            .and_then(|f| f.trim().parse::<f64>().ok())
            .ok_or(TraceReadError::Malformed { line: idx + 1 })?;
        out.push(value);
    }
    Ok(out)
}

/// How the final line of a journal read ended.
///
/// Crash recovery is the whole reason the journal exists, so a torn
/// final line is a first-class *outcome*, not an error: resuming code
/// branches on it (replay everything complete, re-run the torn step)
/// instead of unwrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailOutcome {
    /// Every line parsed as a complete record.
    Clean,
    /// The final line was torn by a crash mid-append: it lacks its
    /// `\n`, fails to parse, or parses as JSON that is not a record (a
    /// partial write can coincidentally be valid JSON). The line is
    /// dropped; all prior records stand.
    TruncatedTail,
}

/// Offline reader for NDJSON run journals.
///
/// Each journal line is one JSON object with a `"kind"` field. The
/// reader is schema-agnostic: it hands back [`JsonValue`]s so tools can
/// inspect journals written by newer builds. A torn final line (the
/// signature of a kill mid-append) is *not* an error — it is dropped and
/// reported as [`TailOutcome::TruncatedTail`] via [`JournalReader::tail`].
///
/// # Example
///
/// ```
/// use audit_measure::traceio::{JournalReader, TailOutcome};
///
/// let text = "{\"kind\":\"run_start\",\"schema\":1}\n{\"kind\":\"gener";
/// let reader = JournalReader::parse(text).unwrap();
/// assert_eq!(reader.records().len(), 1);
/// assert_eq!(reader.tail(), TailOutcome::TruncatedTail);
/// assert_eq!(reader.kinds(), vec!["run_start"]);
/// ```
#[derive(Debug, Clone)]
pub struct JournalReader {
    records: Vec<JsonValue>,
    tail: TailOutcome,
}

impl JournalReader {
    /// Reads a journal file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be read, or
    /// [`AuditError::Journal`] if a non-final line is malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AuditError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| AuditError::io(path.display(), &e))?;
        Self::from_scan(scan(&bytes))
    }

    /// Parses journal text (one JSON object per line).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] naming the 1-based line if any
    /// line other than the last fails to parse, or if a parsed record is
    /// not an object with a string `"kind"`.
    pub fn parse(text: &str) -> Result<Self, AuditError> {
        Self::from_scan(scan(text.as_bytes()))
    }

    fn from_scan(scan: (FsckReport, Vec<JsonValue>, String)) -> Result<Self, AuditError> {
        let (report, records, damage) = scan;
        let tail = match report.verdict {
            FsckVerdict::Clean => TailOutcome::Clean,
            FsckVerdict::TornTail => TailOutcome::TruncatedTail,
            FsckVerdict::CorruptInterior { line } => return Err(AuditError::journal(line, damage)),
        };
        Ok(JournalReader { records, tail })
    }

    /// All complete records, in journal order.
    pub fn records(&self) -> &[JsonValue] {
        &self.records
    }

    /// How the final line ended: [`TailOutcome::TruncatedTail`] if it
    /// was torn by a crash mid-append (and dropped), else
    /// [`TailOutcome::Clean`].
    pub fn tail(&self) -> TailOutcome {
        self.tail
    }

    /// True if the final line was torn (partial write before a crash).
    /// Shorthand for `tail() == TailOutcome::TruncatedTail`.
    pub fn torn_tail(&self) -> bool {
        self.tail == TailOutcome::TruncatedTail
    }

    /// The `"kind"` of every record, in order — the quickest way to see
    /// a run's shape (`run_start`, phases, generations, `run_end`).
    pub fn kinds(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter_map(|r| r.get("kind").and_then(JsonValue::as_str))
            .collect()
    }

    /// Records of one kind, in order (e.g. `"generation"`).
    pub fn of_kind(&self, kind: &str) -> Vec<&JsonValue> {
        self.records
            .iter()
            .filter(|r| r.get("kind").and_then(JsonValue::as_str) == Some(kind))
            .collect()
    }
}

/// How `fsck` classified an NDJSON journal (or dispatch WAL).
///
/// The classification is deliberately three-way because the recovery
/// story differs: a [`FsckVerdict::TornTail`] is the ordinary signature
/// of a crash mid-append and resume already tolerates it; a
/// [`FsckVerdict::CorruptInterior`] (bit rot, a bad sector, a chaos
/// campaign's bit-flip landing in storage) would make resume refuse the
/// whole file — until [`fsck_repair`] truncates it back to the longest
/// valid prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckVerdict {
    /// Every line is a complete record; nothing to repair.
    Clean,
    /// Only the final line is damaged — the crash-tail pattern that
    /// resume already drops on its own.
    TornTail,
    /// A damaged line has complete lines *after* it; resume would
    /// error. `line` is the 1-based number of the first bad line.
    CorruptInterior {
        /// 1-based line number of the first damaged line.
        line: usize,
    },
}

/// What `fsck` found: the verdict, the longest valid prefix, and a
/// per-kind census of the records inside that prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The classification (see [`FsckVerdict`]).
    pub verdict: FsckVerdict,
    /// Byte length of the longest valid prefix — what [`fsck_repair`]
    /// truncates the file to.
    pub valid_bytes: u64,
    /// Total byte length of the file as found.
    pub total_bytes: u64,
    /// Complete records inside the valid prefix.
    pub records: usize,
    /// `(kind, count)` census of the valid prefix, in first-seen order.
    pub kind_counts: Vec<(String, usize)>,
}

impl FsckReport {
    /// True when resume would accept the file as-is (clean, or the
    /// torn tail resume already tolerates).
    pub fn resumable(&self) -> bool {
        !matches!(self.verdict, FsckVerdict::CorruptInterior { .. })
    }
}

/// Reads `bytes` with the one line rule (see [`fsck_bytes`]): the
/// report, the records of the valid prefix, and why the first damaged
/// line is damaged.
fn scan(bytes: &[u8]) -> (FsckReport, Vec<JsonValue>, String) {
    let mut report = FsckReport {
        verdict: FsckVerdict::Clean,
        valid_bytes: 0,
        total_bytes: bytes.len() as u64,
        records: 0,
        kind_counts: Vec::new(),
    };
    let (mut records, mut damage) = (Vec::new(), String::new());
    let (mut valid, mut line) = (0, 0);
    while valid < bytes.len() {
        line += 1;
        let rest = &bytes[valid..];
        // An append writes a line and its `\n` in one go: a line
        // without one is an append that never finished.
        let (complete, end) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (Some(&rest[..nl]), nl + 1),
            None => (None, rest.len()),
        };
        match complete
            .ok_or_else(|| "unterminated line".to_string())
            .and_then(parse_line)
        {
            Ok(record) => {
                records.extend(record);
                valid += end;
            }
            Err(why) => {
                report.verdict = if end < rest.len() {
                    FsckVerdict::CorruptInterior { line }
                } else {
                    FsckVerdict::TornTail
                };
                damage = why;
                break;
            }
        }
    }
    for kind in records
        .iter()
        .filter_map(|r| r.get("kind").and_then(JsonValue::as_str))
    {
        match report.kind_counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => report.kind_counts.push((kind.to_string(), 1)),
        }
    }
    report.records = records.len();
    report.valid_bytes = valid as u64;
    (report, records, damage)
}

/// One line without its `\n`: `None` for whitespace filler.
fn parse_line(line: &[u8]) -> Result<Option<JsonValue>, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?.trim();
    if text.is_empty() {
        return Ok(None);
    }
    let record = JsonValue::parse(text).map_err(|e| e.to_string())?;
    match record.get("kind").and_then(JsonValue::as_str) {
        Some(_) => Ok(Some(record)),
        None => Err("record is not an object with a string `kind`".into()),
    }
}

/// Classifies raw journal bytes. See [`fsck`] for the file wrapper.
///
/// This is the one line-validity rule: [`JournalReader`] and
/// [`AppendLog`] read with it too. A line is *valid* when it ends in
/// `\n` and is whitespace or a UTF-8 JSON object with a string `"kind"`
/// (bytes, not `str`: a damaged journal need not be UTF-8). The first
/// invalid line is a torn tail if nothing follows it, else a corrupt
/// interior; the valid prefix ends just before it.
pub fn fsck_bytes(bytes: &[u8]) -> FsckReport {
    scan(bytes).0
}

/// Classifies a journal (or dispatch WAL) file on disk: clean, torn
/// tail, or corrupt interior, with the longest valid prefix and a
/// per-kind record census. Never modifies the file — see
/// [`fsck_repair`] for the truncating variant.
///
/// # Errors
///
/// Returns [`AuditError::Io`] if the file cannot be read.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, AuditError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| AuditError::io(path.display(), &e))?;
    Ok(fsck_bytes(&bytes))
}

/// Runs [`fsck`] and, when the file is damaged, truncates it in place
/// to its longest valid prefix (`set_len`, then `fsync`): one metadata
/// update, so a crash during repair leaves the damaged file or the
/// repaired one. A clean file is left byte-untouched.
///
/// Returns the pre-repair report (so callers can print what was cut).
///
/// # Errors
///
/// Returns [`AuditError::Io`] if the file cannot be read, truncated or
/// synced.
pub fn fsck_repair(path: impl AsRef<Path>) -> Result<FsckReport, AuditError> {
    let path = path.as_ref();
    let report = fsck(path)?;
    if report.verdict != FsckVerdict::Clean {
        let io_err = |e: io::Error| AuditError::io(path.display(), &e);
        let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(report.valid_bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
    }
    Ok(report)
}

/// An append-only NDJSON log: the one writer under the run journal
/// (`audit_core::journal::JournalWriter`) and the dispatch WAL
/// (`audit_net::wal::Wal`). Opening reads the file with [`fsck_bytes`]'s
/// rule and cuts a torn tail off before anything is appended after it.
/// An append is one write, cut back off if it fails. Syncing is the
/// caller's call ([`AppendLog::sync`]).
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    file: File,
    /// Bytes of complete lines: where a failed append is cut back to.
    len: u64,
}

impl AppendLog {
    /// Opens the existing log at `path` for appending, cutting a torn
    /// tail off, and returns it with the records it already holds.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be opened, read or
    /// truncated, and [`AuditError::Journal`] if a non-final line is
    /// damaged.
    pub fn open(path: impl AsRef<Path>) -> Result<(AppendLog, JournalReader), AuditError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |e: io::Error| AuditError::io(path.display(), &e);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let scan = scan(&bytes);
        let len = scan.0.valid_bytes;
        let reader = JournalReader::from_scan(scan)?;
        if len < bytes.len() as u64 {
            file.set_len(len).map_err(io_err)?;
        }
        Ok((AppendLog { path, file, len }, reader))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `line` (one JSON record) and its `\n` in one write.
    ///
    /// # Errors
    ///
    /// Returns the write's error after cutting any partial line off.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let bytes = [line.as_bytes(), b"\n"].concat();
        if let Err(e) = self.file.write_all(&bytes) {
            // If even this fails, the partial line still reads as a
            // torn tail; the write's error is the one to report.
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Makes every append so far durable (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Returns the sync's error.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_values() {
        let trace = vec![1.2, 1.199999, 1.05, 0.987654321];
        let mut buf = Vec::new();
        write_csv(&mut buf, "v", &trace).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_csv(&mut buf, "v", &[]).unwrap();
        assert!(read_csv(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn malformed_row_is_located() {
        let text = "cycle,v\n0,1.2\n1,not-a-number\n";
        let err = read_csv(text.as_bytes()).unwrap_err();
        match err {
            TraceReadError::Malformed { line } => assert_eq!(line, 3),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let text = "cycle,v\n0,1.0\n\n1,2.0\n";
        let back = read_csv(text.as_bytes()).unwrap();
        assert_eq!(back, vec![1.0, 2.0]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceReadError::Malformed { line: 7 };
        assert_eq!(e.to_string(), "malformed trace row at line 7");
    }

    #[test]
    fn journal_reader_iterates_records() {
        let text = concat!(
            "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"ga\"}\n",
            "{\"kind\":\"generation\",\"index\":0}\n",
            "{\"kind\":\"generation\",\"index\":1}\n",
            "{\"kind\":\"run_end\"}\n",
        );
        let r = JournalReader::parse(text).unwrap();
        assert!(!r.torn_tail());
        assert_eq!(
            r.kinds(),
            vec!["run_start", "generation", "generation", "run_end"]
        );
        let gens = r.of_kind("generation");
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[1].get("index").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn journal_reader_tolerates_torn_tail_only() {
        let torn = "{\"kind\":\"run_start\",\"schema\":1}\n{\"kind\":\"gen";
        let r = JournalReader::parse(torn).unwrap();
        assert!(r.torn_tail());
        assert_eq!(r.records().len(), 1);

        // A malformed line in the *middle* is a real error.
        let bad = "{\"kind\":\"run_start\"}\n{broken\n{\"kind\":\"run_end\"}\n";
        let err = JournalReader::parse(bad).unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }

    #[test]
    fn journal_reader_rejects_kindless_records() {
        let err = JournalReader::parse("{\"schema\":1}\n{\"kind\":\"x\"}\n").unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn valid_json_kindless_tail_is_truncation_not_error() {
        // A torn write can coincidentally be valid JSON: `{}` is the
        // prefix of `{"kind":...}` truncated after one byte plus the
        // closing brace an editor or filesystem might leave. Must be a
        // clean TruncatedTail outcome, not a parse error.
        for tail in ["{}", "{\"kin\":1}", "[1,2]", "42"] {
            let text = format!("{{\"kind\":\"run_start\",\"schema\":1}}\n{tail}");
            let r = JournalReader::parse(&text)
                .unwrap_or_else(|e| panic!("tail `{tail}` errored: {e}"));
            assert_eq!(r.tail(), TailOutcome::TruncatedTail, "tail `{tail}`");
            assert!(r.torn_tail());
            assert_eq!(r.records().len(), 1);
        }
    }

    #[test]
    fn clean_journal_reports_clean_tail() {
        let r = JournalReader::parse("{\"kind\":\"run_start\",\"schema\":1}\n").unwrap();
        assert_eq!(r.tail(), TailOutcome::Clean);
        assert!(!r.torn_tail());
    }

    #[test]
    fn journal_reader_open_reports_missing_file() {
        let err = JournalReader::open("/nonexistent/journal.ndjson").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/journal.ndjson"));
    }

    #[test]
    fn empty_journal_is_empty_not_an_error() {
        let r = JournalReader::parse("").unwrap();
        assert!(r.records().is_empty());
        assert!(!r.torn_tail());
    }

    #[test]
    fn fsck_classifies_a_clean_journal() {
        let text = concat!(
            "{\"kind\":\"run_start\",\"schema\":1}\n",
            "{\"kind\":\"generation\",\"index\":0}\n",
            "{\"kind\":\"generation\",\"index\":1}\n",
            "{\"kind\":\"run_end\"}\n",
        );
        let r = fsck_bytes(text.as_bytes());
        assert_eq!(r.verdict, FsckVerdict::Clean);
        assert!(r.resumable());
        assert_eq!(r.valid_bytes, r.total_bytes);
        assert_eq!(r.records, 4);
        assert_eq!(
            r.kind_counts,
            vec![
                ("run_start".to_string(), 1),
                ("generation".to_string(), 2),
                ("run_end".to_string(), 1),
            ]
        );
        // Empty files are vacuously clean.
        assert_eq!(fsck_bytes(b"").verdict, FsckVerdict::Clean);
    }

    #[test]
    fn fsck_classifies_a_torn_tail() {
        let good = b"{\"kind\":\"run_start\",\"schema\":1}\n";
        for tail in [
            b"{\"kind\":\"gener".as_slice(),
            b"{}".as_slice(),
            b"\xff\xfe garbage".as_slice(), // not even UTF-8
        ] {
            let mut text = good.to_vec();
            text.extend_from_slice(tail);
            let r = fsck_bytes(&text);
            assert_eq!(r.verdict, FsckVerdict::TornTail, "tail `{tail:?}`");
            assert!(r.resumable(), "resume already drops a torn tail");
            assert_eq!(r.valid_bytes as usize, good.len());
            assert_eq!(r.records, 1);
        }
    }

    #[test]
    fn an_unterminated_record_is_a_torn_tail() {
        // A record is committed by its `\n`: a valid object cut just
        // before it is still an append that never finished.
        let text = "{\"kind\":\"run_start\",\"schema\":1}\n{\"kind\":\"run_end\"}";
        let r = fsck_bytes(text.as_bytes());
        assert_eq!(r.verdict, FsckVerdict::TornTail);
        assert_eq!(r.valid_bytes as usize, text.find('\n').unwrap() + 1);
        let reader = JournalReader::parse(text).unwrap();
        assert_eq!(reader.kinds(), vec!["run_start"]);
        assert!(reader.torn_tail());
    }

    #[test]
    fn fsck_classifies_a_corrupt_interior() {
        let mut text = Vec::new();
        text.extend_from_slice(b"{\"kind\":\"run_start\",\"schema\":1}\n");
        text.extend_from_slice(b"{\"kind\":\"generation\",\"index\":0}\n");
        // Bit rot: raw non-UTF-8 bytes torn through a record's middle.
        text.extend_from_slice(b"{\"kind\":\"gene\xaa\xbbation\",\"index\":1}\n");
        text.extend_from_slice(b"{\"kind\":\"run_end\"}\n");
        let r = fsck_bytes(&text);
        assert_eq!(r.verdict, FsckVerdict::CorruptInterior { line: 3 });
        assert!(!r.resumable());
        // The prefix stops before the damage; the valid line after it
        // is unreachable by an append-only reader and stays excluded.
        assert_eq!(r.records, 2);
        assert_eq!(
            r.kind_counts,
            vec![("run_start".to_string(), 1), ("generation".to_string(), 1)]
        );
        let prefix = &text[..r.valid_bytes as usize];
        assert!(prefix.ends_with(b"\"index\":0}\n"));
    }

    #[test]
    fn fsck_repair_truncates_atomically_and_is_idempotent() {
        let dir = std::env::temp_dir().join(format!(
            "audit-fsck-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ndjson");
        let good = concat!(
            "{\"kind\":\"run_start\",\"schema\":1}\n",
            "{\"kind\":\"generation\",\"index\":0}\n",
        );
        std::fs::write(
            &path,
            format!("{good}{{\"kind\":\"broken\n{{\"kind\":\"run_end\"}}\n"),
        )
        .unwrap();

        let before = fsck(&path).unwrap();
        assert_eq!(before.verdict, FsckVerdict::CorruptInterior { line: 3 });

        let repaired = fsck_repair(&path).unwrap();
        assert_eq!(
            repaired.verdict, before.verdict,
            "reports the pre-repair state"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        assert!(!dir.join("run.fsck.tmp").exists());

        // Now clean: repair is a no-op that leaves the bytes alone.
        let again = fsck_repair(&path).unwrap();
        assert_eq!(again.verdict, FsckVerdict::Clean);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
