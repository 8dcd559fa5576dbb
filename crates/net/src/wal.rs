//! The dispatch write-ahead log: one per campaign of the dispatch pool
//! ([`crate::pool`]), whether `audit serve`'s one or a fleet's many.
//!
//! The WAL is NDJSON next to the run journal (`<checkpoint>.wal`),
//! appended and flushed per record. `dispatch` records are written
//! before an `Eval` frame goes out; `result` records after the answer
//! arrives (or a quarantine verdict is reached); `worker_evicted`
//! records when cross-validation catches a lying worker. Only `result`
//! records feed the resume prefill — the others are evidence of what
//! was outstanding and what the defense layer did about it. A torn
//! final line (the ordinary kill signature) is tolerated on open,
//! mirroring the journal's torn-tail rule; a corrupt interior line is
//! an error.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use audit_core::ga::Objectives;
use audit_core::journal::{decode_u64, encode_u64, JournalRecord};
use audit_core::ResilienceReport;
use audit_error::AuditError;
use audit_measure::json::JsonValue;

use crate::proto::{decode_objectives, decode_resilience, encode_objectives, encode_resilience};

/// WAL-recovered results keyed by genome content hash: the objective
/// vector plus the resilience delta the original evaluation accrued.
pub type Prefill = HashMap<u64, (Objectives, ResilienceReport)>;

/// One dispatch write-ahead log. See the module docs.
pub struct Wal {
    path: PathBuf,
    file: std::fs::File,
}

impl Wal {
    /// Opens (and replays) the WAL at `path`, returning the log handle
    /// and the prefill map of every `result` already recorded there by
    /// a previous (killed) broker. The file is created if absent and
    /// appended otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be read or opened
    /// for append, and [`AuditError::Journal`] if a non-final line is
    /// corrupt.
    pub fn open(path: &Path) -> Result<(Wal, Prefill), AuditError> {
        let io_err = |e: &std::io::Error| AuditError::io(path.display(), e);
        let mut prefill = HashMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let lines: Vec<&str> = text.lines().collect();
                for (i, line) in lines.iter().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let value = match JsonValue::parse(line) {
                        Ok(v) => v,
                        // A torn final line is the normal kill
                        // signature; corruption earlier is not.
                        Err(_) if i + 1 == lines.len() => break,
                        Err(e) => {
                            return Err(AuditError::journal(i + 1, format!("WAL: {e}")))
                        }
                    };
                    if value.get("kind").and_then(JsonValue::as_str) == Some("result") {
                        let key = decode_u64(
                            value
                                .get("key")
                                .ok_or_else(|| AuditError::journal(i + 1, "WAL result has no key"))?,
                        )?;
                        let fitness = value
                            .get("fitness")
                            .and_then(JsonValue::as_f64)
                            .ok_or_else(|| {
                                AuditError::journal(i + 1, "WAL result has no fitness")
                            })?;
                        // Scalar results carry only `fitness` (the
                        // historical encoding); vector results add the
                        // full axis array alongside it.
                        let objectives = match value.get("objectives") {
                            Some(arr) => decode_objectives(arr)?,
                            None => Objectives::scalar(fitness),
                        };
                        let resilience = decode_resilience(value.get("resilience").ok_or_else(
                            || AuditError::journal(i + 1, "WAL result has no resilience"),
                        )?)?;
                        prefill.insert(key, (objectives, resilience));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&e)),
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(&e))?;
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
            },
            prefill,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the WAL file (call after the run completes — its
    /// contents are now redundant with the journal).
    pub fn discard(self) {
        std::fs::remove_file(&self.path).ok();
    }

    fn append(&mut self, value: &JsonValue) -> Result<(), AuditError> {
        let io_err = |e: &std::io::Error| AuditError::io(self.path.display(), e);
        let mut line = value.encode();
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(|e| io_err(&e))?;
        self.file.flush().map_err(|e| io_err(&e))?;
        Ok(())
    }

    /// Logs a dispatch about to be sent.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the append fails.
    pub fn log_dispatch(&mut self, key: u64, slot: usize, attempt: u32) -> Result<(), AuditError> {
        self.append(&JsonValue::object(vec![
            ("kind", JsonValue::String("dispatch".into())),
            ("key", encode_u64(key)),
            ("slot", encode_u64(slot as u64)),
            ("attempt", encode_u64(u64::from(attempt))),
        ]))
    }

    /// Logs a settled result (or quarantine verdict).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the append fails.
    pub fn log_result(
        &mut self,
        key: u64,
        objectives: &Objectives,
        resilience: &ResilienceReport,
    ) -> Result<(), AuditError> {
        let mut fields = vec![
            ("kind", JsonValue::String("result".into())),
            ("key", encode_u64(key)),
            ("fitness", JsonValue::from_f64(objectives.primary())),
        ];
        // Mirror the wire rule: scalar results keep the historical
        // single-number WAL lines.
        if objectives.len() > 1 {
            fields.push(("objectives", encode_objectives(objectives)));
        }
        fields.push(("resilience", encode_resilience(resilience)));
        self.append(&JsonValue::object(fields))
    }

    /// Logs a cross-validation eviction.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the append fails.
    pub fn log_worker_evicted(
        &mut self,
        worker: u64,
        key: u64,
        quarantined: u64,
    ) -> Result<(), AuditError> {
        // Encoded through the journal record so the WAL line is
        // byte-identical to the pinned `worker_evicted` schema.
        self.append(
            &JournalRecord::WorkerEvicted {
                worker,
                key,
                quarantined,
            }
            .to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_round_trips_results_and_tolerates_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("audit-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let delta = ResilienceReport {
            evaluations: 1,
            retries: 1,
            quarantined: 0,
            backoff_cycles: 512,
        };
        {
            let (mut wal, prefill) = Wal::open(&path).unwrap();
            assert!(prefill.is_empty());
            wal.log_dispatch(0xABCD, 3, 0).unwrap();
            wal.log_result(0xABCD, &Objectives::scalar(-0.125), &delta)
                .unwrap();
            wal.log_worker_evicted(2, 0xABCD, 1).unwrap();
            wal.log_result(0xBEEF, &Objectives(vec![-0.5, 7.25]), &delta)
                .unwrap();
        }
        // Simulate a broker killed mid-write: a torn trailing line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"kind\":\"disp");
        std::fs::write(&path, &bytes).unwrap();
        // `worker_evicted` lines are evidence, not prefill.
        let (_wal, prefill) = Wal::open(&path).unwrap();
        assert_eq!(prefill.len(), 2);
        assert_eq!(
            prefill.get(&0xABCD),
            Some(&(Objectives::scalar(-0.125), delta))
        );
        assert_eq!(
            prefill.get(&0xBEEF),
            Some(&(Objectives(vec![-0.5, 7.25]), delta))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_interior_wal_line_is_an_error() {
        let dir = std::env::temp_dir().join(format!("audit-wal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.wal");
        std::fs::write(&path, "garbage\n{\"kind\":\"result\"}\n").unwrap();
        assert!(Wal::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
