//! The dispatch write-ahead log: one per campaign of the dispatch pool
//! ([`crate::pool`]), whether `audit serve`'s one or a fleet's many.
//!
//! The WAL is NDJSON next to the run journal (`<checkpoint>.wal`),
//! written through the journal's [`AppendLog`], so a torn final line
//! (the ordinary kill signature) is cut off on open and a corrupt
//! interior line is an error. `dispatch` records are written before an
//! `Eval` frame goes out; `result` records after the answer arrives (or
//! a quarantine verdict is reached); `worker_evicted` records when
//! cross-validation catches a lying worker. Only `result` records feed
//! the resume prefill — the others are evidence of what was outstanding
//! and what the defense layer did about it.
//!
//! Unlike the journal, the WAL is not synced per record (two lines per
//! evaluation would each block the pool thread): it survives a process
//! kill, not a power cut. A lost result is simply evaluated again.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;

use audit_core::ga::Objectives;
use audit_core::journal::JournalRecord;
use audit_core::ResilienceReport;
use audit_error::AuditError;
use audit_measure::codec;
use audit_measure::json::{Codec, JsonValue};
use audit_measure::traceio::AppendLog;

use crate::proto::{put_axes, take_axes};

/// WAL-recovered results keyed by genome content hash: the objective
/// vector plus the resilience delta the original evaluation accrued.
pub type Prefill = HashMap<u64, (Objectives, ResilienceReport)>;

/// One dispatch write-ahead log. See the module docs.
pub struct Wal {
    log: AppendLog,
}

impl Wal {
    /// Opens (and replays) the WAL at `path`, returning the log handle
    /// and the prefill map of every `result` already recorded there by
    /// a previous (killed) broker. The file is created if absent; a
    /// torn final line is cut off before anything is appended.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be created, read or
    /// truncated, and [`AuditError::Journal`] if a non-final line is
    /// corrupt or a `result` record lacks a field.
    pub fn open(path: &Path) -> Result<(Wal, Prefill), AuditError> {
        // A fresh campaign starts an empty log: `AppendLog` opens only
        // existing files.
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| AuditError::io(path.display(), &e))?;
        let (log, reader) = AppendLog::open(path)?;
        let mut prefill = HashMap::new();
        for (i, value) in reader.records().iter().enumerate() {
            match WalLine::decode(value) {
                Ok(WalLine::Result {
                    key,
                    objectives,
                    resilience,
                }) => {
                    prefill.insert(key, (objectives.into_owned(), resilience));
                }
                Ok(WalLine::Dispatch { .. }) => {}
                // `worker_evicted` lines are journal records (see
                // `log_worker_evicted`): evidence, not prefill.
                Err(e) => match JournalRecord::from_json(value) {
                    Ok(JournalRecord::WorkerEvicted { .. }) => {}
                    _ => return Err(e.on_line(i + 1)),
                },
            }
        }
        Ok((Wal { log }, prefill))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Deletes the WAL file (call after the run completes — its
    /// contents are now redundant with the journal).
    pub fn discard(self) {
        std::fs::remove_file(self.log.path()).ok();
    }

    fn append(&mut self, value: &JsonValue) -> Result<(), AuditError> {
        self.log
            .append(&value.encode())
            .map_err(|e| AuditError::io(self.log.path().display(), &e))
    }

    /// Logs a dispatch about to be sent.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the append fails.
    pub fn log_dispatch(&mut self, key: u64, slot: usize, attempt: u32) -> Result<(), AuditError> {
        self.append(&WalLine::Dispatch { key, slot, attempt }.encode())
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
        let line = WalLine::Result {
            key,
            objectives: Cow::Borrowed(objectives),
            resilience: *resilience,
        };
        self.append(&line.encode())
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

/// The WAL's own lines. A `result` shares its objective and resilience
/// fields with the wire's [`crate::Msg::Result`].
enum WalLine<'a> {
    Dispatch {
        key: u64,
        slot: usize,
        attempt: u32,
    },
    Result {
        key: u64,
        objectives: Cow<'a, Objectives>,
        resilience: ResilienceReport,
    },
}

codec! {
    enum WalLine<'a> "WAL line" {
        "dispatch" => Dispatch { key, slot, attempt, },
        "result" => Result { key, objectives: with(put_axes, take_owned_axes), resilience, },
    }
}

fn take_owned_axes(v: &JsonValue, record: &str) -> Result<Cow<'static, Objectives>, AuditError> {
    take_axes(v, record).map(Cow::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line` with field `i` (or element `j` inside it) replaced by
    /// `with`, or dropped when `with` is `None`.
    fn damage(line: &JsonValue, i: usize, j: Option<usize>, with: &Option<JsonValue>) -> JsonValue {
        let mut line = line.clone();
        let JsonValue::Object(pairs) = &mut line else {
            unreachable!("WAL lines are objects")
        };
        let (pairs, slot) = match j {
            None => (pairs, i),
            Some(j) => match &mut pairs[i].1 {
                JsonValue::Object(inner) => (inner, j),
                _ => unreachable!("only objects are entered"),
            },
        };
        match with {
            None => {
                pairs.remove(slot);
            }
            Some(x) => pairs[slot].1 = x.clone(),
        }
        line
    }

    /// Every way of damaging one field of a `dispatch` or `result`
    /// line, or one resilience counter: dropped, retyped, negative,
    /// fractional, above 2^64. The flag marks a dropped field.
    fn damaged(line: &JsonValue) -> Vec<(JsonValue, bool)> {
        let withs = [
            None,
            Some(JsonValue::Null),
            Some(JsonValue::Bool(true)),
            Some(JsonValue::String("x".into())),
            Some(JsonValue::Number(7.0)),
            Some(JsonValue::Array(Vec::new())),
            Some(JsonValue::Number(-1.0)),
            Some(JsonValue::Number(2.5)),
            Some(JsonValue::Number(36_893_488_147_419_103_232.0)),
            Some(JsonValue::String("36893488147419103232".into())),
        ];
        let JsonValue::Object(pairs) = line else {
            unreachable!("WAL lines are objects")
        };
        let mut paths = Vec::new();
        for (i, (_, value)) in pairs.iter().enumerate() {
            paths.push((i, None));
            if let JsonValue::Object(inner) = value {
                paths.extend((0..inner.len()).map(|j| (i, Some(j))));
            }
        }
        let mut out = Vec::new();
        for (i, j) in paths {
            for with in &withs {
                out.push((damage(line, i, j, with), with.is_none()));
            }
        }
        out
    }

    #[test]
    fn a_damaged_wal_field_never_decodes_to_a_silent_default() {
        let objectives = Objectives(vec![-0.5, 7.25]);
        let lines = [
            WalLine::Dispatch {
                key: u64::MAX - 3,
                slot: 4,
                attempt: 1,
            },
            WalLine::Result {
                key: 0xBEEF,
                objectives: Cow::Borrowed(&objectives),
                resilience: ResilienceReport {
                    evaluations: 1,
                    retries: 2,
                    quarantined: 0,
                    backoff_cycles: u64::MAX,
                },
            },
        ];
        let reencode = |v: &JsonValue| WalLine::decode(v).map(|line| line.encode());
        for line in lines.iter().map(WalLine::encode) {
            for (damaged, dropped) in damaged(&line) {
                // The decoder's view: an error, the original line, the
                // damaged line at face value, or (for a dropped
                // optional field) the line without it.
                let Ok(seen) = reencode(&damaged) else {
                    continue;
                };
                assert!(
                    seen == line
                        || seen == damaged
                        || (dropped && seen.encode().len() < line.encode().len()),
                    "{} decoded to {}",
                    damaged.encode(),
                    seen.encode()
                );
            }
        }
    }

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
    fn appends_after_a_torn_tail_survive_the_next_open() {
        // A broker killed twice: the first reopen must cut the torn
        // line off before appending, or the second reopen finds it in
        // the interior.
        let dir = std::env::temp_dir().join(format!("audit-wal-twice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let delta = ResilienceReport::default();
        std::fs::write(&path, "{\"kind\":\"disp").unwrap();
        {
            let (mut wal, prefill) = Wal::open(&path).unwrap();
            assert!(prefill.is_empty());
            wal.log_dispatch(0xABCD, 0, 0).unwrap();
            wal.log_result(0xABCD, &Objectives::scalar(-0.25), &delta)
                .unwrap();
            wal.log_result(0xBEEF, &Objectives(vec![-0.5, 1.0]), &delta)
                .unwrap();
        }
        let (_wal, prefill) = Wal::open(&path).expect("second open after a torn tail");
        assert_eq!(prefill.len(), 2);
        assert_eq!(prefill[&0xABCD], (Objectives::scalar(-0.25), delta));
        assert_eq!(prefill[&0xBEEF], (Objectives(vec![-0.5, 1.0]), delta));
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
