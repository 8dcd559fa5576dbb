//! The one checkpoint path of every journaled command (`generate`,
//! `serve`, `failure`, `shmoo`, `minimize` and fleet campaigns).
//!
//! A fresh run is a resume of an empty journal: its configuration comes
//! from the live argv and its journal is [`Journal::default`].
//! `--resume` swaps in the checkpoint's records and the argv its
//! `run_start` saved. Either way a command reads its configuration from
//! the argv [`Checkpoint::new`] hands back, passes the journal and sink
//! from [`Checkpoint::open`] to core's resume entry point, and ends with
//! [`Checkpoint::close`].

use std::borrow::Cow;

use audit_core::journal::{Journal, JournalSink, JournalWriter, NullSink};
use audit_core::report::journal_summary;

use crate::args::{ArgError, Args};
use crate::commands::core_err;
use crate::platform;

/// Loads a `mode` checkpoint and the configuration its `run_start`
/// recorded.
///
/// # Errors
///
/// Returns [`ArgError`] when the file does not load, belongs to another
/// mode, or records a malformed or retired argv.
pub(crate) fn load(path: &str, mode: &str) -> Result<(Journal, Args), ArgError> {
    let journal = Journal::load(path).map_err(core_err)?;
    let meta = journal
        .meta()
        .filter(|_| journal.mode() == Some(mode))
        .ok_or_else(|| {
            ArgError(format!(
                "{path}: not a `{mode}` checkpoint (mode {:?})",
                journal.mode().unwrap_or("<none>")
            ))
        })?;
    let saved = platform::args_from_meta(meta)?;
    Ok((journal, saved))
}

/// One journaled run's checkpoint, fresh or resumed.
pub(crate) struct Checkpoint<'a> {
    live: &'a Args,
    mode: &'static str,
    /// `--resume` or `--checkpoint`; `None` runs unjournaled.
    path: Option<String>,
    /// The records the run resumes: the checkpoint's, or none.
    journal: Journal,
    writer: Option<JournalWriter>,
    null: NullSink,
}

impl<'a> Checkpoint<'a> {
    /// Reads `--resume` (else `--checkpoint`) from the live argv and
    /// returns the checkpoint with the argv the run's configuration
    /// comes from: the saved one on resume, the live one otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the `--resume` file does not [`load`].
    pub(crate) fn new(
        live: &'a Args,
        mode: &'static str,
    ) -> Result<(Self, Cow<'a, Args>), ArgError> {
        let resume = live.opt_flag("--resume");
        let (journal, config) = match &resume {
            Some(path) => {
                let (journal, saved) = load(path, mode)?;
                (journal, Cow::Owned(saved))
            }
            None => (Journal::default(), Cow::Borrowed(live)),
        };
        let checkpoint = Checkpoint {
            live,
            mode,
            path: resume.or_else(|| live.opt_flag("--checkpoint")),
            journal,
            writer: None,
            null: NullSink,
        };
        Ok((checkpoint, config))
    }

    /// The journal file, if the run keeps one.
    pub(crate) fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// Call once every configuration flag is read and validated: rejects
    /// the live flags nothing read, then creates the fresh journal (or
    /// prints the resumed one's summary and reopens it), so an argument
    /// error never leaves a checkpoint behind. Returns the journal to
    /// resume and the sink that continues it.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for an unknown flag or a journal that cannot
    /// be written.
    pub(crate) fn open(&mut self) -> Result<(&Journal, &mut dyn JournalSink), ArgError> {
        // Only a fresh run's journal is empty, and only it records its
        // argv; reading the result flags counts them as known.
        let meta = self
            .journal
            .records
            .is_empty()
            .then(|| platform::meta(self.mode, self.live));
        self.live.reject_unknown()?;
        if let Some(path) = &self.path {
            let writer = match meta {
                Some(meta) => JournalWriter::create(path, self.mode, meta),
                None => {
                    println!("resuming {path}:");
                    print!("{}", journal_summary(&self.journal));
                    JournalWriter::resume(path)
                }
            };
            self.writer = Some(writer.map_err(core_err)?);
        }
        let sink: &mut dyn JournalSink = match &mut self.writer {
            Some(writer) => writer,
            None => &mut self.null,
        };
        Ok((&self.journal, sink))
    }

    /// Ends the run: finishes the journal unless it was already
    /// complete, prints where it lives, and returns its record count.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the closing `run_end` cannot be written.
    pub(crate) fn close(mut self) -> Result<usize, ArgError> {
        let (Some(path), Some(writer)) = (&self.path, &mut self.writer) else {
            return Ok(0);
        };
        if !self.journal.is_complete() {
            writer.finish().map_err(core_err)?;
        }
        println!("checkpoint: {path} ({} records)", writer.len());
        Ok(writer.len())
    }
}
