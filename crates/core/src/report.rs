//! Plain-text and CSV table emission for the experiment binaries.
//!
//! Every figure/table binary in `audit-bench` prints its rows through
//! this module, so the output format is uniform and machine-readable.
//! [`journal_summary`] renders a run journal's shape as a table — what
//! the CLI prints before resuming a killed run.

use std::fmt;

use crate::journal::{Journal, JournalRecord};

/// A simple column-aligned table with CSV export.
///
/// # Example
///
/// ```
/// use audit_core::report::Table;
///
/// let mut t = Table::new(vec!["workload", "droop_mV"]);
/// t.row(vec!["zeusmp".into(), "41.2".into()]);
/// let text = t.to_string();
/// assert!(text.contains("zeusmp"));
/// assert_eq!(t.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV rendering (headers + rows). Cells containing commas or
    /// quotes are quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        for row in &self.rows {
            out.push('\n');
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats volts as signed millivolts ("-62.5 mV").
pub fn mv(volts: f64) -> String {
    format!("{:.1} mV", volts * 1e3)
}

/// Formats a ratio relative to a baseline ("1.39").
pub fn rel(value: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}", value / baseline)
    }
}

/// Formats a failure point relative to a reference voltage, in the
/// paper's Table I style: "VF" for the reference itself, "VF - 62 mV"
/// below it.
pub fn vf_rel(v: f64, v_ref: f64) -> String {
    let delta_mv = ((v_ref - v) * 1e3).round();
    if delta_mv.abs() < 0.5 {
        "VF".to_string()
    } else if delta_mv > 0.0 {
        format!("VF - {delta_mv:.0} mV")
    } else {
        format!("VF + {:.0} mV", -delta_mv)
    }
}

/// Renders a numeric series as a one-line Unicode sparkline
/// (`▁▂▃▄▅▆▇█`), resampled to at most `width` columns.
///
/// Flat series render as a line of mid-level blocks; empty series as an
/// empty string. Used by the figure binaries to sketch waveforms inline.
///
/// # Example
///
/// ```
/// use audit_core::report::sparkline;
///
/// let s = sparkline(&[0.0, 0.5, 1.0, 0.5, 0.0], 5);
/// assert_eq!(s.chars().count(), 5);
/// assert!(s.contains('█'));
/// ```
pub fn sparkline(values: &[f64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Resample by bucket-mean to the requested width.
    let cols = width.min(values.len());
    let resampled: Vec<f64> = (0..cols)
        .map(|c| {
            let lo = c * values.len() / cols;
            let hi = ((c + 1) * values.len() / cols).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = resampled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = resampled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    resampled
        .iter()
        .map(|v| {
            if span <= 0.0 {
                LEVELS[3]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

/// Summarizes a run journal as a table: one row per phase boundary and
/// GA section, with generation counts and the best fitness recorded so
/// far. This is what `audit-cli --resume` prints so the user can see
/// where the killed run got to before it continues.
pub fn journal_summary(journal: &Journal) -> Table {
    let mut t = Table::new(vec!["record", "detail"]);
    let mut gens = 0usize;
    let mut best = f64::NEG_INFINITY;
    let flush_ga = |t: &mut Table, gens: &mut usize, best: &mut f64| {
        if *gens > 0 {
            t.row(vec![
                "ga".into(),
                format!("{gens} generations, best fitness {best:.6}"),
            ]);
            *gens = 0;
            *best = f64::NEG_INFINITY;
        }
    };
    for rec in &journal.records {
        match rec {
            JournalRecord::RunStart { schema, mode, .. } => {
                t.row(vec![
                    "run_start".into(),
                    format!("mode {mode}, schema v{schema}"),
                ]);
            }
            JournalRecord::PhaseStart { name } => {
                flush_ga(&mut t, &mut gens, &mut best);
                t.row(vec!["phase_start".into(), name.clone()]);
            }
            JournalRecord::PhaseEnd { name, .. } => {
                flush_ga(&mut t, &mut gens, &mut best);
                t.row(vec!["phase_end".into(), name.clone()]);
            }
            JournalRecord::GaStart { cfg, .. } => {
                flush_ga(&mut t, &mut gens, &mut best);
                t.row(vec![
                    "ga_start".into(),
                    format!(
                        "population {}, up to {} generations, seed {:#x}",
                        cfg.population, cfg.generations, cfg.seed
                    ),
                ]);
            }
            JournalRecord::Cascade { budget } => {
                t.row(vec![
                    "cascade".into(),
                    format!("top-{budget} fully simulated per generation"),
                ]);
            }
            JournalRecord::Repair { index, rerolls } => {
                t.row(vec![
                    "repair".into(),
                    format!("generation {index}: {rerolls} slot re-rolls"),
                ]);
            }
            JournalRecord::ParetoFront(f) => {
                // The following generation record carries the scores;
                // here only the front size is worth a row.
                t.row(vec![
                    "pareto_front".into(),
                    format!(
                        "generation {}: {} non-dominated of {}",
                        f.index,
                        f.ranks.iter().filter(|&&r| r == 0).count(),
                        f.ranks.len()
                    ),
                ]);
            }
            JournalRecord::Generation(g) => {
                gens += 1;
                best = g.scores.iter().copied().fold(best, f64::max);
            }
            JournalRecord::GaEnd => {
                flush_ga(&mut t, &mut gens, &mut best);
                t.row(vec!["ga_end".into(), "search complete".into()]);
            }
            JournalRecord::VminStep {
                step,
                voltage,
                attempt,
                outcome,
            } => {
                // Every terminal record is preceded by its write-ahead
                // pending shadow; skip the shadows so each probe is one
                // row (a trailing pending row would only repeat what the
                // resume banner already says).
                if *outcome != crate::journal::VminOutcome::Pending {
                    t.row(vec![
                        "vmin_step".into(),
                        format!(
                            "step {step}: {:.4} V {} (attempt {attempt})",
                            voltage,
                            outcome.as_str()
                        ),
                    ]);
                }
            }
            JournalRecord::Retry {
                step,
                attempt,
                reason,
                ..
            } => {
                t.row(vec![
                    "retry".into(),
                    format!("step {step} attempt {attempt}: {reason}"),
                ]);
            }
            JournalRecord::Quarantine {
                step,
                attempts,
                fallback,
            } => {
                t.row(vec![
                    "quarantine".into(),
                    format!("step {step} after {attempts} attempts, fallback {fallback}"),
                ]);
            }
            JournalRecord::ShmooPoint {
                index,
                volts,
                clock_hz,
                result,
            } => {
                // Same write-ahead discipline as vmin_step: skip the
                // pending shadows so each settled point is one row.
                if let Some(r) = result {
                    t.row(vec![
                        "shmoo_point".into(),
                        format!(
                            "point {index}: {volts:.4} V @ {:.0} MHz, margin {:.4} V",
                            clock_hz / 1e6,
                            r.margin
                        ),
                    ]);
                }
            }
            JournalRecord::MinimizeStep {
                step,
                kept,
                outcome,
                droop,
                ..
            } => {
                // Same write-ahead discipline as vmin_step: skip the
                // pending shadows so each settled probe is one row.
                if outcome.is_terminal() {
                    t.row(vec![
                        "minimize_step".into(),
                        format!(
                            "step {step}: {kept} insts {}{}",
                            outcome.as_str(),
                            droop
                                .map(|d| format!(", droop {d:.4} V"))
                                .unwrap_or_default()
                        ),
                    ]);
                }
            }
            JournalRecord::WorkerEvicted {
                worker,
                key,
                quarantined,
            } => {
                t.row(vec![
                    "worker_evicted".into(),
                    format!(
                        "worker {worker} voted wrong on key {key:#x}; \
                         {quarantined} jobs re-dispatched"
                    ),
                ]);
            }
            JournalRecord::RunEnd => {
                flush_ga(&mut t, &mut gens, &mut best);
                t.row(vec!["run_end".into(), "run complete".into()]);
            }
        }
    }
    flush_ga(&mut t, &mut gens, &mut best);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",plain");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mv(0.0625), "62.5 mV");
        assert_eq!(rel(1.39, 1.0), "1.39");
        assert_eq!(rel(1.0, 0.0), "n/a");
        assert_eq!(vf_rel(1.0, 1.0), "VF");
        assert_eq!(vf_rel(0.938, 1.0), "VF - 62 mV");
        assert_eq!(vf_rel(1.05, 1.0), "VF + 50 mV");
    }

    #[test]
    fn sparkline_shapes() {
        // Monotone ramp: first char lowest, last char highest.
        let s: Vec<char> = sparkline(&[0.0, 1.0, 2.0, 3.0], 4).chars().collect();
        assert_eq!(s[0], '▁');
        assert_eq!(s[3], '█');
        // Flat series renders mid-level, not empty.
        let flat = sparkline(&[5.0; 10], 10);
        assert_eq!(flat.chars().count(), 10);
        assert!(flat.chars().all(|c| c == '▄'));
        // Degenerate inputs.
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 0), "");
        // Resampling caps width.
        assert_eq!(sparkline(&[0.0, 1.0], 10).chars().count(), 2);
        assert_eq!(sparkline(&vec![1.0; 100], 20).chars().count(), 20);
    }

    #[test]
    fn empty_and_len() {
        let mut t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn journal_summary_compresses_generations() {
        use crate::ga::{self, GaConfig, Gene, LocalDispatcher};
        use crate::journal::MemJournal;
        use audit_cpu::Opcode;

        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let fitness = |g: &[Gene]| g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64;
        let mut dispatcher = LocalDispatcher::new(fitness, 1);
        let run = ga::run(
            &cfg,
            &Opcode::stress_menu(),
            4,
            &[],
            &mut dispatcher,
            &mut mem,
        )
        .unwrap();
        let summary = journal_summary(&mem.as_journal());
        let text = summary.to_string();
        assert!(text.contains("ga_start"), "{text}");
        assert!(
            text.contains(&format!("{} generations", run.generations_run + 1)),
            "{text}"
        );
        assert!(text.contains("search complete"), "{text}");
    }
}
