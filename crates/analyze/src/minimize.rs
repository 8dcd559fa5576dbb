//! Delta-debugging witness minimization (`ddmin`).
//!
//! A winning stressmark is an opaque blob of evolved instructions; a
//! *minimized* one is evidence a human can audit. This module holds the
//! pure algorithmic core — Zeller's `ddmin` over instruction index
//! sets — with the oracle abstracted behind a fallible callback, so
//! the driver in `audit-core` owns everything effectful: lowering a
//! candidate subset to a program, running the full simulator, and
//! journaling every probe write-ahead (`minimize_step` records) for
//! kill/resume.
//!
//! Determinism contract: given the same `len` and an oracle returning
//! the same verdicts, [`ddmin`] probes the exact same candidate
//! sequence — chunk partitions are computed arithmetically, nothing is
//! randomized — which is what lets an interrupted minimization replay
//! settled steps from its journal and continue bit-identically.

/// Outcome of a [`ddmin`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeOutcome {
    /// Surviving indices into the original item list, ascending. The
    /// result is 1-minimal: removing any single remaining index makes
    /// the oracle reject.
    pub keep: Vec<usize>,
    /// Oracle invocations performed.
    pub tests: u64,
}

fn chunks(current: &[usize], n: usize) -> Vec<Vec<usize>> {
    // n near-equal slices, sizes differing by at most one, computed by
    // integer arithmetic so the partition is a pure function of
    // (len, n) — the replay determinism hinges on this.
    let len = current.len();
    (0..n)
        .map(|i| current[i * len / n..(i + 1) * len / n].to_vec())
        .filter(|c| !c.is_empty())
        .collect()
}

/// Minimizes the index set `0..len` to a 1-minimal subset on which
/// `interesting` still holds, via the classic `ddmin` loop: try to
/// reduce to a single chunk, then to a chunk's complement, then double
/// the granularity.
///
/// `interesting` receives the zero-based probe number (monotonically
/// increasing across the whole run — the journal's step index) and the
/// candidate index subset (ascending); it must answer whether the
/// property of interest (e.g. "retains ≥90 % of the baseline droop")
/// still holds. The full set is assumed interesting and is never
/// probed.
///
/// # Errors
///
/// Propagates the first oracle error unchanged.
pub fn ddmin<E>(
    len: usize,
    mut interesting: impl FnMut(u64, &[usize]) -> Result<bool, E>,
) -> Result<MinimizeOutcome, E> {
    let mut current: Vec<usize> = (0..len).collect();
    let mut tests = 0u64;
    if len <= 1 {
        return Ok(MinimizeOutcome {
            keep: current,
            tests,
        });
    }
    let mut n = 2usize;
    'outer: loop {
        let parts = chunks(&current, n);
        // Reduce to subset: some single chunk already suffices.
        for part in &parts {
            let step = tests;
            tests += 1;
            if interesting(step, part)? {
                current = part.clone();
                n = 2;
                if current.len() <= 1 {
                    break 'outer;
                }
                continue 'outer;
            }
        }
        // Reduce to complement: dropping one chunk suffices.
        if n > 2 {
            for i in 0..parts.len() {
                let complement: Vec<usize> = parts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                let step = tests;
                tests += 1;
                if interesting(step, &complement)? {
                    current = complement;
                    n -= 1;
                    continue 'outer;
                }
            }
        }
        // Refine granularity, or stop at single-index chunks.
        if n >= current.len() {
            break;
        }
        n = (2 * n).min(current.len());
    }
    Ok(MinimizeOutcome {
        keep: current,
        tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn run(len: usize, needed: &[usize]) -> MinimizeOutcome {
        // Oracle: interesting iff the candidate contains every needed
        // index — the textbook monotone case ddmin solves exactly.
        ddmin::<Infallible>(len, |_, cand| Ok(needed.iter().all(|n| cand.contains(n)))).unwrap()
    }

    #[test]
    fn finds_a_single_culprit() {
        let out = run(32, &[13]);
        assert_eq!(out.keep, vec![13]);
    }

    #[test]
    fn finds_scattered_culprits() {
        let needed = vec![1, 9, 30];
        let out = run(32, &needed);
        assert_eq!(out.keep, needed);
    }

    #[test]
    fn keeps_everything_when_nothing_can_go() {
        let needed: Vec<usize> = (0..8).collect();
        let out = run(8, &needed);
        assert_eq!(out.keep, needed);
    }

    #[test]
    fn degenerate_lengths_return_immediately() {
        assert_eq!(run(0, &[]).keep, Vec::<usize>::new());
        assert_eq!(run(1, &[0]).keep, vec![0]);
        assert_eq!(run(0, &[]).tests, 0);
    }

    #[test]
    fn probe_sequence_is_deterministic() {
        // Two identical runs must probe identical candidate sequences
        // (the journal replay contract).
        let trace = |_: ()| {
            let mut seen = Vec::new();
            let out = ddmin::<Infallible>(24, |step, cand| {
                seen.push((step, cand.to_vec()));
                Ok(cand.contains(&5) && cand.contains(&17))
            })
            .unwrap();
            (out, seen)
        };
        let (a_out, a_seen) = trace(());
        let (b_out, b_seen) = trace(());
        assert_eq!(a_out, b_out);
        assert_eq!(a_seen, b_seen);
        assert_eq!(a_out.keep, vec![5, 17]);
        // Step numbers are the dense sequence 0..tests.
        assert_eq!(
            a_seen.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..a_out.tests).collect::<Vec<_>>()
        );
    }

    #[test]
    fn result_is_one_minimal() {
        let needed = vec![2, 3, 11, 19];
        let out = run(20, &needed);
        assert_eq!(out.keep, needed);
        // Removing any single surviving index breaks the property.
        for skip in &out.keep {
            let cand: Vec<usize> = out.keep.iter().copied().filter(|i| i != skip).collect();
            assert!(!needed.iter().all(|n| cand.contains(n)));
        }
    }

    #[test]
    fn oracle_errors_propagate() {
        let err = ddmin::<&'static str>(
            16,
            |step, _| {
                if step == 3 {
                    Err("boom")
                } else {
                    Ok(false)
                }
            },
        );
        assert_eq!(err.unwrap_err(), "boom");
    }
}
