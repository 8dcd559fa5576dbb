//! Thread-to-core placement.
//!
//! The paper assigns threads the way SPECrate does (§5.A): for 1T/2T/4T
//! runs each thread gets its own module (shared module resources make
//! droops larger when threads are spatially distributed); the 8T run
//! fills both cores of every module.

use audit_error::AuditError;

use crate::config::ChipConfig;

/// A slot on the chip: `(module index, core-within-module index)`.
pub type Slot = (u32, u32);

/// An assignment of thread programs to hardware slots.
///
/// The `i`-th entry names the slot that runs the `i`-th program handed to
/// [`crate::ChipSim::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    slots: Vec<Slot>,
}

impl Placement {
    /// Creates a placement from explicit slots.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if `slots` is empty or
    /// contains duplicates.
    pub fn new(slots: Vec<Slot>) -> Result<Self, AuditError> {
        if slots.is_empty() {
            return Err(AuditError::invalid(
                "Placement",
                "slots",
                "must contain at least one slot",
            ));
        }
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                if a == b {
                    return Err(AuditError::invalid(
                        "Placement",
                        "slots",
                        format!("duplicate placement slot {a:?}"),
                    ));
                }
            }
        }
        Ok(Placement { slots })
    }

    /// The paper's spreading policy: one thread per module first, then
    /// second cores.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if `n` is zero or exceeds
    /// the chip's thread count.
    pub fn spread(config: &ChipConfig, n: u32) -> Result<Self, AuditError> {
        if n == 0 {
            return Err(AuditError::invalid(
                "Placement",
                "threads",
                "need at least one thread",
            ));
        }
        if n > config.total_threads() {
            return Err(AuditError::invalid(
                "Placement",
                "threads",
                format!(
                    "{n} threads exceed chip capacity {}",
                    config.total_threads()
                ),
            ));
        }
        let slots = (0..n)
            .map(|i| (i % config.modules, i / config.modules))
            .collect();
        Ok(Placement { slots })
    }

    /// The slots, in thread order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of threads placed.
    pub fn thread_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;

    #[test]
    fn spread_fills_modules_first() {
        let c = ChipConfig::bulldozer();
        let p = Placement::spread(&c, 4).unwrap();
        assert_eq!(p.slots(), &[(0, 0), (1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn spread_eight_threads_shares_modules() {
        let c = ChipConfig::bulldozer();
        let p = Placement::spread(&c, 8).unwrap();
        assert_eq!(p.thread_count(), 8);
        assert_eq!(p.slots()[4], (0, 1));
    }

    #[test]
    fn spread_rejects_too_many_threads() {
        let err = Placement::spread(&ChipConfig::phenom(), 8).unwrap_err();
        assert!(err.to_string().contains("exceed chip capacity"), "{err}");
    }

    #[test]
    fn spread_rejects_zero_threads() {
        assert!(Placement::spread(&ChipConfig::phenom(), 0).is_err());
    }

    #[test]
    fn new_rejects_duplicates_and_empty() {
        let err = Placement::new(vec![(0, 0), (0, 0)]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert!(Placement::new(vec![]).is_err());
    }
}
