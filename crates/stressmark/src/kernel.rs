//! The structured stressmark loop: a high-power region followed by a
//! low-power region (paper Fig. 7).
//!
//! AUDIT's hierarchical generation (§3.C) builds the high-power region
//! out of `S` replicated sub-blocks of length `K`; the low-power region
//! is NOPs (the paper found NOPs as low-power as dependent long-latency
//! chains on its processor, §3.C).

use audit_cpu::{Inst, Opcode, Program};
use audit_error::AuditError;

/// A high/low stressmark loop.
///
/// # Example
///
/// ```
/// use audit_cpu::{Inst, Opcode};
/// use audit_stressmark::Kernel;
///
/// let sub_block = vec![
///     Inst::new(Opcode::SimdFMul).fp_dst(0).fp_srcs(8, 9),
///     Inst::new(Opcode::IAdd).int_dst(0).int_srcs(8, 9),
/// ];
/// let kernel = Kernel::from_sub_blocks("demo", &sub_block, 4, 60);
/// let program = kernel.to_program();
/// assert_eq!(program.len(), 4 * 2 + 60);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    hp: Vec<Inst>,
    lp_nops: usize,
}

impl Kernel {
    /// Creates a kernel from an explicit high-power instruction sequence
    /// and an LP region of `lp_nops` NOPs.
    ///
    /// # Panics
    ///
    /// Panics if the high-power region is empty.
    pub fn new(name: impl Into<String>, hp: Vec<Inst>, lp_nops: usize) -> Self {
        Kernel::try_new(name, hp, lp_nops).expect("high-power region must not be empty")
    }

    /// Fallible form of [`Self::new`].
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if the high-power region
    /// is empty.
    pub(crate) fn try_new(
        name: impl Into<String>,
        hp: Vec<Inst>,
        lp_nops: usize,
    ) -> Result<Self, AuditError> {
        if hp.is_empty() {
            return Err(AuditError::invalid(
                "Kernel",
                "hp",
                "high-power region must not be empty",
            ));
        }
        Ok(Kernel {
            name: name.into(),
            hp,
            lp_nops,
        })
    }

    /// Hierarchical construction: the HP region is `s` copies of
    /// `sub_block` (paper §3.C).
    ///
    /// # Panics
    ///
    /// Panics if `sub_block` is empty or `s == 0`.
    pub fn from_sub_blocks(
        name: impl Into<String>,
        sub_block: &[Inst],
        s: usize,
        lp_nops: usize,
    ) -> Self {
        Kernel::try_from_sub_blocks(name, sub_block, s, lp_nops)
            .expect("sub-block must be non-empty and replicated at least once")
    }

    /// Fallible form of [`Self::from_sub_blocks`].
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if `sub_block` is empty or
    /// `s == 0`.
    pub(crate) fn try_from_sub_blocks(
        name: impl Into<String>,
        sub_block: &[Inst],
        s: usize,
        lp_nops: usize,
    ) -> Result<Self, AuditError> {
        if sub_block.is_empty() {
            return Err(AuditError::invalid(
                "Kernel",
                "sub_block",
                "sub-block must not be empty",
            ));
        }
        if s == 0 {
            return Err(AuditError::invalid(
                "Kernel",
                "s",
                "need at least one sub-block",
            ));
        }
        let hp: Vec<Inst> = sub_block
            .iter()
            .copied()
            .cycle()
            .take(sub_block.len() * s)
            .collect();
        Kernel::try_new(name, hp, lp_nops)
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The high-power region.
    pub fn hp(&self) -> &[Inst] {
        &self.hp
    }

    /// Number of NOPs in the low-power region.
    pub fn lp_nops(&self) -> usize {
        self.lp_nops
    }

    /// Replaces the name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Total static instructions per loop iteration.
    pub fn len(&self) -> usize {
        self.hp.len() + self.lp_nops
    }

    /// Always false; construction rejects empty HP regions.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flattens into an executable [`Program`]: HP region then LP NOPs.
    pub fn to_program(&self) -> Program {
        let mut body = self.hp.clone();
        body.extend(std::iter::repeat_n(Inst::new(Opcode::Nop), self.lp_nops));
        Program::new(self.name.clone(), body)
    }

    /// Replaces every NOP in the *high-power region* with the given
    /// instruction — the paper's §5.A.5 experiment (swapping A-Res's HP
    /// NOPs for independent ADDs lowered the droop and shifted the loop
    /// off resonance).
    pub fn with_hp_nops_replaced(&self, replacement: Inst) -> Kernel {
        let hp = self
            .hp
            .iter()
            .map(|i| if i.opcode.is_nop() { replacement } else { *i })
            .collect();
        Kernel {
            name: format!("{}-nops-replaced", self.name),
            hp,
            lp_nops: self.lp_nops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Vec<Inst> {
        vec![
            Inst::new(Opcode::SimdFMul).fp_dst(0).fp_srcs(8, 9),
            Inst::new(Opcode::Nop),
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(8, 9),
        ]
    }

    #[test]
    fn sub_blocks_replicate() {
        let k = Kernel::from_sub_blocks("k", &block(), 3, 10);
        assert_eq!(k.hp().len(), 9);
        assert_eq!(k.len(), 19);
        assert_eq!(k.hp()[0], k.hp()[3]);
        assert_eq!(k.hp()[2], k.hp()[8]);
    }

    #[test]
    fn to_program_appends_lp_nops() {
        let k = Kernel::from_sub_blocks("k", &block(), 1, 5);
        let p = k.to_program();
        assert_eq!(p.len(), 8);
        assert!(p.body()[3..].iter().all(|i| i.opcode.is_nop()));
    }

    #[test]
    fn nop_replacement_touches_only_hp_nops() {
        let k = Kernel::from_sub_blocks("k", &block(), 2, 4);
        let r = k.with_hp_nops_replaced(Inst::new(Opcode::IAdd).int_dst(7).int_srcs(8, 9));
        // HP NOPs replaced…
        assert!(r.hp().iter().all(|i| !i.opcode.is_nop()));
        // …but the LP region is still NOPs.
        assert_eq!(r.lp_nops(), 4);
        let p = r.to_program();
        assert!(p.body()[r.hp().len()..].iter().all(|i| i.opcode.is_nop()));
    }

    #[test]
    #[should_panic(expected = "sub-block")]
    fn empty_sub_block_panics() {
        let _ = Kernel::from_sub_blocks("k", &[], 2, 4);
    }

    #[test]
    fn try_builders_return_errors_instead_of_panicking() {
        assert_eq!(
            Kernel::try_new("k", Vec::new(), 4).unwrap_err(),
            AuditError::invalid("Kernel", "hp", "high-power region must not be empty")
        );
        assert_eq!(
            Kernel::try_from_sub_blocks("k", &[], 2, 4).unwrap_err(),
            AuditError::invalid("Kernel", "sub_block", "sub-block must not be empty")
        );
        assert_eq!(
            Kernel::try_from_sub_blocks("k", &block(), 0, 4).unwrap_err(),
            AuditError::invalid("Kernel", "s", "need at least one sub-block")
        );
        let k = Kernel::try_from_sub_blocks("k", &block(), 3, 10).unwrap();
        assert_eq!(k, Kernel::from_sub_blocks("k", &block(), 3, 10));
    }

    #[test]
    fn lp_length_is_adjustable() {
        let k = Kernel::from_sub_blocks("k", &block(), 1, 32);
        assert_eq!(k.lp_nops(), 32);
        assert_eq!(k.to_program().len(), 35);
    }
}
