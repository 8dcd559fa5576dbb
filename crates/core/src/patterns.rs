//! The idealized periodic activity pattern of paper Fig. 7, and its
//! compilation into executable kernels.
//!
//! A resonant pattern is `H` cycles of high power followed by `L` cycles
//! of low power, repeated for `M` cycles to build a large resonant
//! droop; a first-droop *excitation* is a low region followed by a high
//! region whose sum is *not* periodic at the resonance (§3.B).

use audit_cpu::{ChipConfig, Inst, Opcode};
use audit_stressmark::Kernel;

/// The Fig. 7 waveform parameters, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityPattern {
    /// High-power duration per period.
    pub h: u32,
    /// Low-power duration per period.
    pub l: u32,
    /// Cycles the pattern must repeat to build and sustain resonance.
    pub m: u32,
}

impl ActivityPattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `l` is zero.
    pub fn new(h: u32, l: u32, m: u32) -> Self {
        assert!(
            h > 0 && l > 0,
            "pattern needs non-empty high and low regions"
        );
        ActivityPattern { h, l, m }
    }

    /// A 50 % duty-cycle pattern at `period` cycles, sustained for
    /// `periods` repetitions.
    pub fn square(period: u32, periods: u32) -> Self {
        let h = (period / 2).max(1);
        ActivityPattern::new(h, (period - h).max(1), period * periods)
    }

    /// Period `H + L` in cycles.
    pub fn period(&self) -> u32 {
        self.h + self.l
    }

    /// The pattern's fundamental frequency at the given clock.
    pub fn frequency_hz(&self, clock_hz: f64) -> f64 {
        clock_hz / self.period() as f64
    }

    /// The per-cycle activity waveform: `true` = high-power phase.
    /// Useful for driving the PDN directly in idealized experiments
    /// (Fig. 4).
    pub fn is_high(&self, cycle: u64) -> bool {
        (cycle % self.period() as u64) < self.h as u64
    }

    /// Compiles the pattern into an executable kernel for `chip`:
    /// the high phase is filled with a saturating FP/SIMD + integer mix
    /// (the strongest generic filler), the low phase with NOPs, both
    /// sized by the chip's fetch width.
    pub fn to_kernel(&self, chip: &ChipConfig) -> Kernel {
        let w = chip.core.fetch_width as usize;
        let hp_slots = self.h as usize * w;
        let hp: Vec<Inst> = (0..hp_slots)
            .map(|i| match i % 4 {
                0 | 1 => {
                    let op = if chip.runs(Opcode::SimdFma) {
                        Opcode::SimdFma
                    } else {
                        Opcode::SimdFMul
                    };
                    Inst::new(op).fp_dst((i % 8) as u8).fp_srcs(12, 13)
                }
                2 => Inst::new(Opcode::IAdd)
                    .int_dst((i % 6) as u8)
                    .int_srcs(14, 15),
                _ => Inst::new(Opcode::Nop),
            })
            .collect();
        Kernel::new(
            format!("pattern-h{}l{}", self.h, self.l),
            hp,
            self.l as usize * w,
        )
    }
}

/// Builds a first-droop *excitation* kernel: a long quiet region (far
/// longer than the resonant period, so successive bursts do not
/// reinforce) followed by one abrupt full-width burst.
pub fn excitation_kernel(chip: &ChipConfig, burst_cycles: u32, quiet_cycles: u32) -> Kernel {
    let pattern = ActivityPattern::new(burst_cycles, quiet_cycles, 0);
    pattern
        .to_kernel(chip)
        .with_name(format!("excitation-b{burst_cycles}q{quiet_cycles}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_pattern_has_half_duty() {
        let p = ActivityPattern::square(30, 10);
        assert_eq!(p.h, 15);
        assert_eq!(p.l, 15);
        assert_eq!(p.period(), 30);
        assert_eq!(p.m, 300);
    }

    #[test]
    fn frequency_matches_period() {
        let p = ActivityPattern::square(32, 1);
        assert!((p.frequency_hz(3.2e9) - 1e8).abs() < 1.0);
    }

    #[test]
    fn waveform_alternates() {
        let p = ActivityPattern::new(2, 3, 0);
        let wave: Vec<bool> = (0..10).map(|c| p.is_high(c)).collect();
        assert_eq!(
            wave,
            [true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn kernel_sizes_follow_fetch_width() {
        let chip = audit_cpu::ChipConfig::bulldozer();
        let k = ActivityPattern::new(15, 15, 0).to_kernel(&chip);
        assert_eq!(k.hp().len(), 60);
        assert_eq!(k.lp_nops(), 60);
    }

    #[test]
    fn kernel_respects_fma_support() {
        let phenom = audit_cpu::ChipConfig::phenom();
        let k = ActivityPattern::new(8, 8, 0).to_kernel(&phenom);
        assert!(k.to_program().avoids_fma());

        let bd = audit_cpu::ChipConfig::bulldozer();
        let k = ActivityPattern::new(8, 8, 0).to_kernel(&bd);
        assert!(!k.to_program().avoids_fma());
    }

    #[test]
    fn excitation_kernel_is_mostly_quiet() {
        let chip = audit_cpu::ChipConfig::bulldozer();
        let k = excitation_kernel(&chip, 20, 200);
        let p = k.to_program();
        let nops = p.body().iter().filter(|i| i.opcode.is_nop()).count();
        assert!(nops as f64 / p.len() as f64 > 0.8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_high_region_panics() {
        let _ = ActivityPattern::new(0, 4, 0);
    }
}
