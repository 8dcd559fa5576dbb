//! Chip, module, and core configuration.
//!
//! Two presets reproduce the paper's platforms:
//!
//! * [`ChipConfig::bulldozer`] — the primary system: four two-thread
//!   modules with shared front end and FPU, 3.2 GHz, FMA-capable.
//! * [`ChipConfig::phenom`] — the older 45-nm part swapped onto the same
//!   board in §5.C: four single-thread cores, private FPUs, narrower
//!   pipeline, no FMA, weaker clock gating.

use audit_error::AuditError;

use crate::cache::CacheConfig;
use crate::energy::EnergyModel;
use crate::inst::Program;
use crate::placement::Placement;

/// A dynamic di/dt limiter: a chip-level controller that watches the
/// cycle-to-cycle current slew and throttles the front end when it
/// exceeds a threshold — the *reactive* mitigation class the paper's §2
/// surveys (limiting the rate of change of activity), as opposed to the
/// static FPU throttle of §5.B. An AUDIT extension experiment
/// regenerates stressmarks against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DidtLimiter {
    /// Trigger threshold: current rise per cycle, in amps.
    pub slew_amps_per_cycle: f64,
    /// Cycles the throttle stays engaged once triggered.
    pub hold_cycles: u32,
    /// Per-core fetch cap while engaged (gradual, not a freeze, to
    /// avoid the controller itself ringing the PDN).
    pub fetch_cap: u32,
}

impl DidtLimiter {
    /// A conservative default: trigger on a 6 A/cycle rise, throttle to
    /// 2-wide fetch for 24 cycles.
    pub const fn default_tuning() -> Self {
        DidtLimiter {
            slew_amps_per_cycle: 6.0,
            hold_cycles: 24,
            fetch_cap: 2,
        }
    }
}

/// Per-core pipeline resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Max instructions fetched + decoded per cycle (when this core owns
    /// the front end that cycle).
    pub fetch_width: u32,
    /// Max instructions issued to execution units per cycle.
    pub issue_width: u32,
    /// Result buses / register-file write ports per cycle: ops that
    /// write a register compete for these. Narrower than `issue_width`
    /// on real cores — the structural hazard behind the paper's §5.A.5
    /// NOP analysis (NOPs and stores consume issue slots but no write
    /// port, so they keep a dense loop on period).
    pub writeback_ports: u32,
    /// Max instructions retired per cycle.
    pub retire_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Integer scheduler entries (un-issued int ops in flight).
    pub int_sched: u32,
    /// Integer physical registers available for renaming (beyond
    /// architectural state).
    pub int_prf: u32,
    /// Media physical registers available for renaming.
    pub fp_prf: u32,
    /// Number of integer ALUs.
    pub int_alus: u32,
    /// Number of address-generation/load-store units.
    pub agus: u32,
    /// L1-hit load-to-use latency in cycles.
    pub l2_miss_cycles: u32,
    /// Stall cycles for a miss to memory.
    pub mem_miss_cycles: u32,
    /// Front-end flush penalty on a branch mispredict, in cycles.
    pub mispredict_penalty: u32,
    /// L1-D geometry (consulted by strided loads).
    pub l1: CacheConfig,
    /// L2 geometry (consulted by strided loads).
    pub l2: CacheConfig,
}

/// Per-module resources (a module is one or two cores plus shared logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleConfig {
    /// Hardware threads (cores) per module: 2 for Bulldozer, 1 for
    /// Phenom.
    pub cores: u32,
    /// FP/SIMD pipes shared by the module's cores.
    pub fp_pipes: u32,
    /// FP scheduler entries shared by the module's cores.
    pub fp_sched: u32,
    /// True if the front end is shared: with both cores active each core
    /// is fetched on alternate cycles.
    pub shared_frontend: bool,
    /// Static FPU throttle: max FP issues per module per cycle, if
    /// enabled (paper §5.B).
    pub fp_throttle: Option<u32>,
}

/// Whole-chip configuration.
///
/// # Example
///
/// ```
/// use audit_cpu::ChipConfig;
///
/// let chip = ChipConfig::bulldozer().with_fpu_throttle(1);
/// assert_eq!(chip.total_threads(), 8);
/// assert_eq!(chip.module.fp_throttle, Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Human-readable chip name for reports.
    pub name: String,
    /// Number of modules on the chip.
    pub modules: u32,
    /// Module configuration (uniform across the chip).
    pub module: ModuleConfig,
    /// Core configuration (uniform across the chip).
    pub core: CoreConfig,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Current model.
    pub energy: EnergyModel,
    /// Whether the chip implements FMA-class instructions.
    pub supports_fma: bool,
    /// Optional dynamic di/dt limiter (extension experiment).
    pub didt_limiter: Option<DidtLimiter>,
}

impl ChipConfig {
    /// The paper's primary platform: a four-module, eight-thread
    /// Bulldozer-class chip at 3.2 GHz.
    pub fn bulldozer() -> Self {
        ChipConfig {
            name: "bulldozer-4m8t".into(),
            modules: 4,
            module: ModuleConfig {
                cores: 2,
                fp_pipes: 2,
                fp_sched: 48,
                shared_frontend: true,
                fp_throttle: None,
            },
            core: CoreConfig {
                fetch_width: 4,
                issue_width: 4,
                writeback_ports: 3,
                retire_width: 4,
                rob_size: 96,
                int_sched: 32,
                int_prf: 72,
                fp_prf: 64,
                int_alus: 2,
                agus: 2,
                l2_miss_cycles: 20,
                mem_miss_cycles: 180,
                mispredict_penalty: 14,
                l1: CacheConfig::l1d_bulldozer(),
                l2: CacheConfig::l2_bulldozer(),
            },
            clock_hz: 3.2e9,
            energy: EnergyModel::bulldozer(),
            supports_fma: true,
            didt_limiter: None,
        }
    }

    /// The older 45-nm Phenom II-class part from §5.C: four single-thread
    /// cores with private FPUs, a 3-wide pipeline, no FMA, and weaker
    /// clock gating.
    pub fn phenom() -> Self {
        ChipConfig {
            name: "phenom-x4".into(),
            modules: 4,
            module: ModuleConfig {
                cores: 1,
                fp_pipes: 2,
                fp_sched: 36,
                shared_frontend: false,
                fp_throttle: None,
            },
            core: CoreConfig {
                fetch_width: 3,
                issue_width: 3,
                writeback_ports: 2,
                retire_width: 3,
                rob_size: 72,
                int_sched: 24,
                int_prf: 56,
                fp_prf: 48,
                int_alus: 3,
                agus: 2,
                l2_miss_cycles: 18,
                mem_miss_cycles: 160,
                mispredict_penalty: 12,
                l1: CacheConfig::l1d_phenom(),
                l2: CacheConfig::l2_phenom(),
            },
            clock_hz: 3.0e9,
            energy: EnergyModel::phenom(),
            supports_fma: false,
            didt_limiter: None,
        }
    }

    /// A hypothetical dense many-core part: eight Bulldozer-style
    /// modules (16 threads). The paper's exact dithering becomes
    /// astronomically slow at this scale (§3.B), which is what the
    /// approximate algorithm exists for.
    pub fn manycore() -> Self {
        let mut cfg = Self::bulldozer();
        cfg.name = "manycore-8m16t".into();
        cfg.modules = 8;
        // More modules on the same rail: proportionally more uncore.
        cfg.energy.uncore_amps *= 1.5;
        cfg
    }

    /// Enables the static FPU throttle at `max_fp_per_cycle` issues per
    /// module per cycle (paper §5.B).
    pub fn with_fpu_throttle(mut self, max_fp_per_cycle: u32) -> Self {
        self.module.fp_throttle = Some(max_fp_per_cycle);
        self
    }

    /// Enables the dynamic di/dt limiter (extension experiment).
    pub fn with_didt_limiter(mut self, limiter: DidtLimiter) -> Self {
        self.didt_limiter = Some(limiter);
        self
    }

    /// Total hardware threads on the chip.
    pub fn total_threads(&self) -> u32 {
        self.modules * self.module.cores
    }

    /// The paper's thread-placement policy (§5.A): `n` threads are
    /// spread one per module first (droops are larger when threads have
    /// private modules); only past `modules` threads do modules get their
    /// second core filled.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if `n` is zero or exceeds
    /// [`ChipConfig::total_threads`].
    pub fn spread_placement(&self, n: u32) -> Result<Placement, AuditError> {
        Placement::spread(self, n)
    }

    /// Checks that this chip can run `program`: FMA-class instructions
    /// need a chip with FMA support (paper §5.C could not run SM1 on the
    /// older part).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Unsupported`] naming the program and the
    /// chip.
    pub fn check_program(&self, program: &Program) -> Result<(), AuditError> {
        if self.supports_fma || program.avoids_fma() {
            return Ok(());
        }
        Err(AuditError::Unsupported {
            context: "ChipSim",
            message: format!(
                "program `{}` uses instructions chip `{}` does not support",
                program.name(),
                self.name
            ),
        })
    }

    /// Checks structural parameters: module/core counts, pipeline
    /// widths, clock, and limiter tuning must all be positive (and the
    /// clock finite).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), AuditError> {
        let positives: [(u64, &'static str); 8] = [
            (u64::from(self.modules), "modules"),
            (u64::from(self.module.cores), "module.cores"),
            (u64::from(self.module.fp_pipes), "module.fp_pipes"),
            (u64::from(self.core.fetch_width), "core.fetch_width"),
            (u64::from(self.core.issue_width), "core.issue_width"),
            (u64::from(self.core.writeback_ports), "core.writeback_ports"),
            (u64::from(self.core.retire_width), "core.retire_width"),
            (u64::from(self.core.rob_size), "core.rob_size"),
        ];
        for (v, field) in positives {
            if v == 0 {
                return Err(AuditError::invalid(
                    "ChipConfig",
                    field,
                    "must be at least 1 (got 0)",
                ));
            }
        }
        if !(self.clock_hz.is_finite() && self.clock_hz > 0.0) {
            return Err(AuditError::invalid(
                "ChipConfig",
                "clock_hz",
                format!("must be positive and finite (got {:?})", self.clock_hz),
            ));
        }
        if let Some(l) = &self.didt_limiter {
            if !(l.slew_amps_per_cycle.is_finite() && l.slew_amps_per_cycle > 0.0) {
                return Err(AuditError::invalid(
                    "ChipConfig",
                    "didt_limiter.slew_amps_per_cycle",
                    format!(
                        "must be positive and finite (got {:?})",
                        l.slew_amps_per_cycle
                    ),
                ));
            }
            if l.fetch_cap == 0 {
                return Err(AuditError::invalid(
                    "ChipConfig",
                    "didt_limiter.fetch_cap",
                    "must be at least 1 (got 0); use hold_cycles to modulate strength",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulldozer_has_eight_threads() {
        assert_eq!(ChipConfig::bulldozer().total_threads(), 8);
    }

    #[test]
    fn phenom_has_four_threads_no_fma() {
        let p = ChipConfig::phenom();
        assert_eq!(p.total_threads(), 4);
        assert!(!p.supports_fma);
        assert!(!p.module.shared_frontend);
    }

    #[test]
    fn throttle_builder_sets_cap() {
        let c = ChipConfig::bulldozer().with_fpu_throttle(1);
        assert_eq!(c.module.fp_throttle, Some(1));
    }

    #[test]
    fn manycore_doubles_the_modules() {
        let m = ChipConfig::manycore();
        assert_eq!(m.total_threads(), 16);
        assert_eq!(m.module.cores, 2);
        assert!(m.energy.uncore_amps > ChipConfig::bulldozer().energy.uncore_amps);
    }

    #[test]
    fn presets_validate() {
        ChipConfig::bulldozer().validate().unwrap();
        ChipConfig::phenom().validate().unwrap();
        ChipConfig::manycore().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_modules_and_bad_clock() {
        let mut c = ChipConfig::bulldozer();
        c.modules = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("modules"), "{err}");

        let mut c = ChipConfig::bulldozer();
        c.clock_hz = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_limiter() {
        let mut limiter = DidtLimiter::default_tuning();
        limiter.fetch_cap = 0;
        let c = ChipConfig::bulldozer().with_didt_limiter(limiter);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("fetch_cap"), "{err}");
    }

    #[test]
    fn a_thread_ipc_cap_is_four() {
        // Paper §4: "a thread can have a maximum IPC of four".
        let c = ChipConfig::bulldozer();
        assert_eq!(c.core.retire_width, 4);
        assert_eq!(c.core.issue_width, 4);
    }
}
