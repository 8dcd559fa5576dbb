//! Operating-system interference model.
//!
//! The AUDIT paper's measurements run under a real OS, and §3.A shows the
//! OS is not a passive bystander: timer-tick interrupt service perturbs
//! each thread by a different amount every ~16 ms (the Windows timer
//! tick), drifting the relative alignment of resonant loops across cores.
//! The paper names this **natural dithering** and shows it periodically
//! walks the threads into constructive alignment, maximizing droop
//! (Fig. 6) — something invisible to bare cycle simulators.
//!
//! This crate models exactly that mechanism:
//!
//! * [`OsModel`] — per-thread timer ticks with pseudo-random interrupt
//!   service durations, injected into the chip as front-end stalls; can
//!   be disabled, which is the precondition for the paper's deterministic
//!   dithering algorithm (§3.B),
//! * [`BarrierRelease`] — the skewed barrier-release behaviour of §5.A.1:
//!   cores leave a barrier at slightly different times depending on where
//!   in the memory hierarchy they receive the release signal, which
//!   dampens the hoped-for synchronized power surge.
//!
//! # Example
//!
//! ```
//! use audit_os::{OsConfig, OsModel};
//!
//! let cfg = OsConfig::windows_like(3.2e9).with_seed(7);
//! let mut os = OsModel::new(cfg, 4);
//! // In a simulation loop: os.pre_cycle(now, &mut chip);
//! assert!(os.config().interrupts_enabled);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use audit_cpu::ChipSim;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Timer-tick and interrupt-service parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsConfig {
    /// Cycles between timer ticks on each core.
    pub tick_period_cycles: u64,
    /// Minimum interrupt-service duration in cycles.
    pub isr_min_cycles: u64,
    /// Maximum interrupt-service duration in cycles.
    pub isr_max_cycles: u64,
    /// Per-core stagger of the first tick, in cycles (core `i` first
    /// ticks at `i * stagger`).
    pub stagger_cycles: u64,
    /// RNG seed for ISR duration jitter (deterministic runs).
    pub seed: u64,
    /// Whether timer interrupts fire at all. The dithering algorithm
    /// requires this to be `false` (paper §3.B: "once OS interrupts are
    /// disabled").
    pub interrupts_enabled: bool,
}

impl OsConfig {
    /// A Windows-7-like configuration at the given clock: 15.6 ms timer
    /// tick, ISR service of ~1–6 µs.
    pub fn windows_like(clock_hz: f64) -> Self {
        OsConfig {
            tick_period_cycles: (15.6e-3 * clock_hz) as u64,
            isr_min_cycles: (1.0e-6 * clock_hz) as u64,
            isr_max_cycles: (6.0e-6 * clock_hz) as u64,
            stagger_cycles: (0.4e-3 * clock_hz) as u64,
            seed: 1,
            interrupts_enabled: true,
        }
    }

    /// A time-compressed variant for fast simulation: same structure,
    /// tick every `period` cycles instead of ~50 M. Experiments that
    /// reproduce Fig. 6 use this to keep run time sane while preserving
    /// the tick→dither mechanism.
    pub fn compressed(period: u64) -> Self {
        OsConfig {
            tick_period_cycles: period.max(1),
            isr_min_cycles: period / 50 + 1,
            isr_max_cycles: period / 10 + 2,
            stagger_cycles: period / 7,
            seed: 1,
            interrupts_enabled: true,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables timer interrupts (the dithering precondition).
    pub fn with_interrupts_disabled(mut self) -> Self {
        self.interrupts_enabled = false;
        self
    }
}

/// The OS interference engine: drives per-thread timer ticks.
#[derive(Debug, Clone)]
pub struct OsModel {
    cfg: OsConfig,
    rng: SmallRng,
    next_tick: Vec<u64>,
    ticks_delivered: u64,
}

impl OsModel {
    /// Creates the model for `threads` hardware threads.
    pub fn new(cfg: OsConfig, threads: usize) -> Self {
        let next_tick = (0..threads as u64)
            .map(|i| i * cfg.stagger_cycles)
            .collect();
        OsModel {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_tick,
            ticks_delivered: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Number of timer interrupts delivered so far.
    pub fn ticks_delivered(&self) -> u64 {
        self.ticks_delivered
    }

    /// Call once per simulated cycle *before* stepping the chip: fires
    /// any due timer ticks as front-end stalls of pseudo-random duration.
    ///
    /// Each ISR perturbs its thread's loop phase by a different amount —
    /// the natural-dithering mechanism of paper §3.A.
    pub fn pre_cycle(&mut self, now: u64, chip: &mut ChipSim) {
        if !self.cfg.interrupts_enabled {
            return;
        }
        for thread in 0..self.next_tick.len().min(chip.thread_count()) {
            if now >= self.next_tick[thread] {
                let isr = self.rng.gen_range(
                    self.cfg.isr_min_cycles..=self.cfg.isr_max_cycles.max(self.cfg.isr_min_cycles),
                );
                chip.inject_stall(thread, isr);
                self.next_tick[thread] = now + self.cfg.tick_period_cycles;
                self.ticks_delivered += 1;
            }
        }
    }
}

/// Barrier-release skew model (paper §5.A.1).
///
/// # Example
///
/// ```
/// use audit_os::BarrierRelease;
///
/// let mut release = BarrierRelease::bulldozer_like(7);
/// let offsets = release.draw_offsets(4);
/// assert!(offsets.iter().all(|&o| (15..=90).contains(&o)));
/// ```
///
/// On the Bulldozer module there is no mechanism that synchronizes the
/// barrier release across cores: each core observes the release from a
/// different level of the memory hierarchy, so the cores restart at
/// slightly different cycles, damping the first droop excitation the
/// barrier was expected to cause.
#[derive(Debug, Clone)]
pub struct BarrierRelease {
    rng: SmallRng,
    /// Minimum release latency (the fastest core, e.g. the one holding
    /// the line in L1), in cycles.
    pub min_latency: u64,
    /// Maximum release latency (a core reading from L3/remote cache).
    pub max_latency: u64,
}

impl BarrierRelease {
    /// A Bulldozer-like skew: release observed between 15 and 90 cycles
    /// after the last arrival, spanning L2/L3 observation latencies —
    /// enough to decorrelate a ~30-cycle resonant period.
    pub fn bulldozer_like(seed: u64) -> Self {
        BarrierRelease {
            rng: SmallRng::seed_from_u64(seed),
            min_latency: 15,
            max_latency: 90,
        }
    }

    /// An idealized synchronous release (every core restarts at the same
    /// cycle) — the behaviour the paper *expected* but did not observe.
    pub fn ideal() -> Self {
        BarrierRelease {
            rng: SmallRng::seed_from_u64(0),
            min_latency: 0,
            max_latency: 0,
        }
    }

    /// Draws per-thread restart offsets for one barrier episode.
    pub fn draw_offsets(&mut self, threads: usize) -> Vec<u64> {
        (0..threads)
            .map(|_| {
                if self.max_latency == self.min_latency {
                    self.min_latency
                } else {
                    self.rng.gen_range(self.min_latency..=self.max_latency)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::{ChipConfig, Program};

    fn chip(n: u32) -> ChipSim {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(n).unwrap();
        let programs = vec![Program::nops(16); n as usize];
        ChipSim::new(&cfg, &placement, &programs).unwrap()
    }

    #[test]
    fn ticks_fire_at_period() {
        let cfg = OsConfig::compressed(1_000).with_seed(3);
        let mut os = OsModel::new(cfg, 4);
        let mut c = chip(4);
        for now in 0..10_000u64 {
            os.pre_cycle(now, &mut c);
            c.step();
        }
        // 4 threads × ~10 periods each.
        assert!(
            (30..=50).contains(&os.ticks_delivered()),
            "{}",
            os.ticks_delivered()
        );
    }

    #[test]
    fn disabled_interrupts_fire_nothing() {
        let cfg = OsConfig::compressed(100).with_interrupts_disabled();
        let mut os = OsModel::new(cfg, 4);
        let mut c = chip(4);
        for now in 0..5_000u64 {
            os.pre_cycle(now, &mut c);
            c.step();
        }
        assert_eq!(os.ticks_delivered(), 0);
    }

    #[test]
    fn isr_durations_vary_across_ticks() {
        // Natural dithering requires *variable* perturbation. Check that
        // the thread's retirement loss differs between tick episodes.
        let cfg = OsConfig::compressed(2_000).with_seed(11);
        let mut os = OsModel::new(cfg, 1);
        let mut c = chip(1);
        let mut retired_at_tick = Vec::new();
        for now in 0..20_000u64 {
            os.pre_cycle(now, &mut c);
            c.step();
            if now % 2_000 == 1_999 {
                retired_at_tick.push(c.thread_retired(0));
            }
        }
        let deltas: Vec<u64> = retired_at_tick.windows(2).map(|w| w[1] - w[0]).collect();
        let all_same = deltas.windows(2).all(|w| w[0] == w[1]);
        assert!(
            !all_same,
            "ISR jitter produced identical periods: {deltas:?}"
        );
    }

    #[test]
    fn os_interference_slows_threads() {
        let mut with_os = chip(2);
        let mut without_os = chip(2);
        let mut os = OsModel::new(OsConfig::compressed(500).with_seed(5), 2);
        for now in 0..20_000u64 {
            os.pre_cycle(now, &mut with_os);
            with_os.step();
            without_os.step();
        }
        assert!(with_os.thread_retired(0) < without_os.thread_retired(0));
    }

    #[test]
    fn os_model_is_deterministic_per_seed() {
        let run = |seed| {
            let mut os = OsModel::new(OsConfig::compressed(700).with_seed(seed), 2);
            let mut c = chip(2);
            for now in 0..15_000u64 {
                os.pre_cycle(now, &mut c);
                c.step();
            }
            (c.thread_retired(0), c.thread_retired(1))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn barrier_skew_spans_range() {
        let mut b = BarrierRelease::bulldozer_like(2);
        let offsets = b.draw_offsets(64);
        assert!(offsets.iter().all(|&o| (15..=90).contains(&o)));
        let min = offsets.iter().min().unwrap();
        let max = offsets.iter().max().unwrap();
        assert!(max - min > 20, "skew range too small: {min}..{max}");
    }

    #[test]
    fn ideal_barrier_has_no_skew() {
        let mut b = BarrierRelease::ideal();
        let offsets = b.draw_offsets(8);
        assert!(offsets.iter().all(|&o| o == 0));
    }

    #[test]
    fn windows_like_tick_is_milliseconds() {
        let cfg = OsConfig::windows_like(3.2e9);
        let period_s = cfg.tick_period_cycles as f64 / 3.2e9;
        assert!((0.014..0.017).contains(&period_s), "{period_s}");
    }
}
