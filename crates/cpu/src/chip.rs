//! The whole-chip simulator: modules + uncore, stepped one clock cycle
//! at a time, reporting total current draw.

use std::borrow::Cow;

use audit_error::AuditError;

use crate::config::{ChipConfig, CoreConfig, DidtLimiter, ModuleConfig};
use crate::energy::EnergyModel;
use crate::inst::Program;
use crate::module_sim::{ModuleCycle, ModuleSim};
use crate::placement::Placement;

/// Per-cycle output of the chip — the sample handed to the PDN solver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChipCycle {
    /// Total chip current this cycle, in amps.
    pub amps: f64,
    /// Instructions retired chip-wide this cycle.
    pub retired: u32,
    /// FP ops issued chip-wide this cycle.
    pub fp_issued: u32,
    /// Maximum critical-path sensitivity exercised anywhere this cycle —
    /// consumed by the failure model.
    pub max_path: f64,
}

/// The chip simulator.
///
/// Modules share no state, so chip modules whose loads are equal up to a
/// start-time shift — the same programs on the same cores, every start
/// offset later by the same delay `d`, as when one stressmark or
/// benchmark is replicated one thread per module at a skew — step
/// identically, `d` cycles apart. The chip keeps one [`ModuleSim`] per
/// such class, loaded as its earliest member, and a ring of its last
/// outputs; a member delayed by `d` reads the class's output of `d`
/// cycles ago (the idle module's output before the class has run that
/// long). A module with two active cores shares only at delays that are
/// a multiple of its core count (sibling cores alternate FPU priority
/// and fetch by cycle parity), and with a di/dt limiter fitted only at
/// delay 0 (the chip-wide fetch cap differs between the cycles). Before
/// a member diverges, [`ChipSim::inject_stall`] gives it a simulator of
/// its own: a copy of the class's if it is not delayed, else one
/// rebuilt by stepping its loads from cycle 0, no more than stepping it
/// all along would have cost. [`ChipSim::thread_retired`] and
/// [`ChipSim::thread_telemetry`] read a delayed member the same way.
/// Results are bit-identical to stepping every module separately.
///
/// A loop body settles into a periodic steady state, and the chip
/// replays it instead of stepping. While stepping, the chip looks for a
/// cycle whose complete state equals the state `P` cycles earlier up to
/// a shift of absolute time (Brent's cycle detection: a snapshot at
/// power-of-two gaps, compared every cycle). The state compared is
/// canonical: times relative to the current cycle, ROB sequence numbers
/// relative to the next one, execution counters modulo the periods that
/// read them, cache tags in LRU order, which sibling core has FPU
/// priority, the ring entries a delayed member has still to read, and
/// the di/dt limiter's state. Once it matches, the chip
/// steps one more period into a buffer and from then on returns that
/// buffer cyclically; the stepped state stays where the buffer ended.
/// [`ChipSim::inject_stall`] first steps that state up to the current
/// cycle and restarts the search; the counters read back
/// ([`ChipSim::thread_retired`], [`ChipSim::thread_telemetry`],
/// [`ChipSim::limiter_triggers`]) come from a copy stepped up to it. A
/// replayed cycle is bit-identical to the stepped one.
///
/// # Example
///
/// ```
/// use audit_cpu::{AuditError, ChipConfig, ChipSim, Program};
///
/// # fn main() -> Result<(), AuditError> {
/// let config = ChipConfig::bulldozer();
/// let placement = config.spread_placement(2)?;
/// let programs = [Program::nops(16), Program::nops(16)];
/// let mut chip = ChipSim::new(&config, &placement, &programs)?;
/// for _ in 0..1000 {
///     let out = chip.step();
///     assert!(out.amps > 0.0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChipSim {
    /// The stepped state; behind `now` while replaying.
    live: LiveChip,
    /// The cycle the caller sees.
    now: u64,
    phase: Phase,
    placement: Placement,
}

/// The chip's state, advanced by stepping its modules.
#[derive(Debug, Clone)]
struct LiveChip {
    /// One class per set of chip modules equal up to a start-time shift.
    classes: Vec<Class>,
    /// Chip module `m` is `classes[members[m].0]` delayed by
    /// `members[m].1` cycles.
    members: Vec<(usize, u64)>,
    /// Each chip module's loads, `(core, program, start offset)`: what a
    /// delayed member that leaves its class is rebuilt from.
    loads: Vec<Vec<(u32, Program, u64)>>,
    /// What a module is built from.
    module_config: (ModuleConfig, CoreConfig, EnergyModel),
    uncore_amps: f64,
    miss_amps: f64,
    now: u64,
    limiter: Option<DidtLimiter>,
    prev_amps: f64,
    throttle_until: u64,
    limiter_triggers: u64,
}

/// Chip modules whose loads are equal up to a start-time shift,
/// simulated once.
#[derive(Debug, Clone)]
struct Class {
    /// Loaded as the class's earliest member.
    sim: ModuleSim,
    /// `sim`'s output of cycle `t` at `ring[t % ring.len()]`, the length
    /// a power of two above `span`; the idle module's output in the
    /// slots not yet written.
    ring: Vec<ModuleCycle>,
    /// The largest delay of a member: how many past outputs are still
    /// read.
    span: u64,
}

/// Largest delay at which a module joins a class; a module started
/// later than that after every equal one steps on its own. Bounds a
/// ring at 8 k entries and the state encoding at 4 words per entry.
const MAX_DELAY: u64 = 1 << 12;

/// Longest period the chip replays (and largest snapshot gap): bounds
/// the buffer at 1.5 MB.
const MAX_PERIOD: u64 = 1 << 16;

/// Cycles from the start of a search to its first snapshot; the gap to
/// each later snapshot doubles, up to [`MAX_PERIOD`]. Short enough to
/// lock onto a resonant loop within about a hundred cycles; a chip
/// stalled more often than this (dither padding) never encodes its
/// state.
const FIRST_GAP: u64 = 32;

#[derive(Debug, Clone)]
enum Phase {
    /// Stepping and comparing each cycle's state with `snapshot`.
    Search {
        /// Cycle at which `snapshot` was taken (or the search started).
        at: u64,
        /// The next snapshot is taken `gap` cycles after `at`.
        gap: u64,
        /// None until the first snapshot, `FIRST_GAP` cycles after the
        /// search starts: the cycles right after construction or a
        /// stall are rarely periodic yet.
        snapshot: Option<Snapshot>,
        /// Buffers for the current state's encoding.
        scratch: (Vec<u64>, Vec<u64>),
    },
    /// The state recurred `period` cycles apart; stepping one more
    /// period into `buf`.
    Fill { period: usize, buf: Vec<ChipCycle> },
    /// Returning `buf` cyclically from `pos` while `now < until`.
    Replay {
        buf: Vec<ChipCycle>,
        pos: usize,
        until: u64,
    },
}

/// A canonical chip state, in three tiers of increasing cost: `probe`
/// (each active core's fetch position, ROB length, stall and oldest
/// completion time) is compared every cycle, `key` (everything but
/// cache tags) only when the probes match, and `tags` only when the
/// keys do.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    probe: Vec<u64>,
    key: Vec<u64>,
    tags: Vec<u64>,
}

impl Snapshot {
    /// Re-encodes `live` into this snapshot's buffers.
    fn take(&mut self, live: &LiveChip) {
        self.probe.clear();
        self.probe.extend(live.probes());
        self.key.clear();
        live.encode_state(&mut self.key);
        self.tags.clear();
        live.encode_tags(&mut self.tags);
    }

    /// Whether `live` is in this state: compared tier by tier, encoding
    /// the key and then the tags into `scratch` only while every
    /// earlier tier agrees.
    fn matches(&self, live: &LiveChip, scratch: &mut (Vec<u64>, Vec<u64>)) -> bool {
        let (key, tags) = scratch;
        if !live.probes().eq(self.probe.iter().copied()) {
            return false;
        }
        key.clear();
        live.encode_state(key);
        if *key != self.key {
            return false;
        }
        tags.clear();
        live.encode_tags(tags);
        *tags == self.tags
    }
}

impl Phase {
    /// A search starting at cycle `now`.
    fn search(now: u64) -> Self {
        Phase::Search {
            at: now,
            gap: FIRST_GAP,
            snapshot: None,
            scratch: Default::default(),
        }
    }
}

impl ChipSim {
    /// Builds a chip with `programs[i]` loaded on `placement.slots()[i]`,
    /// all threads starting at cycle 0 (use
    /// [`ChipSim::with_start_offsets`] for alignment control).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if counts mismatch or a
    /// slot is invalid, and [`AuditError::Unsupported`] if a program
    /// needs FMA on a non-FMA chip.
    pub fn new(
        config: &ChipConfig,
        placement: &Placement,
        programs: &[Program],
    ) -> Result<Self, AuditError> {
        Self::with_start_offsets(config, placement, programs, &vec![0; programs.len()])
    }

    /// Builds a chip where thread `i` begins fetching only after
    /// `start_offsets[i]` cycles — the alignment handle the dithering
    /// algorithm sweeps (paper §3.B).
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`ChipSim::new`]; offsets
    /// beyond the program count are a mismatch as well.
    pub fn with_start_offsets(
        config: &ChipConfig,
        placement: &Placement,
        programs: &[Program],
        start_offsets: &[u64],
    ) -> Result<Self, AuditError> {
        if placement.thread_count() != programs.len() || programs.len() != start_offsets.len() {
            return Err(AuditError::invalid(
                "ChipSim",
                "programs",
                format!(
                    "placement has {} slots but {} programs were supplied",
                    placement.thread_count(),
                    programs.len()
                ),
            ));
        }
        for p in programs {
            config.check_program(p)?;
        }
        // Each module's loads, `(core, program, start offset)` sorted by
        // core.
        let mut loads: Vec<Vec<(u32, Program, u64)>> = vec![Vec::new(); config.modules as usize];
        for ((&(m, c), program), &offset) in
            placement.slots().iter().zip(programs).zip(start_offsets)
        {
            if m >= config.modules || c >= config.module.cores {
                return Err(AuditError::invalid(
                    "ChipSim",
                    "placement",
                    format!("slot ({m}, {c}) does not exist on this chip"),
                ));
            }
            loads[m as usize].push((c, program.clone(), offset));
        }
        for module_loads in &mut loads {
            module_loads.sort_by_key(|&(c, ..)| c);
        }
        // Group the modules into classes, earliest start first so that
        // each class is loaded as its first member. A module joins a
        // class when its loads are the leader's delayed by `delay`; at a
        // nonzero delay only without a limiter (its fetch cap is
        // chip-wide), up to `MAX_DELAY`, and with two active cores only
        // at a multiple of the core count (siblings alternate by
        // `now % cores`).
        let start = |m: usize| loads[m].iter().map(|&(.., o)| o).min().unwrap_or(0);
        let shares = |leader: usize, m: usize, delay: u64| {
            let (a, b) = (&loads[leader], &loads[m]);
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ca, pa, oa), (cb, pb, ob))| ca == cb && oa + delay == *ob && pa == pb)
                && (delay == 0
                    || config.didt_limiter.is_none()
                        && delay <= MAX_DELAY
                        && (b.len() <= 1 || delay.is_multiple_of(u64::from(config.module.cores))))
        };
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_by_key(|&m| start(m));
        let mut leaders: Vec<usize> = Vec::new();
        let mut members = vec![(0, 0); loads.len()];
        for m in order {
            let joined = leaders.iter().enumerate().find_map(|(class, &leader)| {
                let delay = start(m) - start(leader);
                shares(leader, m, delay).then_some((class, delay))
            });
            members[m] = joined.unwrap_or_else(|| {
                leaders.push(m);
                (leaders.len() - 1, 0)
            });
        }
        let module_config = (config.module, config.core, config.energy);
        // What a delayed member reads before its first fetch: the idle
        // module's output. Nothing reads a ring slot before it is
        // written unless some member is delayed.
        let idle = if members.iter().any(|&(_, delay)| delay > 0) {
            fresh_module(module_config, &[]).step(0)
        } else {
            ModuleCycle::default()
        };
        let classes = leaders
            .iter()
            .enumerate()
            .map(|(class, &leader)| {
                let span = members
                    .iter()
                    .filter(|&&(c, _)| c == class)
                    .map(|&(_, delay)| delay)
                    .max()
                    .unwrap_or(0);
                Class {
                    sim: fresh_module(module_config, &loads[leader]),
                    ring: vec![idle; (span + 1).next_power_of_two() as usize],
                    span,
                }
            })
            .collect();
        let live = LiveChip {
            classes,
            members,
            loads,
            module_config,
            uncore_amps: config.energy.uncore_amps,
            miss_amps: config.energy.miss_amps,
            now: 0,
            limiter: config.didt_limiter,
            prev_amps: 0.0,
            throttle_until: 0,
            limiter_triggers: 0,
        };
        Ok(ChipSim {
            phase: Phase::search(0),
            live,
            now: 0,
            placement: placement.clone(),
        })
    }

    /// Advances the chip one clock cycle.
    #[inline]
    pub fn step(&mut self) -> ChipCycle {
        if let Phase::Replay { buf, pos, until } = &mut self.phase {
            if self.now < *until {
                let out = buf[*pos];
                *pos += 1;
                if *pos == buf.len() {
                    *pos = 0;
                }
                self.now += 1;
                return out;
            }
        }
        self.step_live()
    }

    /// [`ChipSim::step`] outside replay: steps the live state (caught up
    /// first if a replay just ran out) and advances the search. Kept
    /// out of line so that the replay path inlines into callers.
    #[inline(never)]
    fn step_live(&mut self) -> ChipCycle {
        if let Phase::Replay { .. } = self.phase {
            self.live.step_until(self.now);
            self.phase = Phase::search(self.live.now);
        }
        let out = self.live.step();
        self.now = self.live.now;
        match &mut self.phase {
            Phase::Search {
                at,
                gap,
                snapshot,
                scratch,
            } => {
                let since = self.live.now - *at;
                if snapshot
                    .as_ref()
                    .is_some_and(|s| s.matches(&self.live, scratch))
                {
                    let period = since as usize;
                    self.phase = Phase::Fill {
                        period,
                        buf: Vec::with_capacity(period),
                    };
                } else if since == *gap {
                    *at = self.live.now;
                    *gap = (*gap * 2).min(MAX_PERIOD);
                    snapshot
                        .get_or_insert_with(Snapshot::default)
                        .take(&self.live);
                }
            }
            Phase::Fill { period, buf } => {
                buf.push(out);
                if buf.len() == *period {
                    self.phase = Phase::Replay {
                        buf: std::mem::take(buf),
                        pos: 0,
                        until: self.live.now.saturating_add(self.live.exec_headroom()),
                    };
                }
            }
            Phase::Replay { .. } => unreachable!("replayed cycles return early"),
        }
        out
    }

    /// The live state at the caller's cycle: borrowed unless replaying,
    /// else a copy stepped up to it.
    fn current(&self) -> Cow<'_, LiveChip> {
        if self.live.now == self.now {
            return Cow::Borrowed(&self.live);
        }
        let mut live = self.live.clone();
        live.step_until(self.now);
        Cow::Owned(live)
    }

    /// Number of distinct di/dt-limiter engagements so far.
    pub fn limiter_triggers(&self) -> u64 {
        self.current().limiter_triggers
    }

    /// Current chip cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of threads placed.
    pub fn thread_count(&self) -> usize {
        self.placement.thread_count()
    }

    /// Injects a front-end stall into thread `thread_idx` (by placement
    /// order) lasting `cycles` — OS interrupt service and dither padding
    /// both use this hook.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn inject_stall(&mut self, thread_idx: usize, cycles: u64) {
        let (m, c) = self.placement.slots()[thread_idx];
        self.live.step_until(self.now);
        let now = self.live.now;
        self.live
            .own(m as usize)
            .core_mut(c)
            .inject_stall(now, cycles);
        self.phase = Phase::search(now);
    }

    /// Total instructions retired by thread `thread_idx` since load.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn thread_retired(&self, thread_idx: usize) -> u64 {
        let (m, c) = self.placement.slots()[thread_idx];
        let live = self.current();
        let module = live.module(m);
        module.core(c).retired_total()
    }

    /// Cumulative pipeline telemetry for thread `thread_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `thread_idx` is out of range.
    pub fn thread_telemetry(&self, thread_idx: usize) -> crate::core_sim::CoreTelemetry {
        let (m, c) = self.placement.slots()[thread_idx];
        let live = self.current();
        let module = live.module(m);
        *module.core(c).telemetry()
    }
}

impl LiveChip {
    /// Advances one clock cycle.
    fn step(&mut self) -> ChipCycle {
        let fetch_cap = match self.limiter {
            Some(l) if self.now < self.throttle_until => l.fetch_cap,
            _ => u32::MAX,
        };
        for class in &mut self.classes {
            let slot = self.now as usize & (class.ring.len() - 1);
            class.ring[slot] = class.sim.step_with_fetch_cap(self.now, fetch_cap);
        }
        // Fold in chip-module order, one term per module, exactly as if
        // every module had been stepped on its own.
        let mut out = ChipCycle {
            amps: self.uncore_amps,
            ..ChipCycle::default()
        };
        for &(class, delay) in &self.members {
            let ring = &self.classes[class].ring;
            let mc = ring[self.now.wrapping_sub(delay) as usize & (ring.len() - 1)];
            out.amps += mc.amps + mc.misses as f64 * self.miss_amps;
            out.retired += mc.retired;
            out.fp_issued += mc.fp_issued;
            out.max_path = out.max_path.max(mc.max_path);
        }
        // Di/dt controller: trigger on a steep current rise.
        if let Some(l) = self.limiter {
            if out.amps - self.prev_amps > l.slew_amps_per_cycle {
                if self.now >= self.throttle_until {
                    self.limiter_triggers += 1;
                }
                self.throttle_until = self.now + 1 + l.hold_cycles as u64;
            }
        }
        self.prev_amps = out.amps;
        self.now += 1;
        out
    }

    /// Steps up to cycle `now`.
    fn step_until(&mut self, now: u64) {
        while self.now < now {
            self.step();
        }
    }

    /// Chip module `m`'s simulator at `now`: its class's, or for a
    /// delayed member one rebuilt from its loads.
    fn module(&self, m: u32) -> Cow<'_, ModuleSim> {
        match self.members[m as usize] {
            (class, 0) => Cow::Borrowed(&self.classes[class].sim),
            _ => Cow::Owned(self.rebuild(m as usize)),
        }
    }

    /// A simulator of chip module `m`'s loads stepped from cycle 0 up to
    /// `now`. Only a chip without a limiter delays a member, so no cycle
    /// had its fetch capped.
    fn rebuild(&self, m: usize) -> ModuleSim {
        debug_assert!(self.limiter.is_none(), "a limited chip delays no member");
        let mut sim = fresh_module(self.module_config, &self.loads[m]);
        for now in 0..self.now {
            sim.step(now);
        }
        sim
    }

    /// Chip module `m`'s simulator, given a class of its own first: a
    /// member that is delayed or shares its class leaves it, with a
    /// rebuilt simulator if delayed and else a copy of the class's.
    fn own(&mut self, m: usize) -> &mut ModuleSim {
        let (class, delay) = self.members[m];
        let shared = self.members.iter().filter(|&&(c, _)| c == class).count() > 1;
        if shared || delay > 0 {
            let own = Class {
                sim: match delay {
                    0 => self.classes[class].sim.clone(),
                    _ => self.rebuild(m),
                },
                ring: vec![ModuleCycle::default()],
                span: 0,
            };
            let class = if shared {
                self.classes.push(own);
                self.classes.len() - 1
            } else {
                self.classes[class] = own;
                class
            };
            self.members[m] = (class, 0);
        }
        &mut self.classes[self.members[m].0].sim
    }

    /// Each class's [`ModuleSim::probes`].
    fn probes(&self) -> impl Iterator<Item = u64> + '_ {
        self.classes.iter().flat_map(|c| c.sim.probes(self.now))
    }

    /// Appends the canonical state but the cache tags: with a limiter
    /// fitted, its hold time relative to `now` and the previous cycle's
    /// current first; then each class's [`ModuleSim::encode_state`] and
    /// the bits of the `span` outputs a delayed member has still to
    /// read, newest first. Which chip modules form a class, and at which
    /// delays, is fixed between restarts of the search, so it is left
    /// out.
    fn encode_state(&self, key: &mut Vec<u64>) {
        if self.limiter.is_some() {
            key.extend([
                self.throttle_until.saturating_sub(self.now),
                self.prev_amps.to_bits(),
            ]);
        }
        for class in &self.classes {
            class.sim.encode_state(self.now, key);
            for back in 1..=class.span {
                let mc = class.ring[self.now.wrapping_sub(back) as usize & (class.ring.len() - 1)];
                key.extend([
                    mc.amps.to_bits(),
                    mc.max_path.to_bits(),
                    u64::from(mc.retired) | u64::from(mc.fp_issued) << 32,
                    u64::from(mc.misses),
                ]);
            }
        }
    }

    /// Appends every class's [`ModuleSim::encode_tags`].
    fn encode_tags(&self, tags: &mut Vec<u64>) {
        for class in &self.classes {
            class.sim.encode_tags(tags);
        }
    }

    /// Cycles the replay may run past `now` before an execution counter
    /// could wrap and leave the period.
    fn exec_headroom(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.sim.exec_headroom())
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// A module built from `config` with `loads` loaded.
fn fresh_module(
    (module, core, energy): (ModuleConfig, CoreConfig, EnergyModel),
    loads: &[(u32, Program, u64)],
) -> ModuleSim {
    let mut sim = ModuleSim::new(module, core, energy);
    for (c, program, offset) in loads {
        sim.load(*c, program, *offset);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::isa::Opcode;

    fn fp_program() -> Program {
        Program::new(
            "fp",
            (0..12u8)
                .map(|i| Inst::new(Opcode::SimdFMul).fp_dst(i % 8).fp_srcs(14, 15))
                .collect(),
        )
    }

    fn avg_amps(chip: &mut ChipSim, cycles: u64) -> f64 {
        let mut total = 0.0;
        for _ in 0..cycles {
            total += chip.step().amps;
        }
        total / cycles as f64
    }

    #[test]
    fn more_threads_draw_more_current() {
        let cfg = ChipConfig::bulldozer();
        let mut prev = 0.0;
        for n in [1u32, 2, 4] {
            let placement = cfg.spread_placement(n).unwrap();
            let programs = vec![fp_program(); n as usize];
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            let amps = avg_amps(&mut chip, 5_000);
            assert!(amps > prev, "{n}T {amps} vs prev {prev}");
            prev = amps;
        }
    }

    #[test]
    fn eight_threads_add_less_than_linear_fp() {
        // 4T→8T shares FPUs: current grows sublinearly for FP loops.
        let cfg = ChipConfig::bulldozer();
        let run = |n: u32| {
            let placement = cfg.spread_placement(n).unwrap();
            let programs = vec![fp_program(); n as usize];
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            avg_amps(&mut chip, 5_000)
        };
        let i4 = run(4);
        let i8 = run(8);
        let idle = run_idle(&cfg);
        let gain = (i8 - idle) / (i4 - idle);
        assert!(gain < 1.6, "8T gain over 4T = {gain}");
        assert!(gain > 1.0, "8T should still draw more: {gain}");
    }

    fn run_idle(cfg: &ChipConfig) -> f64 {
        // A single NOP thread approximates the gated-idle floor.
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(cfg, &placement, &[Program::nops(8)]).unwrap();
        avg_amps(&mut chip, 2_000)
    }

    #[test]
    fn fma_program_rejected_on_phenom() {
        let cfg = ChipConfig::phenom();
        let placement = cfg.spread_placement(1).unwrap();
        let p = Program::new("sm1-like", vec![Inst::new(Opcode::SimdFma)]);
        let err = ChipSim::new(&cfg, &placement, &[p]).unwrap_err();
        assert!(matches!(err, AuditError::Unsupported { .. }));
        assert!(err.to_string().contains("sm1-like"));
    }

    #[test]
    fn placement_mismatch_is_reported() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(2).unwrap();
        let err = ChipSim::new(&cfg, &placement, &[Program::nops(4)]).unwrap_err();
        assert!(matches!(err, AuditError::InvalidConfig { .. }));
        assert!(
            err.to_string().contains("2 slots") && err.to_string().contains("1 programs"),
            "{err}"
        );
    }

    #[test]
    fn start_offsets_shift_thread_progress() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(2).unwrap();
        let programs = vec![fp_program(), fp_program()];
        let mut chip = ChipSim::with_start_offsets(&cfg, &placement, &programs, &[0, 500]).unwrap();
        for _ in 0..1_000 {
            chip.step();
        }
        assert!(chip.thread_retired(0) > chip.thread_retired(1) + 100);
    }

    #[test]
    fn chip_current_includes_uncore_floor() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[Program::nops(8)]).unwrap();
        let amps = chip.step().amps;
        assert!(amps >= cfg.energy.uncore_amps);
    }

    #[test]
    fn determinism_across_clones() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(4).unwrap();
        let programs = vec![fp_program(); 4];
        let run = || {
            let mut chip = ChipSim::new(&cfg, &placement, &programs).unwrap();
            (0..3_000).map(|_| chip.step().amps).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn didt_limiter_engages_and_cuts_current_swing() {
        use crate::config::DidtLimiter;
        let base = ChipConfig::bulldozer();
        let limited = base
            .clone()
            .with_didt_limiter(DidtLimiter::default_tuning());
        // A bursty loop: quiet then a dense SIMD burst, repeated.
        let mut body = vec![Inst::new(Opcode::Nop); 60];
        body.extend((0..60u8).map(|i| match i % 4 {
            0 | 1 => Inst::new(Opcode::SimdFma).fp_dst(i % 8).fp_srcs(12, 13),
            2 => Inst::new(Opcode::IAdd).int_dst(i % 6).int_srcs(8, 9),
            _ => Inst::new(Opcode::Nop),
        }));
        let program = Program::new("bursty", body);
        let placement = base.spread_placement(4).unwrap();
        let programs = vec![program; 4];

        // The limiter is reactive: it cannot clip the first cycle of a
        // burst (in-flight ops still issue) but it must engage on every
        // burst and smear the sustained activity — measured here as the
        // standard deviation of the current waveform.
        let run = |cfg: &ChipConfig| {
            let mut chip = ChipSim::new(cfg, &placement, &programs).unwrap();
            for _ in 0..2_000 {
                chip.step();
            }
            let trace: Vec<f64> = (0..4_000).map(|_| chip.step().amps).collect();
            let mean = trace.iter().sum::<f64>() / trace.len() as f64;
            let var =
                trace.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / trace.len() as f64;
            (var.sqrt(), chip.limiter_triggers())
        };
        let (free_sigma, free_triggers) = run(&base);
        let (lim_sigma, lim_triggers) = run(&limited);
        assert_eq!(free_triggers, 0);
        assert!(lim_triggers > 0, "limiter never engaged");
        assert!(
            lim_sigma < 0.9 * free_sigma,
            "sigma {lim_sigma} vs unprotected {free_sigma}"
        );
    }

    #[test]
    fn didt_limiter_costs_throughput() {
        use crate::config::DidtLimiter;
        let base = ChipConfig::bulldozer();
        let limited = base.clone().with_didt_limiter(DidtLimiter {
            slew_amps_per_cycle: 2.0,
            hold_cycles: 32,
            fetch_cap: 1,
        });
        let placement = base.spread_placement(2).unwrap();
        let programs = vec![fp_program(); 2];
        let run = |cfg: &ChipConfig| {
            let mut chip = ChipSim::new(cfg, &placement, &programs).unwrap();
            for _ in 0..5_000 {
                chip.step();
            }
            chip.thread_retired(0)
        };
        assert!(run(&limited) < run(&base));
    }

    /// SM-Res (`audit_stressmark::manual::sm_res`): 60 FMA/FMUL/NOP/NOP
    /// instructions, then 60 NOPs.
    fn sm_res() -> Program {
        let ops = [Opcode::SimdFma, Opcode::SimdFMul, Opcode::Nop, Opcode::Nop];
        let mut body: Vec<Inst> = (0..60u8)
            .map(|i| match ops[i as usize % 4] {
                Opcode::Nop => Inst::new(Opcode::Nop),
                op => Inst::new(op).fp_dst(i % 8).fp_srcs(12, 13),
            })
            .collect();
        body.extend(std::iter::repeat_n(Inst::new(Opcode::Nop), 60));
        Program::new("SM-Res", body)
    }

    #[test]
    fn sm_res_locks_onto_its_resonant_period() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(4).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &vec![sm_res(); 4]).unwrap();
        let mut locked = None;
        for _ in 0..200 {
            chip.step();
            if let Phase::Fill { period, .. } = chip.phase {
                locked = Some((chip.now, period));
                break;
            }
        }
        let (at, period) = locked.expect("SM-Res 4T did not lock within 200 cycles");
        assert_eq!(period, 30, "locked at cycle {at}");
        for _ in 0..period {
            chip.step();
        }
        assert!(matches!(chip.phase, Phase::Replay { .. }));
    }

    /// Steps a chip on `programs` at `offsets` next to the stepped
    /// state of one whose programs are renamed per thread, so that no
    /// two modules share a class and no cycle is replayed; panics at the
    /// first `ChipCycle` field that differs. Returns whether the first
    /// chip replayed.
    fn matches_unshared_stepping(cfg: &ChipConfig, programs: &[Program], offsets: &[u64]) -> bool {
        let placement = cfg.spread_placement(programs.len() as u32).unwrap();
        let renamed: Vec<Program> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| Program::new(format!("{}{t}", p.name()), p.body().to_vec()))
            .collect();
        let mut chip = ChipSim::with_start_offsets(cfg, &placement, programs, offsets).unwrap();
        let mut reference = ChipSim::with_start_offsets(cfg, &placement, &renamed, offsets)
            .unwrap()
            .live;
        let bits = |c: ChipCycle| {
            (
                c.amps.to_bits(),
                c.max_path.to_bits(),
                c.retired,
                c.fp_issued,
            )
        };
        let mut replayed = false;
        for cycle in 0..3_000 {
            let (x, y) = (chip.step(), reference.step());
            assert_eq!(bits(x), bits(y), "cycle {cycle}: {x:?} vs {y:?} unshared");
            replayed |= matches!(chip.phase, Phase::Replay { .. });
        }
        replayed
    }

    #[test]
    fn delayed_members_replay_only_once_their_ring_is_periodic() {
        // One class, its members 0, 3, 64 and 97 cycles behind the
        // earliest. The class locks onto its 30-cycle period long before
        // the member 97 cycles behind has left its start-up transient,
        // so a key without the ring would replay that transient forever.
        let cfg = ChipConfig::bulldozer();
        let offsets = [0, 97, 3, 64];
        let programs = vec![sm_res(); 4];
        let placement = cfg.spread_placement(4).unwrap();
        let chip = ChipSim::with_start_offsets(&cfg, &placement, &programs, &offsets).unwrap();
        assert_eq!(chip.live.members, [(0, 0), (0, 97), (0, 3), (0, 64)]);
        assert!(matches_unshared_stepping(&cfg, &programs, &offsets));
    }

    #[test]
    fn two_core_modules_share_only_at_even_delays() {
        // 8T: module m runs threads m and m + 4, started m and m + 3
        // cycles late. Modules 0 and 2, and 1 and 3, are 2 cycles apart
        // and share; the odd delays between them must not.
        let cfg = ChipConfig::bulldozer();
        let offsets = [0, 1, 2, 3, 3, 4, 5, 6];
        let programs = vec![sm_res(); 8];
        let placement = cfg.spread_placement(8).unwrap();
        let chip = ChipSim::with_start_offsets(&cfg, &placement, &programs, &offsets).unwrap();
        assert_eq!(chip.live.members, [(0, 0), (1, 0), (0, 2), (1, 2)]);
        matches_unshared_stepping(&cfg, &programs, &offsets);
    }

    #[test]
    fn injected_stall_reduces_current() {
        let cfg = ChipConfig::bulldozer();
        let placement = cfg.spread_placement(1).unwrap();
        let mut chip = ChipSim::new(&cfg, &placement, &[fp_program()]).unwrap();
        let before = avg_amps(&mut chip, 2_000);
        chip.inject_stall(0, 2_000);
        let during = avg_amps(&mut chip, 1_500);
        assert!(during < before - 1.0, "during {during} vs before {before}");
    }
}
