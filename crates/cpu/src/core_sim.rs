//! One out-of-order core.
//!
//! The model is a renamed, scoreboarded out-of-order pipeline with the
//! structural limits that shape di/dt behaviour: finite ROB, separate
//! integer/FP schedulers, finite physical register files, per-unit issue
//! ports, an overall issue/result-bus cap, unpipelined divides, in-order
//! retire, and a front end that NOPs pass through without touching the
//! back end. Shared-resource arbitration (front end, FPU) is performed by
//! the owning [`module`](crate::module_sim); the core receives per-cycle
//! fetch and FP-issue budgets.

use std::collections::VecDeque;

use crate::cache::{Hierarchy, MemLevel};
use crate::config::CoreConfig;
use crate::energy::EnergyModel;
use crate::inst::{BranchBehavior, Inst, MemBehavior, Program, Reg};
use crate::isa::{ExecUnit, Opcode};

/// Number of renameable architectural registers (16 int + 16 media).
const REG_SLOTS: usize = 32;

fn reg_slot(r: Reg) -> usize {
    match r {
        Reg::Int(i) => (i as usize) % 16,
        Reg::Fp(i) => 16 + (i as usize) % 16,
    }
}

/// A pre-decoded instruction: static properties resolved once at load.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    opcode: Opcode,
    unit: ExecUnit,
    latency: u32,
    unpipelined: bool,
    dst: Option<u8>,
    dst_is_fp: bool,
    srcs: [Option<u8>; 2],
    issue_amps: f64,
    path: f64,
    mem: MemBehavior,
    branch: BranchBehavior,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    body_idx: u32,
    issued: bool,
    /// Cycle at which the result is available (valid when `issued`).
    done_at: u64,
    /// Producer sequence numbers for each source, if in flight at
    /// dispatch.
    producers: [Option<u64>; 2],
    /// Resolved latency for this dynamic instance (includes miss stalls).
    latency: u32,
    /// This dynamic instance mispredicts (branch only).
    mispredicts: bool,
    /// This dynamic instance misses off-core (load only).
    misses: bool,
    is_fp: bool,
    unit: ExecUnit,
    dst: Option<u8>,
    dst_is_fp: bool,
    unpipelined: bool,
    issue_amps: f64,
    path: f64,
}

/// Why the front end stopped dispatching in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Reorder buffer full.
    RobFull,
    /// Integer scheduler full.
    IntSchedFull,
    /// Shared FP scheduler full.
    FpSchedFull,
    /// Integer physical registers exhausted.
    IntPrfFull,
    /// Media physical registers exhausted.
    FpPrfFull,
}

/// Cumulative per-thread pipeline telemetry: where issue bandwidth went
/// and what dispatch stalled on. The §5.A.5 loop analysis reads these
/// to explain *why* a stressmark attains (or misses) its period.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreTelemetry {
    /// Ops issued per unit class: `[int-alu, agu, int-muldiv, fp-pipe]`.
    pub issued_by_unit: [u64; 4],
    /// NOPs absorbed by the front end.
    pub nops: u64,
    /// Dispatch-stall cycles by reason:
    /// `[rob, int-sched, fp-sched, int-prf, fp-prf]`.
    pub dispatch_stalls: [u64; 5],
    /// Cycles the front end was externally stalled (mispredict recovery,
    /// injected stalls, start offset).
    pub frontend_stall_cycles: u64,
}

/// Per-cycle output of a core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCycle {
    /// Current drawn by core-private logic this cycle (amps), excluding
    /// shared FPU busy current which the module accounts.
    pub amps: f64,
    /// FP ops issued this cycle (module subtracts from its pipe budget).
    pub fp_issued: u32,
    /// Instructions fetched this cycle.
    pub fetched: u32,
    /// Instructions retired this cycle.
    pub retired: u32,
    /// Maximum critical-path sensitivity among ops issued this cycle.
    pub max_path: f64,
    /// Off-core misses serviced this cycle (uncore energy bumps).
    pub misses: u32,
    /// If an FDiv issued, the cycle its pipe frees up.
    pub fdiv_pipe_until: Option<u64>,
}

/// One hardware thread's execution state on a core.
///
/// Driven by the module, which supplies per-cycle shared-resource
/// budgets; see [`CoreSim::step`].
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: CoreConfig,
    energy: EnergyModel,
    body: Vec<Decoded>,
    /// Next body index to fetch.
    next_fetch: usize,
    /// Dynamic execution count per body index (drives periodic
    /// miss/mispredict behaviour).
    exec_count: Vec<u32>,
    /// Front end stalled until this cycle (mispredict recovery, injected
    /// OS/dither stalls, start offset).
    stall_until: u64,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    int_prf_free: u32,
    fp_prf_free: u32,
    int_sched_used: u32,
    /// Latest in-flight producer of each architectural register.
    producer: [Option<u64>; REG_SLOTS],
    muldiv_busy_until: u64,
    retired_total: u64,
    telemetry: CoreTelemetry,
    caches: Hierarchy,
}

impl CoreSim {
    /// Creates an idle core (no program).
    pub fn idle(cfg: CoreConfig, energy: EnergyModel) -> Self {
        CoreSim {
            cfg,
            energy,
            body: Vec::new(),
            next_fetch: 0,
            exec_count: Vec::new(),
            stall_until: 0,
            rob: VecDeque::with_capacity(cfg.rob_size as usize),
            next_seq: 0,
            int_prf_free: cfg.int_prf,
            fp_prf_free: cfg.fp_prf,
            int_sched_used: 0,
            producer: [None; REG_SLOTS],
            muldiv_busy_until: 0,
            retired_total: 0,
            telemetry: CoreTelemetry::default(),
            caches: Hierarchy::new(cfg.l1, cfg.l2),
        }
    }

    /// Loads a program onto the core, starting after `start_offset`
    /// cycles of front-end silence (the alignment handle used by the
    /// dithering algorithm).
    pub fn load(&mut self, program: &Program, start_offset: u64) {
        self.body = program.body().iter().map(decode(&self.energy)).collect();
        self.exec_count = vec![0; self.body.len()];
        self.next_fetch = 0;
        self.stall_until = start_offset;
        self.rob.clear();
        self.next_seq = 0;
        self.int_prf_free = self.cfg.int_prf;
        self.fp_prf_free = self.cfg.fp_prf;
        self.int_sched_used = 0;
        self.producer = [None; REG_SLOTS];
        self.muldiv_busy_until = 0;
        self.retired_total = 0;
        self.telemetry = CoreTelemetry::default();
        self.caches = Hierarchy::new(self.cfg.l1, self.cfg.l2);
    }

    /// True if a program is loaded.
    pub(crate) fn is_active(&self) -> bool {
        !self.body.is_empty()
    }

    /// Total instructions retired since load.
    pub(crate) fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Cumulative pipeline telemetry since load.
    pub fn telemetry(&self) -> &CoreTelemetry {
        &self.telemetry
    }

    /// Injects `cycles` of front-end stall starting at `now` — the hook
    /// used for OS interrupt service and dither NOP padding.
    pub fn inject_stall(&mut self, now: u64, cycles: u64) {
        self.stall_until = self.stall_until.max(now + cycles);
    }

    /// Advances one cycle.
    ///
    /// * `now` — current chip cycle.
    /// * `fetch_budget` — instructions this core may fetch (module
    ///   front-end arbitration).
    /// * `fp_budget` — FP ops this core may issue (module FPU pipes,
    ///   minus throttle, minus what a sibling already used).
    /// * `fp_sched_used` / `fp_sched_cap` — shared FP scheduler occupancy
    ///   (module-owned counter).
    pub fn step(
        &mut self,
        now: u64,
        fetch_budget: u32,
        fp_budget: u32,
        fp_sched_used: &mut u32,
        fp_sched_cap: u32,
    ) -> CoreCycle {
        let mut out = CoreCycle::default();
        if !self.is_active() {
            out.amps = self.energy.core_idle_amps;
            return out;
        }

        self.retire(now, &mut out);
        self.issue(now, fp_budget, fp_sched_used, &mut out);
        self.fetch_and_dispatch(now, fetch_budget, fp_sched_used, fp_sched_cap, &mut out);

        // Baseline current: clock-gated when the pipeline is drained.
        let active = !self.rob.is_empty() || out.fetched > 0;
        out.amps += if active {
            self.energy.core_active_amps
        } else {
            self.energy.core_idle_amps
        };
        out.amps += self.energy.fetch_amps_per_inst * out.fetched as f64;
        if self.muldiv_busy_until > now {
            out.amps += self.energy.busy_amps(Opcode::IDiv);
        }
        out
    }

    fn retire(&mut self, now: u64, out: &mut CoreCycle) {
        let mut n = 0;
        while n < self.cfg.retire_width {
            match self.rob.front() {
                Some(e) if e.issued && e.done_at <= now => {
                    let e = self.rob.pop_front().expect("front checked");
                    if let Some(d) = e.dst {
                        if e.dst_is_fp {
                            self.fp_prf_free += 1;
                        } else {
                            self.int_prf_free += 1;
                        }
                        let slot = d as usize;
                        if self.producer[slot] == Some(e.seq) {
                            self.producer[slot] = None;
                        }
                    }
                    self.retired_total += 1;
                    n += 1;
                }
                _ => break,
            }
        }
        out.retired = n;
    }

    fn issue(&mut self, now: u64, fp_budget: u32, fp_sched_used: &mut u32, out: &mut CoreCycle) {
        let mut total = self.cfg.issue_width;
        let mut writeback = self.cfg.writeback_ports;
        let mut alu = self.cfg.int_alus;
        let mut agu = self.cfg.agus;
        let mut muldiv = u32::from(self.muldiv_busy_until <= now);
        let mut fp = fp_budget;

        // Collect ready/issued flags first to appease the borrow checker:
        // we mutate entries in place by index.
        for idx in 0..self.rob.len() {
            if total == 0 {
                break;
            }
            let e = self.rob[idx];
            if e.issued {
                continue;
            }
            let budget = match e.unit {
                ExecUnit::IntAlu => &mut alu,
                ExecUnit::Agu => &mut agu,
                ExecUnit::IntMulDiv => &mut muldiv,
                ExecUnit::FpPipe => &mut fp,
                ExecUnit::None => unreachable!("NOPs are issued at dispatch"),
            };
            if *budget == 0 {
                continue;
            }
            if e.dst.is_some() && writeback == 0 {
                continue;
            }
            if !self.sources_ready(&e, now) {
                continue;
            }
            // Issue.
            *budget -= 1;
            total -= 1;
            if e.dst.is_some() {
                writeback -= 1;
            }
            let unit_idx = match e.unit {
                ExecUnit::IntAlu => 0,
                ExecUnit::Agu => 1,
                ExecUnit::IntMulDiv => 2,
                ExecUnit::FpPipe => 3,
                ExecUnit::None => unreachable!("NOPs never reach issue"),
            };
            self.telemetry.issued_by_unit[unit_idx] += 1;
            let done_at = now + e.latency as u64;
            {
                let em = &mut self.rob[idx];
                em.issued = true;
                em.done_at = done_at;
            }
            if e.is_fp {
                *fp_sched_used = fp_sched_used.saturating_sub(1);
                out.fp_issued += 1;
                if e.unpipelined {
                    out.fdiv_pipe_until = Some(done_at);
                }
            } else {
                self.int_sched_used = self.int_sched_used.saturating_sub(1);
                if e.unit == ExecUnit::IntMulDiv && e.unpipelined {
                    self.muldiv_busy_until = done_at;
                }
            }
            if e.mispredicts {
                // Flush penalty counted from branch resolution.
                self.stall_until = self
                    .stall_until
                    .max(done_at + self.cfg.mispredict_penalty as u64);
            }
            if e.misses {
                out.misses += 1;
            }
            out.amps += e.issue_amps;
            out.max_path = out.max_path.max(e.path);
        }
    }

    fn sources_ready(&self, e: &RobEntry, now: u64) -> bool {
        e.producers.iter().all(|p| match p {
            None => true,
            Some(seq) => match self.find(*seq) {
                // Producer retired: value in the register file.
                None => true,
                Some(prod) => prod.issued && prod.done_at <= now,
            },
        })
    }

    fn find(&self, seq: u64) -> Option<&RobEntry> {
        let head = self.rob.front()?.seq;
        if seq < head {
            return None;
        }
        self.rob.get((seq - head) as usize)
    }

    fn fetch_and_dispatch(
        &mut self,
        now: u64,
        fetch_budget: u32,
        fp_sched_used: &mut u32,
        fp_sched_cap: u32,
        out: &mut CoreCycle,
    ) {
        if now < self.stall_until {
            self.telemetry.frontend_stall_cycles += 1;
            return;
        }
        let budget = fetch_budget.min(self.cfg.fetch_width);
        for _ in 0..budget {
            if self.rob.len() >= self.cfg.rob_size as usize {
                self.telemetry.dispatch_stalls[0] += 1;
                break;
            }
            let d = self.body[self.next_fetch];

            if d.opcode.is_nop() {
                // NOPs bypass rename/schedule/execute: ROB + retire only.
                self.rob.push_back(RobEntry {
                    seq: self.next_seq,
                    body_idx: self.next_fetch as u32,
                    issued: true,
                    done_at: now + 1,
                    producers: [None, None],
                    latency: 1,
                    mispredicts: false,
                    misses: false,
                    is_fp: false,
                    unit: ExecUnit::None,
                    dst: None,
                    dst_is_fp: false,
                    unpipelined: false,
                    issue_amps: d.issue_amps,
                    path: 0.0,
                });
                // Fetch/decode switching is all a NOP costs.
                out.amps += d.issue_amps;
                self.telemetry.nops += 1;
            } else {
                // Structural checks: scheduler entry + physical register.
                if d.unit == ExecUnit::FpPipe {
                    if *fp_sched_used >= fp_sched_cap {
                        self.telemetry.dispatch_stalls[2] += 1;
                        break;
                    }
                } else if self.int_sched_used >= self.cfg.int_sched {
                    self.telemetry.dispatch_stalls[1] += 1;
                    break;
                }
                if let Some(_dst) = d.dst {
                    if d.dst_is_fp {
                        if self.fp_prf_free == 0 {
                            self.telemetry.dispatch_stalls[4] += 1;
                            break;
                        }
                    } else if self.int_prf_free == 0 {
                        self.telemetry.dispatch_stalls[3] += 1;
                        break;
                    }
                }

                let count = {
                    let c = &mut self.exec_count[self.next_fetch];
                    *c = c.wrapping_add(1);
                    *c
                };
                let (latency, misses) = self.resolve_mem(&d, self.next_fetch, count);
                let mispredicts = match d.branch {
                    BranchBehavior::Predicted => false,
                    BranchBehavior::MispredictEvery { period } => period > 0 && count % period == 0,
                };

                let producers = [
                    d.srcs[0].and_then(|s| self.producer[s as usize]),
                    d.srcs[1].and_then(|s| self.producer[s as usize]),
                ];
                if d.unit == ExecUnit::FpPipe {
                    *fp_sched_used += 1;
                } else {
                    self.int_sched_used += 1;
                }
                if d.dst.is_some() {
                    if d.dst_is_fp {
                        self.fp_prf_free -= 1;
                    } else {
                        self.int_prf_free -= 1;
                    }
                }
                if let Some(dst) = d.dst {
                    self.producer[dst as usize] = Some(self.next_seq);
                }
                self.rob.push_back(RobEntry {
                    seq: self.next_seq,
                    body_idx: self.next_fetch as u32,
                    issued: false,
                    done_at: u64::MAX,
                    producers,
                    latency,
                    mispredicts,
                    misses,
                    is_fp: d.unit == ExecUnit::FpPipe,
                    unit: d.unit,
                    dst: d.dst,
                    dst_is_fp: d.dst_is_fp,
                    unpipelined: d.unpipelined,
                    issue_amps: d.issue_amps,
                    path: d.path,
                });
            }

            self.next_seq += 1;
            out.fetched += 1;
            self.next_fetch = (self.next_fetch + 1) % self.body.len();
        }
    }

    fn resolve_mem(&mut self, d: &Decoded, body_idx: usize, count: u32) -> (u32, bool) {
        match d.mem {
            MemBehavior::L1Hit => (d.latency, false),
            MemBehavior::L2MissEvery { period } if period > 0 && count.is_multiple_of(period) => {
                (self.cfg.l2_miss_cycles, true)
            }
            MemBehavior::MemMissEvery { period } if period > 0 && count.is_multiple_of(period) => {
                (self.cfg.mem_miss_cycles, true)
            }
            MemBehavior::Strided {
                stride_bytes,
                footprint_bytes,
            } => {
                // Each static load slot owns a disjoint 64 MB region so
                // slots do not alias each other.
                let base = body_idx as u64 * (64 << 20);
                let footprint = footprint_bytes.max(stride_bytes.max(1)) as u64;
                let offset = (count as u64).wrapping_mul(stride_bytes as u64) % footprint;
                match self.caches.access(base + offset) {
                    MemLevel::L1 => (d.latency, false),
                    MemLevel::L2 => (self.cfg.l2_miss_cycles, true),
                    MemLevel::Memory => (self.cfg.mem_miss_cycles, true),
                }
            }
            _ => (d.latency, false),
        }
    }

    /// The core's cache hierarchy (stats; strided loads exercise it).
    pub fn caches(&self) -> &Hierarchy {
        &self.caches
    }

    /// A cheap necessary condition for [`CoreSim::encode_state`]
    /// equality at cycle `now`: the fetch position and ROB occupancy,
    /// the front-end stall, and the oldest entry's completion time
    /// (the last two relative to `now`, as in the full encoding, and
    /// the ones that change while a stalled or miss-bound core's fetch
    /// position and ROB stand still).
    pub(crate) fn probe(&self, now: u64) -> [u64; 3] {
        let head = match self.rob.front() {
            Some(e) if e.issued => e.done_at.saturating_sub(now),
            _ => u64::MAX,
        };
        [
            (self.next_fetch as u64) << 32 | self.rob.len() as u64,
            self.stall_until.saturating_sub(now),
            head,
        ]
    }

    /// Appends the core's canonical state at cycle `now`, except the
    /// cache tags ([`CoreSim::encode_tags`]): two cores with equal
    /// encodings (at their own `now`) behave identically from then on.
    /// Absolute times are stored relative to `now`, clamped at 0 (every
    /// reader compares them with `now`); sequence numbers relative to
    /// `next_seq` (the ROB holds exactly the `rob.len()` sequence numbers
    /// below it); each `exec_count` modulo the period its readers see.
    /// Left out: what only an unissued ROB entry reads, once issued (its
    /// latency, outcome flags and producers); each entry's static
    /// properties (decided by its body index); and the counters nothing
    /// reads back (retired total, telemetry).
    pub(crate) fn encode_state(&self, now: u64, key: &mut Vec<u64>) {
        if !self.is_active() {
            return;
        }
        let rel = |t: u64| t.saturating_sub(now);
        let seq = |s: Option<u64>| s.map_or(0, |s| self.next_seq - s);
        key.extend([
            self.next_fetch as u64,
            self.rob.len() as u64,
            rel(self.stall_until),
            rel(self.muldiv_busy_until),
            u64::from(self.int_prf_free),
            u64::from(self.fp_prf_free),
            u64::from(self.int_sched_used),
        ]);
        key.extend(self.producer.iter().map(|&p| seq(p)));
        for e in &self.rob {
            key.push(u64::from(e.body_idx));
            if e.issued {
                key.push(rel(e.done_at));
            } else {
                key.extend([
                    u64::MAX,
                    u64::from(e.latency)
                        | u64::from(e.mispredicts) << 32
                        | u64::from(e.misses) << 33,
                    seq(e.producers[0]),
                    seq(e.producers[1]),
                ]);
            }
        }
        for (d, &count) in self.body.iter().zip(&self.exec_count) {
            let period = exec_period(d.mem, d.branch);
            if period > 1 {
                key.push(u64::from(count) % period);
            }
        }
    }

    /// Appends the rest of the canonical state: both cache levels' tags.
    pub(crate) fn encode_tags(&self, tags: &mut Vec<u64>) {
        self.caches.l1().encode_tags(tags);
        self.caches.l2().encode_tags(tags);
    }

    /// Cycles this core can run before an `exec_count` could wrap (each
    /// grows by at most `fetch_width` per cycle): the residues in
    /// [`CoreSim::encode_state`] decide the future only up to then.
    pub(crate) fn exec_headroom(&self) -> u64 {
        let max = self.exec_count.iter().copied().max().unwrap_or(0);
        u64::from(u32::MAX - max) / u64::from(self.cfg.fetch_width.max(1))
    }
}

fn decode(energy: &EnergyModel) -> impl Fn(&Inst) -> Decoded + '_ {
    move |inst: &Inst| {
        let p = inst.opcode.props();
        Decoded {
            opcode: inst.opcode,
            unit: p.unit,
            latency: p.latency,
            unpipelined: p.unpipelined,
            dst: inst.dst.map(|r| reg_slot(r) as u8),
            dst_is_fp: inst.dst.map(Reg::is_fp).unwrap_or(false),
            srcs: [
                inst.srcs[0].map(|r| reg_slot(r) as u8),
                inst.srcs[1].map(|r| reg_slot(r) as u8),
            ],
            issue_amps: if inst.opcode.is_nop() {
                p.issue_amps
            } else {
                energy.issue_amps(inst.opcode, inst.toggle)
            },
            path: p.path_sensitivity,
            mem: inst.mem,
            branch: inst.branch,
        }
    }
}

/// The period of a body slot's `exec_count` as [`CoreSim::resolve_mem`]
/// and the mispredict check read it (1 when nothing reads the count):
/// the least common multiple of the miss and mispredict periods and,
/// for a strided walk, the number of distinct offsets
/// `count · stride mod footprint` takes.
fn exec_period(mem: MemBehavior, branch: BranchBehavior) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mem = match mem {
        MemBehavior::L1Hit => 1,
        MemBehavior::L2MissEvery { period } | MemBehavior::MemMissEvery { period } => {
            u64::from(period.max(1))
        }
        MemBehavior::Strided {
            stride_bytes,
            footprint_bytes,
        } => {
            let footprint = u64::from(footprint_bytes.max(stride_bytes.max(1)));
            footprint / gcd(u64::from(stride_bytes), footprint)
        }
    };
    let branch = match branch {
        BranchBehavior::Predicted => 1,
        BranchBehavior::MispredictEvery { period } => u64::from(period.max(1)),
    };
    mem / gcd(mem, branch) * branch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::inst::{Inst, Program};

    fn run_ipc(body: Vec<Inst>, cycles: u64) -> f64 {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::new("t", body), 0);
        let mut fp_sched = 0;
        for now in 0..cycles {
            core.step(
                now,
                cfg.core.fetch_width,
                cfg.module.fp_pipes,
                &mut fp_sched,
                cfg.module.fp_sched,
            );
        }
        core.retired_total() as f64 / cycles as f64
    }

    #[test]
    fn nop_loop_sustains_full_width() {
        // NOPs are fetch/retire bound only: IPC ≈ 4.
        let ipc = run_ipc(vec![Inst::new(Opcode::Nop); 16], 10_000);
        assert!(ipc > 3.8, "ipc = {ipc}");
    }

    #[test]
    fn independent_adds_are_alu_bound() {
        // Two integer ALUs → IPC ≈ 2 for an all-ADD loop.
        let body: Vec<Inst> = (0..16)
            .map(|i| Inst::new(Opcode::IAdd).int_dst(i as u8 % 8).int_srcs(8, 9))
            .collect();
        let ipc = run_ipc(body, 10_000);
        assert!((1.8..2.2).contains(&ipc), "ipc = {ipc}");
    }

    #[test]
    fn dependent_chain_serializes() {
        // add r0 <- r0 op r1 repeatedly: 1 per cycle at best.
        let body = vec![Inst::new(Opcode::IAdd).int_dst(0).int_srcs(0, 1); 8];
        let ipc = run_ipc(body, 10_000);
        assert!((0.8..1.1).contains(&ipc), "ipc = {ipc}");
    }

    #[test]
    fn dependent_fma_chain_pays_latency() {
        // fma x0 <- x0, x1 chain: one per 6 cycles (FMA latency).
        let body = vec![Inst::new(Opcode::Fma).fp_dst(0).fp_srcs(0, 1); 8];
        let ipc = run_ipc(body, 20_000);
        assert!((0.12..0.22).contains(&ipc), "ipc = {ipc}");
    }

    #[test]
    fn mixed_nops_and_adds_exceed_alu_width() {
        // 2 ADDs + 2 NOPs per 4-wide fetch group: ADDs bound by ALUs but
        // NOPs ride along → IPC ≈ 4.
        let mut body = Vec::new();
        for i in 0..8 {
            body.push(Inst::new(Opcode::IAdd).int_dst(i % 8).int_srcs(8, 9));
            body.push(Inst::new(Opcode::Nop));
        }
        let ipc = run_ipc(body, 10_000);
        assert!(ipc > 3.5, "ipc = {ipc}");
    }

    #[test]
    fn unpipelined_divide_blocks_unit() {
        // Independent IDivs: one per 22 cycles.
        let body: Vec<Inst> = (0..4)
            .map(|i| Inst::new(Opcode::IDiv).int_dst(i).int_srcs(8, 9))
            .collect();
        let ipc = run_ipc(body, 22_000);
        assert!((0.03..0.06).contains(&ipc), "ipc = {ipc}");
    }

    #[test]
    fn mispredicting_branch_costs_cycles() {
        let clean: Vec<Inst> = (0..7)
            .map(|i| Inst::new(Opcode::IAdd).int_dst(i % 8).int_srcs(8, 9))
            .chain([Inst::new(Opcode::Branch)])
            .collect();
        let mut noisy = clean.clone();
        noisy[7] = Inst::new(Opcode::Branch).branch(BranchBehavior::MispredictEvery { period: 4 });
        let ipc_clean = run_ipc(clean, 20_000);
        let ipc_noisy = run_ipc(noisy, 20_000);
        assert!(ipc_noisy < 0.8 * ipc_clean, "{ipc_noisy} vs {ipc_clean}");
    }

    #[test]
    fn memory_miss_stalls_retire() {
        let hit: Vec<Inst> = (0..4)
            .map(|i| Inst::new(Opcode::Load).int_dst(i).int_srcs(8, 9))
            .collect();
        let mut missy = hit.clone();
        missy[0] = Inst::new(Opcode::Load)
            .int_dst(0)
            .int_srcs(8, 9)
            .mem(MemBehavior::MemMissEvery { period: 8 });
        let ipc_hit = run_ipc(hit, 20_000);
        let ipc_miss = run_ipc(missy, 20_000);
        assert!(ipc_miss < 0.7 * ipc_hit, "{ipc_miss} vs {ipc_hit}");
    }

    #[test]
    fn start_offset_delays_execution() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::nops(8), 100);
        let mut fp_sched = 0;
        for now in 0..50 {
            let out = core.step(now, 4, 2, &mut fp_sched, 48);
            assert_eq!(out.fetched, 0, "fetched during start offset");
        }
    }

    #[test]
    fn injected_stall_pauses_fetch() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::nops(8), 0);
        let mut fp_sched = 0;
        core.step(0, 4, 2, &mut fp_sched, 48);
        core.inject_stall(1, 10);
        for now in 1..11 {
            let out = core.step(now, 4, 2, &mut fp_sched, 48);
            assert_eq!(out.fetched, 0, "fetched during injected stall at {now}");
        }
        let out = core.step(11, 4, 2, &mut fp_sched, 48);
        assert!(out.fetched > 0);
    }

    #[test]
    fn idle_core_draws_idle_current() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        let mut fp_sched = 0;
        let out = core.step(0, 4, 2, &mut fp_sched, 48);
        assert_eq!(out.amps, cfg.energy.core_idle_amps);
        assert_eq!(out.retired, 0);
    }

    #[test]
    fn fp_budget_zero_blocks_fp_issue() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        let body: Vec<Inst> = (0..8)
            .map(|i| Inst::new(Opcode::FMul).fp_dst(i).fp_srcs(14, 15))
            .collect();
        core.load(&Program::new("fp", body), 0);
        let mut fp_sched = 0;
        for now in 0..100 {
            let out = core.step(now, 4, 0, &mut fp_sched, 48);
            assert_eq!(out.fp_issued, 0);
        }
        assert_eq!(core.retired_total(), 0);
    }

    #[test]
    fn fp_ops_consume_shared_scheduler() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        let body: Vec<Inst> = (0..8)
            .map(|i| Inst::new(Opcode::FMul).fp_dst(i).fp_srcs(14, 15))
            .collect();
        core.load(&Program::new("fp", body), 0);
        let mut fp_sched = 0;
        // No FP budget: dispatch fills the shared scheduler and stops.
        for now in 0..100 {
            core.step(now, 4, 0, &mut fp_sched, 16);
        }
        assert_eq!(fp_sched, 16);
    }

    #[test]
    fn toggle_changes_current_draw() {
        let cfg = ChipConfig::bulldozer();
        let run = |toggle: f64| {
            let mut core = CoreSim::idle(cfg.core, cfg.energy);
            let body: Vec<Inst> = (0..8)
                .map(|i| {
                    Inst::new(Opcode::SimdFMul)
                        .fp_dst(i)
                        .fp_srcs(14, 15)
                        .toggle(toggle)
                })
                .collect();
            core.load(&Program::new("fp", body), 0);
            let mut fp_sched = 0;
            let mut total = 0.0;
            for now in 0..5_000 {
                total += core.step(now, 4, 2, &mut fp_sched, 48).amps;
            }
            total
        };
        let hi = run(1.0);
        let lo = run(0.0);
        assert!(hi > lo * 1.02, "hi {hi} lo {lo}");
    }

    #[test]
    fn determinism() {
        let cfg = ChipConfig::bulldozer();
        let body: Vec<Inst> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    Inst::new(Opcode::SimdFma).fp_dst(i).fp_srcs(i + 1, i + 2)
                } else {
                    Inst::new(Opcode::IAdd).int_dst(i).int_srcs(8, 9)
                }
            })
            .collect();
        let run = || {
            let mut core = CoreSim::idle(cfg.core, cfg.energy);
            core.load(&Program::new("mix", body.clone()), 0);
            let mut fp_sched = 0;
            let mut acc = Vec::new();
            for now in 0..2_000 {
                acc.push(core.step(now, 4, 2, &mut fp_sched, 48).amps);
            }
            acc
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::inst::{Inst, Program};

    fn run_core(body: Vec<Inst>, cycles: u64) -> CoreTelemetry {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::new("t", body), 0);
        let mut fp_sched = 0;
        for now in 0..cycles {
            core.step(now, 4, 2, &mut fp_sched, cfg.module.fp_sched);
        }
        *core.telemetry()
    }

    #[test]
    fn unit_counters_track_instruction_mix() {
        let body = vec![
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(8, 9),
            Inst::new(Opcode::Load).int_dst(1).int_srcs(8, 9),
            Inst::new(Opcode::FMul).fp_dst(0).fp_srcs(12, 13),
            Inst::new(Opcode::Nop),
        ];
        let t = run_core(body, 4_000);
        assert!(t.issued_by_unit[0] > 0, "int-alu");
        assert!(t.issued_by_unit[1] > 0, "agu");
        assert!(t.issued_by_unit[3] > 0, "fp");
        assert_eq!(t.issued_by_unit[2], 0, "no muldiv ops in the mix");
        assert!(t.nops > 0);
        // Even mix: counts roughly equal.
        let a = t.issued_by_unit[0] as f64;
        let f = t.issued_by_unit[3] as f64;
        assert!((a / f - 1.0).abs() < 0.1, "alu {a} vs fp {f}");
    }

    #[test]
    fn prf_pressure_is_attributed() {
        // Long-latency FP chain with many independent writers exhausts
        // the FP PRF (64 regs at 5-cycle latency needs > width×latency).
        let body: Vec<Inst> = (0..16)
            .map(|i| Inst::new(Opcode::FDiv).fp_dst(i % 8).fp_srcs(12, 13))
            .collect();
        let t = run_core(body, 4_000);
        let stalls: u64 = t.dispatch_stalls.iter().sum();
        assert!(stalls > 0, "no dispatch stalls recorded: {t:?}");
    }

    #[test]
    fn frontend_stall_counts_start_offset() {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::nops(8), 100);
        let mut fp_sched = 0;
        for now in 0..100 {
            core.step(now, 4, 2, &mut fp_sched, 48);
        }
        assert_eq!(core.telemetry().frontend_stall_cycles, 100);
    }
}

#[cfg(test)]
mod strided_tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::inst::{Inst, Program};

    fn run_core(body: Vec<Inst>, cycles: u64) -> CoreSim {
        let cfg = ChipConfig::bulldozer();
        let mut core = CoreSim::idle(cfg.core, cfg.energy);
        core.load(&Program::new("t", body), 0);
        let mut fp_sched = 0;
        for now in 0..cycles {
            core.step(now, 4, 2, &mut fp_sched, cfg.module.fp_sched);
        }
        core
    }

    fn strided_loop(stride: u32, footprint: u32) -> Vec<Inst> {
        vec![
            Inst::new(Opcode::Load)
                .int_dst(0)
                .int_srcs(12, 13)
                .mem(MemBehavior::Strided {
                    stride_bytes: stride,
                    footprint_bytes: footprint,
                }),
            Inst::new(Opcode::IAdd).int_dst(1).int_srcs(8, 9),
            Inst::new(Opcode::IAdd).int_dst(2).int_srcs(8, 9),
            Inst::new(Opcode::Nop),
        ]
    }

    #[test]
    fn small_footprint_stays_in_l1() {
        // 8 KB walk fits the 16 KB L1: after warmup, ~no misses.
        let core = run_core(strided_loop(64, 8 << 10), 20_000);
        assert!(
            core.caches().l1().miss_ratio() < 0.05,
            "L1 miss ratio {}",
            core.caches().l1().miss_ratio()
        );
        assert!(core.retired_total() > 10_000, "throughput collapsed");
    }

    #[test]
    fn l2_sized_footprint_misses_l1_hits_l2() {
        // A 32 KB walk blows the 16 KB L1 but settles into the L2 once
        // the cold pass (512 lines fetched from memory) completes.
        let core = run_core(strided_loop(64, 32 << 10), 300_000);
        assert!(
            core.caches().l1().miss_ratio() > 0.9,
            "L1 miss ratio {}",
            core.caches().l1().miss_ratio()
        );
        assert!(
            core.caches().l2().miss_ratio() < 0.3,
            "L2 miss ratio {}",
            core.caches().l2().miss_ratio()
        );
    }

    #[test]
    fn huge_footprint_goes_to_memory_and_stalls() {
        // 64 MB walk thrashes both levels: long stalls, low IPC.
        let fits = run_core(strided_loop(64, 8 << 10), 20_000).retired_total();
        let thrashes = run_core(strided_loop(64, 63 << 20), 20_000).retired_total();
        assert!(
            thrashes * 3 < fits,
            "thrashing {thrashes} vs fitting {fits}"
        );
    }

    #[test]
    fn same_line_reaccess_hits() {
        // Stride 0: the same address every time → all hits after first.
        let core = run_core(strided_loop(0, 0), 10_000);
        assert!(core.caches().l1().miss_ratio() < 0.01);
    }
}
