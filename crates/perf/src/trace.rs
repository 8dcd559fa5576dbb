//! Tracing for `--trace 1` runs: spans and counters recorded at the
//! boundaries of the calls this benchmark makes into each layer, kept in
//! memory and written once at exit.
//!
//! Inside an evaluation the traced fitness is a stage-timed replica of
//! `Rig::measure_aligned` / `FitnessSpec::evaluate_objectives`, built
//! only from public calls (`ChipSim`, `Transient`, `Oscilloscope`,
//! `FailureModel::fails`, `FitnessSpec::objectives_of`). Chip cycles are
//! stepped in blocks of [`BLOCK`] and the PDN and scope then consume the
//! block, so each simulator gets its own clock without a timer per
//! cycle; the chip never reads the supply voltage, so the reordering
//! computes the same values in the same order. The replica is trusted
//! only because every traced campaign's journal digest must equal the
//! untraced one's.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use audit_core::audit::FitnessSpec;
use audit_core::ga::{to_sub_block, Gene, Objectives};
use audit_core::harness::{MeasureSpec, Measurement, Rig};
use audit_core::{AuditError, ResilienceReport};
use audit_cpu::{ChipCycle, ChipSim, Program};
use audit_measure::json::JsonValue;
use audit_measure::Oscilloscope;
use audit_net::{connect, read_frame, write_frame, FrameOutcome, Msg, PROTOCOL_VERSION};
use audit_pdn::Transient;
use audit_stressmark::Kernel;

/// Chip cycles stepped between two clock reads.
const BLOCK: u64 = 256;

/// Cycles of the chip-only mean-current probe (as in `Rig::measure_*`).
const PROBE_CYCLES: u64 = 2_000;

/// One finished span. Times are nanoseconds since the tracer started.
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u64,
    campaign: u64,
}

/// Time spent in each stage of the evaluations traced so far, with the
/// work each stage did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stages {
    pub evals: u64,
    /// Wall time of whole evaluations (lowering through objectives).
    pub wall: Duration,
    pub lower: Duration,
    pub build: Duration,
    pub probe: Duration,
    pub settle: Duration,
    pub warmup_chip: Duration,
    pub warmup_pdn: Duration,
    pub record_chip: Duration,
    pub record_pdn: Duration,
    pub record_scope: Duration,
    pub objectives: Duration,
    /// Chip cycles simulated (probe, warmup and recorded window).
    pub chip_cycles: u64,
    /// PDN steps co-simulated with the chip (warmup and window).
    pub pdn_steps: u64,
    pub settle_steps: u64,
    pub record_cycles: u64,
    pub ipc_sum: f64,
}

impl Stages {
    pub(crate) fn add(&mut self, o: &Stages) {
        self.evals += o.evals;
        self.wall += o.wall;
        self.lower += o.lower;
        self.build += o.build;
        self.probe += o.probe;
        self.settle += o.settle;
        self.warmup_chip += o.warmup_chip;
        self.warmup_pdn += o.warmup_pdn;
        self.record_chip += o.record_chip;
        self.record_pdn += o.record_pdn;
        self.record_scope += o.record_scope;
        self.objectives += o.objectives;
        self.chip_cycles += o.chip_cycles;
        self.pdn_steps += o.pdn_steps;
        self.settle_steps += o.settle_steps;
        self.record_cycles += o.record_cycles;
        self.ipc_sum += o.ipc_sum;
    }

    /// What was added to the totals after the snapshot `earlier`.
    pub(crate) fn since(&self, earlier: &Stages) -> Stages {
        Stages {
            evals: self.evals - earlier.evals,
            wall: self.wall - earlier.wall,
            lower: self.lower - earlier.lower,
            build: self.build - earlier.build,
            probe: self.probe - earlier.probe,
            settle: self.settle - earlier.settle,
            warmup_chip: self.warmup_chip - earlier.warmup_chip,
            warmup_pdn: self.warmup_pdn - earlier.warmup_pdn,
            record_chip: self.record_chip - earlier.record_chip,
            record_pdn: self.record_pdn - earlier.record_pdn,
            record_scope: self.record_scope - earlier.record_scope,
            objectives: self.objectives - earlier.objectives,
            chip_cycles: self.chip_cycles - earlier.chip_cycles,
            pdn_steps: self.pdn_steps - earlier.pdn_steps,
            settle_steps: self.settle_steps - earlier.settle_steps,
            record_cycles: self.record_cycles - earlier.record_cycles,
            ipc_sum: self.ipc_sum - earlier.ipc_sum,
        }
    }

    /// Time covered by the stage spans of the evaluations.
    pub(crate) fn staged(&self) -> Duration {
        self.lower
            + self.build
            + self.probe
            + self.settle
            + self.warmup_chip
            + self.warmup_pdn
            + self.record_chip
            + self.record_pdn
            + self.record_scope
            + self.objectives
    }

    pub(crate) fn chip(&self) -> Duration {
        self.probe + self.warmup_chip + self.record_chip
    }
}

/// Span and counter store shared by every thread of one traced run.
pub(crate) struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    campaign: AtomicU64,
    /// Span id of the generation being dispatched, the parent of the
    /// evaluations running on worker threads.
    generation: AtomicU64,
    spans: Mutex<Vec<Span>>,
    stages: Mutex<Stages>,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            campaign: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            stages: Mutex::new(Stages::default()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// span itself is closed.
    pub(crate) fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the finished span `id`.
    pub(crate) fn close(&self, id: u64, name: &'static str, start: Instant, parent: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(Instant::now()),
            parent,
            campaign: self.campaign.load(Ordering::Relaxed),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a finished span with a fresh id.
    pub(crate) fn span(&self, name: &'static str, start: Instant, parent: u64) {
        let id = self.open();
        self.close(id, name, start, parent);
    }

    pub(crate) fn set_campaign(&self, seed: u64) {
        self.campaign.store(seed, Ordering::Relaxed);
    }

    pub(crate) fn set_generation(&self, id: u64) {
        self.generation.store(id, Ordering::Relaxed);
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    pub(crate) fn stages(&self) -> Stages {
        *self.stages.lock().expect("stage totals poisoned")
    }

    fn add_stages(&self, s: &Stages) {
        self.stages.lock().expect("stage totals poisoned").add(s);
    }

    /// Writes `path`: every span, each span name's total and self time
    /// (span time minus the part of it covered by child spans), and the
    /// run's metrics.
    pub(crate) fn write(&self, path: &Path, metrics: JsonValue) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let by_name = self_times(&spans)
            .into_iter()
            .map(|(name, (count, total, own))| {
                JsonValue::object(vec![
                    ("name", JsonValue::String(name.into())),
                    ("count", JsonValue::from_u64(count)),
                    ("total_ms", JsonValue::from_f64(total as f64 / 1e6)),
                    ("self_ms", JsonValue::from_f64(own as f64 / 1e6)),
                ])
            })
            .collect();
        let spans = spans
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("id", JsonValue::from_u64(s.id)),
                    ("name", JsonValue::String(s.name.into())),
                    ("start_ns", JsonValue::from_u64(s.start_ns)),
                    ("end_ns", JsonValue::from_u64(s.end_ns)),
                    ("parent", JsonValue::from_u64(s.parent)),
                    ("campaign", JsonValue::from_u64(s.campaign)),
                ])
            })
            .collect();
        let doc = JsonValue::object(vec![
            ("metrics", metrics),
            ("by_name", JsonValue::Array(by_name)),
            ("spans", JsonValue::Array(spans)),
        ]);
        std::fs::write(path, doc.encode() + "\n")
    }
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the union of its children's intervals clipped to it
/// (children on parallel threads may overlap each other).
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    out
}

/// Stage-timed replica of `FitnessSpec::evaluate_objectives` on the
/// plain (no-op policy) path, recorded as one `core.eval` span under the
/// generation being dispatched.
pub(crate) fn eval_genome(
    tr: &Tracer,
    rig: &Rig,
    fspec: &FitnessSpec,
    genome: &[Gene],
) -> Objectives {
    assert!(
        fspec.policy.is_noop(),
        "the traced fitness replicates the no-op-policy path only"
    );
    let start = Instant::now();
    let id = tr.open();
    let mut st = Stages::default();
    let kernel = Kernel::from_sub_blocks(
        "candidate",
        &to_sub_block(genome),
        fspec.sub_blocks,
        fspec.lp_slots,
    );
    let programs = vec![kernel.to_program(); fspec.threads];
    st.lower = start.elapsed();
    tr.span("stressmark.lower", start, id);
    let m = measure_stages(
        tr,
        id,
        rig,
        &programs,
        &vec![0; programs.len()],
        fspec.spec,
        &mut st,
    );
    let t = Instant::now();
    let objectives = fspec.objectives_of(rig, &m);
    st.objectives = t.elapsed();
    st.wall = start.elapsed();
    tr.close(id, "core.eval", start, tr.generation());
    tr.add_stages(&st);
    objectives
}

/// Stage-timed replica of `Rig::measure_with_offsets`, recorded as one
/// `core.measure` span under `parent`.
pub(crate) fn measure(
    tr: &Tracer,
    parent: u64,
    rig: &Rig,
    programs: &[Program],
    offsets: &[u64],
    spec: MeasureSpec,
) -> Measurement {
    let start = Instant::now();
    let id = tr.open();
    let mut st = Stages::default();
    let m = measure_stages(tr, id, rig, programs, offsets, spec, &mut st);
    st.wall = start.elapsed();
    tr.close(id, "core.measure", start, parent);
    tr.add_stages(&st);
    m
}

fn measure_stages(
    tr: &Tracer,
    parent: u64,
    rig: &Rig,
    programs: &[Program],
    offsets: &[u64],
    spec: MeasureSpec,
    st: &mut Stages,
) -> Measurement {
    assert!(
        rig.os.is_none(),
        "the traced replica models the interrupt-free rig only"
    );
    st.evals += 1;
    let t0 = Instant::now();
    let placement = rig
        .placement(programs.len())
        .expect("thread count incompatible with chip");
    let mut chip = ChipSim::with_start_offsets(&rig.chip, &placement, programs, offsets)
        .expect("programs incompatible with chip");
    let nominal = rig.pdn.nominal_voltage();
    let mut transient = Transient::new(&rig.pdn, rig.chip.clock_hz);
    st.build += t0.elapsed();
    tr.span("core.harness.build", t0, parent);

    let t1 = Instant::now();
    let mut probe = chip.clone();
    let mut amps_sum = 0.0;
    for _ in 0..PROBE_CYCLES {
        amps_sum += probe.step().amps;
    }
    st.probe += t1.elapsed();
    tr.span("core.harness.probe", t1, parent);

    let t2 = Instant::now();
    transient.settle(amps_sum / PROBE_CYCLES as f64, spec.settle_cycles);
    st.settle += t2.elapsed();
    st.settle_steps += spec.settle_cycles;
    tr.span("pdn.settle", t2, parent);

    let t3 = Instant::now();
    let mut block: Vec<ChipCycle> = Vec::with_capacity(BLOCK as usize);
    let mut left = spec.warmup_cycles;
    while left > 0 {
        let n = left.min(BLOCK);
        let a = Instant::now();
        block.clear();
        block.extend((0..n).map(|_| chip.step()));
        let b = Instant::now();
        for c in &block {
            transient.step(c.amps);
        }
        st.warmup_chip += b - a;
        st.warmup_pdn += b.elapsed();
        left -= n;
    }
    tr.span("core.harness.warmup", t3, parent);

    let t4 = Instant::now();
    let mut scope = Oscilloscope::new(nominal).with_envelope_decimation(spec.envelope_decimation);
    if let Some(below) = spec.trigger_below_nominal {
        scope = scope.with_trigger(nominal - below);
    }
    let mut failed = false;
    let mut max_path_seen = 0.0f64;
    let mut amps_acc = 0.0;
    let mut retired_acc: u64 = 0;
    let cap = if spec.keep_traces {
        spec.record_cycles as usize
    } else {
        0
    };
    let mut current_trace = Vec::with_capacity(cap);
    let mut voltage_trace = Vec::with_capacity(cap);
    let mut volts: Vec<f64> = Vec::with_capacity(BLOCK as usize);
    let mut left = spec.record_cycles;
    while left > 0 {
        let n = left.min(BLOCK);
        let a = Instant::now();
        block.clear();
        block.extend((0..n).map(|_| chip.step()));
        let b = Instant::now();
        volts.clear();
        volts.extend(block.iter().map(|c| transient.step(c.amps)));
        let c_end = Instant::now();
        for (c, &v) in block.iter().zip(&volts) {
            scope.sample(v);
            amps_acc += c.amps;
            retired_acc += c.retired as u64;
            max_path_seen = max_path_seen.max(c.max_path);
            if spec.check_failure && rig.failure.fails(v, c.max_path) {
                failed = true;
            }
            if spec.keep_traces {
                current_trace.push(c.amps);
                voltage_trace.push(v);
            }
        }
        st.record_chip += b - a;
        st.record_pdn += c_end - b;
        st.record_scope += c_end.elapsed();
        left -= n;
    }
    tr.span("core.harness.record", t4, parent);

    st.chip_cycles += PROBE_CYCLES + spec.warmup_cycles + spec.record_cycles;
    st.pdn_steps += spec.warmup_cycles + spec.record_cycles;
    st.record_cycles += spec.record_cycles;
    let ipc = retired_acc as f64 / spec.record_cycles as f64;
    st.ipc_sum += ipc;
    Measurement {
        stats: *scope.stats(),
        histogram: scope.histogram().clone(),
        envelope: scope.envelope().to_vec(),
        trigger_events: scope.trigger_events(),
        mean_amps: amps_acc / spec.record_cycles as f64,
        ipc,
        failed,
        max_path_seen,
        current_trace,
        voltage_trace,
    }
}

/// Replica of `audit_net::run_worker` (without its cross-campaign cache,
/// which a single campaign per worker never hits) that scores with
/// [`eval_genome`], so a traced distributed run still splits every
/// evaluation into stages. Serves until the broker says `Shutdown`.
pub(crate) fn serve(addr: &str, tr: &Tracer) -> Result<(), AuditError> {
    let io = |e: std::io::Error| AuditError::io(addr, &e);
    let mut conn = connect(addr).map_err(io)?;
    write_frame(
        &mut conn,
        &Msg::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .to_json(),
    )?;
    let mut bound: Option<(Rig, FitnessSpec)> = None;
    loop {
        let msg = match read_frame(&mut conn)? {
            FrameOutcome::Frame(v) => Msg::from_json(&v)?,
            FrameOutcome::Corrupt => continue,
            FrameOutcome::Eof => return Ok(()),
            FrameOutcome::TruncatedTail => {
                return Err(AuditError::journal(0, "broker connection died mid-frame"))
            }
        };
        let reply = match msg {
            Msg::Setup { ctx } => {
                bound = Some((ctx.rig()?, ctx.spec));
                continue;
            }
            Msg::Eval { id, genome } => {
                let (rig, fspec) = bound
                    .as_ref()
                    .ok_or_else(|| AuditError::journal(0, "eval before setup"))?;
                Msg::Result {
                    id,
                    objectives: eval_genome(tr, rig, fspec, &genome),
                    resilience: ResilienceReport::default(),
                    cached: false,
                }
            }
            Msg::Ping => Msg::Pong,
            Msg::Shutdown => return Ok(()),
            _ => return Err(AuditError::journal(0, "unexpected frame from broker")),
        };
        write_frame(&mut conn, &reply.to_json())?;
    }
}

/// Microseconds to carry `msg` through the wire codec once:
/// `Msg::to_json` → `write_frame` → `read_frame` → `Msg::from_json`,
/// in memory.
pub(crate) fn codec_us(msg: &Msg) -> f64 {
    let t = Instant::now();
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.to_json()).expect("in-memory frame write");
    let decoded = match read_frame(&mut Cursor::new(&buf)).expect("in-memory frame read") {
        FrameOutcome::Frame(v) => Msg::from_json(&v).expect("codec round trip"),
        other => panic!("in-memory frame decoded as {other:?}"),
    };
    let us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(&decoded, msg, "frame codec round trip changed the message");
    us
}

/// The per-layer metrics of the simulator stages, from the traced
/// evaluations' totals `all`. Counts that depend on how many campaigns
/// fit in the run come from `first`, the run's first traced unit, whose
/// work is fixed by the seed.
pub(crate) fn stage_metrics(all: &Stages, first: &Stages, m: &mut BTreeMap<&'static str, f64>) {
    let n = all.evals as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let per = |d: Duration, count: u64| d.as_secs_f64() * 1e9 / count as f64;
    let wall = all.wall.as_secs_f64();
    m.insert("pdn.settle_ms", ms(all.settle));
    m.insert("pdn.settle_share", all.settle.as_secs_f64() / wall);
    m.insert("pdn.settle_step_ns", per(all.settle, all.settle_steps));
    m.insert(
        "pdn.step_ns",
        per(all.warmup_pdn + all.record_pdn, all.pdn_steps),
    );
    m.insert("cpu.chip_step_ns", per(all.chip(), all.chip_cycles));
    m.insert("cpu.chip_share", all.chip().as_secs_f64() / wall);
    m.insert("cpu.sim_cycles", first.chip_cycles as f64);
    m.insert("cpu.ipc_mean", first.ipc_sum / first.evals as f64);
    m.insert(
        "measure.scope_sample_ns",
        per(all.record_scope, all.record_cycles),
    );
    m.insert("core.harness.build_ms", ms(all.build));
    m.insert("core.harness.probe_ms", ms(all.probe));
    m.insert(
        "core.harness.warmup_ms",
        ms(all.warmup_chip + all.warmup_pdn),
    );
    m.insert(
        "core.harness.record_ms",
        ms(all.record_chip + all.record_pdn + all.record_scope),
    );
    m.insert(
        "core.harness.stage_coverage",
        all.staged().as_secs_f64() / wall,
    );
}
