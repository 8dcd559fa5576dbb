//! Contracts of the declarative codec, end to end, for every journal
//! record, wire message and fleet frame:
//!
//! * **Round trip.** `from_json(parse(encode(to_json(x))))` is `x`, with
//!   u64 fields drawn from the full range and floats bit for bit,
//!   NaN and ±inf included.
//! * **No silent defaults.** A well-formed line with one field dropped,
//!   retyped, made negative, fractional or larger than 2^64 decodes to
//!   an error, to the original value, or to the mutated value taken at
//!   face value. Only a dropped optional field may read as its default.

use std::fmt::Debug;

use proptest::prelude::*;

use audit_core::ga::{CostFunction, GaConfig, Gene, ObjectiveSet, Objectives};
use audit_core::journal::{
    GenerationAnalysis, GenerationRecord, JournalRecord, ParetoFrontRecord, ShmooPointResult,
    VminOutcome, SCHEMA_VERSION,
};
use audit_core::{AuditResult, FitnessSpec, MeasurePolicy, MeasureSpec, ResilienceReport};
use audit_cpu::isa::Opcode;
use audit_measure::fault::FaultPlan;
use audit_measure::json::JsonValue;
use audit_net::{EvalContext, FleetMsg, Msg};

/// A splitmix64 stream that favours the edges of each type's range.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn u64(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => 1 << 53,
            2 => (1 << 53) + 1,
            3 => u64::MAX,
            _ => self.next() >> self.below(64),
        }
    }

    fn u32(&mut self) -> u32 {
        (self.u64() >> (self.below(2) * 32)) as u32
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn f64(&mut self) -> f64 {
        match self.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 5e-324,
            5 => f64::MAX,
            _ => f64::from_bits(self.next()),
        }
    }

    fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    fn string(&mut self) -> String {
        const CHARS: [char; 10] = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', 'μ', '—'];
        let n = self.below(12);
        (0..n).map(|_| CHARS[self.below(10) as usize]).collect()
    }

    fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }

    fn gene(&mut self) -> Gene {
        Gene {
            opcode: Opcode::ALL[self.below(Opcode::ALL.len() as u64) as usize],
            dst: self.next() as u8,
            src1: self.next() as u8,
            src2: self.next() as u8,
            miss: self.bool(),
        }
    }

    fn genome(&mut self) -> Vec<Gene> {
        (0..self.below(4)).map(|_| self.gene()).collect()
    }

    fn objectives(&mut self) -> Objectives {
        Objectives((0..1 + self.below(3)).map(|_| self.f64()).collect())
    }

    fn outcome(&mut self) -> VminOutcome {
        [
            VminOutcome::Pending,
            VminOutcome::Passed,
            VminOutcome::Failed,
            VminOutcome::Crashed,
        ][self.below(4) as usize]
    }

    fn cfg(&mut self) -> GaConfig {
        GaConfig {
            population: self.usize(),
            generations: self.usize(),
            tournament: self.usize(),
            crossover_rate: self.f64(),
            mutation_rate: self.f64(),
            elitism: self.usize(),
            stall_generations: self.usize(),
            seed: self.u64(),
            threads: self.usize(),
            cache_capacity: self.usize(),
            fast_tier_budget: self.usize(),
            pareto: self.bool(),
            lint_repair: self.bool(),
        }
    }

    /// One record of every kind.
    fn journal_records(&mut self) -> Vec<JournalRecord> {
        let slots = self.below(4) as usize;
        let minimize_outcome = self.outcome();
        vec![
            JournalRecord::RunStart {
                schema: SCHEMA_VERSION,
                mode: self.string(),
                meta: JsonValue::String(self.string()),
            },
            JournalRecord::PhaseStart {
                name: self.string(),
            },
            JournalRecord::PhaseEnd {
                name: self.string(),
                payload: JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            },
            JournalRecord::GaStart {
                cfg: self.cfg(),
                genome_len: self.usize(),
                menu: Opcode::stress_menu(),
                seeds: vec![self.genome(), self.genome()],
            },
            JournalRecord::Cascade { budget: self.u64() },
            JournalRecord::Repair {
                index: self.usize(),
                rerolls: self.u64(),
            },
            JournalRecord::ParetoFront(ParetoFrontRecord {
                index: self.usize(),
                objectives: (0..slots).map(|_| self.objectives()).collect(),
                ranks: (0..slots).map(|_| self.u64()).collect(),
            }),
            JournalRecord::Generation(GenerationRecord {
                index: self.usize(),
                stream_seed: self.u64(),
                population: (0..slots).map(|_| self.genome()).collect(),
                scores: (0..slots).map(|_| self.f64()).collect(),
                executed: self.u64(),
                cache_hits: self.u64(),
                wall_s: self.f64(),
                analysis: self.option(|g| GenerationAnalysis {
                    best_swing: g.f64(),
                    mean_swing: g.f64(),
                }),
            }),
            JournalRecord::GaEnd,
            JournalRecord::VminStep {
                step: self.u64(),
                voltage: self.f64(),
                attempt: self.u32(),
                outcome: self.outcome(),
            },
            JournalRecord::Retry {
                step: self.u64(),
                attempt: self.u32(),
                reason: self.string(),
                backoff_cycles: self.u64(),
            },
            JournalRecord::Quarantine {
                step: self.u64(),
                attempts: self.u32(),
                fallback: self.f64(),
            },
            JournalRecord::ShmooPoint {
                index: self.u64(),
                volts: self.f64(),
                clock_hz: self.f64(),
                result: self.option(|g| ShmooPointResult {
                    v_fail: g.f64(),
                    margin: g.f64(),
                    steps: g.u64(),
                }),
            },
            JournalRecord::MinimizeStep {
                step: self.u64(),
                kept: self.u64(),
                key: self.u64(),
                outcome: minimize_outcome,
                droop: if minimize_outcome.is_terminal() {
                    Some(self.f64())
                } else {
                    self.option(Gen::f64)
                },
            },
            JournalRecord::WorkerEvicted {
                worker: self.u64(),
                key: self.u64(),
                quarantined: self.u64(),
            },
            JournalRecord::RunEnd,
        ]
    }

    fn resilience(&mut self) -> ResilienceReport {
        ResilienceReport {
            evaluations: self.u64(),
            retries: self.u64(),
            quarantined: self.u64(),
            backoff_cycles: self.u64(),
        }
    }

    fn ctx(&mut self) -> EvalContext {
        let faults = format!("{}:noise=0.002,hang={}", self.u64(), self.below(2));
        EvalContext {
            chip: self.string(),
            volts: self.option(Gen::f64),
            throttle: self.option(Gen::u32),
            spec: FitnessSpec {
                threads: self.usize(),
                sub_blocks: self.usize().max(1),
                lp_slots: self.usize(),
                cost: [
                    CostFunction::MaxDroop,
                    CostFunction::DroopPerAmp,
                    CostFunction::SensitivePathDroop,
                ][self.below(3) as usize],
                spec: MeasureSpec {
                    warmup_cycles: self.u64() / 2,
                    record_cycles: (self.u64() / 2).max(1),
                    settle_cycles: self.u64(),
                    check_failure: self.bool(),
                    trigger_below_nominal: self.option(|g| f64::from(g.u32()) / 1e9 + 1e-6),
                    envelope_decimation: self.u64().max(1),
                    keep_traces: false,
                },
                policy: MeasurePolicy {
                    faults: FaultPlan::parse(&faults).unwrap(),
                    repeat: self.u32(),
                    retries: self.u32(),
                    cycle_budget: self.option(Gen::u64),
                },
                objectives: ObjectiveSet::parse(
                    [
                        "droop",
                        "droop,margin",
                        "power,margin",
                        "droop,power,margin",
                    ][self.below(4) as usize],
                )
                .unwrap(),
            },
            fast_tier_budget: self.usize(),
        }
    }

    fn messages(&mut self) -> Vec<Msg> {
        vec![
            Msg::Hello {
                protocol: self.u64(),
            },
            Msg::Setup { ctx: self.ctx() },
            Msg::Eval {
                id: self.u64(),
                genome: self.genome(),
            },
            Msg::Result {
                id: self.u64(),
                objectives: self.objectives(),
                resilience: self.resilience(),
                cached: self.bool(),
            },
            Msg::Ping,
            Msg::Pong,
            Msg::Shutdown,
            Msg::MetricsReq,
            Msg::Metrics {
                text: self.string(),
            },
        ]
    }

    fn fleet_msgs(&mut self) -> Vec<FleetMsg> {
        vec![
            FleetMsg::Submit {
                argv: (0..self.below(4)).map(|_| self.string()).collect(),
                checkpoint: self.string(),
                weight: self.u32(),
                resume: self.bool(),
            },
            FleetMsg::Accepted {
                campaign: self.u64(),
            },
            FleetMsg::Done {
                campaign: self.u64(),
                ok: self.bool(),
                summary: self.string(),
            },
            FleetMsg::StatusReq,
            FleetMsg::Status {
                text: self.string(),
            },
        ]
    }
}

/// Encodes `x` to text, parses and decodes it again. `Debug` compares
/// floats bit for bit (NaN payloads aside, which JSON cannot carry)
/// and sees fields `PartialEq` skips, such as `wall_s`.
fn round_trip<T: Debug>(
    x: &T,
    to_json: impl Fn(&T) -> JsonValue,
    from_json: impl Fn(&JsonValue) -> AuditResult<T>,
) -> proptest::TestCaseResult {
    let text = to_json(x).encode();
    let back = from_json(&JsonValue::parse(&text).expect("the writer emits valid JSON"));
    prop_assert!(back.is_ok(), "{:?} decoding {}", back.err(), text);
    let back = back.unwrap();
    prop_assert_eq!(format!("{back:?}"), format!("{x:?}"), "{}", text);
    prop_assert_eq!(to_json(&back).encode(), text);
    Ok(())
}

proptest! {
    #[test]
    fn every_record_and_message_round_trips_exactly(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for r in g.journal_records() {
            round_trip(&r, JournalRecord::to_json, JournalRecord::from_json)?;
        }
        for m in g.messages() {
            round_trip(&m, Msg::to_json, Msg::from_json)?;
        }
        let ctx = g.ctx();
        round_trip(&ctx, EvalContext::to_json, EvalContext::from_json)?;
        for m in g.fleet_msgs() {
            round_trip(&m, FleetMsg::to_json, FleetMsg::from_json)?;
        }
    }
}

/// The golden journal fixture, one record per line.
const GOLDEN: &str = include_str!("../../core/tests/fixtures/journal_v1.ndjson");

/// What a line decodes to, re-encoded: the decoder's view of the value.
type Canonical = fn(&JsonValue) -> AuditResult<JsonValue>;

fn canonical_record(v: &JsonValue) -> AuditResult<JsonValue> {
    JournalRecord::from_json(v).map(|r| r.to_json())
}

fn canonical_msg(v: &JsonValue) -> AuditResult<JsonValue> {
    Msg::from_json(v).map(|m| m.to_json())
}

fn canonical_fleet(v: &JsonValue) -> AuditResult<JsonValue> {
    FleetMsg::from_json(v).map(|m| m.to_json())
}

/// Every golden journal line and one sample of every wire message,
/// each with its decoder.
fn samples() -> Vec<(JsonValue, Canonical)> {
    let mut out: Vec<(JsonValue, Canonical)> = GOLDEN
        .lines()
        .map(|l| (JsonValue::parse(l).unwrap(), canonical_record as Canonical))
        .collect();
    let mut g = Gen(7);
    let mut ctx = g.ctx();
    (ctx.volts, ctx.throttle, ctx.fast_tier_budget) = (Some(1.15), Some(2), 6);
    ctx.spec.spec.trigger_below_nominal = Some(0.05);
    ctx.spec.policy.cycle_budget = Some(120_000);
    let msgs = [
        Msg::Hello { protocol: 3 },
        Msg::Setup { ctx },
        Msg::Eval {
            id: 42,
            genome: vec![g.gene(), g.gene()],
        },
        Msg::Result {
            id: 43,
            objectives: Objectives(vec![-0.08125, 14.5, -0.03]),
            resilience: g.resilience(),
            cached: true,
        },
        Msg::Result {
            id: 44,
            objectives: Objectives::scalar(-0.0625),
            resilience: ResilienceReport::default(),
            cached: false,
        },
        Msg::Metrics {
            text: "audit_workers 2\n".into(),
        },
    ];
    out.extend(
        msgs.iter()
            .map(|m| (m.to_json(), canonical_msg as Canonical)),
    );
    let frames = [
        FleetMsg::Submit {
            argv: vec!["--seed".into(), "7".into()],
            checkpoint: "run.ndjson".into(),
            weight: 3,
            resume: true,
        },
        FleetMsg::Accepted { campaign: 2 },
        FleetMsg::Done {
            campaign: 2,
            ok: true,
            summary: "best -0.125".into(),
        },
        FleetMsg::Status {
            text: "campaign 0\n".into(),
        },
    ];
    out.extend(
        frames
            .iter()
            .map(|m| (m.to_json(), canonical_fleet as Canonical)),
    );
    out
}

/// One path into a JSON tree: object keys and array indices.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every path into `v`: each object field, and the first element of
/// each array (the other elements decode through the same code).
fn paths(v: &JsonValue, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &JsonValue)> = match v {
        JsonValue::Object(pairs) => pairs
            .iter()
            .map(|(k, x)| (Step::Key(k.clone()), x))
            .collect(),
        JsonValue::Array(items) => items
            .first()
            .map(|x| (Step::Index(0), x))
            .into_iter()
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn at<'a>(v: &'a JsonValue, path: &[Step]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, step| match step {
        Step::Key(k) => v.get(k),
        Step::Index(i) => v.as_array()?.get(*i),
    })
}

/// The mutations: `None` drops the field, `Some(x)` replaces it.
fn mutation(kind: u64) -> Option<JsonValue> {
    let two_pow_65 = 36_893_488_147_419_103_232.0;
    match kind {
        0 => None,
        1 => Some(JsonValue::Null),
        2 => Some(JsonValue::Bool(true)),
        3 => Some(JsonValue::String("x".into())),
        4 => Some(JsonValue::Number(7.0)),
        5 => Some(JsonValue::Array(Vec::new())),
        6 => Some(JsonValue::Object(Vec::new())),
        7 => Some(JsonValue::Number(-1.0)),
        8 => Some(JsonValue::Number(2.5)),
        9 => Some(JsonValue::Number(two_pow_65)),
        _ => Some(JsonValue::String("36893488147419103232".into())),
    }
}

const MUTATIONS: u64 = 11;

fn mutate(v: &JsonValue, path: &[Step], with: &Option<JsonValue>) -> JsonValue {
    let mut v = v.clone();
    let (last, parent) = path.split_last().expect("a non-empty path");
    let mut node = &mut v;
    for step in parent {
        node = match (step, node) {
            (Step::Key(k), JsonValue::Object(pairs)) => {
                &mut pairs.iter_mut().find(|(key, _)| key == k).unwrap().1
            }
            (Step::Index(i), JsonValue::Array(items)) => &mut items[*i],
            _ => unreachable!("paths only name existing nodes"),
        };
    }
    match (last, node, with) {
        (Step::Key(k), JsonValue::Object(pairs), None) => pairs.retain(|(key, _)| key != k),
        (Step::Key(k), JsonValue::Object(pairs), Some(x)) => {
            pairs.iter_mut().find(|(key, _)| key == k).unwrap().1 = x.clone();
        }
        (Step::Index(i), JsonValue::Array(items), None) => {
            items.remove(*i);
        }
        (Step::Index(i), JsonValue::Array(items), Some(x)) => items[*i] = x.clone(),
        _ => unreachable!("paths only name existing nodes"),
    }
    v
}

/// What an optional field reads as when absent.
fn looks_default(v: Option<&JsonValue>) -> bool {
    match v {
        None | Some(JsonValue::Null) | Some(JsonValue::Bool(false)) => true,
        Some(JsonValue::Number(n)) => *n == 0.0,
        Some(JsonValue::String(s)) => s.is_empty(),
        Some(JsonValue::Array(items)) => items.is_empty(),
        Some(JsonValue::Object(pairs)) => pairs.is_empty(),
        Some(JsonValue::Bool(true)) => false,
    }
}

proptest! {
    #[test]
    fn one_mutated_field_never_decodes_to_a_silent_default(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for (line, canonical) in samples() {
            let original = canonical(&line).expect("every sample decodes");
            let mut all = Vec::new();
            paths(&line, &mut Vec::new(), &mut all);
            for path in all {
                let with = mutation(g.below(MUTATIONS));
                let mutated = mutate(&line, &path, &with);
                let Ok(decoded) = canonical(&mutated) else { continue };
                let dropped_to_default = with.is_none() && looks_default(at(&decoded, &path));
                prop_assert!(
                    decoded == original || decoded == mutated || dropped_to_default,
                    "{:?} at {:?} of {} decoded to {}",
                    with,
                    path,
                    line.encode(),
                    decoded.encode()
                );
            }
        }
    }
}
