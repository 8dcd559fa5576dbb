//! [`Codec`] impls for core's types that the journal and the `audit-net`
//! wire protocol encode. They live next to the types: Rust's orphan
//! rule keeps `audit-net` from implementing `audit_measure`'s trait for
//! core's types.

use audit_error::{AuditError, AuditResult};
use audit_measure::codec;
use audit_measure::json::{self, Codec, JsonValue};
use audit_measure::FaultPlan;

use crate::audit::FitnessSpec;
use crate::ga::{CostFunction, Gene, ObjectiveSet, Objectives};
use crate::harness::MeasureSpec;
use crate::resilient::{MeasurePolicy, ResilienceReport, MAD_THRESHOLD, QUARANTINE_FITNESS};

/// Each cost function's wire tag.
const COST_TAGS: [(CostFunction, &str); 3] = [
    (CostFunction::MaxDroop, "max_droop"),
    (CostFunction::DroopPerAmp, "droop_per_amp"),
    (CostFunction::SensitivePathDroop, "sensitive_path_droop"),
];

codec! {
    leaf
    /// `["SimdFma",3,12,13,false]`: the genome format of the journal and
    /// of the broker protocol alike.
    Gene: |g| JsonValue::Array(vec![
            g.opcode.encode(), g.dst.encode(), g.src1.encode(), g.src2.encode(), g.miss.encode(),
        ]),
        |v| match v.as_array() {
            Some([opcode, dst, src1, src2, miss]) => Ok(Gene {
                opcode: Codec::decode(opcode)?,
                dst: Codec::decode(dst)?,
                src1: Codec::decode(src1)?,
                src2: Codec::decode(src2)?,
                miss: Codec::decode(miss)?,
            }),
            _ => Err(AuditError::journal(0, "expected a 5-element gene array")),
        };
    /// The axis values, in canonical axis order.
    Objectives: |x| x.0.encode(), |v| Codec::decode(v).map(Objectives);
    /// The `--objective` spec string.
    ObjectiveSet: |x| JsonValue::String(x.to_spec()), |v| ObjectiveSet::parse(json::text(v)?);
    CostFunction: |x| {
            let (_, tag) = COST_TAGS.iter().find(|(c, _)| c == x).expect("every cost has a tag");
            JsonValue::String((*tag).into())
        },
        |v| json::tag(v, |s| COST_TAGS.iter().find(|(_, t)| *t == s).map(|(c, _)| *c));
}

// The optional knobs are written only when set, so setups without them
// keep their earlier wire bytes.
codec! {
    record MeasureSpec "measure" {
        warmup_cycles, record_cycles, settle_cycles, check_failure,
        envelope_decimation, keep_traces,
        trigger_below_nominal: if_set,
    } check MeasureSpec::validate
}

codec! {
    record MeasurePolicy "policy" {
        faults: if_set(FaultPlan::is_enabled),
        repeat, retries,
        cycle_budget: if_set,
        // Fixed values, not knobs: still written, so setup frames keep
        // their bytes, and ignored on read.
        mad_threshold: const(MAD_THRESHOLD),
        quarantine_fitness: const(QUARANTINE_FITNESS),
    }
}

codec! {
    record ResilienceReport "resilience" { evaluations, retries, quarantined, backoff_cycles, }
}

// Written inline into the `audit-net` setup context.
codec! {
    record FitnessSpec "ctx" {
        threads, sub_blocks, lp_slots, cost,
        spec as measure,
        policy,
        objectives: if_set,
    } check has_sub_blocks
}

fn has_sub_blocks(spec: &FitnessSpec) -> AuditResult<()> {
    let why = "the HP region needs at least one sub-block";
    match spec.sub_blocks {
        0 => Err(AuditError::invalid("EvalContext", "sub_blocks", why)),
        _ => Ok(()),
    }
}

/// A phase payload that does not decode leaves nothing to resume from.
pub(crate) fn resume_error(e: AuditError) -> AuditError {
    match e {
        AuditError::Journal { message, .. } => AuditError::resume(message),
        other => other,
    }
}
