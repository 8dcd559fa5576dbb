//! Broker/worker protocol messages.
//!
//! Every message is one [`crate::frame`] frame whose payload is a JSON
//! object with a `kind` discriminant — the same self-describing style
//! as the run journal, and encoded with the same codec, so numeric
//! round-trips are exact ([`audit_core::journal::encode_u64`] /
//! [`JsonValue::from_f64`]).
//!
//! Handshake: worker sends [`Msg::Hello`]; broker replies with
//! [`Msg::Setup`] carrying the [`EvalContext`] from which the worker
//! rebuilds the broker's exact rig and fitness function. Then the
//! broker streams [`Msg::Eval`] requests and the worker answers each
//! with a [`Msg::Result`] carrying the objective vector and the
//! resilience-counter delta of that one evaluation. [`Msg::Ping`] /
//! [`Msg::Pong`] probe liveness; [`Msg::Shutdown`] (or a clean EOF)
//! ends the session.
//!
//! Scalar runs keep their historical wire bytes: a 1-axis result is
//! encoded as the plain `fitness` number, and the `objectives` array
//! (like the context's `objectives` axis spec) only appears when the
//! run optimizes more than one axis.

use audit_core::ga::{CostFunction, Gene, ObjectiveSet, Objectives};
use audit_core::journal::{decode_genome, decode_u64, encode_genome, encode_u64};
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, ResilienceReport, Rig};
use audit_error::AuditError;
use audit_measure::fault::{FaultPlan, KeyHasher};
use audit_measure::json::JsonValue;

/// Protocol revision. A broker and worker must agree exactly — there is
/// no negotiation, because both sides ship in one binary.
///
/// History: v1 was plain length-prefixed frames; v2 added the CRC32
/// trailer on every frame (see [`crate::frame`]), so a v1 peer cannot
/// even parse a v2 stream — the version bump makes the mismatch a clean
/// handshake rejection instead of a garbled-frame error. v3 keeps the
/// v2 frames but workers pre-settle the PDN in closed form, so their
/// fitness floats differ from a v2 worker's in the last bits; mixing
/// the two would make journal bytes depend on which worker ran a job
/// (and trip cross-validation), so a v2 worker is refused.
pub const PROTOCOL_VERSION: u64 = 3;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → broker greeting, first frame on a connection.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Broker → worker: everything needed to rebuild the fitness
    /// function. Sent once, immediately after a valid `Hello`.
    Setup {
        /// The evaluation context.
        ctx: EvalContext,
    },
    /// Broker → worker: score one genome.
    Eval {
        /// Broker-chosen request id, echoed back in the result.
        id: u64,
        /// The genome to score.
        genome: Vec<Gene>,
    },
    /// Worker → broker: the answer to an [`Msg::Eval`].
    Result {
        /// The request id being answered.
        id: u64,
        /// The objective vector (a 1-axis vector on scalar runs; its
        /// primary axis is the historical fitness score).
        objectives: Objectives,
        /// This evaluation's resilience-counter delta (zeros on the
        /// plain path).
        resilience: ResilienceReport,
        /// True when the worker served the answer from its
        /// cross-campaign eval cache instead of simulating. Pure
        /// observability (the cached answer is bit-identical to a
        /// fresh one); omitted from the wire when false, so
        /// cache-miss traffic keeps its prior bytes.
        cached: bool,
    },
    /// Broker → worker liveness probe.
    Ping,
    /// Worker → broker liveness reply.
    Pong,
    /// Broker → worker: the run is over, disconnect.
    Shutdown,
    /// Scraper → server: request a metrics snapshot. Must be the first
    /// frame on its connection; the server answers with one
    /// [`Msg::Metrics`] and closes (see [`crate::metrics`]).
    MetricsReq,
    /// Server → scraper: the plain-text metrics snapshot.
    Metrics {
        /// Line-oriented scrape text ([`crate::metrics::Scrape`]).
        text: String,
    },
}

impl Msg {
    /// Encodes the message as a frame payload.
    pub fn to_json(&self) -> JsonValue {
        let kind = |k: &str| ("kind", JsonValue::String(k.into()));
        match self {
            Msg::Hello { protocol } => {
                JsonValue::object(vec![kind("hello"), ("protocol", encode_u64(*protocol))])
            }
            Msg::Setup { ctx } => JsonValue::object(vec![kind("setup"), ("ctx", ctx.to_json())]),
            Msg::Eval { id, genome } => JsonValue::object(vec![
                kind("eval"),
                ("id", encode_u64(*id)),
                ("genome", encode_genome(genome)),
            ]),
            Msg::Result {
                id,
                objectives,
                resilience,
                cached,
            } => {
                let mut fields = vec![
                    kind("result"),
                    ("id", encode_u64(*id)),
                    ("fitness", JsonValue::from_f64(objectives.primary())),
                ];
                // Scalar results keep the historical single-number
                // encoding; the array only rides along when there is
                // more than one axis to carry.
                if objectives.len() > 1 {
                    fields.push(("objectives", encode_objectives(objectives)));
                }
                if *cached {
                    fields.push(("cached", JsonValue::Bool(true)));
                }
                fields.push(("resilience", encode_resilience(resilience)));
                JsonValue::object(fields)
            }
            Msg::Ping => JsonValue::object(vec![kind("ping")]),
            Msg::Pong => JsonValue::object(vec![kind("pong")]),
            Msg::Shutdown => JsonValue::object(vec![kind("shutdown")]),
            Msg::MetricsReq => JsonValue::object(vec![kind("metrics_req")]),
            Msg::Metrics { text } => JsonValue::object(vec![
                kind("metrics"),
                ("text", JsonValue::String(text.clone())),
            ]),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] for an unknown `kind` or a
    /// missing/mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Msg, AuditError> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| AuditError::journal(0, "message has no `kind`"))?;
        match kind {
            "hello" => Ok(Msg::Hello {
                protocol: field_u64(v, "hello", "protocol")?,
            }),
            "setup" => Ok(Msg::Setup {
                ctx: EvalContext::from_json(
                    v.get("ctx")
                        .ok_or_else(|| AuditError::journal(0, "setup has no `ctx`"))?,
                )?,
            }),
            "eval" => Ok(Msg::Eval {
                id: field_u64(v, "eval", "id")?,
                genome: decode_genome(
                    v.get("genome")
                        .ok_or_else(|| AuditError::journal(0, "eval has no `genome`"))?,
                )?,
            }),
            "result" => {
                let fitness = field_f64(v, "result", "fitness")?;
                let objectives = match v.get("objectives") {
                    Some(arr) => decode_objectives(arr)?,
                    None => Objectives::scalar(fitness),
                };
                Ok(Msg::Result {
                    id: field_u64(v, "result", "id")?,
                    objectives,
                    resilience: decode_resilience(
                        v.get("resilience")
                            .ok_or_else(|| AuditError::journal(0, "result has no `resilience`"))?,
                    )?,
                    cached: v.get("cached").and_then(JsonValue::as_bool).unwrap_or(false),
                })
            }
            "ping" => Ok(Msg::Ping),
            "pong" => Ok(Msg::Pong),
            "shutdown" => Ok(Msg::Shutdown),
            "metrics_req" => Ok(Msg::MetricsReq),
            "metrics" => Ok(Msg::Metrics {
                text: v
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| AuditError::journal(0, "metrics has no `text`"))?
                    .to_string(),
            }),
            other => Err(AuditError::journal(0, format!("unknown message kind `{other}`"))),
        }
    }
}

/// Everything a worker needs to rebuild the broker's fitness function:
/// which chip model, at what operating point, and the full
/// [`FitnessSpec`]. Because [`FitnessSpec::evaluate_objectives`] is
/// deterministic per genome, shipping the *spec* rather than results is
/// what makes distributed runs bit-identical to local ones.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalContext {
    /// Chip model name (`bulldozer` or `phenom`).
    pub chip: String,
    /// Supply-voltage override, if any.
    pub volts: Option<f64>,
    /// FPU dispatch-throttle cap, if any.
    pub throttle: Option<u32>,
    /// The fitness function to evaluate candidates with.
    pub spec: FitnessSpec,
    /// The run's evaluation-cascade fast-tier budget (`0` = cascade
    /// off; omitted from the wire encoding when 0, like the other
    /// optional knobs, so cascade-free setups keep their pre-cascade
    /// bytes). Pruning happens broker-side *before* dispatch — workers
    /// only ever see candidates that survived the cascade, so they need
    /// no cascade logic and checkpoints stay interchangeable between
    /// local and distributed runs. Shipped so the worker can log the
    /// run configuration it is serving (docs/DISTRIBUTED.md).
    pub fast_tier_budget: usize,
}

impl EvalContext {
    /// Encodes the context for a [`Msg::Setup`].
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("chip", JsonValue::String(self.chip.clone()))];
        if let Some(volts) = self.volts {
            fields.push(("volts", JsonValue::from_f64(volts)));
        }
        if let Some(throttle) = self.throttle {
            fields.push(("throttle", encode_u64(u64::from(throttle))));
        }
        if self.fast_tier_budget > 0 {
            fields.push(("fast_tier_budget", encode_u64(self.fast_tier_budget as u64)));
        }
        let s = &self.spec;
        fields.push(("threads", encode_u64(s.threads as u64)));
        fields.push(("sub_blocks", encode_u64(s.sub_blocks as u64)));
        fields.push(("lp_slots", encode_u64(s.lp_slots as u64)));
        fields.push(("cost", JsonValue::String(cost_tag(s.cost).into())));
        fields.push(("measure", encode_measure_spec(&s.spec)));
        fields.push(("policy", encode_policy(&s.policy)));
        // The droop-only default is omitted so scalar setups keep their
        // pre-Pareto wire bytes.
        if s.objectives != ObjectiveSet::default() {
            fields.push(("objectives", JsonValue::String(s.objectives.to_spec())));
        }
        JsonValue::object(fields)
    }

    /// Decodes a [`Msg::Setup`] context.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] for missing or mistyped fields
    /// and for an unparsable fault spec, and
    /// [`AuditError::InvalidConfig`] for a measurement window
    /// [`MeasureSpec::validate`] rejects or zero `sub_blocks`.
    pub fn from_json(v: &JsonValue) -> Result<EvalContext, AuditError> {
        let chip = v
            .get("chip")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| AuditError::journal(0, "ctx has no `chip`"))?
            .to_string();
        let volts = v.get("volts").and_then(JsonValue::as_f64);
        let throttle = match v.get("throttle") {
            Some(t) => Some(u32::try_from(decode_u64(t)?).map_err(|_| {
                AuditError::journal(0, "ctx `throttle` exceeds u32")
            })?),
            None => None,
        };
        let cost = match v.get("cost").and_then(JsonValue::as_str) {
            Some("max_droop") => CostFunction::MaxDroop,
            Some("droop_per_amp") => CostFunction::DroopPerAmp,
            Some("sensitive_path_droop") => CostFunction::SensitivePathDroop,
            Some(other) => {
                return Err(AuditError::journal(0, format!("unknown cost `{other}`")))
            }
            None => return Err(AuditError::journal(0, "ctx has no `cost`")),
        };
        let spec = FitnessSpec {
            threads: field_u64(v, "ctx", "threads")? as usize,
            sub_blocks: field_u64(v, "ctx", "sub_blocks")? as usize,
            lp_slots: field_u64(v, "ctx", "lp_slots")? as usize,
            cost,
            spec: decode_measure_spec(
                v.get("measure")
                    .ok_or_else(|| AuditError::journal(0, "ctx has no `measure`"))?,
            )?,
            policy: decode_policy(
                v.get("policy")
                    .ok_or_else(|| AuditError::journal(0, "ctx has no `policy`"))?,
            )?,
            objectives: match v.get("objectives").and_then(JsonValue::as_str) {
                Some(spec) => ObjectiveSet::parse(spec)?,
                None => ObjectiveSet::default(),
            },
        };
        if spec.sub_blocks == 0 {
            return Err(AuditError::invalid(
                "EvalContext",
                "sub_blocks",
                "the HP region needs at least one sub-block",
            ));
        }
        let fast_tier_budget = match v.get("fast_tier_budget") {
            Some(b) => decode_u64(b)? as usize,
            None => 0,
        };
        Ok(EvalContext {
            chip,
            volts,
            throttle,
            spec,
            fast_tier_budget,
        })
    }

    /// A stable content hash of the context (FNV over its canonical
    /// wire encoding): two contexts fingerprint equal exactly when
    /// their encodings are byte-equal. Used for display and metrics —
    /// the worker's cross-campaign cache is keyed by the *full*
    /// encoding (interned), never by this hash, so a fingerprint
    /// collision can mislabel a metric line but can never leak a
    /// result between tenants.
    pub fn fingerprint(&self) -> u64 {
        let mut h = KeyHasher::new();
        h.write_bytes(self.to_json().encode().as_bytes());
        h.finish()
    }

    /// Builds the worker-side rig this context describes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] for an unknown chip name,
    /// a supply voltage the rig's PDN model rejects (not positive and
    /// finite), or a thread count the chip cannot place.
    pub fn rig(&self) -> Result<Rig, AuditError> {
        let mut rig = match self.chip.as_str() {
            "bulldozer" => Rig::bulldozer(),
            "phenom" => Rig::phenom(),
            other => {
                return Err(AuditError::invalid(
                    "EvalContext",
                    "chip",
                    format!("unknown chip `{other}` (expected bulldozer or phenom)"),
                ))
            }
        };
        if let Some(volts) = self.volts {
            rig = rig.at_voltage(volts);
        }
        if let Some(cap) = self.throttle {
            rig = rig.with_fpu_throttle(cap);
        }
        rig.pdn.validate()?;
        rig.placement(self.spec.threads)?;
        Ok(rig)
    }
}

fn cost_tag(cost: CostFunction) -> &'static str {
    match cost {
        CostFunction::MaxDroop => "max_droop",
        CostFunction::DroopPerAmp => "droop_per_amp",
        CostFunction::SensitivePathDroop => "sensitive_path_droop",
    }
}

fn encode_measure_spec(spec: &MeasureSpec) -> JsonValue {
    let mut fields = vec![
        ("warmup_cycles", encode_u64(spec.warmup_cycles)),
        ("record_cycles", encode_u64(spec.record_cycles)),
        ("settle_cycles", encode_u64(spec.settle_cycles)),
        ("check_failure", JsonValue::Bool(spec.check_failure)),
        ("envelope_decimation", encode_u64(spec.envelope_decimation)),
        ("keep_traces", JsonValue::Bool(spec.keep_traces)),
    ];
    if let Some(level) = spec.trigger_below_nominal {
        fields.push(("trigger_below_nominal", JsonValue::from_f64(level)));
    }
    JsonValue::object(fields)
}

fn decode_measure_spec(v: &JsonValue) -> Result<MeasureSpec, AuditError> {
    let spec = MeasureSpec {
        warmup_cycles: field_u64(v, "measure", "warmup_cycles")?,
        record_cycles: field_u64(v, "measure", "record_cycles")?,
        settle_cycles: field_u64(v, "measure", "settle_cycles")?,
        check_failure: field_bool(v, "measure", "check_failure")?,
        trigger_below_nominal: v.get("trigger_below_nominal").and_then(JsonValue::as_f64),
        envelope_decimation: field_u64(v, "measure", "envelope_decimation")?,
        keep_traces: field_bool(v, "measure", "keep_traces")?,
    };
    spec.validate()?;
    Ok(spec)
}

fn encode_policy(policy: &MeasurePolicy) -> JsonValue {
    let mut fields = Vec::new();
    if policy.faults.is_enabled() {
        fields.push(("faults", JsonValue::String(policy.faults.spec_string())));
    }
    fields.push(("repeat", encode_u64(u64::from(policy.repeat))));
    fields.push(("retries", encode_u64(u64::from(policy.retries))));
    if let Some(budget) = policy.cycle_budget {
        fields.push(("cycle_budget", encode_u64(budget)));
    }
    fields.push(("mad_threshold", JsonValue::from_f64(policy.mad_threshold)));
    fields.push((
        "quarantine_fitness",
        JsonValue::from_f64(policy.quarantine_fitness),
    ));
    JsonValue::object(fields)
}

fn decode_policy(v: &JsonValue) -> Result<MeasurePolicy, AuditError> {
    let faults = match v.get("faults").and_then(JsonValue::as_str) {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::disabled(),
    };
    let cycle_budget = match v.get("cycle_budget") {
        Some(b) => Some(decode_u64(b)?),
        None => None,
    };
    Ok(MeasurePolicy {
        faults,
        repeat: u32::try_from(field_u64(v, "policy", "repeat")?)
            .map_err(|_| AuditError::journal(0, "policy `repeat` exceeds u32"))?,
        retries: u32::try_from(field_u64(v, "policy", "retries")?)
            .map_err(|_| AuditError::journal(0, "policy `retries` exceeds u32"))?,
        cycle_budget,
        mad_threshold: field_f64(v, "policy", "mad_threshold")?,
        quarantine_fitness: field_f64(v, "policy", "quarantine_fitness")?,
    })
}

pub(crate) fn encode_objectives(objs: &Objectives) -> JsonValue {
    JsonValue::Array(objs.0.iter().map(|&x| JsonValue::from_f64(x)).collect())
}

pub(crate) fn decode_objectives(v: &JsonValue) -> Result<Objectives, AuditError> {
    let items = v
        .as_array()
        .ok_or_else(|| AuditError::journal(0, "`objectives` is not an array"))?;
    let mut axes = Vec::with_capacity(items.len());
    for item in items {
        axes.push(
            item.as_f64()
                .ok_or_else(|| AuditError::journal(0, "`objectives` axis is not a number"))?,
        );
    }
    Ok(Objectives(axes))
}

pub(crate) fn encode_resilience(r: &ResilienceReport) -> JsonValue {
    JsonValue::object(vec![
        ("evaluations", encode_u64(r.evaluations)),
        ("retries", encode_u64(r.retries)),
        ("quarantined", encode_u64(r.quarantined)),
        ("backoff_cycles", encode_u64(r.backoff_cycles)),
    ])
}

pub(crate) fn decode_resilience(v: &JsonValue) -> Result<ResilienceReport, AuditError> {
    Ok(ResilienceReport {
        evaluations: field_u64(v, "resilience", "evaluations")?,
        retries: field_u64(v, "resilience", "retries")?,
        quarantined: field_u64(v, "resilience", "quarantined")?,
        backoff_cycles: field_u64(v, "resilience", "backoff_cycles")?,
    })
}

fn field_u64(v: &JsonValue, ctx: &str, key: &str) -> Result<u64, AuditError> {
    decode_u64(
        v.get(key)
            .ok_or_else(|| AuditError::journal(0, format!("{ctx} has no `{key}`")))?,
    )
}

fn field_f64(v: &JsonValue, ctx: &str, key: &str) -> Result<f64, AuditError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| AuditError::journal(0, format!("{ctx} has no number `{key}`")))
}

fn field_bool(v: &JsonValue, ctx: &str, key: &str) -> Result<bool, AuditError> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| AuditError::journal(0, format!("{ctx} has no bool `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::isa::Opcode;

    fn sample_genome() -> Vec<Gene> {
        vec![
            Gene {
                opcode: Opcode::SimdFma,
                dst: 3,
                src1: 12,
                src2: 13,
                miss: false,
            },
            Gene {
                opcode: Opcode::Load,
                dst: 1,
                src1: 2,
                src2: 0,
                miss: true,
            },
        ]
    }

    fn sample_ctx() -> EvalContext {
        EvalContext {
            chip: "phenom".into(),
            volts: Some(1.15),
            throttle: Some(2),
            spec: FitnessSpec {
                threads: 2,
                sub_blocks: 3,
                lp_slots: 5,
                cost: CostFunction::DroopPerAmp,
                spec: MeasureSpec::reporting(),
                policy: MeasurePolicy {
                    faults: FaultPlan::parse("7:noise=0.002,hang=0.1").unwrap(),
                    repeat: 3,
                    retries: 2,
                    cycle_budget: Some(120_000),
                    mad_threshold: 3.5,
                    quarantine_fitness: 0.0,
                },
                objectives: ObjectiveSet::parse("droop,margin").unwrap(),
            },
            fast_tier_budget: 6,
        }
    }

    fn round_trip(msg: Msg) {
        assert_eq!(Msg::from_json(&msg.to_json()).unwrap(), msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Msg::Hello {
            protocol: PROTOCOL_VERSION,
        });
        round_trip(Msg::Setup { ctx: sample_ctx() });
        round_trip(Msg::Eval {
            id: 42,
            genome: sample_genome(),
        });
        round_trip(Msg::Result {
            id: 42,
            objectives: Objectives::scalar(-0.08125),
            resilience: ResilienceReport {
                evaluations: 1,
                retries: 2,
                quarantined: 0,
                backoff_cycles: 4096,
            },
            cached: false,
        });
        round_trip(Msg::Result {
            id: 43,
            objectives: Objectives(vec![-0.08125, 14.5, -0.03]),
            resilience: ResilienceReport::default(),
            cached: true,
        });
        round_trip(Msg::Ping);
        round_trip(Msg::Pong);
        round_trip(Msg::Shutdown);
        round_trip(Msg::MetricsReq);
        round_trip(Msg::Metrics {
            text: "# audit serve metrics\naudit_workers 2\n".into(),
        });
    }

    #[test]
    fn minimal_context_round_trips_without_optional_fields() {
        let ctx = EvalContext {
            chip: "bulldozer".into(),
            volts: None,
            throttle: None,
            spec: FitnessSpec {
                threads: 1,
                sub_blocks: 1,
                lp_slots: 0,
                cost: CostFunction::MaxDroop,
                spec: MeasureSpec::reporting(),
                policy: MeasurePolicy::disabled(),
                objectives: ObjectiveSet::default(),
            },
            fast_tier_budget: 0,
        };
        let encoded = ctx.to_json();
        let decoded = EvalContext::from_json(&encoded).unwrap();
        assert_eq!(decoded, ctx);
        assert!(decoded.spec.policy.is_noop());
        // A disabled cascade is omitted from the wire bytes entirely,
        // so cascade-free setups keep their pre-cascade encoding.
        assert!(encoded.get("fast_tier_budget").is_none());
        // Likewise the droop-only objective default keeps pre-Pareto
        // wire bytes.
        assert!(encoded.get("objectives").is_none());
    }

    #[test]
    fn scalar_result_keeps_the_plain_fitness_encoding() {
        let msg = Msg::Result {
            id: 7,
            objectives: Objectives::scalar(-0.0625),
            resilience: ResilienceReport::default(),
            cached: false,
        };
        let encoded = msg.to_json();
        assert!(encoded.get("objectives").is_none());
        // A cache miss (the historical case) is omitted from the wire,
        // so miss traffic keeps its prior bytes.
        assert!(encoded.get("cached").is_none());
        assert_eq!(encoded.get("fitness").and_then(JsonValue::as_f64), Some(-0.0625));
        assert_eq!(Msg::from_json(&encoded).unwrap(), msg);
    }

    #[test]
    fn vector_result_carries_the_axes_and_primary() {
        let msg = Msg::Result {
            id: 8,
            objectives: Objectives(vec![-0.0625, 12.0]),
            resilience: ResilienceReport::default(),
            cached: false,
        };
        let encoded = msg.to_json();
        // The primary axis still rides the `fitness` field so scalar
        // consumers (and the WAL) read the same number either way.
        assert_eq!(encoded.get("fitness").and_then(JsonValue::as_f64), Some(-0.0625));
        assert!(encoded.get("objectives").is_some());
        assert_eq!(Msg::from_json(&encoded).unwrap(), msg);
    }

    #[test]
    fn fingerprint_tracks_the_wire_encoding_exactly() {
        let ctx = sample_ctx();
        // Stable across calls and across equal contexts.
        assert_eq!(ctx.fingerprint(), ctx.fingerprint());
        assert_eq!(ctx.fingerprint(), sample_ctx().fingerprint());
        // Any field that changes the encoding changes the print.
        let other = EvalContext {
            volts: Some(1.2),
            ..sample_ctx()
        };
        assert_ne!(ctx.fingerprint(), other.fingerprint());
        let other = EvalContext {
            chip: "bulldozer".into(),
            ..sample_ctx()
        };
        assert_ne!(ctx.fingerprint(), other.fingerprint());
    }

    #[test]
    fn context_rebuilds_the_rig() {
        let rig = sample_ctx().rig().unwrap();
        assert_eq!(rig.chip.name, "phenom-x4");
        let bad = EvalContext {
            chip: "epyc".into(),
            ..sample_ctx()
        };
        assert!(bad.rig().is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let v = JsonValue::object(vec![("kind", JsonValue::String("warp".into()))]);
        assert!(Msg::from_json(&v).is_err());
    }
}
