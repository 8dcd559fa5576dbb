//! Broker/worker protocol messages and fleet control frames.
//!
//! Every message is one [`crate::frame`] frame whose payload is a JSON
//! object with a `kind` discriminant — the same self-describing style
//! as the run journal, and declared with the same
//! [`audit_measure::codec!`] tables, so numeric round-trips are exact.
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
//!
//! Tenants of an `audit fleet` manager speak [`FleetMsg`] (campaign
//! submission, acceptance, completion and status) over the same frames
//! and the same socket; its kinds are disjoint from [`Msg`]'s.

use audit_core::ga::{Gene, Objectives};
use audit_core::{FitnessSpec, ResilienceReport, Rig};
use audit_error::AuditError;
use audit_measure::codec;
use audit_measure::fault::KeyHasher;
use audit_measure::json::{self, Codec, Fields, JsonValue};

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
/// (and trip cross-validation), so a v2 worker is refused. v4 keeps the
/// v3 frames but workers step the PDN by a precomputed affine map
/// instead of RK4's four derivative passes, which again moves fitness
/// floats in their last bits, so a v3 worker is refused for the same
/// reason.
pub const PROTOCOL_VERSION: u64 = 4;

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
        self.encode()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] for an unknown `kind` or a
    /// missing/mistyped field, and the context's errors for a `setup`
    /// (see [`EvalContext::from_json`]).
    pub fn from_json(v: &JsonValue) -> Result<Msg, AuditError> {
        Msg::decode(v)
    }
}

codec! {
    enum Msg "message" {
        "hello" => Hello { protocol, },
        "setup" => Setup { ctx, },
        "eval" => Eval { id, genome, },
        "result" => Result {
            id, objectives: with(put_axes, take_axes), cached: if_set, resilience,
        },
        "ping" => Ping {},
        "pong" => Pong {},
        "shutdown" => Shutdown {},
        "metrics_req" => MetricsReq {},
        "metrics" => Metrics { text, },
    }
}

/// One fleet control message: how tenants talk to an `audit fleet`
/// manager, on the same socket as its workers (the front door tells
/// them apart by the first frame's `kind`). A submission carries the
/// campaign's *generate argv* (the normalized flag list a `generate`
/// checkpoint records in its `run_start` meta), not a pre-built
/// config: the manager replays the argv through the same code path a
/// solo `audit generate` uses, which is what makes the managed journal
/// byte-identical to the solo one from the `run_start` meta onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMsg {
    /// Tenant → manager: run this campaign. `argv` is the normalized
    /// `audit generate` flag list; `checkpoint` is where the manager
    /// writes the campaign's journal (and `<checkpoint>.wal`);
    /// `weight` is the fair-share weight; `resume` continues a
    /// half-finished journal instead of starting over.
    Submit {
        /// Normalized generate argv (flags only, no binary name).
        argv: Vec<String>,
        /// Journal checkpoint path on the manager's filesystem.
        checkpoint: String,
        /// Fair-share weight (≥ 1).
        weight: u32,
        /// Resume the checkpoint instead of starting fresh.
        resume: bool,
    },
    /// Manager → tenant: the campaign is registered and running.
    Accepted {
        /// Manager-assigned campaign id.
        campaign: u64,
    },
    /// Manager → tenant: the campaign finished (or failed).
    Done {
        /// The id from [`FleetMsg::Accepted`].
        campaign: u64,
        /// True when the campaign completed; false on error.
        ok: bool,
        /// Human-readable completion summary (or the error text).
        summary: String,
    },
    /// Client → manager: describe every campaign's progress.
    StatusReq,
    /// Manager → client: the plain-text status report.
    Status {
        /// One line per campaign plus pool totals.
        text: String,
    },
}

impl FleetMsg {
    /// Encodes to the wire JSON object.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Decodes from the wire JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] on an unknown kind or a missing
    /// or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<FleetMsg, AuditError> {
        FleetMsg::decode(v)
    }
}

codec! {
    enum FleetMsg "fleet frame" {
        "submit" => Submit { argv, checkpoint, weight, resume: if_set, },
        "accepted" => Accepted { campaign, },
        "done" => Done { campaign, ok, summary: or_default, },
        "status" => StatusReq {},
        "status_text" => Status { text: or_default, },
    }
}

/// A result's objective vector, shared by [`Msg::Result`] and the
/// dispatch WAL's `result` lines: the primary axis always rides the
/// plain `fitness` number (the historical scalar encoding), and the
/// full `objectives` array only when there is more than one axis.
pub(crate) fn put_axes(objectives: &Objectives, out: &mut Fields) {
    out.push(("fitness".into(), objectives.primary().encode()));
    if objectives.len() > 1 {
        out.push(("objectives".into(), objectives.encode()));
    }
}

pub(crate) fn take_axes(v: &JsonValue, record: &str) -> Result<Objectives, AuditError> {
    let fitness: f64 = json::field(v, record, "fitness")?;
    if v.get("objectives").is_none() {
        return Ok(Objectives::scalar(fitness));
    }
    let objectives: Objectives = json::field(v, record, "objectives")?;
    // Both fields carry the primary axis; a line where they differ is
    // damaged, whichever of the two is right.
    if objectives.0.first().map(|p| p.to_bits()) != Some(fitness.to_bits()) {
        let message = format!("`{record}.fitness` differs from the primary objective");
        return Err(AuditError::journal(0, message));
    }
    Ok(objectives)
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
        self.encode()
    }

    /// Decodes a [`Msg::Setup`] context.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] for missing or mistyped fields,
    /// and [`AuditError::InvalidConfig`] for an unparsable fault or
    /// objective spec, a measurement window that
    /// [`audit_core::MeasureSpec::validate`] rejects, or zero
    /// `sub_blocks`.
    pub fn from_json(v: &JsonValue) -> Result<EvalContext, AuditError> {
        EvalContext::decode(v)
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

// The optional knobs are written only when set, so setups without them
// keep their earlier wire bytes. The fitness spec's fields follow inline.
codec! {
    record EvalContext "ctx" {
        chip,
        volts: if_set,
        throttle: if_set,
        fast_tier_budget: if_set,
        spec: flatten,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_core::ga::{CostFunction, ObjectiveSet};
    use audit_core::{MeasurePolicy, MeasureSpec};
    use audit_cpu::isa::Opcode;
    use audit_measure::fault::FaultPlan;

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

    /// The setup frame of a context whose policy sets faults, repeat,
    /// retries and a cycle budget, byte for byte (length prefix,
    /// payload, CRC32 trailer) as the protocol-v4 encoder wrote it
    /// when the MAD threshold and the quarantine fitness were still
    /// policy fields.
    #[test]
    fn setup_frame_bytes_are_pinned() {
        const PAYLOAD: &str = concat!(
            r#"{"kind":"setup","ctx":{"chip":"phenom","volts":1.15,"throttle":2,"#,
            r#""fast_tier_budget":6,"threads":2,"sub_blocks":3,"lp_slots":5,"#,
            r#""cost":"droop_per_amp","measure":{"warmup_cycles":5000,"#,
            r#""record_cycles":60000,"settle_cycles":400000,"check_failure":true,"#,
            r#""envelope_decimation":32,"keep_traces":false,"trigger_below_nominal":0.06},"#,
            r#""policy":{"faults":"7:noise=0.002,hang=0.1","repeat":3,"retries":2,"#,
            r#""cycle_budget":120000,"mad_threshold":3.5,"quarantine_fitness":0},"#,
            r#""objectives":"droop,margin"}}"#,
        );
        let mut frame = Vec::new();
        crate::frame::write_frame(&mut frame, &Msg::Setup { ctx: sample_ctx() }.to_json()).unwrap();
        let (len, rest) = frame.split_at(4);
        let (payload, crc) = rest.split_at(rest.len() - 4);
        assert_eq!(std::str::from_utf8(payload).unwrap(), PAYLOAD);
        assert_eq!(len, 484u32.to_be_bytes());
        assert_eq!(crc, 0x7DFC_4142u32.to_be_bytes());
        let decoded = Msg::from_json(&JsonValue::parse(PAYLOAD).unwrap()).unwrap();
        assert_eq!(decoded, Msg::Setup { ctx: sample_ctx() });
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
        assert_eq!(
            encoded.get("fitness").and_then(JsonValue::as_f64),
            Some(-0.0625)
        );
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
        assert_eq!(
            encoded.get("fitness").and_then(JsonValue::as_f64),
            Some(-0.0625)
        );
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

    #[test]
    fn fleet_frames_round_trip() {
        let msgs = [
            FleetMsg::Submit {
                argv: vec![
                    "--seed".into(),
                    "7".into(),
                    "--objective".into(),
                    "droop".into(),
                ],
                checkpoint: "/tmp/run.journal".into(),
                weight: 3,
                resume: false,
            },
            FleetMsg::Submit {
                argv: vec![],
                checkpoint: "c".into(),
                weight: 1,
                resume: true,
            },
            FleetMsg::Accepted { campaign: 2 },
            FleetMsg::Done {
                campaign: 2,
                ok: true,
                summary: "best -0.125 after 10 generations".into(),
            },
            FleetMsg::StatusReq,
            FleetMsg::Status {
                text: "campaign 0: generation 4/10\n".into(),
            },
        ];
        for msg in &msgs {
            let encoded = msg.to_json();
            let decoded = FleetMsg::from_json(&encoded).unwrap();
            assert_eq!(&decoded, msg);
            // And through the text layer, like the wire does it.
            let reparsed = JsonValue::parse(&encoded.encode()).unwrap();
            assert_eq!(FleetMsg::from_json(&reparsed).unwrap(), *msg);
        }
    }

    #[test]
    fn resume_flag_is_omitted_when_false() {
        let msg = FleetMsg::Submit {
            argv: vec![],
            checkpoint: "c".into(),
            weight: 1,
            resume: false,
        };
        assert!(msg.to_json().get("resume").is_none());
    }

    #[test]
    fn weight_beyond_u32_is_rejected_not_truncated() {
        // 2^32 + 5 truncates to weight 5 under `as u32`.
        let text = r#"{"kind":"submit","argv":[],"checkpoint":"c","weight":4294967301}"#;
        let err = FleetMsg::from_json(&JsonValue::parse(text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("`submit.weight`"), "{err}");
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let v = JsonValue::parse("{\"kind\":\"warp\"}").unwrap();
        assert!(FleetMsg::from_json(&v).is_err());
    }
}
