//! Fleet control frames: how tenants talk to the campaign manager.
//!
//! These ride the same length-prefixed, CRC-trailed frame layer as the
//! worker protocol ([`audit_net::frame`]), on the same listening
//! socket — the accept loop tells the two apart by the first frame's
//! `kind`. A submission carries the campaign's *generate argv* (the
//! normalized flag list a `generate` checkpoint records in its
//! `run_start` meta), not a pre-built config: the manager replays the argv through the same
//! code path a solo `audit generate` uses, which is what makes the
//! managed journal byte-identical to the solo one from the
//! `run_start` meta onward.

use audit_error::AuditError;
use audit_measure::json::JsonValue;

/// One fleet control message.
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
        let kind = |k: &str| ("kind", JsonValue::String(k.into()));
        match self {
            FleetMsg::Submit {
                argv,
                checkpoint,
                weight,
                resume,
            } => {
                let mut fields = vec![
                    kind("submit"),
                    (
                        "argv",
                        JsonValue::Array(
                            argv.iter()
                                .map(|a| JsonValue::String(a.clone()))
                                .collect(),
                        ),
                    ),
                    ("checkpoint", JsonValue::String(checkpoint.clone())),
                    ("weight", JsonValue::from_u64(u64::from(*weight))),
                ];
                if *resume {
                    fields.push(("resume", JsonValue::Bool(true)));
                }
                JsonValue::object(fields)
            }
            FleetMsg::Accepted { campaign } => JsonValue::object(vec![
                kind("accepted"),
                ("campaign", JsonValue::from_u64(*campaign)),
            ]),
            FleetMsg::Done {
                campaign,
                ok,
                summary,
            } => JsonValue::object(vec![
                kind("done"),
                ("campaign", JsonValue::from_u64(*campaign)),
                ("ok", JsonValue::Bool(*ok)),
                ("summary", JsonValue::String(summary.clone())),
            ]),
            FleetMsg::StatusReq => JsonValue::object(vec![kind("status")]),
            FleetMsg::Status { text } => JsonValue::object(vec![
                kind("status_text"),
                ("text", JsonValue::String(text.clone())),
            ]),
        }
    }

    /// Decodes from the wire JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Journal`] on an unknown kind or a missing
    /// or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<FleetMsg, AuditError> {
        let bad = |what: &str| AuditError::journal(0, format!("fleet frame: {what}"));
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("no kind"))?;
        match kind {
            "submit" => {
                let argv = v
                    .get("argv")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad("submit has no argv"))?
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("argv entry is not a string"))
                    })
                    .collect::<Result<Vec<String>, AuditError>>()?;
                let checkpoint = v
                    .get("checkpoint")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("submit has no checkpoint"))?
                    .to_string();
                let weight = v
                    .get("weight")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("submit has no weight"))? as u32;
                let resume = v.get("resume").and_then(JsonValue::as_bool).unwrap_or(false);
                Ok(FleetMsg::Submit {
                    argv,
                    checkpoint,
                    weight,
                    resume,
                })
            }
            "accepted" => Ok(FleetMsg::Accepted {
                campaign: v
                    .get("campaign")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("accepted has no campaign"))?,
            }),
            "done" => Ok(FleetMsg::Done {
                campaign: v
                    .get("campaign")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("done has no campaign"))?,
                ok: v
                    .get("ok")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| bad("done has no ok"))?,
                summary: v
                    .get("summary")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "status" => Ok(FleetMsg::StatusReq),
            "status_text" => Ok(FleetMsg::Status {
                text: v
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            other => Err(bad(&format!("unknown kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_frames_round_trip() {
        let msgs = [
            FleetMsg::Submit {
                argv: vec!["--seed".into(), "7".into(), "--objective".into(), "droop".into()],
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
    fn unknown_kind_is_an_error() {
        let v = JsonValue::parse("{\"kind\":\"warp\"}").unwrap();
        assert!(FleetMsg::from_json(&v).is_err());
    }
}
