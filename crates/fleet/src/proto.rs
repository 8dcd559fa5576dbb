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
use audit_measure::codec;
use audit_measure::json::{Codec, JsonValue};

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

#[cfg(test)]
mod tests {
    use super::*;

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
