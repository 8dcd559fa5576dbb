//! Hostile-input fuzzing for the wire layer.
//!
//! A broker listens on a socket anyone can connect to, so the frame
//! reader and message decoder must survive *arbitrary* bytes — no
//! panic, no unbounded allocation, no misread accepted as valid. These
//! properties drive both through random byte soup and through
//! adversarially-damaged valid frames.

use std::net::TcpListener;

use proptest::prelude::*;

use audit_core::ga::{CostFunction, Gene, ObjectiveSet};
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec};
use audit_cpu::isa::Opcode;
use audit_measure::json::JsonValue;
use audit_net::{
    crc32, read_frame, run_worker, write_frame, EvalContext, FrameOutcome, Msg, WorkerOptions,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_frame` never panics on arbitrary bytes, and only ever
    /// yields a `Frame` whose CRC trailer checks out.
    #[test]
    fn read_frame_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut cursor = &bytes[..];
        // Drain frames until the stream ends one way or another.
        while let Ok(FrameOutcome::Frame(_)) = read_frame(&mut cursor) {}
    }

    /// Flipping any single bit of an encoded frame never panics the
    /// reader, and flips inside the payload or trailer are caught by
    /// the CRC rather than decoded as a (different) valid frame.
    #[test]
    fn any_single_bit_flip_is_survived(bit in 0usize..2048) {
        let mut buf = Vec::new();
        let payload = Msg::Ping.to_json();
        write_frame(&mut buf, &payload).unwrap();
        let bit = bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let mut cursor = &buf[..];
        // A flip in the length prefix may resize the frame into a
        // truncated or oversized read; anything else lands in the CRC
        // check. A decoded frame is only acceptable if its trailer
        // genuinely matches — impossible for payload flips, so the
        // value must be the original.
        if let Ok(FrameOutcome::Frame(v)) = read_frame(&mut cursor) {
            prop_assert_eq!(v, payload);
        }
    }

    /// The message decoder never panics on arbitrary JSON-ish input.
    #[test]
    fn msg_decode_survives_arbitrary_text(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = JsonValue::parse(&text) {
            let _ = Msg::from_json(&v);
        }
    }

    /// CRC32 sanity: damaging a payload always changes its checksum
    /// for single-bit damage (guaranteed by the polynomial).
    #[test]
    fn crc_catches_any_single_bit_payload_flip(
        payload in prop::collection::vec(any::<u8>(), 1..128),
        bit in 0usize..1024,
    ) {
        let clean = crc32(&payload);
        let mut damaged = payload.clone();
        let bit = bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(crc32(&damaged) != clean, "flip went undetected");
    }
}

#[test]
fn crc32_matches_the_ieee_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// Plays a broker for one worker session: reads its hello, sends
/// `setup` and one `eval` of `genome`, then waits for the hang-up.
fn serve_one_session(ctx: EvalContext, genome: Vec<Gene>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut conn);
        let _ = write_frame(&mut conn, &Msg::Setup { ctx }.to_json());
        let _ = write_frame(&mut conn, &Msg::Eval { id: 1, genome }.to_json());
        while let Ok(FrameOutcome::Frame(_)) = read_frame(&mut conn) {}
    });
    addr
}

#[test]
fn bad_setup_and_eval_frames_are_worker_errors_not_panics() {
    let spec = FitnessSpec {
        threads: 2,
        sub_blocks: 2,
        lp_slots: 4,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy: MeasurePolicy::disabled(),
        objectives: ObjectiveSet::default(),
    };
    let good = EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec,
        fast_tier_budget: 0,
    };
    let genome = vec![Gene {
        opcode: Opcode::SimdFma,
        dst: 0,
        src1: 12,
        src2: 13,
        miss: false,
    }];
    let with_spec = |spec: FitnessSpec| EvalContext {
        spec,
        ..good.clone()
    };
    let cases = [
        (
            "zero volts",
            EvalContext {
                volts: Some(0.0),
                ..good.clone()
            },
            genome.clone(),
        ),
        (
            "negative volts",
            EvalContext {
                volts: Some(-1.0),
                ..good.clone()
            },
            genome.clone(),
        ),
        (
            "zero threads",
            with_spec(FitnessSpec { threads: 0, ..spec }),
            genome.clone(),
        ),
        (
            "too many threads",
            with_spec(FitnessSpec { threads: 9, ..spec }),
            genome.clone(),
        ),
        (
            "zero sub-blocks",
            with_spec(FitnessSpec {
                sub_blocks: 0,
                ..spec
            }),
            genome.clone(),
        ),
        (
            "empty record window",
            with_spec(FitnessSpec {
                spec: MeasureSpec {
                    record_cycles: 0,
                    ..MeasureSpec::ga_eval()
                },
                ..spec
            }),
            genome.clone(),
        ),
        (
            "overflowing warmup + record window",
            with_spec(FitnessSpec {
                spec: MeasureSpec {
                    warmup_cycles: u64::MAX,
                    ..MeasureSpec::ga_eval()
                },
                ..spec
            }),
            genome.clone(),
        ),
        (
            "kept traces no buffer can hold",
            with_spec(FitnessSpec {
                spec: MeasureSpec {
                    warmup_cycles: 0,
                    record_cycles: u64::MAX,
                    ..MeasureSpec::ga_eval().with_traces()
                },
                ..spec
            }),
            genome.clone(),
        ),
        ("empty genome", good.clone(), Vec::new()),
        (
            "FMA genome on a chip without FMA",
            EvalContext {
                chip: "phenom".into(),
                ..good.clone()
            },
            genome.clone(),
        ),
    ];
    for (what, ctx, genome) in cases {
        let addr = serve_one_session(ctx, genome);
        let result = run_worker(&addr, &WorkerOptions::default());
        assert!(
            result.is_err(),
            "{what}: worker accepted the frame: {result:?}"
        );
    }
}
