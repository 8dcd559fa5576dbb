//! Deterministic network fault injection for the broker/worker link.
//!
//! `audit_measure::fault` (PR 4) made the *measurement* stack hostile on
//! purpose; this module does the same for the *transport*. A
//! [`NetFaultPlan`] turns the broker↔worker link into a reproducibly
//! bad network: frames are dropped, duplicated, and bit-flipped, workers
//! stall mid-job, and byzantine workers return confidently wrong
//! results. Every decision is a pure hash of
//! `(plan seed, direction, frame key, attempt, copy)` using the exact
//! SplitMix64 mixing discipline of `audit_measure::fault`, so two runs
//! with the same plan see the same chaos regardless of worker count,
//! thread scheduling, or kill/resume.
//!
//! The plan is injected *broker-side* (see `broker`): outbound faults
//! fire at dispatch time (an `eval` frame is withheld, sent twice, or
//! sent with a flipped payload bit so the CRC32 trailer fails at the
//! worker), inbound faults fire at result admission (a `result` frame is
//! discarded as if lost or corrupted on the wire, processed twice as a
//! replay, perturbed to model a lying worker, or escalated to a full
//! worker stall). Centralising the draws in the broker keeps workers
//! honest *processes* while still exercising every defense, and keeps
//! the schedule independent of how jobs land on workers.
//!
//! Fault taxonomy (rates are per-frame probabilities):
//!
//! * **drop** — the frame vanishes; the job is recovered by the
//!   broker's dispatch lease (re-dispatch at `attempt + 1`).
//! * **dup** — the frame arrives twice; the duplicate must be rejected
//!   by `(key, attempt)` accounting with no double count.
//! * **corrupt** — a payload bit flips in transit; the CRC32 trailer
//!   (frame protocol v2 and later) catches it and the frame is discarded.
//! * **stall** — the worker holding the job goes silent; the liveness
//!   layer (`heartbeat` / `dead_after`) declares it dead and
//!   re-dispatches its jobs.
//! * **lie** — the worker returns a plausible but wrong objective
//!   vector; only cross-validation (`FleetConfig::verify_fraction`)
//!   can catch this, by majority vote and eviction.
//!
//! A plan with all rates zero is a guaranteed no-op: the broker's wire
//! bytes and journal bytes are untouched.

use audit_measure::fault::Bound::Probability;
use audit_measure::fault::{mix, uniform, Plan, Rates, SpecKey};

/// Per-class network fault probabilities. All rates are probabilities
/// in `[0, 1]`, drawn independently per frame.
///
/// Spec keys ([`Plan::parse`]): `drop`, `dup`, `corrupt`, `stall`,
/// `lie` — all per-frame probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetFaultRates {
    /// Per-frame probability that the frame is silently lost.
    pub drop: f64,
    /// Per-frame probability that the frame is delivered twice.
    pub dup: f64,
    /// Per-frame probability that a payload bit flips in transit
    /// (caught by the CRC32 trailer; the frame is discarded).
    pub corrupt: f64,
    /// Per-result probability that the worker stalls instead of
    /// answering — it goes silent and must be declared dead.
    pub stall: f64,
    /// Per-result probability that the worker lies: it returns a
    /// deterministically perturbed objective vector.
    pub lie: f64,
}

impl Rates for NetFaultRates {
    const PLAN: &'static str = "NetFaultPlan";
    const NAME: &'static str = "NetFaultRates";
    const NOUN: &'static str = "net fault";
    const KEYS: &'static [SpecKey<Self>] = &[
        SpecKey::new("drop", "drop", Probability, |r| &mut r.drop),
        SpecKey::new("dup", "dup", Probability, |r| &mut r.dup),
        SpecKey::new("corrupt", "corrupt", Probability, |r| &mut r.corrupt),
        SpecKey::new("stall", "stall", Probability, |r| &mut r.stall),
        SpecKey::new("lie", "lie", Probability, |r| &mut r.lie),
    ];
}

/// A seeded network fault schedule, parsed from the CLI spec
/// `SEED:drop=0.02,dup=0.01,corrupt=0.01,stall=0.005,lie=0.01` with the
/// grammar of [`audit_measure::fault::FaultPlan`]. Every query is a
/// pure function of its arguments.
///
/// ```
/// use audit_net::chaos::NetFaultPlan;
/// let plan = NetFaultPlan::parse("7:drop=0.02,lie=0.01").unwrap();
/// assert!(plan.is_enabled());
/// assert_eq!(plan.seed(), 7);
/// assert_eq!(plan.rates().lie, 0.01);
/// ```
pub type NetFaultPlan = Plan<NetFaultRates>;

/// Which way a frame is travelling; a class-level discriminator so the
/// outbound and inbound draws for one `(key, attempt)` are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Broker → worker (`eval` dispatch frames).
    Outbound,
    /// Worker → broker (`result` frames).
    Inbound,
}

impl Direction {
    fn stream(self) -> u64 {
        match self {
            Direction::Outbound => 0x4F55_5442, // "OUTB"
            Direction::Inbound => 0x494E_424E,  // "INBN"
        }
    }
}

/// The resolved fate of one frame: what the simulated network does to
/// it. At most one fate fires per frame (precedence drop > corrupt >
/// dup, so the rates stay independently interpretable at small values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// The frame arrives intact, exactly once.
    Deliver,
    /// The frame is lost.
    Drop,
    /// The frame arrives with a flipped payload bit (CRC32 failure).
    Corrupt,
    /// The frame arrives twice.
    Duplicate,
}

/// The per-frame base word: one well-mixed word per
/// `(seed, direction, frame_key, attempt, copy)` tuple. `copy`
/// distinguishes the primary dispatch from cross-validation and
/// duplicate copies of the same `(key, attempt)`.
fn base(plan: &NetFaultPlan, dir: Direction, frame_key: u64, attempt: u32, copy: u32) -> u64 {
    let word = attempt as u64 | ((copy as u64) << 32);
    mix(mix(mix(plan.seed(), dir.stream()), frame_key), word)
}

/// The wire-level fate of one frame. Pure: the same arguments always
/// return the same fate. [`FrameFate::Deliver`] whenever the plan is
/// disabled.
pub(crate) fn frame_fate(
    plan: &NetFaultPlan,
    dir: Direction,
    frame_key: u64,
    attempt: u32,
    copy: u32,
) -> FrameFate {
    if !plan.is_enabled() {
        return FrameFate::Deliver;
    }
    let base = base(plan, dir, frame_key, attempt, copy);
    let rates = plan.rates();
    if uniform(mix(base, STREAM_DROP)) < rates.drop {
        return FrameFate::Drop;
    }
    if uniform(mix(base, STREAM_CORRUPT)) < rates.corrupt {
        return FrameFate::Corrupt;
    }
    if uniform(mix(base, STREAM_DUP)) < rates.dup {
        return FrameFate::Duplicate;
    }
    FrameFate::Deliver
}

/// The deterministic bit index the "network" flips when
/// [`FrameFate::Corrupt`] fires on an outbound frame (the writer
/// reduces it modulo the payload length in bits).
pub(crate) fn corrupt_bit(
    plan: &NetFaultPlan,
    dir: Direction,
    frame_key: u64,
    attempt: u32,
    copy: u32,
) -> u64 {
    mix(
        base(plan, dir, frame_key, attempt, copy),
        STREAM_CORRUPT_BIT,
    )
}

/// True when the worker holding this job stalls instead of answering
/// (inbound only — a stall is a missing `result`).
pub(crate) fn stalls(plan: &NetFaultPlan, frame_key: u64, attempt: u32, copy: u32) -> bool {
    let stall = plan.rates().stall;
    stall > 0.0
        && uniform(mix(
            base(plan, Direction::Inbound, frame_key, attempt, copy),
            STREAM_STALL,
        )) < stall
}

/// Nonzero XOR mask for a byzantine result, or zero when this result is
/// honest. The broker XORs the mask into the bit pattern of the first
/// objective — a small, plausible-looking perturbation that survives
/// round-trips and is detectable only by cross-validation. Keyed per
/// copy, so two copies of a verified job practically never lie
/// identically.
pub(crate) fn lie_mask(plan: &NetFaultPlan, frame_key: u64, attempt: u32, copy: u32) -> u64 {
    let lie = plan.rates().lie;
    if lie == 0.0 {
        return 0;
    }
    let base = base(plan, Direction::Inbound, frame_key, attempt, copy);
    if uniform(mix(base, STREAM_LIE)) < lie {
        // Low-order mantissa bits only: the lie stays plausible (tiny
        // relative error), and `| 1` guarantees nonzero.
        (mix(base, STREAM_LIE_BITS) & 0xFFFF) | 1
    } else {
        0
    }
}

// Per-class stream discriminators, mixed into the per-frame base word
// so each fault class draws independently.
const STREAM_DROP: u64 = 0x44524F50; // "DROP"
const STREAM_DUP: u64 = 0x44555021; // "DUP!"
const STREAM_CORRUPT: u64 = 0x434F5252; // "CORR"
const STREAM_CORRUPT_BIT: u64 = 0x43425421; // "CBT!"
const STREAM_STALL: u64 = 0x5354414C; // "STAL"
const STREAM_LIE: u64 = 0x4C494521; // "LIE!"
const STREAM_LIE_BITS: u64 = 0x4C494542; // "LIEB"

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_plan() -> NetFaultPlan {
        NetFaultPlan::new(
            42,
            NetFaultRates {
                drop: 0.3,
                dup: 0.3,
                corrupt: 0.3,
                stall: 0.3,
                lie: 0.3,
            },
        )
        .unwrap()
    }

    #[test]
    fn disabled_plan_delivers_everything() {
        let plan = NetFaultPlan::disabled();
        assert!(!plan.is_enabled());
        for key in [0u64, 7, 0xDEAD_BEEF] {
            for attempt in 0..4 {
                for dir in [Direction::Outbound, Direction::Inbound] {
                    assert_eq!(frame_fate(&plan, dir, key, attempt, 0), FrameFate::Deliver);
                }
                assert!(!stalls(&plan, key, attempt, 0));
                assert_eq!(lie_mask(&plan, key, attempt, 0), 0);
            }
        }
    }

    #[test]
    fn fates_are_pure_functions_of_their_arguments() {
        let plan = chaotic_plan();
        for key in [1u64, 2, 99] {
            for attempt in 0..4 {
                for copy in 0..3 {
                    for dir in [Direction::Outbound, Direction::Inbound] {
                        assert_eq!(
                            frame_fate(&plan, dir, key, attempt, copy),
                            frame_fate(&plan, dir, key, attempt, copy)
                        );
                    }
                    assert_eq!(
                        stalls(&plan, key, attempt, copy),
                        stalls(&plan, key, attempt, copy)
                    );
                    assert_eq!(
                        lie_mask(&plan, key, attempt, copy),
                        lie_mask(&plan, key, attempt, copy)
                    );
                }
            }
        }
    }

    #[test]
    fn directions_and_copies_draw_independent_schedules() {
        let plan = chaotic_plan();
        let fates = |dir: Direction, copy: u32| -> Vec<FrameFate> {
            (0..64)
                .map(|k| frame_fate(&plan, dir, k, 0, copy))
                .collect()
        };
        assert_ne!(
            fates(Direction::Outbound, 0),
            fates(Direction::Inbound, 0),
            "outbound and inbound schedules must be independent"
        );
        assert_ne!(
            fates(Direction::Inbound, 0),
            fates(Direction::Inbound, 1),
            "copies of the same frame must draw independently"
        );
    }

    #[test]
    fn attempts_draw_different_schedules() {
        let plan = NetFaultPlan::new(
            9,
            NetFaultRates {
                drop: 0.5,
                ..NetFaultRates::default()
            },
        )
        .unwrap();
        let drops: Vec<bool> = (0..64)
            .map(|a| frame_fate(&plan, Direction::Outbound, 7, a, 0) == FrameFate::Drop)
            .collect();
        assert!(drops.iter().any(|&d| d));
        assert!(drops.iter().any(|&d| !d));
    }

    #[test]
    fn fates_fire_at_roughly_their_rates() {
        let plan = NetFaultPlan::new(
            3,
            NetFaultRates {
                drop: 0.1,
                dup: 0.1,
                corrupt: 0.1,
                stall: 0.05,
                lie: 0.05,
            },
        )
        .unwrap();
        let n = 20_000u64;
        let mut counts = [0usize; 4];
        let mut stalled = 0usize;
        let mut lies = 0usize;
        for k in 0..n {
            match frame_fate(&plan, Direction::Inbound, k, 0, 0) {
                FrameFate::Deliver => counts[0] += 1,
                FrameFate::Drop => counts[1] += 1,
                FrameFate::Corrupt => counts[2] += 1,
                FrameFate::Duplicate => counts[3] += 1,
            }
            if stalls(&plan, k, 0, 0) {
                stalled += 1;
            }
            if lie_mask(&plan, k, 0, 0) != 0 {
                lies += 1;
            }
        }
        let rate = |c: usize| c as f64 / n as f64;
        assert!(
            (rate(counts[1]) - 0.1).abs() < 0.02,
            "drop {}",
            rate(counts[1])
        );
        // Corrupt and dup draw behind drop's precedence: expected
        // 0.9 * 0.1 and 0.9 * 0.9 * 0.1 respectively.
        assert!(
            (rate(counts[2]) - 0.09).abs() < 0.02,
            "corrupt {}",
            rate(counts[2])
        );
        assert!(
            (rate(counts[3]) - 0.081).abs() < 0.02,
            "dup {}",
            rate(counts[3])
        );
        assert!(
            (rate(stalled) - 0.05).abs() < 0.02,
            "stall {}",
            rate(stalled)
        );
        assert!((rate(lies) - 0.05).abs() < 0.02, "lie {}", rate(lies));
    }

    #[test]
    fn lie_mask_is_nonzero_and_small_when_it_fires() {
        let plan = NetFaultPlan::new(
            5,
            NetFaultRates {
                lie: 1.0,
                ..NetFaultRates::default()
            },
        )
        .unwrap();
        for k in 0..256u64 {
            let mask = lie_mask(&plan, k, 0, 0);
            assert_ne!(mask, 0);
            assert!(mask <= 0xFFFF, "mask {mask:#x} must stay in the mantissa");
        }
    }

    #[test]
    fn parse_round_trips_through_spec_string() {
        for spec in [
            "7:drop=0.02,lie=0.01",
            "0:stall=1",
            "123:drop=0.02,dup=0.01,corrupt=0.01,stall=0.005,lie=0.01",
        ] {
            let plan = NetFaultPlan::parse(spec).unwrap();
            let again = NetFaultPlan::parse(&plan.spec_string()).unwrap();
            assert_eq!(plan, again, "spec `{spec}`");
        }
    }

    /// Both plan types read one `SEED:KEY=VALUE[,…]` grammar: the same
    /// spec gets the same verdict shape from each, with each type's own
    /// keys, ranges and names. Every string is pinned byte for byte.
    #[test]
    fn both_plan_grammars_round_trip_and_reject_alike() {
        use audit_measure::FaultRates;
        fn verdict<R: Rates>(spec: &str) -> String {
            let plan = Plan::<R>::parse(spec);
            if let Ok(p) = &plan {
                // The written form is canonical: it reads back to itself.
                let again = Plan::<R>::parse(&p.spec_string()).map(|q| q.spec_string());
                assert_eq!(again.ok(), Some(p.spec_string()), "{spec}");
            }
            let shown = plan.map(|p| (p.spec_string(), p.is_enabled()));
            format!("{:?}", shown.map_err(|e| e.to_string()))
        }
        let unknown_fault = |key: &str| {
            format!(
                r#"Err("invalid FaultPlan.spec: unknown fault key `{key}` (expected noise/outlier/spike/hang/crash)")"#
            )
        };
        let unknown_net = |key: &str| {
            format!(
                r#"Err("invalid NetFaultPlan.spec: unknown net fault key `{key}` (expected drop/dup/corrupt/stall/lie)")"#
            )
        };
        let both = |why: &str| {
            (
                format!(r#"Err("invalid FaultPlan.spec: {why}")"#),
                format!(r#"Err("invalid NetFaultPlan.spec: {why}")"#),
            )
        };
        let cases = [
            ("no-colon", both("expected `SEED:KEY=VALUE,...` (got `no-colon`)")),
            ("x:noise=1e-3", both("seed must be a u64 (got `x`)")),
            ("-1:drop=0.1", both("seed must be a u64 (got `-1`)")),
            ("1:noise", both("expected `KEY=VALUE` (got `noise`)")),
            ("1:noise=abc", both("`noise` value must be a number (got `abc`)")),
            ("1:=0.1", (unknown_fault(""), unknown_net(""))),
            ("1:warp=0.5", (unknown_fault("warp"), unknown_net("warp"))),
            (
                "1:hang=1.5",
                (
                    r#"Err("invalid FaultRates.hang_rate: must be a probability in [0, 1] (got 1.5)")"#.into(),
                    unknown_net("hang"),
                ),
            ),
            (
                "1:drop=1.5",
                (
                    unknown_fault("drop"),
                    r#"Err("invalid NetFaultRates.drop: must be a probability in [0, 1] (got 1.5)")"#.into(),
                ),
            ),
            (
                "1:lie=-0.1",
                (
                    unknown_fault("lie"),
                    r#"Err("invalid NetFaultRates.lie: must be a probability in [0, 1] (got -0.1)")"#.into(),
                ),
            ),
            (
                "1:outlier=nan",
                (
                    r#"Err("invalid FaultRates.outlier_rate: must be a probability in [0, 1] (got NaN)")"#.into(),
                    unknown_net("outlier"),
                ),
            ),
            (
                "1:noise=inf",
                (
                    r#"Err("invalid FaultRates.noise_sigma: must be finite and non-negative (got inf)")"#.into(),
                    unknown_net("noise"),
                ),
            ),
            (
                "1:spike=-1",
                (
                    r#"Err("invalid FaultRates.outlier_volts: must be finite and non-negative (got -1)")"#.into(),
                    unknown_net("spike"),
                ),
            ),
            (
                "1:hang=2,noise=-1",
                (
                    r#"Err("invalid FaultRates.hang_rate: must be a probability in [0, 1] (got 2)")"#.into(),
                    unknown_net("hang"),
                ),
            ),
            ("1:", (r#"Ok(("1:", false))"#.into(), r#"Ok(("1:", false))"#.into())),
            (
                " 3 : drop = 0.5 , , lie=0.25",
                (unknown_fault("drop"), r#"Ok(("3:drop=0.5,lie=0.25", true))"#.into()),
            ),
            (
                "5:drop=0.1,drop=0.2",
                (unknown_fault("drop"), r#"Ok(("5:drop=0.2", true))"#.into()),
            ),
            (
                "9:lie=0.01,stall=0.005,corrupt=0.01,dup=0.01,drop=0.02",
                (
                    unknown_fault("lie"),
                    r#"Ok(("9:drop=0.02,dup=0.01,corrupt=0.01,stall=0.005,lie=0.01", true))"#.into(),
                ),
            ),
            ("1:spike=0.5", (r#"Ok(("1:", false))"#.into(), unknown_net("spike"))),
            (
                "5:outlier=0.1,spike=0",
                (r#"Ok(("5:outlier=0.1,spike=0", true))"#.into(), unknown_net("outlier")),
            ),
            (
                "8:outlier=0.2",
                (r#"Ok(("8:outlier=0.2,spike=0.05", true))"#.into(), unknown_net("outlier")),
            ),
            (
                "123:crash=0.5,spike=0.02,outlier=0.05,noise=0.001,hang=0.25",
                (
                    r#"Ok(("123:noise=0.001,outlier=0.05,spike=0.02,hang=0.25,crash=0.5", true))"#.into(),
                    unknown_net("crash"),
                ),
            ),
        ];
        for (spec, (want_fault, want_net)) in cases {
            assert_eq!(
                verdict::<FaultRates>(spec),
                want_fault,
                "FaultPlan `{spec}`"
            );
            assert_eq!(
                verdict::<NetFaultRates>(spec),
                want_net,
                "NetFaultPlan `{spec}`"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "no-colon",
            "x:drop=0.1",
            "1:drop",
            "1:drop=abc",
            "1:warp=0.5",
            "1:drop=1.5",
            "1:lie=-0.1",
        ] {
            assert!(NetFaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
