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
//!   vector; only cross-validation (`BrokerConfig::verify_fraction`)
//!   can catch this, by majority vote and eviction.
//!
//! A plan with all rates zero is a guaranteed no-op: the broker's wire
//! bytes and journal bytes are untouched.

use audit_error::{AuditError, AuditResult};
use audit_measure::fault::{mix, uniform};

/// Per-class network fault probabilities. All rates are probabilities
/// in `[0, 1]`, drawn independently per frame.
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

impl NetFaultRates {
    /// All-zero rates: injection disabled.
    pub fn none() -> Self {
        NetFaultRates::default()
    }

    /// True when every rate is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0
            && self.dup == 0.0
            && self.corrupt == 0.0
            && self.stall == 0.0
            && self.lie == 0.0
    }

    fn validate(&self) -> AuditResult<()> {
        let probs = [
            ("drop", self.drop),
            ("dup", self.dup),
            ("corrupt", self.corrupt),
            ("stall", self.stall),
            ("lie", self.lie),
        ];
        for (field, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(AuditError::invalid(
                    "NetFaultRates",
                    field,
                    format!("must be a probability in [0, 1] (got {p})"),
                ));
            }
        }
        Ok(())
    }
}

/// Which way a frame is travelling; a class-level discriminator so the
/// outbound and inbound draws for one `(key, attempt)` are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
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
pub enum FrameFate {
    /// The frame arrives intact, exactly once.
    Deliver,
    /// The frame is lost.
    Drop,
    /// The frame arrives with a flipped payload bit (CRC32 failure).
    Corrupt,
    /// The frame arrives twice.
    Duplicate,
}

/// A seeded network fault schedule: the seed plus per-class rates.
///
/// Parsed from the CLI spec `SEED:drop=0.02,dup=0.01,corrupt=0.01,`
/// `stall=0.005,lie=0.01` exactly like
/// [`audit_measure::fault::FaultPlan`]. The plan holds no mutable
/// state; every query is a pure function of its arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    rates: NetFaultRates,
}

impl NetFaultPlan {
    /// A plan that injects nothing. [`NetFaultPlan::is_enabled`] is
    /// false and every frame fate is [`FrameFate::Deliver`].
    pub fn disabled() -> Self {
        NetFaultPlan {
            seed: 0,
            rates: NetFaultRates::none(),
        }
    }

    /// Builds a plan after validating the rates.
    pub fn new(seed: u64, rates: NetFaultRates) -> AuditResult<Self> {
        rates.validate()?;
        Ok(NetFaultPlan { seed, rates })
    }

    /// True when at least one fault class can fire.
    pub fn is_enabled(&self) -> bool {
        !self.rates.is_zero()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn rates(&self) -> &NetFaultRates {
        &self.rates
    }

    /// Parses the CLI spec `SEED:KEY=VALUE[,KEY=VALUE...]`.
    ///
    /// Keys: `drop`, `dup`, `corrupt`, `stall`, `lie` — all per-frame
    /// probabilities. Example:
    ///
    /// ```
    /// use audit_net::chaos::NetFaultPlan;
    /// let plan = NetFaultPlan::parse("7:drop=0.02,lie=0.01").unwrap();
    /// assert!(plan.is_enabled());
    /// assert_eq!(plan.seed(), 7);
    /// assert_eq!(plan.rates().lie, 0.01);
    /// ```
    pub fn parse(spec: &str) -> AuditResult<Self> {
        let bad = |msg: String| AuditError::invalid("NetFaultPlan", "spec", msg);
        let (seed_str, rates_str) = spec
            .split_once(':')
            .ok_or_else(|| bad(format!("expected `SEED:KEY=VALUE,...` (got `{spec}`)")))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| bad(format!("seed must be a u64 (got `{seed_str}`)")))?;
        let mut rates = NetFaultRates::none();
        for part in rates_str.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("expected `KEY=VALUE` (got `{part}`)")))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("`{key}` value must be a number (got `{value}`)")))?;
            match key.trim() {
                "drop" => rates.drop = value,
                "dup" => rates.dup = value,
                "corrupt" => rates.corrupt = value,
                "stall" => rates.stall = value,
                "lie" => rates.lie = value,
                other => {
                    return Err(bad(format!(
                        "unknown net fault key `{other}` (expected drop/dup/corrupt/stall/lie)"
                    )))
                }
            }
        }
        NetFaultPlan::new(seed, rates)
    }

    /// Renders the plan back into the `SEED:KEY=VALUE,...` spec form
    /// accepted by [`NetFaultPlan::parse`].
    pub fn spec_string(&self) -> String {
        let r = &self.rates;
        let mut parts = Vec::new();
        if r.drop > 0.0 {
            parts.push(format!("drop={}", r.drop));
        }
        if r.dup > 0.0 {
            parts.push(format!("dup={}", r.dup));
        }
        if r.corrupt > 0.0 {
            parts.push(format!("corrupt={}", r.corrupt));
        }
        if r.stall > 0.0 {
            parts.push(format!("stall={}", r.stall));
        }
        if r.lie > 0.0 {
            parts.push(format!("lie={}", r.lie));
        }
        format!("{}:{}", self.seed, parts.join(","))
    }

    /// The per-frame base word: one well-mixed word per
    /// `(seed, direction, frame_key, attempt, copy)` tuple. `copy`
    /// distinguishes the primary dispatch from cross-validation and
    /// duplicate copies of the same `(key, attempt)`.
    fn base(&self, dir: Direction, frame_key: u64, attempt: u32, copy: u32) -> u64 {
        let word = attempt as u64 | ((copy as u64) << 32);
        mix(mix(mix(self.seed, dir.stream()), frame_key), word)
    }

    /// The wire-level fate of one frame. Pure: the same arguments
    /// always return the same fate. [`FrameFate::Deliver`] whenever the
    /// plan is disabled.
    pub(crate) fn frame_fate(
        &self,
        dir: Direction,
        frame_key: u64,
        attempt: u32,
        copy: u32,
    ) -> FrameFate {
        if !self.is_enabled() {
            return FrameFate::Deliver;
        }
        let base = self.base(dir, frame_key, attempt, copy);
        if uniform(mix(base, STREAM_DROP)) < self.rates.drop {
            return FrameFate::Drop;
        }
        if uniform(mix(base, STREAM_CORRUPT)) < self.rates.corrupt {
            return FrameFate::Corrupt;
        }
        if uniform(mix(base, STREAM_DUP)) < self.rates.dup {
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }

    /// The deterministic bit index the "network" flips when
    /// [`FrameFate::Corrupt`] fires on an outbound frame (the writer
    /// reduces it modulo the payload length in bits).
    pub(crate) fn corrupt_bit(
        &self,
        dir: Direction,
        frame_key: u64,
        attempt: u32,
        copy: u32,
    ) -> u64 {
        mix(self.base(dir, frame_key, attempt, copy), STREAM_CORRUPT_BIT)
    }

    /// True when the worker holding this job stalls instead of
    /// answering (inbound only — a stall is a missing `result`).
    pub fn stalls(&self, frame_key: u64, attempt: u32, copy: u32) -> bool {
        self.rates.stall > 0.0
            && uniform(mix(
                self.base(Direction::Inbound, frame_key, attempt, copy),
                STREAM_STALL,
            )) < self.rates.stall
    }

    /// Nonzero XOR mask for a byzantine result, or zero when this
    /// result is honest. The broker XORs the mask into the bit pattern
    /// of the first objective — a small, plausible-looking perturbation
    /// that survives round-trips and is detectable only by
    /// cross-validation. Keyed per copy, so two copies of a verified
    /// job practically never lie identically.
    pub(crate) fn lie_mask(&self, frame_key: u64, attempt: u32, copy: u32) -> u64 {
        if self.rates.lie == 0.0 {
            return 0;
        }
        let base = self.base(Direction::Inbound, frame_key, attempt, copy);
        if uniform(mix(base, STREAM_LIE)) < self.rates.lie {
            // Low-order mantissa bits only: the lie stays plausible
            // (tiny relative error), and `| 1` guarantees nonzero.
            (mix(base, STREAM_LIE_BITS) & 0xFFFF) | 1
        } else {
            0
        }
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
                    assert_eq!(plan.frame_fate(dir, key, attempt, 0), FrameFate::Deliver);
                }
                assert!(!plan.stalls(key, attempt, 0));
                assert_eq!(plan.lie_mask(key, attempt, 0), 0);
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
                            plan.frame_fate(dir, key, attempt, copy),
                            plan.frame_fate(dir, key, attempt, copy)
                        );
                    }
                    assert_eq!(
                        plan.stalls(key, attempt, copy),
                        plan.stalls(key, attempt, copy)
                    );
                    assert_eq!(
                        plan.lie_mask(key, attempt, copy),
                        plan.lie_mask(key, attempt, copy)
                    );
                }
            }
        }
    }

    #[test]
    fn directions_and_copies_draw_independent_schedules() {
        let plan = chaotic_plan();
        let fates = |dir: Direction, copy: u32| -> Vec<FrameFate> {
            (0..64).map(|k| plan.frame_fate(dir, k, 0, copy)).collect()
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
                ..NetFaultRates::none()
            },
        )
        .unwrap();
        let drops: Vec<bool> = (0..64)
            .map(|a| plan.frame_fate(Direction::Outbound, 7, a, 0) == FrameFate::Drop)
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
        let mut stalls = 0usize;
        let mut lies = 0usize;
        for k in 0..n {
            match plan.frame_fate(Direction::Inbound, k, 0, 0) {
                FrameFate::Deliver => counts[0] += 1,
                FrameFate::Drop => counts[1] += 1,
                FrameFate::Corrupt => counts[2] += 1,
                FrameFate::Duplicate => counts[3] += 1,
            }
            if plan.stalls(k, 0, 0) {
                stalls += 1;
            }
            if plan.lie_mask(k, 0, 0) != 0 {
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
        assert!((rate(stalls) - 0.05).abs() < 0.02, "stall {}", rate(stalls));
        assert!((rate(lies) - 0.05).abs() < 0.02, "lie {}", rate(lies));
    }

    #[test]
    fn lie_mask_is_nonzero_and_small_when_it_fires() {
        let plan = NetFaultPlan::new(
            5,
            NetFaultRates {
                lie: 1.0,
                ..NetFaultRates::none()
            },
        )
        .unwrap();
        for k in 0..256u64 {
            let mask = plan.lie_mask(k, 0, 0);
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
