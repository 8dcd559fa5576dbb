//! Deterministic fault injection for the measurement stack.
//!
//! The paper's closed loop runs on real silicon where scope captures are
//! noisy, workloads hang, and the voltage-at-failure methodology
//! (§5.A.4) deliberately crashes the machine. The simulator is perfect,
//! so this module injects those imperfections *on purpose*, as a seeded,
//! reproducible test input — the chaos-testing tradition of treating a
//! fault schedule as part of the experiment configuration rather than an
//! act of nature.
//!
//! Everything here is a pure function of `(plan seed, evaluation key,
//! attempt index)`. There is no shared RNG state: two workers evaluating
//! the same candidate draw identical faults, and a killed-and-resumed
//! run replays the exact fault schedule it would have seen uninterrupted.
//! That property is what makes the resilience layer in
//! `audit_core::resilient` testable bit-for-bit.
//!
//! Fault taxonomy (see `docs/ROBUSTNESS.md`):
//!
//! * **Gaussian scope noise** — every voltage sample observed by the
//!   oscilloscope is perturbed by `N(0, noise_sigma²)`. The physics is
//!   untouched; only the *observation* is noisy.
//! * **Outlier spikes** — with probability `outlier_rate` per sample, a
//!   transient downward spike of `outlier_volts` is added on top of the
//!   Gaussian noise (a probe glitch).
//! * **Hangs** — with probability `hang_rate` per harness run, the
//!   co-simulation never completes; the harness reports it as
//!   cycle-budget exhaustion (`AuditError::Timeout`).
//! * **Machine crashes** — with probability `crash_rate` per harness run,
//!   a run executed with `check_failure` enabled kills the simulated
//!   machine mid-capture (`AuditError::InjectedFault`), the case the
//!   crash-tolerant Vmin search exists to survive.
//!
//! A [`FaultPlan`] with all rates zero is a guaranteed no-op: the
//! injector hands back every sample bit-identically and never trips.

use audit_error::{AuditError, AuditResult};

use Bound::{Magnitude, Probability, SizeOf};

/// Per-fault-class probabilities and magnitudes. All rates are
/// probabilities in `[0, 1]`; magnitudes are volts.
///
/// Spec keys ([`Plan::parse`]): `noise` (Gaussian σ, volts), `outlier`
/// (rate), `spike` (outlier magnitude, volts; defaults to 0.05 when
/// `outlier` is set), `hang` (rate), `crash` (rate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Standard deviation of Gaussian noise added to every scope sample,
    /// in volts. `0.0` disables sample noise.
    pub noise_sigma: f64,
    /// Per-sample probability of a transient outlier spike.
    pub outlier_rate: f64,
    /// Magnitude of an outlier spike, in volts (subtracted from the
    /// sample — a glitch reads as a phantom droop).
    pub outlier_volts: f64,
    /// Per-run probability that the evaluation hangs (reported as
    /// cycle-budget exhaustion).
    pub hang_rate: f64,
    /// Per-run probability that a `check_failure` run crashes the
    /// simulated machine mid-capture.
    pub crash_rate: f64,
}

impl Rates for FaultRates {
    const PLAN: &'static str = "FaultPlan";
    const NAME: &'static str = "FaultRates";
    const NOUN: &'static str = "fault";
    const KEYS: &'static [SpecKey<Self>] = &[
        SpecKey::new("noise", "noise_sigma", Magnitude, |r| &mut r.noise_sigma),
        SpecKey::new("outlier", "outlier_rate", Probability, |r| {
            &mut r.outlier_rate
        }),
        SpecKey::new("spike", "outlier_volts", SPIKE, |r| &mut r.outlier_volts),
        SpecKey::new("hang", "hang_rate", Probability, |r| &mut r.hang_rate),
        SpecKey::new("crash", "crash_rate", Probability, |r| &mut r.crash_rate),
    ];
}

/// A spike is the size of an outlier: written with `outlier`, 0.05 V
/// when only `outlier` is given.
const SPIKE: Bound = SizeOf {
    of: "outlier",
    default: 0.05,
};

/// A seeded measurement fault schedule. Call [`FaultPlan::injector`]
/// with an evaluation key and attempt index to get the concrete fault
/// decisions for one harness run.
///
/// ```
/// use audit_measure::fault::FaultPlan;
/// let plan = FaultPlan::parse("7:noise=0.002,hang=0.1").unwrap();
/// assert!(plan.is_enabled());
/// assert_eq!(plan.seed(), 7);
/// assert_eq!(plan.rates().hang_rate, 0.1);
/// ```
pub type FaultPlan = Plan<FaultRates>;

/// How a plan spec checks one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A probability in `[0, 1]`; nonzero enables the plan.
    Probability,
    /// A finite, non-negative magnitude; nonzero enables the plan.
    Magnitude,
    /// A finite, non-negative magnitude of the event the key `of`
    /// draws: written whenever `of` is, `default` when `of` is set
    /// and this key is not, and on its own it enables nothing.
    SizeOf {
        /// The key whose event this value sizes.
        of: &'static str,
        /// The value when `of` is set and this key is not.
        default: f64,
    },
}

/// One `KEY=VALUE` of a plan spec: the key, the rates field it sets,
/// and how the value is checked.
pub struct SpecKey<R> {
    key: &'static str,
    field: &'static str,
    bound: Bound,
    rate: fn(&mut R) -> &mut f64,
}

impl<R: Copy> SpecKey<R> {
    /// The row for `key`, which sets the rates field named `field`.
    pub const fn new(
        key: &'static str,
        field: &'static str,
        bound: Bound,
        rate: fn(&mut R) -> &mut f64,
    ) -> Self {
        SpecKey {
            key,
            field,
            bound,
            rate,
        }
    }

    fn get(&self, rates: &R) -> f64 {
        let mut rates = *rates;
        *(self.rate)(&mut rates)
    }
}

/// The per-class rates of a [`Plan`], described by their spec keys.
pub trait Rates: Copy + Default + 'static {
    /// The plan type that spec errors name.
    const PLAN: &'static str;
    /// The rates type that range errors name.
    const NAME: &'static str;
    /// What an unknown key is called in its error.
    const NOUN: &'static str;
    /// Every key, in the order a spec string writes them.
    const KEYS: &'static [SpecKey<Self>];
}

/// A seeded fault schedule: the seed plus the per-class rates, read
/// from and written as `SEED:KEY=VALUE[,KEY=VALUE...]`.
///
/// The plan itself holds no mutable state; every decision drawn from it
/// is a pure function of its seed and the caller's keys.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Plan<R> {
    seed: u64,
    rates: R,
}

impl<R: Rates> Plan<R> {
    /// A plan that injects nothing. [`Plan::is_enabled`] is false.
    pub fn disabled() -> Self {
        Plan::default()
    }

    /// Builds a plan after validating the rates: probabilities first,
    /// then magnitudes, each in key order.
    pub fn new(seed: u64, rates: R) -> AuditResult<Self> {
        let probability = |k: &&SpecKey<R>| k.bound == Probability;
        for k in R::KEYS.iter().filter(probability) {
            let p = k.get(&rates);
            if !(0.0..=1.0).contains(&p) {
                return Err(AuditError::invalid(
                    R::NAME,
                    k.field,
                    format!("must be a probability in [0, 1] (got {p})"),
                ));
            }
        }
        for k in R::KEYS.iter().filter(|k| !probability(k)) {
            let x = k.get(&rates);
            if !x.is_finite() || x < 0.0 {
                return Err(AuditError::invalid(
                    R::NAME,
                    k.field,
                    format!("must be finite and non-negative (got {x})"),
                ));
            }
        }
        Ok(Plan { seed, rates })
    }

    /// True when at least one fault class can fire.
    pub fn is_enabled(&self) -> bool {
        R::KEYS
            .iter()
            .any(|k| !matches!(k.bound, SizeOf { .. }) && k.get(&self.rates) != 0.0)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn rates(&self) -> &R {
        &self.rates
    }

    /// Parses the CLI spec `SEED:KEY=VALUE[,KEY=VALUE...]`, with the
    /// keys of `R` (see [`FaultRates`] and `audit_net`'s
    /// `NetFaultRates`). A repeated key keeps its last value.
    pub fn parse(spec: &str) -> AuditResult<Self> {
        let bad = |msg: String| AuditError::invalid(R::PLAN, "spec", msg);
        let (seed_str, rates_str) = spec
            .split_once(':')
            .ok_or_else(|| bad(format!("expected `SEED:KEY=VALUE,...` (got `{spec}`)")))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| bad(format!("seed must be a u64 (got `{seed_str}`)")))?;
        let mut rates = R::default();
        let mut given = vec![false; R::KEYS.len()];
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
            let Some(i) = R::KEYS.iter().position(|k| k.key == key.trim()) else {
                let keys: Vec<&str> = R::KEYS.iter().map(|k| k.key).collect();
                return Err(bad(format!(
                    "unknown {} key `{}` (expected {})",
                    R::NOUN,
                    key.trim(),
                    keys.join("/")
                )));
            };
            *(R::KEYS[i].rate)(&mut rates) = value;
            given[i] = true;
        }
        for (k, given) in R::KEYS.iter().zip(given) {
            if let SizeOf { of, default } = k.bound {
                if !given && Self::value(&rates, of) > 0.0 {
                    *(k.rate)(&mut rates) = default;
                }
            }
        }
        Plan::new(seed, rates)
    }

    /// Renders the plan back into the `SEED:KEY=VALUE,...` spec form
    /// accepted by [`Plan::parse`] (used to record the plan in a
    /// journal's `run_start` meta so `--resume` restores it): every
    /// nonzero key, and a size whenever the key it sizes is written.
    pub fn spec_string(&self) -> String {
        let parts: Vec<String> = R::KEYS
            .iter()
            .filter(|k| match k.bound {
                SizeOf { of, .. } => Self::value(&self.rates, of) > 0.0,
                _ => k.get(&self.rates) > 0.0,
            })
            .map(|k| format!("{}={}", k.key, k.get(&self.rates)))
            .collect();
        format!("{}:{}", self.seed, parts.join(","))
    }

    /// The value of the rate that `key` sets.
    fn value(rates: &R, key: &str) -> f64 {
        R::KEYS
            .iter()
            .find(|k| k.key == key)
            .map_or(0.0, |k| k.get(rates))
    }
}

impl FaultPlan {
    /// The concrete fault decisions for one harness run, identified by
    /// `(key, attempt)`. Pure: the same arguments always produce the
    /// same injector, regardless of thread or call order.
    pub fn injector(&self, key: u64, attempt: u32) -> FaultInjector {
        if !self.is_enabled() {
            return FaultInjector::noop();
        }
        let base = mix(mix(self.seed, key), attempt as u64);
        let hang = uniform(mix(base, STREAM_HANG)) < self.rates.hang_rate;
        let crash = uniform(mix(base, STREAM_CRASH)) < self.rates.crash_rate;
        let noise = if self.rates.noise_sigma > 0.0 || self.rates.outlier_rate > 0.0 {
            Some(NoiseStream::new(mix(base, STREAM_NOISE), self.rates))
        } else {
            None
        };
        FaultInjector { hang, crash, noise }
    }
}

/// The resolved fault decisions for a single harness run.
///
/// `hangs`/`crashes` are fixed at construction; `perturb` advances the
/// run's private noise stream. A no-op injector (from a disabled plan)
/// returns every sample bit-identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    hang: bool,
    crash: bool,
    noise: Option<NoiseStream>,
}

impl FaultInjector {
    /// An injector that never fires; `perturb` is the identity.
    pub fn noop() -> Self {
        FaultInjector {
            hang: false,
            crash: false,
            noise: None,
        }
    }

    /// True when this run was scheduled to hang.
    pub fn hangs(&self) -> bool {
        self.hang
    }

    /// True when this run was scheduled to crash the machine (only
    /// honoured by `check_failure` runs — a crash needs a failure path).
    pub fn crashes(&self) -> bool {
        self.crash
    }

    /// True when no fault class can fire for this run.
    pub fn is_noop(&self) -> bool {
        !self.hang && !self.crash && self.noise.is_none()
    }

    /// Perturbs one observed voltage sample. Identity when the plan has
    /// no sample-level faults.
    pub fn perturb(&mut self, v: f64) -> f64 {
        match &mut self.noise {
            Some(stream) => stream.perturb(v),
            None => v,
        }
    }

    /// The run's noise stream, when sample-level faults are active —
    /// lets the harness thread the stream into its capture loop.
    pub fn noise_mut(&mut self) -> Option<&mut NoiseStream> {
        self.noise.as_mut()
    }
}

/// A deterministic Gaussian noise stream with outlier spikes, seeded
/// per-run. SplitMix64 underneath, Box–Muller on top.
#[derive(Debug, Clone)]
pub struct NoiseStream {
    state: u64,
    sigma: f64,
    outlier_rate: f64,
    outlier_volts: f64,
    spare: Option<f64>,
}

impl NoiseStream {
    /// A stream seeded directly; most callers go through
    /// [`FaultPlan::injector`] instead.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        NoiseStream {
            state: seed,
            sigma: rates.noise_sigma,
            outlier_rate: rates.outlier_rate,
            outlier_volts: rates.outlier_volts,
            spare: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.state)
    }

    /// A uniform draw in `[0, 1)`.
    fn next_uniform(&mut self) -> f64 {
        uniform(self.next_u64())
    }

    /// A standard-normal draw (Box–Muller; caches the second deviate).
    fn next_gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Uniforms in (0, 1]: flip so ln() never sees zero.
        let u1 = 1.0 - self.next_uniform();
        let u2 = self.next_uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Applies noise and (possibly) an outlier spike to one sample.
    pub fn perturb(&mut self, v: f64) -> f64 {
        let mut out = v;
        if self.sigma > 0.0 {
            out += self.sigma * self.next_gaussian();
        }
        if self.outlier_rate > 0.0 && self.next_uniform() < self.outlier_rate {
            out -= self.outlier_volts;
        }
        out
    }
}

// Per-class stream discriminators, mixed into the per-run base seed so
// the hang decision, crash decision, and noise stream are independent.
const STREAM_HANG: u64 = 0x48414E47; // "HANG"
const STREAM_CRASH: u64 = 0x43524153; // "CRAS"
const STREAM_NOISE: u64 = 0x4E4F4953; // "NOIS"

/// SplitMix64 finalizer — the same mixer the GA uses for per-generation
/// RNG streams, so fault schedules inherit its avalanche behaviour.
/// Public so other deterministic fault layers (e.g. the network chaos
/// plan in `audit-net`) draw from the identical mixing discipline.
pub(crate) fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two words into one well-mixed word.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Converts random bits into a uniform draw in `[0, 1)`.
pub fn uniform(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// An incremental FNV-1a hasher for deriving stable evaluation keys
/// from candidate content (genomes, programs, probe voltages).
///
/// Not a cryptographic hash — just a stable, dependency-free way to
/// name an evaluation so its fault schedule survives resume and is
/// independent of worker scheduling.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        KeyHasher {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Folds raw bytes into the key.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a word into the key (little-endian bytes).
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.write_bytes(&word.to_le_bytes())
    }

    /// The final key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan::new(
            42,
            FaultRates {
                noise_sigma: 0.002,
                outlier_rate: 0.01,
                outlier_volts: 0.05,
                hang_rate: 0.3,
                crash_rate: 0.2,
            },
        )
        .unwrap()
    }

    #[test]
    fn disabled_plan_is_a_noop() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        let mut inj = plan.injector(123, 0);
        assert!(inj.is_noop());
        assert!(!inj.hangs());
        assert!(!inj.crashes());
        for v in [1.25, 0.0, -0.3, f64::MIN_POSITIVE] {
            assert_eq!(inj.perturb(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn injector_is_a_pure_function_of_key_and_attempt() {
        let plan = noisy_plan();
        for key in [0u64, 1, 0xDEAD_BEEF] {
            for attempt in 0..4 {
                let mut a = plan.injector(key, attempt);
                let mut b = plan.injector(key, attempt);
                assert_eq!(a.hangs(), b.hangs());
                assert_eq!(a.crashes(), b.crashes());
                for i in 0..64 {
                    let v = 1.2 - i as f64 * 1e-3;
                    assert_eq!(a.perturb(v).to_bits(), b.perturb(v).to_bits());
                }
            }
        }
    }

    #[test]
    fn attempts_draw_different_schedules() {
        // With hang_rate 0.5 the chance that 32 attempts all agree is
        // 2^-31 per direction; any disagreement proves the attempt
        // index feeds the schedule (hangs can clear on retry).
        let plan = FaultPlan::new(
            9,
            FaultRates {
                hang_rate: 0.5,
                ..FaultRates::default()
            },
        )
        .unwrap();
        let hangs: Vec<bool> = (0..32).map(|a| plan.injector(7, a).hangs()).collect();
        assert!(hangs.iter().any(|&h| h));
        assert!(hangs.iter().any(|&h| !h));
    }

    #[test]
    fn hang_rate_one_always_hangs() {
        let plan = FaultPlan::new(
            5,
            FaultRates {
                hang_rate: 1.0,
                ..FaultRates::default()
            },
        )
        .unwrap();
        for key in 0..16u64 {
            for attempt in 0..8 {
                assert!(plan.injector(key, attempt).hangs());
            }
        }
    }

    #[test]
    fn gaussian_noise_is_roughly_centred() {
        let mut stream = NoiseStream::new(
            splitmix(1),
            FaultRates {
                noise_sigma: 1.0,
                ..FaultRates::default()
            },
        );
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| stream.perturb(0.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn outliers_fire_at_roughly_their_rate() {
        let mut stream = NoiseStream::new(
            splitmix(2),
            FaultRates {
                outlier_rate: 0.1,
                outlier_volts: 1.0,
                ..FaultRates::default()
            },
        );
        let n = 20_000;
        let spikes = (0..n).filter(|_| stream.perturb(0.0) < -0.5).count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "observed outlier rate {rate}");
    }

    #[test]
    fn parse_round_trips_through_spec_string() {
        for spec in [
            "7:noise=0.002,hang=0.1",
            "0:crash=1",
            "123:noise=0.001,outlier=0.05,spike=0.02,hang=0.25,crash=0.5",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let again = FaultPlan::parse(&plan.spec_string()).unwrap();
            assert_eq!(plan, again, "spec `{spec}`");
        }
    }

    #[test]
    fn parse_defaults_spike_magnitude() {
        let plan = FaultPlan::parse("1:outlier=0.01").unwrap();
        assert_eq!(plan.rates().outlier_volts, 0.05);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "no-colon",
            "x:noise=1e-3",
            "1:noise",
            "1:noise=abc",
            "1:warp=0.5",
            "1:hang=1.5",
            "1:noise=-0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn key_hasher_is_stable_and_content_sensitive() {
        let key = |words: &[u64]| {
            let mut h = KeyHasher::new();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        assert_eq!(key(&[1, 2, 3]), key(&[1, 2, 3]));
        assert_ne!(key(&[1, 2, 3]), key(&[1, 2, 4]));
        assert_ne!(key(&[1, 2]), key(&[2, 1]));
        // Pinned: the fault schedule of a journaled run must not shift
        // under refactors of the hasher.
        assert_eq!(key(&[]), 0xCBF2_9CE4_8422_2325);
    }
}
