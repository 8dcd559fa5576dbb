//! Property tests for the fleet's scheduling and cache-keying
//! invariants.
//!
//! The fair-share arbiter must be a pure function of registration
//! order, weights, and the runnable predicate (determinism), must
//! bound every continuously-runnable campaign's wait between grants by
//! twice the weight sum (permutation fairness — no weight vector or
//! blocked-tenant pattern can starve anyone), and the eval-cache key
//! must separate any two contexts that differ in any field (no tenant
//! can ever be served another tenant's numbers, even under fingerprint
//! collisions — keying is by full encoding, never by hash).

use proptest::prelude::*;

use audit_core::ga::{CostFunction, ObjectiveSet};
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec};
use audit_net::{EvalContext, FairShare};

/// Builds an arbiter over `weights`, ids `0..n`.
fn arbiter(weights: &[u32]) -> FairShare {
    let mut fs = FairShare::new();
    for (id, &w) in weights.iter().enumerate() {
        fs.register(id as u64, w);
    }
    fs
}

/// Replays `script` (one runnable-mask per call) and records the grant
/// sequence.
fn replay(weights: &[u32], script: &[Vec<bool>]) -> Vec<Option<u64>> {
    let mut fs = arbiter(weights);
    script
        .iter()
        .map(|mask| fs.next(|id| mask.get(id as usize).copied().unwrap_or(false)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same weights, same runnable script → the same grant sequence,
    /// always. Scheduling carries no hidden state, randomness, or
    /// timing dependence.
    #[test]
    fn schedule_is_deterministic(
        weights in prop::collection::vec(1u32..9, 1..7),
        steps in 1usize..=64,
        mask_seed in any::<u64>(),
    ) {
        let n = weights.len();
        // A cheap deterministic PRNG for the runnable script, so the
        // script itself shrinks well.
        let mut state = mask_seed | 1;
        let script: Vec<Vec<bool>> = (0..steps)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (state >> 33) & 1 == 1
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(replay(&weights, &script), replay(&weights, &script));
    }

    /// With every campaign continuously runnable, grant counts over
    /// whole cycles are exactly proportional to the weights.
    #[test]
    fn grants_are_weight_proportional(
        weights in prop::collection::vec(1u32..9, 1..7),
        cycles in 1usize..=4,
    ) {
        let total: u32 = weights.iter().sum();
        let mut fs = arbiter(&weights);
        let mut counts = vec![0u32; weights.len()];
        for _ in 0..(total as usize * cycles) {
            let id = fs.next(|_| true).expect("all runnable");
            counts[id as usize] += 1;
        }
        for (i, (&got, &w)) in counts.iter().zip(weights.iter()).enumerate() {
            prop_assert_eq!(got, w * cycles as u32, "campaign {} off-ratio: {:?}", i, counts);
        }
    }

    /// Permutation fairness: however the weights are chosen, a
    /// continuously-runnable campaign never waits more than two weight
    /// sums between grants — even while every other campaign blinks
    /// runnable/blocked arbitrarily.
    #[test]
    fn wait_between_grants_is_bounded(
        weights in prop::collection::vec(1u32..9, 1..7),
        victim_seed in any::<u64>(),
        mask_seed in any::<u64>(),
    ) {
        let n = weights.len();
        let victim = (victim_seed % n as u64) as usize;
        let total: u32 = weights.iter().sum();
        let bound = 2 * total as usize;
        let mut fs = arbiter(&weights);
        let mut state = mask_seed | 1;
        let mut since_grant = 0usize;
        for _ in 0..(bound * 4) {
            let mask: Vec<bool> = (0..n)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // The victim is always runnable; everyone else blinks.
                    i == victim || (state >> 33) & 1 == 1
                })
                .collect();
            let id = fs.next(|id| mask[id as usize]).expect("victim is runnable");
            if id as usize == victim {
                since_grant = 0;
            } else {
                since_grant += 1;
                prop_assert!(
                    since_grant < bound,
                    "campaign {} starved for {} grants (weights {:?})",
                    victim, since_grant, &weights
                );
            }
        }
    }

    /// Cache-key separation: two evaluation contexts differing in any
    /// field — chip, operating point, throttle, cascade budget, or the
    /// fitness function's objective set — never share a wire encoding,
    /// which is the (only) cache key workers and the pool intern by.
    #[test]
    fn distinct_contexts_never_share_a_cache_key(
        chip_a in 0usize..2, chip_b in 0usize..2,
        volts_a in 0usize..3, volts_b in 0usize..3,
        throttle_a in 0usize..3, throttle_b in 0usize..3,
        budget_a in 0usize..3, budget_b in 0usize..3,
        objectives_a in 0usize..3, objectives_b in 0usize..3,
    ) {
        let chips = ["bulldozer", "phenom"];
        let volts = [None, Some(1.2), Some(1.35)];
        let throttles = [None, Some(2u32), Some(4u32)];
        let objective_sets = ["droop", "droop,power", "droop,power,margin"];
        let build = |chip: usize, v: usize, t: usize, budget: usize, objs: usize| EvalContext {
            chip: chips[chip].into(),
            volts: volts[v],
            throttle: throttles[t],
            spec: FitnessSpec {
                threads: 1,
                sub_blocks: 2,
                lp_slots: 2,
                cost: CostFunction::MaxDroop,
                spec: MeasureSpec::ga_eval(),
                policy: MeasurePolicy::disabled(),
                objectives: ObjectiveSet::parse(objective_sets[objs]).unwrap(),
            },
            fast_tier_budget: budget,
        };
        let a = build(chip_a, volts_a, throttle_a, budget_a, objectives_a);
        let b = build(chip_b, volts_b, throttle_b, budget_b, objectives_b);
        let same_inputs = (chip_a, volts_a, throttle_a, budget_a, objectives_a)
            == (chip_b, volts_b, throttle_b, budget_b, objectives_b);
        prop_assert_eq!(
            a.to_json().encode() == b.to_json().encode(),
            same_inputs,
            "cache-key encoding collided (or split) across contexts"
        );
    }
}
