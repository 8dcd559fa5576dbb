//! Multi-objective (Pareto) machinery for the GA engine.
//!
//! AUDIT's historical fitness is a single scalar (voltage droop), but
//! stress generation is inherently multi-objective: the deepest droop,
//! the highest mean power, and the thinnest failure-voltage margin are
//! different corners of the same search space. This module supplies the
//! vocabulary — a typed [`Objective`] axis, an [`Objectives`] score
//! vector, an [`ObjectiveSet`] selection — and the NSGA-II-style
//! non-dominated sort + crowding distance the engine uses when
//! [`super::GaConfig::pareto`] is on.
//!
//! # Determinism contract
//!
//! Every function here is a pure, order-stable function of its inputs:
//!
//! - [`non_dominated_sort`] assigns front ranks by dominance only;
//!   within a front, slot order is preserved.
//! - [`crowding_distance`] breaks objective-value ties by slot index
//!   when sorting along each axis, so equal vectors always produce the
//!   same distances.
//! - [`rank_population`] combines both into one comparison key per
//!   slot; [`PopulationRanking::better`] orders by rank (ascending),
//!   then crowding (descending), then slot index (ascending) — a total
//!   order with no unordered pairs left to scheduling luck.
//!
//! Consequently Pareto selection is bit-identical across thread
//! counts, dispatchers, and kill/resume, exactly like the scalar path
//! (see the engine [module docs](super::engine)).

use audit_error::AuditError;
use serde::{Deserialize, Serialize};

use super::genome::Gene;

/// One objective axis of the multi-objective search.
///
/// All axes are maximized, and all are pure functions of the existing
/// simulator outputs (see `docs/PARETO.md` for the exact formulas):
///
/// | axis | meaning | definition |
/// |---|---|---|
/// | `droop`  | supply-noise amplitude | the configured [`super::CostFunction`] of the measurement |
/// | `power`  | mean power draw | mean current × nominal voltage |
/// | `margin` | failure proximity | critical-voltage ceiling − minimum rail voltage seen |
///
/// The canonical axis order is `droop`, `power`, `margin` — selections
/// are always normalized to it, so CLI flag order and journal replay
/// cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Objective {
    /// Supply-noise amplitude under the configured cost function.
    Droop,
    /// Mean power draw (mean current × nominal voltage).
    Power,
    /// Proximity of the minimum rail voltage to the failure ceiling.
    Margin,
}

/// Every axis, in canonical order.
pub const ALL_OBJECTIVES: [Objective; 3] = [Objective::Droop, Objective::Power, Objective::Margin];

impl Objective {
    /// The canonical lowercase name (`droop` / `power` / `margin`).
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::Droop => "droop",
            Objective::Power => "power",
            Objective::Margin => "margin",
        }
    }

    /// Parses a canonical name.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] for anything but `droop`,
    /// `power`, or `margin`.
    pub fn parse(name: &str) -> Result<Self, AuditError> {
        match name {
            "droop" => Ok(Objective::Droop),
            "power" => Ok(Objective::Power),
            "margin" => Ok(Objective::Margin),
            other => Err(AuditError::invalid(
                "Objective",
                "name",
                format!("unknown objective `{other}` (droop | power | margin)"),
            )),
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The set of objective axes a run optimizes, in canonical order.
///
/// `Copy` on purpose: it rides inside `FitnessSpec`, which crosses the
/// wire to `audit-net` workers and must stay a plain value type. The
/// default is droop-only — the exact scalar search every pre-Pareto
/// caller ran, which is what keeps legacy journals byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectiveSet {
    /// Optimize the droop axis.
    pub droop: bool,
    /// Optimize the power axis.
    pub power: bool,
    /// Optimize the margin axis.
    pub margin: bool,
}

impl Default for ObjectiveSet {
    fn default() -> Self {
        ObjectiveSet {
            droop: true,
            power: false,
            margin: false,
        }
    }
}

impl ObjectiveSet {
    /// The droop-only legacy set (also the [`Default`]).
    pub fn scalar_droop() -> Self {
        ObjectiveSet::default()
    }

    /// Builds a set from individual axes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] when `axes` is empty.
    pub fn from_axes(axes: &[Objective]) -> Result<Self, AuditError> {
        if axes.is_empty() {
            return Err(AuditError::invalid(
                "ObjectiveSet",
                "axes",
                "at least one objective is required",
            ));
        }
        let mut set = ObjectiveSet {
            droop: false,
            power: false,
            margin: false,
        };
        for axis in axes {
            match axis {
                Objective::Droop => set.droop = true,
                Objective::Power => set.power = true,
                Objective::Margin => set.margin = true,
            }
        }
        Ok(set)
    }

    /// Parses a comma-separated spec (`droop,power`), deduplicating and
    /// normalizing to canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] for an empty spec or an
    /// unknown axis name.
    pub fn parse(spec: &str) -> Result<Self, AuditError> {
        let axes = spec
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Objective::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_axes(&axes)
    }

    /// The canonical comma-separated spec (inverse of
    /// [`ObjectiveSet::parse`]), always in canonical axis order.
    pub fn to_spec(self) -> String {
        self.iter()
            .map(Objective::as_str)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Selected axes in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Objective> {
        ALL_OBJECTIVES
            .into_iter()
            .filter(move |axis| self.contains(*axis))
    }

    /// Whether `axis` is selected.
    pub fn contains(self, axis: Objective) -> bool {
        match axis {
            Objective::Droop => self.droop,
            Objective::Power => self.power,
            Objective::Margin => self.margin,
        }
    }

    /// Number of selected axes.
    pub fn len(self) -> usize {
        usize::from(self.droop) + usize::from(self.power) + usize::from(self.margin)
    }

    /// True when no axis is selected (an invalid set — constructors
    /// refuse to build one, but `Deserialize` cannot).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// True for the single-axis sets, whose searches degenerate to the
    /// scalar GA path.
    pub fn is_scalar(self) -> bool {
        self.len() == 1
    }
}

/// One candidate's score vector, ordered like its [`ObjectiveSet`]'s
/// canonical axes. Every axis is maximized.
///
/// The scalar search is the 1-axis special case ([`Objectives::scalar`]);
/// [`Objectives::primary`] recovers the legacy scalar fitness (the first
/// axis), which is what `GaRun::best_fitness`, journaled generation
/// scores, and the wire protocol's `fitness` field carry in every mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objectives(pub Vec<f64>);

impl Objectives {
    /// Wraps a legacy scalar fitness as a 1-axis vector.
    pub fn scalar(fitness: f64) -> Self {
        Objectives(vec![fitness])
    }

    /// The sentinel for budget-deferred slots: loses every comparison,
    /// is never cached, and is recognized by [`Objectives::is_deferred`]
    /// regardless of the run's axis count.
    pub fn deferred() -> Self {
        Objectives(vec![f64::NEG_INFINITY])
    }

    /// The first axis — the legacy scalar fitness.
    pub fn primary(&self) -> f64 {
        self.0.first().copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// Axis count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for an axis-less vector (never produced by evaluation).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True for the budget-deferred sentinel (see the engine's
    /// `fast_tier_budget` docs).
    pub fn is_deferred(&self) -> bool {
        self.primary() == f64::NEG_INFINITY
    }

    /// Pareto dominance: at least as good on every axis and strictly
    /// better on at least one. Both vectors must have the same axis
    /// count; a deferred sentinel never dominates anything.
    pub fn dominates(&self, other: &Objectives) -> bool {
        if self.is_deferred() {
            return false;
        }
        if other.is_deferred() {
            return true;
        }
        debug_assert_eq!(
            self.len(),
            other.len(),
            "comparing mismatched objective vectors"
        );
        let mut strictly = false;
        for (a, b) in self.0.iter().zip(&other.0) {
            if a < b {
                return false;
            }
            if a > b {
                strictly = true;
            }
        }
        strictly
    }
}

impl From<f64> for Objectives {
    fn from(fitness: f64) -> Self {
        Objectives::scalar(fitness)
    }
}

/// One member of the final non-dominated front a Pareto run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontMember {
    /// The genome.
    pub genome: Vec<Gene>,
    /// Its objective vector, in canonical axis order.
    pub objectives: Objectives,
}

/// Non-dominated sort: assigns each slot its Pareto front rank (0 =
/// non-dominated). Deferred sentinels always land in the worst front,
/// after every real candidate.
///
/// O(n² · axes) pairwise dominance — population sizes here are tens,
/// not thousands. Rank assignment depends only on the dominance
/// relation, so permuting slots permutes the ranks identically.
pub fn non_dominated_sort(objs: &[Objectives]) -> Vec<usize> {
    let n = objs.len();
    // dominated_by[i] = how many candidates dominate i;
    // dominates[i] = the candidates i dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if objs[i].dominates(&objs[j]) {
                dominates[i].push(j);
                dominated_by[j] += 1;
            } else if objs[j].dominates(&objs[i]) {
                dominates[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut rank = vec![usize::MAX; n];
    let mut front: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut level = 0;
    while !front.is_empty() {
        let mut next = Vec::new();
        for &i in &front {
            rank[i] = level;
            for &j in &dominates[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        front = next;
        front.sort_unstable();
        level += 1;
    }
    rank
}

/// NSGA-II crowding distance within each front: the sum over axes of
/// the normalized gap between a slot's neighbors when the front is
/// sorted along that axis. Boundary slots get `f64::INFINITY` so the
/// extremes of every front survive selection pressure.
///
/// Sorting along an axis breaks value ties by slot index, which makes
/// the distances a pure function of (vectors, slots) — no unstable-sort
/// luck.
pub fn crowding_distance(objs: &[Objectives], rank: &[usize]) -> Vec<f64> {
    let n = objs.len();
    let mut crowding = vec![0.0f64; n];
    if n == 0 {
        return crowding;
    }
    let fronts = rank.iter().copied().max().unwrap_or(0);
    let axes = objs.iter().map(Objectives::len).max().unwrap_or(0);
    for level in 0..=fronts {
        let members: Vec<usize> = (0..n).filter(|&i| rank[i] == level).collect();
        if members.len() <= 2 {
            for &i in &members {
                crowding[i] = f64::INFINITY;
            }
            continue;
        }
        for axis in 0..axes {
            let value = |i: usize| objs[i].0.get(axis).copied().unwrap_or(f64::NEG_INFINITY);
            let mut order = members.clone();
            order.sort_by(|&a, &b| value(a).total_cmp(&value(b)).then(a.cmp(&b)));
            let lo = value(order[0]);
            let hi = value(order[order.len() - 1]);
            crowding[order[0]] = f64::INFINITY;
            crowding[order[order.len() - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 || !span.is_finite() {
                continue;
            }
            for w in 1..order.len() - 1 {
                let gap = (value(order[w + 1]) - value(order[w - 1])) / span;
                if crowding[order[w]].is_finite() {
                    crowding[order[w]] += gap;
                }
            }
        }
    }
    crowding
}

/// The combined Pareto ranking of one population: per-slot front rank
/// and crowding distance, plus the total-order comparisons selection
/// uses.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationRanking {
    /// Pareto front rank per slot (0 = non-dominated).
    pub rank: Vec<usize>,
    /// Crowding distance per slot (∞ at front boundaries).
    pub crowding: Vec<f64>,
}

impl PopulationRanking {
    /// Strictly better: lower rank, or same rank and strictly larger
    /// crowding. Full ties (rank and crowding both equal) are **not**
    /// better — the tournament keeps its incumbent, mirroring the
    /// scalar path's strict `>`.
    pub fn better(&self, a: usize, b: usize) -> bool {
        self.rank[a] < self.rank[b]
            || (self.rank[a] == self.rank[b]
                && self.crowding[a].total_cmp(&self.crowding[b]).is_gt())
    }

    /// Better-or-tied: the non-strict counterpart of
    /// [`PopulationRanking::better`], mirroring the scalar path's `>=`
    /// parent pick.
    pub fn better_or_equal(&self, a: usize, b: usize) -> bool {
        !self.better(b, a)
    }

    /// All slots ordered best-first: rank ascending, crowding
    /// descending, slot index ascending. A total order — the elitism
    /// analog of the scalar path's stable sort by descending score.
    pub fn selection_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rank.len()).collect();
        order.sort_by(|&a, &b| {
            self.rank[a]
                .cmp(&self.rank[b])
                .then(self.crowding[b].total_cmp(&self.crowding[a]))
                .then(a.cmp(&b))
        });
        order
    }
}

/// Ranks a whole population: [`non_dominated_sort`] +
/// [`crowding_distance`] in one call.
pub fn rank_population(objs: &[Objectives]) -> PopulationRanking {
    let rank = non_dominated_sort(objs);
    let crowding = crowding_distance(objs, &rank);
    PopulationRanking { rank, crowding }
}

/// Extracts the deduplicated rank-0 front of a population in slot
/// order — the [`FrontMember`] list a Pareto [`super::GaRun`] reports.
pub fn extract_front(
    population: &[Vec<Gene>],
    objs: &[Objectives],
    ranking: &PopulationRanking,
) -> Vec<FrontMember> {
    let mut seen: std::collections::HashSet<&[Gene]> = std::collections::HashSet::new();
    population
        .iter()
        .zip(objs)
        .zip(&ranking.rank)
        .filter(|((genome, objectives), &rank)| {
            rank == 0 && !objectives.is_deferred() && seen.insert(genome.as_slice())
        })
        .map(|((genome, objectives), _)| FrontMember {
            genome: genome.clone(),
            objectives: objectives.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(values: &[f64]) -> Objectives {
        Objectives(values.to_vec())
    }

    #[test]
    fn objective_names_round_trip() {
        for axis in ALL_OBJECTIVES {
            assert_eq!(Objective::parse(axis.as_str()).unwrap(), axis);
            assert_eq!(format!("{axis}"), axis.as_str());
        }
        assert!(Objective::parse("ipc").is_err());
    }

    #[test]
    fn objective_set_parses_in_any_order() {
        let a = ObjectiveSet::parse("margin,droop").unwrap();
        let b = ObjectiveSet::parse("droop, margin").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_spec(), "droop,margin");
        assert_eq!(a.len(), 2);
        assert!(!a.is_scalar());
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![Objective::Droop, Objective::Margin]
        );
        // Duplicates collapse; empty specs are rejected.
        assert_eq!(ObjectiveSet::parse("power,power").unwrap().len(), 1);
        assert!(ObjectiveSet::parse("").is_err());
        assert!(ObjectiveSet::parse("droop,watts").is_err());
    }

    #[test]
    fn default_set_is_the_legacy_scalar_droop() {
        let set = ObjectiveSet::default();
        assert!(set.is_scalar());
        assert_eq!(set.to_spec(), "droop");
        assert_eq!(set, ObjectiveSet::scalar_droop());
    }

    #[test]
    fn dominance_is_strict_pareto() {
        assert!(v(&[2.0, 2.0]).dominates(&v(&[1.0, 2.0])));
        assert!(!v(&[2.0, 1.0]).dominates(&v(&[1.0, 2.0])));
        assert!(!v(&[1.0, 2.0]).dominates(&v(&[2.0, 1.0])));
        assert!(!v(&[1.0, 1.0]).dominates(&v(&[1.0, 1.0])));
        // The deferred sentinel loses to everything, even across
        // mismatched axis counts.
        assert!(v(&[0.0, 0.0]).dominates(&Objectives::deferred()));
        assert!(!Objectives::deferred().dominates(&v(&[0.0, 0.0])));
        assert!(Objectives::deferred().is_deferred());
        assert!(!v(&[0.0]).is_deferred());
    }

    #[test]
    fn scalar_vector_primary_round_trips() {
        let s = Objectives::scalar(3.5);
        assert_eq!(s.primary(), 3.5);
        assert_eq!(s.len(), 1);
        assert_eq!(Objectives::from(3.5), s);
        // Scalar dominance is plain comparison.
        assert!(v(&[2.0]).dominates(&v(&[1.0])));
        assert!(!v(&[1.0]).dominates(&v(&[1.0])));
    }

    #[test]
    fn non_dominated_sort_layers_fronts() {
        // Slot 0 and 1 trade off (front 0); 2 is dominated by both
        // (front 1); 3 is dominated by 2 (front 2).
        let objs = [
            v(&[3.0, 1.0]),
            v(&[1.0, 3.0]),
            v(&[0.5, 0.5]),
            v(&[0.0, 0.0]),
        ];
        assert_eq!(non_dominated_sort(&objs), vec![0, 0, 1, 2]);
    }

    #[test]
    fn deferred_slots_rank_last() {
        let objs = [v(&[1.0, 1.0]), Objectives::deferred(), v(&[2.0, 0.5])];
        let rank = non_dominated_sort(&objs);
        assert_eq!(rank[0], 0);
        assert_eq!(rank[2], 0);
        assert!(rank[1] > 0, "deferred sentinel must not reach front 0");
    }

    #[test]
    fn crowding_rewards_boundaries_and_gaps() {
        let objs = [
            v(&[0.0, 3.0]),
            v(&[1.0, 2.0]),
            v(&[2.0, 1.0]),
            v(&[3.0, 0.0]),
        ];
        let rank = non_dominated_sort(&objs);
        assert!(rank.iter().all(|&r| r == 0));
        let crowd = crowding_distance(&objs, &rank);
        assert_eq!(crowd[0], f64::INFINITY);
        assert_eq!(crowd[3], f64::INFINITY);
        assert!(crowd[1].is_finite() && crowd[1] > 0.0);
        // The evenly spaced interior points are equally crowded.
        assert!((crowd[1] - crowd[2]).abs() < 1e-12);
    }

    #[test]
    fn ranking_is_a_total_order_with_slot_tiebreak() {
        // Two identical vectors: same rank, same crowding — the order
        // falls back to slot index and `better` reports neither side.
        let objs = [v(&[1.0, 1.0]), v(&[1.0, 1.0]), v(&[2.0, 2.0])];
        let ranking = rank_population(&objs);
        assert!(ranking.better(2, 0));
        assert!(!ranking.better(0, 1));
        assert!(!ranking.better(1, 0));
        assert!(ranking.better_or_equal(0, 1));
        assert!(ranking.better_or_equal(1, 0));
        assert_eq!(ranking.selection_order(), vec![2, 0, 1]);
    }

    #[test]
    fn ranking_is_slot_permutation_equivariant() {
        // Deterministic spot check of the property the proptest in
        // `tests/properties.rs` exercises at scale: permuting slots
        // permutes ranks and crowding identically.
        let objs = [
            v(&[3.0, 1.0]),
            v(&[1.0, 3.0]),
            v(&[0.5, 0.5]),
            v(&[2.0, 2.0]),
        ];
        let perm = [2usize, 0, 3, 1];
        let permuted: Vec<Objectives> = perm.iter().map(|&i| objs[i].clone()).collect();
        let base = rank_population(&objs);
        let shuffled = rank_population(&permuted);
        for (new_slot, &old_slot) in perm.iter().enumerate() {
            assert_eq!(shuffled.rank[new_slot], base.rank[old_slot]);
            assert_eq!(shuffled.crowding[new_slot], base.crowding[old_slot]);
        }
    }

    #[test]
    fn extract_front_dedups_in_slot_order() {
        let g = |tag: u8| {
            vec![Gene {
                opcode: audit_cpu::Opcode::IAdd,
                dst: tag,
                src1: 0,
                src2: 0,
                miss: false,
            }]
        };
        let population = vec![g(0), g(1), g(0), g(2)];
        let objs = vec![
            v(&[2.0, 1.0]),
            v(&[1.0, 2.0]),
            v(&[2.0, 1.0]),
            v(&[0.0, 0.0]),
        ];
        let ranking = rank_population(&objs);
        let front = extract_front(&population, &objs, &ranking);
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].genome, g(0));
        assert_eq!(front[1].genome, g(1));
    }
}
