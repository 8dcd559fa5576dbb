//! What one workload run reports, and how it travels from the child
//! process that ran it to the parent that prints it.

use std::collections::BTreeMap;

use audit_measure::json::JsonValue;

/// The end-to-end metrics (`BENCHMARK.json` `end_to_end`), reported by
/// every workload on an untraced run.
pub(crate) const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("evals_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), reported by
/// every workload on a traced run. Layers a workload bypasses read 0;
/// those metrics are shares and counts, never times.
pub(crate) const PER_LAYER: [(&str, &str); 26] = [
    ("pdn.settle_ms", "ms"),
    ("pdn.settle_share", "frac"),
    ("pdn.settle_step_ns", "ns"),
    ("pdn.step_ns", "ns"),
    ("cpu.chip_step_ns", "ns"),
    ("cpu.chip_share", "frac"),
    ("cpu.sim_cycles", "count"),
    ("cpu.ipc_mean", "ratio"),
    ("measure.scope_sample_ns", "ns"),
    ("core.harness.build_ms", "ms"),
    ("core.harness.probe_ms", "ms"),
    ("core.harness.warmup_ms", "ms"),
    ("core.harness.record_ms", "ms"),
    ("core.harness.stage_coverage", "frac"),
    ("core.resonance_share", "frac"),
    ("core.ga.engine_share", "frac"),
    ("core.ga.dispatch_share", "frac"),
    ("core.ga.pool_idle_frac", "frac"),
    ("core.ga.cache_hit_frac", "frac"),
    ("core.ga.full_sim_frac", "frac"),
    ("core.journal.share", "frac"),
    ("core.journal.bytes_written", "bytes"),
    ("net.dispatches", "count"),
    ("net.redispatch_frac", "frac"),
    ("net.wal_bytes", "bytes"),
    ("trace_overhead_frac", "frac"),
];

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// The contract set: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Everything else measured: sample counts, workload-specific
    /// metrics, and layer times of layers only some workloads use.
    pub extra: Vec<Metric>,
    /// Evaluations (GA fitness calls, Vmin probes) attempted.
    pub attempted: u64,
    /// Of those, quarantined or failed.
    pub failed: u64,
    /// Journal digest (modulo `wall_s`) of each untraced GA campaign,
    /// by seed.
    pub digests: Vec<(u64, u64)>,
    /// Output checks that failed; empty on a correct run.
    pub problems: Vec<String>,
}

impl Report {
    pub(crate) fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Fills [`Report::metrics`] from `values` in the contract's order;
    /// a contract metric the workload did not measure is a problem.
    pub(crate) fn set_metrics(&mut self, values: &BTreeMap<&str, f64>) {
        let list: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in list {
            match values.get(name) {
                Some(&value) if value.is_finite() => self.metrics.push(Metric {
                    name: name.into(),
                    value,
                    unit: unit.into(),
                }),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
    }

    pub(crate) fn extra(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub(crate) fn to_json(&self) -> JsonValue {
        let metrics = |list: &[Metric]| {
            JsonValue::Array(
                list.iter()
                    .map(|m| {
                        JsonValue::object(vec![
                            ("name", JsonValue::String(m.name.clone())),
                            ("value", JsonValue::from_f64(m.value)),
                            ("unit", JsonValue::String(m.unit.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::object(vec![
            ("workload", JsonValue::String(self.workload.clone())),
            ("seed", JsonValue::from_u64(self.seed)),
            ("traced", JsonValue::Bool(self.traced)),
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::from_u64(self.attempted)),
            ("failed", JsonValue::from_u64(self.failed)),
            ("metrics", metrics(&self.metrics)),
            ("extra", metrics(&self.extra)),
            (
                "digests",
                JsonValue::Array(
                    self.digests
                        .iter()
                        .map(|&(seed, d)| {
                            JsonValue::object(vec![
                                ("seed", JsonValue::from_u64(seed)),
                                ("digest", JsonValue::String(format!("{d:016x}"))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "problems",
                JsonValue::Array(
                    self.problems
                        .iter()
                        .map(|p| JsonValue::String(p.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(v: &JsonValue) -> Option<Report> {
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            v.get(key)?
                .as_array()?
                .iter()
                .map(|m| {
                    Some(Metric {
                        name: m.get("name")?.as_str()?.into(),
                        value: m.get("value")?.as_f64()?,
                        unit: m.get("unit")?.as_str()?.into(),
                    })
                })
                .collect()
        };
        Some(Report {
            workload: v.get("workload")?.as_str()?.into(),
            seed: v.get("seed")?.as_u64()?,
            traced: v.get("traced")?.as_bool()?,
            metrics: metrics("metrics")?,
            extra: metrics("extra")?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            digests: v
                .get("digests")?
                .as_array()?
                .iter()
                .map(|d| {
                    let seed = d.get("seed")?.as_u64()?;
                    let digest = u64::from_str_radix(d.get("digest")?.as_str()?, 16).ok()?;
                    Some((seed, digest))
                })
                .collect::<Option<_>>()?,
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(String::from))
                .collect::<Option<_>>()?,
        })
    }
}
