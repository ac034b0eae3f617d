//! The metric catalog — every name the benchmark emits, with its unit and
//! direction — and the ordered container a run fills.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a test
//! keeps the two in step.

use crate::workloads::{strategy_key, STRATEGIES};
use attache_sim::MetadataStrategyKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the reference median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics computed from `RunReport`s: simulated results that
    /// repeat exactly for a seed, so any change is a model change.
    pub simulated: bool,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        simulated: false,
    }
}

fn host(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        simulated: false,
    }
}

fn sim(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        simulated: true,
        ..host(name, unit, better)
    }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`). The host
/// these bounds were set on drifts by 10-20% over minutes, so the time
/// metrics carry the largest bound `BENCHMARK.json` accepts (25%); the
/// peak resident set moves by up to 9% between seeds.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
        e2e("job_wall_p50_s", "s", Lower, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("peak_rss_mb", "MB", Lower, 0.1),
    ]
}

/// Per-layer metrics, from the traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        host("workloads.trace_ns", "ns", Lower),
        host("workloads.synth_ns", "ns", Lower),
        host("workloads.share", "share", Lower),
        host("cache.llc_ns", "ns", Lower),
        host("cache.llc_miss_ratio", "ratio", Lower),
        host("cache.metacache_ns", "ns", Lower),
        host("cache.metacache_hit_ratio", "ratio", Higher),
        host("cache.share", "share", Lower),
        host("compress.engine_ns", "ns", Lower),
        host("compress.decompress_ns", "ns", Lower),
        host("compress.fits_ratio", "ratio", Higher),
        host("compress.share", "share", Lower),
        host("core.memo_ns", "ns", Lower),
        host("core.memo_hit_ratio", "ratio", Higher),
        host("core.copr_ns", "ns", Lower),
        host("core.copr_accuracy", "ratio", Higher),
        host("core.blem_read_ns", "ns", Lower),
        host("core.blem_write_ns", "ns", Lower),
        host("core.cram_read_ns", "ns", Lower),
        host("core.cram_write_ns", "ns", Lower),
        host("core.share", "share", Lower),
        host("dram.ns_per_tick", "ns", Lower),
        host("dram.ns_per_request", "ns", Lower),
        host("dram.ns_per_sim_cycle", "ns", Lower),
        host("dram.executed_tick_ratio", "ratio", Lower),
        host("dram.share", "share", Lower),
        host("sim.mcyc_per_s", "Mcyc/s", Higher),
        host("sim.ns_per_bus_cycle", "ns", Lower),
        host("sim.unattributed_share", "share", Lower),
        sim("cache.llc_mpki", "1/kinstr", Lower),
        sim("core.copr_accuracy.attache", "ratio", Higher),
        sim("cache.metacache_hit_ratio.metadatacache", "ratio", Higher),
        sim("sim.metadata_traffic_ratio.metadatacache", "ratio", Lower),
        sim("sim.corrective_read_ratio.attache", "ratio", Lower),
        sim("sim.corrective_read_ratio.cram", "ratio", Lower),
    ];
    for s in STRATEGIES {
        let k = strategy_key(s);
        v.push(sim(&format!("sim.ipc.{k}"), "instr/cycle", Higher));
        // Baseline's speedup and energy ratio are 1 by definition.
        if s != MetadataStrategyKind::Baseline {
            v.push(sim(&format!("sim.speedup.{k}"), "x", Higher));
            v.push(sim(&format!("sim.energy_ratio.{k}"), "ratio", Lower));
        }
        v.push(sim(&format!("dram.read_latency_ns.{k}"), "ns", Lower));
        v.push(sim(&format!("dram.bandwidth_gbps.{k}"), "GB/s", Higher));
        v.push(sim(&format!("dram.row_hit_ratio.{k}"), "ratio", Higher));
        v.push(sim(&format!("dram.drain_share.{k}"), "ratio", Lower));
    }
    v
}

/// The catalog for one run mode.
pub fn catalog(trace: bool) -> Vec<MetricDef> {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// A name is 1-64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is 1-16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics one run produced, in the order the run set them.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name`; panics on a name the catalog does not declare, which
    /// is a bug in this program.
    pub fn set(&mut self, catalog: &[MetricDef], name: &str, value: f64) {
        let def = catalog
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values.push((def.name.clone(), value, def.unit));
    }

    /// Names the catalog declares that this run did not produce, names or
    /// units outside the grammar, and values that are not finite numbers.
    pub fn problems(&self, catalog: &[MetricDef]) -> Vec<String> {
        let mut out: Vec<String> = catalog
            .iter()
            .filter(|d| !self.values.iter().any(|(n, _, _)| *n == d.name))
            .map(|d| format!("metric {} was not produced", d.name))
            .collect();
        out.extend(
            self.values
                .iter()
                .filter(|(n, _, u)| !valid_name(n) || !valid_unit(u))
                .map(|(n, _, u)| format!("metric {n} [{u}] breaks the name or unit grammar")),
        );
        out.extend(
            self.values
                .iter()
                .filter(|(_, v, _)| !v.is_finite())
                .map(|(n, v, _)| format!("metric {n} is {v}")),
        );
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.values.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    crate::json::quote(n),
                    crate::json::number(*v),
                    crate::json::quote(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_and_units_follow_the_grammar_and_limits() {
        let (e, l) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e.len()));
        assert!((1..=128).contains(&l.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in e.iter().chain(&l) {
            assert!(valid_name(&d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(seen.insert(d.name.clone()), "duplicate name {}", d.name);
        }
        assert!(e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max = e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
    }

    #[test]
    fn grammar_rejects_bad_names() {
        for bad in ["", ".x", "_x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["a", "9x", "sim.ipc.attache", "a-b_c.d"] {
            assert!(valid_name(good), "{good:?}");
        }
        assert!(valid_unit("Minstr/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: Vec<MetricDef>| {
            let declared = doc.get(key).and_then(|v| v.as_array()).expect(key);
            let names: Vec<&str> = declared
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name"))
                .collect();
            let ours: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, ours, "{key} names");
            for (m, d) in declared.iter().zip(&defs) {
                assert_eq!(
                    m.get("unit").and_then(|u| u.as_str()),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(|b| b.as_str()),
                    Some(d.better.key()),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("bound").and_then(|b| b.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", end_to_end());
        check("per_layer", per_layer());
        let field =
            |w: &json::Value, k: &str| w.get(k).and_then(|n| n.as_str()).map(str::to_string);
        let workloads: Vec<(Option<String>, Option<String>)> = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(Option<String>, Option<String>)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metrics_report_missing_and_non_finite_values() {
        let cat = end_to_end();
        let mut m = Metrics::default();
        m.set(&cat, "setup_s", 0.5);
        m.set(&cat, "peak_rss_mb", f64::NAN);
        let p = m.problems(&cat);
        assert_eq!(p.len(), 3, "{p:?}");
        let parsed = json::parse(&m.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );
    }
}
