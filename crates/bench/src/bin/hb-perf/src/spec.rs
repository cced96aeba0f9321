//! The benchmark's contract, read from the `BENCHMARK.json` compiled into
//! the binary: workload names, metric names with unit, direction and bound.
//! The code emits metrics by name and takes every unit from here, so the
//! file and the program cannot drift apart without a test failing.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is malformed"))
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
    };
    let text_of = |item: &Value, key: &str| {
        item.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(MetricSpec {
                    name: text_of(item, "name")?,
                    unit: text_of(item, "unit")?,
                    better: match text_of(item, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: bad direction {other:?}")),
                    },
                    bound: item.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|item| Ok((text_of(item, "name")?, text_of(item, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Metric values measured by one run, keyed by name, each with a note
/// (usually its sample count) for the printed report.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<String, (f64, String)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, String::new()));
    }

    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.values.insert(name.to_string(), (value, note));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Removes `name`, returning its value.
    pub fn take(&mut self, name: &str) -> Option<f64> {
        self.values.remove(name).map(|(v, _)| v)
    }

    /// Copies every entry of `other` into this report.
    pub fn extend(&mut self, other: &Report) {
        self.values
            .extend(other.values.iter().map(|(k, v)| (k.clone(), v.clone())));
    }

    pub fn note(&self, name: &str) -> &str {
        self.values.get(name).map_or("", |(_, n)| n.as_str())
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The names `specs` lists that this report lacks, and the names it
    /// holds that `specs` does not list. Both empty means the report is
    /// exactly the contract.
    pub fn mismatch(&self, specs: &[MetricSpec]) -> (Vec<String>, Vec<String>) {
        let missing = specs
            .iter()
            .filter(|m| !self.values.contains_key(&m.name))
            .map(|m| m.name.clone())
            .collect();
        let extra = self
            .names()
            .filter(|n| !specs.iter().any(|m| m.name == *n))
            .map(str::to_string)
            .collect();
        (missing, extra)
    }

    /// `{"name": {"value": v, "unit": u}, …}` in the order of `specs`.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Value {
        json::obj(specs.iter().filter_map(|m| {
            self.get(&m.name).map(|value| {
                (
                    m.name.clone(),
                    json::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let spec = spec();
        assert_eq!(
            spec.workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            crate::workload::WORKLOADS
        );
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(well_formed(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed(&metric.name), "{}", metric.name);
            assert!(
                seen.insert(metric.name.clone()),
                "duplicate {}",
                metric.name
            );
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {:?}",
                metric.name,
                metric.unit
            );
        }
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn report_mismatch_names_both_sides() {
        let specs = parse_spec(
            r#"{"run_seconds": 1, "workloads": [],
                "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "b", "unit": "s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
        .end_to_end;
        let mut report = Report::default();
        report.set("a", 1.5);
        report.set("c", 2.0);
        assert_eq!(
            report.mismatch(&specs),
            (vec!["b".to_string()], vec!["c".to_string()])
        );
        assert_eq!(
            report.to_json(&specs).render(),
            r#"{"a": {"value": 1.5, "unit": "s"}}"#
        );
    }
}
