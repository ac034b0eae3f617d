//! `--compare REF SIDE...`: judges run files against a reference set with
//! the end-to-end bounds, and flags any simulated-result difference.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{end_to_end, per_layer, Better};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// One run file, as written by a run.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub path: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub fingerprint: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    pub fn parse(path: &str, text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: no \"{k}\""));
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_object().unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
        Ok(Self {
            path: path.to_string(),
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(-1.0) as u64,
            trace: field("trace")?.as_f64() == Some(1.0),
            smoke: field("smoke")?.as_bool().unwrap_or(false),
            fingerprint: field("sim_fingerprint")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            metrics,
        })
    }
}

/// The `schema` value of every run file.
pub const SCHEMA: &str = "attache-benchmark-run-v1";

/// Loads a side: one run file, or every run file among the `*.json` in a
/// directory (other JSON files there are skipped).
pub fn load_side(arg: &str) -> Result<Vec<RunFile>, String> {
    let path = Path::new(arg);
    if !path.is_dir() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{arg}: {e}"))?;
        return RunFile::parse(arg, &text).map(|f| vec![f]);
    }
    let mut entries: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    let mut files = Vec::new();
    for p in entries {
        let s = p.display().to_string();
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{s}: {e}"))?;
        if json::parse(&text)
            .ok()
            .and_then(|d| d.get("schema").cloned())
            != Some(Value::Str(SCHEMA.into()))
        {
            eprintln!("skipping {s}: not a benchmark run file");
            continue;
        }
        files.push(RunFile::parse(&s, &text)?);
    }
    Ok(files)
}

fn is_better(better: Better, x: f64, than: f64) -> bool {
    match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    }
}

/// The share of pairs in which the change reads better (ties count for
/// neither side). Runs pair by seed where both sides ran it, otherwise in
/// seed order.
pub fn win_fraction(a: &[(u64, f64)], b: &[(u64, f64)], better: Better) -> f64 {
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(s, x)| b.iter().find(|&&(t, _)| t == s).map(|&(_, y)| (x, y)))
        .collect();
    if pairs.is_empty() {
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        a.sort_by_key(|p| p.0);
        b.sort_by_key(|p| p.0);
        pairs = a.iter().zip(&b).map(|(x, y)| (x.1, y.1)).collect();
    }
    let wins = pairs
        .iter()
        .filter(|&&(x, y)| is_better(better, y, x))
        .count();
    wins as f64 / pairs.len().max(1) as f64
}

/// Fewest runs per side from which the run-to-run spread, and so a gain or
/// an unchanged reading, can be judged.
pub const MIN_RUNS: usize = 10;

/// The verdict on one metric: reference runs `a`, change runs `b`. With
/// fewer than [`MIN_RUNS`] on either side only a regression past the bound
/// is reported; anything else is unresolved.
pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], better: Better, bound: f64) -> Verdict {
    let xa: Vec<f64> = a.iter().map(|p| p.1).collect();
    let xb: Vec<f64> = b.iter().map(|p| p.1).collect();
    let (Some(ma), Some(mb), Some((q1, q3))) = (median(&xa), median(&xb), quartiles(&xa)) else {
        return Verdict::Unresolved;
    };
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if xa.len() < MIN_RUNS || xb.len() < MIN_RUNS {
        return if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let every_run_better = xb
        .iter()
        .all(|&y| xa.iter().all(|&x| is_better(better, y, x)));
    let spread = relative_spread(&xa)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(&xb).unwrap_or(f64::INFINITY));
    if spread > bound {
        return if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if win_fraction(a, b, better) >= 0.9 && (mb - ma).abs() > q3 - q1 && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(files: &[RunFile], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    files
        .iter()
        .filter(|f| f.workload == workload && !f.trace && !f.smoke)
        .filter_map(|f| f.metrics.get(metric).map(|&v| (f.seed, v)))
        .collect()
}

fn summary(v: &[(u64, f64)]) -> String {
    let x: Vec<f64> = v.iter().map(|p| p.1).collect();
    match (median(&x), quartiles(&x)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", x.len()),
        _ => "no runs".to_string(),
    }
}

/// Simulated-result differences between two sides: fingerprints for every
/// (workload, seed, smoke) both ran, and each simulated per-layer count of
/// traced runs with the same key.
pub fn simulated_differences(a: &[RunFile], b: &[RunFile]) -> Vec<String> {
    let simulated: Vec<String> = per_layer()
        .into_iter()
        .filter(|d| d.simulated)
        .map(|d| d.name)
        .collect();
    let mut out = Vec::new();
    for fa in a {
        for fb in b
            .iter()
            .filter(|f| f.workload == fa.workload && f.seed == fa.seed && f.smoke == fa.smoke)
        {
            if fa.fingerprint != fb.fingerprint {
                out.push(format!(
                    "sim_fingerprint {} seed {}: {} ({}) vs {} ({})",
                    fa.workload, fa.seed, fa.fingerprint, fa.path, fb.fingerprint, fb.path
                ));
            }
            if fa.trace && fb.trace {
                for name in &simulated {
                    let (x, y) = (fa.metrics.get(name), fb.metrics.get(name));
                    if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                        out.push(format!(
                            "{name} {} seed {}: {x:?} vs {y:?}",
                            fa.workload, fa.seed
                        ));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Prints the comparison of every side against the first; returns whether
/// anything read worse or any simulated result differed.
pub fn run(sides: &[String]) -> Result<bool, String> {
    let loaded: Vec<Vec<RunFile>> = sides
        .iter()
        .map(|s| load_side(s))
        .collect::<Result<_, _>>()?;
    let reference = &loaded[0];
    let mut clean = true;
    for (side, files) in sides.iter().zip(&loaded).skip(1) {
        println!("== {} (reference) vs {side}", sides[0]);
        for w in WORKLOADS {
            for d in end_to_end() {
                let (a, b) = (
                    values(reference, w.name, &d.name),
                    values(files, w.name, &d.name),
                );
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let bound = d.bound.expect("end-to-end metrics carry a bound");
                let v = verdict(&a, &b, d.better, bound);
                clean &= v != Verdict::Worse;
                println!(
                    "{:<17} {:<17} ref {}  new {}  win {:.2}  bound {:.0}%  {:?}",
                    w.name,
                    d.name,
                    summary(&a),
                    summary(&b),
                    win_fraction(&a, &b, d.better),
                    bound * 100.0,
                    v
                );
            }
        }
        let diffs = simulated_differences(reference, files);
        if diffs.is_empty() {
            println!("simulated results: identical wherever both sides ran the same seed");
        }
        for d in &diffs {
            println!("SIMULATED RESULT DIFFERS: {d}");
        }
        clean &= diffs.is_empty();
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]);
        let shift = |d: f64| runs(&base.iter().map(|p| p.1 + d).collect::<Vec<_>>());
        // Lower is better: +10% is a regression past an 8% bound.
        assert_eq!(
            verdict(&base, &shift(10.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &shift(10.0), Better::Higher, 0.08),
            Verdict::Better
        );
        // Inside the bound and inside the noise.
        assert_eq!(
            verdict(&base, &shift(0.1), Better::Lower, 0.08),
            Verdict::Same
        );
        // A consistent 5% gain beyond the quartile spread counts.
        assert_eq!(
            verdict(&base, &shift(-5.0), Better::Lower, 0.08),
            Verdict::Better
        );
        // Identical runs: same.
        assert_eq!(verdict(&base, &base, Better::Lower, 0.08), Verdict::Same);
    }

    #[test]
    fn too_few_runs_resolve_only_regressions() {
        let one = |v: f64| vec![(42, v)];
        assert_eq!(
            verdict(&one(100.0), &one(90.0), Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&one(100.0), &one(100.0), Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&one(100.0), &one(110.0), Better::Lower, 0.08),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = runs(&[
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ]);
        let slightly_worse = runs(&noisy.iter().map(|p| p.1 * 1.1).collect::<Vec<_>>());
        assert_eq!(
            verdict(&noisy, &slightly_worse, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        let far_better = runs(&[10.0; 10]);
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, 0.08),
            Verdict::Better
        );
    }

    #[test]
    fn win_fraction_pairs_by_seed() {
        let a = vec![(1, 10.0), (2, 10.0), (3, 10.0)];
        let b = vec![(3, 9.0), (2, 11.0), (1, 9.0)];
        assert!((win_fraction(&a, &b, Better::Lower) - 2.0 / 3.0).abs() < 1e-12);
        // Ties count for neither side.
        assert_eq!(win_fraction(&a, &a, Better::Lower), 0.0);
    }

    #[test]
    fn simulated_differences_flag_fingerprints_and_counts() {
        let file = |fp: &str, ipc: f64| RunFile {
            path: "x".into(),
            workload: "rand_bandwidth".into(),
            seed: 42,
            trace: true,
            smoke: false,
            fingerprint: fp.into(),
            metrics: BTreeMap::from([
                ("sim.ipc.attache".to_string(), ipc),
                ("cache.llc_ns".to_string(), 1.0),
            ]),
        };
        assert!(simulated_differences(&[file("aa", 1.0)], &[file("aa", 1.0)]).is_empty());
        let d = simulated_differences(&[file("aa", 1.0)], &[file("bb", 1.5)]);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn run_files_parse() {
        let text = r#"{"workload": "chase_latency", "seed": 7, "trace": 0, "smoke": false,
            "sim_fingerprint": "00ff", "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let f = RunFile::parse("f.json", text).unwrap();
        assert_eq!((f.seed, f.trace, f.metrics["setup_s"]), (7, false, 0.5));
        assert!(RunFile::parse("g.json", "{}").is_err());
    }
}
