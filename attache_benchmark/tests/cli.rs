//! End-to-end checks of the benchmark binary: a smoke run over all four
//! workloads in both modes, run twice with `ATTACHE_*` knobs set in the
//! caller's environment.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;
use std::time::Instant;

struct Smoke {
    stdout: String,
    seconds: f64,
}

fn smoke(out_dir: &str) -> Smoke {
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_attache_benchmark"))
        .args(["--smoke", "--out-dir", out_dir])
        // Knobs that would change what the simulator does if a child
        // inherited them.
        .env("ATTACHE_ENGINE", "cycle")
        .env("ATTACHE_COMPRESS_MEMO", "0")
        .env("ATTACHE_INSTR", "12345")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Smoke {
        stdout,
        seconds: t.elapsed().as_secs_f64(),
    }
}

fn declared(doc: &json::Value, key: &str) -> Vec<String> {
    let json::Value::Arr(items) = doc.get(key).expect(key) else {
        panic!("{key} is a list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_is_clean_isolated_complete_and_repeatable() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let first = smoke(&format!("{dir}/smoke-a"));
    let second = smoke(&format!("{dir}/smoke-b"));
    for run in [&first, &second] {
        assert!(run.seconds < 20.0, "smoke run took {:.1} s", run.seconds);
    }

    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let bench = json::parse(&bench).expect("BENCHMARK.json parses");
    let (e2e, layer) = (
        declared(&bench, "end_to_end"),
        declared(&bench, "per_layer"),
    );

    // Four workloads, trace 0 then trace 1 for each: eight children, each
    // reporting a clean environment and ending with its result line.
    let results: Vec<json::Value> = first
        .stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result line is JSON"))
        .collect();
    assert_eq!(results.len(), 8);
    assert_eq!(
        first
            .stdout
            .matches("child environment: no ATTACHE_* variables")
            .count(),
        8
    );
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(r.get("failed").and_then(|f| f.as_f64()), Some(0.0));
        assert!(r
            .get("attempted")
            .and_then(|a| a.as_f64())
            .is_some_and(|a| a >= 1.0));
        let mut names: Vec<String> = r
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let mut expected = if i % 2 == 0 {
            e2e.clone()
        } else {
            layer.clone()
        };
        names.sort();
        expected.sort();
        assert_eq!(
            names, expected,
            "result {i} emits exactly the declared names"
        );
    }

    let fingerprints = |s: &Smoke| -> Vec<String> {
        s.stdout
            .lines()
            .filter(|l| l.starts_with("sim_fingerprint "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(fingerprints(&first).len(), 8);
    assert_eq!(fingerprints(&first), fingerprints(&second));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--compare", "only-one"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_attache_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
