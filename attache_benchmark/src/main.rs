//! The repository benchmark.
//!
//! ```text
//! attache_benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--out-dir DIR]
//! attache_benchmark --compare REF SIDE [SIDE...]
//! ```
//!
//! Each workload runs in its own single-threaded child process started
//! with every `ATTACHE_*` variable removed, one at a time. With `--trace 0`
//! a run measures the end-to-end metrics; with `--trace 1` it times each
//! layer's public API from outside. The last stdout line of each child is
//! `{"correct", "attempted", "failed", "metrics"}`; the same result, with
//! the simulation fingerprint, is written to `DIR/<workload>_seed<N>_trace<T>.json`.
//! `--compare` judges run files (or directories of them) against the first
//! argument with the bounds in `BENCHMARK.json`. See `README.md`.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod timed;
mod workloads;

use std::ffi::OsString;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: attache_benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out-dir DIR]\n       attache_benchmark --compare REF SIDE [SIDE...]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out_dir: String,
    child: bool,
    compare: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: None,
        smoke: false,
        out_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/runs").to_string(),
        child: false,
        compare: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--smoke" => a.smoke = true,
            "--out-dir" => a.out_dir = value()?.clone(),
            "--child" => a.child = true,
            "--compare" => {
                a.compare = it.by_ref().cloned().collect();
                if a.compare.len() < 2 {
                    return Err("--compare needs a reference and at least one side".to_string());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if w != "all" && workloads::by_name(w).is_none() {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w} (expected all, {})",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn is_attache_var(key: &OsString) -> bool {
    key.to_string_lossy().starts_with("ATTACHE_")
}

/// A command for `exe` that will not inherit any `ATTACHE_*` variable from
/// `parent_env`, so knobs set by whoever runs the benchmark cannot change
/// what the simulator does.
fn isolated_command(
    exe: &Path,
    parent_env: impl IntoIterator<Item = (OsString, OsString)>,
) -> Command {
    let mut cmd = Command::new(exe);
    for (key, _) in parent_env.into_iter().filter(|(k, _)| is_attache_var(k)) {
        cmd.env_remove(key);
    }
    cmd.stdin(Stdio::null());
    cmd
}

fn parent(args: &Args) -> ExitCode {
    let selected: Vec<workloads::Workload> = match args.workload.as_deref() {
        None | Some("all") => workloads::WORKLOADS.to_vec(),
        Some(name) => vec![workloads::by_name(name).expect("validated while parsing")],
    };
    let traces = match (args.trace, args.smoke) {
        (Some(t), _) => vec![t],
        (None, true) => vec![false, true],
        (None, false) => vec![false],
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &selected {
        for &trace in &traces {
            let mut cmd = isolated_command(&exe, std::env::vars_os());
            cmd.args(["--child", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--out-dir", &args.out_dir]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{} (trace {}) failed: {status}", w.name, u8::from(trace));
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot start the {} child: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child(args: &Args) -> ExitCode {
    let leaked: Vec<String> = std::env::vars_os()
        .filter(|(k, _)| is_attache_var(k))
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .collect();
    if !leaked.is_empty() {
        eprintln!("the child environment must hold no ATTACHE_* variable, found {leaked:?}");
        return ExitCode::from(2);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let Some(workload) = workloads::by_name(name) else {
        eprintln!("the child needs one workload, not {name:?}");
        return ExitCode::from(2);
    };
    let req = run::Request {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    if run::run(&req) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.compare.is_empty() {
        return match compare::run(&args.compare) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload rand_bandwidth --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("rand_bandwidth"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, Some(true)));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--compare a",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
        assert_eq!(
            args("--compare a b c").unwrap().compare,
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn children_inherit_no_attache_variables() {
        let env = [
            ("ATTACHE_ENGINE", "cycle"),
            ("ATTACHE_COMPRESS_MEMO", "0"),
            ("ATTACHE_CONFORMANCE", "1"),
            ("PATH", "/bin"),
            ("NOT_ATTACHE_X", "1"),
        ]
        .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        let cmd = isolated_command(Path::new("x"), env);
        let removed: Vec<String> = cmd
            .get_envs()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| k.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            removed,
            [
                "ATTACHE_COMPRESS_MEMO",
                "ATTACHE_CONFORMANCE",
                "ATTACHE_ENGINE"
            ]
        );
    }
}
