//! Shared environment-variable parsing for run-control knobs.
//!
//! Every `ATTACHE_*` knob in the workspace follows the same contract: an
//! unset variable means "default", and a set-but-unparsable value warns
//! on stderr and falls back to the default — it never panics, because a
//! typo in a CI environment or a shell profile must not turn every
//! simulation into a crash. This module is the single implementation of
//! that contract (the bench runner previously carried its own copy).

/// Reads `name` as a `u64`, falling back to `default` when the variable
/// is unset, and warning on stderr (then falling back) when it is set
/// but unparsable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("[attache-sim] warning: {name}={v:?} is not a u64; using {default}");
                default
            }
        },
        Err(_) => default,
    }
}

/// Reads `name` as an on/off switch: on when set, non-empty and not `0`
/// (see [`env_flag_value`]). Deliberately not cached in a `OnceLock`, so
/// tests may toggle the variable between reads.
pub fn env_flag(name: &str) -> bool {
    env_flag_value(std::env::var(name).ok().as_deref())
}

/// The pure classifier behind [`env_flag`]: `None` (unset), the empty
/// string and `0` read as off; any other value reads as on.
pub fn env_flag_value(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Every `ATTACHE_*` variable any part of the workspace reads. A set
/// variable outside this list is almost certainly a typo (the original
/// motivating case: `ATTACHE_EPOC=50000` silently sampling nothing), so
/// [`warn_unknown_knobs_once`] flags it at sim startup.
pub const KNOWN_KNOBS: &[&str] = &[
    "ATTACHE_BER",
    "ATTACHE_BLESS",
    "ATTACHE_COMPRESS_MEMO",
    "ATTACHE_CONFORMANCE",
    "ATTACHE_ECC",
    "ATTACHE_ENGINE",
    "ATTACHE_ENV_KNOB_TEST",
    "ATTACHE_EPOCH",
    "ATTACHE_FAULTS",
    "ATTACHE_INSTR",
    "ATTACHE_JOB_TICK_BUDGET",
    "ATTACHE_MIRROR",
    "ATTACHE_NO_CACHE",
    "ATTACHE_QUICK",
    "ATTACHE_RESULTS",
    "ATTACHE_SCRUB",
    "ATTACHE_SEED",
    "ATTACHE_TRACE_RING",
    "ATTACHE_WARMUP",
    "ATTACHE_WORKERS",
];

/// The pure classifier behind [`warn_unknown_knobs_once`]: which of
/// `names` look like `ATTACHE_*` knobs but are not in [`KNOWN_KNOBS`].
/// Split out so tests can exercise it without mutating the process
/// environment.
pub fn unknown_knobs<'a, I>(names: I) -> Vec<String>
where
    I: IntoIterator<Item = &'a str>,
{
    names
        .into_iter()
        .filter(|n| n.starts_with("ATTACHE_") && !KNOWN_KNOBS.contains(n))
        .map(str::to_owned)
        .collect()
}

/// Scans the environment for set `ATTACHE_*` variables the workspace does
/// not recognize and warns on stderr, once per process. Called from
/// `SimConfig::table2_baseline` so every entry point gets the check
/// without each binary opting in.
pub fn warn_unknown_knobs_once() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        let names: Vec<String> = std::env::vars_os()
            .filter_map(|(k, _)| k.into_string().ok())
            .collect();
        for knob in unknown_knobs(names.iter().map(String::as_str)) {
            eprintln!(
                "[attache-sim] warning: environment variable {knob} looks like an \
                 ATTACHE_* knob but is not one the workspace reads (typo?)"
            );
        }
    });
}

/// Reads `name` as an optional `u64` knob where absence, the empty
/// string, and `0` all mean "disabled" (`None`). A set-but-unparsable
/// value warns on stderr and disables the knob — it never panics.
pub fn env_u64_opt(name: &str) -> Option<u64> {
    match std::env::var(name) {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!(
                    "[attache-sim] warning: {name}={v:?} is not a u64; leaving the knob disabled"
                );
                None
            }
        },
        Err(_) => None,
    }
}
