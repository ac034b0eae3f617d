//! End-to-end data-integrity figure: corrected / uncorrectable /
//! silent-corruption rates and error-amplification factors across all
//! five strategies × a bit-error-rate sweep.
//!
//! Each grid point runs twice: once with the (72,64) SEC-DED pipeline
//! on (plus a background scrub), measuring corrections, detected-
//! uncorrectable reads and each strategy's recovery accounting, and
//! once with ECC off, measuring the silent corruption and
//! error-amplification real hardware would have delivered. The mirror
//! oracle stays attached throughout, so a run that silently consumed
//! poisoned data would abort rather than report. Before any sweep
//! numbers are written, a determinism preamble asserts the armed
//! configuration is bit-identical across the cycle/event engines — one
//! swapped read would re-key every subsequent soft error, so this is
//! the canary for the whole model.
//!
//! Output: `<results>/BENCH_integrity.json`. Run via
//! `scripts/run_experiments.sh` or
//! `cargo run --release -p attache-bench --bin fig_integrity`.

use attache_bench::ExperimentConfig;
use attache_sim::{EngineKind, MetadataStrategyKind, SimConfig, System};
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};
use std::fmt::Write as _;

/// Soft-error rates in ppm of line-touches (`ATTACHE_BER` semantics):
/// from rare-correctable to double-flip-heavy.
const BER_SWEEP: &[u64] = &[5_000, 20_000, 80_000];

const SCRUB_PERIOD: u64 = 400;

fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("post-epoch clock")
        .as_secs();
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil-from-days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Reuse- and write-heavy half-compressible traffic: every strategy
/// sees compressed and verbatim lines, rewrites clear latched flips,
/// and re-reads give the ECC pipeline work on every tier of the sweep.
fn soak_profile() -> Profile {
    Profile {
        name: "integrity-soak",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data: DataProfile::clustered(0.5),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0,
        write_fraction: 0.4,
        mlp_limit: None,
    }
}

fn base_config(ec: &ExperimentConfig) -> SimConfig {
    let mut cfg = ec.sim_config().with_mirror(true);
    cfg.llc.size_bytes = 128 << 10;
    cfg
}

fn main() {
    let ec = ExperimentConfig::from_env();
    let base = base_config(&ec);

    // Determinism preamble: the armed configuration must be
    // bit-identical across engines before any of its numbers are worth
    // writing down.
    let armed = base
        .clone()
        .with_strategy(MetadataStrategyKind::Attache)
        .with_ber(Some(BER_SWEEP[1]))
        .with_ecc(true)
        .with_scrub(Some(SCRUB_PERIOD));
    let reference = System::run_rate_mode(
        &armed.clone().with_engine(EngineKind::Cycle),
        soak_profile(),
        ec.seed,
    );
    let event = System::run_rate_mode(
        &armed.with_engine(EngineKind::Event),
        soak_profile(),
        ec.seed,
    );
    assert_eq!(
        reference, event,
        "event engine: armed integrity run diverged from the cycle reference"
    );
    println!("determinism: engines bit-identical under armed integrity knobs");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "strategy",
        "ber_ppm",
        "corr/kRd",
        "uncor/MRd",
        "recovered",
        "data_loss",
        "silent/kRd",
        "amp"
    );

    let mut rows = String::new();
    for strategy in MetadataStrategyKind::ALL {
        for &ber in BER_SWEEP {
            let protected_cfg = base
                .clone()
                .with_strategy(strategy)
                .with_ber(Some(ber))
                .with_ecc(true)
                .with_scrub(Some(SCRUB_PERIOD));
            let protected = System::run_rate_mode(&protected_cfg, soak_profile(), ec.seed)
                .integrity
                .expect("armed runs report integrity stats");
            assert_eq!(
                protected.total_uncorrectable(),
                protected.recovered + protected.data_loss,
                "{strategy} ber={ber}: unaccounted uncorrectable reads"
            );
            assert_eq!(
                protected.silent_corruption_reads, 0,
                "{strategy} ber={ber}: ECC-on run delivered silent corruption"
            );

            let exposed_cfg = base.clone().with_strategy(strategy).with_ber(Some(ber));
            let exposed = System::run_rate_mode(&exposed_cfg, soak_profile(), ec.seed)
                .integrity
                .expect("armed runs report integrity stats");

            let reads = protected.reads_checked.max(1) as f64;
            let corrected_per_kread = protected.total_corrected() as f64 / reads * 1e3;
            let uncor_per_mread = protected.total_uncorrectable() as f64 / reads * 1e6;
            let silent_per_kread =
                exposed.silent_corruption_reads as f64 / exposed.reads_checked.max(1) as f64 * 1e3;
            let amplification = exposed.amplification();
            println!(
                "{:<14} {ber:>8} {corrected_per_kread:>10.3} {uncor_per_mread:>10.1} \
                 {:>10} {:>10} {silent_per_kread:>10.3} {amplification:>8.2}",
                strategy.to_string(),
                protected.recovered,
                protected.data_loss,
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "    {{\"strategy\": \"{strategy}\", \"ber_ppm\": {ber}, \
                 \"reads_checked\": {}, \"injected_flips\": {}, \
                 \"corrected\": {}, \"uncorrectable\": {}, \
                 \"recovered\": {}, \"sdc_averted\": {}, \"data_loss\": {}, \
                 \"scrub_checks\": {}, \"scrub_corrected\": {}, \
                 \"silent_corruption_reads\": {}, \"corrupted_bytes_delivered\": {}, \
                 \"amplification\": {amplification:.4}}}",
                protected.reads_checked,
                protected.injected_flips,
                protected.total_corrected(),
                protected.total_uncorrectable(),
                protected.recovered,
                protected.sdc_averted,
                protected.data_loss,
                protected.scrub_checks,
                protected.scrub_corrected,
                exposed.silent_corruption_reads,
                exposed.corrupted_bytes_delivered,
            );
        }
    }

    let date = today_utc();
    let json = format!(
        "{{\n  \"date\": \"{date}\",\n  \
         \"config\": \"table2 (integrity soak, mirror on, scrub {SCRUB_PERIOD})\",\n  \
         \"instructions_per_core\": {},\n  \"warmup_per_core\": {},\n  \"seed\": {},\n  \
         \"determinism_bit_identical\": true,\n  \"cases\": [\n{rows}\n  ]\n}}\n",
        ec.instructions, ec.warmup, ec.seed,
    );
    let dir = ec.results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_integrity.json");
    std::fs::write(&path, json).expect("write BENCH_integrity.json");

    println!("\nintegrity sweep -> {}", path.display());
}
