//! Fig. 8: probability of a CID collision versus the number of accesses to
//! uncompressed lines — analytic curve plus a Monte-Carlo measurement over
//! real scrambled images.
//!
//! Paper: a 15-bit CID collides about once every 32K accesses.

use attache_bench::{parallel_map, ExperimentConfig};
use attache_core::blem::Blem;
use attache_core::header::CidConfig;

fn incompressible_block(seed: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for byte in b.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *byte = (s >> 40) as u8;
    }
    b
}

fn main() {
    println!("Fig. 8 — CID collision probability vs accesses to uncompressed lines");
    println!("(analytic: 1 - (1 - 2^-cid_bits)^n)");
    println!();
    let cfg = CidConfig::single_algorithm(); // the paper's 15-bit headline CID
    println!("15-bit CID:");
    println!("{:>12} {:>22}", "accesses", "P(>=1 collision)");
    for exp in [10u32, 12, 14, 15, 16, 18, 20] {
        let n = 1u64 << exp;
        println!("{:>12} {:>21.2}%", n, 100.0 * cfg.collision_within(n));
    }
    println!(
        "expected accesses per collision: {} (paper: every ~32K accesses)",
        cfg.expected_accesses_per_collision()
    );

    // Monte-Carlo over real scrambled images with the simulator's
    // dual-algorithm (14-bit) header, plus a shorter CID where the rate is
    // directly measurable in a small sample.
    println!();
    println!("Monte-Carlo over scrambled incompressible lines:");
    println!(
        "{:>9} {:>12} {:>12} {:>12}",
        "cid bits", "lines", "collisions", "expected"
    );
    // The three CID widths are independent samples; fan out across workers.
    let trials = [(10u8, 400_000u64), (12, 400_000), (14, 800_000)];
    let counted = parallel_map(
        ExperimentConfig::from_env().workers(),
        &trials,
        |_, &(bits, n)| {
            let blem = Blem::with_config(7, CidConfig::new(bits));
            let mut collisions = 0u64;
            for i in 0..n {
                let data = incompressible_block(i * 2 + 1);
                let (compressed, collision) = blem.probe_line(i, &data);
                if !compressed && collision {
                    collisions += 1;
                }
            }
            collisions
        },
    );
    for (&(bits, n), collisions) in trials.iter().zip(&counted) {
        let expected = n as f64 / (1u64 << bits) as f64;
        println!(
            "{:>9} {:>12} {:>12} {:>12.1}",
            bits, n, collisions, expected
        );
    }
    println!();
    println!("paper   : 0.003% of accesses need the Replacement Area (15-bit CID)");
    println!(
        "measured: collision rates track 2^-cid_bits (see table above); \
         14-bit dual-algorithm CID = {:.4}%",
        100.0 * CidConfig::dual_algorithm().collision_probability()
    );
}
