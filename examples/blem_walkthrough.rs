//! A guided walk through BLEM's CID/XID machinery, including a forced CID
//! collision serviced by the Replacement Area (Fig. 9 of the paper).
//!
//! Run with:
//! ```text
//! cargo run --release --example blem_walkthrough
//! ```

use attache::core::blem::Blem;
use attache::core::header::CidConfig;
use attache::core::scramble::Scrambler;

fn main() {
    let mut blem = Blem::with_config(1234, CidConfig::dual_algorithm());
    println!(
        "boot-time CID register: {:#06x} ({} bits)",
        blem.cid().value(),
        blem.cid().config().cid_bits
    );

    // 1. A compressible line: header prepended, stored in one sub-rank.
    let mut compressible = [0u8; 64];
    for (i, c) in compressible.chunks_exact_mut(8).enumerate() {
        c.copy_from_slice(&(0x10_0000u64 + i as u64).to_le_bytes());
    }
    let w = blem.write_line(1, &compressible);
    let header = blem.inspect(&w.image.first_half());
    println!("\ncompressible line:");
    println!(
        "  stored bytes: {} (32 = half a cacheline)",
        w.image.stored_bytes()
    );
    println!(
        "  header: cid_matches={} xid={} -> compressed",
        header.cid_matches, header.xid
    );

    // 2. An ordinary uncompressed line: stored verbatim (scrambled).
    let mut random = [0u8; 64];
    let mut s = 99u64;
    for b in random.iter_mut() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (s >> 33) as u8;
    }
    let w = blem.write_line(2, &random);
    println!("\nuncompressed line:");
    println!("  stored bytes: {}", w.image.stored_bytes());
    println!("  collision: {} (probability 2^-14 per line)", w.collision);

    // 3. Force a CID collision: craft data whose *scrambled* image begins
    //    with the CID. BLEM must flip the XID bit and park the displaced
    //    data bit in the Replacement Area.
    let scrambler = Scrambler::new(1234 ^ 0xA5A5_5A5A_F0F0_0F0F);
    let line = 3u64;
    let mut desired_stored = random;
    let forged_header = blem.cid().value() << (16 - blem.cid().config().cid_bits);
    desired_stored[..2].copy_from_slice(&forged_header.to_be_bytes());
    let adversarial_data = scrambler.descramble(line, &desired_stored);

    let w = blem.write_line(line, &adversarial_data);
    println!("\nadversarial line engineered to collide with the CID:");
    println!("  collision detected: {}", w.collision);
    println!(
        "  replacement-area writes so far: {}",
        blem.ra_stats().writes
    );

    let (read_back, info) = blem.read_line(line, &w.image);
    println!("  read path: collision={} -> RA consulted", info.collision);
    println!("  replacement-area reads so far: {}", blem.ra_stats().reads);
    assert_eq!(
        read_back, adversarial_data,
        "displaced bit restored exactly"
    );
    println!("  data restored losslessly ✓");

    println!(
        "\nBLEM totals: {} writes ({} compressed), {} write-time collisions",
        blem.stats().writes,
        blem.stats().compressed_writes,
        blem.stats().write_collisions
    );
}
