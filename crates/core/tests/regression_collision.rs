//! Regression: the worst-case BLEM read path — a CID collision on an
//! uncompressed line (XID forced to 1), serviced through the Replacement
//! Area and descrambled back to the exact original bytes.
//!
//! The case is engineered rather than found: the scrambler is an
//! involution keyed off the BLEM seed, so we build the *stored* image we
//! want (CID-matching header, incompressible body) and descramble it to
//! obtain the pre-image data to write. Seed and line addresses are pinned
//! in `tests/corpus/blem-collision-xid1.case`; `line-a` displaces a 0 data
//! bit, `line-b` a 1 — both must be restored from the RA bit-exactly.

use attache_core::{Blem, CidConfig, Scrambler};
use attache_testkit::{incompressible_block, CorpusCase};

#[test]
fn cid_collision_with_xid1_roundtrips_through_the_replacement_area() {
    let case = CorpusCase::load("blem-collision-xid1");
    let seed = case.require("seed");
    let cid_bits = case.require("cid-bits") as u8;
    let mut blem = Blem::with_config(seed, CidConfig::new(cid_bits));
    // The same key derivation Blem::with_config uses: engineering the
    // collision needs the scrambler pad, which Blem keeps private.
    let scrambler = Scrambler::new(seed ^ 0xA5A5_5A5A_F0F0_0F0F);
    let cid = blem.cid();

    for (key, displaced_bit) in [("line-a", 0u16), ("line-b", 1u16)] {
        let line = case.require(key);
        // Desired stored image: top bits equal the CID, data bit 0 (the
        // XID position) carries `displaced_bit`, incompressible body.
        let mut desired = incompressible_block(line ^ seed);
        let header = (cid.value() << (16 - cid_bits)) | displaced_bit;
        desired[..2].copy_from_slice(&header.to_be_bytes());
        // The scrambler is an involution: descrambling the desired image
        // yields the write data that scrambles into it.
        let data = scrambler.descramble(line, &desired);
        assert!(
            !blem.engine().compress(&data).fits_subrank(),
            "{key}: the engineered block must stay incompressible \
             (re-record the corpus case if the compressor changed)"
        );

        let before = blem.stats();
        let w = blem.write_line(line, &data);
        assert!(!w.compressed, "{key}");
        assert!(w.collision, "{key}: CID-matching top bits must collide");
        let stored = w.image.first_half();
        let stored_header = u16::from_be_bytes([stored[0], stored[1]]);
        assert_eq!(stored_header & 1, 1, "{key}: XID must be forced to 1");
        assert_eq!(
            stored_header >> (16 - cid_bits),
            cid.value(),
            "{key}: the CID field must be preserved"
        );
        assert_eq!(
            blem.stats().write_collisions,
            before.write_collisions + 1,
            "{key}"
        );

        let (out, info) = blem.read_line(line, &w.image);
        assert!(info.collision, "{key}: the read must detect the collision");
        assert!(!info.compressed, "{key}");
        assert_eq!(
            out, data,
            "{key}: displaced bit {displaced_bit} must be restored"
        );
        assert_eq!(
            blem.stats().read_collisions,
            before.read_collisions + 1,
            "{key}"
        );
    }
    // Both displaced bits traveled through the Replacement Area.
    assert_eq!(blem.ra_stats().writes, 2);
    assert_eq!(blem.ra_stats().reads, 2);
}
