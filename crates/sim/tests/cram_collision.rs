//! Replay of the pinned marker-collision corpus case
//! (`tests/corpus/cram-marker-collision.case`): a line whose natural
//! content begins with CRAM's marker word, driven through the full
//! strategy layer, with the exception path asserted non-vacuous.

use attache_cache::MetadataCacheConfig;
use attache_compress::MarkerCodec;
use attache_core::copr::CoprConfig;
use attache_dram::{AccessKind, AccessWidth, AddressMapping, DramConfig, Origin};
use attache_sim::backend::MemoryBackend;
use attache_sim::strategy::Strategy;
use attache_sim::MetadataStrategyKind;
use attache_testkit::CorpusCase;
use attache_workloads::Profile;

fn strategy(seed: u64) -> Strategy {
    Strategy::new(
        MetadataStrategyKind::Cram,
        AddressMapping::new(DramConfig::table2()),
        MetadataCacheConfig::paper_1mb(),
        CoprConfig::paper_default(1 << 22),
        seed,
    )
}

/// The pinned adversarial line takes the escape path on write (parked
/// bytes cost an exception-region write) and on every read (optimistic
/// half + corrective half + exception-region fetch).
#[test]
fn pinned_collision_exercises_the_exception_path() {
    let case = CorpusCase::load("cram-marker-collision");
    let backend = MemoryBackend::new(&[Profile::rand()], case.require("backend-seed"));
    let line = case.require("line");
    let mut s = strategy(case.require("strategy-seed"));

    // The case is genuinely adversarial: the pristine content's leading
    // big-endian word matches the marker (modulo the selector bit), yet
    // the line does not compress to half width.
    let codec = MarkerCodec::from_seed(case.require("strategy-seed"));
    let content = backend.pristine_content(line);
    let word = u16::from_be_bytes([content[0], content[1]]);
    assert!(
        codec.collides(word),
        "pinned line no longer collides with the marker ({word:#06x}); \
         re-run search_for_collision with --ignored and re-pin the case"
    );

    // Writeback: stored verbatim (no compressed_write), with the escape
    // side write parking the displaced bytes in the exception region.
    let wp = s.plan_write(line, 0, &backend);
    assert_eq!(
        wp.data.width,
        AccessWidth::Full,
        "colliding line stays full width"
    );
    assert_eq!(
        wp.side,
        vec![attache_sim::strategy::ReqSpec {
            line: backend.ra_line_of(line),
            kind: AccessKind::Write,
            width: AccessWidth::Full,
            origin: Origin::ReplacementArea,
        }],
        "escape write parks the colliding bytes in the exception region"
    );
    let cs = s.cram_stats().expect("cram strategy reports marker stats");
    assert_eq!(cs.writes, 1);
    assert_eq!(cs.compressed_writes, 0);
    assert_eq!(
        cs.write_exceptions, 1,
        "exception-path write counter is non-vacuous"
    );

    // Read: optimistic half fetch (implicit metadata — nothing to
    // consult first), then a corrective other-half fetch plus the
    // exception-region read to restore the parked bytes.
    let rp = s.plan_read(line, 0, &backend);
    assert!(rp.meta_first.is_none(), "CRAM never issues metadata reads");
    assert!(matches!(rp.data.width, AccessWidth::Half(_)));
    assert_eq!(rp.predicted_compressed, None);
    let mut follow = Vec::new();
    s.on_read_data(line, rp.predicted_compressed, 0, &backend, &mut follow);
    assert_eq!(
        follow.len(),
        2,
        "corrective half + exception fetch: {follow:?}"
    );
    assert!(
        follow
            .iter()
            .any(|r| matches!(r.width, AccessWidth::Half(_))
                && matches!(r.origin, Origin::Corrective { .. })),
        "uncompressed line pays the corrective second-half fetch"
    );
    assert!(
        follow.iter().any(|r| r.line == backend.ra_line_of(line)
            && r.kind == AccessKind::Read
            && r.origin == Origin::ReplacementArea),
        "escape-led line pays the exception-region fetch"
    );
    let cs = s.cram_stats().expect("cram strategy reports marker stats");
    assert_eq!(cs.reads, 1);
    assert_eq!(cs.compressed_reads, 0);
    assert_eq!(
        cs.read_exceptions, 1,
        "exception-path read counter is non-vacuous"
    );
}

/// One-off search harness used to pin the corpus case; kept ignored so
/// the case can be re-derived after a codec or backend change:
/// `cargo test -p attache-sim --test cram_collision -- --ignored --nocapture`
#[test]
#[ignore]
fn search_for_collision() {
    for backend_seed in 0..32u64 {
        let b = MemoryBackend::new(&[Profile::rand()], backend_seed);
        for strategy_seed in 0..8u64 {
            let codec = MarkerCodec::from_seed(strategy_seed);
            for line in 0..b.occupied_lines() {
                let c = b.pristine_content(line);
                let word = u16::from_be_bytes([c[0], c[1]]);
                if codec.collides(word) {
                    println!(
                        "backend_seed={backend_seed} strategy_seed={strategy_seed} \
                         line={line:#x} word={word:#06x} marker={:#06x}",
                        codec.marker_word()
                    );
                    return;
                }
            }
        }
    }
    panic!("no collision found");
}
