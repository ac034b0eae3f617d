//! Content-keyed compressed-image memoization.
//!
//! The simulator compresses the *same bytes* over and over: synthetic
//! workload generators produce a bounded set of line contents, STREAM- and
//! KV-style traffic rewrites lines with identical values, and the pristine
//! probe on the read path re-compresses whatever the write path just
//! compressed. [`MemoizedEngine`] wraps the [`CompressionEngine`] with a
//! bounded map from block *content* to its finished [`CompressionOutcome`],
//! so each distinct 64-byte value pays for the kernels once.
//!
//! Correctness: the key is the block's [`hash_block`] digest, and every hit
//! is verified by comparing the stored block bytes against the input before
//! the cached outcome is returned — a hash collision degrades to a miss,
//! never to a wrong image. Since the engine is a pure function of the block
//! bytes, a verified hit is bit-identical to recomputing; the golden-stats
//! and differential suites run with the memo on and pin exactly that.
//!
//! Eviction is two-generation ("LRU-ish"): inserts fill the current
//! generation, and when it reaches [`GEN_CAP`] entries it becomes the
//! previous generation wholesale (the old previous generation drops). A hit
//! in the previous generation promotes the entry. This bounds memory at
//! `2 * GEN_CAP` entries with O(1) maintenance — no recency lists on the
//! hot path.
//!
//! The `ATTACHE_COMPRESS_MEMO=0` knob (read once per process) disables the
//! memo for A/B measurement; results must not change, only wall-clock.

use std::cell::RefCell;
use std::sync::OnceLock;

use attache_compress::{Block, CompressionEngine, CompressionOutcome};

use crate::fasthash::{hash_block, FastMap};

/// Entries per generation; two generations are live at once. At ~140 bytes
/// per entry this caps the memo around 4.5 MiB — small next to the
/// simulated memory image, large next to any synthetic workload's working
/// set of distinct line contents.
const GEN_CAP: usize = 16384;

/// Hit/miss counters, for tests and capacity tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo (after block verification).
    pub hits: u64,
    /// Lookups that ran the compression kernels.
    pub misses: u64,
}

type Entry = (Block, CompressionOutcome);

#[derive(Debug, Clone, Default)]
struct Memo {
    cur: FastMap<u64, Entry>,
    prev: FastMap<u64, Entry>,
    stats: MemoStats,
}

impl Memo {
    fn insert(&mut self, key: u64, entry: Entry) {
        if self.cur.len() >= GEN_CAP {
            // Hand the next generation a full-capacity table up front:
            // filling 16 Ki entries through incremental growth costs a
            // dozen rehash passes that show up in fill-heavy profiles.
            let mut next = FastMap::with_capacity_and_hasher(GEN_CAP, Default::default());
            std::mem::swap(&mut self.cur, &mut next);
            self.prev = next;
        } else if self.cur.capacity() == 0 {
            self.cur.reserve(GEN_CAP);
        }
        self.cur.insert(key, entry);
    }

    fn lookup(&mut self, key: u64, block: &Block) -> Option<CompressionOutcome> {
        if let Some(&(stored, out)) = self.cur.get(&key) {
            if &stored == block {
                return Some(out);
            }
        }
        if let Some(&(stored, out)) = self.prev.get(&key) {
            if &stored == block {
                // Promote: keeps hot content alive across a rotation.
                self.insert(key, (stored, out));
                return Some(out);
            }
        }
        None
    }
}

/// Whether the memo is enabled for this process (`ATTACHE_COMPRESS_MEMO`,
/// default on; `0` or empty disables).
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("ATTACHE_COMPRESS_MEMO") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => true,
    })
}

/// A [`CompressionEngine`] with a content-keyed outcome memo in front of
/// the compression direction. Decompression is uncached (it is already
/// cheap and its input is an image, not a block).
///
/// Interior mutability keeps the engine's `&self` compression signatures:
/// the memo is invisible to callers except in wall-clock.
#[derive(Debug, Clone)]
pub struct MemoizedEngine {
    inner: CompressionEngine,
    enabled: bool,
    memo: RefCell<Memo>,
}

impl Default for MemoizedEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoizedEngine {
    /// Creates a memoized engine; the memo is on unless
    /// `ATTACHE_COMPRESS_MEMO=0` is set in the environment.
    pub fn new() -> Self {
        Self::with_enabled(env_enabled())
    }

    /// Creates a memoized engine with the memo explicitly on or off
    /// (for tests and A/B benchmarks; bypasses the env knob).
    pub fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: CompressionEngine::new(),
            enabled,
            memo: RefCell::new(Memo::default()),
        }
    }

    /// The wrapped engine, for callers that need the raw kernels.
    pub fn inner(&self) -> &CompressionEngine {
        &self.inner
    }

    /// Memo hit/miss counters so far.
    pub fn stats(&self) -> MemoStats {
        self.memo.borrow().stats
    }

    /// Compresses `block`, answering repeated content from the memo.
    pub fn compress(&self, block: &Block) -> CompressionOutcome {
        if !self.enabled {
            return self.inner.compress(block);
        }
        let key = hash_block(block);
        let mut memo = self.memo.borrow_mut();
        if let Some(out) = memo.lookup(key, block) {
            memo.stats.hits += 1;
            return out;
        }
        memo.stats.misses += 1;
        let out = self.inner.compress(block);
        memo.insert(key, (*block, out));
        out
    }

    /// Verified memo lookup that does *not* populate on a miss. The
    /// analysis-only entry points ([`compressed_size`](Self::compressed_size),
    /// [`fits_subrank`](Self::fits_subrank)) use this: materializing and
    /// inserting an image for content that never repeats (the pristine-probe
    /// case) costs more than the analysis pass it would replace, and churns
    /// the generations that the write path actually wants to keep.
    fn peek(&self, block: &Block) -> Option<CompressionOutcome> {
        let key = hash_block(block);
        let mut memo = self.memo.borrow_mut();
        let out = memo.lookup(key, block);
        if out.is_some() {
            memo.stats.hits += 1;
        }
        out
    }

    /// The size in bytes `block` occupies after best-of compression.
    pub fn compressed_size(&self, block: &Block) -> usize {
        if self.enabled {
            if let Some(out) = self.peek(block) {
                return out.compressed_size();
            }
        }
        // Analysis-only: cheaper than materializing when uncached.
        self.inner.compressed_size(block)
    }

    /// Whether `block` compresses to the paper's 30-byte sub-rank target.
    pub fn fits_subrank(&self, block: &Block) -> bool {
        if self.enabled {
            if let Some(out) = self.peek(block) {
                return out.fits_subrank();
            }
        }
        self.inner.fits_subrank(block)
    }

    /// Restores the original block from an outcome (uncached).
    pub fn decompress(&self, outcome: &CompressionOutcome) -> Block {
        self.inner.decompress(outcome)
    }

    /// Bounds-checked decompression (uncached).
    pub fn try_decompress(&self, outcome: &CompressionOutcome) -> Option<Block> {
        self.inner.try_decompress(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(tag: u64) -> Block {
        let mut b = [0u8; 64];
        for (i, chunk) in b.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(
                &(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64).to_le_bytes(),
            );
        }
        b
    }

    #[test]
    fn memo_hits_repeat_content_and_matches_engine() {
        let memo = MemoizedEngine::with_enabled(true);
        let plain = CompressionEngine::new();
        for round in 0..3 {
            for tag in 0..100u64 {
                let b = block_of(tag);
                assert_eq!(
                    memo.compress(&b),
                    plain.compress(&b),
                    "round {round} tag {tag}"
                );
            }
        }
        let s = memo.stats();
        assert_eq!(s.misses, 100, "first round misses only");
        assert_eq!(s.hits, 200, "later rounds all hit");
    }

    #[test]
    fn disabled_memo_is_transparent() {
        let memo = MemoizedEngine::with_enabled(false);
        let plain = CompressionEngine::new();
        let b = block_of(7);
        assert_eq!(memo.compress(&b), plain.compress(&b));
        assert_eq!(memo.compressed_size(&b), plain.compressed_size(&b));
        assert_eq!(memo.fits_subrank(&b), plain.fits_subrank(&b));
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn generation_rotation_bounds_the_memo() {
        let memo = MemoizedEngine::with_enabled(true);
        // Insert far more distinct blocks than two generations hold.
        for tag in 0..(3 * GEN_CAP as u64) {
            memo.compress(&block_of(tag));
        }
        let m = memo.memo.borrow();
        assert!(m.cur.len() <= GEN_CAP);
        assert!(m.prev.len() <= GEN_CAP);
        drop(m);
        // Recent content still hits; ancient content was evicted (a miss),
        // but either way the outcome stays correct.
        let before = memo.stats().hits;
        memo.compress(&block_of(3 * GEN_CAP as u64 - 1));
        assert_eq!(memo.stats().hits, before + 1, "recent content must hit");
        let plain = CompressionEngine::new();
        let ancient = block_of(0);
        assert_eq!(memo.compress(&ancient), plain.compress(&ancient));
    }

    #[test]
    fn prev_generation_hit_promotes() {
        let memo = MemoizedEngine::with_enabled(true);
        let keeper = block_of(0xBEEF);
        memo.compress(&keeper);
        // Fill exactly one generation: `keeper` rotates into `prev`.
        for tag in 0..GEN_CAP as u64 {
            memo.compress(&block_of(tag));
        }
        let keeper_key = crate::fasthash::hash_block(&keeper);
        assert!(memo.memo.borrow().prev.contains_key(&keeper_key));
        // A hit in `prev` must promote back into `cur`.
        memo.compress(&keeper);
        assert!(memo.memo.borrow().cur.contains_key(&keeper_key));
    }

    #[test]
    fn collision_degrades_to_miss_not_wrong_image() {
        // Force a fake collision by planting a mismatched entry under the
        // probe block's key; the verified lookup must recompute.
        let memo = MemoizedEngine::with_enabled(true);
        let probe = block_of(1);
        let imposter = block_of(2);
        let key = crate::fasthash::hash_block(&probe);
        let planted = CompressionEngine::new().compress(&imposter);
        memo.memo.borrow_mut().insert(key, (imposter, planted));
        assert_eq!(
            memo.compress(&probe),
            CompressionEngine::new().compress(&probe)
        );
        assert_eq!(memo.stats().misses, 1);
    }
}
