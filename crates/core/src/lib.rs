//! The Attaché framework: metadata-free main-memory compression.
//!
//! This crate implements the paper's two contributions:
//!
//! * [`blem`] — the **Blended Metadata Engine**: compression metadata (a
//!   CID/XID [`header`]) travels inside the data block itself, with a
//!   [Replacement Area](replacement_area) absorbing the rare CID
//!   collisions, so metadata costs extra DRAM traffic only `2^-cid_bits` of
//!   the time.
//! * [`copr`] — the **Compression Predictor**: a three-level
//!   (line/page/global) predictor that replaces the Metadata-Cache for the
//!   "which sub-rank(s) do I enable?" decision, verified and trained by the
//!   BLEM header that arrives with every read.
//!
//! Supporting hardware that the paper assumes is also here: the
//! [scrambler](scramble) that makes stored bits pseudo-random (and the CID
//! collision probability exact).
//!
//! # Example: the full write/read flow
//!
//! ```
//! use attache_core::blem::Blem;
//! use attache_core::copr::{Copr, CoprConfig};
//!
//! let mut blem = Blem::new(42);
//! let mut copr = Copr::new(CoprConfig::paper_default(1 << 28));
//!
//! // Write: BLEM compresses and blends the metadata header in.
//! let data = [0u8; 64];
//! let w = blem.write_line(1000, &data);
//! copr.train(1000, w.compressed);
//!
//! // Read: predict first (choose sub-ranks), then verify from the header.
//! let predicted = copr.predict(1000);
//! let (block, info) = blem.read_line(1000, &w.image);
//! copr.record(1000, predicted, info.compressed);
//! copr.train(1000, info.compressed);
//! assert_eq!(block, data);
//! ```

#![warn(missing_docs)]

pub mod blem;
pub mod copr;
pub mod cram;
pub mod fasthash;
pub mod header;
pub mod memo;
pub mod replacement_area;
pub mod scramble;

pub use blem::{Blem, BlemStats, ReadInfo, StoredImage, WriteOutcome};
pub use copr::{Copr, CoprConfig, CoprSource, CoprStats};
pub use cram::{Cram, CramReadInfo, CramStats, CramWriteOutcome};
pub use header::{CidConfig, CidValue, HeaderMatch};
pub use memo::{MemoStats, MemoizedEngine};
pub use replacement_area::{ReplacementArea, ReplacementAreaStats};
pub use scramble::Scrambler;
