//! The five metadata strategies behind one interface.
//!
//! Everything else in the pipeline — cores, LLC, DRAM — is identical across
//! configurations; only the strategy decides (a) how the controller learns
//! a block's compressibility before reading, (b) what width each access
//! uses, and (c) what *extra* requests metadata management injects. This is
//! what makes the Figs. 12-15 comparisons apples-to-apples.
//!
//! # The Strategy / MemoryBackend split
//!
//! A [`Strategy`] is the *timing-side* brain of the memory controller: on
//! an LLC miss or writeback it produces a [`ReadPlan`] or [`WritePlan`] —
//! pure descriptions of which DRAM requests to issue, at which
//! [`AccessWidth`], in which order, and attributed to which [`Origin`].
//! The [`System`](crate::system::System) turns those plans into scheduled
//! [`attache_dram`] transactions; the strategy never touches bytes or
//! cycles itself.
//!
//! The [`MemoryBackend`](crate::backend::MemoryBackend) is the
//! *functional* ground truth the plans are checked against: what every
//! line actually contains, whether it really compresses, and where the
//! metadata and Replacement-Area regions live. Keeping the two apart is
//! what lets a strategy be *wrong* — COPR can mispredict a width, a CID
//! can collide — with the mismatch surfacing as corrective traffic in the
//! timing model rather than as corrupted data, exactly as in hardware.
//!
//! Concretely, per strategy:
//!
//! * **Baseline** (§II) — uncompressed, full-width reads, no side traffic.
//! * **MetadataCache** (§II-B) — an on-controller cache of metadata lines;
//!   misses prepend a blocking install read (`meta_first`), dirty
//!   evictions append metadata writes.
//! * **Attache** (§IV-V) — BLEM embeds the metadata in the line itself, so
//!   reads are issued immediately at the width COPR predicts; wrong
//!   guesses trigger corrective reads, CID collisions fall back to the
//!   Replacement Area.
//! * **Oracle** — free, always-correct metadata: the "Ideal" bound of
//!   Figs. 12-13.
//! * **Cram** — implicit metadata (PAPERS.md: CRAM): a compressed line
//!   *begins with* a marker word, so there is nothing to cache or
//!   predict; every read optimistically fetches the marker-bearing half
//!   and pays a corrective half when the marker is absent, and
//!   marker-colliding incompressible lines take a Touché-style escape
//!   encoding whose parked bytes cost exception-region traffic.

use attache_cache::{MetadataCache, MetadataCacheConfig};
use attache_core::blem::{Blem, StoredImage};
use attache_core::copr::{Copr, CoprConfig};
use attache_core::cram::Cram;
use attache_core::fasthash::FastMap;
use attache_core::memo::MemoizedEngine;
use attache_dram::{AccessKind, AccessWidth, AddressMapping, Origin, SubrankId};
use std::cell::RefCell;

use crate::backend::MemoryBackend;
use crate::config::MetadataStrategyKind;
use crate::faults::{FaultInjector, FaultOutcome, FaultPlan, FaultStats, FaultTargets};
use crate::integrity::{EccVerdict, IntegrityEngine, IntegrityStats};
use crate::mirror::{MirrorOracle, MirrorStats};

/// A request the strategy wants issued (the system assigns ids/cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqSpec {
    /// Physical line address.
    pub line: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Sub-rank footprint.
    pub width: AccessWidth,
    /// Traffic attribution.
    pub origin: Origin,
}

/// How a demand read must be orchestrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// A metadata install read that must complete *before* the data read
    /// can be issued (Metadata-Cache misses only).
    pub meta_first: Option<ReqSpec>,
    /// The data read itself.
    pub data: ReqSpec,
    /// Fire-and-forget side traffic (metadata eviction writes).
    pub side: Vec<ReqSpec>,
    /// COPR's prediction, if a predictor is active (resolved later).
    pub predicted_compressed: Option<bool>,
}

/// How a writeback must be orchestrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// The data write.
    pub data: ReqSpec,
    /// Fire-and-forget side traffic (metadata installs/evictions,
    /// Replacement-Area writes).
    pub side: Vec<ReqSpec>,
}

/// Read-resolution statistics kept by the strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyStats {
    /// Demand reads resolved.
    pub reads: u64,
    /// Demand reads that found a compressed block.
    pub compressed_reads: u64,
    /// Writebacks planned.
    pub writes: u64,
    /// Writebacks that stored a compressed block.
    pub compressed_writes: u64,
}

/// The strategy state machine.
#[derive(Debug)]
pub struct Strategy {
    kind: MetadataStrategyKind,
    engine: MemoizedEngine,
    mapping: AddressMapping,
    // MetadataCache / Oracle state: the stored layout's compressibility.
    stored_comp: FastMap<u64, bool>,
    /// Per-line results of probing *pristine* (never-written-back)
    /// contents: `(compressed, cid_collision)`. The pristine image is a
    /// deterministic function of boot-time contents, so the probe is
    /// stable — until a fault injection rewires the scrambler or
    /// scribbles on state, at which point [`apply_faults`](Self::apply_faults)
    /// drops the whole cache. `RefCell` because probes happen on `&self`
    /// read paths.
    pristine_probe: RefCell<FastMap<u64, (bool, bool)>>,
    meta_cache: Option<MetadataCache>,
    // Attaché state.
    blem: Option<Blem>,
    copr: Option<Copr>,
    // CRAM state: the implicit-marker engine (owns the exception region).
    cram: Option<Cram>,
    images: FastMap<u64, StoredImage>,
    stats: StrategyStats,
    // Optional shadow-copy correctness oracle (see crate::mirror).
    mirror: Option<MirrorOracle>,
    // Optional shared event-trace ring, dumped when the oracle fires.
    trace: Option<attache_metrics::SharedTraceRing>,
    // Optional fault injector (see crate::faults); None = chaos off and
    // zero per-access overhead.
    faults: Option<Box<FaultInjector>>,
    // Optional device-integrity engine (see crate::integrity); None =
    // every integrity knob off and zero per-access overhead.
    integrity: Option<Box<IntegrityEngine>>,
}

impl Strategy {
    /// Builds the strategy for `kind`.
    pub fn new(
        kind: MetadataStrategyKind,
        mapping: AddressMapping,
        metadata_cache: MetadataCacheConfig,
        copr: CoprConfig,
        seed: u64,
    ) -> Self {
        Self::with_cid_bits(kind, mapping, metadata_cache, copr, seed, 14)
    }

    /// Builds the strategy with an explicit BLEM CID width (Table I).
    pub fn with_cid_bits(
        kind: MetadataStrategyKind,
        mapping: AddressMapping,
        metadata_cache: MetadataCacheConfig,
        copr: CoprConfig,
        seed: u64,
        cid_bits: u8,
    ) -> Self {
        let meta_cache = (kind == MetadataStrategyKind::MetadataCache)
            .then(|| MetadataCache::new(metadata_cache));
        let blem = (kind == MetadataStrategyKind::Attache)
            .then(|| Blem::with_config(seed, attache_core::header::CidConfig::new(cid_bits)));
        let copr = (kind == MetadataStrategyKind::Attache).then(|| Copr::new(copr));
        let cram = (kind == MetadataStrategyKind::Cram).then(|| Cram::new(seed));
        Self {
            kind,
            engine: MemoizedEngine::new(),
            mapping,
            stored_comp: FastMap::default(),
            pristine_probe: RefCell::new(FastMap::default()),
            meta_cache,
            blem,
            copr,
            cram,
            images: FastMap::default(),
            stats: StrategyStats::default(),
            mirror: None,
            trace: None,
            faults: None,
            integrity: None,
        }
    }

    /// The strategy kind.
    pub fn kind(&self) -> MetadataStrategyKind {
        self.kind
    }

    /// Turns on the mirror-memory oracle: every writeback snapshots the
    /// bytes being stored, and every demand read re-checks what the
    /// functional path decoded against that snapshot, panicking on any
    /// divergence. Pure observer — timing, stats, and request streams
    /// are untouched.
    pub fn enable_mirror(&mut self) {
        self.mirror = Some(MirrorOracle::new());
    }

    /// Test hook: poison the (enabled) mirror oracle's records so the
    /// first checked re-read of a written-back line fails — exercising
    /// the failure-context dump path. No-op without a mirror.
    pub fn poison_mirror(&mut self) {
        if let Some(m) = self.mirror.as_mut() {
            m.poison();
        }
    }

    /// Shares an event-trace ring with this strategy; its contents are
    /// appended to the panic message when the mirror oracle fires.
    pub fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        self.trace = Some(ring);
    }

    /// Arms the fault injector (see [`crate::faults`]). BLEM (when
    /// present) switches to fault-tolerant decode so corrupted images
    /// produce deterministic garbage blocks — caught by the mirror
    /// oracle and attributed to their fault class — instead of panics
    /// deep inside the decompressors.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        if let Some(b) = self.blem.as_mut() {
            b.set_fault_tolerant_decode(true);
        }
        if let Some(c) = self.cram.as_mut() {
            c.set_fault_tolerant_decode(true);
        }
        self.faults = Some(Box::new(FaultInjector::new(plan)));
    }

    /// Arms the device-integrity engine (see [`crate::integrity`]):
    /// soft errors at `ber_ppm` ppm of line-touches (0 = none) below a
    /// modeled SEC-DED ECC layer (`ecc`), with poison propagation and
    /// per-strategy recovery on uncorrectable reads.
    pub fn enable_integrity(&mut self, seed: u64, ber_ppm: u64, ecc: bool) {
        self.integrity = Some(Box::new(IntegrityEngine::new(seed, ber_ppm, ecc)));
    }

    /// Integrity counters, when the engine is armed.
    pub fn integrity_stats(&self) -> Option<IntegrityStats> {
        self.integrity.as_ref().map(|e| e.stats())
    }

    /// Extra read latency of the ECC syndrome check in bus cycles (one
    /// when the ECC pipeline is modeled, zero otherwise).
    pub fn ecc_read_delay_bus_cycles(&self) -> u64 {
        u64::from(self.integrity.as_ref().is_some_and(|e| e.ecc_enabled()))
    }

    /// One background scrub check of `line` (see
    /// [`IntegrityEngine::scrub_line`]); no-op without the engine.
    pub fn scrub_line(&mut self, line: u64, backend: &MemoryBackend) {
        if let Some(eng) = self.integrity.as_mut() {
            eng.scrub_line(line, backend);
        }
    }

    /// Accounts a scrub slot skipped because the controller was busy.
    pub fn note_scrub_busy(&mut self) {
        if let Some(eng) = self.integrity.as_mut() {
            eng.note_scrub_busy();
        }
    }

    /// Runs the fault-injection schedule for bus cycle `now`. Returns
    /// `None` when faults are off or no injection is due; otherwise the
    /// actions/events the system must apply.
    pub fn apply_faults(&mut self, now: u64) -> Option<FaultOutcome> {
        let Self {
            images,
            blem,
            cram,
            meta_cache,
            faults,
            pristine_probe,
            ..
        } = self;
        let inj = faults.as_mut()?;
        let mut targets = FaultTargets {
            images,
            blem: blem.as_mut(),
            cram: cram.as_mut(),
            meta_cache: meta_cache.as_mut(),
        };
        let outcome = inj.tick(now, &mut targets);
        if outcome.is_some() {
            // An injection landed: a key swap changes every pristine
            // line's scrambled image (and so its CID-collision bit), so
            // every cached probe is now suspect.
            pristine_probe.get_mut().clear();
        }
        outcome
    }

    /// The next scheduled injection tick (`u64::MAX` when faults are off
    /// or the event budget is spent) — the event engine clamps its skip
    /// horizon to this so both engines inject at identical cycles.
    pub fn next_fault_tick(&self) -> u64 {
        self.faults.as_ref().map_or(u64::MAX, |f| f.next_tick())
    }

    /// Per-class fault counters, when injection is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The attached trace ring's dump, prefixed with a newline, or the
    /// empty string when no ring is attached. Evaluated only inside
    /// failure paths.
    fn trace_dump(&self) -> String {
        self.trace
            .as_ref()
            .map(|r| format!("\n{}", attache_metrics::dump_shared(r)))
            .unwrap_or_default()
    }

    /// The mirror oracle's activity counters, if it is enabled.
    pub fn mirror_stats(&self) -> Option<MirrorStats> {
        self.mirror.as_ref().map(|m| m.stats())
    }

    /// Oracle hook (Attaché written path): the block the BLEM decode
    /// produced must be byte-identical to the snapshot taken when the
    /// line was written back. This is the end-to-end losslessness check
    /// across compression, the CID/XID header, scrambling, and the
    /// Replacement Area.
    fn mirror_check_decoded(&mut self, line: u64, decoded: &[u8; 64]) {
        let Self {
            kind,
            mirror,
            trace,
            faults,
            ..
        } = self;
        let Some(mirror) = mirror.as_mut() else {
            // No oracle to check against: if this line carries an
            // injected corruption, the read just consumed it silently.
            if let Some(inj) = faults.as_mut() {
                inj.note_unverified_read(line);
            }
            return;
        };
        match mirror.check_read(line, decoded) {
            Ok(()) => {
                if let Some(inj) = faults.as_mut() {
                    inj.note_clean_read(line);
                }
            }
            Err(m) => {
                if let Some(inj) = faults.as_mut() {
                    if inj.note_mismatch(line) {
                        // Attributed to an injected fault: count the
                        // detection and re-align the shadow record to the
                        // corrupted decode, so the run continues and only
                        // *new* divergences fire.
                        mirror.heal(line, decoded);
                        return;
                    }
                }
                let dump = trace
                    .as_ref()
                    .map(|r| format!("\n{}", attache_metrics::dump_shared(r)))
                    .unwrap_or_default();
                panic!("[attache-sim] {kind} mirror oracle: {m}{dump}");
            }
        }
    }

    /// Oracle hook (Attaché pristine path): a read that skipped the
    /// functional decode is only legal for a line that was never written
    /// back — a recorded snapshot here means the strategy lost track of
    /// a stored image.
    fn mirror_check_pristine(&mut self, line: u64) {
        if let Some(mirror) = self.mirror.as_ref() {
            assert!(
                mirror.recorded(line).is_none(),
                "[attache-sim] {} mirror oracle: line {line:#x} was written back \
                 but the read took the pristine path{}",
                self.kind,
                self.trace_dump()
            );
        }
    }

    /// Oracle hook (MetadataCache / Oracle): those strategies store lines
    /// verbatim, so there are no decoded bytes to diff; instead the
    /// stored-layout classification the read resolved is re-derived from
    /// the snapshot bytes and cross-checked.
    fn mirror_check_classification(&mut self, line: u64, comp: bool) {
        let Some(rec) = self.mirror.as_ref().and_then(|m| m.recorded(line)).copied() else {
            return;
        };
        let expect = self.engine.fits_subrank(&rec);
        // Count it as a checked read (the byte comparison is the identity
        // for verbatim strategies, so `check_read` cannot fail here).
        let mirror = self.mirror.as_mut().expect("mirror present");
        mirror.check_read(line, &rec).expect("identity check");
        assert_eq!(
            comp,
            expect,
            "[attache-sim] {} mirror oracle: line {line:#x} classified \
             compressed={comp} but the stored bytes compress to {expect}{}",
            self.kind,
            self.trace_dump()
        );
    }

    /// The compressed line's home sub-rank: odd rows in sub-rank 0, even
    /// rows in sub-rank 1 (§IV-E).
    pub fn primary_subrank(&self, line: u64) -> SubrankId {
        SubrankId((self.mapping.decompose(line).row % 2) as u8)
    }

    /// The block holding `line`'s compression metadata. Following the
    /// paper's Fig. 7, metadata lives **in the same DRAM row** as its
    /// data (the head block of the row), so an install issued around the
    /// data access is a row-buffer hit, not a second random access.
    pub fn metadata_line_of(&self, line: u64) -> u64 {
        let mut loc = self.mapping.decompose(line);
        loc.col = 0;
        self.mapping.compose(loc)
    }

    /// The stored layout's compressibility for `line`.
    ///
    /// Lines that were written back carry explicit state; lines still in
    /// their boot-time (pristine) state are evaluated on demand — the
    /// stored image is a deterministic function of the pristine contents,
    /// so nothing needs to be materialized.
    fn actual_compressed(&self, line: u64, backend: &MemoryBackend) -> bool {
        match self.kind {
            MetadataStrategyKind::Baseline => false,
            MetadataStrategyKind::Attache | MetadataStrategyKind::Cram => {
                match self.images.get(&line) {
                    Some(img) => img.is_compressed(),
                    None => self.probe_pristine(line, backend).0,
                }
            }
            MetadataStrategyKind::MetadataCache | MetadataStrategyKind::Oracle => {
                match self.stored_comp.get(&line) {
                    Some(&c) => c,
                    None => self.probe_pristine(line, backend).0,
                }
            }
        }
    }

    /// Probes `line`'s pristine contents through the per-line cache:
    /// `(compressed, cid_collision)` for Attaché, `(compressed,
    /// marker_collision)` for Cram, `(fits_subrank, false)` for the
    /// verbatim strategies. Every demand read of a never-written line
    /// lands here (often twice: plan + resolve), so the cache turns the
    /// steady-state cost into one map lookup.
    fn probe_pristine(&self, line: u64, backend: &MemoryBackend) -> (bool, bool) {
        if let Some(&hit) = self.pristine_probe.borrow().get(&line) {
            return hit;
        }
        let result = match self.kind {
            MetadataStrategyKind::Attache => {
                let blem = self.blem.as_ref().expect("attache has blem");
                blem.probe_line(line, &backend.pristine_content(line))
            }
            MetadataStrategyKind::Cram => {
                let cram = self.cram.as_ref().expect("cram present");
                cram.probe(&backend.pristine_content(line))
            }
            _ => (
                self.engine.fits_subrank(&backend.pristine_content(line)),
                false,
            ),
        };
        self.pristine_probe.borrow_mut().insert(line, result);
        result
    }

    /// Plans a demand read of `line` for `core`.
    pub fn plan_read(&mut self, line: u64, core: u8, backend: &MemoryBackend) -> ReadPlan {
        let actual = self.actual_compressed(line, backend);
        let demand = Origin::Demand { core };
        match self.kind {
            MetadataStrategyKind::Baseline => ReadPlan {
                meta_first: None,
                data: ReqSpec {
                    line,
                    kind: AccessKind::Read,
                    width: AccessWidth::Full,
                    origin: demand,
                },
                side: Vec::new(),
                predicted_compressed: None,
            },
            MetadataStrategyKind::Oracle => ReadPlan {
                meta_first: None,
                data: ReqSpec {
                    line,
                    kind: AccessKind::Read,
                    width: self.width_for(line, actual),
                    origin: demand,
                },
                side: Vec::new(),
                predicted_compressed: None,
            },
            MetadataStrategyKind::MetadataCache => {
                let mc = self.meta_cache.as_mut().expect("metadata cache present");
                let lookup = mc.lookup(line);
                let meta_line = self.metadata_line_of(line);
                let meta_first = lookup.install_read.then_some(ReqSpec {
                    line: meta_line,
                    kind: AccessKind::Read,
                    width: AccessWidth::Full,
                    origin: Origin::MetadataInstall,
                });
                let side = if lookup.eviction_write {
                    vec![ReqSpec {
                        line: meta_line,
                        kind: AccessKind::Write,
                        width: AccessWidth::Full,
                        origin: Origin::MetadataWriteback,
                    }]
                } else {
                    Vec::new()
                };
                ReadPlan {
                    meta_first,
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Read,
                        width: self.width_for(line, actual),
                        origin: demand,
                    },
                    side,
                    predicted_compressed: None,
                }
            }
            MetadataStrategyKind::Attache => {
                let predicted = self.copr.as_ref().expect("copr present").predict(line);
                let width = self.width_for(line, predicted);
                ReadPlan {
                    meta_first: None,
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Read,
                        width,
                        origin: demand,
                    },
                    side: Vec::new(),
                    predicted_compressed: Some(predicted),
                }
            }
            MetadataStrategyKind::Cram => ReadPlan {
                meta_first: None,
                data: ReqSpec {
                    line,
                    kind: AccessKind::Read,
                    // Implicit metadata: the controller cannot know the
                    // stored width until the data arrives, so it always
                    // fetches the marker-bearing half first and corrects
                    // when the marker is absent.
                    width: AccessWidth::Half(self.primary_subrank(line)),
                    origin: demand,
                },
                side: Vec::new(),
                predicted_compressed: None,
            },
        }
    }

    fn width_for(&self, line: u64, compressed: bool) -> AccessWidth {
        if compressed {
            AccessWidth::Half(self.primary_subrank(line))
        } else {
            AccessWidth::Full
        }
    }

    /// Called when the demand data read of `line` completes; appends the
    /// follow-up requests the transaction must still wait on (corrective
    /// second-half fetches, Replacement-Area reads) to `follow`, a
    /// caller-owned scratch buffer that is cleared first — reusing it
    /// keeps the per-read fast path allocation-free.
    pub fn on_read_data(
        &mut self,
        line: u64,
        predicted: Option<bool>,
        core: u8,
        backend: &MemoryBackend,
        follow: &mut Vec<ReqSpec>,
    ) {
        follow.clear();
        self.stats.reads += 1;
        // The device/ECC layer sees the read first: by the time bytes
        // reach the decode chain below they are corrected — or the read
        // is poisoned and a recovery path is appended after the arm.
        let verdict = match self.integrity.take() {
            Some(mut eng) => {
                let compressed = self.actual_compressed(line, backend);
                let primary = self.primary_subrank(line).0;
                let v = eng.touch_read(line, primary, compressed, backend);
                self.integrity = Some(eng);
                Some(v)
            }
            None => None,
        };
        match self.kind {
            MetadataStrategyKind::Baseline => {}
            MetadataStrategyKind::MetadataCache | MetadataStrategyKind::Oracle => {
                let comp = self.actual_compressed(line, backend);
                if comp {
                    self.stats.compressed_reads += 1;
                }
                self.mirror_check_classification(line, comp);
            }
            MetadataStrategyKind::Attache => {
                // Written-back lines go through the full functional BLEM
                // read (verifying the header flow and servicing the RA);
                // pristine lines are evaluated with the (cached) pure probe.
                let (actual, collision, decoded) = match self.images.get(&line) {
                    Some(image) => {
                        let image = image.clone();
                        let blem = self.blem.as_mut().expect("blem present");
                        let (block, info) = blem.read_line(line, &image);
                        (info.compressed, info.collision, Some(block))
                    }
                    None => {
                        let (c, coll) = self.probe_pristine(line, backend);
                        (c, coll, None)
                    }
                };
                match decoded {
                    Some(block) => self.mirror_check_decoded(line, &block),
                    None => self.mirror_check_pristine(line),
                }
                if actual {
                    self.stats.compressed_reads += 1;
                }
                let predicted = predicted.expect("attache reads carry a prediction");
                let copr = self.copr.as_mut().expect("copr present");
                copr.record(line, predicted, actual);
                copr.train(line, actual);
                if predicted && !actual {
                    // COPR overpredicted: fetch the other 32B half.
                    follow.push(ReqSpec {
                        line,
                        kind: AccessKind::Read,
                        width: AccessWidth::Half(self.primary_subrank(line).other()),
                        origin: Origin::Corrective { core },
                    });
                }
                if collision {
                    follow.push(ReqSpec {
                        line: backend.ra_line_of(line),
                        kind: AccessKind::Read,
                        width: AccessWidth::Full,
                        origin: Origin::ReplacementArea,
                    });
                }
            }
            MetadataStrategyKind::Cram => {
                // Written-back lines go through the full functional CRAM
                // read (marker classification, escape restoration);
                // pristine lines are evaluated with the (cached) pure
                // probe.
                let (compressed, exception, decoded) = match self.images.get(&line) {
                    Some(image) => {
                        let image = image.clone();
                        let cram = self.cram.as_mut().expect("cram present");
                        let (block, info) = cram.read_line(line, &image);
                        (info.compressed, info.exception, Some(block))
                    }
                    None => {
                        let (c, exc) = self.probe_pristine(line, backend);
                        (c, exc, None)
                    }
                };
                match decoded {
                    Some(block) => self.mirror_check_decoded(line, &block),
                    None => self.mirror_check_pristine(line),
                }
                if compressed {
                    self.stats.compressed_reads += 1;
                } else {
                    // The optimistic half read found no marker: the line
                    // is stored full-width, fetch the other half.
                    follow.push(ReqSpec {
                        line,
                        kind: AccessKind::Read,
                        width: AccessWidth::Half(self.primary_subrank(line).other()),
                        origin: Origin::Corrective { core },
                    });
                }
                if exception {
                    // Escape-led line: the parked bytes live in the
                    // exception region (the RA address range doubles as
                    // CRAM's exception store).
                    follow.push(ReqSpec {
                        line: backend.ra_line_of(line),
                        kind: AccessKind::Read,
                        width: AccessWidth::Full,
                        origin: Origin::ReplacementArea,
                    });
                }
            }
        }
        if verdict == Some(EccVerdict::Poisoned) {
            self.recover_poisoned(line, core, backend, follow);
        }
    }

    /// Graceful degradation on a detected-uncorrectable read: each
    /// strategy re-sources the line from whatever redundancy it has,
    /// paying the traffic; Baseline has none and surfaces the loss as an
    /// accounted machine-check outcome instead of panicking.
    fn recover_poisoned(
        &mut self,
        line: u64,
        core: u8,
        backend: &MemoryBackend,
        follow: &mut Vec<ReqSpec>,
    ) {
        let full_reread = ReqSpec {
            line,
            kind: AccessKind::Read,
            width: AccessWidth::Full,
            origin: Origin::Corrective { core },
        };
        match self.kind {
            MetadataStrategyKind::Baseline => {
                let eng = self.integrity.as_mut().expect("poison implies engine");
                eng.surface_unrecoverable(line);
                return;
            }
            MetadataStrategyKind::Oracle => {
                // Ideal metadata: the bound re-reads at full width and
                // recovers by fiat.
                follow.push(full_reread);
            }
            MetadataStrategyKind::MetadataCache => {
                // The cached metadata covering the line can no longer be
                // trusted: invalidate it, re-install from DRAM, then
                // re-read the data at full width.
                let mc = self.meta_cache.as_mut().expect("metadata cache present");
                mc.fault_invalidate_covering(line);
                follow.push(ReqSpec {
                    line: self.metadata_line_of(line),
                    kind: AccessKind::Read,
                    width: AccessWidth::Full,
                    origin: Origin::MetadataInstall,
                });
                follow.push(full_reread);
            }
            MetadataStrategyKind::Attache => {
                // The header bits travel inside the poisoned line, so
                // the displaced-bit copy in the Replacement Area is the
                // redundancy: refetch it, then the full-width line.
                follow.push(ReqSpec {
                    line: backend.ra_line_of(line),
                    kind: AccessKind::Read,
                    width: AccessWidth::Full,
                    origin: Origin::ReplacementArea,
                });
                follow.push(full_reread);
            }
            MetadataStrategyKind::Cram => {
                // The marker is implicit in the poisoned bytes: fetch
                // the other half (full-width view) and consult the
                // exception store for an escape-parked copy.
                follow.push(ReqSpec {
                    line: backend.ra_line_of(line),
                    kind: AccessKind::Read,
                    width: AccessWidth::Full,
                    origin: Origin::ReplacementArea,
                });
                follow.push(full_reread);
            }
        }
        let eng = self.integrity.as_mut().expect("poison implies engine");
        eng.recover(line);
    }

    /// Plans a writeback of `line` (LLC dirty eviction) for `core`.
    pub fn plan_write(&mut self, line: u64, _core: u8, backend: &MemoryBackend) -> WritePlan {
        self.stats.writes += 1;
        if let Some(mirror) = self.mirror.as_mut() {
            // Snapshot exactly what the strategy is being asked to store;
            // the live backend contents may advance past this (store-issue
            // time versioning) before the line is next read.
            mirror.record_write(line, &backend.content(line));
        }
        let mut wrote_collision = false;
        let plan = match self.kind {
            MetadataStrategyKind::Baseline => WritePlan {
                data: ReqSpec {
                    line,
                    kind: AccessKind::Write,
                    width: AccessWidth::Full,
                    origin: Origin::Writeback,
                },
                side: Vec::new(),
            },
            MetadataStrategyKind::Oracle => {
                let c = self.engine.fits_subrank(&backend.content(line));
                self.stored_comp.insert(line, c);
                if c {
                    self.stats.compressed_writes += 1;
                }
                WritePlan {
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Write,
                        width: self.width_for(line, c),
                        origin: Origin::Writeback,
                    },
                    side: Vec::new(),
                }
            }
            MetadataStrategyKind::MetadataCache => {
                let c = self.engine.fits_subrank(&backend.content(line));
                let old = self
                    .stored_comp
                    .insert(line, c)
                    .unwrap_or_else(|| self.probe_pristine(line, backend).0);
                if c {
                    self.stats.compressed_writes += 1;
                }
                let changed = old != c;
                let mc = self.meta_cache.as_mut().expect("metadata cache present");
                let lookup = if changed {
                    mc.update(line)
                } else {
                    mc.lookup(line)
                };
                let meta_line = self.metadata_line_of(line);
                let mut side = Vec::new();
                if lookup.install_read {
                    side.push(ReqSpec {
                        line: meta_line,
                        kind: AccessKind::Read,
                        width: AccessWidth::Full,
                        origin: Origin::MetadataInstall,
                    });
                }
                if lookup.eviction_write {
                    side.push(ReqSpec {
                        line: meta_line,
                        kind: AccessKind::Write,
                        width: AccessWidth::Full,
                        origin: Origin::MetadataWriteback,
                    });
                }
                WritePlan {
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Write,
                        width: self.width_for(line, c),
                        origin: Origin::Writeback,
                    },
                    side,
                }
            }
            MetadataStrategyKind::Attache => {
                let blem = self.blem.as_mut().expect("blem present");
                let w = blem.write_line(line, &backend.content(line));
                let compressed = w.compressed;
                let collision = w.collision;
                wrote_collision = collision;
                self.images.insert(line, w.image);
                if compressed {
                    self.stats.compressed_writes += 1;
                }
                self.copr
                    .as_mut()
                    .expect("copr present")
                    .train(line, compressed);
                let mut side = Vec::new();
                if collision {
                    side.push(ReqSpec {
                        line: backend.ra_line_of(line),
                        kind: AccessKind::Write,
                        width: AccessWidth::Full,
                        origin: Origin::ReplacementArea,
                    });
                }
                WritePlan {
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Write,
                        width: self.width_for(line, compressed),
                        origin: Origin::Writeback,
                    },
                    side,
                }
            }
            MetadataStrategyKind::Cram => {
                let cram = self.cram.as_mut().expect("cram present");
                let w = cram.write_line(line, &backend.content(line));
                let compressed = w.compressed;
                let exception = w.exception;
                wrote_collision = exception;
                self.images.insert(line, w.image);
                if compressed {
                    self.stats.compressed_writes += 1;
                }
                let mut side = Vec::new();
                if exception {
                    // Park the displaced marker-colliding bytes in the
                    // exception region.
                    side.push(ReqSpec {
                        line: backend.ra_line_of(line),
                        kind: AccessKind::Write,
                        width: AccessWidth::Full,
                        origin: Origin::ReplacementArea,
                    });
                }
                WritePlan {
                    data: ReqSpec {
                        line,
                        kind: AccessKind::Write,
                        width: self.width_for(line, compressed),
                        origin: Origin::Writeback,
                    },
                    side,
                }
            }
        };
        if let Some(inj) = self.faults.as_mut() {
            // A write both refreshes the targetable-line lists and
            // absorbs any corruption still pending on this line (the
            // corrupted image was just replaced, so no read can ever
            // surface it).
            inj.note_write(line, wrote_collision);
        }
        if let Some(eng) = self.integrity.as_mut() {
            // The device cells are rewritten: snapshot the clean image
            // and encode fresh check bytes. The plan's data width is
            // the stored layout (half ⇔ compressed).
            let compressed = matches!(plan.data.width, AccessWidth::Half(_));
            eng.note_write(line, &backend.content(line), compressed);
        }
        plan
    }

    /// Read-side latency of the metadata structure consulted before a read
    /// is issued, in **bus cycles** (8 CPU cycles ≈ 3 bus cycles for both
    /// the Metadata-Cache and COPR, per §V; zero for baseline/oracle and
    /// for Cram, which consults nothing before issuing — that is the
    /// point of implicit metadata).
    pub fn lookup_delay_bus_cycles(&self) -> u64 {
        match self.kind {
            MetadataStrategyKind::MetadataCache | MetadataStrategyKind::Attache => 3,
            _ => 0,
        }
    }

    /// Strategy-level counters.
    pub fn stats(&self) -> StrategyStats {
        self.stats
    }

    /// COPR accuracy counters (Attaché only).
    pub fn copr_stats(&self) -> Option<attache_core::copr::CoprStats> {
        self.copr.as_ref().map(|c| c.stats())
    }

    /// COPR accuracy counters split by the predictor component that
    /// answered, in priority order (Attaché only).
    pub fn copr_source_stats(&self) -> Option<[(&'static str, attache_core::copr::CoprStats); 4]> {
        use attache_core::copr::CoprSource;
        self.copr
            .as_ref()
            .map(|c| CoprSource::ALL.map(|s| (s.key(), c.source_stats(s))))
    }

    /// BLEM XID 0→1 forcings among write collisions (Attaché only).
    pub fn blem_xid_flips(&self) -> Option<u64> {
        self.blem.as_ref().map(|b| b.xid_flips())
    }

    /// BLEM counters (Attaché only).
    pub fn blem_stats(&self) -> Option<attache_core::blem::BlemStats> {
        self.blem.as_ref().map(|b| b.stats())
    }

    /// Replacement-Area counters (Attaché only).
    pub fn ra_stats(&self) -> Option<attache_core::replacement_area::ReplacementAreaStats> {
        self.blem.as_ref().map(|b| b.ra_stats())
    }

    /// Metadata-Cache statistics (MetadataCache only).
    pub fn metadata_cache_stats(
        &self,
    ) -> Option<(
        attache_cache::CacheStats,
        attache_cache::metadata_cache::MetadataTraffic,
    )> {
        self.meta_cache.as_ref().map(|m| (m.stats(), m.traffic()))
    }

    /// CRAM implicit-metadata counters (Cram only).
    pub fn cram_stats(&self) -> Option<attache_core::cram::CramStats> {
        self.cram.as_ref().map(|c| c.stats())
    }

    /// Resets all statistics after warm-up (training state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = StrategyStats::default();
        if let Some(c) = self.copr.as_mut() {
            c.reset_stats();
        }
        if let Some(b) = self.blem.as_mut() {
            b.reset_stats();
        }
        if let Some(m) = self.meta_cache.as_mut() {
            m.reset_stats();
        }
        if let Some(c) = self.cram.as_mut() {
            c.reset_stats();
        }
        if let Some(e) = self.integrity.as_mut() {
            e.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attache_cache::MetadataCacheConfig;
    use attache_core::copr::CoprConfig;
    use attache_dram::DramConfig;
    use attache_workloads::Profile;

    fn backend() -> MemoryBackend {
        MemoryBackend::new(&[Profile::stream(), Profile::rand()], 9)
    }

    fn strategy(kind: MetadataStrategyKind) -> Strategy {
        Strategy::new(
            kind,
            AddressMapping::new(DramConfig::table2()),
            MetadataCacheConfig::paper_1mb(),
            CoprConfig::paper_default(1 << 22),
            9,
        )
    }

    #[test]
    fn baseline_reads_and_writes_are_always_full_width() {
        let mut s = strategy(MetadataStrategyKind::Baseline);
        let b = backend();
        for line in [0u64, 17, 999] {
            let plan = s.plan_read(line, 0, &b);
            assert_eq!(plan.data.width, AccessWidth::Full);
            assert!(plan.meta_first.is_none());
            assert!(plan.side.is_empty());
            assert!(plan.predicted_compressed.is_none());
            let wp = s.plan_write(line, 0, &b);
            assert_eq!(wp.data.width, AccessWidth::Full);
            assert!(wp.side.is_empty());
        }
    }

    #[test]
    fn oracle_width_matches_actual_compressibility() {
        let mut s = strategy(MetadataStrategyKind::Oracle);
        let b = backend();
        // Region 1 is RAND (incompressible): oracle must read full width.
        let rand_base = b.core_base(1);
        let plan = s.plan_read(rand_base + 5, 0, &b);
        assert_eq!(plan.data.width, AccessWidth::Full);
        // Find a compressible stream line; oracle must read half width.
        let comp_line = (0..500u64)
            .find(|&l| s.actual_compressed(l, &b))
            .expect("stream region has compressible lines");
        let plan = s.plan_read(comp_line, 0, &b);
        assert!(matches!(plan.data.width, AccessWidth::Half(_)));
    }

    #[test]
    fn primary_subrank_follows_row_parity() {
        let s = strategy(MetadataStrategyKind::Attache);
        let mapping = AddressMapping::new(DramConfig::table2());
        for line in [0u64, 12345, 777_777] {
            let loc = mapping.decompose(line);
            assert_eq!(
                s.primary_subrank(line).0 as usize,
                loc.row % 2,
                "line {line}"
            );
        }
    }

    #[test]
    fn metadata_cache_cold_read_issues_install_then_data() {
        let mut s = strategy(MetadataStrategyKind::MetadataCache);
        let b = backend();
        let plan = s.plan_read(42, 0, &b);
        let meta = plan.meta_first.expect("cold lookup misses");
        assert_eq!(meta.origin, Origin::MetadataInstall);
        assert_eq!(meta.kind, AccessKind::Read);
        assert_eq!(meta.line, s.metadata_line_of(42));
        // Fig. 7 placement: the install targets the same DRAM row.
        let mapping = AddressMapping::new(DramConfig::table2());
        let data_loc = mapping.decompose(42);
        let meta_loc = mapping.decompose(meta.line);
        assert_eq!(meta_loc.row, data_loc.row);
        assert_eq!(meta_loc.bank, data_loc.bank);
        assert_eq!(meta_loc.channel, data_loc.channel);
        // Second read in the covered 128-block region hits: no install.
        let plan2 = s.plan_read(43, 0, &b);
        assert!(plan2.meta_first.is_none());
    }

    #[test]
    fn attache_overprediction_costs_one_corrective_read() {
        let mut s = strategy(MetadataStrategyKind::Attache);
        let b = backend();
        let rand_base = b.core_base(1);
        // Train COPR to believe everything is compressed.
        for i in 0..256 {
            if let Some(copr) = s.copr.as_mut() {
                copr.train(rand_base + i, true);
            }
        }
        let line = rand_base + 3;
        let plan = s.plan_read(line, 0, &b);
        assert_eq!(plan.predicted_compressed, Some(true));
        assert!(matches!(plan.data.width, AccessWidth::Half(_)));
        let mut follow = Vec::new();
        s.on_read_data(line, plan.predicted_compressed, 0, &b, &mut follow);
        let corrective: Vec<_> = follow
            .iter()
            .filter(|f| matches!(f.origin, Origin::Corrective { .. }))
            .collect();
        assert_eq!(corrective.len(), 1, "one corrective half fetch");
        assert!(matches!(
            corrective[0].width,
            AccessWidth::Half(sr) if sr == s.primary_subrank(line).other()
        ));
    }

    #[test]
    fn attache_underprediction_costs_nothing() {
        let mut s = strategy(MetadataStrategyKind::Attache);
        let b = backend();
        // Cold predictor: predicts uncompressed; stream lines are often
        // compressed -> underprediction, but both halves were fetched.
        let comp_line = (0..500u64)
            .find(|&l| s.actual_compressed(l, &b))
            .expect("compressible line exists");
        let plan = s.plan_read(comp_line, 0, &b);
        assert_eq!(plan.predicted_compressed, Some(false));
        assert_eq!(plan.data.width, AccessWidth::Full);
        let mut follow = Vec::new();
        s.on_read_data(comp_line, plan.predicted_compressed, 0, &b, &mut follow);
        assert!(follow.is_empty());
        let stats = s.copr_stats().unwrap();
        assert_eq!(stats.underpredictions, 1);
        assert_eq!(stats.overpredictions, 0);
    }

    #[test]
    fn attache_writeback_of_compressed_line_is_half_width() {
        let mut s = strategy(MetadataStrategyKind::Attache);
        let b = backend();
        let comp_line = (0..500u64)
            .find(|&l| s.actual_compressed(l, &b))
            .expect("compressible line exists");
        let wp = s.plan_write(comp_line, 0, &b);
        assert!(matches!(wp.data.width, AccessWidth::Half(_)));
        assert_eq!(wp.data.origin, Origin::Writeback);
    }

    #[test]
    fn lookup_delays_match_strategies() {
        assert_eq!(
            strategy(MetadataStrategyKind::Baseline).lookup_delay_bus_cycles(),
            0
        );
        assert_eq!(
            strategy(MetadataStrategyKind::Oracle).lookup_delay_bus_cycles(),
            0
        );
        assert_eq!(
            strategy(MetadataStrategyKind::Attache).lookup_delay_bus_cycles(),
            3
        );
        assert_eq!(
            strategy(MetadataStrategyKind::MetadataCache).lookup_delay_bus_cycles(),
            3
        );
        // Implicit metadata consults nothing before issuing.
        assert_eq!(
            strategy(MetadataStrategyKind::Cram).lookup_delay_bus_cycles(),
            0
        );
    }

    #[test]
    fn cram_reads_are_always_optimistic_half_width() {
        let mut s = strategy(MetadataStrategyKind::Cram);
        let b = backend();
        let rand_base = b.core_base(1);
        for line in [0u64, 17, rand_base + 3] {
            let plan = s.plan_read(line, 0, &b);
            assert!(plan.meta_first.is_none());
            assert!(plan.side.is_empty());
            assert!(plan.predicted_compressed.is_none());
            assert_eq!(
                plan.data.width,
                AccessWidth::Half(s.primary_subrank(line)),
                "line {line}"
            );
        }
    }

    #[test]
    fn cram_plain_line_costs_one_corrective_half() {
        let mut s = strategy(MetadataStrategyKind::Cram);
        let b = backend();
        let rand_base = b.core_base(1);
        let line = (rand_base..rand_base + 500)
            .find(|&l| !s.actual_compressed(l, &b))
            .expect("rand region has incompressible lines");
        let plan = s.plan_read(line, 0, &b);
        let mut follow = Vec::new();
        s.on_read_data(line, plan.predicted_compressed, 0, &b, &mut follow);
        assert_eq!(follow.len(), 1, "exactly one corrective fetch");
        assert!(matches!(follow[0].origin, Origin::Corrective { .. }));
        assert!(matches!(
            follow[0].width,
            AccessWidth::Half(sr) if sr == s.primary_subrank(line).other()
        ));
    }

    #[test]
    fn cram_marker_hit_needs_no_follow_up() {
        let mut s = strategy(MetadataStrategyKind::Cram);
        let b = backend();
        let comp_line = (0..500u64)
            .find(|&l| s.actual_compressed(l, &b))
            .expect("stream region has compressible lines");
        // Write it back so the read goes through the functional engine.
        let wp = s.plan_write(comp_line, 0, &b);
        assert!(matches!(wp.data.width, AccessWidth::Half(_)));
        assert!(wp.side.is_empty());
        let plan = s.plan_read(comp_line, 0, &b);
        let mut follow = Vec::new();
        s.on_read_data(comp_line, plan.predicted_compressed, 0, &b, &mut follow);
        assert!(follow.is_empty(), "implicit hit resolves in one access");
        let cs = s.cram_stats().expect("cram stats present");
        assert_eq!(cs.compressed_reads, 1);
        assert_eq!(cs.read_exceptions, 0);
    }

    #[test]
    fn cram_stats_are_exclusive_to_the_cram_strategy() {
        assert!(strategy(MetadataStrategyKind::Cram).cram_stats().is_some());
        for kind in MetadataStrategyKind::ALL {
            if kind != MetadataStrategyKind::Cram {
                assert!(strategy(kind).cram_stats().is_none(), "{kind}");
            }
            // Conversely Cram carries none of the rival machinery.
        }
        let s = strategy(MetadataStrategyKind::Cram);
        assert!(s.copr_stats().is_none());
        assert!(s.blem_stats().is_none());
        assert!(s.ra_stats().is_none());
        assert!(s.metadata_cache_stats().is_none());
    }
}
