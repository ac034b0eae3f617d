//! Deterministic fault injection: the chaos harness for BLEM/RA
//! recovery paths.
//!
//! Attaché's correctness story rests on rare paths — CID collisions,
//! XID displacement into the Replacement Area, scrambler key
//! sensitivity — that randomized traffic only reaches probabilistically.
//! This module reaches them on purpose: a seeded [`FaultPlan`]
//! (`SimConfig::with_faults` / `ATTACHE_FAULTS=<spec>`) schedules
//! targeted perturbations of the stored state, and the mirror oracle
//! plus the trace ring become the ground truth for which faults the
//! strategy *absorbs* (overwritten before anyone reads the corruption,
//! or provably decode-invisible) versus *surfaces* (a decoded read
//! diverges from the shadow copy and is attributed to its fault class).
//!
//! # Fault classes
//!
//! | class           | target                         | expected outcome          |
//! |-----------------|--------------------------------|---------------------------|
//! | `line_flip`     | one bit of a stored image body | detected or absorbed      |
//! | `cid_forge`     | header forged to `CID‖XID=1`   | detected (false collision)|
//! | `cid_erase`     | CID bit of a colliding header  | detected (lost collision) |
//! | `ra_corrupt`    | a displaced bit in the RA      | detected                  |
//! | `mc_invalidate` | a resident Metadata-Cache line | absorbed (timing only)    |
//! | `key_swap`      | the scrambler key register     | detected per stale line   |
//! | `bus_derate`    | read-queue capacity window     | absorbed (timing only)    |
//!
//! Under the Cram strategy the metadata-bearing state is the in-line
//! marker rather than a CID register, so the classes target the
//! analogous structures: `cid_forge` forges the *marker word* onto a
//! verbatim line (a false compression the fault-tolerant decode chain
//! must degrade through), `cid_erase` scribbles on an escape-led line's
//! first word so the parked bytes are never restored, `ra_corrupt`
//! flips a parked byte in the exception region, and `key_swap` stales
//! every *compressed* payload (verbatim lines carry no scrambling and
//! absorb it). `mc_invalidate` has no target and is skipped.
//!
//! Every injection increments `injected` for its class; its eventual
//! fate lands in exactly one of `detected` (mirror mismatch on a decoded
//! read), `absorbed` (overwritten first, or provably decode-invisible at
//! injection time), or `undetected` (a decoded read of a corrupted line
//! that nobody checked — the mirror was off — or that passed the check;
//! the CI gate asserts this stays zero with the mirror on). Corruptions
//! never read again by run end stay *latent*: `injected` minus the other
//! three. `skipped` counts scheduled injections that found no eligible
//! target; they still consume the event budget so both engines stay in
//! lockstep. Fault counters are cumulative over the whole run — they are
//! deliberately **not** reset at the warm-up boundary, because a fault
//! injected during warm-up can surface in the measured region.
//!
//! All targeting decisions draw from a dedicated
//! [`attache_testkit::Gen`] stream and depend only on model state, which
//! is bit-identical across the cycle and event engines at any given bus
//! tick — so with a fixed plan both engines inject, detect, and absorb
//! identically (asserted by `crates/sim/tests/faults.rs`).

use attache_core::fasthash::FastMap;
use std::collections::{HashMap, HashSet};
use std::fmt;

use attache_cache::MetadataCache;
use attache_core::blem::{Blem, StoredImage};
use attache_core::cram::Cram;
use attache_testkit::Gen;

/// Scheduled injections probe at most this many candidate lines before
/// giving up as `skipped` (keeps a tick's worst-case work bounded).
const MAX_PROBES: usize = 64;

/// The kinds of perturbation the injector knows how to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip one random bit in a stored image's body (past the header).
    LineFlip,
    /// Rewrite a non-colliding uncompressed header to `CID‖XID=1`,
    /// forging a collision the write path never recorded.
    CidForge,
    /// Flip a CID bit of a genuinely colliding header, so the read path
    /// no longer consults the Replacement Area.
    CidErase,
    /// Flip a displaced bit inside the Replacement Area.
    RaCorrupt,
    /// Drop a resident Metadata-Cache line (performance-only).
    McInvalidate,
    /// Swap the scrambler key register mid-run.
    KeySwap,
    /// Temporarily cap the DRAM read queues (timing-only).
    BusDerate,
}

impl FaultClass {
    /// Every class, in the fixed order used for stats indexing and
    /// metric export.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::LineFlip,
        FaultClass::CidForge,
        FaultClass::CidErase,
        FaultClass::RaCorrupt,
        FaultClass::McInvalidate,
        FaultClass::KeySwap,
        FaultClass::BusDerate,
    ];

    /// The stable key used in `ATTACHE_FAULTS=classes=...` specs and in
    /// metric names (`faults.<key>.*`).
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::LineFlip => "line_flip",
            FaultClass::CidForge => "cid_forge",
            FaultClass::CidErase => "cid_erase",
            FaultClass::RaCorrupt => "ra_corrupt",
            FaultClass::McInvalidate => "mc_invalidate",
            FaultClass::KeySwap => "key_swap",
            FaultClass::BusDerate => "bus_derate",
        }
    }

    fn from_key(key: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.key() == key)
    }

    fn index(self) -> usize {
        FaultClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("ALL contains every class")
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Per-class injection/outcome counters. See the module docs for the
/// lifecycle; `injected >= detected + absorbed + undetected` always
/// holds (the remainder is latent at run end), and `skipped` counts
/// scheduled events that found no eligible target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Perturbations actually applied.
    pub injected: u64,
    /// Surfaced as a mirror mismatch on a decoded read and attributed
    /// here.
    pub detected: u64,
    /// Overwritten before any read saw them, or provably
    /// decode-invisible at injection time.
    pub absorbed: u64,
    /// A corrupted line's decode went unchecked (mirror off) or passed
    /// the check; the CI fault stage asserts zero with the mirror on.
    pub undetected: u64,
    /// Scheduled injections with no eligible target.
    pub skipped: u64,
}

/// Counters for all classes, indexed by [`FaultClass::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    counters: [FaultCounters; FaultClass::ALL.len()],
}

impl FaultStats {
    /// The counters for one class.
    pub fn get(&self, class: FaultClass) -> FaultCounters {
        self.counters[class.index()]
    }

    fn get_mut(&mut self, class: FaultClass) -> &mut FaultCounters {
        &mut self.counters[class.index()]
    }

    /// Iterates `(class, counters)` in the fixed export order.
    pub fn iter(&self) -> impl Iterator<Item = (FaultClass, FaultCounters)> + '_ {
        FaultClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// Sum of `injected` over all classes.
    pub fn total_injected(&self) -> u64 {
        self.counters.iter().map(|c| c.injected).sum()
    }

    /// Sum of `undetected` over all classes — the number the CI fault
    /// stage requires to be zero when the mirror oracle is on.
    pub fn total_undetected(&self) -> u64 {
        self.counters.iter().map(|c| c.undetected).sum()
    }

    /// The accounting invariant, checkable at any instant: every outcome
    /// was once an injection, so `injected >= detected + absorbed +
    /// undetected` per class (the remainder is still latent). `skipped`
    /// is deliberately *outside* the inequality — it counts scheduled
    /// events that never applied a perturbation, not injections with a
    /// pending fate. Returns the first violating class, `None` when the
    /// books balance.
    pub fn accounting_violation(&self) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|&class| {
            let c = self.get(class);
            c.injected < c.detected + c.absorbed + c.undetected
        })
    }
}

/// A seeded fault-injection schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the injector's dedicated generator stream.
    pub seed: u64,
    /// Mean spacing between injections in bus cycles (each gap is drawn
    /// uniformly from `1..=2*period`).
    pub period: u64,
    /// Enabled classes (injection draws uniformly among them).
    pub classes: Vec<FaultClass>,
    /// Optional cap on the number of scheduled injection events.
    pub max: Option<u64>,
}

impl FaultPlan {
    /// The default mean injection spacing in bus cycles.
    pub const DEFAULT_PERIOD: u64 = 5_000;

    /// A plan with all classes enabled at the default period.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            period: Self::DEFAULT_PERIOD,
            classes: FaultClass::ALL.to_vec(),
            max: None,
        }
    }

    /// Parses an `ATTACHE_FAULTS` spec.
    ///
    /// Accepted forms: the empty string or `0` (⇒ `Ok(None)`, faults
    /// disabled); a bare integer (⇒ that seed with defaults); or a
    /// comma-separated `key=value` list with keys `seed`, `period`,
    /// `classes` (a `+`-separated list of class keys) and `max`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs; callers on
    /// the env path warn and disable rather than panic.
    pub fn parse(spec: &str) -> Result<Option<FaultPlan>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" {
            return Ok(None);
        }
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(Some(FaultPlan::new(seed)));
        }
        let mut plan = FaultPlan::new(0);
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("seed={value:?} is not a u64"))?;
                }
                "period" => {
                    let p: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("period={value:?} is not a u64"))?;
                    if p == 0 {
                        return Err("period must be >= 1".to_owned());
                    }
                    plan.period = p;
                }
                "classes" => {
                    let mut classes = Vec::new();
                    for name in value.split('+') {
                        let class = FaultClass::from_key(name.trim()).ok_or_else(|| {
                            format!(
                                "unknown fault class {name:?} (valid: {})",
                                FaultClass::ALL.map(FaultClass::key).join(", ")
                            )
                        })?;
                        if !classes.contains(&class) {
                            classes.push(class);
                        }
                    }
                    if classes.is_empty() {
                        return Err("classes= must name at least one class".to_owned());
                    }
                    plan.classes = classes;
                }
                "max" => {
                    plan.max = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("max={value:?} is not a u64"))?,
                    );
                }
                other => return Err(format!("unknown fault-spec key {other:?}")),
            }
        }
        Ok(Some(plan))
    }

    /// Reads `ATTACHE_FAULTS` per call (not cached, so tests can toggle
    /// it). A malformed spec warns on stderr and disables injection — a
    /// typo must not panic a sweep, and it must not silently inject
    /// either.
    pub fn from_env() -> Option<FaultPlan> {
        match std::env::var("ATTACHE_FAULTS") {
            Ok(spec) => match FaultPlan::parse(&spec) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!(
                        "[attache-sim] warning: ATTACHE_FAULTS={spec:?} is invalid ({e}); \
                         fault injection disabled"
                    );
                    None
                }
            },
            Err(_) => None,
        }
    }
}

/// The model state the injector may perturb on one tick, borrowed from
/// the strategy (split-borrowed so the strategy's other fields stay
/// usable).
pub struct FaultTargets<'a> {
    /// The stored-image map (Attaché's / Cram's DRAM contents).
    pub images: &'a mut FastMap<u64, StoredImage>,
    /// The BLEM engine, when the strategy has one.
    pub blem: Option<&'a mut Blem>,
    /// The CRAM implicit-marker engine, when the strategy has one.
    pub cram: Option<&'a mut Cram>,
    /// The Metadata-Cache, when the strategy has one.
    pub meta_cache: Option<&'a mut MetadataCache>,
}

/// A side effect the `System` must apply outside the strategy (the
/// injector cannot reach the DRAM model through [`FaultTargets`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Cap every channel's read queue at `cap` slots until bus cycle
    /// `until`.
    DerateReads {
        /// Effective read-queue capacity during the window.
        cap: usize,
        /// Absolute bus cycle at which the cap lifts.
        until: u64,
    },
}

/// What one injection tick produced.
#[derive(Debug, Default)]
pub struct FaultOutcome {
    /// Actions for the `System` to apply (DRAM-level faults).
    pub actions: Vec<FaultAction>,
    /// Trace-ring event strings (pushed only when a ring is configured).
    pub events: Vec<String>,
}

/// The per-run injector: owns the schedule, the target bookkeeping, and
/// the per-class counters. Constructed only when a [`FaultPlan`] is
/// configured — with faults off, no injector exists and the simulator's
/// behavior is bit-identical to a build without this module.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    gen: Gen,
    /// Absolute bus cycle of the next scheduled injection (`u64::MAX`
    /// once the event budget is exhausted).
    next_tick: u64,
    /// Scheduled injection events so far (skipped ones included — they
    /// consume budget so the schedule stays engine-independent).
    events_fired: u64,
    stats: FaultStats,
    /// Lines carrying an undetected corruption, by the class that
    /// corrupted them first (later faults on the same line do not
    /// re-attribute it).
    pending: HashMap<u64, FaultClass>,
    /// Written-back lines in insertion order (deterministic targeting;
    /// `HashMap` iteration order would diverge between runs).
    written: Vec<u64>,
    written_set: HashSet<u64>,
    /// Lines whose latest write was a CID collision, in insertion order.
    colliding: Vec<u64>,
    colliding_set: HashSet<u64>,
}

impl FaultInjector {
    /// Creates an injector and arms the first injection tick.
    pub fn new(plan: FaultPlan) -> Self {
        let mut gen = Gen::new(plan.seed);
        let next_tick = 1 + gen.below(2 * plan.period.max(1));
        Self {
            plan,
            gen,
            next_tick,
            events_fired: 0,
            stats: FaultStats::default(),
            pending: HashMap::new(),
            written: Vec::new(),
            written_set: HashSet::new(),
            colliding: Vec::new(),
            colliding_set: HashSet::new(),
        }
    }

    /// Per-class counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The next scheduled injection tick, for the event engine's horizon
    /// clamp (`u64::MAX` once the budget is spent).
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Debug-build check of [`FaultStats::accounting_violation`] after
    /// every counter mutation: an outcome recorded without a matching
    /// injection is a classification bug, caught at the mutation that
    /// introduced it rather than at run end.
    fn debug_check_accounting(&self) {
        debug_assert!(
            self.stats.accounting_violation().is_none(),
            "fault accounting violated for class {:?}: {:?}",
            self.stats.accounting_violation(),
            self.stats
        );
    }

    /// Bookkeeping hook for every strategy write: tracks targetable
    /// lines and absorbs any pending corruption (the corrupted image was
    /// just overwritten, so nothing can ever read it).
    pub fn note_write(&mut self, line: u64, collision: bool) {
        if let Some(class) = self.pending.remove(&line) {
            self.stats.get_mut(class).absorbed += 1;
            self.debug_check_accounting();
        }
        if self.written_set.insert(line) {
            self.written.push(line);
        }
        if collision {
            if self.colliding_set.insert(line) {
                self.colliding.push(line);
            }
        } else if self.colliding_set.remove(&line) {
            self.colliding.retain(|&l| l != line);
        }
    }

    /// A decoded read of `line` failed its mirror check. Returns whether
    /// the mismatch is attributable to an injected fault (in which case
    /// it is counted as detected and the caller recovers instead of
    /// panicking).
    pub fn note_mismatch(&mut self, line: u64) -> bool {
        match self.pending.remove(&line) {
            Some(class) => {
                self.stats.get_mut(class).detected += 1;
                self.debug_check_accounting();
                true
            }
            None => false,
        }
    }

    /// A decoded read of `line` passed its mirror check. A pending
    /// corruption that survives a *passing* check was not actually
    /// corrupting the decode — count it as undetected (this is the
    /// safety net for classification bugs, not an expected path).
    pub fn note_clean_read(&mut self, line: u64) {
        if let Some(class) = self.pending.remove(&line) {
            self.stats.get_mut(class).undetected += 1;
            self.debug_check_accounting();
        }
    }

    /// A decoded read of `line` happened with no mirror to check it.
    /// Any pending corruption there is now irrecoverably silent.
    pub fn note_unverified_read(&mut self, line: u64) {
        if let Some(class) = self.pending.remove(&line) {
            self.stats.get_mut(class).undetected += 1;
            self.debug_check_accounting();
        }
    }

    /// Runs the injection schedule for bus cycle `now`. Returns `None`
    /// when no injection is due.
    pub fn tick(&mut self, now: u64, targets: &mut FaultTargets<'_>) -> Option<FaultOutcome> {
        if now < self.next_tick {
            return None;
        }
        let class = self.plan.classes[self.gen.below(self.plan.classes.len() as u64) as usize];
        let mut out = FaultOutcome::default();
        self.inject(class, now, targets, &mut out);
        self.events_fired += 1;
        self.next_tick = if self.plan.max.is_some_and(|m| self.events_fired >= m) {
            u64::MAX
        } else {
            now + 1 + self.gen.below(2 * self.plan.period.max(1))
        };
        Some(out)
    }

    fn inject(
        &mut self,
        class: FaultClass,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) {
        let injected = match class {
            FaultClass::LineFlip => self.inject_line_flip(now, targets, out),
            FaultClass::CidForge => self.inject_cid_forge(now, targets, out),
            FaultClass::CidErase => self.inject_cid_erase(now, targets, out),
            FaultClass::RaCorrupt => self.inject_ra_corrupt(now, targets, out),
            FaultClass::McInvalidate => self.inject_mc_invalidate(now, targets, out),
            FaultClass::KeySwap => self.inject_key_swap(now, targets, out),
            FaultClass::BusDerate => self.inject_bus_derate(now, out),
        };
        if !injected {
            self.stats.get_mut(class).skipped += 1;
        }
        self.debug_check_accounting();
    }

    /// Draws a start index and linearly probes up to [`MAX_PROBES`]
    /// candidates of `list`, returning the first eligible line.
    fn probe(gen: &mut Gen, list: &[u64], mut eligible: impl FnMut(u64) -> bool) -> Option<u64> {
        if list.is_empty() {
            return None;
        }
        let n = list.len();
        let start = gen.below(n as u64) as usize;
        (0..n.min(MAX_PROBES))
            .map(|k| list[(start + k) % n])
            .find(|&line| eligible(line))
    }

    /// Marks `line` pending for `class` unless an earlier fault already
    /// owns it (first fault wins the attribution).
    fn mark_pending(&mut self, line: u64, class: FaultClass) {
        self.pending.entry(line).or_insert(class);
    }

    fn inject_line_flip(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(blem) = targets.blem.as_deref_mut() else {
            return self.inject_line_flip_cram(now, targets, out);
        };
        let images = &mut *targets.images;
        // A line already carrying an outstanding fault is ineligible: a
        // second flip could cancel the first (restoring the data while
        // the line stays pending), which would misread as undetected.
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.written, |l| {
            !pending.contains_key(&l) && images.contains_key(&l)
        }) else {
            return false;
        };
        let image = images.get(&line).expect("probe checked presence");
        let before = blem.peek_line(line, image);
        let mut mutated = image.clone();
        // Flip one bit in the body, past the 2-byte header: header
        // perturbations are their own classes (cid_forge / cid_erase).
        let (bytes, span): (&mut [u8], u64) = match &mut mutated {
            StoredImage::Compressed(b) => (&mut b[..], 30),
            StoredImage::Uncompressed(b) => (&mut b[..], 62),
        };
        let byte = 2 + self.gen.below(span) as usize;
        let bit = self.gen.below(8) as u32;
        bytes[byte] ^= 1 << bit;
        let after = blem.peek_line(line, &mutated);
        let absorbed = after == before;
        images.insert(line, mutated);
        self.stats.get_mut(FaultClass::LineFlip).injected += 1;
        if absorbed {
            // Decode-invisible (e.g. a flip in a compressed image's pad
            // region): classified absorbed at injection, or the
            // zero-undetected gate would misfire.
            self.stats.get_mut(FaultClass::LineFlip).absorbed += 1;
        } else {
            self.mark_pending(line, FaultClass::LineFlip);
        }
        out.events.push(format!(
            "fault line_flip @{now}: line {line:#x} byte {byte} bit {bit}{}",
            if absorbed { " (absorbed)" } else { "" }
        ));
        true
    }

    /// The Cram arm of `line_flip`: same body-bit flip, with the CRAM
    /// engine classifying the corruption as absorbed or pending.
    fn inject_line_flip_cram(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(cram) = targets.cram.as_deref_mut() else {
            return false;
        };
        let images = &mut *targets.images;
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.written, |l| {
            !pending.contains_key(&l) && images.contains_key(&l)
        }) else {
            return false;
        };
        let image = images.get(&line).expect("probe checked presence");
        let before = cram.peek_line(line, image);
        let mut mutated = image.clone();
        // Flip one bit in the body, past the 2-byte marker/escape word:
        // first-word perturbations are their own classes.
        let (bytes, span): (&mut [u8], u64) = match &mut mutated {
            StoredImage::Compressed(b) => (&mut b[..], 30),
            StoredImage::Uncompressed(b) => (&mut b[..], 62),
        };
        let byte = 2 + self.gen.below(span) as usize;
        let bit = self.gen.below(8) as u32;
        bytes[byte] ^= 1 << bit;
        let after = cram.peek_line(line, &mutated);
        let absorbed = after == before;
        images.insert(line, mutated);
        self.stats.get_mut(FaultClass::LineFlip).injected += 1;
        if absorbed {
            self.stats.get_mut(FaultClass::LineFlip).absorbed += 1;
        } else {
            self.mark_pending(line, FaultClass::LineFlip);
        }
        out.events.push(format!(
            "fault line_flip @{now}: line {line:#x} byte {byte} bit {bit}{}",
            if absorbed { " (absorbed)" } else { "" }
        ));
        true
    }

    fn inject_cid_forge(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(blem) = targets.blem.as_deref_mut() else {
            return self.inject_marker_forge_cram(now, targets, out);
        };
        let images = &mut *targets.images;
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.written, |l| {
            !pending.contains_key(&l)
                && matches!(images.get(&l), Some(img @ StoredImage::Uncompressed(_))
                    if !blem.inspect(&img.first_half()).cid_matches)
        }) else {
            return false;
        };
        let Some(StoredImage::Uncompressed(bytes)) = images.get_mut(&line) else {
            unreachable!("probe checked the image kind");
        };
        // Forge `CID‖…‖XID=1`: the read path now takes the collision
        // branch and restores a displaced bit that was never parked.
        let cid = blem.cid();
        let header = (cid.value() << (16 - cid.config().cid_bits)) | 1;
        bytes[..2].copy_from_slice(&header.to_be_bytes());
        self.stats.get_mut(FaultClass::CidForge).injected += 1;
        self.mark_pending(line, FaultClass::CidForge);
        out.events.push(format!(
            "fault cid_forge @{now}: line {line:#x} header {header:#06x}"
        ));
        true
    }

    /// The Cram arm of `cid_forge`: forge the *marker word* onto a
    /// verbatim uncompressed line, so the read path believes it is
    /// compressed and must degrade through the fault-tolerant decode
    /// chain.
    fn inject_marker_forge_cram(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(cram) = targets.cram.as_deref_mut() else {
            return false;
        };
        let images = &mut *targets.images;
        let codec = cram.codec();
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.written, |l| {
            !pending.contains_key(&l)
                && matches!(images.get(&l), Some(StoredImage::Uncompressed(b))
                    if !codec.collides(u16::from_be_bytes([b[0], b[1]])))
        }) else {
            return false;
        };
        let Some(StoredImage::Uncompressed(bytes)) = images.get_mut(&line) else {
            unreachable!("probe checked the image kind");
        };
        let marker = codec.encode(attache_compress::Algorithm::Bdi);
        bytes[..2].copy_from_slice(&marker.to_be_bytes());
        self.stats.get_mut(FaultClass::CidForge).injected += 1;
        self.mark_pending(line, FaultClass::CidForge);
        out.events.push(format!(
            "fault cid_forge @{now}: line {line:#x} marker {marker:#06x}"
        ));
        true
    }

    fn inject_cid_erase(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(blem) = targets.blem.as_deref_mut() else {
            return self.inject_escape_erase_cram(now, targets, out);
        };
        let images = &mut *targets.images;
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.colliding, |l| {
            !pending.contains_key(&l)
                && matches!(images.get(&l), Some(img @ StoredImage::Uncompressed(_))
                    if blem.inspect(&img.first_half()).cid_matches)
        }) else {
            return false;
        };
        let Some(StoredImage::Uncompressed(bytes)) = images.get_mut(&line) else {
            unreachable!("probe checked the image kind");
        };
        // Flip the header's top bit — inside the CID field for every
        // supported width, so the match is guaranteed destroyed and the
        // read path skips the RA restore it needed.
        bytes[0] ^= 0x80;
        self.stats.get_mut(FaultClass::CidErase).injected += 1;
        self.mark_pending(line, FaultClass::CidErase);
        out.events
            .push(format!("fault cid_erase @{now}: line {line:#x}"));
        true
    }

    /// The Cram arm of `cid_erase`: flip a low bit of an escape-led
    /// line's first word. The word now classifies as plain, so the read
    /// path skips the exception-region restore it needed — the parked
    /// bytes are lost.
    fn inject_escape_erase_cram(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(cram) = targets.cram.as_deref_mut() else {
            return false;
        };
        let images = &mut *targets.images;
        let escape = cram.codec().escape_word();
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.colliding, |l| {
            !pending.contains_key(&l)
                && matches!(images.get(&l), Some(StoredImage::Uncompressed(b))
                    if u16::from_be_bytes([b[0], b[1]]) == escape)
        }) else {
            return false;
        };
        let Some(StoredImage::Uncompressed(bytes)) = images.get_mut(&line) else {
            unreachable!("probe checked the image kind");
        };
        // Bit 1 of the first word: distinct from the marker (top-bit
        // distance) and from the escape itself, so the result always
        // classifies as a plain line.
        bytes[1] ^= 0x02;
        self.stats.get_mut(FaultClass::CidErase).injected += 1;
        self.mark_pending(line, FaultClass::CidErase);
        out.events.push(format!(
            "fault cid_erase @{now}: line {line:#x} (escape erased)"
        ));
        true
    }

    fn inject_ra_corrupt(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(blem) = targets.blem.as_deref_mut() else {
            return self.inject_exception_corrupt_cram(now, targets, out);
        };
        let images = &mut *targets.images;
        // The fault must land on a line that will *consult* the RA on
        // its next read: a currently-colliding stored image. Lines with
        // an outstanding fault are ineligible — a second RA flip on the
        // same line would restore the bit and misread as undetected.
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.colliding, |l| {
            !pending.contains_key(&l)
                && matches!(images.get(&l), Some(img @ StoredImage::Uncompressed(_))
                    if blem.inspect(&img.first_half()).cid_matches)
        }) else {
            return false;
        };
        if !blem.fault_flip_ra_bit(line) {
            return false;
        }
        self.stats.get_mut(FaultClass::RaCorrupt).injected += 1;
        self.mark_pending(line, FaultClass::RaCorrupt);
        out.events
            .push(format!("fault ra_corrupt @{now}: line {line:#x}"));
        true
    }

    /// The Cram arm of `ra_corrupt`: flip a parked byte in the exception
    /// region, so the next escape-led read restores corrupted bytes.
    fn inject_exception_corrupt_cram(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(cram) = targets.cram.as_deref_mut() else {
            return false;
        };
        let images = &mut *targets.images;
        let escape = cram.codec().escape_word();
        let pending = &self.pending;
        let Some(line) = Self::probe(&mut self.gen, &self.colliding, |l| {
            !pending.contains_key(&l)
                && cram.has_exception(l)
                && matches!(images.get(&l), Some(StoredImage::Uncompressed(b))
                    if u16::from_be_bytes([b[0], b[1]]) == escape)
        }) else {
            return false;
        };
        if !cram.fault_flip_exception_bit(line) {
            return false;
        }
        self.stats.get_mut(FaultClass::RaCorrupt).injected += 1;
        self.mark_pending(line, FaultClass::RaCorrupt);
        out.events.push(format!(
            "fault ra_corrupt @{now}: line {line:#x} (exception bytes)"
        ));
        true
    }

    fn inject_mc_invalidate(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(mc) = targets.meta_cache.as_deref_mut() else {
            return false;
        };
        let Some(line) = Self::probe(&mut self.gen, &self.written, |l| {
            mc.fault_invalidate_covering(l)
        }) else {
            return false;
        };
        // Dropping a (possibly dirty) metadata line costs a re-install
        // on the next lookup but never corrupts data: injected and
        // absorbed in the same breath.
        let c = self.stats.get_mut(FaultClass::McInvalidate);
        c.injected += 1;
        c.absorbed += 1;
        out.events.push(format!(
            "fault mc_invalidate @{now}: covering line {line:#x}"
        ));
        true
    }

    fn inject_key_swap(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(blem) = targets.blem.as_deref_mut() else {
            return self.inject_key_swap_cram(now, targets, out);
        };
        let images = &mut *targets.images;
        if images.is_empty() {
            return false;
        }
        // Classify per stored line: decode every image under the old key
        // first, swap, then re-decode. Lines already pending keep their
        // first attribution.
        let lines: Vec<u64> = self
            .written
            .iter()
            .copied()
            .filter(|l| images.contains_key(l) && !self.pending.contains_key(l))
            .collect();
        let before: Vec<(u64, attache_compress::Block)> = lines
            .iter()
            .map(|&l| (l, blem.peek_line(l, &images[&l])))
            .collect();
        let new_seed = self.gen.next_u64();
        blem.swap_scrambler_key(new_seed);
        let mut corrupted = 0u64;
        for (line, old) in before {
            let c = self.stats.get_mut(FaultClass::KeySwap);
            c.injected += 1;
            if blem.peek_line(line, &images[&line]) == old {
                c.absorbed += 1;
            } else {
                corrupted += 1;
                self.mark_pending(line, FaultClass::KeySwap);
            }
        }
        out.events.push(format!(
            "fault key_swap @{now}: {corrupted} stale line(s) of {}",
            lines.len()
        ));
        true
    }

    /// The Cram arm of `key_swap`: only compressed payloads are
    /// scrambled (verbatim lines must keep their natural bytes for the
    /// marker comparison), so a swapped key stales exactly the
    /// marker-led lines.
    fn inject_key_swap_cram(
        &mut self,
        now: u64,
        targets: &mut FaultTargets<'_>,
        out: &mut FaultOutcome,
    ) -> bool {
        let Some(cram) = targets.cram.as_deref_mut() else {
            return false;
        };
        let images = &mut *targets.images;
        if images.is_empty() {
            return false;
        }
        let lines: Vec<u64> = self
            .written
            .iter()
            .copied()
            .filter(|l| images.contains_key(l) && !self.pending.contains_key(l))
            .collect();
        let before: Vec<(u64, attache_compress::Block)> = lines
            .iter()
            .map(|&l| (l, cram.peek_line(l, &images[&l])))
            .collect();
        let new_seed = self.gen.next_u64();
        cram.swap_scrambler_key(new_seed);
        let mut corrupted = 0u64;
        for (line, old) in before {
            let c = self.stats.get_mut(FaultClass::KeySwap);
            c.injected += 1;
            if cram.peek_line(line, &images[&line]) == old {
                c.absorbed += 1;
            } else {
                corrupted += 1;
                self.mark_pending(line, FaultClass::KeySwap);
            }
        }
        out.events.push(format!(
            "fault key_swap @{now}: {corrupted} stale line(s) of {}",
            lines.len()
        ));
        true
    }

    fn inject_bus_derate(&mut self, now: u64, out: &mut FaultOutcome) -> bool {
        let period = self.plan.period.max(1);
        let cap = 1 + self.gen.below(3) as usize;
        let dur = period + self.gen.below(period);
        out.actions.push(FaultAction::DerateReads {
            cap,
            until: now + dur,
        });
        // Timing-only, data untouched: injected and absorbed at once.
        let c = self.stats.get_mut(FaultClass::BusDerate);
        c.injected += 1;
        c.absorbed += 1;
        out.events.push(format!(
            "fault bus_derate @{now}: read cap {cap} for {dur} cycles"
        ));
        true
    }
}

/// The panic payload thrown by the cooperative tick-budget watchdog
/// (`SimConfig::with_tick_budget` / `ATTACHE_JOB_TICK_BUDGET`). A caller
/// that catches the unwind can downcast the payload to this type to
/// classify a run as timed out rather than crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickBudgetExceeded {
    /// The configured budget in bus cycles.
    pub budget: u64,
    /// The bus cycle at which the run was cut off.
    pub now: u64,
}

impl fmt::Display for TickBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation exceeded its tick budget ({} bus cycles allowed, at cycle {})",
            self.budget, self.now
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_disabled_forms() {
        assert_eq!(FaultPlan::parse("").unwrap(), None);
        assert_eq!(FaultPlan::parse("0").unwrap(), None);
        assert_eq!(FaultPlan::parse("  ").unwrap(), None);
    }

    #[test]
    fn parse_bare_seed() {
        let plan = FaultPlan::parse("1234").unwrap().unwrap();
        assert_eq!(plan.seed, 1234);
        assert_eq!(plan.period, FaultPlan::DEFAULT_PERIOD);
        assert_eq!(plan.classes, FaultClass::ALL.to_vec());
        assert_eq!(plan.max, None);
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=7,period=100,classes=line_flip+ra_corrupt,max=3")
            .unwrap()
            .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.period, 100);
        assert_eq!(
            plan.classes,
            vec![FaultClass::LineFlip, FaultClass::RaCorrupt]
        );
        assert_eq!(plan.max, Some(3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("period=0").is_err());
        assert!(FaultPlan::parse("classes=nope").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
        assert!(FaultPlan::parse("justwords").is_err());
        assert!(FaultPlan::parse("classes=").is_err());
    }

    #[test]
    fn class_keys_roundtrip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_key(class.key()), Some(class));
        }
        assert_eq!(FaultClass::from_key("bogus"), None);
    }

    #[test]
    fn injector_schedule_is_deterministic() {
        let a = FaultInjector::new(FaultPlan::new(9));
        let b = FaultInjector::new(FaultPlan::new(9));
        assert_eq!(a.next_tick(), b.next_tick());
        assert!(a.next_tick() >= 1);
        assert!(a.next_tick() <= 2 * FaultPlan::DEFAULT_PERIOD);
    }

    #[test]
    fn write_absorbs_pending_corruption() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        inj.mark_pending(42, FaultClass::LineFlip);
        inj.stats.get_mut(FaultClass::LineFlip).injected += 1;
        inj.note_write(42, false);
        let c = inj.stats().get(FaultClass::LineFlip);
        assert_eq!(c.absorbed, 1);
        assert_eq!(c.detected, 0);
    }

    #[test]
    fn mismatch_attributes_to_first_fault() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        inj.stats.get_mut(FaultClass::RaCorrupt).injected += 1;
        inj.stats.get_mut(FaultClass::LineFlip).injected += 1;
        inj.mark_pending(7, FaultClass::RaCorrupt);
        inj.mark_pending(7, FaultClass::LineFlip); // second fault: ignored
        assert!(inj.note_mismatch(7));
        assert_eq!(inj.stats().get(FaultClass::RaCorrupt).detected, 1);
        assert_eq!(inj.stats().get(FaultClass::LineFlip).detected, 0);
        assert!(!inj.note_mismatch(7), "consumed on first report");
    }

    #[test]
    fn unverified_read_counts_undetected() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        inj.stats.get_mut(FaultClass::CidForge).injected += 1;
        inj.mark_pending(5, FaultClass::CidForge);
        inj.note_unverified_read(5);
        assert_eq!(inj.stats().get(FaultClass::CidForge).undetected, 1);
    }

    #[test]
    fn accounting_violation_flags_imbalance_but_not_skips() {
        let mut s = FaultStats::default();
        assert_eq!(s.accounting_violation(), None);
        let c = s.get_mut(FaultClass::RaCorrupt);
        c.injected = 2;
        c.detected = 1;
        c.absorbed = 1;
        assert_eq!(s.accounting_violation(), None, "books balance exactly");
        s.get_mut(FaultClass::RaCorrupt).undetected = 1;
        assert_eq!(
            s.accounting_violation(),
            Some(FaultClass::RaCorrupt),
            "an outcome without an injection is a violation"
        );
        s.get_mut(FaultClass::RaCorrupt).undetected = 0;
        s.get_mut(FaultClass::RaCorrupt).skipped = 100;
        assert_eq!(
            s.accounting_violation(),
            None,
            "skipped events are not injections and stay outside the inequality"
        );
    }

    #[test]
    fn tick_budget_payload_formats() {
        let t = TickBudgetExceeded {
            budget: 10,
            now: 11,
        };
        let s = t.to_string();
        assert!(s.contains("10"), "{s}");
        assert!(s.contains("11"), "{s}");
    }
}
