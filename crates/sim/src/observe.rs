//! The observability layer: samples the simulator's existing statistics
//! into an [`attache_metrics::Registry`], optionally snapshotting it
//! into an epoch time-series and feeding a bounded event-trace ring.
//!
//! Everything here follows the pure-observer discipline established by
//! the mirror oracle and the DRAM conformance auditor in PR 3: the
//! observer reads model state, never writes it, and with all knobs off
//! no observer exists at all — `RunReport`s are bit-identical either
//! way (asserted by `crates/sim/tests/observability.rs`).
//!
//! # Metric key scheme
//!
//! Dotted, lexicographically sortable names, stable across runs:
//!
//! * `sim.bus_cycles`, `sim.traffic.{reads,writes}.{data,metadata}` —
//!   the paper's headline split: demand/corrective traffic vs. traffic
//!   that exists only to move metadata (installs, evictions, RA).
//! * `dram.ch{i}.*` — per-channel command mix, row locality, bus
//!   occupancy; `dram.ch{i}.sr{s}.*` — per-sub-rank busy/CAS split;
//!   `dram.ch{i}.read_latency` — a log-2 histogram of read round-trips;
//!   `dram.ch{i}.{read,write}_q_depth` — queue-occupancy gauges at
//!   sample time.
//! * `cache.llc.{policy}.*` / `cache.mc.{policy}.*` — hit/miss/evict by
//!   replacement policy, plus the Metadata-Cache's install/eviction
//!   traffic.
//! * `core.blem.*`, `core.ra.*`, `core.copr.{source}.*` — BLEM
//!   collisions and XID flips, Replacement-Area traffic, and COPR
//!   accuracy split by the predictor component that answered.

use attache_metrics::{EpochSeries, Registry, SharedTraceRing};

use crate::config::SimConfig;
use crate::strategy::Strategy;
use attache_dram::MemorySystem;

/// The observability output of a run: the final cumulative registry,
/// and the epoch series when `ATTACHE_EPOCH`/`with_epoch` was set.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Cumulative metrics over the measured region.
    pub registry: Registry,
    /// Registry snapshots at each epoch boundary plus a final snapshot
    /// (`None` when epoch sampling was disabled).
    pub series: Option<EpochSeries>,
}

/// Per-run observer state, owned by the `System` when any observability
/// knob is on.
#[derive(Debug)]
pub(crate) struct Observer {
    epoch: Option<u64>,
    /// Next bus cycle to snapshot at (`u64::MAX` when disabled).
    next_sample: u64,
    pub(crate) ring: Option<SharedTraceRing>,
    registry: Registry,
    series: EpochSeries,
}

impl Observer {
    /// Builds an observer when `cfg` enables any observability knob.
    pub(crate) fn from_config(cfg: &SimConfig) -> Option<Box<Observer>> {
        if cfg.epoch.is_none() && cfg.trace_ring.is_none() {
            return None;
        }
        Some(Box::new(Observer {
            epoch: cfg.epoch,
            next_sample: u64::MAX, // armed by `reset` at the measured region
            ring: cfg.trace_ring.map(attache_metrics::shared_ring),
            registry: Registry::new(),
            series: EpochSeries::new(),
        }))
    }

    /// Clears the sampled state at the warm-up boundary and arms the
    /// epoch clock relative to `now`. The trace ring is deliberately
    /// *not* cleared: it exists to explain failures, and warm-up events
    /// are valid history.
    pub(crate) fn reset(&mut self, now: u64) {
        self.registry.clear();
        self.series.clear();
        self.next_sample = match self.epoch {
            Some(e) => now + e,
            None => u64::MAX,
        };
    }

    /// The epoch clock's next sample cycle, for the event engine's
    /// horizon (`u64::MAX` when epoch sampling is off).
    pub(crate) fn next_sample(&self) -> u64 {
        self.next_sample
    }

    /// Appends an event to the trace ring, if one is configured. The
    /// caller pays the `format!` only after checking
    /// [`wants_events`](Self::wants_events).
    pub(crate) fn push_event(&self, tick: u64, text: String) {
        if let Some(ring) = &self.ring {
            if let Ok(mut r) = ring.lock() {
                r.push(tick, text);
            }
        }
    }

    /// Whether event pushes would be retained (a ring is configured).
    pub(crate) fn wants_events(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one completed DRAM read's round-trip latency.
    pub(crate) fn record_read_latency(&mut self, channel: usize, latency: u64) {
        self.registry
            .hist_mut(&format!("dram.ch{channel}.read_latency"))
            .record(latency);
    }

    /// Called at the end of every bus tick: takes an epoch snapshot when
    /// the epoch clock expires.
    pub(crate) fn on_tick(
        &mut self,
        now: u64,
        mem: &MemorySystem,
        llc: &attache_cache::Llc,
        strategy: &Strategy,
        cfg: &SimConfig,
    ) {
        if now < self.next_sample {
            return;
        }
        self.refresh(now, mem, llc, strategy, cfg);
        self.series.push(now, self.registry.clone());
        let epoch = self.epoch.expect("sampling implies an epoch");
        self.next_sample = now + epoch;
        self.push_event(now, format!("epoch sample #{}", self.series.len()));
    }

    /// Takes the final snapshot and hands the observation out.
    pub(crate) fn finish(
        &mut self,
        now: u64,
        mem: &MemorySystem,
        llc: &attache_cache::Llc,
        strategy: &Strategy,
        cfg: &SimConfig,
    ) -> Observation {
        self.refresh(now, mem, llc, strategy, cfg);
        if self.epoch.is_some() {
            // A final snapshot so per-epoch deltas sum to the totals
            // even when the run ends mid-epoch. Skip the duplicate when
            // the last tick happened to land exactly on a boundary.
            if self.series.last().map(|s| s.tick) != Some(now) {
                self.series.push(now, self.registry.clone());
            }
        }
        Observation {
            registry: self.registry.clone(),
            series: self.epoch.map(|_| self.series.clone()),
        }
    }

    /// Copies every model statistic into the registry (counters and
    /// gauges; the read-latency histograms accumulate incrementally).
    fn refresh(
        &mut self,
        now: u64,
        mem: &MemorySystem,
        llc: &attache_cache::Llc,
        strategy: &Strategy,
        cfg: &SimConfig,
    ) {
        let _ = now;
        let r = &mut self.registry;

        // sim.* — the metadata-bandwidth split the paper argues from.
        let m = mem.stats();
        r.set_counter("sim.bus_cycles", m.cycles);
        r.set_counter(
            "sim.traffic.reads.data",
            m.demand_reads + m.corrective_reads,
        );
        r.set_counter(
            "sim.traffic.reads.metadata",
            m.metadata_reads + m.replacement_area_reads,
        );
        r.set_counter("sim.traffic.writes.data", m.data_writes);
        r.set_counter(
            "sim.traffic.writes.metadata",
            m.metadata_writes + m.replacement_area_writes,
        );

        // dram.ch{i}.* — per-channel command mix and occupancy.
        let depths = mem.queue_depths();
        let sr_busy = mem.subrank_busy();
        let sr_cas = mem.subrank_cas();
        for (i, ch) in mem.channel_stats().iter().enumerate() {
            let p = format!("dram.ch{i}");
            r.set_counter(&format!("{p}.demand_reads"), ch.demand_reads);
            r.set_counter(&format!("{p}.data_writes"), ch.data_writes);
            r.set_counter(&format!("{p}.row_hits"), ch.row_hits);
            r.set_counter(&format!("{p}.row_misses"), ch.row_misses);
            r.set_counter(&format!("{p}.activates"), ch.activates);
            r.set_counter(&format!("{p}.precharges"), ch.precharges);
            r.set_counter(&format!("{p}.refreshes"), ch.refreshes);
            r.set_counter(&format!("{p}.bytes"), ch.bytes);
            r.set_counter(&format!("{p}.busy_bus_cycles"), ch.busy_bus_cycles);
            r.set_counter(&format!("{p}.forwarded_reads"), ch.forwarded_reads);
            r.set_gauge(&format!("{p}.read_q_depth"), depths[i].0 as f64);
            r.set_gauge(&format!("{p}.write_q_depth"), depths[i].1 as f64);
            for (s, (&busy, &cas)) in sr_busy[i].iter().zip(&sr_cas[i]).enumerate() {
                r.set_counter(&format!("{p}.sr{s}.busy_cycles"), busy);
                r.set_counter(&format!("{p}.sr{s}.cas"), cas);
            }
        }

        // cache.llc.{policy}.* — keyed by replacement policy so sweeps
        // over policies produce distinct series.
        let lp = cfg.llc.policy.key();
        let ls = llc.stats();
        r.set_counter(&format!("cache.llc.{lp}.accesses"), ls.accesses);
        r.set_counter(&format!("cache.llc.{lp}.hits"), ls.hits);
        r.set_counter(&format!("cache.llc.{lp}.misses"), ls.misses);
        r.set_counter(&format!("cache.llc.{lp}.evictions"), ls.evictions);
        r.set_counter(
            &format!("cache.llc.{lp}.dirty_evictions"),
            ls.dirty_evictions,
        );

        // cache.mc.{policy}.* — MetadataCache strategy only.
        if let Some((mc, traffic)) = strategy.metadata_cache_stats() {
            let mp = cfg.metadata_cache.policy.key();
            r.set_counter(&format!("cache.mc.{mp}.accesses"), mc.accesses);
            r.set_counter(&format!("cache.mc.{mp}.hits"), mc.hits);
            r.set_counter(&format!("cache.mc.{mp}.misses"), mc.misses);
            r.set_counter(&format!("cache.mc.{mp}.evictions"), mc.evictions);
            r.set_counter(
                &format!("cache.mc.{mp}.dirty_evictions"),
                mc.dirty_evictions,
            );
            r.set_counter(
                &format!("cache.mc.{mp}.install_reads"),
                traffic.install_reads,
            );
            r.set_counter(
                &format!("cache.mc.{mp}.eviction_writes"),
                traffic.eviction_writes,
            );
        }

        // core.* — Attaché strategy only.
        if let Some(b) = strategy.blem_stats() {
            r.set_counter("core.blem.writes", b.writes);
            r.set_counter("core.blem.compressed_writes", b.compressed_writes);
            r.set_counter("core.blem.write_collisions", b.write_collisions);
            r.set_counter("core.blem.reads", b.reads);
            r.set_counter("core.blem.compressed_reads", b.compressed_reads);
            r.set_counter("core.blem.read_collisions", b.read_collisions);
        }
        if let Some(flips) = strategy.blem_xid_flips() {
            r.set_counter("core.blem.xid_flips", flips);
        }
        if let Some(ra) = strategy.ra_stats() {
            r.set_counter("core.ra.reads", ra.reads);
            r.set_counter("core.ra.writes", ra.writes);
        }
        if let Some(total) = strategy.copr_stats() {
            r.set_counter("core.copr.total.predictions", total.predictions);
            r.set_counter("core.copr.total.correct", total.correct);
            r.set_counter("core.copr.total.underpredictions", total.underpredictions);
            r.set_counter("core.copr.total.overpredictions", total.overpredictions);
            r.set_gauge("core.copr.total.accuracy", total.accuracy());
        }
        if let Some(per_source) = strategy.copr_source_stats() {
            for (key, s) in per_source {
                let p = format!("core.copr.{key}");
                r.set_counter(&format!("{p}.predictions"), s.predictions);
                r.set_counter(&format!("{p}.correct"), s.correct);
                r.set_counter(&format!("{p}.underpredictions"), s.underpredictions);
                r.set_counter(&format!("{p}.overpredictions"), s.overpredictions);
                r.set_gauge(&format!("{p}.accuracy"), s.accuracy());
            }
        }

        // core.cram.* — Cram strategy only, so the other strategies'
        // exported key sets are untouched.
        if let Some(c) = strategy.cram_stats() {
            r.set_counter("core.cram.writes", c.writes);
            r.set_counter("core.cram.compressed_writes", c.compressed_writes);
            r.set_counter("core.cram.write_exceptions", c.write_exceptions);
            r.set_counter("core.cram.reads", c.reads);
            r.set_counter("core.cram.compressed_reads", c.compressed_reads);
            r.set_counter("core.cram.read_exceptions", c.read_exceptions);
            r.set_gauge("core.cram.implicit_hit_rate", c.implicit_hit_rate());
        }

        // faults.{class}.* — only when fault injection is armed, so
        // faults-off runs export exactly the same key set as before.
        if let Some(fs) = strategy.fault_stats() {
            for (class, c) in fs.iter() {
                let p = format!("faults.{class}");
                r.set_counter(&format!("{p}.injected"), c.injected);
                r.set_counter(&format!("{p}.detected"), c.detected);
                r.set_counter(&format!("{p}.absorbed"), c.absorbed);
                r.set_counter(&format!("{p}.undetected"), c.undetected);
                r.set_counter(&format!("{p}.skipped"), c.skipped);
            }
        }

        // integrity.* — only when an integrity knob armed the engine, so
        // integrity-off runs export exactly the same key set as before.
        if let Some(i) = strategy.integrity_stats() {
            r.set_counter("integrity.reads_checked", i.reads_checked);
            r.set_counter("integrity.injected_flips", i.injected_flips);
            r.set_counter("integrity.sticky_lines", i.sticky_lines);
            for sr in 0..2 {
                r.set_counter(&format!("integrity.subrank{sr}.corrected"), i.corrected[sr]);
                r.set_counter(
                    &format!("integrity.subrank{sr}.uncorrectable"),
                    i.uncorrectable[sr],
                );
            }
            r.set_counter("integrity.recovered", i.recovered);
            r.set_counter("integrity.sdc_averted", i.sdc_averted);
            r.set_counter("integrity.data_loss", i.data_loss);
            r.set_counter(
                "integrity.silent_corruption_reads",
                i.silent_corruption_reads,
            );
            r.set_counter(
                "integrity.corrupted_bytes_delivered",
                i.corrupted_bytes_delivered,
            );
            r.set_counter("integrity.scrub.checks", i.scrub_checks);
            r.set_counter("integrity.scrub.corrected", i.scrub_corrected);
            r.set_counter("integrity.scrub.uncorrectable", i.scrub_uncorrectable);
            r.set_counter("integrity.scrub.skipped_busy", i.scrub_skipped_busy);
            r.set_counter("integrity.ecc_check_bytes", i.ecc_check_bytes);
        }
    }
}
