//! DRAMSim2-style current-based energy model.
//!
//! CramSim "models the energy and power overheads using a DRAMSim2 style
//! power calculator" (§V); we do the same: each command contributes energy
//! derived from Micron-datasheet-class IDD currents, and background energy
//! accrues per cycle depending on whether any bank is open.
//!
//! Sub-ranking matters here: a half-width access engages only 4 of the 8
//! chips, so its ACT and burst energy is half that of a full-width access.
//! This, plus the removal of metadata requests, is where Fig. 13's energy
//! savings come from.

/// Datasheet-class electrical parameters (per chip unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// One ACT+PRE pair current, mA.
    pub idd0: f64,
    /// Precharge-standby current, mA.
    pub idd2n: f64,
    /// Active-standby current, mA.
    pub idd3n: f64,
    /// Burst-read current, mA.
    pub idd4r: f64,
    /// Burst-write current, mA.
    pub idd4w: f64,
    /// Refresh current, mA.
    pub idd5: f64,
    /// Row-cycle time in nanoseconds (for ACT energy).
    pub t_rc_ns: f64,
    /// Burst duration in nanoseconds.
    pub t_burst_ns: f64,
    /// Refresh cycle time in nanoseconds.
    pub t_rfc_ns: f64,
    /// Bus-cycle duration in nanoseconds.
    pub cycle_ns: f64,
    /// Chips per rank.
    pub chips_per_rank: u32,
    /// I/O + termination energy per byte moved, pJ.
    pub io_pj_per_byte: f64,
}

impl PowerParams {
    /// DDR4-class defaults at a 1600 MHz bus (0.625 ns cycle).
    pub fn ddr4_1600() -> Self {
        Self {
            vdd: 1.2,
            idd0: 48.0,
            idd2n: 34.0,
            idd3n: 40.0,
            idd4r: 140.0,
            idd4w: 125.0,
            idd5: 250.0,
            t_rc_ns: 46.25,  // 74 cycles * 0.625 ns
            t_burst_ns: 2.5, // 4 cycles * 0.625 ns
            t_rfc_ns: 350.0,
            cycle_ns: 0.625,
            chips_per_rank: 8,
            io_pj_per_byte: 10.0,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::ddr4_1600()
    }
}

/// Accumulated energy, in picojoules, split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Row activate + precharge energy.
    pub act_pre_pj: f64,
    /// Column-read burst energy.
    pub read_pj: f64,
    /// Column-write burst energy.
    pub write_pj: f64,
    /// Refresh energy.
    pub refresh_pj: f64,
    /// Background (standby) energy.
    pub background_pj: f64,
    /// I/O and termination energy.
    pub io_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.act_pre_pj
            + self.read_pj
            + self.write_pj
            + self.refresh_pj
            + self.background_pj
            + self.io_pj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() / 1.0e9
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.act_pre_pj += other.act_pre_pj;
        self.read_pj += other.read_pj;
        self.write_pj += other.write_pj;
        self.refresh_pj += other.refresh_pj;
        self.background_pj += other.background_pj;
        self.io_pj += other.io_pj;
    }
}

/// Converts command events into energy using [`PowerParams`].
///
/// Background energy is tracked as *integer cycle counters* rather than an
/// incrementally-summed f64: the event engine accounts thousands of skipped
/// cycles in one call, and `n` one-cycle f64 additions do not round the same
/// way as one `n`-cycle addition. Counting cycles and multiplying once in
/// [`PowerModel::energy`] makes both engines bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerModel {
    params: PowerParams,
    energy: EnergyBreakdown,
    bg_active_cycles: u64,
    bg_idle_cycles: u64,
}

impl PowerModel {
    /// Creates a model with the given parameters.
    pub fn new(params: PowerParams) -> Self {
        Self {
            params,
            energy: EnergyBreakdown::default(),
            bg_active_cycles: 0,
            bg_idle_cycles: 0,
        }
    }

    /// The accumulated energy so far.
    pub fn energy(&self) -> EnergyBreakdown {
        let p = &self.params;
        let per_cycle = p.vdd * p.cycle_ns * p.chips_per_rank as f64;
        let mut e = self.energy;
        e.background_pj = p.idd3n * per_cycle * self.bg_active_cycles as f64
            + p.idd2n * per_cycle * self.bg_idle_cycles as f64;
        e
    }

    /// Resets the accumulator (e.g. after warm-up).
    pub fn reset(&mut self) {
        self.energy = EnergyBreakdown::default();
        self.bg_active_cycles = 0;
        self.bg_idle_cycles = 0;
    }

    /// Records an ACT(+eventual PRE) engaging `chips` chips.
    pub fn on_activate(&mut self, chips: u32) {
        let p = &self.params;
        self.energy.act_pre_pj += (p.idd0 - p.idd3n) * p.vdd * p.t_rc_ns * chips as f64;
    }

    /// Records a read burst engaging `chips` chips moving `bytes` bytes.
    pub fn on_read(&mut self, chips: u32, bytes: u64) {
        let p = &self.params;
        self.energy.read_pj += (p.idd4r - p.idd3n) * p.vdd * p.t_burst_ns * chips as f64;
        self.energy.io_pj += p.io_pj_per_byte * bytes as f64;
    }

    /// Records a write burst engaging `chips` chips moving `bytes` bytes.
    pub fn on_write(&mut self, chips: u32, bytes: u64) {
        let p = &self.params;
        self.energy.write_pj += (p.idd4w - p.idd3n) * p.vdd * p.t_burst_ns * chips as f64;
        self.energy.io_pj += p.io_pj_per_byte * bytes as f64;
    }

    /// Records one all-bank refresh of a full rank.
    pub fn on_refresh(&mut self) {
        let p = &self.params;
        self.energy.refresh_pj += (p.idd5 - p.idd2n) * p.vdd * p.t_rfc_ns * p.chips_per_rank as f64;
    }

    /// Records `cycles` of background time with `active` indicating whether
    /// any bank held an open row. Calling this once with `n` cycles is
    /// exactly equivalent to `n` one-cycle calls.
    pub fn on_background(&mut self, cycles: u64, active: bool) {
        if active {
            self.bg_active_cycles += cycles;
        } else {
            self.bg_idle_cycles += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_width_activate_costs_half() {
        let mut full = PowerModel::new(PowerParams::ddr4_1600());
        let mut half = PowerModel::new(PowerParams::ddr4_1600());
        full.on_activate(8);
        half.on_activate(4);
        assert!((full.energy().act_pre_pj - 2.0 * half.energy().act_pre_pj).abs() < 1e-9);
    }

    #[test]
    fn half_width_read_moves_half_the_io_energy() {
        let mut full = PowerModel::new(PowerParams::ddr4_1600());
        let mut half = PowerModel::new(PowerParams::ddr4_1600());
        full.on_read(8, 64);
        half.on_read(4, 32);
        assert!(full.energy().io_pj > half.energy().io_pj);
        assert!((full.energy().io_pj - 2.0 * half.energy().io_pj).abs() < 1e-9);
    }

    #[test]
    fn background_active_exceeds_idle() {
        let mut a = PowerModel::new(PowerParams::ddr4_1600());
        let mut b = PowerModel::new(PowerParams::ddr4_1600());
        a.on_background(1000, true);
        b.on_background(1000, false);
        assert!(a.energy().background_pj > b.energy().background_pj);
    }

    #[test]
    fn totals_sum_components() {
        let mut m = PowerModel::new(PowerParams::ddr4_1600());
        m.on_activate(8);
        m.on_read(8, 64);
        m.on_write(4, 32);
        m.on_refresh();
        m.on_background(100, false);
        let e = m.energy();
        let total =
            e.act_pre_pj + e.read_pj + e.write_pj + e.refresh_pj + e.background_pj + e.io_pj;
        assert!((e.total_pj() - total).abs() < 1e-9);
        assert!(e.total_pj() > 0.0);
    }

    #[test]
    fn bulk_background_is_bit_identical_to_per_cycle() {
        let mut bulk = PowerModel::new(PowerParams::ddr4_1600());
        let mut step = PowerModel::new(PowerParams::ddr4_1600());
        bulk.on_background(977, true);
        bulk.on_background(1231, false);
        for _ in 0..977 {
            step.on_background(1, true);
        }
        for _ in 0..1231 {
            step.on_background(1, false);
        }
        assert_eq!(
            bulk.energy().background_pj.to_bits(),
            step.energy().background_pj.to_bits()
        );
    }

    #[test]
    fn reset_clears_energy() {
        let mut m = PowerModel::new(PowerParams::ddr4_1600());
        m.on_refresh();
        m.reset();
        assert_eq!(m.energy().total_pj(), 0.0);
    }
}
