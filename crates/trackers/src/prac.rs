//! PRAC + ABO with the MOAT policy (Sections II-G, VII).
//!
//! Per-Row Activation Counting keeps one counter in the DRAM array per row,
//! incremented on every ACT. MOAT raises ALERT when any counter crosses the
//! *Alert Threshold* (ATH); the back-off RFM mitigates the hottest tracked
//! row per bank and clears its counter. Row counters are cleared when the
//! refresh-pointer walk refreshes the row.
//!
//! The *performance* cost of PRAC (inflated tRP/tRAS/tRC) is modeled by
//! running the device with [`TimingParams::ddr5_6000_prac`]; this module
//! models only the tracking/mitigation side.
//!
//! [`TimingParams::ddr5_6000_prac`]: mirza_dram::timing::TimingParams::ddr5_6000_prac

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{MitigationLog, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::time::Ps;

/// PRAC per-row counters with MOAT-style reactive mitigation.
pub struct PracMoat {
    /// Alert threshold: a row reaching this count raises ALERT.
    ath: u32,
    mapping: RowMapping,
    rows_per_bank: u32,
    /// Per-bank, per-row activation counters.
    counters: Vec<Vec<u16>>,
    /// Rows at/above ATH awaiting mitigation, per bank.
    pending: Vec<Vec<u32>>,
    /// Total length of the `pending` vectors, so the ALERT poll (once per
    /// issued command) is O(1) instead of a scan over every bank.
    pending_rows: usize,
    stats: MitigationStats,
    log: MitigationLog,
}

impl std::fmt::Debug for PracMoat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PracMoat")
            .field("ath", &self.ath)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PracMoat {
    /// Creates PRAC+MOAT for one sub-channel with alert threshold `ath`.
    ///
    /// MOAT's security bound is `TRH > 2*ATH + ABO slack`; for the paper's
    /// thresholds (>= 500) a comfortable choice is `ath = trh / 4`.
    ///
    /// # Panics
    /// Panics if `ath` is zero or does not fit the 16-bit counter model.
    pub fn new(ath: u32, geom: &Geometry) -> Self {
        assert!(ath > 0, "ATH must be non-zero");
        assert!(ath <= u32::from(u16::MAX), "ATH exceeds counter width");
        let banks = geom.banks_per_subchannel() as usize;
        PracMoat {
            ath,
            // PRAC counters index physical rows directly; the mapping is
            // only needed to translate aggressors to victims.
            mapping: RowMapping::for_geometry(MappingScheme::Sequential, geom),
            rows_per_bank: geom.rows_per_bank,
            counters: vec![vec![0; geom.rows_per_bank as usize]; banks],
            pending: vec![Vec::new(); banks],
            pending_rows: 0,
            stats: MitigationStats::default(),
            log: MitigationLog::new(),
        }
    }

    /// Creates the configuration used for a target double-sided threshold.
    pub fn for_trhd(trhd: u32, geom: &Geometry) -> Self {
        Self::new((trhd / 4).max(1), geom)
    }

    /// The alert threshold.
    pub fn ath(&self) -> u32 {
        self.ath
    }

    /// Current counter of `row` in `bank`.
    pub fn counter(&self, bank: usize, row: u32) -> u32 {
        u32::from(self.counters[bank][row as usize])
    }

    fn mitigate(&mut self, bank: usize, row: u32) {
        self.counters[bank][row as usize] = 0;
        self.stats.mitigations += 1;
        self.stats.victim_rows_refreshed += self.mapping.neighbors(row, 2).len() as u64;
        self.log.push(bank, row);
    }
}

impl Mitigator for PracMoat {
    fn name(&self) -> &'static str {
        "prac-moat"
    }

    fn on_activate(&mut self, bank: usize, row: u32, _now: Ps) {
        self.stats.acts_observed += 1;
        self.stats.acts_candidate += 1;
        let c = &mut self.counters[bank][row as usize];
        *c = c.saturating_add(1);
        if u32::from(*c) == self.ath {
            self.pending[bank].push(row);
            self.pending_rows += 1;
        }
    }

    fn alert_pending(&self) -> bool {
        self.pending_rows > 0
    }

    fn on_ref(&mut self, slice: &RefreshSlice, _now: Ps) {
        // Refreshed rows restart their disturbance budget.
        for bank in 0..self.counters.len() {
            for phys in slice.phys_rows.clone() {
                debug_assert!(phys < self.rows_per_bank);
                self.counters[bank][phys as usize] = 0;
            }
            let before = self.pending[bank].len();
            self.pending[bank].retain(|&r| u32::from(self.counters[bank][r as usize]) >= self.ath);
            self.pending_rows -= before - self.pending[bank].len();
        }
    }

    fn on_rfm(&mut self, alert: bool, _now: Ps) {
        if alert {
            self.stats.alerts_requested += 1;
        }
        for bank in 0..self.pending.len() {
            if let Some(row) = self.pending[bank].pop() {
                self.pending_rows -= 1;
                self.mitigate(bank, row);
            }
        }
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn mapping(&self) -> Option<&RowMapping> {
        Some(&self.mapping)
    }

    fn drain_mitigations(&mut self) -> Vec<(usize, u32)> {
        self.log.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry {
            subchannels: 1,
            ranks: 1,
            banks: 2,
            rows_per_bank: 4096,
            row_bytes: 4096,
            line_bytes: 64,
            subarrays_per_bank: 4,
            rows_per_ref: 16,
        }
    }

    #[test]
    fn no_alert_below_ath() {
        let mut p = PracMoat::new(100, &geom());
        for _ in 0..99 {
            p.on_activate(0, 7, Ps::ZERO);
        }
        assert!(!p.alert_pending());
        assert_eq!(p.counter(0, 7), 99);
    }

    #[test]
    fn alert_at_ath_and_mitigation_resets() {
        let mut p = PracMoat::new(100, &geom());
        for _ in 0..100 {
            p.on_activate(0, 7, Ps::ZERO);
        }
        assert!(p.alert_pending());
        p.on_rfm(true, Ps::ZERO);
        assert!(!p.alert_pending());
        assert_eq!(p.counter(0, 7), 0);
        let s = p.stats();
        assert_eq!(s.mitigations, 1);
        assert_eq!(s.alerts_requested, 1);
        assert_eq!(s.victim_rows_refreshed, 4);
    }

    #[test]
    fn refresh_clears_counters_and_pending() {
        let mut p = PracMoat::new(10, &geom());
        for _ in 0..10 {
            p.on_activate(0, 3, Ps::ZERO);
        }
        assert!(p.alert_pending());
        p.on_ref(
            &RefreshSlice {
                index: 0,
                phys_rows: 0..16,
            },
            Ps::ZERO,
        );
        assert_eq!(p.counter(0, 3), 0);
        assert!(!p.alert_pending(), "refresh disarms the pending row");
    }

    #[test]
    fn benign_spread_traffic_never_alerts() {
        // Typical workloads spread ACTs over many rows: with ATH=125
        // (TRHD=500 config), no row accumulates enough.
        let mut p = PracMoat::for_trhd(500, &geom());
        for i in 0..100_000u32 {
            p.on_activate((i % 2) as usize, i % 4096, Ps::ZERO);
        }
        assert!(!p.alert_pending());
        assert_eq!(p.stats().mitigations, 0);
    }

    #[test]
    fn per_bank_counters_are_independent() {
        let mut p = PracMoat::new(5, &geom());
        for _ in 0..4 {
            p.on_activate(0, 9, Ps::ZERO);
            p.on_activate(1, 9, Ps::ZERO);
        }
        assert_eq!(p.counter(0, 9), 4);
        assert_eq!(p.counter(1, 9), 4);
        assert!(!p.alert_pending());
    }

    #[test]
    fn pending_row_count_tracks_the_vectors_through_refresh_and_rfm() {
        let mut p = PracMoat::new(3, &geom());
        let in_vectors = |p: &PracMoat| p.pending.iter().map(Vec::len).sum::<usize>();
        let mut x: u32 = 12345;
        for step in 0..20_000u32 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            // Few hot rows per bank, so rows cross ATH often and refresh
            // slices (16 rows each) cover some of them.
            p.on_activate(((x >> 16) % 2) as usize, (x >> 20) % 48, Ps::ZERO);
            if step % 97 == 0 {
                let start = (step / 97 % 4) * 16;
                p.on_ref(
                    &RefreshSlice {
                        index: u64::from(step),
                        phys_rows: start..start + 16,
                    },
                    Ps::ZERO,
                );
            }
            if step % 13 == 0 {
                p.on_rfm(step % 2 == 0, Ps::ZERO);
            }
            assert_eq!(p.pending_rows, in_vectors(&p), "step {step}");
            assert_eq!(p.alert_pending(), p.pending_rows > 0);
        }
        assert!(p.stats().mitigations > 0, "the stream must reach RFM pops");
    }
}
