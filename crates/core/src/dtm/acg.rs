//! Unit tests of [`ThresholdPolicy`](crate::dtm::ThresholdPolicy) as DTM-ACG, adaptive core gating (Section 4.2.2).

mod tests {
    use cpu_model::CpuConfig;

    use crate::dtm::policy::{DtmPolicy, DtmScheme};
    use crate::dtm::ThresholdPolicy;
    use crate::thermal::params::ThermalLimits;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::new(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn cores_are_gated_one_by_one_with_rising_temperature() {
        let mut p = policy();
        let cores: Vec<_> =
            [100.0, 108.5, 109.2, 109.7].iter().map(|&t| p.decide_temps(t, 70.0, 1.0).active_cores).collect();
        assert_eq!(cores, vec![4, 3, 2, 1]);
    }

    #[test]
    fn memory_bandwidth_is_never_capped_below_the_tdp() {
        let mut p = policy();
        for t in [100.0, 108.5, 109.7] {
            assert_eq!(p.decide_temps(t, 70.0, 1.0).bandwidth_cap, None);
        }
    }

    #[test]
    fn frequency_stays_at_the_top_operating_point() {
        let mut p = policy();
        for t in [100.0, 109.7] {
            assert!((p.decide_temps(t, 70.0, 1.0).op.freq_ghz - 3.2).abs() < 1e-9);
        }
    }

    #[test]
    fn dram_temperature_also_drives_gating() {
        let mut p = policy();
        assert_eq!(p.decide_temps(100.0, 84.2, 1.0).active_cores, 2);
    }

    #[test]
    fn tdp_stops_everything() {
        let mut p = policy();
        let mode = p.decide_temps(110.0, 70.0, 1.0);
        assert_eq!(mode.active_cores, 0);
        assert!(!mode.makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p = ThresholdPolicy::with_pid(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert_eq!(p.name(), "DTM-ACG+PID");
        assert_eq!(p.scheme(), DtmScheme::Acg);
    }
}
