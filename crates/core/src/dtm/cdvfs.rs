//! Unit tests of [`ThresholdPolicy`](crate::dtm::ThresholdPolicy) as DTM-CDVFS, coordinated DVFS (Section 4.2.2).

mod tests {
    use cpu_model::CpuConfig;

    use crate::dtm::policy::{DtmPolicy, DtmScheme};
    use crate::dtm::ThresholdPolicy;
    use crate::thermal::params::ThermalLimits;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::new(DtmScheme::Cdvfs, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn frequency_descends_with_rising_temperature() {
        let mut p = policy();
        let freqs: Vec<_> =
            [100.0, 108.5, 109.2, 109.7].iter().map(|&t| p.decide_temps(t, 70.0, 1.0).op.freq_ghz).collect();
        assert_eq!(freqs, vec![3.2, 2.8, 1.6, 0.8]);
    }

    #[test]
    fn voltage_descends_together_with_frequency() {
        let mut p = policy();
        let v_hot = p.decide_temps(109.7, 70.0, 1.0).op.voltage;
        let v_cool = p.decide_temps(100.0, 70.0, 1.0).op.voltage;
        assert!(v_hot < v_cool);
    }

    #[test]
    fn all_cores_remain_active_below_the_tdp() {
        let mut p = policy();
        for t in [100.0, 108.5, 109.2, 109.7] {
            assert_eq!(p.decide_temps(t, 70.0, 1.0).active_cores, 4);
        }
    }

    #[test]
    fn tdp_stops_the_memory() {
        let mut p = policy();
        assert!(!p.decide_temps(110.2, 70.0, 1.0).makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p =
            ThresholdPolicy::with_pid(DtmScheme::Cdvfs, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert_eq!(p.name(), "DTM-CDVFS+PID");
    }
}
