//! Unit tests of [`ThresholdPolicy`](crate::dtm::ThresholdPolicy) as DTM-COMB, the combined Chapter 5 policy (Section 5.2.2).

mod tests {
    use cpu_model::CpuConfig;

    use crate::dtm::policy::{DtmPolicy, DtmScheme};
    use crate::dtm::ThresholdPolicy;
    use crate::thermal::params::ThermalLimits;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::new(DtmScheme::Comb, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn combines_gating_and_frequency_scaling() {
        let mut p = policy();
        let cool = p.decide_temps(100.0, 70.0, 1.0);
        assert_eq!((cool.active_cores, cool.op.freq_ghz), (4, 3.2));
        let warm = p.decide_temps(108.5, 70.0, 1.0);
        assert_eq!(warm.active_cores, 3);
        assert!(warm.op.freq_ghz < 3.2);
        let hot = p.decide_temps(109.7, 70.0, 1.0);
        assert_eq!(hot.active_cores, 2);
        assert!((hot.op.freq_ghz - 0.8).abs() < 1e-9);
    }

    #[test]
    fn tdp_stops_everything() {
        let mut p = policy();
        assert!(!p.decide_temps(112.0, 70.0, 1.0).makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p =
            ThresholdPolicy::with_pid(DtmScheme::Comb, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert_eq!(p.name(), "DTM-COMB+PID");
        assert_eq!(p.scheme(), DtmScheme::Comb);
    }
}
