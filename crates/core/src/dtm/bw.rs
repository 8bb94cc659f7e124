//! Unit tests of [`ThresholdPolicy`](crate::dtm::ThresholdPolicy) as DTM-BW, bandwidth throttling (Section 4.2.2).

mod tests {
    use cpu_model::CpuConfig;

    use crate::dtm::policy::{DtmPolicy, DtmScheme};
    use crate::dtm::ThresholdPolicy;
    use crate::thermal::params::ThermalLimits;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::new(DtmScheme::Bw, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn no_limit_when_cool() {
        let mut p = policy();
        assert_eq!(p.decide_temps(100.0, 70.0, 1.0).bandwidth_cap, None);
    }

    #[test]
    fn caps_tighten_as_temperature_rises() {
        let mut p = policy();
        let caps: Vec<_> =
            [108.5, 109.2, 109.7].iter().map(|&t| p.decide_temps(t, 70.0, 1.0).bandwidth_cap.unwrap()).collect();
        assert!(caps[0] > caps[1] && caps[1] > caps[2]);
        assert!((caps[2] - 6.4e9).abs() < 1.0);
    }

    #[test]
    fn cores_are_never_gated_by_bandwidth_throttling() {
        let mut p = policy();
        for t in [100.0, 108.5, 109.2, 109.7] {
            assert_eq!(p.decide_temps(t, 70.0, 1.0).active_cores, 4);
        }
    }

    #[test]
    fn tdp_shuts_memory_off() {
        let mut p = policy();
        assert!(!p.decide_temps(110.5, 70.0, 1.0).makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p = ThresholdPolicy::with_pid(DtmScheme::Bw, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert!(p.uses_pid());
        assert_eq!(p.name(), "DTM-BW+PID");
    }
}
