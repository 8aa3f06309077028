//! General-purpose core configurations (the paper's Table 4).

use prism_energy::CoreEnergyConfig;

/// Microarchitectural parameters of a general-purpose core.
///
/// The four named constructors are the paper's Table 4 design points; the
/// [`CoreConfig::ooo`] constructor builds arbitrary widths for the
/// OOO1↔OOO8 cross-validation of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Display name (e.g. `"OOO2"`).
    pub name: String,
    /// Fetch = dispatch = issue = writeback width.
    pub width: u32,
    /// Reorder-buffer entries (0 for in-order).
    pub rob_size: u32,
    /// Issue-window entries (0 for in-order).
    pub window_size: u32,
    /// Data-cache ports.
    pub dcache_ports: u32,
    /// Simple integer ALUs.
    pub alus: u32,
    /// Integer multiply/divide units.
    pub muldivs: u32,
    /// FP units.
    pub fpus: u32,
    /// Whether the core executes out of order.
    pub out_of_order: bool,
    /// Front-end depth: cycles from fetch to dispatch.
    pub frontend_depth: u32,
    /// Cycles from branch resolution to redirected fetch (mispredict
    /// penalty on top of refilling the front end).
    pub mispredict_penalty: u32,
    /// Whether a 256-bit SIMD datapath is attached.
    pub has_simd: bool,
}

impl CoreConfig {
    /// Table 4: dual-issue in-order core (IO2).
    #[must_use]
    pub fn io2() -> Self {
        CoreConfig {
            name: "IO2".into(),
            width: 2,
            rob_size: 0,
            window_size: 0,
            dcache_ports: 1,
            alus: 2,
            muldivs: 1,
            fpus: 1,
            out_of_order: false,
            frontend_depth: 4,
            mispredict_penalty: 6,
            has_simd: false,
        }
    }

    /// Table 4: dual-issue out-of-order core (OOO2).
    #[must_use]
    pub fn ooo2() -> Self {
        CoreConfig {
            name: "OOO2".into(),
            width: 2,
            rob_size: 64,
            window_size: 32,
            dcache_ports: 1,
            alus: 2,
            muldivs: 1,
            fpus: 1,
            out_of_order: true,
            frontend_depth: 5,
            mispredict_penalty: 8,
            has_simd: false,
        }
    }

    /// Table 4: quad-issue out-of-order core (OOO4).
    #[must_use]
    pub fn ooo4() -> Self {
        CoreConfig {
            name: "OOO4".into(),
            width: 4,
            rob_size: 168,
            window_size: 48,
            dcache_ports: 2,
            alus: 3,
            muldivs: 2,
            fpus: 2,
            out_of_order: true,
            frontend_depth: 6,
            mispredict_penalty: 10,
            has_simd: false,
        }
    }

    /// Table 4: six-issue out-of-order core (OOO6).
    #[must_use]
    pub fn ooo6() -> Self {
        CoreConfig {
            name: "OOO6".into(),
            width: 6,
            rob_size: 192,
            window_size: 52,
            dcache_ports: 3,
            alus: 4,
            muldivs: 2,
            fpus: 3,
            out_of_order: true,
            frontend_depth: 6,
            mispredict_penalty: 12,
            has_simd: false,
        }
    }

    /// An arbitrary-width OOO core, interpolating/extrapolating Table 4's
    /// structure sizes — used for the OOO1↔OOO8 validation experiment.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn ooo(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        CoreConfig {
            name: format!("OOO{width}"),
            width,
            rob_size: 32 + 28 * width,
            window_size: 24 + 5 * width,
            dcache_ports: (width / 2).clamp(1, 4),
            alus: (width * 2 / 3).max(1) + 1,
            muldivs: (width / 3).max(1),
            fpus: (width / 2).max(1),
            out_of_order: true,
            frontend_depth: 5 + width / 4,
            mispredict_penalty: 8 + width,
            has_simd: false,
        }
    }

    /// Returns a copy with the 256-bit SIMD datapath enabled.
    #[must_use]
    pub fn with_simd(mut self) -> Self {
        self.has_simd = true;
        self
    }

    /// Canonical encoding of every parameter that shapes a timing walk.
    ///
    /// Two cores with equal timing classes produce bit-identical
    /// `run_exocore_timing` output for the same trace/IR/plans/schedule;
    /// only priced quantities (energy constants, area) may differ. The
    /// display [`name`](CoreConfig::name) and `has_simd` (SIMD enters a
    /// walk only through the assignment's SIMD transform) are excluded, so
    /// a relabeled variant and a `-S…` point share their base core's walks.
    #[must_use]
    pub fn timing_class(&self) -> String {
        format!(
            "w{};rob{};win{};dcp{};alu{};md{};fp{};ooo{};fe{};mp{}",
            self.width,
            self.rob_size,
            self.window_size,
            self.dcache_ports,
            self.alus,
            self.muldivs,
            self.fpus,
            u8::from(self.out_of_order),
            self.frontend_depth,
            self.mispredict_penalty,
        )
    }

    /// The subset of parameters the energy model consumes.
    #[must_use]
    pub fn energy_config(&self) -> CoreEnergyConfig {
        CoreEnergyConfig {
            width: self.width,
            rob_size: self.rob_size,
            window_size: self.window_size,
            out_of_order: self.out_of_order,
            dcache_ports: self.dcache_ports,
        }
    }

    /// Core area in mm² (excluding L2 and accelerators).
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        let core = prism_energy::core_area_mm2(&self.energy_config());
        if self.has_simd {
            core + prism_energy::AccelAreas::new().simd
        } else {
            core
        }
    }

    /// Number of functional units of a class.
    #[must_use]
    pub fn fu_count(&self, class: prism_isa::FuClass) -> u32 {
        use prism_isa::FuClass;
        match class {
            FuClass::Alu => self.alus,
            FuClass::MulDiv => self.muldivs,
            FuClass::Fp => self.fpus,
            FuClass::Mem => self.dcache_ports,
            FuClass::None => u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values() {
        let io2 = CoreConfig::io2();
        assert_eq!(
            (io2.width, io2.rob_size, io2.window_size, io2.dcache_ports),
            (2, 0, 0, 1)
        );
        assert!(!io2.out_of_order);
        let ooo2 = CoreConfig::ooo2();
        assert_eq!((ooo2.width, ooo2.rob_size, ooo2.window_size), (2, 64, 32));
        let ooo4 = CoreConfig::ooo4();
        assert_eq!(
            (
                ooo4.width,
                ooo4.rob_size,
                ooo4.window_size,
                ooo4.dcache_ports
            ),
            (4, 168, 48, 2)
        );
        assert_eq!((ooo4.alus, ooo4.muldivs, ooo4.fpus), (3, 2, 2));
        let ooo6 = CoreConfig::ooo6();
        assert_eq!(
            (
                ooo6.width,
                ooo6.rob_size,
                ooo6.window_size,
                ooo6.dcache_ports
            ),
            (6, 192, 52, 3)
        );
        assert_eq!((ooo6.alus, ooo6.muldivs, ooo6.fpus), (4, 2, 3));
    }

    #[test]
    fn parametric_ooo_brackets_table4() {
        let o1 = CoreConfig::ooo(1);
        let o8 = CoreConfig::ooo(8);
        assert!(o1.rob_size < CoreConfig::ooo2().rob_size);
        assert!(o8.rob_size > CoreConfig::ooo6().rob_size);
        assert_eq!(o1.name, "OOO1");
        assert_eq!(o8.name, "OOO8");
    }

    #[test]
    fn areas_increase_with_width() {
        assert!(CoreConfig::io2().area_mm2() < CoreConfig::ooo2().area_mm2());
        assert!(CoreConfig::ooo2().area_mm2() < CoreConfig::ooo4().area_mm2());
        assert!(CoreConfig::ooo4().area_mm2() < CoreConfig::ooo6().area_mm2());
        let plain = CoreConfig::ooo2();
        assert!(plain.clone().with_simd().area_mm2() > plain.area_mm2());
    }

    #[test]
    fn timing_class_ignores_name_only() {
        let a = CoreConfig::ooo2();
        let mut renamed = a.clone();
        renamed.name = "OOO2-cheap".into();
        assert_eq!(a.timing_class(), renamed.timing_class());
        assert_ne!(a.timing_class(), CoreConfig::ooo4().timing_class());
        assert_eq!(a.timing_class(), a.clone().with_simd().timing_class());
        assert_ne!(CoreConfig::io2().timing_class(), a.timing_class());
    }

    #[test]
    fn fu_counts() {
        use prism_isa::FuClass;
        let c = CoreConfig::ooo4();
        assert_eq!(c.fu_count(FuClass::Alu), 3);
        assert_eq!(c.fu_count(FuClass::Mem), 2);
        assert_eq!(c.fu_count(FuClass::None), u32::MAX);
    }
}
