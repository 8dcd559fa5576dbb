//! Voltage-regulator-module (VRM) load-line model.
//!
//! A VRM load line intentionally lowers the regulation target as load
//! current rises (`V = Vnom − R_ll · I`). The paper measures all droops
//! **with the load line disabled** so that the reported numbers are pure
//! di/dt droop rather than DC IR sag (§5.A); this module exists so that
//! both configurations can be reproduced and compared.

/// VRM load-line configuration.
///
/// # Example
///
/// ```
/// use audit_pdn::LoadLine;
///
/// let ll = LoadLine::with_slope(1.0e-3); // 1 mΩ load line
/// assert_eq!(ll.slope_ohms(), 1.0e-3);
/// assert_eq!(LoadLine::disabled().slope_ohms(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLine {
    slope_ohms: f64,
    enabled: bool,
}

impl LoadLine {
    /// A disabled load line: the VRM regulates to Vnom regardless of load.
    ///
    /// This is the paper's measurement configuration.
    pub const fn disabled() -> Self {
        LoadLine {
            slope_ohms: 0.0,
            enabled: false,
        }
    }

    /// An enabled load line with the given slope in ohms.
    pub const fn with_slope(slope_ohms: f64) -> Self {
        LoadLine {
            slope_ohms,
            enabled: true,
        }
    }

    /// Whether the load line is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Load-line slope in ohms (zero when disabled).
    pub fn slope_ohms(&self) -> f64 {
        if self.enabled {
            self.slope_ohms
        } else {
            0.0
        }
    }
}

impl Default for LoadLine {
    /// Defaults to [`LoadLine::disabled`], the paper's configuration.
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_has_no_offset() {
        let ll = LoadLine::disabled();
        assert!(!ll.is_enabled());
        assert_eq!(ll.slope_ohms(), 0.0);
    }

    #[test]
    fn enabled_offset_scales_with_current() {
        let ll = LoadLine::with_slope(0.5e-3);
        assert_eq!(ll.slope_ohms(), 0.5e-3);
        assert!(ll.is_enabled());
    }
}
