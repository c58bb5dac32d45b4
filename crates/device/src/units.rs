//! Time and temperature units used throughout the simulator.
//!
//! All internal time is in **seconds** (`f64`), all internal temperature in
//! **kelvin** unless a function name says otherwise. The constants here keep
//! mission-profile code readable (`10.0 * YEAR` instead of `3.15e8`).

/// One hour in seconds.
pub const HOUR: f64 = 3_600.0;
/// One day in seconds.
pub const DAY: f64 = 86_400.0;
/// One (Julian) year in seconds.
pub const YEAR: f64 = 365.25 * DAY;
/// One month (1/12 year) in seconds.
pub const MONTH: f64 = YEAR / 12.0;

/// Boltzmann constant in eV/K, used by Arrhenius temperature acceleration.
pub const BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// Absolute zero offset: 0 °C in kelvin.
pub const KELVIN_AT_0C: f64 = 273.15;

/// Converts a temperature in degrees Celsius to kelvin.
///
/// # Example
/// ```
/// use aro_device::units::celsius_to_kelvin;
/// assert_eq!(celsius_to_kelvin(25.0), 298.15);
/// ```
#[must_use]
pub fn celsius_to_kelvin(celsius: f64) -> f64 {
    celsius + KELVIN_AT_0C
}

/// Formats a duration in seconds as a short human-readable string
/// (`"3.0 y"`, `"6.0 mo"`, `"12 h"`, …) for experiment tables.
///
/// # Example
/// ```
/// use aro_device::units::{format_duration, YEAR};
/// assert_eq!(format_duration(10.0 * YEAR), "10.0 y");
/// ```
#[must_use]
pub fn format_duration(seconds: f64) -> String {
    if seconds == 0.0 {
        "0".to_string()
    } else if seconds >= YEAR {
        format!("{:.1} y", seconds / YEAR)
    } else if seconds >= MONTH {
        format!("{:.1} mo", seconds / MONTH)
    } else if seconds >= DAY {
        format!("{:.1} d", seconds / DAY)
    } else if seconds >= HOUR {
        format!("{:.1} h", seconds / HOUR)
    } else if seconds >= 1.0 {
        format!("{seconds:.1} s")
    } else if seconds >= 1e-3 {
        format!("{:.1} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.1} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_is_consistent_with_day() {
        assert!((YEAR / DAY - 365.25).abs() < 1e-9);
    }

    #[test]
    fn month_is_a_twelfth_of_a_year() {
        assert!((12.0 * MONTH - YEAR).abs() < 1e-6);
    }

    #[test]
    fn format_duration_picks_sensible_units() {
        assert_eq!(format_duration(2.0 * YEAR), "2.0 y");
        assert_eq!(format_duration(MONTH), "1.0 mo");
        assert_eq!(format_duration(2.0 * DAY), "2.0 d");
        assert_eq!(format_duration(3.0 * HOUR), "3.0 h");
        assert_eq!(format_duration(1.5), "1.5 s");
        assert_eq!(format_duration(2e-3), "2.0 ms");
        assert_eq!(format_duration(3e-6), "3.0 us");
        assert_eq!(format_duration(5e-9), "5.0 ns");
    }

    #[test]
    fn boltzmann_constant_matches_codata() {
        assert!((BOLTZMANN_EV - 8.617e-5).abs() < 1e-8);
    }
}
