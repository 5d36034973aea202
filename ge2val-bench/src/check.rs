//! Output checking: every computed spectrum is compared with the spectrum
//! LATMS prescribed, and every outcome is counted.

/// Relative tolerance of [`spectrum_matches`], scaled by `sigma_max`
/// (the accuracy an orthogonal reduction guarantees).
pub const SPECTRUM_RTOL: f64 = 1.0e-10;

/// True when `got` holds exactly `want.len()` finite values in
/// non-increasing order, each within `SPECTRUM_RTOL * sigma_max` of the
/// matching prescribed value.
pub fn spectrum_matches(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() || got.iter().any(|v| !v.is_finite()) {
        return false;
    }
    if got.windows(2).any(|w| w[0] < w[1]) {
        return false;
    }
    let scale = want
        .first()
        .copied()
        .unwrap_or(1.0)
        .abs()
        .max(f64::MIN_POSITIVE);
    got.iter()
        .zip(want)
        .all(|(g, w)| (g - w).abs() <= SPECTRUM_RTOL * scale)
}

/// True when both spectra are the same bit for bit.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Attempted and failed request counts of one run. A failed check, a typed
/// error and a timeout all count as failures; nothing is retried or dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests whose outcome was checked.
    pub attempted: u64,
    /// Requests that failed their check, returned an error or timed out.
    pub failed: u64,
}

impl Tally {
    /// Count one outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_to_the_largest_value() {
        let want = [2.0, 1.0, 1.0e-3];
        assert!(spectrum_matches(&[2.0, 1.0 + 1.0e-11, 1.0e-3], &want));
        assert!(!spectrum_matches(&[2.0, 1.0 + 1.0e-9, 1.0e-3], &want));
        assert!(!spectrum_matches(&[2.0, 1.0], &want));
        assert!(!spectrum_matches(&[1.0e-3, 1.0, 2.0], &[1.0e-3, 1.0, 2.0]));
        assert!(!spectrum_matches(&[2.0, f64::NAN, 1.0e-3], &want));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.5);
    }
}
