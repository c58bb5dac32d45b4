//! Special functions behind real p-values: `erfc` and the regularized
//! incomplete gamma function.
//!
//! Implemented in-house (standard Lanczos / continued-fraction forms,
//! Numerical-Recipes style) because no math crate is in the offline
//! allowlist; accuracy is ~1e-7 relative, far beyond what a pass/fail at
//! p = 0.01 needs.

/// Natural log of the gamma function, via the Lanczos approximation.
///
/// # Panics
/// Panics if `x` is not strictly positive.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    const COEFFS: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COEFFS {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)` —
/// the chi-squared tail probability used by several NIST tests.
///
/// # Panics
/// Panics if `a <= 0` or `x < 0`.
#[must_use]
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid incomplete gamma arguments");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Complementary error function, rational Chebyshev approximation
/// (relative error < 1.2e-7 everywhere).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(11.0) - 3_628_800.0f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn ln_gamma_half_is_ln_sqrt_pi() {
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    /// `Q(k, x) = e^−x Σ_{i<k} xⁱ/i!` for integer `k` (the Poisson tail).
    fn q_integer(k: u32, x: f64) -> f64 {
        let mut term = 1.0;
        let mut sum = 0.0;
        for i in 0..k {
            if i > 0 {
                term *= x / f64::from(i);
            }
            sum += term;
        }
        (-x).exp() * sum
    }

    /// Arguments on both sides of the series / continued-fraction switch
    /// at `x = a + 1`, plus a far tail.
    fn straddle(a: f64) -> [f64; 6] {
        let s = a + 1.0;
        [0.1, 0.5 * s, s - 1e-3, s, s + 1e-3, 3.0 * s + 10.0]
    }

    #[test]
    fn gamma_q_of_integer_a_is_the_poisson_tail() {
        // a = 2: the battery's serial (m = 3) and approximate-entropy
        // (m = 2) tests; 4, 8 and 16: block frequency over 128, 256 and
        // 512 bits (a = n / 32), and the template test's 8 blocks at 4.
        for k in [1u32, 2, 3, 4, 8, 16] {
            for x in straddle(f64::from(k)) {
                let (q, exact) = (gamma_q(f64::from(k), x), q_integer(k, x));
                assert!(
                    (q - exact).abs() <= 1e-9 * exact,
                    "Q({k}, {x}) = {q}, closed form {exact}"
                );
            }
        }
    }

    #[test]
    fn gamma_q_of_half_integer_a_matches_erfc() {
        // Q(1/2, x) = erfc(sqrt x); Q(3/2, x) adds 2 sqrt(x/pi) e^-x (the
        // longest-run test's a). erfc is good to ~1e-7, so 1e-6 here.
        for x in straddle(0.5) {
            let exact = erfc(x.sqrt());
            assert!((gamma_q(0.5, x) - exact).abs() < 1e-6, "Q(1/2, {x})");
        }
        for x in straddle(1.5) {
            let exact = erfc(x.sqrt()) + 2.0 * (x / std::f64::consts::PI).sqrt() * (-x).exp();
            assert!((gamma_q(1.5, x) - exact).abs() < 1e-6, "Q(3/2, {x})");
        }
    }

    #[test]
    fn gamma_q_boundaries() {
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        assert!(gamma_q(2.0, 100.0) < 1e-30);
    }

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        // erfc(1) = 0.157299...
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-6);
        // Symmetry: erfc(-x) = 2 - erfc(x).
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-12);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }
}
