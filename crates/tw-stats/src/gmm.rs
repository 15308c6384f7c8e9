//! Gaussian Mixture Models fit by Expectation-Maximization, with Bayesian
//! Information Criterion model selection.
//!
//! This implements the delay-distribution machinery of TraceWeaver §4.1
//! step 3: after the first iteration, inferred (parent, child) gaps are fit
//! with a GMM whose component count is chosen by sweeping `C = 1..=C_max`
//! and minimizing BIC.

use crate::desc::{mean, percentile_sorted, population_variance};
use crate::gaussian::{Gaussian, SIGMA_FLOOR};
use serde::{Deserialize, Serialize};

/// One mixture component: a weighted Gaussian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmmComponent {
    /// Mixing weight π_c, in (0, 1]; weights of a mixture sum to 1.
    pub weight: f64,
    pub gaussian: Gaussian,
}

/// A univariate Gaussian mixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gmm {
    pub components: Vec<GmmComponent>,
}

/// Options controlling the EM fit and the BIC sweep.
#[derive(Debug, Clone, Copy)]
pub struct GmmFitOptions {
    /// Largest component count of [`GmmFitOptions::sweep`] (paper: C = 5,
    /// text sweeps up to 20).
    pub max_components: usize,
    /// Maximum EM iterations per candidate model.
    pub max_iters: usize,
    /// Convergence threshold on mean log-likelihood improvement.
    pub tol: f64,
}

impl Default for GmmFitOptions {
    fn default() -> Self {
        GmmFitOptions {
            max_components: 5,
            max_iters: 100,
            tol: 1e-6,
        }
    }
}

impl GmmFitOptions {
    /// The full sweep `1..=max_components` (paper §4.1 step 3).
    pub fn sweep(&self) -> Vec<usize> {
        (1..=self.max_components.max(1)).collect()
    }

    /// The sweep narrowed to `{1, near-1, near, near+1}`: a model refit
    /// on a slowly-evolving sample (the delay registry's absorb loop)
    /// rarely jumps by more than one component.
    pub fn sweep_near(&self, near: usize) -> Vec<usize> {
        let max = self.max_components.max(1);
        let near = near.clamp(1, max);
        let mut counts = vec![1, near.saturating_sub(1).max(1), near, (near + 1).min(max)];
        counts.sort_unstable();
        counts.dedup();
        counts
    }
}

impl Gmm {
    /// A single-component mixture equal to the given Gaussian. This is how
    /// TraceWeaver's iteration 1 seed distribution is represented.
    pub fn single(g: Gaussian) -> Self {
        Gmm {
            components: vec![GmmComponent {
                weight: 1.0,
                gaussian: g,
            }],
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the mixture has no components (an unusable model).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Log density at `x` via log-sum-exp over components.
    pub fn log_pdf(&self, x: f64) -> f64 {
        debug_assert!(!self.components.is_empty());
        let (mut stack, mut heap) = ([0.0; 8], Vec::new());
        let logs = match stack.get_mut(..self.len()) {
            Some(logs) => logs,
            None => {
                heap.resize(self.len(), 0.0);
                &mut heap[..]
            }
        };
        for (l, c) in logs.iter_mut().zip(&self.components) {
            *l = Term::of(c).at(x);
        }
        log_sum_exp(logs)
    }

    /// Bayesian Information Criterion over a weighted sample: `k ln n −
    /// 2 ln L` with `k = 3C − 1` free parameters (C means, C sigmas, C−1
    /// weights) and `ln L = Σ w·ln p(x)`. `n` is the total weight, so
    /// decayed reservoirs prefer simpler models; unit weights give the
    /// textbook BIC.
    pub fn bic(&self, xs: &[f64], ws: &[f64]) -> f64 {
        let k = (3 * self.components.len() - 1) as f64;
        let n_eff = ws.iter().sum::<f64>().max(1.0);
        let terms: Vec<Term> = self.components.iter().map(Term::of).collect();
        let mut logs = vec![0.0; terms.len()];
        let mut ll = -0.0; // as `f64: Sum` starts
        for (&x, &w) in xs.iter().zip(ws) {
            ll += w * log_mix(&terms, x, &mut logs);
        }
        k * n_eff.ln() - 2.0 * ll
    }

    /// Fit a mixture for each component count in `counts`, in order, by
    /// weighted EM (`xs[i]` counts with weight `ws[i]`; unit weights for an
    /// unweighted sample); return the [`Gmm::bic`] minimizer (the earlier
    /// count on a tie) and the EM iterations run. EM starts at evenly
    /// spaced quantiles, the overall sigma and uniform weights; a count
    /// with under two samples per component gets the single-Gaussian fit.
    ///
    /// # Examples
    /// ```
    /// use tw_stats::gmm::{Gmm, GmmFitOptions};
    /// // Clearly bimodal data: BIC selects two components.
    /// let xs: Vec<f64> = (0..200)
    ///     .map(|i| if i % 2 == 0 { 10.0 } else { 500.0 } + (i % 7) as f64)
    ///     .collect();
    /// let opts = GmmFitOptions::default();
    /// let (gmm, _) = Gmm::fit(&xs, &vec![1.0; xs.len()], &opts.sweep(), &opts);
    /// assert!(gmm.len() >= 2);
    /// assert!(gmm.log_pdf(500.0) > gmm.log_pdf(250.0));
    /// ```
    pub fn fit(xs: &[f64], ws: &[f64], counts: &[usize], opts: &GmmFitOptions) -> (Gmm, u64) {
        assert_eq!(xs.len(), ws.len(), "one weight per sample");
        let total_w: f64 = ws.iter().sum();
        let mut init = None;
        let mut em_iterations = 0;
        let mut best: Option<(f64, Gmm)> = None;
        for &c in counts {
            assert!(c >= 1, "component count must be >= 1");
            let gmm = if xs.is_empty() {
                Gmm::single(Gaussian::new(0.0, 1.0))
            } else if c == 1 || xs.len() < 2 * c || total_w <= 0.0 {
                Gmm::single(Gaussian::fit_weighted(xs, ws))
            } else {
                let init = init.get_or_insert_with(|| {
                    let mut sorted = xs.to_vec();
                    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
                    let sigma = population_variance(xs).sqrt().max(SIGMA_FLOOR);
                    (sorted, mean(xs), sigma, total_w)
                });
                let (gmm, iterations) = em(xs, ws, init, c, opts);
                em_iterations += iterations;
                gmm
            };
            let bic = gmm.bic(xs, ws);
            match &best {
                Some((b, _)) if *b <= bic => {}
                _ => best = Some((bic, gmm)),
            }
        }
        (best.expect("at least one component count").1, em_iterations)
    }
}

/// One component's `ln w + ln N(x; μ, σ)`, with `ln w` and `ln σ` computed
/// once instead of once per sample.
struct Term {
    ln_w: f64,
    ln_sigma: f64,
    gaussian: Gaussian,
}

impl Term {
    fn of(c: &GmmComponent) -> Term {
        Term {
            ln_w: c.weight.max(f64::MIN_POSITIVE).ln(),
            ln_sigma: c.gaussian.sigma.ln(),
            gaussian: c.gaussian,
        }
    }

    fn at(&self, x: f64) -> f64 {
        self.ln_w + self.gaussian.log_pdf_given_ln_sigma(x, self.ln_sigma)
    }
}

/// `ln Σ exp(t(x))` over the terms, leaving each `t(x)` in `logs`.
fn log_mix(terms: &[Term], x: f64, logs: &mut [f64]) -> f64 {
    for (l, t) in logs.iter_mut().zip(terms) {
        *l = t.at(x);
    }
    log_sum_exp(logs)
}

/// Computed once per sweep: sorted sample, mean, floored σ, total weight.
type Init = (Vec<f64>, f64, f64, f64);

/// Weighted EM with `c >= 2` components: the mixture and the iterations
/// run. Nothing is allocated per sample or iteration, and every sum keeps
/// the textbook order (starting at `-0.0`, as `f64: Sum` does), to the bit.
fn em(xs: &[f64], ws: &[f64], init: &Init, c: usize, opts: &GmmFitOptions) -> (Gmm, u64) {
    let (sorted, mean, sigma, total_w) = (&init.0, init.1, init.2, init.3);
    let mut comps: Vec<GmmComponent> = (0..c)
        .map(|i| {
            let q = (i as f64 + 0.5) / c as f64 * 100.0;
            let gaussian = Gaussian::new(percentile_sorted(sorted, q), sigma);
            GmmComponent {
                weight: 1.0 / c as f64,
                gaussian,
            }
        })
        .collect();
    // Scratch: responsibilities (row-major [point][comp]), one sample's log
    // terms, and per component [Σw·r, Σw·r·x, μ, Σw·r·(x−μ)²].
    let mut resp = vec![0.0f64; xs.len() * c];
    let mut logs = vec![0.0f64; c];
    let mut terms: Vec<Term> = Vec::with_capacity(c);
    let mut sums = vec![[-0.0f64; 4]; c];
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;

    for _ in 0..opts.max_iters {
        iterations += 1;
        // E-step, accumulating Σw·r and Σw·r·x (responsibilities scaled by
        // sample weights).
        terms.clear();
        terms.extend(comps.iter().map(Term::of));
        sums.fill([-0.0; 4]);
        let mut ll = 0.0;
        for ((&x, &w), r) in xs.iter().zip(ws).zip(resp.chunks_exact_mut(c)) {
            let lse = log_mix(&terms, x, &mut logs);
            ll += w * lse;
            for ((rj, &lj), [nj, sx, _, _]) in r.iter_mut().zip(&logs).zip(sums.iter_mut()) {
                *rj = (lj - lse).exp();
                *nj += w * *rj;
                *sx += w * *rj * x;
            }
        }

        // M-step: means, then one pass for the variances.
        for [nj, sx, mu, _] in sums.iter_mut() {
            *mu = *sx / *nj;
        }
        for ((&x, &w), r) in xs.iter().zip(ws).zip(resp.chunks_exact(c)) {
            for (&rj, [_, _, mu, sv]) in r.iter().zip(sums.iter_mut()) {
                let d = x - *mu;
                *sv += w * rj * d * d;
            }
        }
        for (cm, &[nj, _, mu, sv]) in comps.iter_mut().zip(&sums) {
            // A dead component re-seeds at the sample mean so it can
            // recover, with a tiny weight.
            let (weight, mu, sd) = if nj < 1e-12 {
                (1e-6, mean, sigma)
            } else {
                (nj / total_w, mu, (sv / nj).sqrt())
            };
            *cm = GmmComponent {
                weight,
                gaussian: Gaussian::new(mu, sd),
            };
        }
        normalize_weights(&mut comps);

        if (ll - prev_ll).abs() / total_w <= opts.tol {
            break;
        }
        prev_ll = ll;
    }

    (Gmm { components: comps }, iterations)
}

fn normalize_weights(comps: &mut [GmmComponent]) {
    let total: f64 = comps.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in comps.iter_mut() {
            c.weight /= total;
        }
    }
}

/// Numerically stable log(sum(exp(xs))).
fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fit exactly `c` components to an unweighted sample.
    fn fit_c(xs: &[f64], c: usize) -> Gmm {
        Gmm::fit(xs, &vec![1.0; xs.len()], &[c], &GmmFitOptions::default()).0
    }

    /// The full unweighted BIC sweep.
    fn fit_auto(xs: &[f64]) -> Gmm {
        let opts = GmmFitOptions::default();
        Gmm::fit(xs, &vec![1.0; xs.len()], &opts.sweep(), &opts).0
    }

    /// Deterministic interleaved bimodal sample: half near 10, half near 50.
    fn bimodal() -> Vec<f64> {
        let mut xs = Vec::new();
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.3 - 0.9;
            if i % 2 == 0 {
                xs.push(10.0 + jitter);
            } else {
                xs.push(50.0 + jitter);
            }
        }
        xs
    }

    #[test]
    fn single_component_fit_is_mle() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let gmm = fit_c(&xs, 1);
        assert_eq!(gmm.len(), 1);
        assert!((gmm.components[0].gaussian.mu - 2.5).abs() < 1e-12);
    }

    #[test]
    fn two_component_fit_finds_modes() {
        let xs = bimodal();
        let gmm = fit_c(&xs, 2);
        let mut mus: Vec<f64> = gmm.components.iter().map(|c| c.gaussian.mu).collect();
        mus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mus[0] - 10.0).abs() < 1.0, "low mode at {}", mus[0]);
        assert!((mus[1] - 50.0).abs() < 1.0, "high mode at {}", mus[1]);
    }

    #[test]
    fn bic_prefers_two_components_on_bimodal() {
        let xs = bimodal();
        let auto = fit_auto(&xs);
        assert!(auto.len() >= 2, "BIC should reject a single Gaussian");
    }

    #[test]
    fn bic_prefers_one_component_on_unimodal() {
        // A genuinely Gaussian sample: extra components do not pay for
        // their BIC penalty.
        let mut s = crate::sampler::Sampler::new(4);
        let xs: Vec<f64> = (0..400).map(|_| s.normal(20.0, 2.0)).collect();
        let auto = fit_auto(&xs);
        assert_eq!(auto.len(), 1, "BIC should select 1 component");
    }

    #[test]
    fn weights_sum_to_one() {
        let gmm = fit_c(&bimodal(), 3);
        let total: f64 = gmm.components.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_matches_manual_mixture() {
        let gmm = Gmm {
            components: vec![
                GmmComponent {
                    weight: 0.3,
                    gaussian: Gaussian::new(0.0, 1.0),
                },
                GmmComponent {
                    weight: 0.7,
                    gaussian: Gaussian::new(5.0, 2.0),
                },
            ],
        };
        let x = 2.0;
        let manual = 0.3 * Gaussian::new(0.0, 1.0).pdf(x) + 0.7 * Gaussian::new(5.0, 2.0).pdf(x);
        assert!((gmm.log_pdf(x).exp() - manual).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let gmm = fit_c(&[], 3);
        assert_eq!(gmm.len(), 1);
        let gmm = fit_c(&[1.0], 3);
        assert_eq!(gmm.len(), 1);
        assert!(gmm.log_pdf(1.0).is_finite());
        // Identical points: sigma floored, density finite.
        let gmm = fit_c(&[2.0; 50], 2);
        assert!(gmm.log_pdf(2.0).is_finite());
    }

    #[test]
    fn log_likelihood_higher_for_better_model() {
        let xs = bimodal();
        let ll = |g: &Gmm| xs.iter().map(|&x| g.log_pdf(x)).sum::<f64>();
        assert!(ll(&fit_c(&xs, 2)) > ll(&fit_c(&xs, 1)));
    }

    #[test]
    fn unit_weights_give_the_textbook_bic() {
        // With unit weights the effective sample size is exactly n and
        // every `1.0 * ln p(x)` is exact, so the weighted BIC is bit for
        // bit `k ln n - 2 Σ ln p(x)`.
        let xs = bimodal();
        for c in 1..=3 {
            let gmm = fit_c(&xs, c);
            let k = (3 * gmm.len() - 1) as f64;
            let ll: f64 = xs.iter().map(|&x| gmm.log_pdf(x)).sum();
            let textbook = k * (xs.len() as f64).ln() - 2.0 * ll;
            let bic = gmm.bic(&xs, &vec![1.0; xs.len()]);
            assert_eq!(bic.to_bits(), textbook.to_bits(), "c={c}");
        }
    }

    #[test]
    fn sweeps_and_iteration_counts() {
        let opts = GmmFitOptions::default();
        assert_eq!(opts.sweep(), vec![1, 2, 3, 4, 5]);
        assert_eq!(opts.sweep_near(1), vec![1, 2]);
        assert_eq!(opts.sweep_near(3), vec![1, 2, 3, 4]);
        assert_eq!(opts.sweep_near(9), vec![1, 4, 5]);
        // A single-Gaussian fit runs no EM; a two-component fit runs at
        // least one and at most `max_iters` iterations.
        let xs = bimodal();
        let ones = vec![1.0; xs.len()];
        assert_eq!(Gmm::fit(&xs, &ones, &[1], &opts).1, 0);
        let (_, iters) = Gmm::fit(&xs, &ones, &[2], &opts);
        assert!((1..=opts.max_iters as u64).contains(&iters));
        let (_, sweep) = Gmm::fit(&xs, &ones, &[1, 2], &opts);
        assert_eq!(sweep, iters, "a sweep sums its fits' iterations");
    }

    #[test]
    fn down_weighted_mode_loses_mass() {
        // Two modes, but the high mode's samples carry tiny weight: the
        // weighted fit must put most mixing weight on the low mode.
        let mut xs = Vec::new();
        let mut ws = Vec::new();
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.3 - 0.9;
            if i % 2 == 0 {
                xs.push(10.0 + jitter);
                ws.push(1.0);
            } else {
                xs.push(50.0 + jitter);
                ws.push(0.05);
            }
        }
        let gmm = Gmm::fit(&xs, &ws, &[2], &GmmFitOptions::default()).0;
        let low_weight: f64 = gmm
            .components
            .iter()
            .filter(|c| c.gaussian.mu < 30.0)
            .map(|c| c.weight)
            .sum();
        assert!(low_weight > 0.8, "low mode weight {low_weight}");
    }

    #[test]
    fn weighted_gaussian_fit_tracks_heavy_samples() {
        let g = Gaussian::fit_weighted(&[0.0, 10.0], &[3.0, 1.0]);
        assert!((g.mu - 2.5).abs() < 1e-12);
        let empty = Gaussian::fit_weighted(&[], &[]);
        assert!(empty.sigma > 0.0);
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
