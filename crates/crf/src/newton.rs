//! Damped Newton method for the M-step.
//!
//! The M-step objective of [`crate::logistic`] (Eq. 8 offline, Eq. 30
//! streaming) is strictly convex: its Hessian
//! `H = λI + Σ mᵢσᵢ(1−σᵢ)xᵢxᵢᵀ` is positive definite for every `λ > 0`.
//! [`LogisticObjective::eval`] forms `H` as a dense `dim × dim` matrix in
//! the same pass over the data as the value and the gradient, so each
//! iteration solves the Newton system `H s = −∇f` exactly by a Cholesky
//! factorisation (`dim³/6` flops, about 220 at the canonical dim 11). It
//! then backtracks `α ← α/2` from the full step until the Armijo test
//! `f(w + αs) ≤ f(w) + c·α·∇fᵀs` holds, and stops when
//! `‖∇f‖ ≤ 1e-4 · ‖∇f(w₀)‖` or `‖∇f‖ ≤ 1e-12`.
//!
//! The paper solves the same objective with TRON (its \[45\]), whose trust
//! region and truncated conjugate gradient serve problems whose Hessian is
//! too large to form. At this dimension the exact step is cheaper than a
//! single pass over the rows, and it leaves no residual gradient along a
//! stiff direction of `H` for the next step to chase. Near the optimum a
//! full step lowers `f` by less than a plain sum of the rows' terms can
//! resolve, which is why `eval` sums the value with compensation: the
//! Armijo test then sees the decrease instead of rounding noise. Every
//! trial point costs one pass, so a solve stays linear in the dataset
//! (Prop. 1's claim for `iCRF`). The cost model and the measured
//! iterations per solve are in `docs/sampling.md` ("M-step").

use crate::logistic::LogisticObjective;
use crate::numerics::{axpy, dot, norm2};

/// Stop when `‖∇f‖ ≤ EPS · ‖∇f(w₀)‖` (or `‖∇f‖ ≤ 1e-12`).
const EPS: f64 = 1e-4;
/// Newton iterations per solve at most.
const MAX_ITER: usize = 50;
/// Sufficient-decrease constant `c` of the Armijo test.
const ARMIJO: f64 = 1e-4;
/// Step halvings per iteration before the solve gives up (`α ≥ 2⁻²⁰`).
const MAX_HALVINGS: i32 = 20;

/// Outcome of a Newton solve.
#[derive(Debug, Clone)]
pub struct NewtonResult {
    /// Final objective value.
    pub value: f64,
    /// Step length `‖w − w₀‖` from the entry weights to the solution.
    pub step_norm: f64,
    /// Final gradient norm.
    pub grad_norm: f64,
    /// Newton iterations performed, counting a last one that found no
    /// acceptable step.
    pub iterations: usize,
    /// Whether the gradient-norm stopping rule was met.
    pub converged: bool,
}

/// Reusable solver buffers for [`solve`].
///
/// A solve needs two gradients and two dense `dim × dim` Hessians (the
/// current point's and the trial point's, swapped in when a step is
/// accepted), the Newton step, the trial point and the entry weights.
/// Callers that solve every EM iteration — [`crate::em::Icrf`] and the
/// streaming estimator — keep one `NewtonScratch` alive so repeated M-steps
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct NewtonScratch {
    g: Vec<f64>,
    h: Vec<f64>,
    g_new: Vec<f64>,
    h_new: Vec<f64>,
    s: Vec<f64>,
    w_new: Vec<f64>,
    w0: Vec<f64>,
}

impl NewtonScratch {
    fn resize(&mut self, n: usize) {
        for buf in [
            &mut self.g,
            &mut self.g_new,
            &mut self.s,
            &mut self.w_new,
            &mut self.w0,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        for buf in [&mut self.h, &mut self.h_new] {
            buf.clear();
            buf.resize(n * n, 0.0);
        }
    }
}

/// Minimise `obj` starting from (and overwriting) `w`, reusing `scratch`
/// across calls (every M-step of every EM iteration).
///
/// `w` moves only to a trial point whose value is finite and passes the
/// Armijo test, so the value never rises. A non-finite start value, a
/// Hessian that does not factor, or an iteration whose every halving fails
/// ends the solve where it stands, with `converged = false`.
pub fn solve(
    obj: &LogisticObjective<'_>,
    w: &mut [f64],
    scratch: &mut NewtonScratch,
) -> NewtonResult {
    let n = w.len();
    assert_eq!(n, obj.dim(), "weight vector dimension mismatch");
    scratch.resize(n);
    let NewtonScratch {
        g,
        h,
        g_new,
        h_new,
        s,
        w_new,
        w0,
    } = scratch;
    w0.copy_from_slice(w);

    let mut f = obj.eval(w, g, h);
    let gnorm0 = norm2(g);
    let mut gnorm = gnorm0;
    let mut iterations = 0;

    while iterations < MAX_ITER && f.is_finite() && gnorm > EPS * gnorm0 && gnorm > 1e-12 {
        iterations += 1;
        if !newton_step(h, g, s) {
            break;
        }
        let slope = dot(g, s);
        let accepted = (0..=MAX_HALVINGS).find_map(|k| {
            let alpha = 0.5f64.powi(k);
            w_new.copy_from_slice(w);
            axpy(alpha, s, w_new);
            let f_new = obj.eval(w_new, g_new, h_new);
            (f_new.is_finite() && f_new <= f + ARMIJO * alpha * slope).then_some(f_new)
        });
        let Some(f_new) = accepted else {
            break;
        };
        f = f_new;
        w.copy_from_slice(w_new);
        std::mem::swap(g, g_new);
        std::mem::swap(h, h_new);
        gnorm = norm2(g);
    }

    NewtonResult {
        value: f,
        step_norm: w
            .iter()
            .zip(w0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt(),
        grad_norm: gnorm,
        iterations,
        converged: gnorm <= EPS * gnorm0 || gnorm <= 1e-12,
    }
}

/// Solve `H s = −g` for the Newton step: factor the row-major `n × n`
/// matrix `h` in place into the lower-triangular `L` of `H = LLᵀ`, then
/// substitute forward (`L y = −g`) and back (`Lᵀ s = y`). Returns `false`
/// when a pivot is not positive and finite (a NaN in `H`, or `H` not
/// numerically positive definite); `s` is then meaningless.
fn newton_step(h: &mut [f64], g: &[f64], s: &mut [f64]) -> bool {
    let n = g.len();
    for i in 0..n {
        for j in 0..=i {
            let v = h[i * n + j] - dot(&h[i * n..i * n + j], &h[j * n..j * n + j]);
            h[i * n + j] = if j < i {
                v / h[j * n + j]
            } else if v > 0.0 && v.is_finite() {
                v.sqrt()
            } else {
                return false;
            };
        }
    }
    for i in 0..n {
        s[i] = (-g[i] - dot(&h[i * n..i * n + i], &s[..i])) / h[i * n + i];
    }
    for i in (0..n).rev() {
        let tail: f64 = (i + 1..n).map(|k| h[k * n + i] * s[k]).sum();
        s[i] = (s[i] - tail) / h[i * n + i];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::Dataset;

    fn solve_fresh(obj: &LogisticObjective<'_>, w: &mut [f64]) -> NewtonResult {
        solve(obj, w, &mut NewtonScratch::default())
    }

    /// Separable data with heavy regularisation: solution is finite and the
    /// gradient vanishes.
    #[test]
    fn converges_to_stationary_point() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            let x = i as f64 / 10.0 - 1.0;
            let y = if x > 0.0 { 1.0 } else { 0.0 };
            d.push(&[1.0, x], y, 1.0);
        }
        let obj = LogisticObjective::new(&d, 0.5);
        let mut w = vec![0.0, 0.0];
        let r = solve_fresh(&obj, &mut w);
        assert!(r.converged, "grad norm {}", r.grad_norm);
        // Positive slope separates the classes.
        assert!(w[1] > 0.5, "slope {}", w[1]);
        // Stationarity: gradient ~ 0.
        let mut g = vec![0.0; 2];
        obj.gradient(&w, &mut g);
        assert!(norm2(&g) < 1e-3 * 20.0);
    }

    /// The solver matches a gradient-descent optimum on a 1-D problem with
    /// a closed-form stationarity condition.
    #[test]
    fn matches_gradient_descent_solution() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 1.0, 3.0);
        d.push(&[1.0], 0.0, 1.0);
        let lambda = 0.7;
        let obj = LogisticObjective::new(&d, lambda);
        let mut w = vec![0.0];
        solve_fresh(&obj, &mut w);

        // Reference: plain gradient descent to high precision.
        let mut wr = 0.0f64;
        for _ in 0..200_000 {
            let s = crate::numerics::sigmoid(wr);
            let g = lambda * wr + 3.0 * (s - 1.0) + (s - 0.0);
            wr -= 0.01 * g;
        }
        assert!((w[0] - wr).abs() < 1e-4, "newton={} gd={}", w[0], wr);
    }

    /// With pure soft targets q the optimum reproduces the targets when the
    /// data permits: one instance per target value and tiny regularisation.
    #[test]
    fn soft_targets_are_fit() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 0.8, 1.0);
        let obj = LogisticObjective::new(&d, 1e-8);
        let mut w = vec![0.0];
        solve_fresh(&obj, &mut w);
        let p = crate::numerics::sigmoid(w[0]);
        assert!((p - 0.8).abs() < 1e-3, "fitted probability {p}");
    }

    /// Strong regularisation shrinks the solution towards zero.
    #[test]
    fn regularisation_shrinks_weights() {
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push(&[1.0], 1.0, 1.0);
        }
        let fit = |lambda| {
            let mut w = vec![0.0];
            solve_fresh(&LogisticObjective::new(&d, lambda), &mut w);
            w[0]
        };
        let (weak, strong) = (fit(0.01), fit(10.0));
        assert!(weak > strong, "weak={weak} strong={strong}");
        assert!(strong > 0.0);
    }

    /// Warm starts converge in no more iterations than cold starts.
    #[test]
    fn warm_start_is_cheaper() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            let x = (i as f64) / 25.0 - 1.0;
            d.push(&[1.0, x], if x + 0.1 > 0.0 { 1.0 } else { 0.0 }, 1.0);
        }
        let obj = LogisticObjective::new(&d, 0.1);
        let mut w_cold = vec![0.0, 0.0];
        let cold = solve_fresh(&obj, &mut w_cold);

        // Perturb the solution slightly and re-solve: should be fast.
        let mut w_warm = w_cold.clone();
        w_warm[0] += 0.01;
        let warm = solve_fresh(&obj, &mut w_warm);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    /// A reused scratch yields exactly the same solve as fresh buffers —
    /// including across problems of different dimensionality.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let mut scratch = NewtonScratch::default();
        // First use the scratch on a larger unrelated problem so stale
        // contents and sizes must be handled.
        let mut big = Dataset::new(3);
        big.push(&[1.0, -2.0, 0.5], 0.3, 1.0);
        let mut wb = vec![0.1, 0.2, 0.3];
        solve(&LogisticObjective::new(&big, 0.2), &mut wb, &mut scratch);

        let mut d = Dataset::new(2);
        for i in 0..20 {
            let x = i as f64 / 10.0 - 1.0;
            d.push(&[1.0, x], if x > 0.0 { 1.0 } else { 0.0 }, 1.0);
        }
        let obj = LogisticObjective::new(&d, 0.5);
        let mut w_fresh = vec![0.0, 0.0];
        let fresh = solve_fresh(&obj, &mut w_fresh);
        let mut w_reused = vec![0.0, 0.0];
        let reused = solve(&obj, &mut w_reused, &mut scratch);
        assert_eq!(w_fresh, w_reused);
        assert_eq!(fresh.iterations, reused.iterations);
        assert_eq!(fresh.value, reused.value);
    }

    /// The solver never diverges on a degenerate single-point dataset.
    #[test]
    fn degenerate_dataset_is_stable() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0.5, 1.0); // zero feature row: only regulariser acts
        let obj = LogisticObjective::new(&d, 1.0);
        let mut w = vec![5.0];
        let r = solve_fresh(&obj, &mut w);
        assert!(r.converged);
        assert!(w[0].abs() < 1e-6, "w={}", w[0]);
    }

    /// A NaN feature (here on a weight-0 row) makes the start value
    /// non-finite: the weights stay exactly where they were.
    #[test]
    fn non_finite_value_never_moves_weights() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 0.5], 0.9, 1.0);
        d.push(&[f64::NAN, 1.0], 0.5, 0.0);
        let obj = LogisticObjective::new(&d, 0.3);
        let mut w = vec![0.2, -0.1];
        let r = solve_fresh(&obj, &mut w);
        assert_eq!(w, [0.2, -0.1]);
        assert!(!r.converged);
        assert_eq!(r.step_norm, 0.0);
    }

    /// Stiff Snopes shape: dim 11 × 10⁵ rows with column scales chosen so
    /// that the diagonal of `H` at the start runs from about 5 to about
    /// 4e7, as it does on the Snopes M-step. Along the stiff directions a
    /// step's change in `f` (≈ 7e4 here) sinks below the rounding of `f`
    /// long before the gradient meets the stopping rule. Too slow for a
    /// debug build; CI runs it with
    /// `cargo test --release -p crf --lib -- logistic newton`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 10⁵-row case")]
    fn converges_on_stiff_snopes_shape() {
        use rand::{Rng, SeedableRng};
        let (dim, rows) = (11, 100_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5717);
        // Column 0 is the bias; columns 1–10 scale geometrically from
        // 0.02 to 64, so at w = 0 (σ = ½, mean instance weight 1.15) the
        // diagonal λ + Σ mᵢσᵢ(1−σᵢ)x²ᵢⱼ ≈ 1 + 9.6e3·scale² runs from ≈ 4.8
        // to ≈ 3.9e7.
        let scale = |j: usize| 0.02 * 3200f64.powf((j - 1) as f64 / 9.0);
        let mut d = Dataset::new(dim);
        let mut row = vec![1.0; dim];
        for _ in 0..rows {
            for (j, x) in row.iter_mut().enumerate().skip(1) {
                *x = scale(j) * rng.gen_range(-1.0..1.0);
            }
            let weight = match rng.gen_range(0..20) {
                0 => 0.0,
                1 => 5.0,
                _ => 1.0,
            };
            d.push(&row, rng.gen_range(0.0..1.0), weight);
        }
        let obj = LogisticObjective::new(&d, 1.0);
        let (mut g, mut h) = (vec![0.0; dim], vec![0.0; dim * dim]);
        obj.eval(&vec![0.0; dim], &mut g, &mut h);
        let diag: Vec<f64> = (0..dim).map(|j| h[j * dim + j]).collect();
        let (lo, hi) = diag
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(
            (3.0..8.0).contains(&lo) && (2e7..6e7).contains(&hi),
            "diag(H) spans {lo:e}..{hi:e}"
        );

        let mut w = vec![0.0; dim];
        let r = solve_fresh(&obj, &mut w);
        assert!(r.converged, "{r:?}");
        let mut g_spec = vec![0.0; dim];
        obj.gradient(&w, &mut g_spec);
        assert!(
            norm2(&g_spec) <= EPS * norm2(&g),
            "‖∇f‖ = {} under the spec, ‖∇f(w₀)‖ = {}",
            norm2(&g_spec),
            norm2(&g)
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::logistic::Dataset;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On arbitrary soft-label datasets the solver reaches a point with
        /// a small gradient and never diverges.
        #[test]
        fn prop_solver_reaches_stationarity(
            rows in proptest::collection::vec(
                (proptest::collection::vec(-2.0f64..2.0, 3), 0.0f64..1.0, 0.1f64..3.0),
                1..25,
            ),
            lambda in 0.05f64..5.0,
        ) {
            let mut d = Dataset::new(3);
            for (row, q, w) in &rows {
                d.push(row, *q, *w);
            }
            let obj = LogisticObjective::new(&d, lambda);
            let mut w = vec![0.0; 3];
            let r = solve(&obj, &mut w, &mut NewtonScratch::default());
            prop_assert!(w.iter().all(|x| x.is_finite()), "diverged: {w:?}");
            prop_assert!(r.value.is_finite());
            // Stationarity relative to the problem scale.
            let scale: f64 = rows.iter().map(|(_, _, w)| w).sum();
            prop_assert!(
                r.grad_norm < 1e-2 * scale.max(1.0),
                "gradient {} too large", r.grad_norm
            );
        }

        /// The solution value never exceeds the value at the start — the
        /// solver always improves on its warm start, which is what lets the
        /// streaming estimator take every solve.
        #[test]
        fn prop_never_worse_than_start(
            rows in proptest::collection::vec(
                (proptest::collection::vec(-1.0f64..1.0, 2), 0.0f64..1.0),
                1..15,
            ),
        ) {
            let mut d = Dataset::new(2);
            for (row, q) in &rows {
                d.push(row, *q, 1.0);
            }
            let obj = LogisticObjective::new(&d, 0.5);
            let start = vec![0.3, -0.2];
            let f0 = obj.value(&start);
            let mut w = start.clone();
            let r = solve(&obj, &mut w, &mut NewtonScratch::default());
            prop_assert!(r.value <= f0 + 1e-12, "worsened: {} > {f0}", r.value);
        }

        /// The solution meets the solver's own stopping rule when its
        /// gradient is measured with the spec `gradient` rather than the
        /// fused pass, at dims 1–12 and 66, from an arbitrary start, with
        /// about a quarter of the instance weights 0. The first iteration's
        /// step solves `H s = −∇f` to a relative residual of 1e-10, and the
        /// reported step length matches the weights.
        #[test]
        fn prop_solution_meets_stopping_rule_under_spec_gradient(
            dim_pick in 0usize..13,
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec(-2.0f64..2.0, 66),
                    0.0f64..1.0,
                    proptest::option::of(0.0f64..3.0),
                ),
                0..25,
            ),
            start in proptest::collection::vec(-1.0f64..1.0, 66),
            lambda in 0.05f64..5.0,
        ) {
            let dim = if dim_pick == 12 { 66 } else { dim_pick + 1 };
            let mut d = Dataset::new(dim);
            for (row, q, m) in &rows {
                d.push(&row[..dim], *q, m.unwrap_or(0.0));
            }
            let obj = LogisticObjective::new(&d, lambda);
            let start = &start[..dim];

            // The first iteration's Newton system, solved as `solve` does.
            let (mut g0, mut h0) = (vec![0.0; dim], vec![0.0; dim * dim]);
            obj.eval(start, &mut g0, &mut h0);
            let (mut factor, mut s) = (h0.clone(), vec![0.0; dim]);
            prop_assert!(newton_step(&mut factor, &g0, &mut s));
            let residual: Vec<f64> = (0..dim)
                .map(|k| dot(&h0[k * dim..(k + 1) * dim], &s) + g0[k])
                .collect();
            prop_assert!(
                norm2(&residual) <= 1e-10 * norm2(&g0),
                "‖Hs + g‖ = {:e}, ‖g‖ = {:e}", norm2(&residual), norm2(&g0)
            );

            let mut w = start.to_vec();
            let r = solve(&obj, &mut w, &mut NewtonScratch::default());
            let mut g = vec![0.0; dim];
            obj.gradient(&w, &mut g);
            let (gnorm, gnorm0) = (norm2(&g), norm2(&g0));
            prop_assert!(
                gnorm <= EPS * gnorm0 || gnorm <= 1e-12,
                "‖∇f‖ = {gnorm} after {} iterations, ‖∇f(w₀)‖ = {gnorm0}", r.iterations
            );
            let step: f64 = w.iter().zip(start).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            prop_assert_eq!(r.step_norm, step);
        }
    }
}
