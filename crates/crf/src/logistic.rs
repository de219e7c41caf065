//! The weighted, L2-regularised logistic objective optimised in the M-step.
//!
//! The M-step (Eq. 8) maximises the expected complete-data log-likelihood
//! under the E-step distribution `q`. Because the model is log-linear with
//! one binary output per clique, this expectation reduces to a *soft-label*
//! logistic regression: every clique contributes one training instance whose
//! target is the current credibility estimate of its claim (flipped for
//! refuting cliques) and whose features are the clique features of
//! [`crate::potentials`]. Minimising
//!
//! ```text
//! f(w) = ½·λ‖w‖² + Σᵢ mᵢ·[ log(1 + e^{zᵢ}) − qᵢ·zᵢ ],   zᵢ = w·xᵢ
//! ```
//!
//! is exactly that maximisation (negated), with `mᵢ` an optional instance
//! weight. The gradient and Hessian are closed-form:
//! `∇f = λw + Σ mᵢ(σ(zᵢ) − qᵢ)xᵢ` and `H = λI + Σ mᵢσᵢ(1−σᵢ)xᵢxᵢᵀ`.
//!
//! The Newton solver ([`crate::newton`]) reads all three from one pass over
//! the data, [`LogisticObjective::eval`], which forms `H` as a dense
//! `dim × dim` matrix: the clique features are 11-dimensional at the
//! canonical scale, so the solver factors `H` and takes the exact Newton
//! step for about `dim³/6` flops instead of another pass over the rows. The
//! separate value, gradient and matrix-free Hessian-vector passes survive
//! as test-side specs the fused pass is held to (`docs/sampling.md`,
//! "M-step").

use crate::numerics::{axpy, dot};
#[cfg(test)]
use crate::numerics::{log1p_exp, sigmoid};

/// A dense soft-label training set: row-major features, a target
/// probability, and a non-negative weight per instance.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    x: Vec<f64>,
    targets: Vec<f64>,
    weights: Vec<f64>,
}

impl Dataset {
    /// An empty dataset over `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            x: Vec::new(),
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Append an instance. Panics if the row width differs from `dim` or the
    /// target is outside `[0, 1]`.
    pub fn push(&mut self, row: &[f64], target: f64, weight: f64) {
        assert_eq!(row.len(), self.dim, "feature row width mismatch");
        assert!(
            (0.0..=1.0).contains(&target),
            "target {target} not a probability"
        );
        assert!(weight >= 0.0, "negative instance weight");
        self.x.extend_from_slice(row);
        self.targets.push(target);
        self.weights.push(weight);
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` of the feature matrix.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Drop all instances but keep the allocation (the EM loop rebuilds the
    /// dataset each E-step).
    pub fn clear(&mut self) {
        self.x.clear();
        self.targets.clear();
        self.weights.clear();
    }

    /// Mutable view of row `i`. The EM loop keeps one instance per clique
    /// alive across iterations and patches only the dynamic trust column
    /// in place — the static feature prefix never changes.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Overwrite the target and weight of instance `i` (same checks as
    /// [`Self::push`]).
    #[inline]
    pub fn set_instance(&mut self, i: usize, target: f64, weight: f64) {
        assert!(
            (0.0..=1.0).contains(&target),
            "target {target} not a probability"
        );
        assert!(weight >= 0.0, "negative instance weight");
        self.targets[i] = target;
        self.weights[i] = weight;
    }
}

/// The objective `f` bound to a dataset and a regularisation strength.
#[derive(Debug, Clone, Copy)]
pub struct LogisticObjective<'a> {
    data: &'a Dataset,
    lambda: f64,
}

impl<'a> LogisticObjective<'a> {
    /// Bind the objective; `lambda` is the L2 coefficient (must be > 0 for
    /// strict convexity: it makes `H` positive definite, so the Newton
    /// solver's Cholesky step exists).
    pub fn new(data: &'a Dataset, lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        LogisticObjective { data, lambda }
    }

    /// Problem dimensionality.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// One pass over the data at `w`: returns `f(w)`, writes `∇f(w)` into
    /// `g` and the Hessian `∇²f(w)` into `h` as a dense row-major
    /// `dim × dim` matrix (both overwritten).
    ///
    /// Each row costs one dot product, one `exp`, one `ln_1p` and a
    /// gradient update. The lower triangle of `H` is accumulated four rows
    /// at a time, `dim·(dim+1)/2` multiply-adds a row, and mirrored once
    /// at the end. No row is skipped, so a NaN feature poisons the value,
    /// gradient and Hessian even on a weight-0 row.
    ///
    /// The value is summed with Neumaier's compensation. The Newton
    /// solver accepts a step only if `f` does not rise, and near the
    /// optimum a step lowers `f` by less than a plain sum's rounding error:
    /// at Snopes scale the decrease is ~1e-9 at `f ≈ 6e4`, and a plain sum
    /// of 9·10⁴ terms there is off by about as much.
    pub fn eval(&self, w: &[f64], g: &mut [f64], h: &mut [f64]) -> f64 {
        let (n, len) = (self.dim(), self.data.len());
        assert_eq!(w.len(), n, "weight vector dimension mismatch");
        assert_eq!(g.len(), n, "gradient buffer dimension mismatch");
        assert_eq!(h.len(), n * n, "Hessian buffer dimension mismatch");
        // Value and gradient accumulate in the specs' order, term for
        // term; the value also carries the rounding error of each add.
        let mut f = 0.5 * self.lambda * w.iter().map(|x| x * x).sum::<f64>();
        let mut f_err = 0.0;
        for (gi, wi) in g.iter_mut().zip(w) {
            *gi = self.lambda * wi;
        }
        h.fill(0.0);
        for first in (0..len).step_by(4) {
            // One sweep over the triangle serves four rows: at dim 11 its
            // short inner loops cost more in overhead than in flops. A
            // short last block repeats its first row with zero curvature.
            let mut rows = [self.data.row(first); 4];
            let mut curv = [0.0; 4];
            for r in 0..4.min(len - first) {
                let i = first + r;
                let row = self.data.row(i);
                let (m, q) = (self.data.weights[i], self.data.targets[i]);
                let z = dot(w, row);
                let (softplus, s) = softplus_sigmoid(z);
                let t = m * (softplus - q * z);
                let sum = f + t;
                f_err += if f.abs() >= t.abs() {
                    (f - sum) + t
                } else {
                    (t - sum) + f
                };
                f = sum;
                axpy(m * (s - q), row, g);
                rows[r] = row;
                curv[r] = m * s * (1.0 - s);
            }
            let [x0, x1, x2, x3] = rows;
            for j in 0..n {
                let a = [
                    curv[0] * x0[j],
                    curv[1] * x1[j],
                    curv[2] * x2[j],
                    curv[3] * x3[j],
                ];
                let cols = x0.iter().zip(x1).zip(x2).zip(x3);
                for (hjk, (((y0, y1), y2), y3)) in h[j * n..=j * n + j].iter_mut().zip(cols) {
                    *hjk += a[0] * y0 + a[1] * y1 + a[2] * y2 + a[3] * y3;
                }
            }
        }
        for j in 0..n {
            h[j * n + j] += self.lambda;
            for k in 0..j {
                h[k * n + j] = h[j * n + k];
            }
        }
        f + f_err
    }
}

/// `(log(1 + e^z), σ(z))` from one `exp(−|z|)`, each bit-identical to
/// [`crate::numerics::log1p_exp`] and [`crate::numerics::sigmoid`].
#[inline]
fn softplus_sigmoid(z: f64) -> (f64, f64) {
    let e = (-z.abs()).exp();
    let softplus = if z > 0.0 { z + e.ln_1p() } else { e.ln_1p() };
    let s = if z >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    };
    (softplus, s)
}

/// The executable specs [`LogisticObjective::eval`] is held to: one plain
/// pass each for the value, the gradient and a matrix-free Hessian-vector
/// product.
#[cfg(test)]
impl LogisticObjective<'_> {
    /// Objective value at `w`.
    pub fn value(&self, w: &[f64]) -> f64 {
        let mut f = 0.5 * self.lambda * w.iter().map(|x| x * x).sum::<f64>();
        for i in 0..self.data.len() {
            let z = dot(w, self.data.row(i));
            f += self.data.weights[i] * (log1p_exp(z) - self.data.targets[i] * z);
        }
        f
    }

    /// Gradient at `w`, written into `g` (overwritten). Also returns the
    /// per-instance sigmoids for [`Self::hessian_vec`].
    pub fn gradient(&self, w: &[f64], g: &mut [f64]) -> Vec<f64> {
        for (gi, wi) in g.iter_mut().zip(w) {
            *gi = self.lambda * wi;
        }
        let mut sigmas = Vec::with_capacity(self.data.len());
        for i in 0..self.data.len() {
            let row = self.data.row(i);
            let s = sigmoid(dot(w, row));
            sigmas.push(s);
            let coef = self.data.weights[i] * (s - self.data.targets[i]);
            axpy(coef, row, g);
        }
        sigmas
    }

    /// Hessian-vector product `Hv` at the point whose sigmoids are `sigmas`
    /// (as returned by [`Self::gradient`]), written into `out`.
    pub fn hessian_vec(&self, sigmas: &[f64], v: &[f64], out: &mut [f64]) {
        for (oi, vi) in out.iter_mut().zip(v) {
            *oi = self.lambda * vi;
        }
        // A short `sigmas` (stale buffer from a smaller problem) must fail
        // loudly: silently truncating the loop would drop the tail
        // instances from the Hessian and converge to wrong weights.
        assert_eq!(sigmas.len(), self.data.len(), "sigmas/instance mismatch");
        for (i, &s) in sigmas.iter().enumerate() {
            let row = self.data.row(i);
            let d = self.data.weights[i] * s * (1.0 - s);
            if d == 0.0 {
                continue;
            }
            let xv = dot(row, v);
            axpy(d * xv, row, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0], 1.0, 1.0);
        d.push(&[1.0, -1.0], 0.0, 1.0);
        d.push(&[1.0, 0.5], 0.7, 2.0);
        d
    }

    #[test]
    fn dataset_accessors() {
        let d = toy_dataset();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(1), &[1.0, -1.0]);
        assert!(!d.is_empty());
        let mut d2 = d.clone();
        d2.clear();
        assert!(d2.is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn dataset_rejects_bad_row() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn dataset_rejects_bad_target() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 1.5, 1.0);
    }

    #[test]
    fn value_at_zero_is_weighted_log2() {
        let d = toy_dataset();
        let obj = LogisticObjective::new(&d, 1.0);
        // z = 0 for all rows: loss per row = log 2 - q*0 = log 2.
        let expect = (1.0 + 1.0 + 2.0) * 2.0f64.ln();
        assert!((obj.value(&[0.0, 0.0]) - expect).abs() < 1e-12);
    }

    /// Finite-difference check of the analytic gradient.
    #[test]
    fn gradient_matches_finite_differences() {
        let d = toy_dataset();
        let obj = LogisticObjective::new(&d, 0.3);
        let w = [0.4, -0.7];
        let mut g = [0.0; 2];
        obj.gradient(&w, &mut g);
        let h = 1e-6;
        for k in 0..2 {
            let mut wp = w;
            wp[k] += h;
            let mut wm = w;
            wm[k] -= h;
            let fd = (obj.value(&wp) - obj.value(&wm)) / (2.0 * h);
            assert!(
                (fd - g[k]).abs() < 1e-5,
                "coordinate {k}: fd={fd} analytic={}",
                g[k]
            );
        }
    }

    /// Finite-difference check of the Hessian-vector product.
    #[test]
    fn hessian_vec_matches_finite_differences() {
        let d = toy_dataset();
        let obj = LogisticObjective::new(&d, 0.3);
        let w = [0.2, 0.1];
        let v = [0.9, -0.4];
        let mut g = [0.0; 2];
        let sigmas = obj.gradient(&w, &mut g);
        let mut hv = [0.0; 2];
        obj.hessian_vec(&sigmas, &v, &mut hv);

        let h = 1e-6;
        let wp: Vec<f64> = w.iter().zip(&v).map(|(wi, vi)| wi + h * vi).collect();
        let wm: Vec<f64> = w.iter().zip(&v).map(|(wi, vi)| wi - h * vi).collect();
        let mut gp = [0.0; 2];
        let mut gm = [0.0; 2];
        obj.gradient(&wp, &mut gp);
        obj.gradient(&wm, &mut gm);
        for k in 0..2 {
            let fd = (gp[k] - gm[k]) / (2.0 * h);
            assert!(
                (fd - hv[k]).abs() < 1e-4,
                "coordinate {k}: fd={fd} analytic={}",
                hv[k]
            );
        }
    }

    /// The Hessian is positive definite for lambda > 0: vᵀHv > 0.
    #[test]
    fn hessian_positive_definite() {
        let d = toy_dataset();
        let obj = LogisticObjective::new(&d, 0.1);
        let w = [0.3, -0.2];
        let mut g = [0.0; 2];
        let sigmas = obj.gradient(&w, &mut g);
        for v in [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [-0.3, 0.8]] {
            let mut hv = [0.0; 2];
            obj.hessian_vec(&sigmas, &v, &mut hv);
            let quad = crate::numerics::dot(&v, &hv);
            assert!(quad > 0.0, "vᵀHv = {quad} for v={v:?}");
        }
    }

    /// Instance weights scale the data term linearly.
    #[test]
    fn instance_weights_scale_loss() {
        let mut d1 = Dataset::new(1);
        d1.push(&[1.0], 1.0, 1.0);
        let mut d2 = Dataset::new(1);
        d2.push(&[1.0], 1.0, 3.0);
        let o1 = LogisticObjective::new(&d1, 1e-9);
        let o2 = LogisticObjective::new(&d2, 1e-9);
        let w = [0.5];
        assert!((3.0 * o1.value(&w) - o2.value(&w)).abs() < 1e-9);
    }

    /// A NaN feature poisons the fused pass even on a weight-0 row (a
    /// tombstoned clique), exactly as it poisons the value spec.
    #[test]
    fn nan_on_weight_zero_row_is_not_finite() {
        let mut d = toy_dataset();
        d.push(&[f64::NAN, 1.0], 0.5, 0.0);
        let obj = LogisticObjective::new(&d, 0.3);
        let w = [0.2, -0.1];
        let (mut g, mut h) = ([0.0; 2], [0.0; 4]);
        assert!(!obj.eval(&w, &mut g, &mut h).is_finite());
        assert!(!obj.value(&w).is_finite());
    }

    /// A dim 11 × 10⁵-row dataset of the Snopes M-step's shape: a bias
    /// column, ten features in `[−1, 1)`, soft targets, and instance
    /// weights 0, 1 or 5 as for tombstoned, unlabelled and labelled cliques.
    fn snopes_shape(rng: &mut rand::rngs::SmallRng) -> Dataset {
        use rand::Rng;
        let (dim, rows) = (11, 100_000);
        let mut d = Dataset::new(dim);
        let mut row = vec![1.0; dim];
        for _ in 0..rows {
            for x in &mut row[1..] {
                *x = rng.gen_range(-1.0..1.0);
            }
            let weight = match rng.gen_range(0..20) {
                0 => 0.0,
                1 => 5.0,
                _ => 1.0,
            };
            d.push(&row, rng.gen_range(0.0..1.0), weight);
        }
        d
    }

    /// Snopes shape (dim 11 × 10⁵ rows): summation rounding grows with the
    /// row count, so the fused pass is held to the specs at the production
    /// scale too. Too slow for a debug build; CI runs it with
    /// `cargo test --release -p crf --lib -- logistic newton`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 10⁵-row case")]
    fn fused_pass_matches_specs_at_snopes_shape() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3333);
        let d = snopes_shape(&mut rng);
        let w: Vec<f64> = (0..d.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v: Vec<f64> = (0..d.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        spec::assert_fused_matches_specs(&LogisticObjective::new(&d, 1.0), &w, &v);
    }

    /// At Snopes shape (`f ≈ 7e4`) the fused value resolves a change of
    /// 1e-8 in `f` to within 2%, as the Newton solver's acceptance test
    /// needs near the optimum. The reference change is the second-order
    /// Taylor term `∇f·δ + ½δᵀHδ` from the specs, exact to `O(‖δ‖³)`; an
    /// uncompensated sum of the 10⁵ terms is off by ~1e-9 here. Release
    /// only, like the case above.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 10⁵-row case")]
    fn fused_value_resolves_small_changes_at_snopes_shape() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
        let d = snopes_shape(&mut rng);
        let (obj, n) = (LogisticObjective::new(&d, 1.0), d.dim());
        let (mut g, mut h) = (vec![0.0; n], vec![0.0; n * n]);
        for _ in 0..8 {
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut delta: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut g_spec = vec![0.0; n];
            let sigmas = obj.gradient(&w, &mut g_spec);
            let scale = 1e-8 / dot(&g_spec, &delta).abs();
            delta.iter_mut().for_each(|x| *x *= scale);
            let mut h_delta = vec![0.0; n];
            obj.hessian_vec(&sigmas, &delta, &mut h_delta);
            let expected = dot(&g_spec, &delta) + 0.5 * dot(&delta, &h_delta);

            let mut w_new = w.clone();
            axpy(1.0, &delta, &mut w_new);
            let change = obj.eval(&w_new, &mut g, &mut h) - obj.eval(&w, &mut g, &mut h);
            assert!(
                (change - expected).abs() <= 0.02 * expected.abs(),
                "f changed by {change:e}, expected {expected:e}"
            );
        }
    }
}

/// The agreement check between [`LogisticObjective::eval`] and the specs,
/// shared by the property below and the Snopes-shape case.
#[cfg(test)]
mod spec {
    use super::*;

    /// Value and gradient within relative 1e-12 of the specs (relative to
    /// the sum of the absolute terms, so a cancelling gradient coordinate
    /// is not held to more digits than it has); `H·v` within the
    /// first-order rounding bound of both summation orders; `H` exactly
    /// symmetric.
    pub(super) fn assert_fused_matches_specs(obj: &LogisticObjective<'_>, w: &[f64], v: &[f64]) {
        let (data, lambda, n) = (obj.data, obj.lambda, obj.dim());
        let (mut g, mut h) = (vec![0.0; n], vec![0.0; n * n]);
        let f = obj.eval(w, &mut g, &mut h);
        let f_spec = obj.value(w);
        assert!(
            (f - f_spec).abs() <= 1e-12 * f_spec.abs(),
            "value {f} vs spec {f_spec}"
        );

        let mut g_spec = vec![0.0; n];
        let sigmas = obj.gradient(w, &mut g_spec);
        let mut hv_spec = vec![0.0; n];
        obj.hessian_vec(&sigmas, v, &mut hv_spec);
        // Per-coordinate sums of absolute terms of ∇f and of H·v.
        let mut g_scale: Vec<f64> = w.iter().map(|wk| (lambda * wk).abs()).collect();
        let mut hv_scale: Vec<f64> = v.iter().map(|vk| (lambda * vk).abs()).collect();
        for (i, &s) in sigmas.iter().enumerate() {
            let (row, m) = (data.row(i), data.weights[i]);
            let c = (m * (s - data.targets[i])).abs();
            let xv: f64 = row.iter().zip(v).map(|(x, vj)| (x * vj).abs()).sum();
            let dxv = m * s * (1.0 - s) * xv;
            for k in 0..n {
                g_scale[k] += c * row[k].abs();
                hv_scale[k] += dxv * row[k].abs();
            }
        }
        let terms = (data.len() + n + 4) as f64;
        for k in 0..n {
            assert!(
                (g[k] - g_spec[k]).abs() <= 1e-12 * g_scale[k],
                "gradient[{k}] {} vs spec {}",
                g[k],
                g_spec[k]
            );
            let hv_k = crate::numerics::dot(&h[k * n..(k + 1) * n], v);
            let bound = 2.0 * terms * f64::EPSILON * hv_scale[k];
            assert!(
                (hv_k - hv_spec[k]).abs() <= bound,
                "(Hv)[{k}] {hv_k} vs spec {} (bound {bound:e})",
                hv_spec[k]
            );
            for j in 0..k {
                assert_eq!(h[k * n + j], h[j * n + k], "H[{k}][{j}] not symmetric");
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On arbitrary data the fused pass agrees with the value,
        /// gradient and Hessian-vector specs, at dims 1–12 and the
        /// synthetic stream graph's 66. Rows are drawn 66 wide and cut to
        /// the case's dim; about a quarter of the instance weights are 0.
        #[test]
        fn prop_fused_pass_matches_specs(
            dim_pick in 0usize..13,
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec(-3.0f64..3.0, 66),
                    0.0f64..1.0,
                    proptest::option::of(0.0f64..5.0),
                ),
                0..30,
            ),
            w in proptest::collection::vec(-2.0f64..2.0, 66),
            v in proptest::collection::vec(-2.0f64..2.0, 66),
            lambda in 0.01f64..5.0,
        ) {
            let dim = if dim_pick == 12 { 66 } else { dim_pick + 1 };
            let mut d = Dataset::new(dim);
            for (row, q, m) in &rows {
                d.push(&row[..dim], *q, m.unwrap_or(0.0));
            }
            let obj = LogisticObjective::new(&d, lambda);
            spec::assert_fused_matches_specs(&obj, &w[..dim], &v[..dim]);
        }
    }
}
