//! Log-linear clique potentials (Eq. 2 of the paper).
//!
//! The paper instantiates each clique potential as a log-linear model with
//! per-configuration weights `W_π = {w_{π,0}, w_{π,1}, w^D_{π,t}, w^S_{π,t}}`.
//! Because only the *difference* between the two configurations matters for
//! the conditional distribution of the binary claim variable, we learn the
//! discriminative direction `β = W_1 − W_0` directly — this is the standard
//! logistic-regression reduction of a binary log-linear CRF and is precisely
//! what the paper's M-step (L2-regularised trust-region Newton logistic
//! regression, \[45\]) estimates.
//!
//! The feature vector of a clique `π = {c, d, s}` is
//! `x_π = [1, f^D(d), f^S(s), τ(s)]` where `τ(s)` is the dynamic
//! source-trust statistic carrying the indirect relations (see
//! [`crate::graph`] module docs). A refuting clique contributes with the
//! claim value flipped, which realises the opposing variable `¬c` and its
//! non-equality constraint (Eq. 3).

use crate::graph::{Clique, CrfModel, Since, Stance, SyncPoint};
use crate::numerics;
use serde::{Deserialize, Serialize};

/// The learned model parameters: one weight per clique-feature dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    beta: Vec<f64>,
}

impl Weights {
    /// All-zero weights of the given dimensionality (the maximum-entropy
    /// initialisation the paper uses: every claim starts at probability 0.5).
    pub fn zeros(dim: usize) -> Self {
        Weights {
            beta: vec![0.0; dim],
        }
    }

    /// Weights from an explicit coefficient vector.
    pub fn from_vec(beta: Vec<f64>) -> Self {
        Weights { beta }
    }

    /// Dimensionality of the weight vector.
    pub fn dim(&self) -> usize {
        self.beta.len()
    }

    /// Immutable view of the coefficients.
    pub fn as_slice(&self) -> &[f64] {
        &self.beta
    }

    /// Mutable view of the coefficients (used by the M-step optimiser).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.beta
    }

    /// Euclidean distance to another weight vector. The EM loop's
    /// convergence check reads the same quantity from the M-step solver's
    /// [`crate::newton::NewtonResult::step_norm`].
    pub fn distance(&self, other: &Weights) -> f64 {
        self.beta
            .iter()
            .zip(&other.beta)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Write the clique feature vector `x_π = [1, f^D(d), f^S(s), τ(s)]` into
/// `out`, which must have length `model.feature_dim()`.
#[inline]
pub fn clique_features(model: &CrfModel, clique: &Clique, trust: f64, out: &mut [f64]) {
    debug_assert_eq!(out.len(), model.feature_dim());
    out[0] = 1.0;
    let md = model.m_doc();
    out[1..1 + md].copy_from_slice(model.doc_feature_row(clique.doc));
    let ms = model.m_source();
    out[1 + md..1 + md + ms].copy_from_slice(model.source_feature_row(clique.source));
    // Centred so that a neutral source (τ = 1/2) contributes nothing: this
    // keeps the trust coordinate from feeding a collective drift of
    // unlabelled claims through the bias term.
    out[1 + md + ms] = trust - 0.5;
}

/// The *static* part of a clique's score: `β · [1, f^D(d), f^S(s)]`, i.e.
/// everything except the dynamic-trust term. Within one E-step the weights
/// are fixed, so this value is a per-clique constant — [`ScoreCache`]
/// precomputes it once and the Gibbs inner loop never touches the feature
/// matrices again.
#[inline]
pub fn clique_static_score(model: &CrfModel, weights: &Weights, clique: &Clique) -> f64 {
    static_score_slice(model, weights.as_slice(), clique)
}

/// Slice-based core of [`clique_static_score`]; the growth patch of
/// [`ScoreCache`] evaluates new cliques through the same code path so the
/// accumulation order — and therefore every bit of the result — matches a
/// full rebuild.
#[inline]
fn static_score_slice(model: &CrfModel, beta: &[f64], clique: &Clique) -> f64 {
    let mut acc = beta[0]; // bias * 1
    let md = model.m_doc();
    let ms = model.m_source();
    let df = model.doc_feature_row(clique.doc);
    for t in 0..md {
        acc += beta[1 + t] * df[t];
    }
    let sf = model.source_feature_row(clique.source);
    for t in 0..ms {
        acc += beta[1 + md + t] * sf[t];
    }
    acc
}

/// Lane width of the blocked ("SIMD-style") score kernels: [`ScoreCache`]
/// stages up to this many live cliques and evaluates their static scores
/// together over structure-of-arrays lanes. Each lane's addition chain is
/// exactly the one of [`static_score_slice`] — bias, then the document
/// features in `t` order, then the source features in `t` order — so the
/// blocked result is bit-identical to scalar evaluation; only the loop
/// nest is interchanged (`t`-outer, lane-inner) so the compiler can
/// vectorise across lanes.
const LANES: usize = 64;

/// A block of up to [`LANES`] live cliques staged for batched static-score
/// evaluation: the structure-of-arrays core of [`ScoreCache::rebuild`] and
/// the incremental weight-diff patch of [`ScoreCache::update`].
struct ScoreBlock {
    len: usize,
    doc: [u32; LANES],
    src: [u32; LANES],
    sign: [f64; LANES],
    /// Claim-major output position of each staged clique.
    out: [u32; LANES],
    acc: [f64; LANES],
}

impl ScoreBlock {
    fn new() -> Self {
        ScoreBlock {
            len: 0,
            doc: [0; LANES],
            src: [0; LANES],
            sign: [0.0; LANES],
            out: [0; LANES],
            acc: [0.0; LANES],
        }
    }

    /// Stage one live clique; returns `true` when the block is full and
    /// must be flushed.
    #[inline]
    fn push(&mut self, clique: &Clique, pos: u32) -> bool {
        self.doc[self.len] = clique.doc;
        self.src[self.len] = clique.source;
        self.sign[self.len] = match clique.stance {
            Stance::Support => 1.0,
            Stance::Refute => -1.0,
        };
        self.out[self.len] = pos;
        self.len += 1;
        self.len == LANES
    }

    /// Evaluate the staged cliques' static scores — per lane the exact
    /// addition chain of [`static_score_slice`] — and scatter the signed
    /// scores (and signed trust weight) to their claim-major positions.
    fn flush(&mut self, model: &CrfModel, beta: &[f64], statics: &mut [f64], trust_ws: &mut [f64]) {
        let n = self.len;
        if n == 0 {
            return;
        }
        let trust_w = beta[beta.len() - 1];
        let md = model.m_doc();
        let ms = model.m_source();
        self.acc[..n].fill(beta[0]); // bias * 1
        for t in 0..md {
            let w = beta[1 + t];
            for j in 0..n {
                self.acc[j] += w * model.doc_feature_row(self.doc[j])[t];
            }
        }
        for t in 0..ms {
            let w = beta[1 + md + t];
            for j in 0..n {
                self.acc[j] += w * model.source_feature_row(self.src[j])[t];
            }
        }
        for j in 0..n {
            let pos = self.out[j] as usize;
            statics[pos] = self.sign[j] * self.acc[j];
            trust_ws[pos] = self.sign[j] * trust_w;
        }
        self.len = 0;
    }

    /// Patch the staged cliques for a weight-coordinate diff: per lane
    /// `Δ = Δβ_0 + Σ_t Δβ_t·f^D_t + Σ_t Δβ_t·f^S_t` in moved-coordinate
    /// order — the same chain as the scalar patch loop this replaces —
    /// added into the signed static scores. `trust` carries the new raw
    /// trust weight when that coordinate moved too.
    #[allow(clippy::too_many_arguments)] // the staged lanes plus one arg per diff channel
    fn flush_delta(
        &mut self,
        model: &CrfModel,
        d_bias: f64,
        moved_doc: &[(usize, f64)],
        moved_src: &[(usize, f64)],
        trust: Option<f64>,
        statics: &mut [f64],
        trust_ws: &mut [f64],
    ) {
        let n = self.len;
        if n == 0 {
            return;
        }
        self.acc[..n].fill(d_bias);
        for &(t, dv) in moved_doc {
            for j in 0..n {
                self.acc[j] += dv * model.doc_feature_row(self.doc[j])[t];
            }
        }
        for &(t, dv) in moved_src {
            for j in 0..n {
                self.acc[j] += dv * model.source_feature_row(self.src[j])[t];
            }
        }
        for j in 0..n {
            let pos = self.out[j] as usize;
            statics[pos] += self.sign[j] * self.acc[j];
            if let Some(tw) = trust {
                trust_ws[pos] = self.sign[j] * tw;
            }
        }
        self.len = 0;
    }
}

/// The raw score `β · x_π` of a clique under the given dynamic trust.
#[inline]
pub fn clique_score(model: &CrfModel, weights: &Weights, clique: &Clique, trust: f64) -> f64 {
    let md = model.m_doc();
    let ms = model.m_source();
    clique_static_score(model, weights, clique) + weights.as_slice()[1 + md + ms] * (trust - 0.5)
}

/// The signed contribution of a clique to the logit of *its claim being
/// credible*: supporting cliques push with `+score`, refuting cliques with
/// `-score` (they attach to the opposing variable).
#[inline]
pub fn clique_logit_contribution(
    model: &CrfModel,
    weights: &Weights,
    clique: &Clique,
    trust: f64,
) -> f64 {
    let s = clique_score(model, weights, clique, trust);
    match clique.stance {
        Stance::Support => s,
        Stance::Refute => -s,
    }
}

/// The full conditional logit of claim `c` given per-source trust values:
/// the sum of its **live** cliques' signed contributions (retired evidence
/// contributes nothing).
pub fn claim_logit(
    model: &CrfModel,
    weights: &Weights,
    claim: crate::graph::VarId,
    trust_of: impl Fn(u32) -> f64,
) -> f64 {
    model
        .cliques_of(claim)
        .iter()
        .filter(|&&ci| model.clique_live(ci as usize))
        .map(|&ci| {
            let cl = model.clique(crate::graph::CliqueId(ci));
            clique_logit_contribution(model, weights, cl, trust_of(cl.source))
        })
        .sum()
}

/// The conditional probability `P(c = 1 | rest)` induced by [`claim_logit`].
pub fn claim_probability(
    model: &CrfModel,
    weights: &Weights,
    claim: crate::graph::VarId,
    trust_of: impl Fn(u32) -> f64,
) -> f64 {
    numerics::sigmoid(claim_logit(model, weights, claim, trust_of))
}

/// Precomputed clique scores for one fixed weight vector — the E-step's hot
/// data structure.
///
/// Within an E-step the weights `β` are constants, so each clique's
/// contribution to its claim's conditional logit decomposes into a
/// per-clique constant plus one dynamic term:
///
/// ```text
/// ±(β·[1, f^D, f^S] + β_τ·(τ(s) − ½))  =  signed_static + signed_τw·(τ(s) − ½)
/// ```
///
/// The cache stores `signed_static` and `signed_τw` (the stance sign folded
/// in) **in claim-major order** — the same layout as
/// [`CrfModel::cliques_of`] — so a single-site Gibbs update reads two
/// contiguous `f64` slices and the source-id slice, and performs one
/// multiply-add per incident clique regardless of the feature
/// dimensionality. Scores are bit-identical to evaluating
/// [`clique_logit_contribution`] directly: negation and the final add are
/// exact IEEE transformations of the same partial sums.
///
/// Rebuilding the cache is `O(n_cliques · feature_dim)` and happens once
/// per E-step; [`ScoreCache::rebuild`] reuses the allocations across EM
/// iterations. When only a few weight coordinates move between EM
/// iterations, [`ScoreCache::update`] patches the cached scores incrementally in
/// `O(n_cliques · moved)` instead of paying the full rebuild. When the
/// model *grew* ([`CrfModel::apply`]) the cache patches too: old cliques'
/// scores are relocated to their (possibly shifted) claim-major positions
/// bit-for-bit via the clique-id → position map, and only the new cliques'
/// scores are computed — `O(n_cliques + added · feature_dim)` instead of
/// `O(n_cliques · feature_dim)`.
#[derive(Debug, Clone, Default)]
pub struct ScoreCache {
    signed_static: Vec<f64>,
    signed_trust_w: Vec<f64>,
    /// The weight vector the cached scores were computed for; the diff
    /// against it drives the incremental path of [`Self::update`].
    weights: Vec<f64>,
    /// Claim-major position of each clique id at the cached revision — the
    /// relocation map of the growth patch (each clique has exactly one
    /// incidence, so this is a permutation of `0..n_cliques`).
    pos_of_clique: Vec<u32>,
    /// The model state the cached layout covers ([`CrfModel::since`]
    /// decides between patching, relocating and rebuilding).
    synced: SyncPoint,
}

/// How [`ScoreCache::update`] refreshed the cache for a new weight vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRefresh {
    /// Every per-clique score was recomputed from scratch.
    Rebuilt,
    /// Only the scores touched by the `moved` changed weight coordinates
    /// were patched (`O(n_cliques · moved)` work).
    Incremental {
        /// Number of weight coordinates that changed since the last build.
        moved: usize,
    },
    /// The model grew since the last refresh: cached scores were relocated
    /// to the new claim-major layout and only the `added` new cliques were
    /// scored (plus a weight-diff patch when `moved > 0` coordinates also
    /// changed).
    Grown {
        /// Cliques appended since the cached revision.
        added: usize,
        /// Weight coordinates that changed since the last refresh.
        moved: usize,
    },
    /// Entities were retired since the last refresh: the dead cliques'
    /// cached scores were zeroed (a dead clique contributes exactly
    /// nothing), any appended cliques were scored, and a weight-diff patch
    /// was applied when `moved > 0`.
    Retired {
        /// Cliques currently tombstoned.
        dead: usize,
        /// Cliques appended since the cached revision.
        added: usize,
        /// Weight coordinates that changed since the last refresh.
        moved: usize,
    },
    /// The model compacted since the last refresh: surviving cliques'
    /// scores were relocated bit-for-bit through the published
    /// [`crate::graph::IdRemap`], dropped cliques' entries were discarded,
    /// the unseen growth was scored, and a weight-diff patch was
    /// applied when `moved > 0`.
    Compacted {
        /// Cliques dropped by the compaction.
        dropped: usize,
        /// Cliques appended since the last refresh (before or after the
        /// compaction) that survived it.
        added: usize,
        /// Weight coordinates that changed since the last refresh.
        moved: usize,
    },
    /// The weights were identical to the cached ones; nothing was touched.
    Unchanged,
}

impl ScoreCache {
    /// An empty cache; call [`Self::rebuild`] before use.
    pub fn new() -> Self {
        ScoreCache::default()
    }

    /// Build a cache for `(model, weights)` in one pass.
    pub fn build(model: &CrfModel, weights: &Weights) -> Self {
        let mut cache = ScoreCache::new();
        cache.rebuild(model, weights);
        cache
    }

    /// Recompute the per-clique constants for a new weight vector, reusing
    /// the allocations. The evaluation is blocked: up to `LANES` live
    /// cliques are staged and scored together over structure-of-arrays
    /// lanes (`ScoreBlock`), bit-identical to scoring each clique through
    /// `static_score_slice` (same per-lane addition chain).
    pub fn rebuild(&mut self, model: &CrfModel, weights: &Weights) {
        let n = model.n_incidences();
        self.signed_static.clear();
        self.signed_static.resize(n, 0.0);
        self.signed_trust_w.clear();
        self.signed_trust_w.resize(n, 0.0);
        self.pos_of_clique.clear();
        self.pos_of_clique.resize(n, 0);
        let beta = weights.as_slice();
        let mut block = ScoreBlock::new();
        let mut pos = 0u32;
        for claim in 0..model.n_claims() as u32 {
            for &ci in model.cliques_of(crate::graph::VarId(claim)) {
                self.pos_of_clique[ci as usize] = pos;
                // A tombstoned clique keeps the zero entries from the
                // resize: it contributes exactly nothing and the sweep
                // needs no liveness branch.
                if model.clique_live(ci as usize)
                    && block.push(model.clique(crate::graph::CliqueId(ci)), pos)
                {
                    block.flush(
                        model,
                        beta,
                        &mut self.signed_static,
                        &mut self.signed_trust_w,
                    );
                }
                pos += 1;
            }
        }
        block.flush(
            model,
            beta,
            &mut self.signed_static,
            &mut self.signed_trust_w,
        );
        self.weights.clear();
        self.weights.extend_from_slice(weights.as_slice());
        self.synced = model.sync_point();
    }

    /// The relocation kernel of growth and compaction: rebuild the
    /// claim-major layout, pulling each clique's cached scores bit-for-bit
    /// from its old position when `old_id_of` maps its id into the
    /// previous layout (spans shift when old claims gain cliques), and
    /// scoring it at the *cached* weights when it is new (the caller's
    /// weight-diff patch then brings everything to the requested weights).
    fn relocate(&mut self, model: &CrfModel, old_id_of: impl Fn(usize) -> Option<usize>) {
        let n = model.n_incidences();
        let trust_w = self.weights[self.weights.len() - 1];
        let old_static = std::mem::take(&mut self.signed_static);
        let old_trust = std::mem::take(&mut self.signed_trust_w);
        let old_pos = std::mem::take(&mut self.pos_of_clique);
        self.signed_static.reserve(n);
        self.signed_trust_w.reserve(n);
        self.pos_of_clique.resize(n, 0);
        for claim in 0..model.n_claims() as u32 {
            for &ci in model.cliques_of(crate::graph::VarId(claim)) {
                self.pos_of_clique[ci as usize] = self.signed_static.len() as u32;
                if let Some(old_id) = old_id_of(ci as usize) {
                    let op = old_pos[old_id] as usize;
                    self.signed_static.push(old_static[op]);
                    self.signed_trust_w.push(old_trust[op]);
                } else {
                    let clique = model.clique(crate::graph::CliqueId(ci));
                    let stat = static_score_slice(model, &self.weights, clique);
                    let sign = match clique.stance {
                        Stance::Support => 1.0,
                        Stance::Refute => -1.0,
                    };
                    self.signed_static.push(sign * stat);
                    self.signed_trust_w.push(sign * trust_w);
                }
            }
        }
    }

    /// (Re-)zero the cached scores of every tombstoned clique — idempotent,
    /// `O(n_cliques)` index traffic with no feature work. Returns the
    /// number of dead cliques.
    fn zero_dead(&mut self, model: &CrfModel) -> usize {
        let mut dead = 0;
        for ci in 0..self.pos_of_clique.len() {
            if !model.clique_live(ci) {
                let pos = self.pos_of_clique[ci] as usize;
                self.signed_static[pos] = 0.0;
                self.signed_trust_w[pos] = 0.0;
                dead += 1;
            }
        }
        dead
    }

    /// Refresh the cache for a new weight vector, incrementally where
    /// possible.
    ///
    /// The cache remembers the weights it was last built for. If nothing
    /// moved, this is a no-op; if only a few coordinates moved (the M-step's
    /// active set), each cached static score is patched with the signed delta
    /// `Σ_{t moved} Δβ_t · x_t`, touching only the moved feature columns:
    /// `O(n_cliques · moved)` instead of `O(n_cliques · feature_dim)`.
    /// When more than half the coordinates moved — or the cache is empty,
    /// sized for another model, or of another dimensionality — it falls
    /// back to the full [`Self::rebuild`]. Patched scores agree with a full
    /// rebuild to well below `1e-12` (one extra rounding per moved
    /// coordinate per update).
    ///
    /// A newer model **revision** (same lineage; see [`CrfModel::apply`])
    /// does *not* force a rebuild: the cache relocates its scores to the
    /// grown claim-major layout bit-for-bit and computes only the new
    /// cliques ([`CacheRefresh::Grown`]); with unchanged weights the grown
    /// cache equals a full rebuild exactly, not merely within tolerance.
    /// Retirement zeroes the dead cliques' entries in place
    /// ([`CacheRefresh::Retired`] — a zero entry contributes exactly
    /// nothing, so the sweep needs no liveness branch), and a compaction
    /// relocates the survivors through the model's published
    /// [`crate::graph::IdRemap`] ([`CacheRefresh::Compacted`]); in both
    /// cases the result equals a full rebuild bit for bit at unchanged
    /// weights. Growth in the gap before a compaction is folded in after
    /// the relocation. Whatever [`CrfModel::since`] answers with
    /// [`Since::Rebuild`] — another lineage, two compactions, a divergent
    /// clone — falls back to the rebuild.
    pub fn update(&mut self, model: &CrfModel, weights: &Weights) -> CacheRefresh {
        let dim = model.feature_dim();
        if self.weights.len() != dim || weights.dim() != dim {
            self.rebuild(model, weights);
            return CacheRefresh::Rebuilt;
        }
        let (mut added, mut dropped) = (0, 0);
        let (compacted, retired) = match model.since(self.synced) {
            Since::Unchanged => (false, false),
            Since::Patch {
                first_new_clique,
                retired,
                ..
            } => {
                added = model.n_incidences() - first_new_clique;
                if added > 0 {
                    // Seen clique ids are their own old ids.
                    self.relocate(model, |ci| (ci < first_new_clique).then_some(ci));
                }
                (false, retired)
            }
            Since::Relocate {
                remap,
                first_new_clique,
                retired,
                ..
            } => {
                let inv = remap.inverse_cliques();
                dropped = remap.n_old_cliques() - remap.n_new_cliques();
                added = model.n_incidences() - first_new_clique;
                self.relocate(model, |ci| {
                    (ci < first_new_clique).then(|| inv[ci] as usize)
                });
                (true, retired)
            }
            Since::Rebuild => {
                self.rebuild(model, weights);
                return CacheRefresh::Rebuilt;
            }
        };
        let dead = if retired { self.zero_dead(model) } else { 0 };
        self.synced = model.sync_point();
        let refresh = |moved: usize| {
            if compacted {
                CacheRefresh::Compacted {
                    dropped,
                    added,
                    moved,
                }
            } else if retired {
                CacheRefresh::Retired { dead, added, moved }
            } else if added > 0 {
                CacheRefresh::Grown { added, moved }
            } else if moved > 0 {
                CacheRefresh::Incremental { moved }
            } else {
                CacheRefresh::Unchanged
            }
        };
        let beta = weights.as_slice();
        let moved: Vec<usize> = (0..dim).filter(|&i| self.weights[i] != beta[i]).collect();
        if moved.is_empty() {
            return refresh(0);
        }
        if moved.len() * 2 > dim {
            self.rebuild(model, weights);
            return CacheRefresh::Rebuilt;
        }
        let md = model.m_doc();
        let ms = model.m_source();
        let d_bias = if self.weights[0] != beta[0] {
            beta[0] - self.weights[0]
        } else {
            0.0
        };
        let moved_doc: Vec<(usize, f64)> = moved
            .iter()
            .filter(|&&i| i >= 1 && i < 1 + md)
            .map(|&i| (i - 1, beta[i] - self.weights[i]))
            .collect();
        let moved_src: Vec<(usize, f64)> = moved
            .iter()
            .filter(|&&i| i > md && i < 1 + md + ms)
            .map(|&i| (i - 1 - md, beta[i] - self.weights[i]))
            .collect();
        let trust_moved = self.weights[dim - 1] != beta[dim - 1];
        let trust_w = beta[dim - 1];
        let static_moved = d_bias != 0.0 || !moved_doc.is_empty() || !moved_src.is_empty();

        let mut k = 0u32;
        if static_moved {
            // Blocked patch, same staging as the rebuild: each lane's delta
            // accumulates in moved-coordinate order, matching the scalar
            // patch chain bit for bit.
            let trust = trust_moved.then_some(trust_w);
            let mut block = ScoreBlock::new();
            for claim in 0..model.n_claims() as u32 {
                for &ci in model.cliques_of(crate::graph::VarId(claim)) {
                    // Dead entries stay exactly zero under weight moves.
                    if model.clique_live(ci as usize)
                        && block.push(model.clique(crate::graph::CliqueId(ci)), k)
                    {
                        block.flush_delta(
                            model,
                            d_bias,
                            &moved_doc,
                            &moved_src,
                            trust,
                            &mut self.signed_static,
                            &mut self.signed_trust_w,
                        );
                    }
                    k += 1;
                }
            }
            block.flush_delta(
                model,
                d_bias,
                &moved_doc,
                &moved_src,
                trust,
                &mut self.signed_static,
                &mut self.signed_trust_w,
            );
        } else if trust_moved {
            // Only the trust coordinate moved: no feature work at all.
            for claim in 0..model.n_claims() as u32 {
                for &ci in model.cliques_of(crate::graph::VarId(claim)) {
                    if model.clique_live(ci as usize) {
                        let sign = match model.clique(crate::graph::CliqueId(ci)).stance {
                            Stance::Support => 1.0,
                            Stance::Refute => -1.0,
                        };
                        self.signed_trust_w[k as usize] = sign * trust_w;
                    }
                    k += 1;
                }
            }
        }
        self.weights.copy_from_slice(beta);
        refresh(moved.len())
    }

    /// Number of cached incidences.
    pub fn len(&self) -> usize {
        self.signed_static.len()
    }

    /// Whether the cache is empty (not yet built).
    pub fn is_empty(&self) -> bool {
        self.signed_static.is_empty()
    }

    /// The signed logit contribution of the clique at claim-major position
    /// `k` under dynamic trust `trust` — equals
    /// [`clique_logit_contribution`] for that clique, in one fused
    /// multiply-add.
    #[inline]
    pub fn contribution(&self, k: usize, trust: f64) -> f64 {
        self.signed_static[k] + self.signed_trust_w[k] * (trust - 0.5)
    }

    /// The claim-major signed-static and signed-trust-weight slices for a
    /// span of positions (the sampler iterates these directly).
    #[inline]
    pub fn span(&self, lo: usize, hi: usize) -> (&[f64], &[f64]) {
        (&self.signed_static[lo..hi], &self.signed_trust_w[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, VarId};

    fn model_one_claim(stance: Stance) -> CrfModel {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.25]).unwrap();
        b.add_clique(c, d, s, stance);
        CrfModel::build(b).unwrap()
    }

    #[test]
    fn clique_features_layout() {
        let m = model_one_claim(Stance::Support);
        let mut x = vec![0.0; m.feature_dim()];
        clique_features(&m, &m.cliques()[0], 0.7, &mut x);
        // Trust is centred: 0.7 - 0.5 = 0.2 (up to float rounding).
        let expect = [1.0, 0.25, 0.5, 0.2];
        for (a, b) in x.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn clique_score_is_dot_product() {
        let m = model_one_claim(Stance::Support);
        let w = Weights::from_vec(vec![0.1, 1.0, 2.0, 3.0]);
        let got = clique_score(&m, &w, &m.cliques()[0], 0.7);
        let expect = 0.1 + 1.0 * 0.25 + 2.0 * 0.5 + 3.0 * (0.7 - 0.5);
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn refute_flips_the_sign() {
        let msup = model_one_claim(Stance::Support);
        let mref = model_one_claim(Stance::Refute);
        let w = Weights::from_vec(vec![0.1, 1.0, 2.0, 3.0]);
        let a = clique_logit_contribution(&msup, &w, &msup.cliques()[0], 0.7);
        let b = clique_logit_contribution(&mref, &w, &mref.cliques()[0], 0.7);
        assert!((a + b).abs() < 1e-12, "support and refute must be opposite");
    }

    #[test]
    fn zero_weights_give_half_probability() {
        let m = model_one_claim(Stance::Support);
        let w = Weights::zeros(m.feature_dim());
        let p = claim_probability(&m, &w, VarId(0), |_| 0.5);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiple_cliques_sum_their_logits() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[1.0]).unwrap();
        let c = b.add_claim();
        for _ in 0..3 {
            let d = b.add_document(&[1.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let w = Weights::from_vec(vec![0.5, 0.0, 0.0, 0.0]);
        let logit = claim_logit(&m, &w, VarId(0), |_| 0.0);
        assert!((logit - 1.5).abs() < 1e-12, "3 cliques x bias 0.5");
    }

    /// The cache's fused multiply-add agrees with evaluating the clique
    /// potential directly, to 1e-12, across a random model, mixed-sign
    /// weights, and a sweep of dynamic trust values — position `k` walks
    /// the claim-major layout shared with [`crate::graph::CrfModel`].
    #[test]
    fn score_cache_matches_direct_contribution() {
        use crate::graph::CliqueId;
        let m = crate::graph::test_support::random_model(40, 8, 3, 77);
        let w = Weights::from_vec(
            (0..m.feature_dim())
                .map(|i| 0.31 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let cache = ScoreCache::build(&m, &w);
        let mut k = 0;
        for claim in 0..m.n_claims() as u32 {
            for &ci in m.cliques_of(VarId(claim)) {
                let cl = m.clique(CliqueId(ci));
                for trust in [0.0, 0.17, 0.5, 0.93, 1.0] {
                    let direct = clique_logit_contribution(&m, &w, cl, trust);
                    let cached = cache.contribution(k, trust);
                    assert!(
                        (direct - cached).abs() < 1e-12,
                        "incidence {k} trust {trust}: direct {direct} vs cached {cached}"
                    );
                }
                k += 1;
            }
        }
        assert_eq!(k, cache.len(), "cache must cover every incidence");
        assert!(!cache.is_empty());
    }

    /// A sequence of small weight perturbations applied through
    /// [`ScoreCache::update`] stays within 1e-12 of a from-scratch rebuild
    /// at every step — the acceptance bound for the incremental E-step.
    #[test]
    fn incremental_update_matches_full_rebuild() {
        let m = crate::graph::test_support::random_model(50, 10, 3, 91);
        let dim = m.feature_dim();
        let mut w = Weights::from_vec((0..dim).map(|i| 0.2 * (i as f64) - 0.3).collect());
        let mut cache = ScoreCache::build(&m, &w);

        for step in 0..20 {
            // Move one or two coordinates per step, cycling through all of
            // them (bias, doc, source, and trust coordinates all get hit).
            let i = step % dim;
            w.as_mut_slice()[i] += 0.01 * (step as f64 + 1.0);
            if step % 3 == 0 {
                w.as_mut_slice()[(i + 2) % dim] -= 0.005;
            }
            let refresh = cache.update(&m, &w);
            assert!(
                matches!(refresh, CacheRefresh::Incremental { .. }),
                "step {step}: expected incremental refresh, got {refresh:?}"
            );
            let fresh = ScoreCache::build(&m, &w);
            for k in 0..fresh.len() {
                for trust in [0.0, 0.3, 1.0] {
                    let a = cache.contribution(k, trust);
                    let b = fresh.contribution(k, trust);
                    assert!(
                        (a - b).abs() < 1e-12,
                        "step {step} incidence {k}: incremental {a} vs rebuilt {b}"
                    );
                }
            }
        }
    }

    /// Unchanged weights are a no-op; moving more than half the coordinates
    /// falls back to a full rebuild; a different model forces a rebuild even
    /// when the dimensions agree.
    #[test]
    fn update_chooses_the_right_path() {
        let m = crate::graph::test_support::random_model(20, 5, 2, 13);
        let dim = m.feature_dim();
        let w = Weights::from_vec(vec![0.4; dim]);
        let mut cache = ScoreCache::build(&m, &w);
        assert_eq!(cache.update(&m, &w), CacheRefresh::Unchanged);

        let mut w2 = w.clone();
        w2.as_mut_slice()[1] += 0.1;
        assert_eq!(
            cache.update(&m, &w2),
            CacheRefresh::Incremental { moved: 1 }
        );

        let w3 = Weights::from_vec(vec![-0.7; dim]);
        assert_eq!(cache.update(&m, &w3), CacheRefresh::Rebuilt);

        // Same sizes, different model instance: must rebuild, not patch.
        let m2 = crate::graph::test_support::random_model(20, 5, 2, 14);
        assert_eq!(cache.update(&m2, &w3), CacheRefresh::Rebuilt);
        let fresh = ScoreCache::build(&m2, &w3);
        for k in 0..fresh.len() {
            assert_eq!(cache.contribution(k, 0.25), fresh.contribution(k, 0.25));
        }
    }

    /// A trust-weight-only move patches the dynamic column exactly.
    #[test]
    fn trust_only_update_is_exact() {
        let m = crate::graph::test_support::random_model(15, 4, 2, 7);
        let dim = m.feature_dim();
        let mut w = Weights::from_vec((0..dim).map(|i| 0.1 * i as f64).collect());
        let mut cache = ScoreCache::build(&m, &w);
        w.as_mut_slice()[dim - 1] = -2.5;
        assert_eq!(cache.update(&m, &w), CacheRefresh::Incremental { moved: 1 });
        let fresh = ScoreCache::build(&m, &w);
        for k in 0..fresh.len() {
            // Static untouched and the trust column re-derived, so the two
            // caches are bit-identical here, not merely close.
            assert_eq!(cache.contribution(k, 0.8), fresh.contribution(k, 0.8));
        }
    }

    #[test]
    fn weights_distance() {
        let a = Weights::from_vec(vec![0.0, 0.0]);
        let b = Weights::from_vec(vec![3.0, 4.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    /// Growth patch spec: after any sequence of deltas, a cache kept in
    /// sync through [`ScoreCache::update`] is **bit-identical** to a cache
    /// built from scratch on the grown model (weights unchanged throughout)
    /// — relocated scores keep their bits and new cliques go through the
    /// same scoring code as a rebuild.
    #[test]
    fn grown_cache_is_bit_identical_to_rebuild() {
        use crate::graph::test_support as ts;
        for seed in 0..16u64 {
            let script = ts::random_growth_script(seed.wrapping_mul(31) ^ 0xCAFE, 4);
            let mut model = ts::build_batch(&script[..1]);
            let w = Weights::from_vec(
                (0..model.feature_dim())
                    .map(|i| 0.27 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let mut cache = ScoreCache::build(&model, &w);
            for chunk in &script[1..] {
                let delta = ts::chunk_delta(&model, chunk);
                let expect_added = delta.n_new_cliques();
                model.apply(delta).unwrap();
                let refresh = cache.update(&model, &w);
                if expect_added > 0 {
                    assert_eq!(
                        refresh,
                        CacheRefresh::Grown {
                            added: expect_added,
                            moved: 0
                        },
                        "seed {seed}"
                    );
                } else {
                    assert!(
                        matches!(
                            refresh,
                            CacheRefresh::Unchanged | CacheRefresh::Grown { added: 0, .. }
                        ),
                        "seed {seed}: {refresh:?}"
                    );
                }
                let fresh = ScoreCache::build(&model, &w);
                assert_eq!(cache.len(), fresh.len(), "seed {seed}");
                for k in 0..fresh.len() {
                    assert_eq!(
                        cache.contribution(k, 0.37).to_bits(),
                        fresh.contribution(k, 0.37).to_bits(),
                        "seed {seed} incidence {k}: grown cache diverged from rebuild"
                    );
                }
            }
        }
    }

    /// Retirement spec: zeroed dead entries make the cache bit-identical
    /// to a from-scratch build on the tombstoned model, and a dead
    /// clique's contribution is exactly 0 for any trust.
    #[test]
    fn retired_cache_is_bit_identical_to_rebuild() {
        use crate::graph::{RetireSet, VarId};
        let mut m = crate::graph::test_support::random_model(30, 8, 3, 44);
        let w = Weights::from_vec(
            (0..m.feature_dim())
                .map(|i| 0.23 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let mut cache = ScoreCache::build(&m, &w);
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(3));
        set.retire_claim(VarId(17));
        m.retire(set).unwrap();
        let refresh = cache.update(&m, &w);
        assert!(
            matches!(refresh, CacheRefresh::Retired { dead, added: 0, moved: 0 } if dead > 0),
            "{refresh:?}"
        );
        let fresh = ScoreCache::build(&m, &w);
        assert_eq!(cache.len(), fresh.len());
        for k in 0..fresh.len() {
            assert_eq!(
                cache.contribution(k, 0.41).to_bits(),
                fresh.contribution(k, 0.41).to_bits(),
                "incidence {k}"
            );
        }
        // Dead cliques contribute exactly nothing at any trust.
        for &ci in m.cliques_of(VarId(3)) {
            let (lo, _) = m.claim_clique_span(3);
            let _ = lo;
            assert!(!m.clique_live(ci as usize));
        }
        let (lo, hi) = m.claim_clique_span(3);
        for k in lo..hi {
            for trust in [0.0, 0.3, 1.0] {
                assert_eq!(cache.contribution(k, trust), 0.0);
            }
        }
    }

    /// Compaction spec: the cache relocates through the remap and is
    /// bit-identical to a from-scratch build on the compacted model —
    /// including when growth lands after the compaction, and when a
    /// weight move rides along.
    #[test]
    fn compacted_cache_relocates_bit_identically() {
        use crate::graph::test_support as ts;
        for seed in 0..12u64 {
            let ops = ts::random_lifecycle_script(seed ^ 0x0c0de, 5);
            let (mut model, _) = ts::replay_lifecycle(&ops);
            let dim = model.feature_dim();
            let mut w = Weights::from_vec((0..dim).map(|i| 0.19 * (i as f64 + 1.0)).collect());
            let mut cache = ScoreCache::build(&model, &w);
            let remap = model.compact().unwrap();
            if remap.is_identity() {
                continue;
            }
            let refresh = cache.update(&model, &w);
            assert!(
                matches!(
                    refresh,
                    CacheRefresh::Compacted {
                        added: 0,
                        moved: 0,
                        ..
                    }
                ),
                "seed {seed}: {refresh:?}"
            );
            let fresh = ScoreCache::build(&model, &w);
            assert_eq!(cache.len(), fresh.len(), "seed {seed}");
            for k in 0..fresh.len() {
                assert_eq!(
                    cache.contribution(k, 0.37).to_bits(),
                    fresh.contribution(k, 0.37).to_bits(),
                    "seed {seed} incidence {k}"
                );
            }

            // Growth after the compaction, plus a weight move, in one call.
            let mut delta = crate::graph::ModelDelta::for_model(&model);
            let c = delta.add_claim();
            let d = delta.add_document(&[0.4, 0.6]).unwrap();
            delta.add_clique(c, d, 0, Stance::Support);
            model.apply(delta).unwrap();
            w.as_mut_slice()[1] += 0.05;
            let refresh = cache.update(&model, &w);
            assert!(
                matches!(refresh, CacheRefresh::Grown { added: 1, moved: 1 }),
                "seed {seed}: {refresh:?}"
            );
            let fresh = ScoreCache::build(&model, &w);
            for k in 0..fresh.len() {
                let (a, b) = (cache.contribution(k, 0.6), fresh.contribution(k, 0.6));
                assert!(
                    (a - b).abs() < 1e-12,
                    "seed {seed} incidence {k}: {a} vs {b}"
                );
            }
        }
    }

    /// A cache that slept through two compactions cannot relocate (only
    /// the latest remap is kept) and falls back to a full rebuild.
    #[test]
    fn double_compaction_forces_rebuild() {
        use crate::graph::{RetireSet, VarId};
        let mut m = crate::graph::test_support::random_model(20, 5, 2, 9);
        let w = Weights::from_vec(vec![0.3; m.feature_dim()]);
        let mut cache = ScoreCache::build(&m, &w);
        for victim in [0u32, 1] {
            let mut set = RetireSet::for_model(&m);
            set.retire_claim(VarId(victim));
            m.retire(set).unwrap();
            m.compact().unwrap();
        }
        assert_eq!(m.compactions(), 2);
        assert_eq!(cache.update(&m, &w), CacheRefresh::Rebuilt);
        let fresh = ScoreCache::build(&m, &w);
        for k in 0..fresh.len() {
            assert_eq!(
                cache.contribution(k, 0.5).to_bits(),
                fresh.contribution(k, 0.5).to_bits()
            );
        }
    }

    /// Growth combined with a weight move in one `update` call: the cache
    /// relocates, scores the new cliques, then applies the weight-diff
    /// patch — within 1e-12 of a from-scratch build at the new weights.
    #[test]
    fn grown_cache_with_weight_move_matches_rebuild() {
        use crate::graph::test_support as ts;
        let script = ts::random_growth_script(0xD1CE, 3);
        let mut model = ts::build_batch(&script[..1]);
        let dim = model.feature_dim();
        let mut w = Weights::from_vec((0..dim).map(|i| 0.2 * i as f64 - 0.3).collect());
        let mut cache = ScoreCache::build(&model, &w);
        for (step, chunk) in script[1..].iter().enumerate() {
            let delta = ts::chunk_delta(&model, chunk);
            let expect_added = delta.n_new_cliques();
            model.apply(delta).unwrap();
            w.as_mut_slice()[step % dim] += 0.05;
            let refresh = cache.update(&model, &w);
            if expect_added > 0 {
                assert_eq!(
                    refresh,
                    CacheRefresh::Grown {
                        added: expect_added,
                        moved: 1
                    },
                    "step {step}"
                );
            }
            let fresh = ScoreCache::build(&model, &w);
            for k in 0..fresh.len() {
                for trust in [0.0, 0.42, 1.0] {
                    let (a, b) = (cache.contribution(k, trust), fresh.contribution(k, trust));
                    assert!(
                        (a - b).abs() < 1e-12,
                        "step {step} incidence {k}: grown+moved {a} vs rebuilt {b}"
                    );
                }
            }
        }
    }
}
