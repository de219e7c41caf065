//! Gibbs sampling over claim-credibility configurations (E-step, §3.2).
//!
//! The E-step of `iCRF` draws a sequence of samples `Ω` from the conditional
//! distribution `q(C^U) ∝ Π_π Pr^{l−1}(c) · φ(o(c), d, s; W)` (Eq. 6):
//! labelled claims are pinned to their user-given value, unlabelled claims
//! are resampled one at a time from their full conditional. Three features
//! of the paper's formulation are realised here:
//!
//! * **Anchoring to the previous iteration.** Eq. 6 multiplies each clique by
//!   the claim's previous-round probability `Pr^{l−1}(c)`. We fold this in as
//!   a prior logit term (one factor per claim rather than one per clique so
//!   that high-degree claims are not drowned by their own history — the fixed
//!   point is identical), scaled by [`GibbsConfig::anchor`].
//! * **Mutual reinforcement.** The dynamic source-trust statistic `τ(s)`
//!   (smoothed fraction of the source's *other* claims currently credible)
//!   enters each clique's feature vector, so flipping one claim immediately
//!   shifts the conditionals of all claims sharing a source. Per-source
//!   credible-claim counts are maintained incrementally, keeping a sweep
//!   linear in the number of cliques (Prop. 1).
//! * **Non-equality constraints.** Refuting cliques score the flipped value
//!   (see [`crate::potentials`]), so a claim and its opposing variable can
//!   never agree — the constraint of Eq. 3 holds by construction rather than
//!   by rejection, mirroring the factorised-constraint embedding of \[61\].
//!
//! # Hot-path design
//!
//! The sampler dominates every `iCRF` iteration, so the inner loop is built
//! around three ideas:
//!
//! 1. **Per-claim evidence.** A claim's static logit is a sum over its
//!    cliques, so it is `β·X_c` for the weight-independent row
//!    `X_c = Σ_π sign_π·[1, f^D, f^S]` (`potentials::ClaimEvidence`,
//!    rebuilt once per model snapshot). An E-step's weight-dependent work
//!    is one short dot product per claim, not one per clique.
//! 2. **CSR adjacency.** `claim → cliques` and `source → claims` are flat
//!    offset+index arrays ([`CrfModel`] docs), so a single-site update reads
//!    consecutive memory.
//! 3. **One folded kernel.** Every component's unlabelled claims are swept
//!    in claim-id order. Per E-step the weights, the anchor terms and every
//!    source's live-claim count are folded into per-visit-position
//!    constants (`FoldedScores`), so a visit is one gather and one
//!    multiply-add per incident clique, decided against a piecewise-linear
//!    sigmoid table — no divide and no exponential per visit.
//!
//! Per-sweep work allocates nothing: chain state (claim values, per-source
//! credible counts) lives in reusable [`GibbsScratch`] task states, and the
//! only allocations in the sampling phase are the output bitsets.
//!
//! # Two specs, one kernel
//!
//! [`GibbsSampler::run_scheduled`] is the only production E-step. Two
//! executable specifications pin it down (`docs/sampling.md`):
//!
//! * **Distribution spec** — [`GibbsSampler::run_reference`], the scalar
//!   sampler that visits claims in claim-id order and re-evaluates every
//!   clique's full `β·x_π` dot product. An exact oracle (the stationary law
//!   of the one-sweep transition matrix on models of at most 10 unlabelled
//!   claims) holds both it and the production kernel to the law of that
//!   one visit order.
//! * **Bit spec** — a test-side scalar replay of the claim-id order, the
//!   folded constants in the kernel's exact summation order, the sigmoid
//!   table and the seed scheme. The production kernel is bit-identical to
//!   it at any thread count and task layout.
//!
//! # Component-aware scheduling (§5.1)
//!
//! The CRF decomposes into independent sub-models, one per connected
//! component of the claim graph ([`Partition`]): claims in different
//! components share no source, so their conditionals never interact. Every
//! `(chain, component)` pair runs as its own self-contained chain with a
//! deterministic seed derived from the chain seed and the component id, and
//! the per-component sample streams are stitched back together in
//! `(chain-id, component-id)` order. Because each stream is fixed by its
//! seed alone, the pooled output is **identical at any thread count and
//! under any task layout**.
//!
//! ## Task layout
//!
//! `K` chains and `P` components compete for the same cores. The scheduler
//! picks the layout from the *measured* per-component sweep cost (clique
//! incidences of unlabelled claims, `CompSchedule::comp_work`):
//!
//! * **component groups** — with fewer chains than threads, the components
//!   are packed largest-first (LPT over their work, deterministic tie-break
//!   on component id) into `⌈threads/K⌉` groups per chain, capped at
//!   `total_work / max_work` groups, past which every extra group idles
//!   behind the giant; one task per `(chain, group)`;
//! * **inline** — a one-task layout (or a single worker thread) runs on the
//!   caller's thread and spawns nothing.
//!
//! The layout affects wall-clock only — never the output.

use crate::bitset::Bitset;
use crate::graph::{CliqueId, CrfModel, Since, SyncPoint, VarId};
use crate::numerics;
use crate::partition::Partition;
use crate::potentials::{clique_logit_contribution, ClaimEvidence, Weights, TRUST_PRIOR};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the sampler. Every field is part of the determinism
/// contract: given the configuration, the model, the partition and the
/// inputs, [`GibbsSampler::run_scheduled`] produces the same samples at any
/// thread count.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GibbsConfig {
    /// Full sweeps discarded before collecting samples (per chain).
    pub burn_in: usize,
    /// Number of configurations collected into `Ω` (pooled across chains).
    pub samples: usize,
    /// Sweeps between consecutive collected samples (1 = every sweep).
    pub thin: usize,
    /// RNG seed; runs are fully deterministic given the seed (and the chain
    /// count — chain `k` derives its stream from `seed ⊕ mix(k)`).
    pub seed: u64,
    /// Weight of the previous-round probability factor `Pr^{l−1}(c)` of
    /// Eq. 6; `0` disables anchoring.
    pub anchor: f64,
    /// Independent chains, run in parallel when threads allow; samples are
    /// pooled in chain-id order. `0` means "one per available core".
    pub chains: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            burn_in: 20,
            samples: 60,
            thin: 2,
            seed: 0x5eed,
            anchor: 0.5,
            chains: 1,
        }
    }
}

impl GibbsConfig {
    /// The effective chain count: `chains`, with `0` resolved to the
    /// available hardware parallelism (capped by the sample count — an
    /// extra chain that would collect no samples is wasted burn-in).
    pub fn effective_chains(&self) -> usize {
        let k = if self.chains == 0 {
            rayon::current_num_threads()
        } else {
            self.chains
        };
        k.clamp(1, self.samples.max(1))
    }
}

/// The outcome of one E-step: the sample sequence `Ω` and the per-claim
/// marginals `Pr(c)` computed from it (Eq. 7).
#[derive(Debug, Clone)]
pub struct GibbsResult {
    /// Thinned post-burn-in configurations over *all* claims (labelled claims
    /// appear with their pinned value), pooled in chain-id order.
    pub samples: Vec<Bitset>,
    /// `Pr(c = 1)` per claim: the fraction of samples in which `c` is
    /// credible; exactly the user label for labelled claims.
    pub marginals: Vec<f64>,
    /// Number of sweeps executed across all chains (burn-in + sampling).
    pub sweeps: usize,
}

/// Reusable buffers for [`GibbsSampler::run_scheduled`]: the claim
/// evidence, the component schedule with its folded constants, and the
/// per-task chain states survive across E-steps, so repeated inference
/// calls (every EM iteration of every validation step) allocate little
/// beyond their output samples. Nothing
/// in it depends on the weights, so a scratch may be reused at any weights
/// and any labels without changing a bit of the output.
#[derive(Debug, Clone, Default)]
pub struct GibbsScratch {
    /// Per-claim evidence of the model snapshot last sampled, rebuilt
    /// whenever the model changes.
    evidence: ClaimEvidence,
    /// Per claim: the anchor contribution `anchor · ln(p/(1−p))` of Eq. 6,
    /// constant within an E-step (`prev_probs` is fixed), so the `ln` is
    /// paid once per claim instead of once per claim *per sweep*.
    anchor_term: Vec<f64>,
    /// Component-schedule metadata.
    sched: CompSchedule,
    /// Per-task chain state, reused across E-steps (one full-width state
    /// per worker task).
    tasks: Vec<TaskState>,
    /// Folded per-run constants of the kernel.
    fold: FoldedScores,
}

impl GibbsScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        GibbsScratch::default()
    }

    /// Whether the model-keyed part of the scratch was last synced to
    /// `model`'s current snapshot: the specs read whether a scratch
    /// arrived warm.
    #[cfg(test)]
    pub(crate) fn synced_to(&self, model: &CrfModel) -> bool {
        model.since(self.sched.synced) == Since::Unchanged
    }
}

/// Precomputed component metadata for the scheduled sweep. The
/// partition-derived part (sources per component) is rebuilt only when the
/// model changes; the labels-derived part (unlabelled claims and work
/// estimate per component) is refilled — allocation-free in steady state —
/// on every E-step.
#[derive(Debug, Clone, Default)]
struct CompSchedule {
    /// The model state the static part was packed for. Growth can
    /// renumber components (the canonical ordering is by lowest claim id,
    /// and a delta can merge components), so the source→component CSR is
    /// re-packed on any change ([`Since::Unchanged`] is the only reuse) —
    /// an `O(sources + components)` scan, negligible next to one sweep and
    /// amortised over every E-step until the next delta.
    synced: SyncPoint,
    /// CSR offsets (`n_components + 1`) into [`Self::comp_sources`].
    comp_source_offsets: Vec<u32>,
    /// Source ids owned by each component, ascending within a component.
    /// Sources without claims appear in no component.
    comp_sources: Vec<u32>,
    /// CSR offsets (`n_components + 1`) into [`Self::comp_unlabelled`].
    comp_unlabelled_offsets: Vec<u32>,
    /// Unlabelled claim ids per component, ascending within a component:
    /// the kernel's visit order, and the position index of the folded
    /// lanes ([`FoldedScores`]).
    comp_unlabelled: Vec<u32>,
    /// Per component: total clique incidences of its unlabelled claims —
    /// the sweep-cost proxy the LPT packing balances.
    comp_work: Vec<u64>,
}

impl CompSchedule {
    fn refresh_static(&mut self, model: &CrfModel, partition: &Partition) {
        let p = partition.len();
        if model.since(self.synced) == Since::Unchanged && self.comp_source_offsets.len() == p + 1 {
            return;
        }
        self.synced = model.sync_point();
        // A source belongs to the component of its first *live* claim; dead
        // sources (all cliques dead) and sources with no live claims drive
        // no trust statistic and appear in no component.
        let comp_of_source = |s: u32| -> Option<usize> {
            if !model.source_live(s as usize) {
                return None;
            }
            model
                .claims_of_source(s)
                .iter()
                .find(|&&c| model.claim_live(c as usize))
                .map(|&c0| partition.component_of(VarId(c0)))
        };
        self.comp_source_offsets.clear();
        self.comp_source_offsets.resize(p + 1, 0);
        for s in 0..model.n_sources() as u32 {
            if let Some(comp) = comp_of_source(s) {
                self.comp_source_offsets[comp + 1] += 1;
            }
        }
        for i in 0..p {
            self.comp_source_offsets[i + 1] += self.comp_source_offsets[i];
        }
        let mut cursor: Vec<u32> = self.comp_source_offsets[..p].to_vec();
        self.comp_sources.clear();
        self.comp_sources
            .resize(self.comp_source_offsets[p] as usize, 0);
        for s in 0..model.n_sources() as u32 {
            if let Some(comp) = comp_of_source(s) {
                self.comp_sources[cursor[comp] as usize] = s;
                cursor[comp] += 1;
            }
        }
    }

    fn refresh_labels(&mut self, model: &CrfModel, partition: &Partition, labels: &[Option<bool>]) {
        self.comp_unlabelled.clear();
        self.comp_unlabelled_offsets.clear();
        self.comp_unlabelled_offsets.push(0);
        self.comp_work.clear();
        for comp in partition.iter() {
            let mut work = 0u64;
            for &c in comp {
                if labels[c].is_none() {
                    self.comp_unlabelled.push(c as u32);
                    let (lo, hi) = model.claim_clique_span(c);
                    work += (hi - lo) as u64;
                }
            }
            self.comp_unlabelled_offsets
                .push(self.comp_unlabelled.len() as u32);
            self.comp_work.push(work);
        }
    }

    fn sources_of(&self, comp: usize) -> &[u32] {
        &self.comp_sources
            [self.comp_source_offsets[comp] as usize..self.comp_source_offsets[comp + 1] as usize]
    }

    /// The visit positions of a component: its span of
    /// [`Self::comp_unlabelled`] (empty when it is fully labelled).
    fn positions_of(&self, comp: usize) -> std::ops::Range<usize> {
        self.comp_unlabelled_offsets[comp] as usize..self.comp_unlabelled_offsets[comp + 1] as usize
    }
}

/// Folded per-run constants of the kernel. Within one E-step the
/// weights, the anchor terms, and every source's live-claim count are
/// fixed, so the per-visit conditional logit
///
/// ```text
/// β_s·X_c + Σ_k sign_k·β_τ·(τ_k − ½) + anchor,   τ_k = (a + cred(s_k) − v_c)·recip[s_k]
/// ```
///
/// ([`ClaimEvidence`]: `β_s` is every weight but the trust weight `β_τ`)
/// refactors into `base_a[p] − v_c·t_sum[p] + Σ_k tw[k]·cred(s_k)` with
/// everything but the per-source credible counts precomputed **once per
/// run**: the hot visit is one gather and one multiply-add per incident
/// clique — no divide, no live-count lookup, no exponential (see
/// [`folded_logit`], whose summation order is part of the bit spec).
/// Dead cliques carry a zero sign, so their packed `tw` is `±0.0` and the
/// product is `±0.0` for any finite credible count — dead evidence
/// contributes nothing.
///
/// Everything except `recip` and `static_logit` is laid out in
/// **visit-position order** — index `p` is a position in
/// [`CompSchedule::comp_unlabelled`], the sweep sequence — so a sweep
/// streams these lanes strictly sequentially instead of gathering
/// claim-indexed arrays. The only non-sequential access left in the hot
/// visit is the gather from the per-source credible mirror, the smallest
/// array in the sweep.
#[derive(Debug, Clone, Default)]
struct FoldedScores {
    /// Per source: `1 / (a + b + n_live(s) − 1)`, filled for the sources
    /// of every component (other slots are stale and only ever multiplied
    /// by a `±0.0` trust weight).
    recip: Vec<f64>,
    /// Per claim: `β_s·X_c` ([`ClaimEvidence::static_logits`]).
    static_logit: Vec<f64>,
    /// Per visit position: `anchor_term[c] + (β_s·X_c − ½·β_τ·X_c[0]) +
    /// a·t_sum[p]`, added in that order — the whole value-independent
    /// part of the logit (`X_c[0]` is the claim's signed live-clique
    /// count).
    base_a: Vec<f64>,
    /// Per visit position: `Σ_span tw[k]`, subtracted once when the
    /// claim's current value is `true`.
    t_sum: Vec<f64>,
    /// CSR offsets (`positions + 1`) into the packed incidence lanes.
    csr: Vec<u32>,
    /// Packed per-incidence `(sign_k·β_τ)·recip[source_k]`, visit order.
    tw: Vec<f64>,
    /// Packed per-incidence source ids, visit order.
    src: Vec<u32>,
    /// CSR offsets (`positions + 1`) into [`Self::flip_src`].
    flip_csr: Vec<u32>,
    /// Packed per-position **deduplicated** source lists
    /// ([`CrfModel::sources_of_claim`] of the claim at each position), so
    /// a flip's credible-count maintenance also streams in visit order.
    flip_src: Vec<u32>,
}

impl FoldedScores {
    fn build(
        &mut self,
        model: &CrfModel,
        evidence: &ClaimEvidence,
        beta: &[f64],
        sched: &CompSchedule,
        anchor_term: &[f64],
    ) {
        let (a, b) = TRUST_PRIOR;
        let trust_w = beta[beta.len() - 1];
        let signs = evidence.signs();
        let bias_sums = evidence.column(0);
        evidence.static_logits(beta, &mut self.static_logit);
        self.recip.resize(model.n_sources(), 0.0);
        let positions = sched.comp_unlabelled.len();
        self.base_a.clear();
        self.base_a.resize(positions, 0.0);
        self.t_sum.clear();
        self.t_sum.resize(positions, 0.0);
        self.csr.clear();
        self.csr.resize(positions + 1, 0);
        self.tw.clear();
        self.src.clear();
        self.flip_csr.clear();
        self.flip_csr.resize(positions + 1, 0);
        self.flip_src.clear();
        // Component spans are contiguous and ascending, so one pass in
        // component order fills the lanes position-sequentially.
        for comp in 0..sched.comp_work.len() {
            for &s in sched.sources_of(comp) {
                let n = model.n_live_claims_of_source(s) as f64;
                self.recip[s as usize] = 1.0 / (a + b + n - 1.0);
            }
            for p in sched.positions_of(comp) {
                let c = sched.comp_unlabelled[p] as usize;
                let (clo, chi) = model.claim_clique_span(c);
                let sources = model.clique_sources_of(VarId(c as u32));
                let mut t = 0.0;
                for (&sign, &s) in signs[clo..chi].iter().zip(sources) {
                    let tw = sign * trust_w * self.recip[s as usize];
                    self.tw.push(tw);
                    self.src.push(s);
                    t += tw;
                }
                let stat = self.static_logit[c] - 0.5 * trust_w * bias_sums[c];
                self.base_a[p] = (anchor_term[c] + stat) + a * t;
                self.t_sum[p] = t;
                self.csr[p + 1] = self.tw.len() as u32;
                self.flip_src
                    .extend_from_slice(model.sources_of_claim(VarId(c as u32)));
                self.flip_csr[p + 1] = self.flip_src.len() as u32;
            }
        }
    }
}

/// The kernel's conditional logit of the claim at visit position `p` (see
/// [`FoldedScores`]): `(base_a[p] − v_c·t_sum[p]) + Σ_k tw[k]·credible[s_k]`,
/// the incidence sum accumulated over the claim's packed span in ascending
/// order and added last. `vt[p]` carries `v_c·t_sum[p]` (maintained by
/// [`folded_flip`]) and `credible` the exact-integer float mirror of the
/// per-source credible counts, so the computed value is identical to
/// folding from `values[c]` and integer counts directly. This exact
/// summation order is part of the bit spec, which replays it term for term.
#[inline]
fn folded_logit(fold: &FoldedScores, vt: &[f64], credible: &[f64], p: usize) -> f64 {
    let lo = fold.csr[p] as usize;
    let hi = fold.csr[p + 1] as usize;
    let mut acc = 0.0;
    for (&w, &s) in fold.tw[lo..hi].iter().zip(&fold.src[lo..hi]) {
        acc += w * credible[s as usize];
    }
    (fold.base_a[p] - vt[p]) + acc
}

/// Set the claim at visit position `p` to `new_value`: reads its
/// deduplicated source list from the fold's visit-ordered
/// [`FoldedScores::flip_src`] lane, steps the float credible counts by an
/// exact ±1.0, and refreshes the claim's `v_c·t_sum[p]` slot.
#[inline]
fn folded_flip(
    fold: &FoldedScores,
    values: &mut [bool],
    credible: &mut [f64],
    vt: &mut [f64],
    p: usize,
    c: usize,
    new_value: bool,
) {
    if values[c] == new_value {
        return;
    }
    values[c] = new_value;
    vt[p] = if new_value { fold.t_sum[p] } else { 0.0 };
    let delta = if new_value { 1.0 } else { -1.0 };
    let lo = fold.flip_csr[p] as usize;
    let hi = fold.flip_csr[p + 1] as usize;
    for &s in &fold.flip_src[lo..hi] {
        credible[s as usize] += delta;
    }
}

/// Bound on the kernel's conditional logit: beyond ±28 the acceptance
/// probability is within 7e-13 of 0 or 1 and is pinned there — like
/// [`numerics::clamp_prob`] in [`GibbsSampler::run_reference`], the clamp
/// never lets a conditional become exactly deterministic. It is also the
/// domain of the sigmoid table.
const LOGIT_CLAMP: f64 = 28.0;

/// Interval count of the sigmoid table. 4096 intervals over `[-28, 28]`
/// put the chord-vs-curve error of linear interpolation below
/// `max|σ''|·h²/8 ≈ 2.3e-6` — four orders of magnitude under the
/// Monte-Carlo noise of any sample budget this sampler runs at.
const SIG_TABLE_N: usize = 4096;
const SIG_TABLE_INV_STEP: f64 = SIG_TABLE_N as f64 / (2.0 * LOGIT_CLAMP);

/// `SIG_TABLE[i] = σ(−28 + i·h)` for `i = 0..=4096`, `h = 56/4096`; built
/// once on the first sweep. Shared by every thread, so the
/// accept rule stays a pure function of `(u, z)`. The fixed-size array type
/// lets the indexing in [`table_sigmoid`] compile without bounds checks.
static SIG_TABLE: std::sync::OnceLock<Box<[f64; SIG_TABLE_N + 1]>> = std::sync::OnceLock::new();

fn sigmoid_table() -> &'static [f64; SIG_TABLE_N + 1] {
    SIG_TABLE.get_or_init(|| {
        let mut t = Box::new([0.0; SIG_TABLE_N + 1]);
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = numerics::sigmoid(-LOGIT_CLAMP + i as f64 / SIG_TABLE_INV_STEP);
        }
        t
    })
}

/// `σ̃(z̄)` with `z̄ = clamp(z, ±28)` and `σ̃` the piecewise-linear
/// interpolant of the sigmoid through the 4097 knots of `table` (always
/// [`sigmoid_table`]; callers hoist the fetch out of their sweep loops).
/// σ̃ is monotone with `|σ̃ − σ| < 2.3e-6`; the exact oracle test reports
/// its effect on the stationary marginals.
#[inline]
fn table_sigmoid(z: f64, table: &[f64; SIG_TABLE_N + 1]) -> f64 {
    let t = (z.clamp(-LOGIT_CLAMP, LOGIT_CLAMP) + LOGIT_CLAMP) * SIG_TABLE_INV_STEP;
    let i = (t as usize).min(SIG_TABLE_N - 1);
    let frac = t - i as f64;
    table[i] + frac * (table[i + 1] - table[i])
}

/// The kernel's resample decision for uniform `u` and conditional logit
/// `z`: accept `v = 1` iff `u < σ̃(z̄)` ([`table_sigmoid`]). Together with
/// [`folded_logit`] this is the bit spec's decision rule: no divide, no
/// exponential, no probability clamp on the hot path — the tail pinning is
/// done once on the logit.
#[inline]
fn folded_accept(u: f64, z: f64, table: &[f64; SIG_TABLE_N + 1]) -> bool {
    u < table_sigmoid(z, table)
}

/// One worker task's chain state: full-width arrays of which each task only
/// ever reads and writes the slots of the components assigned to it
/// (components are claim- and source-disjoint). Persistent in
/// [`GibbsScratch`], so steady-state E-steps allocate nothing here; the
/// per-claim `ones` counters accumulate across the task's components (and,
/// on the inline path, across chains).
#[derive(Debug, Clone, Default)]
struct TaskState {
    values: Vec<bool>,
    ones: Vec<u64>,
    /// Per source: its credible live claims, as exact-integer `f64`s
    /// (counts are tiny, so every ±1.0 step is exact) — the kernel's
    /// gather then needs no int→float convert per incidence.
    credible: Vec<f64>,
    /// Per visit position: `v_c · t_sum[p]` of the claim at that position,
    /// maintained by [`folded_flip`] — the kernel reads its value term
    /// sequentially instead of loading `values[c]` at random.
    vt: Vec<f64>,
}

/// A deterministic single-site Gibbs sampler bound to a model.
#[derive(Debug, Clone)]
pub struct GibbsSampler<'a> {
    model: &'a CrfModel,
    config: GibbsConfig,
}

/// Chain state of [`GibbsSampler::run_reference`], maintained
/// incrementally across sweeps.
struct ChainState {
    values: Vec<bool>,
    /// Per source: number of its distinct claims currently credible.
    credible_per_source: Vec<u32>,
}

impl ChainState {
    fn init(model: &CrfModel, labels: &[Option<bool>], probs: &[f64], rng: &mut SmallRng) -> Self {
        // Tombstoned claims hold `false` and consume no RNG draw, so the
        // stream matches the compacted model's (which has no dead claims).
        let values: Vec<bool> = (0..model.n_claims())
            .map(|c| {
                if !model.claim_live(c) {
                    false
                } else {
                    match labels[c] {
                        Some(v) => v,
                        None => rng.gen_bool(numerics::clamp_prob(probs[c])),
                    }
                }
            })
            .collect();
        let mut credible_per_source = vec![0u32; model.n_sources()];
        for s in 0..model.n_sources() as u32 {
            credible_per_source[s as usize] = model
                .claims_of_source(s)
                .iter()
                .filter(|&&c| values[c as usize])
                .count() as u32;
        }
        ChainState {
            values,
            credible_per_source,
        }
    }

    /// Smoothed trust of `source` excluding claim `excl` from the count.
    /// `excl` is always one of the source's claims here (the sweep only
    /// asks about sources of `excl`'s own cliques), so no membership test
    /// is needed.
    fn trust_excluding(&self, model: &CrfModel, source: u32, excl: usize) -> f64 {
        let mut credible = self.credible_per_source[source as usize] as f64;
        // Live count: tombstoned claims neither support nor dilute a
        // source's trust (their values are pinned `false` and excluded
        // from `n`).
        let mut n = model.n_live_claims_of_source(source) as f64;
        if self.values[excl] {
            credible -= 1.0;
        }
        n -= 1.0;
        let (a, b) = TRUST_PRIOR;
        (a + credible) / (a + b + n)
    }

    /// Set `claim` to `new_value`, maintaining the per-source credible
    /// counts.
    fn flip(&mut self, model: &CrfModel, claim: usize, new_value: bool) {
        if self.values[claim] == new_value {
            return;
        }
        self.values[claim] = new_value;
        for &s in model.sources_of_claim(VarId(claim as u32)) {
            let slot = &mut self.credible_per_source[s as usize];
            *slot = if new_value { *slot + 1 } else { *slot - 1 };
        }
    }
}

/// Deterministic per-chain seed: chain 0 uses the configured seed verbatim;
/// further chains decorrelate through a golden-ratio multiply.
#[inline]
fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed ^ (chain as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Deterministic per-component seed within a chain: component 0 uses the
/// chain seed verbatim; further components decorrelate through a distinct
/// odd multiplier so `(chain, component)` streams never collide with
/// `(chain', 0)` streams.
#[inline]
fn component_seed(chain_seed: u64, comp: usize) -> u64 {
    chain_seed ^ (comp as u64).wrapping_mul(0xa076_1d64_78bd_642f)
}

/// `Pr(c = 1)` per claim from the pooled per-claim credible counts: the
/// label for labelled claims, 0 for tombstoned ones.
fn marginals_of(model: &CrfModel, labels: &[Option<bool>], ones: &[u64], total: usize) -> Vec<f64> {
    let total = total.max(1) as f64;
    (0..model.n_claims())
        .map(|c| {
            if !model.claim_live(c) {
                return 0.0; // tombstoned: out of service, never credible
            }
            match labels[c] {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => ones[c] as f64 / total,
            }
        })
        .collect()
}

impl<'a> GibbsSampler<'a> {
    /// Bind a sampler to a model with the given configuration.
    pub fn new(model: &'a CrfModel, config: GibbsConfig) -> Self {
        GibbsSampler { model, config }
    }

    /// The model this sampler is bound to.
    pub fn model(&self) -> &CrfModel {
        self.model
    }

    /// One `ln` per claim per E-step instead of per sweep; the term is
    /// exactly the one the reference sampler adds to each conditional.
    /// The anchor carries history, not evidence: its input is clamped so a
    /// saturated marginal (p → 0 or 1) from a previous round can never
    /// become an absorbing state that fresh evidence cannot escape.
    fn fill_anchor_terms(&self, prev_probs: &[f64], anchor_term: &mut Vec<f64>) {
        let anchor = self.config.anchor;
        anchor_term.clear();
        anchor_term.extend(prev_probs.iter().map(|&p0| {
            if anchor > 0.0 {
                let p = p0.clamp(0.05, 0.95);
                anchor * (p / (1.0 - p)).ln()
            } else {
                0.0
            }
        }));
    }

    /// The scalar sampler, kept as the **distribution spec**: a single
    /// chain that visits the unlabelled claims in claim-id order and
    /// re-evaluates every clique's full `β·x_π` dot product on every visit,
    /// deciding each resample with the exact sigmoid. The exact oracle test
    /// holds it to the stationary law of its visit order, and the gibbs
    /// benchmark measures [`Self::run_scheduled`] against it.
    pub fn run_reference(
        &self,
        weights: &Weights,
        labels: &[Option<bool>],
        prev_probs: &[f64],
    ) -> GibbsResult {
        let model = self.model;
        let n = model.n_claims();
        assert_eq!(labels.len(), n, "labels length mismatch");
        assert_eq!(prev_probs.len(), n, "probs length mismatch");
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut state = ChainState::init(model, labels, prev_probs, &mut rng);

        let unlabelled: Vec<usize> = (0..n)
            .filter(|&c| labels[c].is_none() && model.claim_live(c))
            .collect();
        let mut ones = vec![0u64; n];
        let mut samples = Vec::with_capacity(self.config.samples);
        let mut sweeps = 0;

        let conditional_logit = |state: &ChainState, claim: usize| {
            let mut logit = 0.0;
            for &ci in model.cliques_of(VarId(claim as u32)) {
                if !model.clique_live(ci as usize) {
                    continue; // retired evidence contributes nothing
                }
                let cl = model.clique(CliqueId(ci));
                let trust = state.trust_excluding(model, cl.source, claim);
                logit += clique_logit_contribution(model, weights, cl, trust);
            }
            if self.config.anchor > 0.0 {
                let p = prev_probs[claim].clamp(0.05, 0.95);
                logit += self.config.anchor * (p / (1.0 - p)).ln();
            }
            logit
        };
        let sweep = |state: &mut ChainState, rng: &mut SmallRng| {
            for &c in &unlabelled {
                let logit = conditional_logit(state, c);
                let p = numerics::sigmoid(logit);
                let v = rng.gen_bool(numerics::clamp_prob(p));
                state.flip(model, c, v);
            }
        };

        for _ in 0..self.config.burn_in {
            sweep(&mut state, &mut rng);
            sweeps += 1;
        }
        for _ in 0..self.config.samples {
            for _ in 0..self.config.thin.max(1) {
                sweep(&mut state, &mut rng);
                sweeps += 1;
            }
            for (c, &v) in state.values.iter().enumerate() {
                if v {
                    ones[c] += 1;
                }
            }
            samples.push(Bitset::from_bools(&state.values));
        }

        let marginals = marginals_of(model, labels, &ones, samples.len());
        GibbsResult {
            samples,
            marginals,
            sweeps,
        }
    }

    /// Pick the task layout (module docs, *Task layout*) — the component
    /// groups per chain — from the measured per-component sweep cost in
    /// [`CompSchedule::comp_work`].
    fn plan(&self, chains: usize, sched: &CompSchedule) -> usize {
        let threads = rayon::current_num_threads();
        let components = sched.comp_work.len();
        if threads <= chains || components <= 1 {
            1
        } else {
            // Group-count cap from measured cost: once every group holds
            // at least the giant component's work, further splitting only
            // adds task overhead while the makespan stays pinned to it.
            let max_work = sched.comp_work.iter().copied().max().unwrap_or(0);
            let useful = sched
                .comp_work
                .iter()
                .sum::<u64>()
                .checked_div(max_work)
                .map_or(1, |g| g.max(1)) as usize;
            threads.div_ceil(chains).min(components).min(useful)
        }
    }

    /// The E-step: every `(chain, component)` pair runs as its own
    /// deterministic chain of the folded kernel, and the streams are
    /// stitched in `(chain-id, component-id)` order, so the result depends
    /// only on the configuration, the inputs and the partition — never on
    /// thread count or task layout.
    ///
    /// `partition` must be the connected-component partition of this
    /// sampler's model (see [`Partition::of_model`]).
    pub fn run_scheduled(
        &self,
        weights: &Weights,
        labels: &[Option<bool>],
        prev_probs: &[f64],
        partition: &Partition,
        scratch: &mut GibbsScratch,
    ) -> GibbsResult {
        self.run_scheduled_impl(weights, labels, prev_probs, partition, scratch, None)
    }

    /// Test hook: [`Self::run_scheduled`] under an explicit layout of
    /// `groups` component groups per chain instead of the planner's choice.
    /// With a single worker thread the tasks run inline. The output is
    /// identical for every layout.
    #[cfg(test)]
    fn run_scheduled_forced(
        &self,
        weights: &Weights,
        labels: &[Option<bool>],
        prev_probs: &[f64],
        partition: &Partition,
        scratch: &mut GibbsScratch,
        groups: usize,
    ) -> GibbsResult {
        self.run_scheduled_impl(
            weights,
            labels,
            prev_probs,
            partition,
            scratch,
            Some(groups.max(1)),
        )
    }

    fn run_scheduled_impl(
        &self,
        weights: &Weights,
        labels: &[Option<bool>],
        prev_probs: &[f64],
        partition: &Partition,
        scratch: &mut GibbsScratch,
        force_groups: Option<usize>,
    ) -> GibbsResult {
        let model = self.model;
        let n = model.n_claims();
        assert_eq!(labels.len(), n, "labels length mismatch");
        assert_eq!(prev_probs.len(), n, "probs length mismatch");
        assert_eq!(
            partition.n_claims(),
            n,
            "partition does not cover this model's claims"
        );
        assert_eq!(
            weights.dim(),
            model.feature_dim(),
            "weights dimension mismatch"
        );

        // Per-run prep: sync the claim evidence and the component schedule
        // to the snapshot, and fold the per-run kernel constants.
        self.fill_anchor_terms(prev_probs, &mut scratch.anchor_term);
        {
            let GibbsScratch {
                evidence,
                anchor_term,
                sched,
                fold,
                ..
            } = &mut *scratch;
            evidence.sync(model);
            sched.refresh_static(model, partition);
            sched.refresh_labels(model, partition, labels);
            fold.build(model, evidence, weights.as_slice(), sched, anchor_term);
        }

        let k = self.config.effective_chains();
        let p = partition.len();
        let g = force_groups.unwrap_or_else(|| self.plan(k, &scratch.sched));
        let (base, rem) = (self.config.samples / k, self.config.samples % k);

        // Deterministic LPT packing: components sorted by sweep work,
        // largest first (ties on id), greedily assigned to the least-loaded
        // group (ties on lowest group index). Purely a makespan decision —
        // assignment never changes the output.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); g];
        {
            let mut order: Vec<u32> = (0..p as u32).collect();
            let work = &scratch.sched.comp_work;
            order
                .sort_unstable_by(|&a, &b| work[b as usize].cmp(&work[a as usize]).then(a.cmp(&b)));
            let mut load = vec![0u64; g];
            for comp in order {
                let target = (0..g).min_by_key(|&i| (load[i], i)).unwrap();
                load[target] += work[comp as usize].max(1);
                groups[target].push(comp);
            }
        }

        // A one-task layout, or a single worker thread, runs inline on the
        // caller's thread and reuses one state for every task; otherwise
        // each task gets its own state.
        let n_tasks = k * g;
        let inline = n_tasks == 1 || rayon::current_num_threads() <= 1;
        let n_states = if inline { 1 } else { n_tasks };
        if scratch.tasks.len() < n_states {
            scratch.tasks.resize_with(n_states, TaskState::default);
        }
        for state in &mut scratch.tasks[..n_states] {
            state.values.resize(n, false);
            state.ones.clear();
            state.ones.resize(n, 0);
            state.credible.resize(model.n_sources(), 0.0);
            state.vt.resize(scratch.sched.comp_unlabelled.len(), 0.0);
        }

        let sched = &scratch.sched;
        let fold = &scratch.fold;
        // Each task fills full-width sample bitsets for its chain: only the
        // bits of its own components are set, so a chain's tasks merge with
        // a word-level OR. These bitsets *are* the output samples (the
        // single-group layouts move them out unmerged) — the sampling phase
        // allocates nothing else.
        let run_task = |chain: usize, comps: &[u32], state: &mut TaskState| -> Vec<Bitset> {
            let n_samples = base + usize::from(chain < rem);
            let mut samples = vec![Bitset::zeros(n); n_samples];
            let cseed = chain_seed(self.config.seed, chain);
            for &comp in comps {
                let comp = comp as usize;
                self.run_component_chain(
                    partition.component(comp),
                    sched.sources_of(comp),
                    sched.positions_of(comp),
                    sched,
                    fold,
                    labels,
                    prev_probs,
                    component_seed(cseed, comp),
                    &mut samples,
                    state,
                );
            }
            samples
        };

        let mut outputs: Vec<Option<Vec<Bitset>>> = Vec::new();
        outputs.resize_with(n_tasks, || None);
        if inline {
            let state = &mut scratch.tasks[0];
            for (ti, slot) in outputs.iter_mut().enumerate() {
                *slot = Some(run_task(ti / g, &groups[ti % g], &mut *state));
            }
        } else {
            rayon::scope(|s| {
                for ((ti, slot), state) in
                    outputs.iter_mut().enumerate().zip(scratch.tasks.iter_mut())
                {
                    let comps = &groups[ti % g];
                    let run_task = &run_task;
                    s.spawn(move |_| {
                        *slot = Some(run_task(ti / g, comps, state));
                    });
                }
            });
        }

        // Pool in (chain-id, component-id) order: task `chain·g` carries the
        // chain's first group; OR in the remaining groups' disjoint bits.
        // Task indices fix the order, so pooling is schedule-independent.
        let mut ones = vec![0u64; n];
        for state in &scratch.tasks[..n_states] {
            for (acc, o) in ones.iter_mut().zip(&state.ones) {
                *acc += o;
            }
        }
        let mut samples = Vec::with_capacity(self.config.samples);
        let mut sweeps = 0;
        for chain in 0..k {
            let n_samples = base + usize::from(chain < rem);
            sweeps += self.config.burn_in + n_samples * self.config.thin.max(1);
            let mut merged = outputs[chain * g].take().expect("chain task ran");
            for gi in 1..g {
                let other = outputs[chain * g + gi].take().expect("group task ran");
                for (a, b) in merged.iter_mut().zip(&other) {
                    a.union_with(b);
                }
            }
            samples.append(&mut merged);
        }

        let marginals = marginals_of(model, labels, &ones, samples.len());
        GibbsResult {
            samples,
            marginals,
            sweeps,
        }
    }

    /// Run one component's self-contained chain: draw the initial values in
    /// claim-id order, then burn in and collect one thinned sample per entry
    /// of `samples`, writing the component's claim bits into those shared
    /// full-width bitsets (and its per-claim counts into `state.ones`).
    ///
    /// Every sweep visits the component's unlabelled claims — visit
    /// positions `span` of [`CompSchedule::comp_unlabelled`] — in claim-id
    /// order: one uniform per visit, decided by [`folded_accept`] on the
    /// folded logit of [`folded_logit`], then applied by [`folded_flip`].
    #[allow(clippy::too_many_arguments)] // internal hot-path plumbing; the slices are views of one scratch
    fn run_component_chain(
        &self,
        comp_claims: &[usize],
        comp_sources: &[u32],
        span: std::ops::Range<usize>,
        sched: &CompSchedule,
        fold: &FoldedScores,
        labels: &[Option<bool>],
        prev_probs: &[f64],
        seed: u64,
        samples: &mut [Bitset],
        state: &mut TaskState,
    ) {
        let model = self.model;
        if span.is_empty() {
            // Fully pinned component: no RNG stream, every sample carries
            // the label projection.
            for bs in samples.iter_mut() {
                for &c in comp_claims {
                    if labels[c] == Some(true) {
                        bs.set(c, true);
                        state.ones[c] += 1;
                    }
                }
            }
            return;
        }

        let mut rng = SmallRng::seed_from_u64(seed);
        for &c in comp_claims {
            state.values[c] = match labels[c] {
                Some(v) => v,
                None => rng.gen_bool(numerics::clamp_prob(prev_probs[c])),
            };
        }
        for &s in comp_sources {
            // Tombstoned claims are excluded: they are not members of any
            // component, so their `values` slots may hold stale bits from
            // an earlier E-step of this reused task state.
            state.credible[s as usize] = model
                .claims_of_source(s)
                .iter()
                .filter(|&&c| model.claim_live(c as usize) && state.values[c as usize])
                .count() as f64;
        }
        // Seed the value-term lane of this component's visit positions
        // from the freshly drawn values.
        let order = &sched.comp_unlabelled;
        for ((vt, &t), &c) in state.vt[span.clone()]
            .iter_mut()
            .zip(&fold.t_sum[span.clone()])
            .zip(&order[span.clone()])
        {
            *vt = if state.values[c as usize] { t } else { 0.0 };
        }

        let table = sigmoid_table();
        let sweep = |state: &mut TaskState, rng: &mut SmallRng| {
            for (p, &c) in span.clone().zip(&order[span.clone()]) {
                let logit = folded_logit(fold, &state.vt, &state.credible, p);
                let v = folded_accept(rng.gen::<f64>(), logit, table);
                folded_flip(
                    fold,
                    &mut state.values,
                    &mut state.credible,
                    &mut state.vt,
                    p,
                    c as usize,
                    v,
                );
            }
        };

        for _ in 0..self.config.burn_in {
            sweep(state, &mut rng);
        }
        for bs in samples.iter_mut() {
            for _ in 0..self.config.thin.max(1) {
                sweep(state, &mut rng);
            }
            for &c in comp_claims {
                if state.values[c] {
                    bs.set(c, true);
                    state.ones[c] += 1;
                }
            }
        }
    }
}

/// Instantiate the maximum-probability configuration from a sample sequence
/// (the `decide` function of Eq. 10), component-wise.
///
/// The joint mode of a product distribution factorises over independent
/// components, so we take the most frequent *projected* configuration within
/// each connected component and stitch the winners together. Ties break
/// towards the **lowest `Bitset`** (the derived lexicographic-over-words
/// order), which depends only on the *set* of sampled configurations — not
/// on the order in which chains or components emitted them — so the decided
/// grounding can never flip between runs that pool the same samples
/// differently (e.g. under a different chain count or task schedule).
///
/// Counting uses a sort over sample indices keyed by the projected
/// configuration (flat vectors, no hash map): equal projections form
/// contiguous runs, scanned in ascending configuration order, so the first
/// run reaching the maximal count *is* the lowest tied configuration.
pub fn mode_configuration(samples: &[Bitset], partition: &Partition) -> Bitset {
    assert!(!samples.is_empty(), "cannot decide from zero samples");
    let n = samples[0].len();
    let mut out = Bitset::zeros(n);
    let mut order: Vec<u32> = Vec::with_capacity(samples.len());
    let mut projected: Vec<Bitset> = Vec::with_capacity(samples.len());
    for comp in partition.iter() {
        projected.clear();
        projected.extend(samples.iter().map(|s| s.project(comp)));
        order.clear();
        order.extend(0..samples.len() as u32);
        // Group equal projections into runs, ascending in the Bitset order.
        order.sort_unstable_by(|&a, &b| projected[a as usize].cmp(&projected[b as usize]));
        let mut best: (&Bitset, u32) = (&projected[order[0] as usize], 0);
        let mut run_start = 0;
        while run_start < order.len() {
            let rep = &projected[order[run_start] as usize];
            let mut run_end = run_start + 1;
            while run_end < order.len() && &projected[order[run_end] as usize] == rep {
                run_end += 1;
            }
            let count = (run_end - run_start) as u32;
            // Highest count wins; the ascending scan makes the lowest
            // configuration win ties (strict `>` keeps the earlier run).
            if count > best.1 {
                best = (rep, count);
            }
            run_start = run_end;
        }
        for (j, &claim) in comp.iter().enumerate() {
            if best.0.get(j) {
                out.set(claim, true);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, Stance};

    /// [`GibbsSampler::run_scheduled`] with fresh scratch over the model's
    /// own partition.
    pub(super) fn scheduled(
        sampler: &GibbsSampler,
        w: &Weights,
        labels: &[Option<bool>],
        probs: &[f64],
    ) -> GibbsResult {
        let p = Partition::of_model(sampler.model());
        sampler.run_scheduled(w, labels, probs, &p, &mut GibbsScratch::new())
    }

    /// One claim, one strongly supporting clique, positive weights ->
    /// marginal well above 1/2.
    #[test]
    fn strong_support_drives_marginal_up() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[1.0]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[1.0]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        let m = CrfModel::build(b).unwrap();
        let w = Weights::from_vec(vec![2.0, 0.0, 0.0, 0.0]);
        let sampler = GibbsSampler::new(&m, GibbsConfig::default());
        let r = scheduled(&sampler, &w, &[None], &[0.5]);
        assert!(r.marginals[0] > 0.8, "marginal {}", r.marginals[0]);
    }

    /// Same setup but the document refutes the claim -> marginal below 1/2.
    #[test]
    fn strong_refute_drives_marginal_down() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[1.0]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[1.0]).unwrap();
        b.add_clique(c, d, s, Stance::Refute);
        let m = CrfModel::build(b).unwrap();
        let w = Weights::from_vec(vec![2.0, 0.0, 0.0, 0.0]);
        let sampler = GibbsSampler::new(&m, GibbsConfig::default());
        let r = scheduled(&sampler, &w, &[None], &[0.5]);
        assert!(r.marginals[0] < 0.2, "marginal {}", r.marginals[0]);
    }

    /// Labelled claims are pinned in every sample and in the marginals.
    #[test]
    fn labels_are_pinned() {
        let m = crate::graph::test_support::random_model(6, 3, 2, 7);
        let w = Weights::zeros(m.feature_dim());
        let mut labels = vec![None; 6];
        labels[2] = Some(true);
        labels[4] = Some(false);
        let sampler = GibbsSampler::new(&m, GibbsConfig::default());
        let r = scheduled(&sampler, &w, &labels, &[0.5; 6]);
        assert_eq!(r.marginals[2], 1.0);
        assert_eq!(r.marginals[4], 0.0);
        for s in &r.samples {
            assert!(s.get(2));
            assert!(!s.get(4));
        }
    }

    /// Determinism: the same seed reproduces the same samples.
    #[test]
    fn deterministic_given_seed() {
        let m = crate::graph::test_support::random_model(10, 4, 2, 11);
        let w = Weights::from_vec(vec![0.3; m.feature_dim()]);
        let cfg = GibbsConfig {
            seed: 42,
            ..Default::default()
        };
        let a = scheduled(
            &GibbsSampler::new(&m, cfg.clone()),
            &w,
            &[None; 10],
            &[0.5; 10],
        );
        let b = scheduled(&GibbsSampler::new(&m, cfg), &w, &[None; 10], &[0.5; 10]);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.marginals, b.marginals);
    }

    /// The production E-step reproduces its bit spec
    /// ([`folded_reference`]) bit for bit: same samples, same marginals,
    /// same sweep count, across several random models and weight settings.
    #[test]
    fn single_chain_is_bit_identical_to_reference() {
        for seed in [3u64, 19, 54] {
            let m = crate::graph::test_support::random_model(40, 12, 3, seed);
            let w = Weights::from_vec(
                (0..m.feature_dim())
                    .map(|i| 0.3 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let mut labels = vec![None; 40];
            labels[1] = Some(true);
            labels[7] = Some(false);
            let probs: Vec<f64> = (0..40)
                .map(|i| 0.3 + 0.4 * ((i % 3) as f64) / 2.0)
                .collect();
            let cfg = GibbsConfig {
                burn_in: 6,
                samples: 12,
                thin: 2,
                seed: 0xabc ^ seed,
                chains: 1,
                ..Default::default()
            };
            let fast = scheduled(&GibbsSampler::new(&m, cfg.clone()), &w, &labels, &probs);
            let (samples, marginals, sweeps) = folded_reference(&m, &w, &labels, &probs, &cfg);
            assert_eq!(fast.samples, samples, "seed {seed}");
            assert_eq!(fast.marginals, marginals, "seed {seed}");
            assert_eq!(fast.sweeps, sweeps, "seed {seed}");
        }
    }

    /// The kernel's folded constants equal the bit spec's bit for bit at
    /// every visit position — `base_a`, `t_sum` and every packed `tw` — on
    /// a model with tombstones and labels, on a fresh scratch and on one
    /// warmed at other weights. (The sample comparison above cannot see
    /// a rounding difference: a decision flips only when a uniform lands
    /// within an ulp of the acceptance probability.)
    #[test]
    fn folded_constants_match_the_spec_bit_for_bit() {
        use crate::graph::RetireSet;
        for seed in [5u64, 23] {
            let mut m = crate::graph::test_support::random_model(40, 12, 3, seed);
            let mut set = RetireSet::for_model(&m);
            set.retire_claim(VarId(4));
            set.retire_source(3);
            m.retire(set).unwrap();
            let p = Partition::of_model(&m);
            let w = Weights::from_vec(
                (0..m.feature_dim())
                    .map(|i| 0.37 * (i as f64 + 1.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
                    .collect(),
            );
            let mut labels = vec![None; 40];
            labels[2] = Some(true);
            labels[9] = Some(false);
            let probs: Vec<f64> = (0..40).map(|i| 0.2 + 0.015 * i as f64).collect();
            let cfg = GibbsConfig {
                burn_in: 1,
                samples: 1,
                chains: 1,
                ..Default::default()
            };
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let spec = spec_fold(&m, &w, &labels, &probs, &cfg);
            let mut warmed = GibbsScratch::new();
            let mut other = w.clone();
            other.as_mut_slice()[2] -= 0.5;
            sampler.run_scheduled(&other, &labels, &probs, &p, &mut warmed);
            for mut scratch in [GibbsScratch::new(), warmed] {
                sampler.run_scheduled(&w, &labels, &probs, &p, &mut scratch);
                let fold = &scratch.fold;
                let order = &scratch.sched.comp_unlabelled;
                assert!(!order.is_empty());
                for (pos, &c) in order.iter().enumerate() {
                    let c = c as usize;
                    assert_eq!(
                        fold.base_a[pos].to_bits(),
                        spec.base_a[c].to_bits(),
                        "seed {seed} claim {c}"
                    );
                    assert_eq!(fold.t_sum[pos].to_bits(), spec.t_sum[c].to_bits());
                    let (lo, hi) = m.claim_clique_span(c);
                    let packed = &fold.tw[fold.csr[pos] as usize..fold.csr[pos + 1] as usize];
                    let expect = &spec.tw_recip[lo..hi];
                    assert_eq!(
                        packed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "seed {seed} claim {c}"
                    );
                }
            }
        }
    }

    /// Multi-chain pooling agrees with the single chain within Monte-Carlo
    /// tolerance, is deterministic, and is independent of how many worker
    /// threads actually ran the chains.
    #[test]
    fn multi_chain_matches_single_chain_within_tolerance() {
        let m = crate::graph::test_support::random_model(500, 60, 2, 99);
        let w = Weights::from_vec(vec![0.4; m.feature_dim()]);
        let labels = vec![None; 500];
        let probs = vec![0.5; 500];
        // The assertion takes a max over 500 claims, so the 0.02 tolerance
        // must cover a ~3σ extreme of the per-claim Monte-Carlo error; 16k
        // near-independent samples put 3σ·√(2pq/N) ≈ 0.016 (measured max
        // for this fixed seed), leaving ~20% headroom. Thinning does not
        // help here — successive sweeps are close to independent for this
        // weakly-coupled graph.
        let single = scheduled(
            &GibbsSampler::new(
                &m,
                GibbsConfig {
                    burn_in: 100,
                    samples: 16000,
                    thin: 1,
                    chains: 1,
                    ..Default::default()
                },
            ),
            &w,
            &labels,
            &probs,
        );
        let multi_cfg = GibbsConfig {
            burn_in: 100,
            samples: 16000,
            thin: 1,
            chains: 4,
            ..Default::default()
        };
        let multi = scheduled(
            &GibbsSampler::new(&m, multi_cfg.clone()),
            &w,
            &labels,
            &probs,
        );
        assert_eq!(multi.samples.len(), single.samples.len());
        for (c, (a, b)) in multi.marginals.iter().zip(&single.marginals).enumerate() {
            assert!((a - b).abs() <= 0.02, "claim {c}: multi {a} vs single {b}");
        }
        // Re-running the multi-chain sampler reproduces the pooled sequence
        // exactly (chain-id pooling order, not scheduling order).
        let again = scheduled(&GibbsSampler::new(&m, multi_cfg), &w, &labels, &probs);
        assert_eq!(again.samples, multi.samples);
        assert_eq!(again.marginals, multi.marginals);
    }

    /// `chains: 0` resolves to the hardware parallelism and still yields
    /// the configured number of pooled samples.
    #[test]
    fn auto_chains_pool_full_sample_count() {
        let m = crate::graph::test_support::random_model(30, 8, 2, 5);
        let w = Weights::from_vec(vec![0.2; m.feature_dim()]);
        let cfg = GibbsConfig {
            burn_in: 3,
            samples: 21,
            thin: 1,
            chains: 0,
            ..Default::default()
        };
        assert!(cfg.effective_chains() >= 1);
        let r = scheduled(&GibbsSampler::new(&m, cfg), &w, &[None; 30], &[0.5; 30]);
        assert_eq!(r.samples.len(), 21);
    }

    /// Renumber one connected component into a standalone model: same
    /// feature rows, same per-claim clique order, sources restricted to the
    /// component (all their claims are inside it by construction).
    pub(super) fn induced_submodel(m: &CrfModel, comp: &[usize]) -> CrfModel {
        let mut b = ModelDelta::new(m.m_source(), m.m_doc());
        let mut src_map = std::collections::BTreeMap::new();
        for s in 0..m.n_sources() as u32 {
            let owned = m
                .claims_of_source(s)
                .first()
                .is_some_and(|&c0| comp.binary_search(&(c0 as usize)).is_ok());
            if owned {
                src_map.insert(s, b.add_source(m.source_feature_row(s)).unwrap());
            }
        }
        for _ in comp {
            b.add_claim();
        }
        for cl in m.cliques() {
            if let Ok(pos) = comp.binary_search(&cl.claim.idx()) {
                let d = b.add_document(m.doc_feature_row(cl.doc)).unwrap();
                b.add_clique(VarId(pos as u32), d, src_map[&cl.source], cl.stance);
            }
        }
        CrfModel::build(b).unwrap()
    }

    /// The acceptance spec of the component decomposition: restricted to
    /// one component, the sample stream and marginals are bit-identical to
    /// running the bit spec on that component's induced sub-model with the
    /// `(chain 0, component)` seed.
    #[test]
    fn scheduled_components_match_submodel_reference() {
        for seed in [2u64, 33] {
            let m = crate::graph::synthetic_components_model(4, 8, 3, 2, 2, 2, seed);
            let p = Partition::of_model(&m);
            assert_eq!(p.len(), 4, "topology must yield 4 components");
            let w = Weights::from_vec(
                (0..m.feature_dim())
                    .map(|i| 0.25 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let n = m.n_claims();
            let mut labels = vec![None; n];
            labels[3] = Some(true);
            labels[9] = Some(false);
            let probs: Vec<f64> = (0..n)
                .map(|i| 0.25 + 0.5 * ((i % 4) as f64) / 3.0)
                .collect();
            let cfg = GibbsConfig {
                burn_in: 5,
                samples: 9,
                thin: 2,
                seed: 0x51ed ^ seed,
                chains: 1,
                ..Default::default()
            };
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let mut scratch = GibbsScratch::new();
            let r = sampler.run_scheduled(&w, &labels, &probs, &p, &mut scratch);
            assert_eq!(r.samples.len(), 9);
            for (comp_id, comp) in p.iter().enumerate() {
                let sub = induced_submodel(&m, comp);
                let sub_cfg = GibbsConfig {
                    seed: component_seed(chain_seed(cfg.seed, 0), comp_id),
                    ..cfg.clone()
                };
                let sub_labels: Vec<_> = comp.iter().map(|&c| labels[c]).collect();
                let sub_probs: Vec<_> = comp.iter().map(|&c| probs[c]).collect();
                let (ref_samples, ref_marginals, _) =
                    folded_reference(&sub, &w, &sub_labels, &sub_probs, &sub_cfg);
                for (t, s) in r.samples.iter().enumerate() {
                    assert_eq!(
                        s.project(comp),
                        ref_samples[t],
                        "seed {seed} comp {comp_id} sample {t}"
                    );
                }
                for (j, &c) in comp.iter().enumerate() {
                    assert_eq!(
                        r.marginals[c], ref_marginals[j],
                        "seed {seed} comp {comp_id} claim {c}"
                    );
                }
            }
        }
    }

    /// On a single-component graph the scheduled E-step reproduces the bit
    /// spec for one chain and for several (component 0 reuses the chain
    /// seed).
    #[test]
    fn scheduled_single_component_matches_bit_spec() {
        let m = crate::graph::synthetic_components_model(1, 40, 10, 3, 2, 2, 7);
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 1);
        let w = Weights::from_vec((0..m.feature_dim()).map(|i| 0.2 * i as f64 - 0.3).collect());
        let mut labels = vec![None; 40];
        labels[5] = Some(true);
        labels[17] = Some(false);
        let probs = vec![0.5; 40];
        for chains in [1, 3] {
            let cfg = GibbsConfig {
                burn_in: 4,
                samples: 10,
                thin: 1,
                seed: 99,
                chains,
                ..Default::default()
            };
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let mut scratch = GibbsScratch::new();
            let r = sampler.run_scheduled(&w, &labels, &probs, &p, &mut scratch);
            let (samples, marginals, sweeps) = folded_reference(&m, &w, &labels, &probs, &cfg);
            assert_eq!(r.samples, samples, "chains {chains}");
            assert_eq!(r.marginals, marginals, "chains {chains}");
            assert_eq!(r.sweeps, sweeps, "chains {chains}");
        }
    }

    /// The planner only picks the task layout — every layout (inline, or
    /// component groups inside each chain) produces the planned output bit
    /// for bit, and a fully labelled component stays pinned in every
    /// sample. The second model has one giant 2100-claim component beside
    /// three small ones.
    #[test]
    fn scheduled_output_is_invariant_to_task_layout() {
        let models = [
            crate::graph::synthetic_components_model(6, 5, 2, 2, 2, 2, 11),
            chained_components_model(&[5, 2100, 4, 6]),
        ];
        for (mi, m) in models.iter().enumerate() {
            let p = Partition::of_model(m);
            assert!(p.len() >= 4, "model {mi}");
            let w = Weights::from_vec(
                (0..m.feature_dim())
                    .map(|i| 0.3 - 0.15 * i as f64)
                    .collect(),
            );
            let n = m.n_claims();
            let mut labels: Vec<Option<bool>> = vec![None; n];
            // Pin component 2 entirely (alternating values) plus one stray
            // claim.
            for (j, &c) in p.component(2).iter().enumerate() {
                labels[c] = Some(j % 2 == 0);
            }
            labels[p.component(1)[0]] = Some(true);
            let probs = vec![0.5; n];
            let cfg = GibbsConfig {
                burn_in: 3,
                samples: 8,
                thin: 1,
                seed: 5,
                chains: 2,
                ..Default::default()
            };
            let sampler = GibbsSampler::new(m, cfg);
            let planned = scheduled(&sampler, &w, &labels, &probs);
            for groups in [1usize, 2, 3] {
                let r = sampler.run_scheduled_forced(
                    &w,
                    &labels,
                    &probs,
                    &p,
                    &mut GibbsScratch::new(),
                    groups,
                );
                let at = format!("model {mi} groups {groups}");
                assert_eq!(r.samples, planned.samples, "{at}");
                assert_eq!(r.marginals, planned.marginals, "{at}");
                assert_eq!(r.sweeps, planned.sweeps, "{at}");
            }
            for s in &planned.samples {
                for &c in p.component(2) {
                    assert_eq!(s.get(c), labels[c].unwrap(), "pinned component drifted");
                }
                assert!(s.get(p.component(1)[0]));
            }
            assert_eq!(planned.samples.len(), 8);
        }
    }

    /// Regression: one scratch reused across *different* models built in a
    /// loop (same shape, same weights, likely the same heap address) must
    /// never serve stale claim evidence or a stale component schedule — the
    /// model's build-lineage id forces a rebuild.
    #[test]
    fn scratch_reuse_across_models_forces_rebuild() {
        let w = Weights::from_vec(vec![0.5, -0.2, 0.3, 0.7, -0.4, 0.1]);
        let mut scratch = GibbsScratch::new();
        let cfg = GibbsConfig {
            burn_in: 3,
            samples: 5,
            thin: 1,
            seed: 31,
            chains: 1,
            ..Default::default()
        };
        for seed in 0..4u64 {
            let m = crate::graph::synthetic_components_model(3, 5, 2, 2, 2, 2, seed);
            assert_eq!(w.dim(), m.feature_dim());
            let p = Partition::of_model(&m);
            let labels = vec![None; m.n_claims()];
            let probs = vec![0.5; m.n_claims()];
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let reused = sampler.run_scheduled(&w, &labels, &probs, &p, &mut scratch);
            let fresh = sampler.run_scheduled(&w, &labels, &probs, &p, &mut GibbsScratch::new());
            assert_eq!(reused.samples, fresh.samples, "seed {seed}");
            assert_eq!(reused.marginals, fresh.marginals, "seed {seed}");
        }
    }

    /// Reusing one scratch across E-steps (changed labels, same weights)
    /// yields exactly what fresh scratch does.
    #[test]
    fn scheduled_scratch_reuse_is_transparent() {
        let m = crate::graph::synthetic_components_model(3, 6, 2, 2, 2, 2, 21);
        let p = Partition::of_model(&m);
        let w = Weights::from_vec(vec![0.4; m.feature_dim()]);
        let n = m.n_claims();
        let cfg = GibbsConfig {
            burn_in: 4,
            samples: 6,
            thin: 1,
            seed: 77,
            chains: 1,
            ..Default::default()
        };
        let sampler = GibbsSampler::new(&m, cfg);
        let probs = vec![0.5; n];
        let mut reused = GibbsScratch::new();
        sampler.run_scheduled(&w, &vec![None; n], &probs, &p, &mut reused);
        let mut labels = vec![None; n];
        labels[2] = Some(false);
        let second = sampler.run_scheduled(&w, &labels, &probs, &p, &mut reused);
        let mut fresh = GibbsScratch::new();
        let expect = sampler.run_scheduled(&w, &labels, &probs, &p, &mut fresh);
        assert_eq!(second.samples, expect.samples);
        assert_eq!(second.marginals, expect.marginals);
    }

    /// With zero weights and no anchor the chain is a fair coin.
    #[test]
    fn zero_weights_give_half_marginals() {
        let m = crate::graph::test_support::random_model(4, 2, 2, 3);
        let w = Weights::zeros(m.feature_dim());
        let cfg = GibbsConfig {
            samples: 400,
            burn_in: 10,
            anchor: 0.0,
            ..Default::default()
        };
        let r = scheduled(&GibbsSampler::new(&m, cfg), &w, &[None; 4], &[0.5; 4]);
        for &p in &r.marginals {
            assert!((p - 0.5).abs() < 0.1, "marginal {p} too far from 0.5");
        }
    }

    /// Anchoring pulls marginals towards the previous-round probabilities.
    #[test]
    fn anchor_pulls_towards_previous_probs() {
        let m = crate::graph::test_support::random_model(1, 1, 1, 5);
        let w = Weights::zeros(m.feature_dim());
        let cfg = GibbsConfig {
            samples: 300,
            anchor: 3.0,
            ..Default::default()
        };
        let r = scheduled(&GibbsSampler::new(&m, cfg), &w, &[None], &[0.95]);
        assert!(r.marginals[0] > 0.8, "marginal {}", r.marginals[0]);
    }

    /// Validating a claim shifts siblings through the shared-source trust.
    #[test]
    fn user_input_propagates_through_source() {
        // One source with two claims; confirm one claim, observe the other's
        // marginal rise (trust weight positive).
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        for c in [c0, c1] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        // Only the trust feature carries signal.
        let w = Weights::from_vec(vec![0.0, 0.0, 0.0, 4.0]);
        let cfg = GibbsConfig {
            samples: 300,
            anchor: 0.0,
            ..Default::default()
        };
        let sampler = GibbsSampler::new(&m, cfg);
        let baseline = scheduled(&sampler, &w, &[None, None], &[0.5, 0.5]).marginals[1];
        let confirmed = scheduled(&sampler, &w, &[Some(true), None], &[1.0, 0.5]).marginals[1];
        let refuted = scheduled(&sampler, &w, &[Some(false), None], &[0.0, 0.5]).marginals[1];
        assert!(
            confirmed > baseline && baseline > refuted,
            "confirmed={confirmed} baseline={baseline} refuted={refuted}"
        );
    }

    #[test]
    fn mode_configuration_picks_most_frequent_per_component() {
        // 3 claims, all one component is wrong here: build a partition of
        // two components {0,1} and {2} manually via a model.
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        let c2 = b.add_claim();
        for (c, s) in [(c0, s0), (c1, s0), (c2, s1)] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        // Samples: component {0,1} sees [1,1] twice and [1,0] once;
        // component {2} sees 0 twice and 1 once.
        let samples = vec![
            Bitset::from_bools(&[true, true, false]),
            Bitset::from_bools(&[true, false, true]),
            Bitset::from_bools(&[true, true, false]),
        ];
        let mode = mode_configuration(&samples, &p);
        assert_eq!(mode.to_bools(), vec![true, true, false]);
    }

    /// The paper's worked example from §3.3: three claims, samples
    /// [1,1,0], [1,0,0], [1,1,0] -> decide returns [1,1,0].
    #[test]
    fn paper_example_grounding() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.0]).unwrap();
        for _ in 0..3 {
            let c = b.add_claim();
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        let samples = vec![
            Bitset::from_bools(&[true, true, false]),
            Bitset::from_bools(&[true, false, false]),
            Bitset::from_bools(&[true, true, false]),
        ];
        assert_eq!(
            mode_configuration(&samples, &p).to_bools(),
            vec![true, true, false]
        );
    }

    /// Tie-breaking: with every configuration equally frequent, the lowest
    /// `Bitset` (derived lexicographic order over the packed words) wins —
    /// `[true, false]` packs to word 1, `[false, true]` to word 2.
    #[test]
    fn mode_configuration_breaks_ties_towards_lowest_bitset() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.0]).unwrap();
        for _ in 0..2 {
            let c = b.add_claim();
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        let mut samples = vec![
            Bitset::from_bools(&[false, true]),
            Bitset::from_bools(&[true, false]),
        ];
        assert_eq!(
            mode_configuration(&samples, &p).to_bools(),
            vec![true, false]
        );
        // The decision depends only on the sample *set*: reordering the
        // pool (as a different chain/component schedule would) cannot flip
        // the mode.
        samples.reverse();
        assert_eq!(
            mode_configuration(&samples, &p).to_bools(),
            vec![true, false]
        );
    }

    /// Three-way tie across three distinct configurations: the minimum in
    /// the `Bitset` order wins, independent of observation order.
    #[test]
    fn mode_configuration_tie_is_order_independent() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.0]).unwrap();
        for _ in 0..3 {
            let c = b.add_claim();
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        let configs = [
            [true, true, false],  // word 3
            [false, false, true], // word 4
            [true, false, false], // word 1 — the expected winner
        ];
        // Every rotation of the observation order yields the same mode.
        for rot in 0..configs.len() {
            let samples: Vec<Bitset> = (0..configs.len())
                .map(|i| Bitset::from_bools(&configs[(i + rot) % configs.len()]))
                .collect();
            assert_eq!(
                mode_configuration(&samples, &p).to_bools(),
                vec![true, false, false],
                "rotation {rot}"
            );
        }
    }

    /// The acceptance spec of the versioned-model redesign: growing a model
    /// delta-by-delta — with a **warm** scratch carried through every
    /// growth step, so the claim evidence and the component schedule are
    /// refreshed from a stale sync point rather than built cold — yields a
    /// `run_scheduled` sample stream bit-identical to building the final
    /// model in one shot and sampling with fresh scratch.
    #[test]
    fn scheduled_on_grown_model_matches_batch_build() {
        use crate::graph::test_support as ts;
        for seed in 0..12u64 {
            let chunks = ts::random_growth_script(seed.wrapping_mul(131) ^ 0x9A0, 4);
            let batch = ts::build_batch(&chunks);
            let w = Weights::from_vec(
                (0..batch.feature_dim())
                    .map(|i| 0.23 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let cfg = GibbsConfig {
                burn_in: 4,
                samples: 7,
                thin: 2,
                seed: 0x6AB5 ^ seed,
                chains: 1,
                ..Default::default()
            };

            // Grown path: start from chunk 0, warm the scratch on the base
            // model, then apply every later chunk as a delta and compute
            // the grown model's partition.
            let mut grown = ts::build_batch(&chunks[..1]);
            let mut scratch = GibbsScratch::new();
            {
                let base = GibbsSampler::new(&grown, cfg.clone());
                let n0 = grown.n_claims();
                base.run_scheduled(
                    &w,
                    &vec![None; n0],
                    &vec![0.5; n0],
                    &Partition::of_model(&grown),
                    &mut scratch,
                );
            }
            for chunk in &chunks[1..] {
                let delta = ts::chunk_delta(&grown, chunk);
                grown.apply(delta).unwrap();
            }
            let partition = Partition::of_model(&grown);

            let n = batch.n_claims();
            let labels = vec![None; n];
            let probs = vec![0.5; n];
            let r_grown = GibbsSampler::new(&grown, cfg.clone()).run_scheduled(
                &w,
                &labels,
                &probs,
                &partition,
                &mut scratch,
            );
            let fresh_partition = Partition::of_model(&batch);
            let r_batch = GibbsSampler::new(&batch, cfg).run_scheduled(
                &w,
                &labels,
                &probs,
                &fresh_partition,
                &mut GibbsScratch::new(),
            );
            assert_eq!(r_grown.samples, r_batch.samples, "seed {seed}");
            assert_eq!(r_grown.marginals, r_batch.marginals, "seed {seed}");
            assert_eq!(r_grown.sweeps, r_batch.sweeps, "seed {seed}");
        }
    }

    /// The lifecycle acceptance spec (shared by the deterministic
    /// multi-seed test and the proptest): replay a random interleaved
    /// grow/retire script, pin labels on some survivors, then check that
    /// `run_scheduled` — samples, marginals, and partition numbering — is
    /// **bit-identical** across three views of the same surviving
    /// subgraph: the tombstoned model (old ids), the compacted model (new
    /// ids, via the returned `IdRemap`), and a one-shot build of the
    /// survivors.
    pub(super) fn lifecycle_inference_spec(seed: u64, n_ops: usize, chains: usize) {
        use crate::graph::test_support as ts;
        let ops = ts::random_lifecycle_script(seed, n_ops);
        let (tombstoned, sim) = ts::replay_lifecycle(&ops);
        let (survivors, claim_map) = sim.build_survivors();
        let mut compacted = tombstoned.clone();
        let remap = compacted.compact().unwrap();

        let n_old = tombstoned.n_claims();
        let n_new = survivors.n_claims();
        let w = Weights::from_vec(
            (0..tombstoned.feature_dim())
                .map(|i| 0.21 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        // Deterministic labels/probs on live claims, mapped across views.
        let mut labels_old = vec![None; n_old];
        let mut probs_old = vec![0.5; n_old];
        let mut labels_new = vec![None; n_new];
        let mut probs_new = vec![0.5; n_new];
        for c in 0..n_old {
            if claim_map[c] == u32::MAX {
                continue;
            }
            let nc = claim_map[c] as usize;
            if c % 3 == 0 {
                labels_old[c] = Some(c % 2 == 0);
                labels_new[nc] = Some(c % 2 == 0);
            }
            let p = 0.2 + 0.6 * ((c % 5) as f64) / 4.0;
            probs_old[c] = p;
            probs_new[nc] = p;
        }

        let cfg = GibbsConfig {
            burn_in: 4,
            samples: 7,
            thin: 2,
            seed: seed ^ 0xD00F,
            chains,
            ..Default::default()
        };
        let p_old = Partition::of_model(&tombstoned);
        let p_new = Partition::of_model(&compacted);
        let p_survivors = Partition::of_model(&survivors);

        // Partition numbering matches across views (modulo the remap).
        assert_eq!(p_new.len(), p_survivors.len(), "seed {seed}");
        assert_eq!(p_old.len(), p_new.len(), "seed {seed}");
        for i in 0..p_new.len() {
            assert_eq!(p_new.component(i), p_survivors.component(i), "seed {seed}");
            let mapped: Vec<usize> = p_old
                .component(i)
                .iter()
                .map(|&c| remap.claim(VarId(c as u32)).unwrap().idx())
                .collect();
            assert_eq!(mapped, p_new.component(i), "seed {seed} component {i}");
        }

        let r_old = GibbsSampler::new(&tombstoned, cfg.clone()).run_scheduled(
            &w,
            &labels_old,
            &probs_old,
            &p_old,
            &mut GibbsScratch::new(),
        );
        let r_new = GibbsSampler::new(&compacted, cfg.clone()).run_scheduled(
            &w,
            &labels_new,
            &probs_new,
            &p_new,
            &mut GibbsScratch::new(),
        );
        let r_sur = GibbsSampler::new(&survivors, cfg).run_scheduled(
            &w,
            &labels_new,
            &probs_new,
            &p_survivors,
            &mut GibbsScratch::new(),
        );

        // Compacted vs one-shot survivors: identical content, identical run.
        assert_eq!(r_new.samples, r_sur.samples, "seed {seed}");
        assert_eq!(r_new.marginals, r_sur.marginals, "seed {seed}");

        // Tombstoned vs compacted: bit-identical modulo the remap; dead
        // claims report marginal 0 and never set a sample bit.
        assert_eq!(r_old.samples.len(), r_new.samples.len(), "seed {seed}");
        for c in 0..n_old {
            match remap.claim(VarId(c as u32)) {
                Some(nc) => {
                    assert_eq!(
                        r_old.marginals[c].to_bits(),
                        r_new.marginals[nc.idx()].to_bits(),
                        "seed {seed} claim {c}"
                    );
                    for (t, s) in r_old.samples.iter().enumerate() {
                        assert_eq!(
                            s.get(c),
                            r_new.samples[t].get(nc.idx()),
                            "seed {seed} claim {c} sample {t}"
                        );
                    }
                }
                None => {
                    assert_eq!(r_old.marginals[c], 0.0, "seed {seed} dead claim {c}");
                    for s in &r_old.samples {
                        assert!(!s.get(c), "seed {seed} dead claim {c} sampled true");
                    }
                }
            }
        }
    }

    /// Deterministic multi-seed form of the lifecycle acceptance spec.
    #[test]
    fn retired_compacted_inference_is_bit_identical() {
        for seed in 0..10u64 {
            lifecycle_inference_spec(seed.wrapping_mul(97) ^ 0xACCE, 2 + (seed as usize % 5), 1);
        }
        // And with multi-chain pooling.
        lifecycle_inference_spec(0x1234, 5, 3);
    }

    /// "Path" components: within each segment, source `s_i` links claims
    /// `c_i` and `c_{i+1}`, so each segment is one component whose claims
    /// share a source only with their neighbours.
    pub(super) fn chained_components_model(segments: &[usize]) -> CrfModel {
        let mut b = ModelDelta::new(2, 2);
        let total: usize = segments.iter().sum();
        for _ in 0..total {
            b.add_claim();
        }
        let mut base = 0usize;
        for &len in segments {
            assert!(len >= 2, "a segment needs at least one linking source");
            for i in 0..len - 1 {
                let g = (base + i) as f64;
                let s = b.add_source(&[0.1 * g, 0.5 - 0.02 * g]).unwrap();
                for (j, c) in [base + i, base + i + 1].into_iter().enumerate() {
                    let d = b
                        .add_document(&[0.2 + 0.03 * (g + j as f64), -0.1 * g])
                        .unwrap();
                    let stance = if (i + j) % 3 == 0 {
                        Stance::Refute
                    } else {
                        Stance::Support
                    };
                    b.add_clique(VarId(c as u32), d, s, stance);
                }
            }
            base += len;
        }
        CrfModel::build(b).unwrap()
    }

    /// The bit spec's folded constants, per claim (full width): the
    /// packed `tw` of every incidence, and `base_a` and `t_sum` of every
    /// live unlabelled claim.
    pub(super) struct SpecFold {
        pub(super) tw_recip: Vec<f64>,
        pub(super) base_a: Vec<f64>,
        pub(super) t_sum: Vec<f64>,
    }

    /// The folded per-run constants of [`folded_reference`], recomputed
    /// from scratch in the kernel's summation order: `X_c` and the signs
    /// summed from the model's own clique and feature rows (full width;
    /// slots of dead cliques only ever meet a ±0.0 trust weight).
    pub(super) fn spec_fold(
        m: &CrfModel,
        w: &Weights,
        labels: &[Option<bool>],
        probs: &[f64],
        cfg: &GibbsConfig,
    ) -> SpecFold {
        let mut anchor_term = Vec::new();
        GibbsSampler::new(m, cfg.clone()).fill_anchor_terms(probs, &mut anchor_term);
        let n = m.n_claims();
        let (pa, pb) = TRUST_PRIOR;
        let beta = w.as_slice();
        let trust_w = beta[beta.len() - 1];
        let md = m.m_doc();
        let mut recip = vec![0.0; m.n_sources()];
        for (s, r) in recip.iter_mut().enumerate() {
            let nl = m.n_live_claims_of_source(s as u32) as f64;
            *r = 1.0 / (pa + pb + nl - 1.0);
        }
        let mut tw_recip = vec![0.0; m.n_incidences()];
        let mut base_a = vec![0.0; n];
        let mut t_sum = vec![0.0; n];
        for c in 0..n {
            if !m.claim_live(c) || labels[c].is_some() {
                continue;
            }
            // X_c: the live cliques' `[1, f^D, f^S]` rows, signed and
            // summed in `cliques_of` order; a dead clique's sign is 0.
            let (lo, _) = m.claim_clique_span(c);
            let mut x = vec![0.0; beta.len() - 1];
            let mut t = 0.0;
            for (k, &ci) in m.cliques_of(VarId(c as u32)).iter().enumerate() {
                let cl = m.clique(CliqueId(ci));
                let sign = match (m.clique_live(ci as usize), cl.stance) {
                    (false, _) => 0.0,
                    (true, Stance::Support) => 1.0,
                    (true, Stance::Refute) => -1.0,
                };
                if sign != 0.0 {
                    x[0] += sign;
                    for (j, f) in m.doc_feature_row(cl.doc).iter().enumerate() {
                        x[1 + j] += sign * f;
                    }
                    for (j, f) in m.source_feature_row(cl.source).iter().enumerate() {
                        x[1 + md + j] += sign * f;
                    }
                }
                let tw = sign * trust_w * recip[cl.source as usize];
                tw_recip[lo + k] = tw;
                t += tw;
            }
            let mut dot = 0.0;
            for j in 0..x.len() {
                dot += beta[j] * x[j];
            }
            base_a[c] = (anchor_term[c] + (dot - 0.5 * trust_w * x[0])) + pa * t;
            t_sum[c] = t;
        }
        SpecFold {
            tw_recip,
            base_a,
            t_sum,
        }
    }

    /// The **bit spec** of [`GibbsSampler::run_scheduled`]
    /// (`docs/sampling.md`): each component's unlabelled claims visited in
    /// claim-id order, the folded kernel constants recomputed here term
    /// for term in the kernel's exact summation order (the per-claim
    /// evidence `X_c` and the incidence signs summed from the model's own
    /// clique and feature rows), the sigmoid-table decision rule, and the
    /// `(chain, component)` seed scheme — all derived independently of the
    /// sampler's scratch ([`ClaimEvidence`], [`CompSchedule`],
    /// [`FoldedScores`]) and executed as one scalar loop. Returns
    /// `(samples, marginals, sweeps)`.
    pub(super) fn folded_reference(
        m: &CrfModel,
        w: &Weights,
        labels: &[Option<bool>],
        probs: &[f64],
        cfg: &GibbsConfig,
    ) -> (Vec<Bitset>, Vec<f64>, usize) {
        let partition = Partition::of_model(m);
        let n = m.n_claims();
        let SpecFold {
            tw_recip,
            base_a,
            t_sum,
        } = spec_fold(m, w, labels, probs, cfg);

        let k = cfg.effective_chains();
        let (per_chain, rem) = (cfg.samples / k, cfg.samples % k);
        let table = sigmoid_table();
        let mut samples = Vec::new();
        let mut ones = vec![0u64; n];
        let mut sweeps = 0;
        for chain in 0..k {
            let n_samples = per_chain + usize::from(chain < rem);
            sweeps += cfg.burn_in + n_samples * cfg.thin.max(1);
            let mut chain_samples = vec![Bitset::zeros(n); n_samples];
            let mut state = ChainState {
                values: vec![false; n],
                credible_per_source: vec![0u32; m.n_sources()],
            };
            let cseed = chain_seed(cfg.seed, chain);
            for (comp_id, comp) in partition.iter().enumerate() {
                // Claim-id visit order (components list ascending ids).
                let order: Vec<usize> = comp
                    .iter()
                    .copied()
                    .filter(|&c| labels[c].is_none())
                    .collect();
                if order.is_empty() {
                    // Fully pinned component: no RNG stream.
                    for bs in chain_samples.iter_mut() {
                        for &c in comp {
                            if labels[c] == Some(true) {
                                bs.set(c, true);
                                ones[c] += 1;
                            }
                        }
                    }
                    continue;
                }
                let mut rng = SmallRng::seed_from_u64(component_seed(cseed, comp_id));
                for &c in comp {
                    state.values[c] = match labels[c] {
                        Some(v) => v,
                        None => rng.gen_bool(numerics::clamp_prob(probs[c])),
                    };
                }
                for s in 0..m.n_sources() as u32 {
                    // A source belongs to the component of its first live
                    // claim (the scheduled path's ownership rule).
                    let owned = m.source_live(s as usize)
                        && m.claims_of_source(s)
                            .iter()
                            .find(|&&c| m.claim_live(c as usize))
                            .is_some_and(|&c0| partition.component_of(VarId(c0)) == comp_id);
                    if owned {
                        state.credible_per_source[s as usize] =
                            m.claims_of_source(s)
                                .iter()
                                .filter(|&&c| m.claim_live(c as usize) && state.values[c as usize])
                                .count() as u32;
                    }
                }
                let sweep = |state: &mut ChainState, rng: &mut SmallRng| {
                    for &c in &order {
                        let (lo, hi) = m.claim_clique_span(c);
                        let tw = &tw_recip[lo..hi];
                        let sources = m.clique_sources_of(VarId(c as u32));
                        let mut acc = 0.0;
                        for k in 0..tw.len() {
                            acc += tw[k] * state.credible_per_source[sources[k] as usize] as f64;
                        }
                        let vt = if state.values[c] { t_sum[c] } else { 0.0 };
                        let logit = (base_a[c] - vt) + acc;
                        // One uniform per visit, decided by the spec's
                        // accept rule.
                        let v = folded_accept(rng.gen::<f64>(), logit, table);
                        state.flip(m, c, v);
                    }
                };
                for _ in 0..cfg.burn_in {
                    sweep(&mut state, &mut rng);
                }
                for bs in chain_samples.iter_mut() {
                    for _ in 0..cfg.thin.max(1) {
                        sweep(&mut state, &mut rng);
                    }
                    for &c in comp {
                        if state.values[c] {
                            bs.set(c, true);
                            ones[c] += 1;
                        }
                    }
                }
            }
            samples.append(&mut chain_samples);
        }
        let marginals = marginals_of(m, labels, &ones, samples.len());
        (samples, marginals, sweeps)
    }

    /// The bit-spec acceptance test: `run_scheduled_forced` is
    /// bit-identical to the scalar bit spec above — on a 2100-claim path
    /// graph and on a multi-component synthetic topology, for one and two
    /// chains.
    #[test]
    fn scheduled_matches_scalar_spec() {
        let models = [
            chained_components_model(&[2100]),
            crate::graph::synthetic_components_model(3, 8, 3, 2, 2, 2, 4),
        ];
        for (mi, m) in models.iter().enumerate() {
            let p = Partition::of_model(m);
            let n = m.n_claims();
            let w = Weights::from_vec(
                (0..m.feature_dim())
                    .map(|i| 0.3 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let mut labels = vec![None; n];
            labels[1] = Some(true);
            labels[n - 2] = Some(false);
            let probs: Vec<f64> = (0..n).map(|i| 0.3 + 0.4 * ((i % 3) as f64) / 2.0).collect();
            for chains in [1usize, 2] {
                let cfg = GibbsConfig {
                    burn_in: 5,
                    samples: 6,
                    thin: 2,
                    seed: 0xC401 ^ mi as u64,
                    chains,
                    ..Default::default()
                };
                let sampler = GibbsSampler::new(m, cfg.clone());
                let (samples, marginals, sweeps) = folded_reference(m, &w, &labels, &probs, &cfg);
                let r = sampler.run_scheduled_forced(
                    &w,
                    &labels,
                    &probs,
                    &p,
                    &mut GibbsScratch::new(),
                    1,
                );
                assert_eq!(r.samples, samples, "model {mi} chains {chains}");
                assert_eq!(r.marginals, marginals, "model {mi} chains {chains}");
                assert_eq!(r.sweeps, sweeps, "model {mi} chains {chains}");
            }
        }
    }

    /// Scratch lifecycle spec (shared with the proptest): apply a random
    /// grow/retire script op by op to ONE model (preserving the build
    /// lineage, so the reused scratch syncs forward from a stale sync point
    /// instead of starting empty), run an E-step after every op, and check
    /// each run is bit-identical to a fresh-scratch run; then compact and
    /// check again.
    pub(super) fn scratch_lifecycle_spec(seed: u64, n_ops: usize) {
        use crate::graph::test_support as ts;
        use crate::graph::RetireSet;
        let ops = ts::random_lifecycle_script(seed, n_ops);
        let ts::LifecycleOp::Grow(first) = &ops[0] else {
            panic!("script must start with growth");
        };
        let mut model = ts::build_batch(std::slice::from_ref(first));
        let mut reused = GibbsScratch::new();
        let check = |model: &CrfModel, reused: &mut GibbsScratch, step: usize| {
            let n = model.n_claims();
            let w = Weights::from_vec(
                (0..model.feature_dim())
                    .map(|i| 0.21 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let mut labels = vec![None; n];
            let mut probs = vec![0.5; n];
            for c in 0..n {
                if !model.claim_live(c) {
                    continue;
                }
                if c % 4 == 0 {
                    labels[c] = Some(c % 8 == 0);
                }
                probs[c] = 0.2 + 0.6 * ((c % 5) as f64) / 4.0;
            }
            let p = Partition::of_model(model);
            let cfg = GibbsConfig {
                burn_in: 3,
                samples: 5,
                thin: 1,
                seed: seed ^ 0xC105 ^ step as u64,
                chains: 1,
                ..Default::default()
            };
            let sampler = GibbsSampler::new(model, cfg);
            let r = sampler.run_scheduled(&w, &labels, &probs, &p, reused);
            let f = sampler.run_scheduled(&w, &labels, &probs, &p, &mut GibbsScratch::new());
            assert_eq!(r.samples, f.samples, "seed {seed} step {step}");
            assert_eq!(r.marginals, f.marginals, "seed {seed} step {step}");
        };
        check(&model, &mut reused, 0);
        for (i, op) in ops[1..].iter().enumerate() {
            match op {
                ts::LifecycleOp::Grow(chunk) => {
                    let delta = ts::chunk_delta(&model, chunk);
                    model.apply(delta).unwrap();
                }
                ts::LifecycleOp::Retire { claims, sources } => {
                    let mut set = RetireSet::for_model(&model);
                    for &c in claims {
                        set.retire_claim(VarId(c));
                    }
                    for &s in sources {
                        set.retire_source(s);
                    }
                    model.retire(set).unwrap();
                }
            }
            check(&model, &mut reused, i + 1);
        }
        if model.has_tombstones() {
            model.compact().unwrap();
            check(&model, &mut reused, ops.len() + 1);
        }
    }

    /// Deterministic multi-seed form of the scratch lifecycle spec.
    #[test]
    fn scheduled_lifecycle_reused_scratch_is_bit_identical() {
        for seed in 0..8u64 {
            scratch_lifecycle_spec(seed.wrapping_mul(113) ^ 0xC4A0, 2 + (seed as usize % 5));
        }
    }

    /// The exact law of a sweep schedule on a small model (at most 10
    /// unlabelled claims).
    pub(super) struct ExactLaw {
        /// Per-claim marginals of the stationary law (labels pinned, dead
        /// claims 0).
        pub marginals: Vec<f64>,
        /// L1 distance between the law after `burn_in` sweeps from the
        /// sampler's initial draw and the stationary law.
        pub burn_in_gap: f64,
    }

    /// Exact oracle of a Gibbs sweep schedule. Builds the `2^k × 2^k`
    /// one-sweep transition matrix for visiting the unlabelled claims in
    /// `order`, where each single-site update draws claim `c` from the
    /// sampler's conditional — `τ(s)` without `c` over `c`'s live cliques
    /// ([`crate::potentials::claim_logit`]), plus the clamped anchor term
    /// — mapped to a probability by `accept`. The stationary law comes from
    /// power iteration.
    ///
    /// The trust conditional leaves the claim itself out, so the site
    /// conditionals need not come from one joint distribution, and the
    /// stationary law may depend on the visit order. Every sampler here
    /// visits in claim-id order, so that order's law is the one oracle;
    /// the joint of [`crate::entropy::exact_component_entropy`] is not
    /// this law.
    pub(super) fn exact_sweep_law(
        m: &CrfModel,
        w: &Weights,
        labels: &[Option<bool>],
        probs: &[f64],
        cfg: &GibbsConfig,
        order: &[usize],
        accept: impl Fn(f64) -> f64,
    ) -> ExactLaw {
        let n = m.n_claims();
        let k = order.len();
        assert!(k <= 10, "exact oracle enumerates 2^k states; k = {k}");
        let states = 1usize << k;
        let (a, b) = TRUST_PRIOR;

        // cond[x·k + i]: P(order[i] = 1 | state x). The conditional leaves
        // the claim out, so it is the same at both values of bit i.
        let mut cond = vec![0.0; states * k];
        let mut values = vec![false; n];
        for x in 0..states {
            for c in 0..n {
                values[c] = m.claim_live(c) && labels[c] == Some(true);
            }
            for (i, &c) in order.iter().enumerate() {
                values[c] = (x >> i) & 1 == 1;
            }
            for (i, &c) in order.iter().enumerate() {
                let trust = |s: u32| {
                    let others = m
                        .claims_of_source(s)
                        .iter()
                        .filter(|&&o| {
                            o as usize != c && m.claim_live(o as usize) && values[o as usize]
                        })
                        .count() as f64;
                    (a + others) / (a + b + m.n_live_claims_of_source(s) as f64 - 1.0)
                };
                let mut z = crate::potentials::claim_logit(m, w, VarId(c as u32), trust);
                if cfg.anchor > 0.0 {
                    let q = probs[c].clamp(0.05, 0.95);
                    z += cfg.anchor * (q / (1.0 - q)).ln();
                }
                cond[x * k + i] = accept(z);
            }
        }
        let sweep = |d: &mut [f64]| {
            for i in 0..k {
                let bit = 1usize << i;
                for y in (0..states).filter(|y| y & bit == 0) {
                    let mass = d[y] + d[y | bit];
                    let q = cond[y * k + i];
                    d[y | bit] = mass * q;
                    d[y] = mass * (1.0 - q);
                }
            }
        };
        // Row x of the transition matrix: the law after one sweep from x.
        let mut t = vec![0.0; states * states];
        for (x, row) in t.chunks_mut(states).enumerate() {
            row[x] = 1.0;
            sweep(row);
        }
        let step = |pi: &[f64]| -> Vec<f64> {
            let mut next = vec![0.0; states];
            for (x, row) in t.chunks(states).enumerate() {
                for (nx, &txy) in next.iter_mut().zip(row) {
                    *nx += pi[x] * txy;
                }
            }
            next
        };
        let l1 = |p: &[f64], q: &[f64]| p.iter().zip(q).map(|(x, y)| (x - y).abs()).sum::<f64>();

        let mut pi = vec![1.0 / states as f64; states];
        let mut converged = false;
        for _ in 0..100_000 {
            let next = step(&pi);
            let delta = l1(&next, &pi);
            pi = next;
            if delta < 1e-14 {
                converged = true;
                break;
            }
        }
        assert!(converged, "power iteration did not converge");

        // The sampler's initial draw: each unlabelled claim independently
        // credible with probability `clamp_prob(probs[c])`.
        let mut law: Vec<f64> = (0..states)
            .map(|x| {
                order
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let q = numerics::clamp_prob(probs[c]);
                        if (x >> i) & 1 == 1 {
                            q
                        } else {
                            1.0 - q
                        }
                    })
                    .product()
            })
            .collect();
        for _ in 0..cfg.burn_in {
            law = step(&law);
        }

        let mut marginals: Vec<f64> = (0..n)
            .map(|c| f64::from(m.claim_live(c) && labels[c] == Some(true)))
            .collect();
        for (i, &c) in order.iter().enumerate() {
            marginals[c] = (0..states)
                .filter(|x| (x >> i) & 1 == 1)
                .map(|x| pi[x])
                .sum();
        }
        ExactLaw {
            marginals,
            burn_in_gap: l1(&law, &pi),
        }
    }

    /// Two small oracle models with support and refute stances: two path
    /// components, and a single component whose four sources each cover a
    /// run of claims.
    fn oracle_models() -> Vec<(CrfModel, Vec<Option<bool>>)> {
        let path = chained_components_model(&[6, 4]);
        let mut path_labels = vec![None; path.n_claims()];
        path_labels[0] = Some(true);
        path_labels[7] = Some(false);

        let mut b = ModelDelta::new(2, 2);
        let sources: Vec<u32> = (0..4)
            .map(|s| b.add_source(&[0.3 * s as f64 - 0.4, 0.2]).unwrap())
            .collect();
        for i in 0..9usize {
            let c = b.add_claim();
            for j in 0..2 {
                let d = b
                    .add_document(&[0.15 * i as f64 - 0.5, 0.4 - 0.3 * j as f64])
                    .unwrap();
                let stance = if (i + 2 * j) % 3 == 0 {
                    Stance::Refute
                } else {
                    Stance::Support
                };
                b.add_clique(c, d, sources[(i + j) % 4], stance);
            }
        }
        let ring = CrfModel::build(b).unwrap();
        let mut ring_labels = vec![None; ring.n_claims()];
        ring_labels[4] = Some(false);
        vec![(path, path_labels), (ring, ring_labels)]
    }

    /// ROADMAP item 4's exact oracle. On small models with both stances,
    /// labels and a nonzero anchor, the marginals of `run_reference` and of
    /// the folded kernel (sigmoid table) over many independently seeded
    /// chains each fall within a sample-count bound of the exact stationary
    /// law of their shared claim-id visit order. Prints the sigmoid
    /// table's bias on that law.
    #[test]
    fn exact_oracle_bounds_reference_and_folded_marginals() {
        const CHAINS: usize = 6_000;
        for (mi, (m, labels)) in oracle_models().iter().enumerate() {
            let n = m.n_claims();
            let p = Partition::of_model(m);
            let w = Weights::from_vec(vec![0.3, 0.9, -0.6, 0.5, -0.4, 3.0]);
            let probs: Vec<f64> = (0..n).map(|c| 0.2 + 0.6 * ((c % 4) as f64) / 3.0).collect();
            let cfg = GibbsConfig {
                burn_in: 30,
                samples: 1,
                thin: 1,
                anchor: 0.7,
                chains: 1,
                ..Default::default()
            };

            let order: Vec<usize> = (0..n).filter(|&c| labels[c].is_none()).collect();
            let exact = |z: f64| numerics::clamp_prob(numerics::sigmoid(z));
            let tabled = |z: f64| table_sigmoid(z, sigmoid_table());
            let law = exact_sweep_law(m, &w, labels, &probs, &cfg, &order, exact);
            let tab_law = exact_sweep_law(m, &w, labels, &probs, &cfg, &order, tabled);
            for l in [&law, &tab_law] {
                assert!(
                    l.burn_in_gap < 1e-4,
                    "model {mi}: burn-in gap {}",
                    l.burn_in_gap
                );
            }
            let table_bias = law
                .marginals
                .iter()
                .zip(&tab_law.marginals)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            println!("oracle model {mi}: table bias = {table_bias:.3e}");
            assert!(table_bias < 1e-4, "model {mi}: table bias {table_bias}");

            let mut ref_ones = vec![0u64; n];
            let mut kernel_ones = vec![0u64; n];
            let mut scratch = GibbsScratch::new();
            for chain in 0..CHAINS {
                let sampler = GibbsSampler::new(
                    m,
                    GibbsConfig {
                        seed: 0x0AC1E ^ (chain as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        ..cfg.clone()
                    },
                );
                let r = sampler.run_reference(&w, labels, &probs);
                let s = sampler.run_scheduled(&w, labels, &probs, &p, &mut scratch);
                for c in 0..n {
                    ref_ones[c] += u64::from(r.samples[0].get(c));
                    kernel_ones[c] += u64::from(s.samples[0].get(c));
                }
            }
            // 4.5σ of a binomial proportion over independent chains, plus
            // slack for the (asserted tiny) burn-in gap.
            let bound = |q: f64| 4.5 * (q * (1.0 - q) / CHAINS as f64).sqrt() + 1e-3;
            for &c in &order {
                for (name, ones) in [("reference", &ref_ones), ("kernel", &kernel_ones)] {
                    let got = ones[c] as f64 / CHAINS as f64;
                    let want = law.marginals[c];
                    assert!(
                        (got - want).abs() <= bound(want),
                        "model {mi} claim {c} {name}: sampled {got} vs exact {want}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Marginals are probabilities and labelled claims stay pinned in
        /// every sample, for arbitrary random models and label patterns.
        #[test]
        fn prop_marginals_valid_and_labels_pinned(
            seed in 0u64..200,
            label_mask in proptest::collection::vec(proptest::option::of(any::<bool>()), 8),
        ) {
            let m = crate::graph::test_support::random_model(8, 4, 2, seed);
            let w = Weights::from_vec(vec![0.3; m.feature_dim()]);
            let cfg = GibbsConfig { burn_in: 3, samples: 10, thin: 1, ..Default::default() };
            let r = super::tests::scheduled(&GibbsSampler::new(&m, cfg), &w, &label_mask, &[0.5; 8]);
            for (c, &p) in r.marginals.iter().enumerate() {
                prop_assert!((0.0..=1.0).contains(&p), "marginal {p}");
                if let Some(v) = label_mask[c] {
                    prop_assert_eq!(p, if v { 1.0 } else { 0.0 });
                    for s in &r.samples {
                        prop_assert_eq!(s.get(c), v);
                    }
                }
            }
            prop_assert_eq!(r.samples.len(), 10);
        }

        /// The mode configuration always appears among the samples
        /// (component-wise) and respects labels.
        #[test]
        fn prop_mode_configuration_is_consistent(seed in 0u64..100) {
            let m = crate::graph::test_support::random_model(10, 3, 2, seed);
            let w = Weights::from_vec(vec![0.2; m.feature_dim()]);
            let mut labels = vec![None; 10];
            labels[0] = Some(true);
            let cfg = GibbsConfig { burn_in: 3, samples: 12, thin: 1, ..Default::default() };
            let r = super::tests::scheduled(&GibbsSampler::new(&m, cfg), &w, &labels, &[0.5; 10]);
            let p = crate::partition::Partition::of_model(&m);
            let mode = mode_configuration(&r.samples, &p);
            prop_assert!(mode.get(0), "labelled claim must keep its value");
            // Per component, the projected mode occurs in some sample.
            for comp in p.iter() {
                let proj = mode.project(comp);
                prop_assert!(
                    r.samples.iter().any(|s| s.project(comp) == proj),
                    "mode projection never sampled"
                );
            }
        }

        /// The scheduled E-step is bit-identical to the bit spec run on each
        /// component's induced sub-model, on random graphs (whose component
        /// structure is arbitrary) and random label masks.
        #[test]
        fn prop_scheduled_equals_reference_per_component(
            seed in 0u64..40,
            label_mask in proptest::collection::vec(proptest::option::of(any::<bool>()), 14),
        ) {
            let m = crate::graph::test_support::random_model(14, 6, 2, seed);
            let p = Partition::of_model(&m);
            let w = Weights::from_vec(
                (0..m.feature_dim()).map(|i| (i as f64) * 0.13 - 0.3).collect(),
            );
            let probs = vec![0.5; 14];
            let cfg = GibbsConfig {
                burn_in: 3, samples: 5, thin: 1, seed, chains: 1, ..Default::default()
            };
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let mut scratch = GibbsScratch::new();
            let r = sampler.run_scheduled(&w, &label_mask, &probs, &p, &mut scratch);
            for (comp_id, comp) in p.iter().enumerate() {
                let sub = super::tests::induced_submodel(&m, comp);
                let sub_cfg = GibbsConfig {
                    seed: component_seed(chain_seed(cfg.seed, 0), comp_id),
                    ..cfg.clone()
                };
                let sub_labels: Vec<_> = comp.iter().map(|&c| label_mask[c]).collect();
                let sub_probs: Vec<_> = comp.iter().map(|&c| probs[c]).collect();
                let (ref_samples, ref_marginals, _) = super::tests::folded_reference(
                    &sub, &w, &sub_labels, &sub_probs, &sub_cfg,
                );
                for (t, s) in r.samples.iter().enumerate() {
                    prop_assert_eq!(
                        s.project(comp),
                        ref_samples[t].clone(),
                        "comp {} sample {}", comp_id, t
                    );
                }
                for (j, &c) in comp.iter().enumerate() {
                    prop_assert_eq!(r.marginals[c], ref_marginals[j]);
                }
            }
        }

        /// Incremental-vs-batch equivalence over *any* random split of a
        /// model into deltas: the grown model (warm scratch, the grown
        /// model's partition) produces a `run_scheduled` sample stream and
        /// marginals bit-identical to the one-shot build with fresh
        /// scratch, for one and for several chains. (The companion
        /// partition spec lives in `partition.rs`.)
        #[test]
        fn prop_grown_inference_equals_batch(
            seed in 0u64..60,
            n_chunks in 2usize..6,
            chains in 1usize..3,
        ) {
            use crate::graph::test_support as ts;
            let chunks = ts::random_growth_script(seed ^ 0xF00D, n_chunks);
            let batch = ts::build_batch(&chunks);
            let w = Weights::from_vec(
                (0..batch.feature_dim()).map(|i| 0.19 * i as f64 - 0.35).collect(),
            );
            let cfg = GibbsConfig {
                burn_in: 3, samples: 6, thin: 1, seed: seed ^ 0xBEEF, chains,
                ..Default::default()
            };

            let mut grown = ts::build_batch(&chunks[..1]);
            let mut scratch = GibbsScratch::new();
            {
                let n0 = grown.n_claims();
                GibbsSampler::new(&grown, cfg.clone()).run_scheduled(
                    &w, &vec![None; n0], &vec![0.5; n0], &Partition::of_model(&grown),
                    &mut scratch,
                );
            }
            for chunk in &chunks[1..] {
                let delta = ts::chunk_delta(&grown, chunk);
                grown.apply(delta).unwrap();
            }
            let partition = Partition::of_model(&grown);

            let n = batch.n_claims();
            let (labels, probs) = (vec![None; n], vec![0.5; n]);
            let r_grown = GibbsSampler::new(&grown, cfg.clone())
                .run_scheduled(&w, &labels, &probs, &partition, &mut scratch);
            let r_batch = GibbsSampler::new(&batch, cfg).run_scheduled(
                &w, &labels, &probs, &Partition::of_model(&batch), &mut GibbsScratch::new(),
            );
            prop_assert_eq!(r_grown.samples, r_batch.samples);
            prop_assert_eq!(r_grown.marginals, r_batch.marginals);
        }

        /// Lifecycle acceptance spec under proptest: random interleaved
        /// grow/retire scripts, then compaction — scheduled inference on
        /// the compacted model is bit-identical (modulo the remap) to the
        /// tombstoned model *and* to the one-shot survivors build.
        #[test]
        fn prop_retired_compacted_inference_is_bit_identical(
            seed in 0u64..40,
            n_ops in 2usize..7,
            chains in 1usize..3,
        ) {
            super::tests::lifecycle_inference_spec(seed ^ 0x51fe, n_ops, chains);
        }

        /// Bit-spec acceptance under proptest: on random graphs and label
        /// masks, the E-step under several forced layouts is bit-identical
        /// to the scalar bit spec.
        #[test]
        fn prop_scheduled_equals_scalar_spec(
            seed in 0u64..40,
            label_mask in proptest::collection::vec(proptest::option::of(any::<bool>()), 14),
            chains in 1usize..3,
        ) {
            let m = crate::graph::test_support::random_model(14, 6, 2, seed);
            let p = Partition::of_model(&m);
            let w = Weights::from_vec(
                (0..m.feature_dim()).map(|i| (i as f64) * 0.14 - 0.3).collect(),
            );
            let probs = vec![0.5; 14];
            let cfg = GibbsConfig {
                burn_in: 3, samples: 5, thin: 1, seed, chains, ..Default::default()
            };
            let sampler = GibbsSampler::new(&m, cfg.clone());
            let (samples, marginals, sweeps) =
                super::tests::folded_reference(&m, &w, &label_mask, &probs, &cfg);
            for groups in [1usize, 3] {
                let r = sampler.run_scheduled_forced(
                    &w, &label_mask, &probs, &p, &mut GibbsScratch::new(), groups,
                );
                prop_assert_eq!(&r.samples, &samples, "groups {}", groups);
                prop_assert_eq!(&r.marginals, &marginals, "groups {}", groups);
                prop_assert_eq!(r.sweeps, sweeps, "groups {}", groups);
            }
        }

        /// Scratch lifecycle spec under proptest: random interleaved
        /// grow/retire scripts applied to one model, an E-step after every
        /// op with a reused scratch bit-identical to fresh scratch, through
        /// the final compaction.
        #[test]
        fn prop_scheduled_lifecycle_reused_scratch(
            seed in 0u64..40,
            n_ops in 2usize..7,
        ) {
            super::tests::scratch_lifecycle_spec(seed ^ 0xC4A0, n_ops);
        }

        /// The production E-step equals its bit spec on random models and
        /// random label masks (single chain, arbitrary seeds).
        #[test]
        fn prop_fast_equals_reference(
            seed in 0u64..60,
            label_mask in proptest::collection::vec(proptest::option::of(any::<bool>()), 12),
        ) {
            let m = crate::graph::test_support::random_model(12, 5, 2, seed);
            let w = Weights::from_vec(
                (0..m.feature_dim()).map(|i| (i as f64) * 0.17 - 0.4).collect(),
            );
            let cfg = GibbsConfig {
                burn_in: 4, samples: 6, thin: 1, seed, chains: 1, ..Default::default()
            };
            let probs = vec![0.5; 12];
            let fast = super::tests::scheduled(&GibbsSampler::new(&m, cfg.clone()), &w, &label_mask, &probs);
            let (samples, marginals, _) =
                super::tests::folded_reference(&m, &w, &label_mask, &probs, &cfg);
            prop_assert_eq!(fast.samples, samples);
            prop_assert_eq!(fast.marginals, marginals);
        }
    }
}
