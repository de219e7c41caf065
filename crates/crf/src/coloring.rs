//! Deterministic greedy coloring of the claim-conflict graph.
//!
//! Two live claims **conflict** when they share a *live* source: flipping
//! one moves the source's credible count and thereby the other's
//! conditional, so a single-site Gibbs sweep must not resample them
//! concurrently. Claims of the same color never conflict, which is what
//! lets the chromatic schedule ([`crate::gibbs`], `docs/sampling.md`)
//! resample a whole color class in parallel inside one component.
//!
//! The assignment is the **canonical greedy coloring**: visit live claims
//! in ascending id order and give each the smallest color unused by its
//! already-colored (lower-id) live neighbours. This is a pure function of
//! the live conflict graph — no hashing, no RNG, no dependence on thread
//! count — so it can serve as part of the chromatic sampler's determinism
//! contract.
//!
//! # Lifecycle maintenance
//!
//! [`Coloring::sync`] keeps the assignment equal to the from-scratch
//! greedy coloring across the model lifecycle without recoloring the
//! world:
//!
//! * **Growth** (`apply`): new claims and the claims of every source a new
//!   clique touches are enqueued for recoloring.
//! * **Retirement** (`retire`): claims of newly dead sources and the live
//!   neighbours of newly dead claims are enqueued; dead claims drop to
//!   [`NO_COLOR`].
//! * **Compaction** (`compact`): colors are relocated through the
//!   published [`crate::graph::IdRemap`]. Conflicts are live-filtered and
//!   the remap preserves the relative order of survivors, so relocation
//!   alone reproduces the from-scratch coloring of the compacted model;
//!   growth in the gap (before or after the compaction) is then folded in
//!   as above. A retire in the same gap rebuilds: the tombstones the
//!   compaction dropped were never reflected here.
//!
//! Recoloring drains a sorted worklist in ascending id order, re-enqueuing
//! higher-id neighbours whenever a color changes. Changes only propagate
//! upward (a claim's greedy color depends only on lower-id neighbours), so
//! the drain terminates with exactly the from-scratch assignment — the
//! bit-identity the proptests at the bottom of this file pin down.

use crate::graph::{CrfModel, Since, SyncPoint, VarId};
use std::collections::BTreeSet;

/// Color slot of tombstoned (dead) claims: they are in no conflict with
/// anything and belong to no class.
pub const NO_COLOR: u32 = u32::MAX;

/// How [`Coloring::sync`] brought the assignment up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorRefresh {
    /// Colored from scratch (first use, unknown lineage, or a jump the
    /// incremental paths cannot relocate across).
    Rebuilt,
    /// Patched incrementally; `recolored` claims changed color (claims
    /// merely relocated by a compaction are not counted).
    Patched {
        /// Number of claims whose color changed during the worklist drain.
        recolored: usize,
    },
    /// The model was already in sync; nothing changed.
    Unchanged,
}

/// A maintained greedy coloring of one model's claim-conflict graph.
///
/// `colors[c]` is the color of claim `c` ([`NO_COLOR`] when tombstoned);
/// the live colors are dense from 0. Construction is `O(Σ deg)`;
/// [`Coloring::sync`] after a small edit is `O(touched)` plus whatever the
/// change actually propagates to.
#[derive(Debug, Clone, Default)]
pub struct Coloring {
    colors: Vec<u32>,
    /// The model state the assignment is synced to.
    synced: SyncPoint,
    /// Source-liveness snapshot at the last sync: retirement is detected
    /// by diffing it against the model (a retire op is allowed to touch
    /// sources and claims the caller never enumerates for us).
    src_live: Vec<bool>,
    /// Stamped scratch for the `mex` computation (no per-call clearing).
    mark: Vec<u64>,
    stamp: u64,
}

impl Coloring {
    /// An empty coloring synced to nothing; the first [`Coloring::sync`]
    /// rebuilds.
    pub fn new() -> Self {
        Coloring::default()
    }

    /// The greedy coloring of `model`, built from scratch.
    pub fn of_model(model: &CrfModel) -> Self {
        let mut c = Coloring::default();
        c.rebuild(model);
        c
    }

    /// Color of one claim.
    pub fn color(&self, claim: usize) -> u32 {
        self.colors[claim]
    }

    /// Per-claim colors ([`NO_COLOR`] for tombstoned claims), for the
    /// from-scratch specs.
    #[cfg(test)]
    pub(crate) fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Number of distinct colors in use (colors are dense from 0),
    /// counted on demand for the from-scratch specs.
    #[cfg(test)]
    pub(crate) fn n_colors(&self) -> usize {
        self.colors
            .iter()
            .filter(|&&c| c != NO_COLOR)
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Bring the assignment up to date with `model`, reproducing exactly
    /// the from-scratch greedy coloring (see the module docs for the
    /// incremental strategy; [`CrfModel::since`] picks the path).
    pub fn sync(&mut self, model: &CrfModel) -> ColorRefresh {
        let (first_new_claim, first_new_clique, retired) = match model.since(self.synced) {
            Since::Unchanged => return ColorRefresh::Unchanged,
            Since::Rebuild | Since::Relocate { retired: true, .. } => {
                self.rebuild(model);
                return ColorRefresh::Rebuilt;
            }
            Since::Patch {
                first_new_claim,
                first_new_clique,
                retired,
            } => (first_new_claim, first_new_clique, retired),
            Since::Relocate {
                remap,
                first_new_claim,
                first_new_clique,
                ..
            } => {
                let mut relocated = vec![NO_COLOR; remap.n_new_claims()];
                for old in 0..self.colors.len() {
                    if let Some(new) = remap.claim(VarId(old as u32)) {
                        relocated[new.idx()] = self.colors[old];
                    }
                }
                self.colors = relocated;
                (first_new_claim, first_new_clique, false)
            }
        };

        let mut work: BTreeSet<u32> = BTreeSet::new();

        // Retirement: diff the source-liveness snapshot, then scan for
        // claims that died. O(n) scans, but retire ops are rare next to
        // sweeps.
        if retired {
            let scanned = self.src_live.len().min(model.n_sources());
            for s in 0..scanned as u32 {
                if self.src_live[s as usize] && !model.source_live(s as usize) {
                    for &c in model.claims_of_source(s) {
                        if model.claim_live(c as usize) {
                            work.insert(c);
                        }
                    }
                }
            }
            for c in 0..self.colors.len().min(model.n_claims()) {
                if self.colors[c] != NO_COLOR && !model.claim_live(c) {
                    self.colors[c] = NO_COLOR;
                    // Only higher-id neighbours can see the freed color;
                    // a lower id's greedy color never depends on `c`.
                    for &s in model.sources_of_claim(VarId(c as u32)) {
                        if !model.source_live(s as usize) {
                            continue;
                        }
                        for &nb in model.claims_of_source(s) {
                            if nb as usize > c && model.claim_live(nb as usize) {
                                work.insert(nb);
                            }
                        }
                    }
                }
            }
        }

        // Growth: color the new claims, and recolor every claim of a
        // source a new clique touched (its conflict set may have grown).
        let n = model.n_claims();
        self.colors.resize(n, NO_COLOR);
        for c in first_new_claim..n {
            if model.claim_live(c) {
                work.insert(c as u32);
            }
        }
        for cl in &model.cliques()[first_new_clique..] {
            if !model.source_live(cl.source as usize) {
                continue;
            }
            if model.claim_live(cl.claim.idx()) {
                work.insert(cl.claim.0);
            }
            for &nb in model.claims_of_source(cl.source) {
                if model.claim_live(nb as usize) {
                    work.insert(nb);
                }
            }
        }

        let recolored = self.drain(model, &mut work);
        self.sync_counters(model);
        ColorRefresh::Patched { recolored }
    }

    /// Drain the worklist in ascending id order, recoloring each claim
    /// against the current colors of its lower-id live neighbours and
    /// re-enqueuing higher-id neighbours on change.
    fn drain(&mut self, model: &CrfModel, work: &mut BTreeSet<u32>) -> usize {
        self.ensure_mark(model.n_claims());
        let mut recolored = 0usize;
        while let Some(c) = work.pop_first() {
            let c = c as usize;
            if !model.claim_live(c) {
                self.colors[c] = NO_COLOR;
                continue;
            }
            let color = self.greedy_color(model, c);
            if color == self.colors[c] {
                continue;
            }
            self.colors[c] = color;
            recolored += 1;
            for &s in model.sources_of_claim(VarId(c as u32)) {
                if !model.source_live(s as usize) {
                    continue;
                }
                for &nb in model.claims_of_source(s) {
                    if nb as usize > c && model.claim_live(nb as usize) {
                        work.insert(nb);
                    }
                }
            }
        }
        recolored
    }

    /// The greedy (mex) color of `c`: smallest color not used by a
    /// lower-id live claim sharing a live source.
    fn greedy_color(&mut self, model: &CrfModel, c: usize) -> u32 {
        self.stamp += 1;
        let stamp = self.stamp;
        for &s in model.sources_of_claim(VarId(c as u32)) {
            if !model.source_live(s as usize) {
                continue;
            }
            for &nb in model.claims_of_source(s) {
                let nb = nb as usize;
                if nb >= c {
                    break; // neighbour lists are ascending
                }
                if !model.claim_live(nb) {
                    continue;
                }
                let col = self.colors[nb];
                if col != NO_COLOR {
                    self.mark[col as usize] = stamp;
                }
            }
        }
        let mut color = 0u32;
        while self.mark[color as usize] == stamp {
            color += 1;
        }
        color
    }

    fn rebuild(&mut self, model: &CrfModel) {
        let n = model.n_claims();
        self.colors.clear();
        self.colors.resize(n, NO_COLOR);
        self.ensure_mark(n);
        for c in 0..n {
            if model.claim_live(c) {
                self.colors[c] = self.greedy_color(model, c);
            }
        }
        self.sync_counters(model);
    }

    fn sync_counters(&mut self, model: &CrfModel) {
        self.synced = model.sync_point();
        self.src_live.clear();
        self.src_live
            .extend((0..model.n_sources()).map(|s| model.source_live(s)));
    }

    /// A color can never exceed the claim count, so `n + 1` mark slots
    /// cover every possible mex probe.
    fn ensure_mark(&mut self, n: usize) {
        if self.mark.len() < n + 1 {
            self.mark.resize(n + 1, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::test_support as ts;
    use crate::graph::{CrfModel, ModelDelta, Stance};

    /// Invariant check: a proper coloring of the live conflict graph with
    /// dense colors, dead claims at `NO_COLOR`.
    fn assert_proper(model: &CrfModel, coloring: &Coloring) {
        let colors = coloring.colors();
        assert_eq!(colors.len(), model.n_claims());
        let mut seen = vec![false; coloring.n_colors()];
        for c in 0..model.n_claims() {
            if !model.claim_live(c) {
                assert_eq!(colors[c], NO_COLOR, "dead claim {c} holds a color");
                continue;
            }
            assert!(
                (colors[c] as usize) < coloring.n_colors(),
                "claim {c} color {} out of range",
                colors[c]
            );
            seen[colors[c] as usize] = true;
            for &s in model.sources_of_claim(VarId(c as u32)) {
                if !model.source_live(s as usize) {
                    continue;
                }
                for &nb in model.claims_of_source(s) {
                    let nb = nb as usize;
                    if nb != c && model.claim_live(nb) {
                        assert_ne!(
                            colors[c], colors[nb],
                            "claims {c} and {nb} share live source {s} and color"
                        );
                    }
                }
            }
        }
        // Greedy colors are dense: every color below the max is used.
        assert!(seen.iter().all(|&s| s), "colors are not dense: {seen:?}");
    }

    #[test]
    fn single_source_claims_get_distinct_colors() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.0]).unwrap();
        for _ in 0..4 {
            let c = b.add_claim();
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let col = Coloring::of_model(&m);
        assert_eq!(col.colors(), &[0, 1, 2, 3]);
        assert_eq!(col.n_colors(), 4);
        assert_proper(&m, &col);
    }

    #[test]
    fn disjoint_claims_share_color_zero() {
        let mut b = ModelDelta::new(1, 1);
        for _ in 0..3 {
            let s = b.add_source(&[0.0]).unwrap();
            let c = b.add_claim();
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let col = Coloring::of_model(&m);
        assert_eq!(col.colors(), &[0, 0, 0]);
        assert_eq!(col.n_colors(), 1);
    }

    #[test]
    fn sync_is_unchanged_when_model_is_unchanged() {
        let m = ts::random_model(12, 4, 2, 3);
        let mut col = Coloring::of_model(&m);
        assert_eq!(col.sync(&m), ColorRefresh::Unchanged);
    }

    #[test]
    fn sync_rebuilds_on_a_different_model() {
        let a = ts::random_model(10, 3, 2, 1);
        let b = ts::random_model(10, 3, 2, 2);
        let mut col = Coloring::of_model(&a);
        assert_eq!(col.sync(&b), ColorRefresh::Rebuilt);
        assert_proper(&b, &col);
        assert_eq!(col.colors(), Coloring::of_model(&b).colors());
    }

    /// Incremental growth tracks the from-scratch coloring bit for bit.
    #[test]
    fn grown_coloring_matches_from_scratch() {
        for seed in 0..12u64 {
            let chunks = ts::random_growth_script(seed.wrapping_mul(77) ^ 0xC01, 4);
            let mut grown = ts::build_batch(&chunks[..1]);
            let mut col = Coloring::of_model(&grown);
            for chunk in &chunks[1..] {
                let delta = ts::chunk_delta(&grown, chunk);
                grown.apply(delta).unwrap();
                let refresh = col.sync(&grown);
                assert!(
                    matches!(refresh, ColorRefresh::Patched { .. }),
                    "seed {seed}: growth must patch, got {refresh:?}"
                );
                let scratch = Coloring::of_model(&grown);
                assert_eq!(col.colors(), scratch.colors(), "seed {seed}");
                assert_eq!(col.n_colors(), scratch.n_colors(), "seed {seed}");
                assert_proper(&grown, &col);
            }
        }
    }

    /// The full lifecycle spec: random interleaved grow/retire scripts,
    /// synced step by step, always bit-identical to from-scratch; then a
    /// compaction, relocated and still bit-identical.
    pub(super) fn lifecycle_coloring_spec(seed: u64, n_ops: usize) {
        let ops = ts::random_lifecycle_script(seed, n_ops);
        let (mut model, _sim) = ts::replay_lifecycle(&ops[..1]);
        let mut col = Coloring::of_model(&model);
        for i in 1..ops.len() {
            let (next, _) = ts::replay_lifecycle(&ops[..=i]);
            model = next;
            col.sync(&model);
            let scratch = Coloring::of_model(&model);
            assert_eq!(col.colors(), scratch.colors(), "seed {seed} op {i}");
            assert_proper(&model, &col);
        }
        if model.has_tombstones() {
            let remap = model.compact().unwrap();
            assert!(!remap.is_identity());
            let refresh = col.sync(&model);
            assert!(
                matches!(refresh, ColorRefresh::Patched { .. }),
                "seed {seed}: compaction must relocate, got {refresh:?}"
            );
            let scratch = Coloring::of_model(&model);
            assert_eq!(col.colors(), scratch.colors(), "seed {seed} compacted");
            assert_proper(&model, &col);
        }
    }

    #[test]
    fn lifecycle_coloring_matches_from_scratch() {
        for seed in 0..10u64 {
            lifecycle_coloring_spec(seed.wrapping_mul(131) ^ 0xC0105, 2 + (seed as usize % 5));
        }
    }

    /// Two compactions between syncs discard the only remap — must rebuild.
    #[test]
    fn double_compaction_rebuilds() {
        let ops = ts::random_lifecycle_script(0xDD, 6);
        let (mut model, _) = ts::replay_lifecycle(&ops);
        let mut col = Coloring::of_model(&model);
        let mut compacted = 0;
        for _ in 0..2 {
            if model.has_tombstones() {
                model.compact().unwrap();
                compacted += 1;
            }
        }
        if compacted == 2 {
            assert_eq!(col.sync(&model), ColorRefresh::Rebuilt);
        } else {
            col.sync(&model);
        }
        assert_eq!(col.colors(), Coloring::of_model(&model).colors());
        assert_proper(&model, &col);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::lifecycle_coloring_spec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Acceptance spec: across random lifecycle scripts the
        /// incrementally synced coloring is bit-identical to from-scratch
        /// and no two same-color live claims ever share a live source
        /// (`assert_proper` inside the spec checks both).
        #[test]
        fn prop_lifecycle_coloring(seed in 0u64..50, n_ops in 2usize..7) {
            lifecycle_coloring_spec(seed ^ 0xC0C0, n_ops);
        }
    }
}
