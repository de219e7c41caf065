//! Connected-component partitioning of the claim graph (§5.1).
//!
//! Not all sources share the same claims: the CRF decomposes into
//! independent sub-models, one per connected component of the graph whose
//! nodes are claims and whose edges join claims sharing a source (the only
//! coupling channel in the model — document variables are private to one
//! clique). The paper exploits this for efficiency: entropy, Gibbs sampling,
//! and information-gain computations can each be confined to the component
//! touched by a candidate claim.

use crate::graph::{CrfModel, IdRemap, Since, VarId};

/// Disjoint-set union (union–find) with path halving and union by size.
#[derive(Debug, Clone)]
pub struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // Path halving: point to the grandparent.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Grow to `n` elements; the new elements start as singletons.
    pub fn extend_to(&mut self, n: usize) {
        let old = self.parent.len();
        self.parent.extend(old as u32..n as u32);
        self.size.resize(n.max(old), 1);
    }
}

/// A partition of the **live** claim variables into connected components.
///
/// The partition keeps its union–find structure, so it can be maintained
/// **incrementally** across the whole model lifecycle: [`Partition::grow`]
/// unions only the new edges of a [`crate::graph::CrfModel::apply`] delta,
/// [`Partition::update`] additionally resets and recomputes only the
/// components containing claims a [`crate::graph::CrfModel::retire`]
/// tombstoned, and [`Partition::compact`] renumbers through the
/// [`IdRemap`] a compaction published — never re-scanning the whole edge
/// set. Component numbering is canonical (ascending in each component's
/// lowest live claim id), so a maintained partition is equal —
/// `component_of` and component listings — to [`Partition::of_model`] on
/// the current model. Dead claims belong to no component and must not be
/// asked for one.
///
/// # Representation: stable slots, permuted ranks
///
/// Membership lists live in **slots** whose ids are stable across edits;
/// the canonical numbering is a separate rank ↔ slot permutation. An
/// update therefore rebuilds membership only for the **dirty** components
/// (those containing a claim the edit touched — a new edge endpoint, a
/// retired claim, a retired source's claim) and repairs the numbering
/// with an integer merge over component ids, never rewriting the
/// per-claim labels of clean components. Tiny-edit maintenance costs
/// O(Σ degree(touched sources) + Σ |dirty components| + #components)
/// instead of the former O(n_claims) full relabel pass per edit.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Slot id per claim (`u32::MAX` for tombstoned claims).
    component_of: Vec<u32>,
    /// Claim indices per slot, sorted ascending; an empty vector is a free
    /// slot awaiting reuse.
    slots: Vec<Vec<usize>>,
    /// Free slot ids (their member vectors are empty), unordered between
    /// updates; sorted before reuse so assignment is deterministic.
    free: Vec<u32>,
    /// Canonical component index → slot id, ordered by each slot's lowest
    /// member.
    rank_to_slot: Vec<u32>,
    /// Slot id → canonical component index (`u32::MAX` for free slots).
    slot_rank: Vec<u32>,
    /// Claims [`Partition::compact`] relocated into the id space without a
    /// known component: grown after the snapshot this partition was synced
    /// to but before the compaction, so the remap covers them while no slot
    /// does. The next [`Partition::update`] folds them in alongside the
    /// newly grown suffix.
    pending: Vec<u32>,
    /// The union–find state the components were derived from; kept so
    /// growth unions only new edges.
    dsu: Dsu,
}

/// Sentinel component index of a tombstoned claim.
const NO_COMPONENT: u32 = u32::MAX;

impl Partition {
    /// Compute the connected components of `model`'s live claim graph.
    pub fn of_model(model: &CrfModel) -> Self {
        let n = model.n_claims();
        let mut dsu = Dsu::new(n);
        for s in 0..model.n_sources() as u32 {
            if !model.source_live(s as usize) {
                continue; // a dead source's cliques are all dead: no coupling
            }
            union_live_row(&mut dsu, model, s);
        }
        let mut p = Partition {
            component_of: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            rank_to_slot: Vec::new(),
            slot_rank: Vec::new(),
            pending: Vec::new(),
            dsu,
        };
        p.relabel(model);
        p
    }

    /// Recompute every component from the union–find state — the
    /// from-scratch fallback behind [`Partition::of_model`]. Slots come out
    /// in canonical order (identity permutation): components are numbered
    /// in order of their lowest live claim id, which depends only on the
    /// sets — never on union order. Dead claims get the [`NO_COMPONENT`]
    /// sentinel.
    fn relabel(&mut self, model: &CrfModel) {
        let n = model.n_claims();
        // Roots are claim ids, so a flat vector beats a hash map.
        let mut root_to_slot = vec![NO_COMPONENT; n];
        self.component_of.clear();
        self.component_of.resize(n, NO_COMPONENT);
        self.slots.clear();
        self.free.clear();
        self.pending.clear();
        for c in 0..n {
            if !model.claim_live(c) {
                continue;
            }
            let r = self.dsu.find(c);
            let slot = if root_to_slot[r] == NO_COMPONENT {
                let next = self.slots.len() as u32;
                root_to_slot[r] = next;
                self.slots.push(Vec::new());
                next
            } else {
                root_to_slot[r]
            };
            self.component_of[c] = slot;
            self.slots[slot as usize].push(c);
        }
        self.rank_to_slot = (0..self.slots.len() as u32).collect();
        self.slot_rank = (0..self.slots.len() as u32).collect();
    }

    /// Maintain the partition after `model` grew: union only the edges of
    /// the cliques appended since `first_new_clique` (the clique count the
    /// partition was last synced to), then relabel. Equivalent to — and
    /// produces exactly the same numbering as — recomputing
    /// [`Partition::of_model`] on the grown model, at the cost of the new
    /// edges plus one relabel pass instead of the whole edge set.
    pub fn grow(&mut self, model: &CrfModel, first_new_clique: usize) {
        self.update(model, first_new_clique, &[]);
    }

    /// Maintain the partition after `model` grew and/or retired entities:
    /// `affected` lists claims whose connectivity a retirement may have
    /// changed — the retired claims themselves plus, for every retired
    /// *source*, the claims of that source (its cliques died with it). The
    /// listed claims' `component_of` entries must still reflect the last
    /// sync.
    ///
    /// Growth unions only the appended cliques' edges. Retirement cannot be
    /// un-unioned, so the components containing affected claims — and only
    /// those — are reset and recomputed from their own sources' rows
    /// (cost: Σ degree(affected components)), which splits any component a
    /// retired bridge claim or source was holding together. Numbering stays
    /// canonical: the result equals [`Partition::of_model`] on the current
    /// model.
    pub fn update(&mut self, model: &CrfModel, first_new_clique: usize, affected: &[u32]) {
        let n = model.n_claims();
        let old_n = self.component_of.len();
        self.dsu.extend_to(n);
        self.component_of.resize(n, NO_COMPONENT);

        // All claims of one source are mutually connected. For every source
        // a new clique touches, chain its (sorted, deduplicated, live) claim
        // row with adjacent-pair unions: members that were already connected
        // stay connected, and every member the delta added is linked
        // through its neighbours — including old members joining through a
        // claim lower than the whole previous row, which a union against
        // `row[0]` alone would miss. Cost: Σ degree(touched sources).
        let mut touched: Vec<u32> = model.cliques()[first_new_clique..]
            .iter()
            .map(|cl| cl.source)
            .collect();

        // Slots whose membership this edit may change; seeded with the
        // retirement-affected components, extended below with every slot a
        // touched source's row reaches (a union can only merge sets through
        // row members, so any component that gains, loses, or exchanges
        // members appears here).
        let mut dirty: Vec<u32> = affected
            .iter()
            // Claims beyond the last sync (grown and possibly retired in
            // the same revision gap) belong to no known component; their
            // connectivity comes entirely from the growth unions below.
            .filter(|&&c| (c as usize) < old_n)
            .map(|&c| self.component_of[c as usize])
            .filter(|&slot| slot != NO_COMPONENT)
            .collect();
        dirty.sort_unstable();
        dirty.dedup();

        if !dirty.is_empty() {
            for &slot in &dirty {
                for &m in &self.slots[slot as usize] {
                    // Reset every member (dead ones become permanent
                    // singletons; live ones are re-unioned below).
                    self.dsu.parent[m] = m as u32;
                    self.dsu.size[m] = 1;
                }
            }
            // Re-union the affected components from their live members'
            // sources; rows re-chain only live claims, so a retired bridge
            // splits its component.
            for &slot in &dirty {
                for &m in &self.slots[slot as usize] {
                    if model.claim_live(m) {
                        touched.extend_from_slice(model.sources_of_claim(VarId(m as u32)));
                    }
                }
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for &s in &touched {
            if model.source_live(s as usize) {
                // Every slot a touched row reaches is dirty: its members
                // may be unioned into another set right below.
                for &c in model.claims_of_source(s) {
                    if (c as usize) < old_n {
                        let slot = self.component_of[c as usize];
                        if slot != NO_COMPONENT {
                            dirty.push(slot);
                        }
                    }
                }
                union_live_row(&mut self.dsu, model, s);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        self.renumber_dirty(model, &dirty, old_n);
    }

    /// Rebuild membership for the `dirty` slots (plus the claims grown
    /// since `old_n`) from the settled union–find state and repair the
    /// canonical numbering — the incremental replacement for a full
    /// [`Partition::relabel`]. Clean components keep their slots, member
    /// lists, and per-claim labels untouched; only the rank permutation is
    /// re-merged (their relative order never changes — a clean component's
    /// lowest member can move only through an edit that would have marked
    /// it dirty).
    fn renumber_dirty(&mut self, model: &CrfModel, dirty: &[u32], old_n: usize) {
        let n = model.n_claims();
        // Claims whose grouping may have changed: every member of a dirty
        // slot plus the new claims. Sets can only merge through touched
        // rows (whose slots are dirty), so clean components are complete —
        // no group below ever shares a root with a clean slot.
        let mut moved: Vec<(usize, usize)> = Vec::new(); // (root, claim)
        for &slot in dirty {
            for i in 0..self.slots[slot as usize].len() {
                let c = self.slots[slot as usize][i];
                self.component_of[c] = NO_COMPONENT;
                if model.claim_live(c) {
                    let r = self.dsu.find(c);
                    moved.push((r, c));
                }
            }
        }
        for c in old_n..n {
            if model.claim_live(c) {
                let r = self.dsu.find(c);
                moved.push((r, c));
            }
        }
        // Claims a compaction relocated without a component (grown after
        // the last sync, before the compaction): fold them in exactly like
        // the grown suffix. They are `< old_n` and slotless, so neither
        // collection above sees them.
        for c in std::mem::take(&mut self.pending) {
            let c = c as usize;
            if model.claim_live(c) && self.component_of[c] == NO_COMPONENT {
                let r = self.dsu.find(c);
                moved.push((r, c));
            }
        }
        if moved.is_empty() && dirty.is_empty() {
            return;
        }
        // Group by root; within a group claims come out ascending, so each
        // member list is born sorted and its head is the component minimum.
        moved.sort_unstable();

        // Dissolve the dirty slots and recycle their ids (smallest first,
        // for determinism) into the regrouped components.
        for &slot in dirty {
            self.slots[slot as usize].clear();
            self.slot_rank[slot as usize] = NO_COMPONENT;
            self.free.push(slot);
        }
        self.free.sort_unstable();
        let mut reused = 0usize;
        let mut fresh: Vec<u32> = Vec::new(); // slots of the regrouped components
        let mut i = 0;
        while i < moved.len() {
            let root = moved[i].0;
            let slot = if reused < self.free.len() {
                let s = self.free[reused];
                reused += 1;
                s
            } else {
                self.slots.push(Vec::new());
                self.slot_rank.push(NO_COMPONENT);
                (self.slots.len() - 1) as u32
            };
            while i < moved.len() && moved[i].0 == root {
                let c = moved[i].1;
                self.slots[slot as usize].push(c);
                self.component_of[c] = slot;
                i += 1;
            }
            fresh.push(slot);
        }
        self.free.drain(..reused);

        // Canonical numbering: merge the surviving ranks (their order by
        // lowest member is unchanged) with the regrouped components,
        // ordered by lowest member. An integer merge over component ids —
        // no per-claim work.
        fresh.sort_unstable_by_key(|&s| self.slots[s as usize][0]);
        let old_order = std::mem::take(&mut self.rank_to_slot);
        let mut merged: Vec<u32> = Vec::with_capacity(old_order.len() + fresh.len());
        let mut a = old_order
            .into_iter()
            .filter(|s| dirty.binary_search(s).is_err())
            .peekable();
        let mut b = fresh.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => {
                    if self.slots[x as usize][0] < self.slots[y as usize][0] {
                        merged.push(x);
                        a.next();
                    } else {
                        merged.push(y);
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.push(a.next().expect("peeked"));
                }
                (None, Some(_)) => {
                    merged.push(b.next().expect("peeked"));
                }
                (None, None) => break,
            }
        }
        self.rank_to_slot = merged;
        for (rank, &slot) in self.rank_to_slot.iter().enumerate() {
            self.slot_rank[slot as usize] = rank as u32;
        }
    }

    /// Relocate the partition through the [`IdRemap`] a
    /// [`crate::graph::CrfModel::compact`] published. The partition must be
    /// synced to the immediate pre-compaction state (tombstones already
    /// reflected via [`Partition::update`]); survivors keep their relative
    /// order under the remap, so the canonical numbering is preserved and
    /// the result equals [`Partition::of_model`] on the compacted model —
    /// at relocation cost, without re-scanning any edges.
    pub fn compact(&mut self, remap: &IdRemap) {
        let n_new = remap.n_new_claims();
        let mut new_slots: Vec<Vec<usize>> = Vec::with_capacity(self.rank_to_slot.len());
        for &slot in &self.rank_to_slot {
            let mapped: Vec<usize> = self.slots[slot as usize]
                .iter()
                .filter_map(|&c| remap.claim(VarId(c as u32)).map(|v| v.idx()))
                .collect();
            if !mapped.is_empty() {
                new_slots.push(mapped);
            }
        }
        let mut dsu = Dsu::new(n_new);
        let mut component_of = vec![NO_COMPONENT; n_new];
        for (i, comp) in new_slots.iter().enumerate() {
            for w in comp.windows(2) {
                dsu.union(w[0], w[1]);
            }
            for &c in comp {
                component_of[c] = i as u32;
            }
        }
        let k = new_slots.len() as u32;
        // Every post-compaction id is live (compaction drops tombstones);
        // ids no slot claimed are survivors grown since the last sync —
        // queue them for the next `update`.
        self.pending = component_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot == NO_COMPONENT)
            .map(|(c, _)| c as u32)
            .collect();
        self.slots = new_slots;
        self.component_of = component_of;
        self.free.clear();
        self.rank_to_slot = (0..k).collect();
        self.slot_rank = (0..k).collect();
        self.dsu = dsu;
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.rank_to_slot.len()
    }

    /// Number of claims the partition covers (the model's claim count).
    pub fn n_claims(&self) -> usize {
        self.component_of.len()
    }

    /// Whether there are no components (empty model).
    pub fn is_empty(&self) -> bool {
        self.rank_to_slot.is_empty()
    }

    /// Index of the component containing `claim`. Must not be asked for a
    /// tombstoned claim (dead claims belong to no component).
    pub fn component_of(&self, claim: VarId) -> usize {
        let slot = self.component_of[claim.idx()];
        debug_assert_ne!(
            slot,
            NO_COMPONENT,
            "claim {} is retired and belongs to no component",
            claim.idx()
        );
        self.slot_rank[slot as usize] as usize
    }

    /// The claims of component `i`, ascending.
    pub fn component(&self, i: usize) -> &[usize] {
        &self.slots[self.rank_to_slot[i] as usize]
    }

    /// Iterate over all components in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.rank_to_slot
            .iter()
            .map(|&s| self.slots[s as usize].as_slice())
    }

    /// Size of the largest component.
    pub fn max_component_size(&self) -> usize {
        self.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Catch a partition synced to `old` up with `new` — a later state of
    /// the **same lineage** — patching instead of rebuilding across the
    /// whole lifecycle, as [`CrfModel::since`] decides:
    ///
    /// * **patch** (growth / retirement, no compaction) — derives the
    ///   affected claims from the liveness diff and calls
    ///   [`Partition::update`];
    /// * **relocate** (one compaction) — marks the components broken by
    ///   entities the compaction dropped, relocates through the published
    ///   [`IdRemap`] ([`Partition::compact`]), then folds in the cliques
    ///   grown past the old snapshot plus any post-compaction tombstones;
    /// * **rebuild** (two compactions, another lineage, a divergent
    ///   clone) — a from-scratch [`Partition::of_model`].
    ///
    /// The caller must pass the exact snapshot (`old`) this partition was
    /// last synced to.
    pub fn sync_lineage(&mut self, old: &CrfModel, new: &CrfModel) {
        let (remap, first_new_clique) = match new.since(old.sync_point()) {
            Since::Unchanged => return,
            Since::Rebuild => {
                *self = Partition::of_model(new);
                return;
            }
            Since::Patch {
                first_new_clique,
                retired,
                ..
            } => {
                let mut affected: Vec<u32> = Vec::new();
                if retired {
                    for c in 0..old.n_claims() {
                        if old.claim_live(c) && !new.claim_live(c) {
                            affected.push(c as u32);
                        }
                    }
                    for s in 0..old.n_sources() {
                        if old.source_live(s) && !new.source_live(s) {
                            affected.extend_from_slice(new.claims_of_source(s as u32));
                        }
                    }
                }
                self.update(new, first_new_clique, &affected);
                return;
            }
            Since::Relocate {
                remap,
                first_new_clique,
                ..
            } => (remap, first_new_clique),
        };
        // Components broken by entities the compaction dropped: their
        // surviving co-members (in new ids) are the markers `update`
        // recomputes from.
        let mut broken: Vec<u32> = Vec::new();
        let mark_old_claim = |part: &Partition, c: usize, out: &mut Vec<u32>| {
            if c < part.n_claims() && old.claim_live(c) {
                let comp = part.component_of(VarId(c as u32));
                for &m in part.component(comp) {
                    if let Some(nm) = remap.claim(VarId(m as u32)) {
                        out.push(nm.0);
                    }
                }
            }
        };
        for c in 0..old.n_claims() {
            if old.claim_live(c) && remap.claim(VarId(c as u32)).is_none() {
                mark_old_claim(self, c, &mut broken);
            }
        }
        for s in 0..old.n_sources() {
            if old.source_live(s) && remap.source(s as u32).is_none() {
                for &c in old.claims_of_source(s as u32) {
                    mark_old_claim(self, c as usize, &mut broken);
                }
            }
        }
        self.compact(remap);
        // Post-compaction retires break components too.
        for c in 0..new.n_claims() {
            if !new.claim_live(c) {
                broken.push(c as u32);
            }
        }
        for s in 0..new.n_sources() {
            if !new.source_live(s) {
                broken.extend_from_slice(new.claims_of_source(s as u32));
            }
        }
        broken.sort_unstable();
        broken.dedup();
        // Growth since the old snapshot is a suffix in new-id space (the
        // remap preserves order): fold in the cliques this partition never
        // saw.
        self.update(new, first_new_clique, &broken);
    }
}

/// Chain the live claims of `source`'s (sorted, deduplicated) row with
/// adjacent-pair unions — the shared union kernel of [`Partition::of_model`]
/// and [`Partition::update`]. Skipping dead claims is what keeps a retired
/// bridge claim from reconnecting the parts it used to join.
fn union_live_row(dsu: &mut Dsu, model: &CrfModel, source: u32) {
    let row = model.claims_of_source(source);
    let mut prev: Option<usize> = None;
    for &c in row {
        let c = c as usize;
        if !model.claim_live(c) {
            continue;
        }
        if let Some(p) = prev {
            dsu.union(p, c);
        }
        prev = Some(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, Stance};
    use proptest::prelude::*;

    #[test]
    fn dsu_union_find_basics() {
        let mut d = Dsu::new(5);
        assert_ne!(d.find(0), d.find(1));
        assert!(d.union(0, 1));
        assert!(!d.union(0, 1), "second union of same pair is a no-op");
        assert_eq!(d.find(0), d.find(1));
        assert_eq!(d.set_size(0), 2);
        d.union(2, 3);
        d.union(1, 3);
        assert_eq!(d.set_size(4), 1);
        assert_eq!(d.set_size(2), 4);
    }

    /// Two sources, each with its own pair of claims -> two components.
    #[test]
    fn partition_separates_independent_sources() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let claims: Vec<_> = (0..4).map(|_| b.add_claim()).collect();
        for (i, &c) in claims.iter().enumerate() {
            let d = b.add_document(&[0.0]).unwrap();
            let s = if i < 2 { s0 } else { s1 };
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 2);
        assert_eq!(p.component_of(VarId(0)), p.component_of(VarId(1)));
        assert_eq!(p.component_of(VarId(2)), p.component_of(VarId(3)));
        assert_ne!(p.component_of(VarId(0)), p.component_of(VarId(2)));
        assert_eq!(p.max_component_size(), 2);
    }

    /// A bridging claim shared by both sources merges everything.
    #[test]
    fn partition_merges_via_shared_claim() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        let bridge = b.add_claim();
        for (c, s) in [(c0, s0), (c1, s1), (bridge, s0), (bridge, s1)] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 1);
        assert_eq!(p.component(0), &[0, 1, 2]);
    }

    /// A delta whose new claim bridges two previously separate components
    /// merges them under `grow`, with canonical renumbering.
    #[test]
    fn grow_merges_components_via_bridging_claim() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        for (c, s) in [(c0, s0), (c1, s1)] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let mut m = CrfModel::build(b).unwrap();
        let mut p = Partition::of_model(&m);
        assert_eq!(p.len(), 2);

        let mut delta = crate::graph::ModelDelta::for_model(&m);
        let bridge = delta.add_claim();
        for s in [s0, s1] {
            let d = delta.add_document(&[0.0]).unwrap();
            delta.add_clique(bridge, d, s, Stance::Support);
        }
        let first_new = m.cliques().len();
        m.apply(delta).unwrap();
        p.grow(&m, first_new);
        assert_eq!(p.len(), 1);
        assert_eq!(p.component(0), &[0, 1, 2]);
        assert_eq!(p.component_of(VarId(2)), 0);
        assert_eq!(p.max_component_size(), 3);
    }

    /// A delta touching nothing shared leaves old components intact and
    /// appends new singletons/components in claim order.
    #[test]
    fn grow_appends_independent_component() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let d = b.add_document(&[0.0]).unwrap();
        b.add_clique(c0, d, s0, Stance::Support);
        let mut m = CrfModel::build(b).unwrap();
        let mut p = Partition::of_model(&m);

        let mut delta = crate::graph::ModelDelta::for_model(&m);
        let s = delta.add_source(&[1.0]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[1.0]).unwrap();
        delta.add_clique(c, d, s, Stance::Refute);
        let first_new = m.cliques().len();
        m.apply(delta).unwrap();
        p.grow(&m, first_new);
        assert_eq!(p.len(), 2);
        assert_eq!(p.component(0), &[0]);
        assert_eq!(p.component(1), &[1]);
    }

    /// Retiring the bridge claim splits its component back into two, with
    /// canonical renumbering; compacting renumbers without re-merging.
    #[test]
    fn retiring_bridge_splits_component() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        let bridge = b.add_claim();
        for (c, s) in [(c0, s0), (c1, s1), (bridge, s0), (bridge, s1)] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let mut m = CrfModel::build(b).unwrap();
        let mut p = Partition::of_model(&m);
        assert_eq!(p.len(), 1);

        let mut set = crate::graph::RetireSet::for_model(&m);
        set.retire_claim(bridge);
        m.retire(set).unwrap();
        p.update(&m, m.cliques().len(), &[bridge.0]);
        assert_eq!(p.len(), 2, "retired bridge must split the component");
        assert_eq!(p.component(0), &[0]);
        assert_eq!(p.component(1), &[1]);
        assert_ne!(p.component_of(c0), p.component_of(c1));

        let remap = m.compact().unwrap();
        p.compact(&remap);
        let fresh = Partition::of_model(&m);
        assert_eq!(p.len(), fresh.len());
        for i in 0..p.len() {
            assert_eq!(p.component(i), fresh.component(i));
        }
        assert_eq!(p.n_claims(), 2);
    }

    /// A retired *source* can split a component too (its cliques die).
    #[test]
    fn retiring_source_splits_component() {
        let mut b = ModelDelta::new(1, 1);
        let s_bridge = b.add_source(&[0.0]).unwrap();
        let s0 = b.add_source(&[0.0]).unwrap();
        let s1 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        for (c, s) in [(c0, s0), (c1, s1), (c0, s_bridge), (c1, s_bridge)] {
            let d = b.add_document(&[0.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let mut m = CrfModel::build(b).unwrap();
        let mut p = Partition::of_model(&m);
        assert_eq!(p.len(), 1);
        let mut set = crate::graph::RetireSet::for_model(&m);
        set.retire_source(s_bridge);
        m.retire(set).unwrap();
        // No claims died, but the affected component must still be
        // recomputed: pass the claims of the retired source as the
        // affected markers (what `Icrf::sync` does).
        p.update(&m, m.cliques().len(), &[c0.0, c1.0]);
        assert_eq!(p.len(), 2, "retired bridging source must split");
    }

    /// Reference connected components by breadth-first search over the
    /// "claims sharing a source" adjacency — the executable specification
    /// the union–find implementation is held against.
    fn bfs_components(m: &crate::graph::CrfModel) -> Vec<usize> {
        let n = m.n_claims();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for &s in m.sources_of_claim(VarId(c as u32)) {
                    for &nb in m.claims_of_source(s) {
                        let nb = nb as usize;
                        if comp[nb] == usize::MAX {
                            comp[nb] = next;
                            queue.push_back(nb);
                        }
                    }
                }
            }
            next += 1;
        }
        comp
    }

    proptest! {
        /// Components form a partition: every claim in exactly one component,
        /// and `component_of` agrees with the component listings.
        #[test]
        fn prop_components_partition_claims(seed in 0u64..500) {
            let m = crate::graph::test_support::random_model(30, 8, 2, seed);
            let p = Partition::of_model(&m);
            let mut seen = vec![false; m.n_claims()];
            for (i, comp) in p.iter().enumerate() {
                for &c in comp {
                    prop_assert!(!seen[c], "claim {c} in two components");
                    seen[c] = true;
                    prop_assert_eq!(p.component_of(VarId(c as u32)), i);
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }

        /// The union–find components equal a BFS reference on random graphs:
        /// two claims share a `Partition` component iff BFS over the
        /// source-sharing adjacency puts them in one component.
        #[test]
        fn prop_union_find_matches_bfs_reference(
            seed in 0u64..400,
            n_claims in 2usize..40,
            n_sources in 1usize..12,
        ) {
            let m = crate::graph::test_support::random_model(n_claims, n_sources, 2, seed);
            let p = Partition::of_model(&m);
            let bfs = bfs_components(&m);
            prop_assert_eq!(p.n_claims(), m.n_claims());
            for a in 0..m.n_claims() {
                for b in (a + 1)..m.n_claims() {
                    prop_assert_eq!(
                        p.component_of(VarId(a as u32)) == p.component_of(VarId(b as u32)),
                        bfs[a] == bfs[b],
                        "claims {} and {} disagree with the BFS reference", a, b
                    );
                }
            }
            // Same number of components overall.
            let n_bfs = bfs.iter().copied().max().map_or(0, |m| m + 1);
            prop_assert_eq!(p.len(), n_bfs);
        }

        /// `Dsu` agrees with BFS reachability when unions mirror a random
        /// edge list, and set sizes match component sizes.
        #[test]
        fn prop_dsu_matches_edge_reachability(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        ) {
            let n = 20;
            let mut dsu = Dsu::new(n);
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                dsu.union(a, b);
                adj[a].push(b);
                adj[b].push(a);
            }
            // BFS reachability per node.
            let mut comp = vec![usize::MAX; n];
            let mut next = 0;
            for start in 0..n {
                if comp[start] != usize::MAX { continue; }
                let mut stack = vec![start];
                comp[start] = next;
                while let Some(c) = stack.pop() {
                    for &nb in &adj[c] {
                        if comp[nb] == usize::MAX {
                            comp[nb] = next;
                            stack.push(nb);
                        }
                    }
                }
                next += 1;
            }
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        dsu.find(a) == dsu.find(b),
                        comp[a] == comp[b],
                        "nodes {} and {}", a, b
                    );
                }
                let size = comp.iter().filter(|&&x| x == comp[a]).count();
                prop_assert_eq!(dsu.set_size(a), size);
            }
        }

        /// Incremental maintenance spec: replaying a random build script
        /// delta-by-delta and calling [`Partition::grow`] after each apply
        /// yields exactly the partition (numbering included) of a
        /// from-scratch [`Partition::of_model`] on the final model.
        #[test]
        fn prop_grown_partition_matches_batch(seed in 0u64..300, chunks in 1usize..7) {
            use crate::graph::test_support as ts;
            let script = ts::random_growth_script(seed ^ 0x517e, chunks);
            let mut model = ts::build_batch(&script[..1]);
            let mut part = Partition::of_model(&model);
            for chunk in &script[1..] {
                let delta = ts::chunk_delta(&model, chunk);
                let first_new = model.cliques().len();
                model.apply(delta).unwrap();
                part.grow(&model, first_new);
            }
            let fresh = Partition::of_model(&model);
            prop_assert_eq!(part.len(), fresh.len());
            prop_assert_eq!(part.n_claims(), fresh.n_claims());
            for c in 0..model.n_claims() {
                prop_assert_eq!(
                    part.component_of(VarId(c as u32)),
                    fresh.component_of(VarId(c as u32)),
                    "claim {} numbering diverged", c
                );
            }
            for i in 0..part.len() {
                prop_assert_eq!(part.component(i), fresh.component(i), "component {}", i);
            }
        }

        /// Lifecycle maintenance spec: replaying a random interleaved
        /// grow/retire script with [`Partition::update`] after each edit
        /// yields exactly the partition (numbering included) of a
        /// from-scratch [`Partition::of_model`] on the tombstoned model —
        /// and, after compaction, [`Partition::compact`] matches
        /// `of_model` on the compacted model.
        #[test]
        fn prop_lifecycle_partition_matches_batch(seed in 0u64..250, n_ops in 2usize..8) {
            use crate::graph::test_support as ts;
            let ops = ts::random_lifecycle_script(seed ^ 0x7a11, n_ops);
            let ts::LifecycleOp::Grow(first) = &ops[0] else { unreachable!() };
            let mut model = ts::build_batch(std::slice::from_ref(first));
            let mut part = Partition::of_model(&model);
            for op in &ops[1..] {
                match op {
                    ts::LifecycleOp::Grow(chunk) => {
                        let delta = ts::chunk_delta(&model, chunk);
                        let first_new = model.cliques().len();
                        model.apply(delta).unwrap();
                        part.update(&model, first_new, &[]);
                    }
                    ts::LifecycleOp::Retire { claims, sources } => {
                        let mut set = crate::graph::RetireSet::for_model(&model);
                        for &c in claims { set.retire_claim(VarId(c)); }
                        for &s in sources { set.retire_source(s); }
                        // Affected claims: the retired ones plus the claims
                        // of every retired source (their cliques die).
                        let mut affected = claims.clone();
                        for &s in sources {
                            affected.extend_from_slice(model.claims_of_source(s));
                        }
                        let first_new = model.cliques().len();
                        model.retire(set).unwrap();
                        part.update(&model, first_new, &affected);
                    }
                }
                let fresh = Partition::of_model(&model);
                prop_assert_eq!(part.len(), fresh.len());
                for i in 0..part.len() {
                    prop_assert_eq!(part.component(i), fresh.component(i), "component {}", i);
                }
                for c in 0..model.n_claims() {
                    if model.claim_live(c) {
                        prop_assert_eq!(
                            part.component_of(VarId(c as u32)),
                            fresh.component_of(VarId(c as u32)),
                            "claim {} numbering diverged", c
                        );
                    }
                }
            }
            let remap = model.compact().unwrap();
            if !remap.is_identity() {
                part.compact(&remap);
            }
            let fresh = Partition::of_model(&model);
            prop_assert_eq!(part.len(), fresh.len());
            prop_assert_eq!(part.n_claims(), model.n_claims());
            for i in 0..part.len() {
                prop_assert_eq!(part.component(i), fresh.component(i), "compacted component {}", i);
            }
        }

        /// Claims sharing a source are always co-located.
        #[test]
        fn prop_shared_source_implies_same_component(seed in 0u64..500) {
            let m = crate::graph::test_support::random_model(25, 6, 2, seed);
            let p = Partition::of_model(&m);
            for s in 0..m.n_sources() as u32 {
                let claims = m.claims_of_source(s);
                for w in claims.windows(2) {
                    prop_assert_eq!(
                        p.component_of(VarId(w[0])),
                        p.component_of(VarId(w[1]))
                    );
                }
            }
        }
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The cross-consumer spec of [`CrfModel::since`]: catching stale
        /// structures up across an arbitrary slice of the lifecycle —
        /// several accumulated edits, growth before a compaction, a retire
        /// on either side of it, or two compactions that outrun the single
        /// retained remap — always lands on exactly the from-scratch
        /// state on the new snapshot: the partition (numbering included)
        /// of [`Partition::of_model`], the scores of `ScoreCache::build`
        /// bit for bit, and the coloring of `Coloring::of_model`.
        #[test]
        fn prop_sync_lineage_matches_batch(
            seed in 0u64..300,
            n_ops in 3usize..24,
            stride in 1usize..7,
        ) {
            use crate::coloring::Coloring;
            use crate::graph::ModelError;
            use crate::potentials::{ScoreCache, Weights};

            // Edits are generated against the *current* model (ids stay
            // valid across mid-script compactions), xorshift-driven.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };

            let mut b = ModelDelta::new(1, 1);
            let s0 = b.add_source(&[0.1]).unwrap();
            let s1 = b.add_source(&[0.2]).unwrap();
            let claims: Vec<_> = (0..3).map(|_| b.add_claim()).collect();
            for (i, &c) in claims.iter().enumerate() {
                let d = b.add_document(&[0.0]).unwrap();
                b.add_clique(c, d, if i % 2 == 0 { s0 } else { s1 }, Stance::Support);
            }
            let mut model = CrfModel::build(b).unwrap();
            let w = Weights::from_vec(
                (0..model.feature_dim()).map(|i| 0.3 - 0.17 * i as f64).collect(),
            );
            let mut part = Partition::of_model(&model);
            let mut cache = ScoreCache::build(&model, &w);
            let mut coloring = Coloring::of_model(&model);
            let mut old = model.clone();

            for i in 0..n_ops {
                match rng() % 4 {
                    0 | 1 => {
                        let mut delta = crate::graph::ModelDelta::for_model(&model);
                        let s = delta.add_source(&[(rng() % 7) as f64 / 7.0]).unwrap();
                        for _ in 0..(1 + rng() % 3) {
                            let c = delta.add_claim();
                            let d = delta.add_document(&[0.0]).unwrap();
                            delta.add_clique(c, d, s, Stance::Support);
                            if rng() % 2 == 0 {
                                // Also cite from an existing live source so
                                // growth can merge old components.
                                let live: Vec<u32> = (0..model.n_sources() as u32)
                                    .filter(|&x| model.source_live(x as usize))
                                    .collect();
                                if !live.is_empty() {
                                    let es = live[rng() as usize % live.len()];
                                    let d2 = delta.add_document(&[0.5]).unwrap();
                                    delta.add_clique(c, d2, es, Stance::Refute);
                                }
                            }
                        }
                        model.apply(delta).unwrap();
                    }
                    2 => {
                        let mut set = crate::graph::RetireSet::for_model(&model);
                        let mut any = false;
                        let live_claims: Vec<u32> = (0..model.n_claims() as u32)
                            .filter(|&c| model.claim_live(c as usize))
                            .collect();
                        if !live_claims.is_empty() && rng() % 2 == 0 {
                            set.retire_claim(VarId(
                                live_claims[rng() as usize % live_claims.len()],
                            ));
                            any = true;
                        }
                        let live_sources: Vec<u32> = (0..model.n_sources() as u32)
                            .filter(|&s| model.source_live(s as usize))
                            .collect();
                        if live_sources.len() > 1 && rng() % 3 == 0 {
                            set.retire_source(
                                live_sources[rng() as usize % live_sources.len()],
                            );
                            any = true;
                        }
                        if any {
                            model.retire(set).unwrap();
                        }
                    }
                    _ => {
                        // With `stride` > 1 two of these can land between
                        // syncs, exercising the outrun fallback. A compact
                        // that would leave no clique is refused and the
                        // tombstoned model kept.
                        match model.compact() {
                            Ok(_) | Err(ModelError::Empty) => {}
                            Err(e) => panic!("compact failed: {e}"),
                        }
                    }
                }
                if i % stride == stride - 1 || i == n_ops - 1 {
                    part.sync_lineage(&old, &model);
                    cache.update(&model, &w);
                    coloring.sync(&model);
                    old = model.clone();
                    let fresh = Partition::of_model(&model);
                    prop_assert_eq!(part.len(), fresh.len());
                    for j in 0..part.len() {
                        prop_assert_eq!(
                            part.component(j), fresh.component(j),
                            "component {} diverged", j
                        );
                    }
                    for c in 0..model.n_claims() {
                        if model.claim_live(c) {
                            prop_assert_eq!(
                                part.component_of(VarId(c as u32)),
                                fresh.component_of(VarId(c as u32)),
                                "claim {} numbering diverged", c
                            );
                        }
                    }
                    let fresh = ScoreCache::build(&model, &w);
                    prop_assert_eq!(cache.len(), fresh.len());
                    for k in 0..fresh.len() {
                        prop_assert_eq!(
                            cache.contribution(k, 0.37).to_bits(),
                            fresh.contribution(k, 0.37).to_bits(),
                            "incidence {} score diverged", k
                        );
                    }
                    let fresh = Coloring::of_model(&model);
                    prop_assert_eq!(coloring.colors(), fresh.colors());
                    prop_assert_eq!(coloring.n_colors(), fresh.n_colors());
                }
            }
        }
    }
}
