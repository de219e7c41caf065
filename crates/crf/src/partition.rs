//! Connected-component partitioning of the claim graph (§5.1).
//!
//! Not all sources share the same claims: the CRF decomposes into
//! independent sub-models, one per connected component of the graph whose
//! nodes are claims and whose edges join claims sharing a source (the only
//! coupling channel in the model — document variables are private to one
//! clique). The paper exploits this for efficiency: entropy, Gibbs sampling,
//! and information-gain computations can each be confined to the component
//! touched by a candidate claim.
//!
//! [`Partition::of_model`] computes the components of one model snapshot
//! from scratch; a holder whose model changed computes a new partition.

use crate::graph::{CrfModel, VarId};

/// Disjoint-set union (union–find) with path halving and union by size.
#[derive(Debug)]
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // Path halving: point to the grandparent.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
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
    #[cfg(test)]
    fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }
}

/// A partition of the **live** claim variables of one model snapshot into
/// connected components.
///
/// A partition is a value computed by [`Partition::of_model`], never
/// maintained: a holder whose model changed computes a new one (one union
/// pass over the live source rows — on one Xeon core, about 0.4 ms at 10k
/// claims / 30k cliques and 0.6 ms at Snopes scale, 4,856 claims / 92k
/// cliques). Component numbering is canonical, ascending in each
/// component's lowest live claim id, so it depends only on the live graph.
/// Dead claims belong to no component and must not be asked for one.
#[derive(Debug)]
pub struct Partition {
    /// Component index per claim ([`NO_COMPONENT`] for tombstoned claims).
    component_of: Vec<u32>,
    /// CSR row starts: component `i` is `members[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// The live claims grouped by component in canonical order, ascending
    /// within each component.
    members: Vec<usize>,
}

/// Sentinel component index of a tombstoned claim.
const NO_COMPONENT: u32 = u32::MAX;

impl Partition {
    /// Compute the connected components of `model`'s live claim graph.
    pub fn of_model(model: &CrfModel) -> Self {
        let n = model.n_claims();
        let mut dsu = Dsu::new(n);
        for s in 0..model.n_sources() as u32 {
            if model.source_live(s as usize) {
                union_live_row(&mut dsu, model, s); // a dead source couples nothing
            }
        }
        // Rank each root at its first live claim, counting component sizes
        // into `offsets[rank + 1]`. Roots are claim ids, so a flat vector
        // beats a hash map.
        let mut rank_of_root = vec![NO_COMPONENT; n];
        let mut component_of = vec![NO_COMPONENT; n];
        let mut offsets = vec![0u32];
        for (c, slot) in component_of.iter_mut().enumerate() {
            if !model.claim_live(c) {
                continue;
            }
            let r = dsu.find(c);
            if rank_of_root[r] == NO_COMPONENT {
                rank_of_root[r] = (offsets.len() - 1) as u32;
                offsets.push(0);
            }
            *slot = rank_of_root[r];
            offsets[*slot as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Counting sort: claims placed in ascending order land ascending
        // within their component.
        let mut cursor = offsets[..offsets.len() - 1].to_vec();
        let mut members = vec![0usize; offsets[offsets.len() - 1] as usize];
        for (c, &k) in component_of.iter().enumerate() {
            if k != NO_COMPONENT {
                members[cursor[k as usize] as usize] = c;
                cursor[k as usize] += 1;
            }
        }
        Partition {
            component_of,
            offsets,
            members,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of claims the partition covers (the model's claim count).
    pub fn n_claims(&self) -> usize {
        self.component_of.len()
    }

    /// Whether there are no components (empty model).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the component containing `claim`. Must not be asked for a
    /// tombstoned claim (dead claims belong to no component).
    pub fn component_of(&self, claim: VarId) -> usize {
        let k = self.component_of[claim.idx()];
        debug_assert_ne!(
            k,
            NO_COMPONENT,
            "claim {} is retired and belongs to no component",
            claim.idx()
        );
        k as usize
    }

    /// The claims of component `i`, ascending.
    pub fn component(&self, i: usize) -> &[usize] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate over all components in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len()).map(|i| self.component(i))
    }

    /// Size of the largest component.
    pub fn max_component_size(&self) -> usize {
        self.iter().map(|c| c.len()).max().unwrap_or(0)
    }
}

/// Chain the live claims of `source`'s (sorted, deduplicated) row with
/// adjacent-pair unions. Skipping dead claims is what keeps a retired
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
    /// merges them in the grown model's partition, canonically numbered.
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
        assert_eq!(Partition::of_model(&m).len(), 2);

        let mut delta = crate::graph::ModelDelta::for_model(&m);
        let bridge = delta.add_claim();
        for s in [s0, s1] {
            let d = delta.add_document(&[0.0]).unwrap();
            delta.add_clique(bridge, d, s, Stance::Support);
        }
        m.apply(delta).unwrap();
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 1);
        assert_eq!(p.component(0), &[0, 1, 2]);
        assert_eq!(p.component_of(VarId(2)), 0);
        assert_eq!(p.max_component_size(), 3);
    }

    /// A delta touching nothing shared leaves old components intact and
    /// numbers the new component after them, in claim order.
    #[test]
    fn grow_appends_independent_component() {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.0]).unwrap();
        let c0 = b.add_claim();
        let d = b.add_document(&[0.0]).unwrap();
        b.add_clique(c0, d, s0, Stance::Support);
        let mut m = CrfModel::build(b).unwrap();

        let mut delta = crate::graph::ModelDelta::for_model(&m);
        let s = delta.add_source(&[1.0]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[1.0]).unwrap();
        delta.add_clique(c, d, s, Stance::Refute);
        m.apply(delta).unwrap();
        let p = Partition::of_model(&m);
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
        assert_eq!(Partition::of_model(&m).len(), 1);

        let mut set = crate::graph::RetireSet::for_model(&m);
        set.retire_claim(bridge);
        m.retire(set).unwrap();
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 2, "retired bridge must split the component");
        assert_eq!(p.component(0), &[0]);
        assert_eq!(p.component(1), &[1]);
        assert_ne!(p.component_of(c0), p.component_of(c1));
        assert_eq!(p.n_claims(), 3);

        m.compact().unwrap();
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 2);
        assert_eq!(p.component(0), &[0]);
        assert_eq!(p.component(1), &[1]);
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
        assert_eq!(Partition::of_model(&m).len(), 1);
        let mut set = crate::graph::RetireSet::for_model(&m);
        set.retire_source(s_bridge);
        m.retire(set).unwrap();
        // No claims died; the dead source's cliques no longer couple them.
        let p = Partition::of_model(&m);
        assert_eq!(p.len(), 2, "retired bridging source must split");
        assert_eq!(p.component(0), &[0]);
        assert_eq!(p.component(1), &[1]);
    }

    /// Reference connected components by breadth-first search over the
    /// "live claims sharing a live source" adjacency — the executable
    /// specification the union–find implementation is held against. Dead
    /// claims get `usize::MAX`. Searches start at each unvisited live claim
    /// in ascending id, so the numbering is canonical too.
    fn bfs_components(m: &crate::graph::CrfModel) -> Vec<usize> {
        let n = m.n_claims();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if comp[start] != usize::MAX || !m.claim_live(start) {
                continue;
            }
            comp[start] = next;
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for &s in m.sources_of_claim(VarId(c as u32)) {
                    if !m.source_live(s as usize) {
                        continue;
                    }
                    for &nb in m.claims_of_source(s) {
                        let nb = nb as usize;
                        if comp[nb] == usize::MAX && m.claim_live(nb) {
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
            // Canonical numbering: components ascend in their lowest claim.
            for i in 1..p.len() {
                prop_assert!(
                    p.component(i - 1)[0] < p.component(i)[0],
                    "component {i} out of order"
                );
            }
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
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The union–find components equal a BFS reference — membership
        /// and canonical numbering — on random graphs and on models taken
        /// through a random grow/retire script, tombstoned and compacted.
        #[test]
        fn prop_union_find_matches_bfs_reference(
            seed in 0u64..400,
            n_claims in 2usize..40,
            n_sources in 1usize..12,
            n_ops in 2usize..8,
        ) {
            use crate::graph::test_support as ts;
            let random = ts::random_model(n_claims, n_sources, 2, seed);
            let ops = ts::random_lifecycle_script(seed ^ 0x7a11, n_ops);
            let (tombstoned, _) = ts::replay_lifecycle(&ops);
            let mut compacted = tombstoned.clone();
            compacted.compact().unwrap();
            for m in [&random, &tombstoned, &compacted] {
                let p = Partition::of_model(m);
                let bfs = bfs_components(m);
                prop_assert_eq!(p.n_claims(), m.n_claims());
                for (c, &k) in bfs.iter().enumerate() {
                    if m.claim_live(c) {
                        prop_assert_eq!(p.component_of(VarId(c as u32)), k, "claim {}", c);
                    }
                }
                let n_bfs = bfs.iter().filter(|&&k| k != usize::MAX).max().map_or(0, |k| k + 1);
                prop_assert_eq!(p.len(), n_bfs);
            }
        }
    }
}
