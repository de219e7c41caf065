//! Assembly and normalisation of the observed feature matrices (§8.1).
//!
//! Sources receive `[PageRank, HITS authority, activity, profile]` — the
//! centrality scores over the source co-citation graph, the log document
//! count, and a profile indicator (log post count for forum authors, HITS
//! hub score for websites). Documents receive the five linguistic features
//! of [`crate::linguistic`]. All columns are z-score standardised so that
//! the L2-regularised M-step treats them on a common scale.

use crate::db::FactDatabase;
use crate::graph_metrics::{hits, pagerank, DiGraph};
use crate::linguistic;
use crate::model::SourceKind;

/// Number of source features produced by [`source_features`].
pub const N_SOURCE_FEATURES: usize = 4;

/// Number of document features (re-exported from [`crate::linguistic`]).
pub const N_DOC_FEATURES: usize = linguistic::N_DOC_FEATURES;

/// Standardise a column in place to zero mean and unit variance; constant
/// columns become all-zero instead of dividing by zero.
pub fn zscore(column: &mut [f64]) {
    let n = column.len();
    if n == 0 {
        return;
    }
    let mean = column.iter().sum::<f64>() / n as f64;
    let var = column.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    if sd > 1e-12 {
        for x in column.iter_mut() {
            *x = (*x - mean) / sd;
        }
    } else {
        for x in column.iter_mut() {
            *x = 0.0;
        }
    }
}

/// Build the source co-citation graph: an edge `u -> v` for every pair of
/// sources whose documents reference a common claim, directed from the less
/// active to the more active source (ties go both ways).
pub fn cocitation_graph(db: &FactDatabase) -> DiGraph {
    let n = db.n_sources();
    let mut g = DiGraph::new(n);
    let mut activity = vec![0u32; n];
    for doc in db.documents() {
        activity[doc.source.idx()] += 1;
    }
    // claim -> distinct sources
    let mut claim_sources: Vec<Vec<u32>> = vec![Vec::new(); db.n_claims()];
    for doc in db.documents() {
        for (claim, _) in &doc.claims {
            claim_sources[claim.idx()].push(doc.source.0);
        }
    }
    let mut seen = std::collections::HashSet::new();
    for sources in claim_sources.iter_mut() {
        sources.sort_unstable();
        sources.dedup();
        for i in 0..sources.len() {
            for j in (i + 1)..sources.len() {
                let (a, b) = (sources[i] as usize, sources[j] as usize);
                if !seen.insert((a, b)) {
                    continue;
                }
                match activity[a].cmp(&activity[b]) {
                    std::cmp::Ordering::Less => g.add_edge(a, b),
                    std::cmp::Ordering::Greater => g.add_edge(b, a),
                    std::cmp::Ordering::Equal => {
                        g.add_edge(a, b);
                        g.add_edge(b, a);
                    }
                }
            }
        }
    }
    g
}

/// The raw (pre-standardisation) source feature columns.
fn raw_source_columns(db: &FactDatabase) -> Vec<Vec<f64>> {
    let n = db.n_sources();
    let g = cocitation_graph(db);
    let pr = pagerank(&g, 0.85, 50);
    let (hub, auth) = hits(&g, 30);
    let mut doc_count = vec![0u32; n];
    for doc in db.documents() {
        doc_count[doc.source.idx()] += 1;
    }
    vec![
        pr,
        auth,
        doc_count.iter().map(|&c| (1.0 + c as f64).ln()).collect(),
        db.sources()
            .iter()
            .enumerate()
            .map(|(i, s)| match s.kind {
                SourceKind::Author => (1.0 + s.post_count as f64).ln(),
                SourceKind::Website => hub[i],
            })
            .collect(),
    ]
}

/// The raw (pre-standardisation) document feature columns.
fn raw_doc_columns(db: &FactDatabase) -> Vec<Vec<f64>> {
    let n = db.n_documents();
    let mut cols: Vec<Vec<f64>> = std::iter::repeat_with(|| Vec::with_capacity(n))
        .take(N_DOC_FEATURES)
        .collect();
    for doc in db.documents() {
        let f = linguistic::extract(&doc.tokens).to_features();
        for (c, &v) in cols.iter_mut().zip(f.iter()) {
            c.push(v);
        }
    }
    cols
}

fn interleave_columns(cols: &[Vec<f64>], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * cols.len());
    for i in 0..n {
        for col in cols {
            out.push(col[i]);
        }
    }
    out
}

/// Compute the standardised source feature matrix, row-major
/// `n_sources × N_SOURCE_FEATURES`.
pub fn source_features(db: &FactDatabase) -> Vec<f64> {
    let mut cols = raw_source_columns(db);
    for col in cols.iter_mut() {
        zscore(col);
    }
    interleave_columns(&cols, db.n_sources())
}

/// Compute the standardised document feature matrix, row-major
/// `n_docs × N_DOC_FEATURES`.
pub fn doc_features(db: &FactDatabase) -> Vec<f64> {
    let mut cols = raw_doc_columns(db);
    for col in cols.iter_mut() {
        zscore(col);
    }
    interleave_columns(&cols, db.n_documents())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FactDatabase;
    use crate::model::{ClaimRecord, DocumentRecord, SourceRecord};
    use crf::Stance;

    fn tiny_db() -> FactDatabase {
        let mut db = FactDatabase::new();
        let s0 = db.add_source(SourceRecord {
            name: "alpha.org".into(),
            kind: SourceKind::Website,
            age: None,
            post_count: 0,
        });
        let s1 = db.add_source(SourceRecord {
            name: "user42".into(),
            kind: SourceKind::Author,
            age: Some(34.0),
            post_count: 120,
        });
        let c0 = db.add_claim(ClaimRecord {
            text: "the moon is made of cheese".into(),
            truth: Some(false),
        });
        let c1 = db.add_claim(ClaimRecord {
            text: "water boils at 100C".into(),
            truth: Some(true),
        });
        db.add_document(DocumentRecord {
            source: s0,
            claims: vec![(c0, Stance::Refute), (c1, Stance::Support)],
            tokens: crate::linguistic::tokenize("the claim is debunked therefore false"),
        })
        .unwrap();
        db.add_document(DocumentRecord {
            source: s1,
            claims: vec![(c0, Stance::Support)],
            tokens: crate::linguistic::tokenize("absolutely shocking but totally true"),
        })
        .unwrap();
        db
    }

    #[test]
    fn zscore_standardises() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        zscore(&mut v);
        let mean: f64 = v.iter().sum::<f64>() / 4.0;
        let var: f64 = v.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zscore_constant_column_is_zeroed() {
        let mut v = vec![5.0; 4];
        zscore(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cocitation_links_sources_sharing_claims() {
        let db = tiny_db();
        let g = cocitation_graph(&db);
        // s0 and s1 both reference claim 0 and are equally active (one
        // document each): the tie produces edges in both directions.
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[0]);
    }

    #[test]
    fn source_feature_matrix_shape() {
        let db = tiny_db();
        let f = source_features(&db);
        assert_eq!(f.len(), db.n_sources() * N_SOURCE_FEATURES);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn doc_feature_matrix_shape() {
        let db = tiny_db();
        let f = doc_features(&db);
        assert_eq!(f.len(), db.n_documents() * N_DOC_FEATURES);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn sober_document_scores_higher_objectivity() {
        let db = tiny_db();
        let f = doc_features(&db);
        // Column 0 is objectivity; doc 0 is sober, doc 1 is hype.
        let obj0 = f[0];
        let obj1 = f[N_DOC_FEATURES];
        assert!(obj0 > obj1, "sober {obj0} vs hype {obj1}");
    }
}
