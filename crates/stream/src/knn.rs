//! k-nearest-neighbor queries over released sketches.
//!
//! The JL lemma's original application (paper §1: "nearest-neighbor
//! search [2, 24]") on top of the private protocol: given a set of
//! released sketches, answer top-k queries — post-processing of
//! already-private data, so no further privacy cost is incurred.
//!
//! The per-release [`top_k`] / [`knn_classify`] helpers serve one-off
//! queries against transient candidate sets; a long-lived set of
//! releases belongs in a [`dp_engine::QueryEngine`], whose `knn` ranks
//! every query against one ingested store.

use crate::distributed::Release;
use dp_core::error::CoreError;
use dp_engine::select_smallest;

// The scored-neighbor type now lives beside the engine that mints it.
pub use dp_engine::Neighbor;

/// The `k` nearest released sketches to `query` (excluding any candidate
/// with the query's own party id), ascending by estimate, ranked by
/// [`dp_engine::select_smallest`] (ties in candidate order).
///
/// # Errors
/// Propagates sketch incompatibility.
pub fn top_k(
    query: &Release,
    candidates: &[Release],
    k: usize,
) -> Result<Vec<Neighbor>, CoreError> {
    let scored = candidates
        .iter()
        .filter(|c| c.party_id != query.party_id)
        .map(|c| Ok((query.sketch.estimate_sq_distance(&c.sketch)?, c.party_id)))
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(select_smallest(k, scored)
        .into_iter()
        .map(|(estimated_sq_distance, party_id)| Neighbor {
            party_id,
            estimated_sq_distance,
        })
        .collect())
}

/// Majority vote over the labels of the `k` nearest neighbors — the
/// classic k-NN classifier run entirely on private releases.
///
/// # Errors
/// Propagates sketch incompatibility; `None` if there are no neighbors.
pub fn knn_classify(
    query: &Release,
    candidates: &[Release],
    labels: &dyn Fn(u64) -> u32,
    k: usize,
) -> Result<Option<u32>, CoreError> {
    let neighbors = top_k(query, candidates, k)?;
    if neighbors.is_empty() {
        return Ok(None);
    }
    let mut counts = std::collections::HashMap::new();
    for n in &neighbors {
        *counts.entry(labels(n.party_id)).or_insert(0u32) += 1;
    }
    Ok(counts
        .into_iter()
        .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
        .map(|(label, _)| label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{Party, PublicParams};
    use dp_core::config::SketchConfig;
    use dp_hashing::Seed;

    fn releases() -> Vec<Release> {
        let d = 512;
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.2)
            .beta(0.05)
            .epsilon(4.0)
            .build()
            .expect("config");
        let params = PublicParams::new(config, Seed::new(55));
        // Two well-separated groups, large margins vs the noise floor.
        let make = |group: usize, idx: u64| -> Vec<f64> {
            (0..d)
                .map(|j| {
                    let base = f64::from(u8::from(j % 2 == group));
                    20.0 * base + (idx as f64) * 0.01
                })
                .collect()
        };
        (0..6u64)
            .map(|i| {
                Party::new(i, make((i / 3) as usize, i), Seed::new(700 + i))
                    .release(&params)
                    .expect("release")
            })
            .collect()
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let rs = releases();
        let nn = top_k(&rs[0], &rs, 2).expect("topk");
        assert_eq!(nn.len(), 2);
        assert!(nn[0].estimated_sq_distance <= nn[1].estimated_sq_distance);
        // Both nearest neighbors are in the query's group {0,1,2}.
        assert!(nn.iter().all(|n| n.party_id < 3), "{nn:?}");
    }

    #[test]
    fn top_k_excludes_self() {
        let rs = releases();
        let nn = top_k(&rs[0], &rs, 10).expect("topk");
        assert_eq!(nn.len(), 5);
        assert!(nn.iter().all(|n| n.party_id != 0));
    }

    #[test]
    fn knn_classifier_recovers_group() {
        let rs = releases();
        let label = |id: u64| u32::from(id >= 3);
        for (i, q) in rs.iter().enumerate() {
            let got = knn_classify(q, &rs, &label, 3).expect("classify");
            assert_eq!(got, Some(u32::from(i >= 3)), "query {i}");
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        let rs = releases();
        let got = knn_classify(&rs[0], &[], &|_| 0, 3).expect("classify");
        assert_eq!(got, None);
    }
}
