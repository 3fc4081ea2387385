//! The hybrid planner sketched in §V-D.
//!
//! Figure 10 shows the complete join-based algorithm and the top-K join to
//! be complementary: the top-K join wins when the keywords are correlated
//! (many results — the threshold drops fast), the complete algorithm wins
//! when they are not (the top-K join ends up scanning everything anyway,
//! in score order and with bucket overhead).  The deciding quantity is the
//! join cardinality, which relational engines routinely estimate.
//!
//! This planner estimates the result cardinality by probing a sample of
//! the smallest column's values against the other columns at the deepest
//! common level and the level above it, then routes the query to
//! [`topk_search`](crate::topk::topk_search) or to the complete
//! [`join_search`](crate::joinbased::join_search) + sort.

use crate::joinbased::{join_search_obs, JoinOptions};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::result::{rank_top, ScoredResult};
use crate::topk::{topk_search_obs, TopKOptions};
use xtk_index::{TermData, XmlIndex};
use xtk_obs::Obs;

/// Which engine the planner picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedEngine {
    /// Estimated cardinality large: the top-K star join terminates early.
    TopKJoin,
    /// Estimated cardinality small: compute the complete set and sort.
    CompleteJoin,
}

/// Number of sample probes per level.
const SAMPLE: usize = 64;

/// Estimates the number of join results at the two deepest common levels.
///
/// When every keyword carries an index-time [histogram] for the level,
/// the attribute-independence estimate is used (no column access at all);
/// otherwise a small sample of the smallest column is probed against the
/// others.
///
/// [histogram]: xtk_index::histogram::Histogram
pub fn estimate_result_cardinality(ix: &XmlIndex, query: &Query) -> f64 {
    let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    if terms.iter().any(|t| t.is_empty()) {
        return 0.0;
    }
    let l0 = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
    let mut total = 0.0f64;
    for l in [l0, l0.saturating_sub(1)] {
        if l == 0 {
            continue;
        }
        // Histogram path: every term has one at this level.
        let hists: Vec<_> = terms
            .iter()
            .filter_map(|t| t.histograms.get(l as usize - 1).and_then(|h| h.as_ref()))
            .collect();
        if hists.len() == terms.len() {
            total += xtk_index::histogram::Histogram::estimate_conjunction(&hists);
            continue;
        }
        let cols: Vec<_> = terms
            .iter()
            .filter_map(|t| (l as usize).checked_sub(1).and_then(|i| t.columns.get(i)))
            .collect();
        if cols.len() != terms.len() {
            continue; // unreachable: every list reaches level l <= l0
        }
        let Some(smallest) = cols.iter().min_by_key(|c| c.runs.len()) else {
            continue;
        };
        let n = smallest.runs.len();
        if n == 0 {
            continue;
        }
        let step = (n / SAMPLE).max(1);
        let mut probes = 0usize;
        let mut hits = 0usize;
        let mut i = 0;
        while let Some(run) = smallest.runs.get(i) {
            probes += 1;
            let v = run.value;
            if cols.iter().all(|c| c.find(v).is_some()) {
                hits += 1;
            }
            i += step;
        }
        total += n as f64 * hits as f64 / probes as f64;
    }
    total
}

/// Answers a top-K query through whichever engine the cardinality estimate
/// favours.  Returns the results and the engine used.
pub fn hybrid_topk(
    ix: &XmlIndex,
    query: &Query,
    k: usize,
    semantics: Semantics,
) -> (Vec<ScoredResult>, PlannedEngine) {
    hybrid_topk_obs(ix, query, k, semantics, &Obs::default())
}

/// [`hybrid_topk`] with observability: the routing decision and the
/// (integer-floored) cardinality estimate land in `obs.metrics` under
/// `hybrid.*`, and the chosen engine runs with the same `obs`, so its
/// join/top-K counters and trace events flow into the one registry.
pub fn hybrid_topk_obs(
    ix: &XmlIndex,
    query: &Query,
    k: usize,
    semantics: Semantics,
    obs: &Obs,
) -> (Vec<ScoredResult>, PlannedEngine) {
    let est = estimate_result_cardinality(ix, query);
    obs.metrics.add("hybrid.estimated_results", est as u64);
    // The top-K join pays off when it can stop well before exhausting the
    // lists — require an estimated result population comfortably above K.
    if est >= 4.0 * k as f64 {
        obs.metrics.add("hybrid.route_topk", 1);
        let opts = TopKOptions { k, semantics, ..Default::default() };
        let (rs, _) = topk_search_obs(ix, query, &opts, obs);
        (rs, PlannedEngine::TopKJoin)
    } else {
        obs.metrics.add("hybrid.route_complete", 1);
        let opts = JoinOptions { semantics, variant: ElcaVariant::Operational, with_scores: true };
        let (mut rs, _) = join_search_obs(ix, query, &opts, obs);
        rank_top(&mut rs, Some(k));
        (rs, PlannedEngine::CompleteJoin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joinbased::join_search;
    use crate::result::sort_ranked;
    use crate::topk::topk_search;
    use xtk_xml::parse;

    fn corpus(correlated: bool) -> String {
        let mut xml = String::from("<r>");
        for i in 0..120 {
            if correlated {
                xml.push_str("<p>foo bar</p>");
            } else {
                // foo and bar never co-occur below the root.
                if i % 2 == 0 {
                    xml.push_str("<p>foo</p>");
                } else {
                    xml.push_str("<p>bar</p>");
                }
            }
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn correlated_queries_route_to_topk() {
        let ix = XmlIndex::build(parse(&corpus(true)).unwrap());
        let q = Query::from_words(&ix, &["foo", "bar"]).unwrap();
        let est = estimate_result_cardinality(&ix, &q);
        assert!(est > 50.0, "estimate {est}");
        let (rs, engine) = hybrid_topk(&ix, &q, 5, Semantics::Elca);
        assert_eq!(engine, PlannedEngine::TopKJoin);
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn uncorrelated_queries_route_to_complete() {
        let ix = XmlIndex::build(parse(&corpus(false)).unwrap());
        let q = Query::from_words(&ix, &["foo", "bar"]).unwrap();
        let est = estimate_result_cardinality(&ix, &q);
        assert!(est < 5.0, "estimate {est}");
        let (rs, engine) = hybrid_topk(&ix, &q, 5, Semantics::Elca);
        assert_eq!(engine, PlannedEngine::CompleteJoin);
        // Only the root joins foo and bar.
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn both_routes_agree_on_results() {
        let ix = XmlIndex::build(parse(&corpus(true)).unwrap());
        let q = Query::from_words(&ix, &["foo", "bar"]).unwrap();
        let (via_topk, _) = topk_search(&ix, &q, &TopKOptions { k: 7, semantics: Semantics::Elca, ..Default::default() });
        let (mut via_complete, _) = join_search(
            &ix,
            &q,
            &JoinOptions { with_scores: true, ..Default::default() },
        );
        sort_ranked(&mut via_complete);
        via_complete.truncate(7);
        let s1: Vec<i64> = via_topk.iter().map(|r| (r.score * 1e4) as i64).collect();
        let s2: Vec<i64> = via_complete.iter().map(|r| (r.score * 1e4) as i64).collect();
        assert_eq!(s1, s2);
    }
}
