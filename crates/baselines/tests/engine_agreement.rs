//! Property-based cross-validation of the index-based and RDIL baselines
//! on the random corpora `xtk-core`'s `tests/engine_agreement.rs` checks
//! the serving engines on:
//!
//! * index-based ≡ naive, SLCA and formal ELCA (its completeness
//!   theorem's home turf);
//! * RDIL returns exactly the K best of the formal scored set;
//! * the join-based engine's incremental scores equal the verifier's
//!   from-scratch ones.
//!
//! Runs on the in-tree [`testutil`](xtk_xml::testutil) runner.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{assert_topk_valid, build_corpus, corpus, nodes, query};
use xtk_baselines::baseline::indexed::{indexed_search, IndexedOptions};
use xtk_baselines::baseline::rdil::{rdil_search, RdilOptions};
use xtk_baselines::BaselineIndex;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{ElcaVariant, Semantics};
use xtk_core::semantics::{naive_elca, naive_slca};
use xtk_xml::testutil::prop_check;
use xtk_xml::tree::NodeId;
use xtk_xml::{prop_assert, prop_assert_eq};

#[test]
fn indexed_agrees_with_naive() {
    prop_check(0x51, 96, |g| {
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        let bx = BaselineIndex::new(&ix);
        let q = query(&ix, k);
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings()).collect();
        for (semantics, want) in [
            (Semantics::Slca, naive_slca(ix.tree(), &lists)),
            (Semantics::Elca, naive_elca(ix.tree(), &lists, ElcaVariant::Formal)),
        ] {
            let opts = IndexedOptions { semantics, with_scores: false };
            let got = nodes(indexed_search(&bx, &q, &opts));
            prop_assert_eq!(&got, &want, "indexed {:?}", semantics);
        }
    });
}

#[test]
fn rdil_is_prefix_of_formal_complete() {
    prop_check(0x54, 96, |g| {
        let (shape, placements, k) = corpus(g);
        let kk = g.gen_range(1..8usize);
        let ix = build_corpus(&shape, &placements, k);
        let bx = BaselineIndex::new(&ix);
        let q = query(&ix, k);
        for semantics in [Semantics::Elca, Semantics::Slca] {
            let (got, _) = rdil_search(&bx, &q, &RdilOptions { k: kk, semantics });
            let mut complete = indexed_search(&bx, &q, &IndexedOptions {
                semantics, with_scores: true
            });
            assert_topk_valid(&got, &mut complete, kk);
        }
    });
}

#[test]
fn scores_agree_between_join_and_verifier() {
    prop_check(0x55, 96, |g| {
        // The join-based engine's incremental scoring must equal the
        // from-scratch verifier scoring on the formal variant.
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        let q = query(&ix, k);
        let (join, _) = join_search(&ix, &q, &JoinOptions {
            semantics: Semantics::Elca,
            variant: ElcaVariant::Formal,
            with_scores: true,
            limit: None,
        });
        let indexed = indexed_search(&BaselineIndex::new(&ix), &q, &IndexedOptions {
            semantics: Semantics::Elca, with_scores: true
        });
        let mut jmap: Vec<(NodeId, f32)> = join.iter().map(|r| (r.node, r.score)).collect();
        let mut imap: Vec<(NodeId, f32)> = indexed.iter().map(|r| (r.node, r.score)).collect();
        jmap.sort_by_key(|(n, _)| *n);
        imap.sort_by_key(|(n, _)| *n);
        prop_assert_eq!(jmap.len(), imap.len());
        for ((jn, js), (inn, is)) in jmap.iter().zip(&imap) {
            prop_assert_eq!(jn, inn);
            prop_assert!((js - is).abs() < 1e-4, "{:?}: {} vs {}", jn, js, is);
        }
    });
}
