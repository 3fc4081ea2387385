//! Property-based cross-validation of the engines on random trees with
//! random keyword placements — the backbone correctness argument of the
//! whole reproduction:
//!
//! * join-based ≡ stack-based ≡ naive, per semantics and ELCA variant;
//! * top-K join returns exactly the K best of the complete scored set.
//!
//! The index-based and RDIL baselines are checked against the same
//! references on the same corpora by `xtk-baselines`'
//! `tests/engine_agreement.rs`.  Runs on the in-tree
//! [`testutil`](xtk_xml::testutil) runner.

mod common;

use common::{assert_topk_valid, build_corpus, corpus, deep_corpus, nodes, query};
use xtk_core::baseline::stack::{stack_search, StackOptions};
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{ElcaVariant, Semantics};
use xtk_core::semantics::{naive_elca, naive_slca};
use xtk_core::topk::{topk_search, TopKOptions};
use xtk_xml::prop_assert_eq;
use xtk_xml::testutil::prop_check;
use xtk_xml::tree::NodeId;

#[test]
fn complete_engines_agree() {
    prop_check(0x51, 96, |g| {
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        let q = query(&ix, k);
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings()).collect();

        // SLCA: both engines and the naive reference.
        let want_slca = naive_slca(ix.tree(), &lists);
        let join_slca = nodes(join_search(&ix, &q, &JoinOptions {
            semantics: Semantics::Slca, ..Default::default()
        }).0);
        let stack_slca = nodes(stack_search(&ix, &q, &StackOptions {
            semantics: Semantics::Slca, ..Default::default()
        }));
        prop_assert_eq!(&join_slca, &want_slca, "join SLCA");
        prop_assert_eq!(&stack_slca, &want_slca, "stack SLCA");

        // ELCA, both variants, join + stack vs naive.
        for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
            let want = naive_elca(ix.tree(), &lists, variant);
            let join = nodes(join_search(&ix, &q, &JoinOptions {
                semantics: Semantics::Elca, variant, ..Default::default()
            }).0);
            let stack = nodes(stack_search(&ix, &q, &StackOptions {
                semantics: Semantics::Elca, variant
            }));
            prop_assert_eq!(&join, &want, "join ELCA {:?}", variant);
            prop_assert_eq!(&stack, &want, "stack ELCA {:?}", variant);
        }
    });
}

#[test]
fn topk_is_prefix_of_complete() {
    prop_check(0x53, 96, |g| {
        let (shape, placements, k) = corpus(g);
        let kk = g.gen_range(1..8usize);
        let ix = build_corpus(&shape, &placements, k);
        let q = query(&ix, k);
        for semantics in [Semantics::Elca, Semantics::Slca] {
            let (got, _) = topk_search(&ix, &q, &TopKOptions { k: kk, semantics, ..Default::default() });
            let (mut complete, _) = join_search(&ix, &q, &JoinOptions {
                semantics,
                variant: ElcaVariant::Operational,
                with_scores: true,
            });
            assert_topk_valid(&got, &mut complete, kk);
        }
    });
}

#[test]
fn deep_trees_agree_across_engines() {
    prop_check(0x56, 96, |g| {
        let (shape, placements, k) = deep_corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        let q = query(&ix, k);
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings()).collect();
        let want_slca = naive_slca(ix.tree(), &lists);
        let join_slca = nodes(join_search(&ix, &q, &JoinOptions {
            semantics: Semantics::Slca, ..Default::default()
        }).0);
        prop_assert_eq!(&join_slca, &want_slca);
        let want = naive_elca(ix.tree(), &lists, ElcaVariant::Operational);
        let join = nodes(join_search(&ix, &q, &JoinOptions::default()).0);
        let stack = nodes(stack_search(&ix, &q, &StackOptions::default()));
        prop_assert_eq!(&join, &want);
        prop_assert_eq!(&stack, &want);
        // Top-K on deep trees too.
        let (got, _) = topk_search(&ix, &q, &TopKOptions { k: 5, semantics: Semantics::Elca, ..Default::default() });
        let (mut complete, _) = join_search(&ix, &q, &JoinOptions {
            with_scores: true, ..Default::default()
        });
        assert_topk_valid(&got, &mut complete, 5);
    });
}

#[test]
fn wide_levels_agree_with_the_naive_evaluators() {
    // Thousands of sibling matches: the level-2 columns hold ≈ 3 000 runs
    // and the level matches ≈ 1 800 values at once — the wide-level case
    // the random corpora above mostly miss.
    let mut xml = String::from("<r>");
    for i in 0..3000 {
        xml.push_str(match i % 5 {
            0 => "<p>foo bar</p>",
            1 => "<p>foo<q>bar</q></p>",
            2 => "<p>foo bar baz</p>",
            3 => "<p>bar</p>",
            _ => "<p>foo</p>",
        });
    }
    xml.push_str("</r>");
    let ix = xtk_index::XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let q = xtk_core::query::Query::from_words(&ix, &["foo", "bar"]).unwrap();
    let lists: Vec<&[NodeId]> = q.terms.iter().map(|&t| ix.term(t).postings()).collect();
    for semantics in [Semantics::Elca, Semantics::Slca] {
        for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
            let want = match semantics {
                Semantics::Elca => naive_elca(ix.tree(), &lists, variant),
                Semantics::Slca => naive_slca(ix.tree(), &lists),
            };
            assert!(want.len() >= 1800);
            let opts = JoinOptions { semantics, variant, with_scores: true };
            let (mut complete, stats) = join_search(&ix, &q, &opts);
            assert_eq!(stats.results, want.len() as u64);
            assert_eq!(nodes(complete.clone()), want, "{semantics:?} {variant:?}");
            if variant == ElcaVariant::Operational {
                let (got, _) = topk_search(&ix, &q, &TopKOptions { k: 10, semantics, ..Default::default() });
                assert_topk_valid(&got, &mut complete, 10);
            }
        }
    }
}
