//! Cross-crate integration: generate a corpus → serialize to XML →
//! re-parse → index → persist the columnar index → reload → query with
//! every engine and baseline → agreement and ranking checks.

use xtk::core::engine::Engine;
use xtk::core::query::Semantics;
use xtk::core::request::{QueryAlgorithm, QueryRequest};
use xtk::core::result::sort_ranked;
use xtk::datagen::dblp::{generate, DblpConfig};
use xtk::datagen::PlantedTerm;
use xtk::index::disk::{read_index, write_index, WriteIndexOptions};
use xtk::xml::testutil::TempPath;
use xtk::xml::writer::{write_document, WriteOptions};
use xtk_baselines::baseline::indexed::{indexed_search, IndexedOptions};
use xtk_baselines::baseline::rdil::{rdil_search, RdilOptions};
use xtk_baselines::BaselineIndex;

fn corpus_engine() -> Engine {
    let cfg = DblpConfig {
        conferences: 20,
        years_per_conf: 4,
        papers_per_year: 10,
        planted: vec![
            PlantedTerm::new("planted1", 120),
            PlantedTerm::correlated("planted2", 60, "planted1", 0.5),
            PlantedTerm::new("planted3", 12),
        ],
        ..Default::default()
    };
    Engine::new(generate(&cfg).tree)
}

#[test]
fn generated_corpus_survives_xml_roundtrip() {
    let cfg = DblpConfig {
        conferences: 4,
        years_per_conf: 2,
        papers_per_year: 5,
        planted: vec![PlantedTerm::new("roundtrip", 10)],
        ..Default::default()
    };
    let tree = generate(&cfg).tree;
    let xml = write_document(&tree, WriteOptions { pretty: true });
    let back = xtk::xml::parse(&xml).expect("generated XML re-parses");
    assert_eq!(back.len(), tree.len());
    // Same query results on both.
    let e1 = Engine::new(tree);
    let e2 = Engine::new(back);
    let q1 = e1.query("roundtrip").unwrap();
    let q2 = e2.query("roundtrip").unwrap();
    let req = QueryRequest::complete(Semantics::Slca);
    let r1 = e1.run(&q1, &req).results;
    let r2 = e2.run(&q2, &req).results;
    assert_eq!(r1.len(), r2.len());
    assert_eq!(r1.len(), 10);
}

#[test]
fn engines_agree_on_generated_corpus() {
    let engine = corpus_engine();
    let bx = BaselineIndex::new(engine.index());
    for words in [
        vec!["planted1", "planted2"],
        vec!["planted1", "planted3"],
        vec!["planted1", "planted2", "planted3"],
    ] {
        let q = engine.query(&words.join(" ")).unwrap();
        // SLCA: the two served complete engines and the index-based
        // baseline agree exactly.
        let indexed = indexed_search(
            &bx,
            &q,
            &IndexedOptions { semantics: Semantics::Slca, with_scores: false },
        );
        let mut sets: Vec<Vec<_>> = [QueryAlgorithm::JoinBased, QueryAlgorithm::StackBased]
            .iter()
            .map(|&a| {
                let req = QueryRequest::complete(Semantics::Slca).unranked().with_algorithm(a);
                engine.run(&q, &req).results
            })
            .chain([indexed])
            .map(|rs| {
                let mut v: Vec<_> = rs.into_iter().map(|r| r.node).collect();
                v.sort();
                v
            })
            .collect();
        let first = sets.remove(0);
        for s in sets {
            assert_eq!(s, first, "SLCA disagreement on {words:?}");
        }
        // ELCA: join-based and stack-based agree (operational variant).
        let elca = QueryRequest::complete(Semantics::Elca).unranked();
        let mut a: Vec<_> = engine
            .run(&q, &elca.with_algorithm(QueryAlgorithm::JoinBased))
            .results
            .into_iter()
            .map(|r| r.node)
            .collect();
        let mut b: Vec<_> = engine
            .run(&q, &elca.with_algorithm(QueryAlgorithm::StackBased))
            .results
            .into_iter()
            .map(|r| r.node)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "ELCA disagreement on {words:?}");
    }
}

#[test]
fn topk_is_the_ranked_prefix() {
    let engine = corpus_engine();
    let q = engine.query("planted1 planted2").unwrap();
    let mut complete = engine.run(&q, &QueryRequest::complete(Semantics::Elca)).results;
    sort_ranked(&mut complete);
    for k in [1, 3, 10, 50] {
        let top = engine
            .run(&q, &QueryRequest::top_k(k, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin))
            .results;
        assert_eq!(top.len(), k.min(complete.len()));
        for (i, r) in top.iter().enumerate() {
            assert!(
                (r.score - complete[i].score).abs() < 1e-4,
                "k={k} rank {i}: {} vs {}",
                r.score,
                complete[i].score
            );
        }
    }
}

#[test]
fn hybrid_routes_and_matches_topk_scores() {
    let engine = corpus_engine();
    // Correlated pair: should go to the top-K join.
    let q = engine.query("planted1 planted2").unwrap();
    let hy = engine.run(&q, &QueryRequest::top_k(5, Semantics::Elca)).results;
    let tk = engine
        .run(&q, &QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin))
        .results;
    assert_eq!(hy.len(), tk.len());
    for (a, b) in hy.iter().zip(&tk) {
        assert!((a.score - b.score).abs() < 1e-4);
    }
}

#[test]
fn persistence_roundtrip_on_generated_corpus() {
    let engine = corpus_engine();
    let path = TempPath::new("xtk_e2e");
    write_index(engine.index(), &path, WriteIndexOptions { include_scores: true, ..Default::default() }).unwrap();
    let loaded = read_index(&path).unwrap();
    assert_eq!(loaded.terms.len(), engine.index().vocab_size());
    for term in ["planted1", "planted2", "planted3"] {
        let orig = engine.index().term_by_str(term).unwrap();
        let disk = &loaded.terms[term];
        assert_eq!(disk.columns, orig.columns, "{term} columns");
        assert_eq!(disk.scores.as_ref().unwrap().len(), orig.scores.len());
    }
}

#[test]
fn rdil_and_indexed_agree_on_formal_ranking() {
    let engine = corpus_engine();
    let bx = BaselineIndex::new(engine.index());
    let q = engine.query("planted1 planted3").unwrap();
    let mut complete =
        indexed_search(&bx, &q, &IndexedOptions { semantics: Semantics::Elca, with_scores: true });
    sort_ranked(&mut complete);
    let (top, _) = rdil_search(&bx, &q, &RdilOptions { k: 5, semantics: Semantics::Elca });
    assert_eq!(top.len(), 5.min(complete.len()));
    for (i, r) in top.iter().enumerate() {
        assert!((r.score - complete[i].score).abs() < 1e-4, "rank {i}");
    }
}

#[test]
fn cli_refuses_the_unserved_baselines_with_usage() {
    let path = TempPath::new("xtk_e2e_cli");
    std::fs::write(&path, "<bib><paper><title>xml keyword search</title></paper></bib>").unwrap();
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_xtk"))
            .arg(&*path)
            .args(["xml", "search"])
            .args(args)
            .output()
            .expect("run xtk")
    };
    for args in [
        &["--engine", "rdil"][..],
        &["--all", "--engine", "rdil"],
        &["--engine", "indexed"],
        &["--all", "--engine", "indexed"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: xtk"), "{args:?}");
    }
    for args in [&["--all", "--engine", "stack"][..], &["--engine", "auto"]] {
        let out = run(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("/bib/paper/title"), "{args:?}");
    }
    // The query language refuses them too, with the offending knob named.
    let out = run(&["alg=rdil"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let want = "invalid algorithm value `rdil` (expected auto, join, stack or topk)";
    assert!(err.contains(want), "{err}");
}
