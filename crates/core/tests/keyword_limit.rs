//! The engines track the keywords a node has seen in a `u32` mask, so a
//! query may name at most `MAX_KEYWORDS` of them.  One more used to reach
//! the star-join bucket's `full_mask` assertion and abort the process;
//! both binders now answer it with a typed error, and a query at the limit
//! still runs on every executor.

use xtk_core::plan::{compile, PlanError};
use xtk_core::query::{Query, QueryError};
use xtk_core::request::{DiskEngine, Executor, QueryRequest};
use xtk_core::semantics::MAX_KEYWORDS;
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{Engine, Semantics};
use xtk_index::disk::{write_index, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_xml::testutil::TempPath;

fn words(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("w{i}")).collect()
}

#[test]
fn one_keyword_over_the_limit_is_an_error_and_the_limit_runs_everywhere() {
    let all = words(MAX_KEYWORDS + 1);
    // Two papers hold every word, so the query at the limit has results.
    let xml = format!("<bib><paper>{0}</paper><paper>{0}</paper></bib>", all.join(" "));
    let engine = Engine::from_xml(&xml).unwrap();
    let ix = engine.index();

    let file = TempPath::new("xtk_kwlimit_store");
    write_index(ix, &file, WriteIndexOptions::default()).unwrap();
    let store = DiskColumnStore::open(&file).unwrap();
    let disk = DiskEngine::new(ix, &store);
    let dir = TempPath::new("xtk_kwlimit_shards");
    write_sharded(ix, &dir, 2).unwrap();
    let sharded = ShardedEngine::open(ix, &dir).unwrap();
    let executors: [(&str, &dyn Executor); 3] =
        [("memory", &engine), ("disk", &disk), ("sharded", &sharded)];

    // Over the limit: both binders refuse, so a query that enters as text
    // or as a word list never reaches an executor.  (`Executor::execute`
    // takes an already bound `Query`; one built by hand with 33 terms
    // bypasses the binders and is not covered here.)
    let base = QueryRequest::top_k(3, Semantics::Elca);
    assert_eq!(
        Query::from_words(ix, &all),
        Err(QueryError::TooManyKeywords(MAX_KEYWORDS + 1))
    );
    let bound = compile(ix, &all.join(" "), &base);
    assert!(
        matches!(bound, Err(PlanError::TooManyKeywords { count, .. }) if count == MAX_KEYWORDS + 1),
        "{bound:?}"
    );
    // At the limit: binds, and every executor answers.
    let (query, req) = compile(ix, &all[..MAX_KEYWORDS].join(" "), &base).unwrap();
    for (name, exec) in executors {
        assert_eq!(exec.execute(&query, &req).unwrap().results.len(), 2, "{name}");
    }
    // The star join itself (the code that used to abort) at k = 32.
    let star = format!("{} alg=topk", all[..MAX_KEYWORDS].join(" "));
    let (query, req) = compile(ix, &star, &base).unwrap();
    assert_eq!(engine.run(&query, &req).results.len(), 2);

}
