//! `xtk` — a small CLI for keyword search over an XML file.
//!
//! ```text
//! xtk <file.xml> <query…> [--top K] [--slca] [--all] [--engine join|stack|indexed|rdil]
//! xtk <file.xml> --batch <queries.txt> [--top K] [--all] [--slca] [--stats]
//!
//! A query is keywords optionally followed by `knob=value` pairs from the
//! query language (`xml search k=5 sem=slca rules=prune,push`); knobs
//! override the command-line flags for that query.  Parse and binding
//! errors are reported with a caret under the offending token.
//!
//!   --top K     return the K best results (default: top 10)
//!   --all       return the complete ranked result set
//!   --slca      SLCA semantics instead of ELCA
//!   --shards N  partition the corpus into N document shards (in a temp
//!               directory) and serve scatter-gather with the TA merge
//!               threshold; answers are bit-identical to --shards 1.
//!               Join-based engines only (join/auto).
//!   --engine E  answer with a specific engine (complete set: join, stack,
//!               indexed; top-K: join [star join], auto [hybrid planner],
//!               or rdil)
//!   --batch F   read one keyword query per line from F and serve them as
//!               one batch (dedup + result cache + cross-query planning);
//!               the shared --top/--all/--slca settings apply to every
//!               line.  Blank lines and #-comments are skipped.
//!   --explain   print the logical plan, the rewrite-rule log, and the
//!               lowered physical plan instead of results; with --trace,
//!               also execute and annotate the plan with per-node actuals
//!   --trace     print the recorded execution trace (JSON lines) after
//!               the results — real events, not a re-simulation
//!   --stats     print corpus statistics and the execution metrics
//!               (with --batch: the batch scheduling metrics)
//! ```
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin xtk -- corpus.xml xml keyword search --top 5
//! ```

use std::process::exit;
use xtk::core::batch::run_batch;
use xtk::core::engine::Engine;
use xtk::core::plan::{annotate_executed, compile};
use xtk::core::query::Semantics;
use xtk::core::request::{Executor, QueryAlgorithm, QueryRequest};
use xtk::core::shard::{write_sharded, ShardedEngine};
use xtk::core::{BatchItem, BatchOptions, ResultCache, TraceLevel};

fn usage() -> ! {
    eprintln!(
        "usage: xtk <file.xml> <keywords…> [--top K] [--all] [--slca] \
         [--shards N] [--engine join|stack|indexed|auto|rdil] [--batch FILE] \
         [--explain] [--trace] [--stats]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let file = &args[0];
    let mut keywords: Vec<String> = Vec::new();
    let mut top: Option<usize> = None;
    let mut all = false;
    let mut slca = false;
    let mut stats = false;
    let mut explain = false;
    let mut trace = false;
    let mut engine_name = "join".to_string();
    let mut batch_file: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                i += 1;
                top = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--all" => all = true,
            "--slca" => slca = true,
            "--stats" => stats = true,
            "--explain" => explain = true,
            "--trace" => trace = true,
            "--engine" => {
                i += 1;
                engine_name = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--batch" => {
                i += 1;
                batch_file = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--shards" => {
                i += 1;
                shards = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            w if !w.starts_with("--") => keywords.push(w.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if keywords.is_empty() && batch_file.is_none() {
        usage();
    }

    let xml = match std::fs::read_to_string(file) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("xtk: cannot read {file}: {e}");
            exit(1);
        }
    };
    let t0 = std::time::Instant::now();
    let engine = match Engine::from_xml(&xml) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("xtk: {e}");
            exit(1);
        }
    };
    let built = t0.elapsed();
    if stats {
        eprintln!(
            "indexed {} nodes / {} terms in {:.2?}",
            engine.tree().len(),
            engine.index().vocab_size(),
            built
        );
    }

    // --shards: materialize the sharded layout in a scratch directory and
    // serve every query scatter-gather through it.
    let shard_dir = shards.map(|n| {
        let dir = std::env::temp_dir().join(format!("xtk_cli_shards_{}", std::process::id()));
        match write_sharded(engine.index(), &dir, n) {
            Ok(written) => {
                if stats {
                    eprintln!("sharded into {written} shard(s) at {}", dir.display());
                }
            }
            Err(e) => {
                eprintln!("xtk: cannot shard corpus: {e}");
                exit(1);
            }
        }
        dir
    });
    let cleanup = || {
        if let Some(dir) = &shard_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    };
    let sharded = shard_dir.as_ref().map(|dir| {
        match ShardedEngine::open(engine.index(), dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtk: cannot open sharded corpus: {e}");
                std::fs::remove_dir_all(dir).ok();
                exit(1);
            }
        }
    });

    if let Some(batch_path) = &batch_file {
        let text = match std::fs::read_to_string(batch_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtk: cannot read {batch_path}: {e}");
                exit(1);
            }
        };
        let semantics = if slca { Semantics::Slca } else { Semantics::Elca };
        let base = if all {
            QueryRequest::complete(semantics)
        } else {
            QueryRequest::top_k(top.unwrap_or(10), semantics)
        };
        let mut lines: Vec<String> = Vec::new();
        let mut items: Vec<BatchItem> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match compile(engine.index(), line, &base) {
                Ok((q, req)) => {
                    items.push(BatchItem::new(q, req));
                    lines.push(line.to_string());
                }
                Err(e) => {
                    eprintln!("xtk: {}", e.render(line));
                    cleanup();
                    exit(1);
                }
            }
        }
        let t0 = std::time::Instant::now();
        let report = match &sharded {
            Some(s) => {
                let cache = ResultCache::default();
                match run_batch(s, &cache, &BatchOptions::default(), &items) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("xtk: sharded batch failed: {e}");
                        cleanup();
                        exit(1);
                    }
                }
            }
            None => engine.run_batch_report(&items, &BatchOptions::default()),
        };
        let elapsed = t0.elapsed();
        for (line, resp) in lines.iter().zip(&report.responses) {
            println!("## {line}");
            for (rank, r) in resp.results.iter().enumerate() {
                println!("{:>3}. {}", rank + 1, engine.describe(r));
            }
        }
        if stats {
            eprintln!("{} quer(ies) in {:.2?}", items.len(), elapsed);
            eprintln!("{}", report.metrics.to_json());
        }
        cleanup();
        return;
    }

    let semantics = if slca { Semantics::Slca } else { Semantics::Elca };
    let algorithm = if sharded.is_some() {
        // The scatter-gather merge is join-based; other engine names
        // cannot honor --shards.
        match engine_name.as_str() {
            "join" | "auto" => QueryAlgorithm::JoinBased,
            _ => {
                cleanup();
                usage()
            }
        }
    } else {
        match (all, engine_name.as_str()) {
            (true, "join") => QueryAlgorithm::JoinBased,
            (true, "stack") => QueryAlgorithm::StackBased,
            (true, "indexed") => QueryAlgorithm::IndexBased,
            (false, "join") => QueryAlgorithm::TopKJoin,
            (false, "auto") => QueryAlgorithm::Auto,
            (false, "rdil") => QueryAlgorithm::Rdil,
            _ => usage(),
        }
    };
    let mut base = if all {
        QueryRequest::complete(semantics)
    } else {
        QueryRequest::top_k(top.unwrap_or(10), semantics)
    }
    .with_algorithm(algorithm);
    if trace {
        base = base.with_trace(TraceLevel::Events);
    }

    let text = keywords.join(" ");
    let (query, req) = match compile(engine.index(), &text, &base) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtk: {}", e.render(&text));
            cleanup();
            exit(1);
        }
    };

    if explain {
        let report = match &sharded {
            Some(s) => s.explain_plan(&query, &req),
            None => engine.explain_plan(&query, &req),
        };
        print!("{report}");
        if trace {
            // --explain --trace: execute for real and re-render the one
            // plan tree with per-node actuals (decodes, join steps,
            // strategies) and per-store io deltas from the live trace.
            let resp = match &sharded {
                Some(s) => match s.execute(&query, &req) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("xtk: sharded query failed: {e}");
                        cleanup();
                        exit(1);
                    }
                },
                None => engine.run(&query, &req),
            };
            if let Some(tr) = &resp.trace {
                println!("\n== executed plan ==");
                print!("{}", annotate_executed(engine.index(), &report, tr));
            }
        }
        cleanup();
        return;
    }

    let t0 = std::time::Instant::now();
    let resp = match &sharded {
        Some(s) => match s.execute(&query, &req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtk: sharded query failed: {e}");
                cleanup();
                exit(1);
            }
        },
        None => engine.run(&query, &req),
    };
    let elapsed = t0.elapsed();

    for (rank, r) in resp.results.iter().enumerate() {
        println!("{:>3}. {}", rank + 1, engine.describe(r));
    }
    if let Some(tr) = &resp.trace {
        print!("{}", tr.to_json_lines());
    }
    if stats {
        eprintln!("{} result(s) in {:.2?} via {:?}", resp.results.len(), elapsed, resp.engine);
        eprintln!("{}", resp.metrics.to_json());
    }
    cleanup();
}
