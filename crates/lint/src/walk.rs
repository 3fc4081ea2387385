//! Workspace discovery: find the root and collect every `.rs` file the
//! lints should look at.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.  `tests/`, `benches/` and
/// `examples/` are exempt from every rule, and `fixtures/` holds the lint
/// crate's own deliberately-bad inputs.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "tests", "benches", "examples"];

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if let Ok(text) = fs::read_to_string(d.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects `(repo_relative, absolute)` paths of all `.rs` files under
/// `root`, sorted by relative path so every run reports in the same
/// order.
pub fn collect_rs(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    visit(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            visit(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("lint crate lives inside the workspace");
        assert!(root.join("ci.sh").exists() || root.join("Cargo.toml").exists());
        let files = collect_rs(&root).unwrap();
        assert!(
            files.iter().any(|(rel, _)| rel == "crates/lint/src/walk.rs"),
            "walker must find its own source"
        );
        assert!(
            files.iter().any(|(rel, _)| rel == "crates/baselines/src/baseline/rdil.rs"),
            "the baselines crate is scanned like every other"
        );
        assert!(
            !files.iter().any(|(rel, _)| rel.contains("fixtures/")),
            "fixtures are not scanned"
        );
        // Sorted and unique.
        let mut sorted = files.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, files);
    }
}
