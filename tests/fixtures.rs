//! The lint configuration, checked against the tree and against fixtures.
//!
//! The rules of DESIGN.md §7 that are rustc or clippy lints live in the
//! workspace lints of the root `Cargo.toml`, the `clippy.toml` files and
//! the crate roots' lint attributes.  `shipped_tree_has_no_hard_violations`
//! runs clippy over the workspace.  The fixture tests copy that
//! configuration into a throwaway workspace with one crate per scope,
//! compile the sources in `tests/fixtures/` as its modules, and check that
//! each bad fixture fails with its lint and that each ok fixture passes
//! with its `#[expect]`s.  `every_manifest_inherits_the_workspace_lints`
//! checks what neither cargo nor clippy can show: that the configuration
//! is still in place.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use xtk_xml::testutil::TempPath;

/// The root package's manifest directory is the workspace root.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("mkdir");
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// The inner attributes (`#![...]`, possibly spanning lines) of a crate
/// root, one after another.
fn inner_attributes(src: &str) -> String {
    let mut out = String::new();
    let mut depth = 0i32;
    for line in src.lines() {
        if depth == 0 && !line.starts_with("#![") {
            continue;
        }
        depth += line.matches('[').count() as i32 - line.matches(']').count() as i32;
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The `[workspace.lints.*]` tables of a root manifest.
fn workspace_lints(manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `true` when the manifest's `[lints]` table says `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.trim() == "[lints]";
        } else if inside && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Each fixture crate: its name, the crate of the real tree whose
/// configuration it copies (`None`: the workspace defaults, no crate-root
/// attributes), and the fixtures it compiles as modules.
const CRATES: &[(&str, Option<&str>, &[&str])] = &[
    ("lib", Some("crates/xml"), &["bad_panics", "bad_discard", "ok_clean", "bad_time"]),
    ("core", Some("crates/core"), EXEC_FIXTURES),
    ("index", Some("crates/index"), EXEC_FIXTURES),
    ("obs", Some("crates/obs"), &["bad_time"]),
    // An `allow` under `forbid` is an error that stops the crate before
    // clippy's passes run, so it gets a crate of its own.
    ("obs-allow", Some("crates/obs"), &["obs_allow_time"]),
    ("bare", None, &[]),
];

const EXEC_FIXTURES: &[&str] = &["bad_hash_iter", "ok_hash_sorted", "bad_time", "bad_float_eq"];

/// The lints every library crate root denies: the seven of L1 (panic
/// freedom) and L9's discarded `Result`s.
const ROOT_LINTS: [&str; 8] = [
    "expect_used",
    "indexing_slicing",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "unwrap_used",
    "let_underscore_must_use",
];

/// One diagnostic of the fixture run: the file it points at
/// (`<crate>/src/<module>.rs`) and its code (`clippy::panic`, `E0453`, …).
#[derive(Debug)]
struct Diag {
    file: String,
    code: String,
}

/// Builds the fixture workspace, runs clippy over it once, and returns
/// every diagnostic that carries a code.
fn fixture_diagnostics() -> &'static [Diag] {
    static DIAGS: OnceLock<Vec<Diag>> = OnceLock::new();
    DIAGS.get_or_init(|| {
        let root = repo_root();
        let fixtures = root.join("tests/fixtures");
        let ws = TempPath::new("xtk-clippy-fixtures");
        let members: Vec<String> =
            CRATES.iter().map(|(name, _, _)| format!("\"{name}\"")).collect();
        write(
            &ws.join("Cargo.toml"),
            &format!(
                "[workspace]\nmembers = [{}]\nresolver = \"2\"\n\n{}",
                members.join(", "),
                workspace_lints(&read(&root.join("Cargo.toml")))
            ),
        );
        for (name, real, modules) in CRATES {
            let dir = ws.join(name);
            write(
                &dir.join("Cargo.toml"),
                &format!(
                    "[package]\nname = \"fixture-{name}\"\nversion = \"0.0.0\"\n\
                     edition = \"2021\"\npublish = false\n\n[lints]\nworkspace = true\n"
                ),
            );
            let mut lib = match real {
                Some(real) => {
                    let real = root.join(real);
                    let config = if real.join("clippy.toml").exists() {
                        real.join("clippy.toml")
                    } else {
                        root.join("clippy.toml")
                    };
                    write(&dir.join("clippy.toml"), &read(&config));
                    inner_attributes(&read(&real.join("src/lib.rs")))
                }
                None => read(&fixtures.join("root_missing_forbid.rs")),
            };
            for m in *modules {
                lib.push_str(&format!("pub mod {m};\n"));
                write(&dir.join(format!("src/{m}.rs")), &read(&fixtures.join(format!("{m}.rs"))));
            }
            write(&dir.join("src/lib.rs"), &lib);
        }
        let out = Command::new(env!("CARGO"))
            .args(["clippy", "--offline", "--workspace", "--all-targets", "--keep-going"])
            .args(["--message-format=json", "--", "-D", "warnings"])
            .current_dir(&*ws)
            .env("CARGO_TARGET_DIR", ws.join("target"))
            .output()
            .expect("run cargo clippy");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut diags = Vec::new();
        for line in stdout.lines() {
            // A message's own code; its primary location is the first
            // `--> file:line:col` of its rendered text (the notes that point
            // at the crate root's lint attributes come later).
            let field = |key: &str, end: char| {
                let start = line.find(key)? + key.len();
                let len = line.get(start..)?.find(end)?;
                line.get(start..start + len).map(str::to_string)
            };
            let code = field("\"code\":{\"code\":\"", '"');
            if let (Some(code), Some(file)) = (code, field("--> ", ':')) {
                diags.push(Diag { file, code });
            }
        }
        assert!(
            !diags.is_empty(),
            "the fixture run produced no diagnostics — is clippy installed?\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        diags
    })
}

/// The codes reported against `<krate>/src/<module>.rs`, sorted and deduplicated.
fn codes(krate: &str, module: &str) -> Vec<String> {
    let file = format!("{krate}/src/{module}.rs");
    let mut codes: Vec<String> =
        fixture_diagnostics().iter().filter(|d| d.file == file).map(|d| d.code.clone()).collect();
    codes.sort();
    codes.dedup();
    codes
}

#[test]
fn injected_unwraps_are_counted() {
    let got = codes("lib", "bad_panics");
    for lint in &ROOT_LINTS[..7] {
        assert!(got.contains(&format!("clippy::{lint}")), "clippy::{lint} missing from {got:?}");
    }
}

#[test]
fn discarded_results_fail() {
    assert_eq!(codes("lib", "bad_discard"), ["clippy::let_underscore_must_use"]);
}

#[test]
fn clean_library_code_is_silent() {
    assert_eq!(codes("lib", "ok_clean"), Vec::<String>::new());
}

#[test]
fn hash_order_leakage_fails() {
    for krate in ["core", "index"] {
        let got = codes(krate, "bad_hash_iter");
        for lint in ["clippy::disallowed_methods", "clippy::iter_over_hash_type"] {
            assert!(got.iter().any(|c| c == lint), "{krate}: {lint} missing from {got:?}");
        }
    }
}

#[test]
fn sorted_or_aggregated_hash_iteration_passes() {
    for krate in ["core", "index"] {
        assert_eq!(codes(krate, "ok_hash_sorted"), Vec::<String>::new(), "{krate}");
    }
}

#[test]
fn wall_clock_time_fails_in_exec_scope() {
    for krate in ["core", "index"] {
        let got = codes(krate, "bad_time");
        assert!(got.iter().any(|c| c == "clippy::disallowed_methods"), "{krate}: {got:?}");
        assert!(got.iter().any(|c| c == "clippy::disallowed_types"), "{krate}: {got:?}");
    }
    // The same file is fine outside the query-execution crates (the bench
    // crate measures time for a living).
    assert_eq!(codes("lib", "bad_time"), Vec::<String>::new());
}

#[test]
fn wall_clock_time_fails_in_obs_scope() {
    let got = codes("obs", "bad_time");
    assert!(got.iter().any(|c| c == "clippy::disallowed_methods"), "{got:?}");
    // L5 has no escape: an `allow` under the crate root's `forbid` is itself
    // an error (E0453), and the crate does not compile.
    let allowed = codes("obs-allow", "obs_allow_time");
    assert!(allowed.iter().any(|c| c == "E0453"), "{allowed:?}");
}

#[test]
fn float_equality_fails_in_exec_scope() {
    for krate in ["core", "index"] {
        let got = codes(krate, "bad_float_eq");
        assert!(got.iter().any(|c| c == "clippy::float_cmp"), "{krate}: {got:?}");
    }
}

#[test]
fn removed_forbid_unsafe_fails() {
    let got = codes("bare", "lib");
    assert_eq!(got, vec!["unsafe_code".to_string()]);
}

/// The tree itself: clippy with every warning an error, over every target
/// of every member.  The run has its own target directory, so it never
/// waits on the build that runs this test.
#[test]
fn shipped_tree_has_no_hard_violations() {
    let root = repo_root();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--workspace", "--all-targets", "--", "-D", "warnings"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target").join("clippy"))
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy -D warnings failed (is the clippy component installed?):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// What cargo and clippy cannot show: a member that does not inherit the
/// workspace lints silently drops `unsafe_code = "forbid"`, a crate root
/// that drops a denied lint silently allows it, and a `clippy.toml` that
/// loses its time list silently allows the wall clock.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        workspace_lints(&root_manifest).contains("unsafe_code = \"forbid\""),
        "Cargo.toml: [workspace.lints.rust] lacks unsafe_code = \"forbid\""
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        if dir.join("Cargo.toml").exists() {
            manifests.push(dir.join("Cargo.toml"));
            roots.push(dir.join("src/lib.rs"));
        }
    }
    assert!(manifests.len() >= 8, "expected the root and seven crates, found {manifests:?}");
    for m in &manifests {
        let text = read(m);
        let inherits = inherits_workspace_lints(&text);
        assert!(inherits, "{}: lacks `[lints] workspace = true`", m.display());
    }
    for r in &roots {
        let attrs = inner_attributes(&read(r));
        for lint in ROOT_LINTS {
            let denied = attrs.contains(&format!("clippy::{lint},"))
                || attrs.contains(&format!("clippy::{lint}\n"));
            assert!(denied, "{}: the crate root no longer denies clippy::{lint}", r.display());
        }
    }
    for krate in ["core", "index", "obs"] {
        let path = root.join("crates").join(krate).join("clippy.toml");
        let config = read(&path);
        for ty in ["std::time::Instant", "std::time::SystemTime"] {
            for name in [ty.to_string(), format!("{ty}::now")] {
                let listed = config.contains(&format!("path = \"{name}\""));
                assert!(listed, "{}: lacks {name}", path.display());
            }
        }
    }
}
