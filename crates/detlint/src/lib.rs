//! `detlint` — the workspace's determinism & numeric-safety lint pass.
//!
//! The PR-1 determinism contract (DESIGN.md §8) says every pipeline
//! stage must produce bit-for-bit identical results for a fixed seed,
//! regardless of thread count. That contract is easy to break silently:
//! one `HashMap` iteration feeding a report, one `Instant::now()` in a
//! feature, one `thread_rng()` in a simulator patch. `detlint` turns
//! the contract into named, enforced rules:
//!
//! | rule | forbids |
//! |------|---------|
//! | D001 | `HashMap`/`HashSet` in crates whose iteration order feeds output |
//! | D002 | wall-clock reads outside `crates/bench` and `perfbench/` |
//! | D003 | unseeded entropy anywhere |
//! | D004 | `unwrap()`/`expect()`/`panic!` in library non-test code |
//! | D005 | iterator float reductions chained onto `par_map` results |
//! | D006 | panic sites reachable from a declared hot-path root |
//! | D007 | allocation sites reachable from a declared hot-path root |
//! | D008 | nondeterminism sources flowing into a declared hot-path root |
//!
//! D001–D005 are per-file token rules. D006–D008 are *interprocedural*:
//! a symbol table ([`items`]), a workspace call graph ([`callgraph`]),
//! and a worklist fixpoint over a `MayPanic`/`MayAlloc`/`NondetSource`
//! effect lattice ([`effects`]) prove every function reachable from the
//! `[[hotpath]]` roots declared in `detlint.toml` free of the armed
//! effects — with the full root→site call chain in each diagnostic.
//!
//! Exceptions are explicit and reasoned: inline
//! `// detlint: allow(D00X) reason=...` comments, `[[allow]]` entries,
//! or call-graph-cutting `[[assume]]` entries in `detlint.toml`. A
//! waiver without a reason is itself a diagnostic.
//!
//! The analysis is a hand-rolled lexer plus structural passes — no
//! external dependencies, no type information. Rules are tuned so that
//! their false positives are rare and *loud*, never silent.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod effects;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use config::{Config, ConfigError};
pub use diag::{Diagnostic, Severity};
pub use rules::{RuleInfo, RULES};

use std::collections::BTreeMap;
use std::path::Path;

/// One source file handed to the checker: the rule profile comes from
/// `rel_path`, the interprocedural qnames from `crate_name`.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Cargo package name of the owning crate (dashes allowed; they
    /// normalize to underscores in qnames).
    pub crate_name: String,
    /// Full file text.
    pub src: String,
}

/// Outcome of checking a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics (including waived ones), in reporting order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were lexed and checked.
    pub files_scanned: usize,
}

impl Report {
    /// Number of non-waived errors — the exit-code driver.
    pub fn blocking(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_blocking()).count()
    }
}

/// Checks a single source text as if it lived at `rel_path` (which
/// decides the rule profile). Used by the fixture self-tests; the
/// interprocedural pass sees only this one file.
pub fn check_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let file = SourceFile {
        rel_path: rel_path.to_string(),
        crate_name: guess_crate_name(rel_path),
        src: src.to_string(),
    };
    check_sources(std::slice::from_ref(&file), cfg).diagnostics
}

/// Derives a crate name from a workspace-relative path when the real
/// Cargo package name is unavailable (fixture checks).
fn guess_crate_name(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or("workspace")
        .to_string()
}

/// Builds the call graph and runs the effect fixpoint over the strict-
/// profile files of `files`. Also used by `detlint effects`.
pub fn analyze_effects(
    files: &[SourceFile],
    cfg: &Config,
) -> (callgraph::Graph, effects::Analysis) {
    let mut fn_lists = Vec::new();
    let mut codes: Vec<Vec<lexer::Tok>> = Vec::new();
    for f in files {
        // Only strict library profiles join the graph: test/example/
        // bench code cannot sit on a serving hot path.
        let Some(ruleset) = rules::classify(&f.rel_path) else {
            continue;
        };
        if !ruleset.d004 {
            continue;
        }
        let code: Vec<lexer::Tok> = lexer::lex(&f.src)
            .into_iter()
            .filter(|t| !t.is_comment())
            .collect();
        fn_lists.push(items::extract(&f.rel_path, &f.crate_name, &code));
        codes.push(code);
    }
    let graph = callgraph::Graph::build(fn_lists, &codes);
    let analysis = effects::analyze(&graph, &codes, cfg);
    (graph, analysis)
}

/// Checks a set of files: per-file rules D001–D005, the interprocedural
/// hot-path rules D006–D008, waiver application, and staleness warnings
/// (W001 unused allow, W002 unused inline waiver, W003 unused assume).
pub fn check_sources(files: &[SourceFile], cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut allow_used = vec![false; cfg.allows.len()];

    // Interprocedural pass first; its diagnostics are anchored at the
    // offending *sites*, so each file's inline waivers can cover them.
    let (graph, analysis) = analyze_effects(files, cfg);
    let mut pending = effects::root_diagnostics(&graph, &analysis, cfg);
    for a in &cfg.assumes {
        if graph.resolve_qname(&a.func).is_empty() {
            pending.push(Diagnostic {
                rule: "W003",
                severity: Severity::Warning,
                path: "detlint.toml".to_string(),
                line: a.config_line,
                col: 1,
                end_line: a.config_line,
                message: format!("assume entry `{}` resolves to no function", a.func),
                help: "fix the qualified name or remove the stale entry".to_string(),
                waived: false,
                waive_reason: None,
            });
        }
    }

    for f in files {
        let Some(ruleset) = rules::classify(&f.rel_path) else {
            continue;
        };
        report.files_scanned += 1;
        let all = lexer::lex(&f.src);
        let code: Vec<lexer::Tok> = all.iter().filter(|t| !t.is_comment()).cloned().collect();

        let mut diags = rules::run_rules(&f.rel_path, &code, ruleset);
        // Merge in this file's interprocedural findings before waiver
        // application so site-level waivers discharge them.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].path == f.rel_path {
                diags.push(pending.remove(i));
            } else {
                i += 1;
            }
        }
        let (mut waivers, mut malformed) = rules::inline_waivers(&f.rel_path, &all, &code);
        let unused = rules::apply_inline_waivers(&f.rel_path, &mut diags, &mut waivers);
        diags.append(&mut malformed);
        diags.extend(unused);

        // Config allowlist applies after inline waivers.
        for d in diags.iter_mut() {
            if d.waived || d.severity != Severity::Error {
                continue;
            }
            for (k, entry) in cfg.allows.iter().enumerate() {
                if entry.covers(d.rule, &d.path, d.line) {
                    d.waived = true;
                    d.waive_reason = Some(entry.reason.clone());
                    allow_used[k] = true;
                    break;
                }
            }
        }
        report.diagnostics.append(&mut diags);
    }

    // Whatever is still pending is anchored outside the checked files
    // (config-resolution errors at detlint.toml).
    report.diagnostics.append(&mut pending);

    // Stale allowlist entries are reported (as warnings) so the config
    // shrinks as violations are fixed.
    for (k, used) in allow_used.iter().enumerate() {
        if !used {
            let entry = &cfg.allows[k];
            report.diagnostics.push(Diagnostic {
                rule: "W001",
                severity: Severity::Warning,
                path: "detlint.toml".to_string(),
                line: entry.config_line,
                col: 1,
                end_line: entry.config_line,
                message: format!(
                    "allow entry ({} at {}) matches no diagnostic",
                    entry.rule, entry.path
                ),
                help: "remove the stale entry from detlint.toml".to_string(),
                waived: false,
                waive_reason: None,
            });
        }
    }

    diag::sort(&mut report.diagnostics);
    report
}

/// Reads every policed `.rs` file under `root`, resolving each file's
/// Cargo package name from its crate's `Cargo.toml`.
///
/// # Errors
///
/// Returns an error when the tree cannot be read or a file is not
/// valid UTF-8.
pub fn workspace_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let files =
        walk::rust_sources(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let names = crate_names(root);
    let mut out = Vec::new();
    for rel in files {
        if rules::classify(&rel).is_none() {
            continue;
        }
        let full = root.join(&rel);
        let src = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .and_then(|dir| names.get(&format!("crates/{dir}")).cloned())
            .or_else(|| names.get("").cloned())
            .unwrap_or_else(|| guess_crate_name(&rel));
        out.push(SourceFile {
            rel_path: rel,
            crate_name,
            src,
        });
    }
    Ok(out)
}

/// Maps crate directory (`crates/<dir>`, or `""` for the workspace
/// root package) to its Cargo package name.
fn crate_names(root: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if let Some(name) = package_name(&root.join("Cargo.toml")) {
        out.insert(String::new(), name);
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let dir = e.path();
            if let Some(name) = package_name(&dir.join("Cargo.toml")) {
                if let Some(d) = dir.file_name().and_then(|s| s.to_str()) {
                    out.insert(format!("crates/{d}"), name);
                }
            }
        }
    }
    out
}

/// Extracts `name = "..."` from a `[package]` section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_package = l == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = l.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Checks every policed `.rs` file under `root` against `cfg`.
///
/// # Errors
///
/// Returns an error when the tree cannot be read or a file is not
/// valid UTF-8 — never for rule violations (those are diagnostics).
pub fn check_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace_sources(root)?;
    Ok(check_sources(&files, cfg))
}

/// Renders the call-graph + effects JSON artifact for the workspace
/// (the `detlint effects` subcommand).
///
/// # Errors
///
/// Same failure modes as [`check_workspace`].
pub fn effects_workspace(root: &Path, cfg: &Config) -> Result<String, String> {
    let files = workspace_sources(root)?;
    let (graph, analysis) = analyze_effects(&files, cfg);
    Ok(effects::render_effects_json(&graph, &analysis, cfg))
}
