//! The determinism & numeric-safety rules (D001–D008), profile
//! classification, test-region detection, and inline waivers.
//!
//! Everything here is token-level analysis: no type information, no
//! name resolution. Each rule is deliberately written so that its
//! false-positive escape hatch is an *explicit, reasoned* waiver rather
//! than silence.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Static description of one rule, for `detlint rules` and help text.
pub struct RuleInfo {
    /// Rule id, e.g. `"D001"`.
    pub id: &'static str,
    /// One-line summary of what the rule forbids.
    pub summary: &'static str,
    /// The fix hint attached to every diagnostic of this rule.
    pub help: &'static str,
}

/// All enforced rules, in id order. D001–D005 are per-file token rules;
/// D006–D008 are interprocedural hot-path rules (see `effects`).
pub const RULES: [RuleInfo; 8] = [
    RuleInfo {
        id: "D001",
        summary: "order-nondeterministic `HashMap`/`HashSet` in a deterministic crate",
        help: "use `BTreeMap`/`BTreeSet` (or collect-and-sort), or waive with \
               `// detlint: allow(D001) reason=...`",
    },
    RuleInfo {
        id: "D002",
        summary: "wall-clock read (`Instant::now`/`SystemTime::now`/`UNIX_EPOCH`) outside \
                  `crates/bench`",
        help: "results must not depend on wall time; measure in `crates/bench`, or waive with \
               `// detlint: allow(D002) reason=...`",
    },
    RuleInfo {
        id: "D003",
        // detlint: allow(D003) reason=rule summary text names the banned device path; not an entropy read
        summary: "unseeded entropy (`thread_rng`/`from_entropy`/`OsRng`/`/dev/urandom`)",
        help: "all randomness must flow through the seeded `titan_sim::rng` streams",
    },
    RuleInfo {
        id: "D004",
        summary: "`unwrap()`/`expect()`/`panic!` in library non-test code",
        help: "propagate with `?` and the crate's error type, or waive a proven invariant with \
               `// detlint: allow(D004) reason=...`",
    },
    RuleInfo {
        id: "D005",
        summary: "iterator float reduction chained onto a `par_map` result",
        help: "reduce parallel results with the fixed-order helpers `parkit::sum_in_order` / \
               `parkit::fold_in_order`",
    },
    RuleInfo {
        id: "D006",
        summary: "a declared hot-path root can reach a panic site (indexing, unwrap-family, \
                  integer division, assert!)",
        help: "make the access infallible (iterators, `.get()`, pre-validated bounds) or waive \
               the proven invariant with `// detlint: allow(D006) reason=...`",
    },
    RuleInfo {
        id: "D007",
        summary: "a declared hot-path root can reach a steady-state allocation site",
        help: "hoist the allocation out of the loop into pre-sized buffers, or waive \
               warmup-only growth with `// detlint: allow(D007) reason=...`",
    },
    RuleInfo {
        id: "D008",
        summary: "a nondeterminism source (entropy, clock, thread id, pointer-as-int) flows \
                  into a declared hot-path root",
        help: "route randomness through seeded streams and remove clock/thread-id reads, or \
               waive with `// detlint: allow(D008) reason=...`",
    },
];

/// Looks up the canonical help text for a rule id.
fn rule_help(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.help)
        .unwrap_or("")
}

/// Which rules apply to a file (or to a token region within a file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// D001: no order-nondeterministic collections.
    pub d001: bool,
    /// D002: no wall-clock reads.
    pub d002: bool,
    /// D003: no unseeded entropy.
    pub d003: bool,
    /// D004: no unwrap/expect/panic in library code.
    pub d004: bool,
    /// D005: no iterator float reductions over `par_map` output.
    pub d005: bool,
}

impl RuleSet {
    /// Test code and `examples/`: determinism rules only (D001, D003).
    pub const RELAXED: RuleSet = RuleSet {
        d001: true,
        d002: false,
        d003: true,
        d004: false,
        d005: false,
    };

    /// `crates/bench` and `perfbench/`: timing is their whole point; only
    /// entropy is policed.
    pub const BENCH: RuleSet = RuleSet {
        d001: false,
        d002: false,
        d003: true,
        d004: false,
        d005: false,
    };

    /// Library sources: everything on; D001 per the crate list.
    pub fn strict(d001: bool) -> RuleSet {
        RuleSet {
            d001,
            d002: true,
            d003: true,
            d004: true,
            d005: true,
        }
    }
}

/// Crates whose iteration order feeds model training or trace output,
/// and therefore must not use hash-ordered collections (rule D001).
/// `detlint` polices itself so its diagnostics order is reproducible.
const D001_CRATES: [&str; 9] = [
    "crates/core/",
    "crates/mlkit/",
    "crates/titan-sim/",
    "crates/parkit/",
    "crates/detlint/",
    "crates/obskit/",
    "crates/streamd/",
    "crates/sbed/",
    "crates/driftd/",
];

/// Maps a workspace-relative path to the rules that apply to it.
/// Returns `None` for files detlint does not police at all.
pub fn classify(rel_path: &str) -> Option<RuleSet> {
    let p = rel_path;
    if !p.ends_with(".rs")
        || p.starts_with("vendor/")
        || p.starts_with("target/")
        || p.contains("/fixtures/")
    {
        return None;
    }
    if p.starts_with("crates/bench/") || p.starts_with("perfbench/") {
        return Some(RuleSet::BENCH);
    }
    let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("examples") || in_dir("benches") {
        return Some(RuleSet::RELAXED);
    }
    let d001 = D001_CRATES.iter().any(|c| p.starts_with(c));
    Some(RuleSet::strict(d001))
}

/// Byte-free token-span regions of test code: `#[cfg(test)]` items and
/// `#[test]` functions. Indices are into the *code* token slice.
pub fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attr(toks, i);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between the cfg(test) and the item.
        let mut j = attr_end + 1;
        while j < toks.len()
            && toks[j].is_punct('#')
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = scan_attr(toks, j).0 + 1;
        }
        let end = item_end(toks, j);
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// Scans an attribute starting at `#`; returns the index of the closing
/// `]` and whether the attribute marks test-only code.
fn scan_attr(toks: &[Tok], start: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = start + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            idents.push(&t.text);
        }
        j += 1;
    }
    // `#[test]` exactly, or `#[cfg(test)]`-style. `not(test)` means the
    // code is *compiled* outside tests, so it stays policed.
    let is_test = match idents.as_slice() {
        ["test"] => true,
        list => list.first() == Some(&"cfg") && list.contains(&"test") && !list.contains(&"not"),
    };
    (j.min(toks.len().saturating_sub(1)), is_test)
}

/// Finds the end of the item starting at `j`: the matching `}` of its
/// first body brace, or a terminating `;` outside parens/brackets.
fn item_end(toks: &[Tok], j: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = j;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return k;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            return matching_brace(toks, k);
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            depth += 1;
        } else if toks[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// An inline waiver parsed from a `// detlint: allow(...)` comment.
#[derive(Debug)]
pub struct InlineWaiver {
    /// Rule ids the waiver covers.
    pub rules: Vec<String>,
    /// The source line the waiver applies to.
    pub target_line: u32,
    /// Where the comment itself sits (for unused-waiver reporting).
    pub at: (u32, u32),
    /// The mandatory justification.
    pub reason: String,
    /// Set once the waiver suppressed at least one diagnostic.
    pub used: bool,
}

/// Extracts inline waivers from comment tokens. Malformed waivers
/// (missing rule list or empty reason) become `D000` diagnostics.
pub fn inline_waivers(
    path: &str,
    all_toks: &[Tok],
    code: &[Tok],
) -> (Vec<InlineWaiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    for t in all_toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim();
        let mut push_malformed = |msg: String| {
            diags.push(Diagnostic {
                rule: "D000",
                severity: Severity::Error,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                end_line: t.line,
                message: msg,
                help: "waiver syntax: `// detlint: allow(D00X) reason=why this is sound`"
                    .to_string(),
                waived: false,
                waive_reason: None,
            });
        };
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            push_malformed(format!("malformed detlint waiver `{body}`"));
            continue;
        };
        let (rule_list, tail) = args;
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() || !rules.iter().all(|r| RULES.iter().any(|k| k.id == r)) {
            push_malformed(format!("waiver names no known rule: `{body}`"));
            continue;
        }
        let Some(reason) = tail.trim().strip_prefix("reason=").map(str::trim) else {
            push_malformed("waiver missing `reason=` — every waiver must say why".to_string());
            continue;
        };
        if reason.is_empty() {
            push_malformed("waiver has an empty reason".to_string());
            continue;
        }
        // A trailing comment waives its own line; a standalone comment
        // waives the next line that carries code.
        let own_line_has_code = code.iter().any(|c| c.line == t.line && (c.col < t.col));
        let target_line = if own_line_has_code {
            t.line
        } else {
            code.iter()
                .map(|c| c.line)
                .find(|&l| l > t.line)
                .unwrap_or(t.line)
        };
        waivers.push(InlineWaiver {
            rules,
            target_line,
            at: (t.line, t.col),
            reason: reason.to_string(),
            used: false,
        });
    }
    (waivers, diags)
}

fn diag(rule: &'static str, path: &str, t: &Tok, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        end_line: t.line,
        message,
        help: rule_help(rule).to_string(),
        waived: false,
        waive_reason: None,
    }
}

/// Index of the `)` matching the `(` at `open` (or the last token when
/// unbalanced input degrades).
pub(crate) fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        if toks[k].is_punct('(') {
            depth += 1;
        } else if toks[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// Runs all applicable rules over the code tokens of one file.
pub fn run_rules(path: &str, code: &[Tok], rules: RuleSet) -> Vec<Diagnostic> {
    let regions = test_regions(code);
    let in_test = |idx: usize| regions.iter().any(|&(s, e)| idx >= s && idx <= e);
    // Inside test regions only the determinism rules remain active,
    // mirroring the relaxed profile for `tests/` directories.
    let effective = |idx: usize| -> RuleSet {
        if in_test(idx) {
            RuleSet {
                d001: rules.d001 && RuleSet::RELAXED.d001,
                d002: false,
                d003: rules.d003 && RuleSet::RELAXED.d003,
                d004: false,
                d005: false,
            }
        } else {
            rules
        }
    };

    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let r = effective(i);
        if t.kind == TokKind::Ident {
            check_ident(path, code, i, t, r, &mut out);
        } else if t.kind == TokKind::Str && r.d003 {
            // detlint: allow(D003) reason=pattern definitions the rule matches against; not entropy reads
            if t.text.contains("/dev/urandom") || t.text.contains("/dev/random") {
                out.push(diag(
                    "D003",
                    path,
                    t,
                    "reads OS entropy from a device path".to_string(),
                ));
            }
        }
    }
    out
}

fn check_ident(path: &str, code: &[Tok], i: usize, t: &Tok, r: RuleSet, out: &mut Vec<Diagnostic>) {
    let next = code.get(i + 1);
    let prev = i.checked_sub(1).and_then(|p| code.get(p));
    match t.text.as_str() {
        "HashMap" | "HashSet" if r.d001 => {
            out.push(diag(
                "D001",
                path,
                t,
                format!(
                    "order-nondeterministic `{}` in a crate whose iteration order feeds \
                     deterministic output",
                    t.text
                ),
            ));
        }
        // Only the read (`::now`) is a violation; the types are fine.
        "Instant" | "SystemTime"
            if r.d002
                && next.is_some_and(|n| n.is_punct(':'))
                && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && code.get(i + 3).is_some_and(|n| n.is_ident("now")) =>
        {
            out.push(diag(
                "D002",
                path,
                t,
                format!("wall-clock read `{}::now()` outside `crates/bench`", t.text),
            ));
        }
        "UNIX_EPOCH" if r.d002 => {
            out.push(diag(
                "D002",
                path,
                t,
                "wall-clock anchor `UNIX_EPOCH` outside `crates/bench`".to_string(),
            ));
        }
        "thread_rng" | "from_entropy" | "OsRng" | "getrandom" if r.d003 => {
            out.push(diag(
                "D003",
                path,
                t,
                format!("unseeded entropy source `{}`", t.text),
            ));
        }
        "unwrap" | "expect"
            if r.d004
                && prev.is_some_and(|p| p.is_punct('.'))
                && next.is_some_and(|n| n.is_punct('(')) =>
        {
            // The call's argument list may span lines (rustfmt splits
            // `.expect(\n"…")`); the diagnostic's span runs to the
            // closing paren so a trailing waiver on any of those lines
            // covers it.
            let close = matching_paren(code, i + 1);
            let mut d = diag(
                "D004",
                path,
                t,
                format!("`{}()` in library non-test code", t.text),
            );
            d.end_line = code[close].line.max(t.line);
            out.push(d);
        }
        "panic" if r.d004 && next.is_some_and(|n| n.is_punct('!')) => {
            let mut d = diag(
                "D004",
                path,
                t,
                "`panic!` in library non-test code".to_string(),
            );
            // `panic!("…",\n args)` spans to its closing delimiter.
            if code.get(i + 2).is_some_and(|n| n.is_punct('(')) {
                let close = matching_paren(code, i + 2);
                d.end_line = code[close].line.max(t.line);
            }
            out.push(d);
        }
        "par_map"
        | "par_map_indexed"
        | "try_par_map"
        | "try_par_map_indexed"
        | "try_par_map_chunked"
            if r.d005 && next.is_some_and(|n| n.is_punct('(')) =>
        {
            check_d005_chain(path, code, i, out);
        }
        _ => {}
    }
}

/// D005: after the closing paren of a `par_map`-family call, flag
/// `.sum` / `.product` / `.fold` chained within the same statement.
/// Reductions *inside* the mapped closure are per-item and fine.
fn check_d005_chain(path: &str, code: &[Tok], call_ident: usize, out: &mut Vec<Diagnostic>) {
    // Find the matching close paren of the call's argument list.
    let open = call_ident + 1;
    let mut depth = 0i32;
    let mut k = open;
    while k < code.len() {
        if code[k].is_punct('(') {
            depth += 1;
        } else if code[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        k += 1;
    }
    // Scan the rest of the statement (bounded, brace-balanced).
    let mut brace = 0i32;
    let limit = (k + 256).min(code.len());
    let mut j = k + 1;
    while j < limit {
        let t = &code[j];
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                break;
            }
        } else if t.is_punct(';') && brace == 0 {
            break;
        } else if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "sum" | "product" | "fold")
            && j > 0
            && code[j - 1].is_punct('.')
        {
            out.push(diag(
                "D005",
                path,
                t,
                format!(
                    "iterator `.{}` reduction chained onto a `{}` result — accumulation order \
                     must be pinned",
                    t.text, code[call_ident].text
                ),
            ));
        }
        j += 1;
    }
}

/// Applies inline waivers to diagnostics in place; returns warnings for
/// waivers that suppressed nothing (`W002`).
pub fn apply_inline_waivers(
    path: &str,
    diags: &mut [Diagnostic],
    waivers: &mut [InlineWaiver],
) -> Vec<Diagnostic> {
    for d in diags.iter_mut() {
        if d.waived {
            continue;
        }
        for w in waivers.iter_mut() {
            let in_span = w.target_line >= d.line && w.target_line <= d.end_line;
            if in_span && w.rules.iter().any(|r| r == d.rule) {
                d.waived = true;
                d.waive_reason = Some(w.reason.clone());
                w.used = true;
                break;
            }
        }
    }
    waivers
        .iter()
        .filter(|w| !w.used)
        .map(|w| Diagnostic {
            rule: "W002",
            severity: Severity::Warning,
            path: path.to_string(),
            line: w.at.0,
            col: w.at.1,
            end_line: w.at.0,
            message: format!(
                "inline waiver for {} suppresses nothing",
                w.rules.join(", ")
            ),
            help: "remove the stale waiver".to_string(),
            waived: false,
            waive_reason: None,
        })
        .collect()
}

/// A map from rule id to the number of diagnostics per rule — used by
/// the summary line. `BTreeMap` keeps the printout ordered.
pub fn count_by_rule(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in diags.iter().filter(|d| d.is_blocking()) {
        *counts.entry(d.rule).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn code_toks(src: &str) -> Vec<Tok> {
        lex(src).into_iter().filter(|t| !t.is_comment()).collect()
    }

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let rules = classify(path).expect("policed path");
        run_rules(path, &code_toks(src), rules)
    }

    #[test]
    fn fastpath_surface_is_fully_policed() {
        // The compiled-inference layer must stay under the strict
        // ruleset with D001 on: its node tables and arena chains feed
        // bit-exactness guarantees, so hash-ordered iteration or a
        // stray unwrap there is a determinism bug, not a style nit.
        for path in [
            "crates/mlkit/src/fastpath.rs",
            "crates/mlkit/src/tree.rs",
            "crates/streamd/src/serve.rs",
            "crates/streamd/src/artifact.rs",
            "crates/core/src/history.rs",
        ] {
            let rules = classify(path).expect("fastpath module is policed");
            assert_eq!(rules, RuleSet::strict(true), "{path}");
        }
        // The bench emitting BENCH_fastpath.json times wall-clock on
        // purpose; the differential suite is test code.
        assert_eq!(
            classify("crates/bench/benches/fastpath.rs"),
            Some(RuleSet::BENCH)
        );
        assert_eq!(
            classify("tests/fastpath_equivalence.rs"),
            Some(RuleSet::RELAXED)
        );
    }

    #[test]
    fn d001_flags_hashmap_in_core() {
        let ds = check(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(ds.iter().filter(|d| d.rule == "D001").count(), 3);
    }

    #[test]
    fn d001_ignores_tscast_and_strings() {
        assert!(check("crates/tscast/src/x.rs", "use std::collections::HashMap;").is_empty());
        assert!(check("crates/core/src/x.rs", "fn f() { let s = \"HashMap\"; }").is_empty());
    }

    #[test]
    fn d002_flags_now_but_not_duration() {
        let ds = check(
            "crates/core/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "D002");
        assert!(check("crates/core/src/x.rs", "use std::time::Duration;").is_empty());
    }

    #[test]
    fn d002_allowed_in_bench() {
        // The repository benchmark `perfbench/` is a package of its own
        // but times wall clock just like `crates/bench`, and bench code
        // stays out of the hot-path call graph.
        for path in ["crates/bench/src/lib.rs", "perfbench/src/steps.rs"] {
            assert_eq!(classify(path), Some(RuleSet::BENCH), "{path}");
            assert!(
                check(path, "fn f() { let t = std::time::Instant::now(); }").is_empty(),
                "{path}"
            );
        }
    }

    #[test]
    fn d003_flags_entropy_everywhere() {
        for path in [
            "crates/core/src/x.rs",
            "tests/x.rs",
            "crates/bench/src/lib.rs",
            "perfbench/src/fleet.rs",
        ] {
            let ds = check(path, "fn f() { let r = rand::thread_rng(); }");
            assert_eq!(ds.len(), 1, "{path}");
            assert_eq!(ds[0].rule, "D003");
        }
    }

    #[test]
    fn d004_flags_unwrap_expect_panic() {
        let ds = check(
            "crates/mlkit/src/x.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }",
        );
        assert_eq!(ds.iter().filter(|d| d.rule == "D004").count(), 3);
    }

    #[test]
    fn d004_ignores_unwrap_or_and_tests() {
        assert!(check("crates/mlkit/src/x.rs", "fn f() { x.unwrap_or(0); }").is_empty());
        let ds = check(
            "crates/mlkit/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}",
        );
        assert!(ds.is_empty());
        let ds = check("tests/integration.rs", "fn f() { x.unwrap(); }");
        assert!(ds.is_empty());
    }

    #[test]
    fn cfg_not_test_stays_policed() {
        let ds = check(
            "crates/mlkit/src/x.rs",
            "#[cfg(not(test))]\nfn g() { x.unwrap(); }",
        );
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn d001_still_applies_inside_test_modules() {
        let ds = check(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        );
        assert_eq!(ds.iter().filter(|d| d.rule == "D001").count(), 1);
    }

    #[test]
    fn d005_flags_chained_sum_not_inner_sum() {
        let flagged = check(
            "crates/core/src/x.rs",
            "fn f() { let s: f64 = par_map(t, xs, |x| x * 2.0).iter().sum(); }",
        );
        assert_eq!(flagged.iter().filter(|d| d.rule == "D005").count(), 1);
        let inner = check(
            "crates/core/src/x.rs",
            "fn f() { let v = par_map(t, xs, |x| x.iter().sum::<f64>()); }",
        );
        assert!(inner.iter().all(|d| d.rule != "D005"), "{inner:?}");
    }

    #[test]
    fn d004_multiline_expect_is_flagged_with_span() {
        let ds = check(
            "crates/mlkit/src/x.rs",
            "fn f() {\n    x\n        .expect(\n            \"msg\",\n        );\n}",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "D004");
        assert_eq!(ds[0].line, 3, "anchored at the method token");
        assert_eq!(ds[0].end_line, 5, "spans to the closing paren");
    }

    #[test]
    fn d004_waiver_on_closing_paren_line_covers_multiline_call() {
        let path = "crates/core/src/x.rs";
        let src = "fn f() {\n    x.expect(\n        \"msg\",\n    ); \
                   // detlint: allow(D004) reason=proven invariant\n}";
        let all = lex(src);
        let code: Vec<Tok> = all.iter().filter(|t| !t.is_comment()).cloned().collect();
        let mut ds = run_rules(path, &code, classify(path).expect("policed"));
        let (mut ws, _) = inline_waivers(path, &all, &code);
        let unused = apply_inline_waivers(path, &mut ds, &mut ws);
        assert!(unused.is_empty(), "trailing waiver must bind to the span");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].waived);
    }

    #[test]
    fn inline_waiver_suppresses_and_tracks_use() {
        let path = "crates/core/src/x.rs";
        let src =
            "fn f() {\n    // detlint: allow(D004) reason=proven invariant\n    x.unwrap();\n}";
        let all = lex(src);
        let code: Vec<Tok> = all.iter().filter(|t| !t.is_comment()).cloned().collect();
        let rules = classify(path).expect("policed");
        let mut ds = run_rules(path, &code, rules);
        let (mut ws, malformed) = inline_waivers(path, &all, &code);
        assert!(malformed.is_empty());
        let unused = apply_inline_waivers(path, &mut ds, &mut ws);
        assert!(unused.is_empty());
        assert_eq!(ds.len(), 1);
        assert!(ds[0].waived);
        assert_eq!(ds[0].waive_reason.as_deref(), Some("proven invariant"));
    }

    #[test]
    fn malformed_waiver_is_d000() {
        let src = "// detlint: allow(D004)\nfn f() {}";
        let all = lex(src);
        let code: Vec<Tok> = all.iter().filter(|t| !t.is_comment()).cloned().collect();
        let (ws, malformed) = inline_waivers("x.rs", &all, &code);
        assert!(ws.is_empty());
        assert_eq!(malformed.len(), 1);
        assert_eq!(malformed[0].rule, "D000");
    }

    #[test]
    fn unused_waiver_warns() {
        let path = "crates/core/src/x.rs";
        let src = "// detlint: allow(D001) reason=stale\nfn f() {}";
        let all = lex(src);
        let code: Vec<Tok> = all.iter().filter(|t| !t.is_comment()).cloned().collect();
        let mut ds = run_rules(path, &code, classify(path).expect("policed"));
        let (mut ws, _) = inline_waivers(path, &all, &code);
        let unused = apply_inline_waivers(path, &mut ds, &mut ws);
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "W002");
    }
}
