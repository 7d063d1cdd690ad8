//! Interprocedural effect analysis: proves declared hot-path roots
//! panic-free (D006), alloc-free (D007), and deterministic (D008).
//!
//! Three layers:
//!
//! 1. **Intrinsic scan** — per function body, token-level detection of
//!    effect *sites*: implicit panics (slice indexing, unwrap-family,
//!    integer division, `assert!`), allocations (`Vec::push`, `collect`,
//!    `format!`, …), and nondeterminism sources (entropy, clocks,
//!    thread ids, pointer-as-int).
//! 2. **Fixpoint** — a worklist pass over the call graph propagates a
//!    three-bit effect lattice (`MayPanic`/`MayAlloc`/`NondetSource`)
//!    from callees to callers until stable; this is what `detlint
//!    effects` exports as JSON.
//! 3. **Root reachability** — for each `[[hotpath]]` root in
//!    `detlint.toml`, a BFS over call edges finds every reachable
//!    intrinsic site of the armed kinds and emits one diagnostic per
//!    `(rule, site)`, anchored at the *site* (so inline waivers at the
//!    site discharge the obligation for every root at once), with the
//!    full root→site call chain in the message.
//!
//! `[[assume]]` entries cut the graph: an assumed function is treated as
//! effect-free and never traversed — the reason is the audit trail.
//! Known over-approximations are documented in DESIGN.md §13.

use crate::callgraph::{Callee, Graph};
use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// The three effect kinds of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// May abort the process (rule D006).
    Panic,
    /// May allocate on the steady-state path (rule D007).
    Alloc,
    /// Reads a nondeterminism source (rule D008).
    Nondet,
}

impl EffectKind {
    /// The rule id enforcing this effect on hot paths.
    pub fn rule(self) -> &'static str {
        match self {
            EffectKind::Panic => "D006",
            EffectKind::Alloc => "D007",
            EffectKind::Nondet => "D008",
        }
    }

    fn verb(self) -> &'static str {
        match self {
            EffectKind::Panic => "panic",
            EffectKind::Alloc => "allocate",
            EffectKind::Nondet => "read a nondeterminism source",
        }
    }

    fn bit(self) -> u8 {
        match self {
            EffectKind::Panic => 1,
            EffectKind::Alloc => 2,
            EffectKind::Nondet => 4,
        }
    }
}

/// One intrinsic effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Which effect the site exhibits.
    pub kind: EffectKind,
    /// What the site is, e.g. "slice indexing `xs[..]`".
    pub desc: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
}

/// Per-function summary after the fixpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnEffects {
    /// Bitmask of `EffectKind::bit` values.
    pub mask: u8,
}

impl FnEffects {
    /// Whether the function may exhibit `kind`.
    pub fn has(self, kind: EffectKind) -> bool {
        self.mask & kind.bit() != 0
    }
}

/// Methods of the unwrap family plus std methods that panic on length
/// or bounds mismatch. Resolved workspace methods take precedence.
const PANIC_METHODS: [&str; 8] = [
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "copy_from_slice",
    "clone_from_slice",
    "split_at",
    "split_at_mut",
];

/// Macros that expand to an unconditional or conditional abort.
/// `debug_assert*` is excluded: compiled out of release binaries.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Std methods that allocate (or may reallocate) on every call path.
const ALLOC_METHODS: [&str; 14] = [
    "push",
    "collect",
    "to_string",
    "to_owned",
    "to_vec",
    "extend",
    "resize",
    "reserve",
    "insert",
    "append",
    "clone",
    "or_insert",
    "or_insert_with",
    "or_default",
];

/// Macros whose expansion allocates.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Two-segment std paths that allocate.
const ALLOC_PATHS: [[&str; 2]; 4] = [
    ["Box", "new"],
    ["String", "from"],
    ["String", "with_capacity"],
    ["Vec", "with_capacity"],
];

/// Identifiers that are nondeterminism sources wherever they appear.
const NONDET_IDENTS: [&str; 8] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
    "DefaultHasher",
    "available_parallelism",
    "UNIX_EPOCH",
];

/// Integer type names for the division heuristic and pointer-as-int.
const INT_TYPES: [&str; 12] = [
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

fn is_int_type(s: &str) -> bool {
    INT_TYPES.contains(&s)
}

/// Idents with *integer evidence* in a body: declared `let x: usize`,
/// cast `x as u32`, or bound by a `let x = ...;` whose initializer
/// contains an integer cast or a `.len()` call. Used to gate the
/// integer-division detector so float math (which never panics) stays
/// quiet.
fn int_evidence(code: &[Tok], body: (usize, usize)) -> BTreeSet<String> {
    let (open, close) = body;
    let mut out = BTreeSet::new();
    let mut i = open;
    while i + 2 <= close {
        let t = &code[i];
        if t.kind == TokKind::Ident {
            // `x as usize` / `x: u32`
            let next = &code[i + 1];
            if next.is_ident("as") && code.get(i + 2).is_some_and(|u| is_int_type(&u.text)) {
                out.insert(t.text.clone());
            }
            if next.is_punct(':')
                && !code.get(i + 2).is_some_and(|u| u.is_punct(':'))
                && code.get(i + 2).is_some_and(|u| is_int_type(&u.text))
            {
                out.insert(t.text.clone());
            }
            // `let x = <expr with integer cast or .len()>;`
            if t.is_ident("let") {
                let mut j = i + 1;
                if code.get(j).is_some_and(|u| u.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = code.get(j).filter(|u| u.kind == TokKind::Ident) {
                    if code.get(j + 1).is_some_and(|u| u.is_punct('=')) {
                        let mut k = j + 2;
                        while k <= close && !code[k].is_punct(';') {
                            let int_cast = code[k].is_ident("as")
                                && code.get(k + 1).is_some_and(|u| is_int_type(&u.text));
                            let len_call = code[k].is_ident("len")
                                && k > 0
                                && code[k - 1].is_punct('.')
                                && code.get(k + 1).is_some_and(|u| u.is_punct('('));
                            if int_cast || len_call {
                                out.insert(name.text.clone());
                                break;
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// True for an integer literal token (no float markers).
fn is_int_literal(t: &Tok) -> bool {
    t.kind == TokKind::Number
        && !t.text.contains('.')
        && !t.text.contains("f3")
        && !t.text.contains("f6")
        && !t.text.contains('e')
        && !t.text.contains('E')
}

/// Scans one function body for intrinsic effect sites.
pub fn intrinsic_sites(code: &[Tok], body: (usize, usize)) -> Vec<Site> {
    let (open, close) = body;
    let ints = int_evidence(code, body);
    let mut out = Vec::new();
    let mut i = open;
    while i <= close && i < code.len() {
        let t = &code[i];
        let next_is = |c: char| code.get(i + 1).is_some_and(|n| n.is_punct(c));
        match t.kind {
            TokKind::Ident => {
                let prev_dot = i > 0 && code[i - 1].is_punct('.');
                // Macro invocations: `name!(` / `name![`.
                if next_is('!')
                    && code
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
                {
                    if PANIC_MACROS.contains(&t.text.as_str()) {
                        out.push(site(EffectKind::Panic, format!("`{}!` macro", t.text), t));
                    } else if ALLOC_MACROS.contains(&t.text.as_str()) {
                        out.push(site(
                            EffectKind::Alloc,
                            format!("`{}!` macro allocates", t.text),
                            t,
                        ));
                    }
                    i += 2;
                    continue;
                }
                if prev_dot && next_is('(') {
                    if PANIC_METHODS.contains(&t.text.as_str()) {
                        out.push(site(
                            EffectKind::Panic,
                            format!("`.{}()` may panic", t.text),
                            t,
                        ));
                    }
                    if ALLOC_METHODS.contains(&t.text.as_str()) {
                        out.push(site(
                            EffectKind::Alloc,
                            format!("`.{}()` allocates", t.text),
                            t,
                        ));
                    }
                    // Pointer-as-int: `.as_ptr() as usize`.
                    if matches!(t.text.as_str(), "as_ptr" | "as_mut_ptr") {
                        let mut k = i + 2; // after `(`
                        while k <= close && k < i + 6 {
                            if code[k].is_ident("as")
                                && code.get(k + 1).is_some_and(|u| is_int_type(&u.text))
                            {
                                out.push(site(
                                    EffectKind::Nondet,
                                    "pointer address observed as integer".to_string(),
                                    t,
                                ));
                                break;
                            }
                            k += 1;
                        }
                    }
                }
                if NONDET_IDENTS.contains(&t.text.as_str()) {
                    out.push(site(
                        EffectKind::Nondet,
                        format!("`{}` is a nondeterminism source", t.text),
                        t,
                    ));
                }
                // `Instant::now()` / `SystemTime::now()` / `thread::current()`.
                if (t.is_ident("Instant") || t.is_ident("SystemTime") || t.is_ident("thread"))
                    && next_is(':')
                    && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && code
                        .get(i + 3)
                        .is_some_and(|n| n.is_ident("now") || n.is_ident("current"))
                {
                    out.push(site(
                        EffectKind::Nondet,
                        format!("`{}::{}` read", t.text, code[i + 3].text),
                        t,
                    ));
                    i += 4;
                    continue;
                }
                // Allocating std constructor paths (`Box::new`, …).
                for [ty, f] in &ALLOC_PATHS {
                    if t.is_ident(ty)
                        && next_is(':')
                        && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                        && code.get(i + 3).is_some_and(|n| n.is_ident(f))
                        && code.get(i + 4).is_some_and(|n| n.is_punct('('))
                    {
                        out.push(site(EffectKind::Alloc, format!("`{ty}::{f}` allocates"), t));
                    }
                }
            }
            TokKind::Punct => {
                // Slice/array indexing: `[` directly after a value —
                // ident, `)` or `]` — is `Index::index`, which panics
                // out of bounds. Attributes are `#[`, excluded by the
                // value-token requirement.
                if t.is_punct('[') && i > open {
                    let p = &code[i - 1];
                    let value_before = (p.kind == TokKind::Ident
                        && !crate::callgraph::is_keyword(&p.text))
                        || p.is_punct(')')
                        || p.is_punct(']');
                    if value_before {
                        out.push(site(
                            EffectKind::Panic,
                            "slice indexing `[...]` may be out of bounds".to_string(),
                            t,
                        ));
                    }
                }
                // Integer division/remainder panics on zero divisor.
                if (t.is_punct('/') || t.is_punct('%')) && i > open {
                    if let Some(d) = code.get(i + 1) {
                        let op = if t.is_punct('/') { "/" } else { "%" };
                        let div_by_ident = d.kind == TokKind::Ident && ints.contains(&d.text);
                        let div_by_zero = is_int_literal(d) && d.text == "0";
                        if div_by_ident || div_by_zero {
                            out.push(site(
                                EffectKind::Panic,
                                format!("integer `{op}` may divide by zero"),
                                t,
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn site(kind: EffectKind, desc: String, t: &Tok) -> Site {
    Site {
        kind,
        desc,
        line: t.line,
        col: t.col,
    }
}

/// Builtin effects of *unresolved* calls: the callee is not a workspace
/// function, so consult the std tables; anything else is assumed pure.
fn builtin_effects(callee: &Callee) -> u8 {
    // Path calls to workspace-unknown fns already covered by
    // `intrinsic_sites` tables (macros, alloc paths); methods covered
    // by the method tables. Nothing extra here yet — the hook exists so
    // new std knowledge lands in one place.
    let _ = callee;
    0
}

/// The full analysis result.
pub struct Analysis {
    /// Per-node effect summaries (parallel to `graph.nodes`).
    pub effects: Vec<FnEffects>,
    /// Per-node intrinsic sites (parallel to `graph.nodes`).
    pub sites: Vec<Vec<Site>>,
    /// Node indices assumed effect-free via `[[assume]]` (not traversed).
    pub assumed: Vec<bool>,
    /// Resolved root sets per `[[hotpath]]` entry (empty = unresolved).
    pub roots: Vec<Vec<usize>>,
}

/// Runs the intrinsic scan and the worklist fixpoint over the graph.
/// `codes[node.file]` must be the code-token slice the node's body
/// indexes into.
pub fn analyze(graph: &Graph, codes: &[Vec<Tok>], cfg: &Config) -> Analysis {
    let n = graph.nodes.len();
    let mut assumed = vec![false; n];
    for a in &cfg.assumes {
        for idx in graph.resolve_qname(&a.func) {
            assumed[idx] = true;
        }
    }

    let mut sites: Vec<Vec<Site>> = Vec::with_capacity(n);
    for node in &graph.nodes {
        sites.push(intrinsic_sites(&codes[node.file], node.item.body));
    }

    // Seed the lattice from intrinsics plus unresolved-call builtins.
    let mut effects = vec![FnEffects::default(); n];
    for i in 0..n {
        if assumed[i] {
            continue;
        }
        let mut mask = 0u8;
        for s in &sites[i] {
            mask |= s.kind.bit();
        }
        for c in &graph.nodes[i].calls {
            if graph.resolve(&c.target).is_empty() {
                mask |= builtin_effects(&c.target);
            }
        }
        effects[i].mask = mask;
    }

    // Worklist fixpoint: caller inherits callee bits. Deterministic:
    // node order is (file, line); the lattice is monotone so the
    // result is order-independent anyway.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if assumed[i] {
                continue;
            }
            let mut mask = effects[i].mask;
            for &e in &graph.nodes[i].edges {
                if !assumed[e] {
                    mask |= effects[e].mask;
                }
            }
            if mask != effects[i].mask {
                effects[i].mask = mask;
                changed = true;
            }
        }
    }

    let roots = cfg
        .hotpaths
        .iter()
        .map(|h| graph.resolve_qname(&h.root))
        .collect();

    Analysis {
        effects,
        sites,
        assumed,
        roots,
    }
}

/// Emits D006/D007/D008 diagnostics (plus config-resolution errors) for
/// the declared hot-path roots.
pub fn root_diagnostics(graph: &Graph, analysis: &Analysis, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // One diagnostic per (rule, site), first root wins (config order).
    let mut seen: BTreeSet<(&'static str, String, u32, u32)> = BTreeSet::new();

    for (h, root_set) in cfg.hotpaths.iter().zip(&analysis.roots) {
        if root_set.is_empty() {
            out.push(Diagnostic {
                rule: "D000",
                severity: Severity::Error,
                path: "detlint.toml".to_string(),
                line: h.config_line,
                col: 1,
                end_line: h.config_line,
                message: format!("hotpath root `{}` resolves to no function", h.root),
                help: "fix the qualified name (crate::module::Type::fn) or remove the entry"
                    .to_string(),
                waived: false,
                waive_reason: None,
            });
            continue;
        }
        let kinds: Vec<EffectKind> = h
            .rules
            .iter()
            .filter_map(|r| match r.as_str() {
                "D006" => Some(EffectKind::Panic),
                "D007" => Some(EffectKind::Alloc),
                "D008" => Some(EffectKind::Nondet),
                _ => None,
            })
            .collect();
        for &root in root_set {
            // BFS with parent links for chain reconstruction.
            let n = graph.nodes.len();
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            visited[root] = true;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                for k in &kinds {
                    for s in analysis.sites[u].iter().filter(|s| s.kind == *k) {
                        let node = &graph.nodes[u];
                        let key = (k.rule(), node.item.path.clone(), s.line, s.col);
                        if !seen.insert(key) {
                            continue;
                        }
                        let chain = chain_of(graph, &parent, root, u);
                        out.push(site_diag(
                            &graph.nodes[root].item.qname,
                            *k,
                            s,
                            node,
                            &chain,
                        ));
                    }
                }
                for &e in &graph.nodes[u].edges {
                    if !visited[e] && !analysis.assumed[e] {
                        visited[e] = true;
                        parent[e] = Some(u);
                        queue.push_back(e);
                    }
                }
            }
        }
    }
    out
}

/// Reconstructs `root → … → site_fn` as a readable chain.
fn chain_of(graph: &Graph, parent: &[Option<usize>], root: usize, site_fn: usize) -> String {
    let mut rev = vec![site_fn];
    let mut cur = site_fn;
    while cur != root {
        let Some(p) = parent[cur] else { break };
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.iter()
        .map(|&i| graph.nodes[i].item.qname.as_str())
        .collect::<Vec<_>>()
        .join(" → ")
}

fn site_diag(
    root_qname: &str,
    kind: EffectKind,
    s: &Site,
    node: &crate::callgraph::Node,
    chain: &str,
) -> Diagnostic {
    Diagnostic {
        rule: kind.rule(),
        severity: Severity::Error,
        path: node.item.path.clone(),
        line: s.line,
        col: s.col,
        end_line: s.line,
        message: format!(
            "hot path `{root_qname}` may {}: {} (via {chain})",
            kind.verb(),
            s.desc
        ),
        help: match kind {
            EffectKind::Panic => {
                "make the access infallible (iterators, `.get()`, pre-validated bounds) or \
                 waive the proven invariant with `// detlint: allow(D006) reason=...`"
            }
            EffectKind::Alloc => {
                "hoist the allocation out of the steady-state loop (pre-sized buffers) or \
                 waive warmup-only growth with `// detlint: allow(D007) reason=...`"
            }
            EffectKind::Nondet => {
                "route entropy through seeded streams and remove clock/thread-id reads, or \
                 waive with `// detlint: allow(D008) reason=...`"
            }
        }
        .to_string(),
        waived: false,
        waive_reason: None,
    }
}

/// Renders the call graph + effect summaries as the `detlint effects`
/// JSON artifact (schema version 1).
pub fn render_effects_json(graph: &Graph, analysis: &Analysis, cfg: &Config) -> String {
    use std::fmt::Write as _;
    let esc = crate::diag::json_escape;
    let mut s = String::from("{\n  \"version\": 1,\n  \"functions\": [\n");
    let n = graph.nodes.len();
    for (i, node) in graph.nodes.iter().enumerate() {
        let fx = analysis.effects[i];
        let calls: Vec<String> = node
            .edges
            .iter()
            .map(|&e| format!("\"{}\"", esc(&graph.nodes[e].item.qname)))
            .collect();
        let _ = writeln!(
            s,
            "    {{\"qname\":\"{}\",\"path\":\"{}\",\"line\":{},\"assumed\":{},\
             \"may_panic\":{},\"may_alloc\":{},\"nondet\":{},\"calls\":[{}]}}{}",
            esc(&node.item.qname),
            esc(&node.item.path),
            node.item.line,
            analysis.assumed[i],
            fx.has(EffectKind::Panic),
            fx.has(EffectKind::Alloc),
            fx.has(EffectKind::Nondet),
            calls.join(","),
            if i + 1 == n { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"roots\": [\n");
    let m = cfg.hotpaths.len();
    for (k, h) in cfg.hotpaths.iter().enumerate() {
        let resolved: Vec<String> = analysis.roots[k]
            .iter()
            .map(|&i| format!("\"{}\"", esc(&graph.nodes[i].item.qname)))
            .collect();
        let rules: Vec<String> = h.rules.iter().map(|r| format!("\"{}\"", esc(r))).collect();
        let _ = writeln!(
            s,
            "    {{\"root\":\"{}\",\"rules\":[{}],\"resolved\":[{}]}}{}",
            esc(&h.root),
            rules.join(","),
            resolved.join(","),
            if k + 1 == m { "" } else { "," }
        );
    }
    let edges: usize = graph.nodes.iter().map(|n| n.edges.len()).sum();
    let _ = write!(
        s,
        "  ],\n  \"summary\": {{\"functions\": {n}, \"edges\": {edges}}}\n}}\n"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sites_of(src: &str) -> Vec<Site> {
        let code: Vec<Tok> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let open = code.iter().position(|t| t.is_punct('{')).unwrap();
        intrinsic_sites(&code, (open, code.len() - 1))
    }

    #[test]
    fn indexing_and_unwrap_are_panic_sites() {
        let s = sites_of("fn f(xs: &[f64], i: usize) -> f64 { xs[i] + xs.first().unwrap() }");
        let kinds: Vec<EffectKind> = s.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![EffectKind::Panic, EffectKind::Panic]);
        assert!(s[0].desc.contains("indexing"));
        assert!(s[1].desc.contains("unwrap"));
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let s = sites_of("fn f() -> [u8; 2] { let a = [1u8, 2]; a }");
        assert!(s.is_empty(), "array literal flagged: {s:?}");
    }

    #[test]
    fn integer_division_needs_integer_evidence() {
        // `n` is int-evidenced by the cast; `x / 2.0` is float math.
        let s = sites_of(
            "fn f(x: f64, raw: f64) -> f64 { let n = raw as usize; let _ = 10 / n; x / 2.0 }",
        );
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(s[0].desc.contains("divide by zero"));
    }

    #[test]
    fn alloc_sites_cover_macros_methods_and_paths() {
        let s = sites_of(
            "fn f(v: &mut Vec<u8>) { v.push(1); let b = Box::new(2u8); let t = format!(\"x\"); }",
        );
        let kinds: Vec<EffectKind> = s.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![EffectKind::Alloc, EffectKind::Alloc, EffectKind::Alloc]
        );
    }

    #[test]
    fn nondet_sites_cover_clock_thread_and_pointer() {
        let s = sites_of(
            "fn f(xs: &[u8]) -> usize { let t = Instant::now(); let id = thread::current(); \
             xs.as_ptr() as usize }",
        );
        let kinds: Vec<EffectKind> = s.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![EffectKind::Nondet, EffectKind::Nondet, EffectKind::Nondet]
        );
    }

    #[test]
    fn debug_assert_is_not_a_panic_site() {
        let s = sites_of("fn f(x: u32) { debug_assert!(x > 0); assert!(x > 0); }");
        assert_eq!(s.len(), 1);
        assert!(s[0].desc.contains("assert"));
    }
}
