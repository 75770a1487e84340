//! The lint rules and the annotation grammar.
//!
//! Fourteen rules in three tiers (see `DESIGN.md` §9 for the rationale).
//! Checks the compiler's own types decide better are not rules here: the
//! crates deny the matching clippy lints at the same scopes (panic
//! macros and `unwrap`/`expect` in `core`/`cloudsim`/`ibs`, indexing in
//! `wire.rs`, wrapping arithmetic in the sampling/backoff files, and `_`
//! arms on enums in `core`/`cloudsim`/`resilience`/`testkit`), and
//! `ci.sh` runs clippy with `-D warnings`.
//!
//! Token rules, decided from one file's token stream:
//!
//! * [`RULE_SECRET`] — `// lint: secret` types must not derive
//!   `Debug`/`Serialize`, must implement `Drop` (zeroize-on-drop), and must
//!   never appear inside a `format!`-family macro invocation.
//! * [`RULE_CT`] — no `==` / `!=` on digest/tag/MAC/root operands in
//!   verification code; use `seccloud_hash::ct_eq`. It stands down
//!   wherever [`RULE_CTFLOW`] reports the same site.
//! * [`RULE_UNSAFE`] — every crate root carries `#![forbid(unsafe_code)]`,
//!   `unsafe` appears nowhere in the workspace (a `// SAFETY:` comment does
//!   not excuse it), and in single-file mode every `unsafe` keyword is
//!   preceded by a `// SAFETY:` comment.
//! * [`RULE_TRANSPORT`] — raw wire channels (`WireTransport` /
//!   `WireServer`) must not be named outside the crates that define and
//!   wrap them (`cloudsim`, `resilience`, `testkit`, `net`): audits everywhere
//!   else must go through `ResilientTransport`, so a flaky channel can
//!   never abort or launder an audit (DESIGN.md §10).
//! * [`RULE_ATOMICS`] — every `Ordering::*` site is justified, and a
//!   `Relaxed` read-modify-write on a security-scoped atomic is rejected.
//! * [`RULE_ARITH`] — no raw `<<`/`<<=` in sampling/backoff math, the one
//!   wrapping operator clippy's `arithmetic_side_effects` does not flag.
//! * [`RULE_ANNOTATION`] — every `lint:` comment is well formed, and an
//!   `allow` names a rule that exists and suppresses one of its findings.
//!
//! Interprocedural rules, over the workspace AST and call graph:
//!
//! * [`RULE_PANIC_PATH`] — no panic source transitively reachable from a
//!   protocol-path fn.
//! * [`RULE_TAINT`], [`RULE_CTFLOW`], [`RULE_VARTIME`] — one secret-flow
//!   engine with two lattices: no secret-derived value reaches a
//!   format/wire sink, a timing sink (branch, comparison, index, loop
//!   bound), or a variable-time primitive.
//!
//! Concurrency rules:
//!
//! * [`RULE_LOCKS`] — no lock-order cycle or re-entrant acquisition.
//! * [`RULE_BLOCKING`] — no blocking work while a lock is held.
//! * [`RULE_DEADLINE`] — socket I/O is dominated by a read/write deadline.
//!
//! # Annotation grammar
//!
//! * `// lint: allow(<rule>, reason=<free text>)` — suppresses `<rule>` on
//!   the same line and the next line; the reason is mandatory and surfaced
//!   in the lint summary. An `allow` that suppresses nothing is stale and
//!   itself reported, as clippy reports an unfulfilled `#[expect]`.
//! * `// lint: secret` — marks the next `struct`/`enum` as secret material.
//! * `// lint: declassify(<reason>)` — declares the next line's
//!   secret-derived value public by protocol design (suppresses `ctflow`;
//!   recorded as a `ctflow` allowance).
//! * `// lint: ordering(<reason>)` — justifies the next line's
//!   `Ordering::*` choice (rule `atomics`; recorded as an allowance).
//! * `// lint: vartime(<reason>)` — sanctions the following fn as a
//!   variable-time primitive: the `vartime` rule proves no secret-tainted
//!   value can reach it anywhere in the call graph.
//! * `// lint: lock(<reason>)` — justifies the next line's blocking
//!   operation under a held lock (rule `blocking`; recorded as an
//!   allowance).
//!
//! Any other `lint:` comment is itself reported (rule `annotation`), so a
//! typo'd escape hatch can never silently disable a rule.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Rule id: transitive panic reachability over the call graph.
pub const RULE_PANIC_PATH: &str = "panic_path";
/// Rule id: secret hygiene.
pub const RULE_SECRET: &str = "secret";
/// Rule id: interprocedural secret taint flow.
pub const RULE_TAINT: &str = "taint";
/// Rule id: constant-time discipline (token-level fallback tier; the
/// dataflow-backed [`RULE_CTFLOW`] suppresses duplicates at the same site).
pub const RULE_CT: &str = "ct";
/// Rule id: interprocedural constant-time dataflow (timing sinks).
pub const RULE_CTFLOW: &str = "ctflow";
/// Rule id: variable-time primitives reachable from secret inputs.
pub const RULE_VARTIME: &str = "vartime";
/// Rule id: memory-ordering justification policy.
pub const RULE_ATOMICS: &str = "atomics";
/// Rule id: lock-order cycles and re-entrant acquisitions.
pub const RULE_LOCKS: &str = "locks";
/// Rule id: blocking/expensive operations under a held lock.
pub const RULE_BLOCKING: &str = "blocking";
/// Rule id: socket I/O must be dominated by a read/write deadline.
pub const RULE_DEADLINE: &str = "deadline";
/// Rule id: no raw left shift in sampling/backoff arithmetic.
pub const RULE_ARITH: &str = "arith";
/// Rule id: unsafe audit.
pub const RULE_UNSAFE: &str = "unsafe";
/// Rule id: raw-transport discipline.
pub const RULE_TRANSPORT: &str = "transport";
/// Rule id: malformed `lint:` annotations.
pub const RULE_ANNOTATION: &str = "annotation";

/// Every rule id, in reporting order (drives the SARIF rule catalogue).
pub const ALL_RULES: [&str; 14] = [
    RULE_PANIC_PATH,
    RULE_SECRET,
    RULE_TAINT,
    RULE_CT,
    RULE_CTFLOW,
    RULE_VARTIME,
    RULE_ATOMICS,
    RULE_LOCKS,
    RULE_BLOCKING,
    RULE_DEADLINE,
    RULE_ARITH,
    RULE_UNSAFE,
    RULE_TRANSPORT,
    RULE_ANNOTATION,
];

/// One finding: a rule violation at a location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `RULE_*` ids).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One use of the `// lint: allow(...)` escape hatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allowance {
    /// The rule being allowed.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: u32,
    /// The mandatory reason string.
    pub reason: String,
}

/// The result of linting a set of files.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Escape-hatch uses, sorted by (file, line).
    pub allowances: Vec<Allowance>,
    /// Number of files scanned.
    pub files: usize,
}

/// Verification-code prefixes for [`RULE_CT`].
const CT_SCOPE: [&str; 5] = [
    "crates/core/src/",
    "crates/cloudsim/src/",
    "crates/ibs/src/",
    "crates/merkle/src/",
    "crates/hash/src/",
];

/// Sampling/escalation/backoff files for [`RULE_ARITH`]. Each also denies
/// `clippy::arithmetic_side_effects`, which covers every other integer
/// operator there.
const ARITH_SCOPE: [&str; 4] = [
    "crates/resilience/src/escalation.rs",
    "crates/resilience/src/policy.rs",
    "crates/core/src/analysis/sampling.rs",
    "crates/cloudsim/src/montecarlo.rs",
];

/// Places allowed to name raw wire channels for [`RULE_TRANSPORT`]:
/// `cloudsim` defines the trait and the direct server, `resilience` wraps
/// it, `testkit` interposes fault injection, `net` serves the trait over
/// TCP (its server/client *are* the channel), and the analyzer's own tree
/// holds the rule's fixtures. Everywhere else must drive audits through
/// `ResilientTransport` (or annotate a deliberate raw-path baseline).
const TRANSPORT_ALLOWED: [&str; 5] = [
    "crates/cloudsim/src/",
    "crates/resilience/src/",
    "crates/testkit/src/",
    "crates/net/src/",
    "crates/analyzer/",
];

/// Identifiers that name a raw wire channel.
const TRANSPORT_IDENTS: [&str; 2] = ["WireTransport", "WireServer"];

/// Identifier segments that mark a comparison operand as digest-like.
const CT_SEGMENTS: [&str; 5] = ["digest", "tag", "mac", "hmac", "root"];

/// Macros whose arguments are formatted — a secret value reaching one of
/// these is a leak vector (the secret-flow engine's format sinks).
pub(crate) const FORMAT_MACROS: [&str; 18] = [
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// A lexed file plus the structural facts rules need. The AST-backed
/// rules ([`crate::callgraph`], `crate::secretflow`) consume it for the
/// annotation and test-line maps.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The lexed token stream.
    pub toks: Vec<Tok>,
    /// All comments (the annotation carrier).
    pub comments: Vec<Comment>,
    /// Lines inside `#[cfg(test)]` / `#[test]` items.
    pub test_lines: HashSet<u32>,
    /// rule → lines on which it is allowed.
    pub allows: HashMap<String, HashSet<u32>>,
    /// The `allow(<rule>, …)` annotations: rule, annotation line and the
    /// line after the comment.
    allow_sites: Vec<(String, u32, u32)>,
    /// `(rule, line)` pairs where an allowance suppressed a finding.
    allow_hits: RefCell<HashSet<(String, u32)>>,
    /// Lines whose vicinity carries a `SAFETY:` comment.
    pub safety_lines: HashSet<u32>,
    /// Lines justified by `// lint: ordering(reason)` (the `atomics` rule).
    pub ordering_lines: HashSet<u32>,
    /// Lines of fns sanctioned by `// lint: vartime(reason)` (the
    /// `vartime` rule treats them as variable-time primitives).
    pub vartime_lines: HashSet<u32>,
    /// Lines justified by `// lint: lock(reason)` (the `blocking` rule's
    /// escape: a deliberate blocking call under a held lock).
    pub lock_lines: HashSet<u32>,
}

impl FileCtx {
    /// Is `rule` allowed (via `// lint: allow`) on `line`? Rules ask only
    /// where they would otherwise report (`panic_path` at every panic
    /// source, reachable from a root or not), so a `true` marks the
    /// allowance as used.
    #[must_use]
    pub fn rule_allowed(&self, rule: &str, line: u32) -> bool {
        let hit = self.allows.get(rule).is_some_and(|s| s.contains(&line));
        if hit {
            self.allow_hits
                .borrow_mut()
                .insert((rule.to_string(), line));
        }
        hit
    }

    /// A finding per `allow` annotation that suppressed nothing on either
    /// line it covers.
    fn stale_allows(&self) -> Vec<Finding> {
        let hits = self.allow_hits.borrow();
        self.allow_sites
            .iter()
            .filter(|(rule, line, next)| {
                !hits.contains(&(rule.clone(), *line)) && !hits.contains(&(rule.clone(), *next))
            })
            .map(|(rule, line, _)| Finding {
                rule: RULE_ANNOTATION,
                file: self.path.clone(),
                line: *line,
                message: format!(
                    "stale `lint: allow({rule}, …)` — it suppresses no `{rule}` finding on \
                     this line or the next; delete it"
                ),
            })
            .collect()
    }
}

/// A type marked `// lint: secret`.
struct SecretType {
    name: String,
    file: String,
    line: u32,
    derives: Vec<String>,
}

/// Lints `(path, source)` pairs. With `all_rules` set, every scoped rule
/// applies to every file regardless of its path (single-file / fixture
/// mode); otherwise rules apply only inside their workspace scopes.
pub fn lint_files(inputs: &[(String, String)], all_rules: bool) -> Report {
    let mut report = Report {
        files: inputs.len(),
        ..Report::default()
    };
    let timing = std::env::var("SECCLOUD_LINT_TIMINGS").is_ok();
    let mut mark = std::time::Instant::now();
    let phase = |name: &str, mark: &mut std::time::Instant| {
        if timing {
            eprintln!("phase {name}: {:?}", mark.elapsed());
        }
        *mark = std::time::Instant::now();
    };
    let mut ctxs = Vec::with_capacity(inputs.len());
    for (path, src) in inputs {
        let (toks, comments) = lex(src);
        let test_lines = test_item_lines(&toks);
        let ann = parse_annotations(path, &comments);
        report.findings.extend(ann.findings);
        report.allowances.extend(ann.allowances);
        ctxs.push(FileCtx {
            path: path.replace('\\', "/"),
            toks,
            comments,
            test_lines,
            allows: ann.allows,
            allow_sites: ann.allow_sites,
            allow_hits: RefCell::default(),
            safety_lines: ann.safety,
            ordering_lines: ann.ordering,
            vartime_lines: ann.vartime,
            lock_lines: ann.lock,
        });
    }
    phase("lex+ann", &mut mark);

    // Secret types are collected across every file first: the marker, the
    // `impl Drop`, and a leaking `format!` may live in different files.
    let secrets: Vec<SecretType> = ctxs.iter().flat_map(collect_secret_types).collect();

    // Token-level rules only read their own file's ctx.
    for ctx in &ctxs {
        check_arith(ctx, all_rules, &mut report);
        check_ct(ctx, all_rules, &mut report);
        check_unsafe(ctx, all_rules, &mut report);
        check_transport(ctx, all_rules, &mut report);
        crate::atomics::check_atomics(ctx, all_rules, &mut report);
    }
    phase("token-rules", &mut mark);
    check_secret_types(&ctxs, &secrets, &mut report);
    phase("secret-types", &mut mark);

    // AST-backed interprocedural rules: parse every file, build the
    // workspace call graph, then run panic reachability and secret flow
    // (taint, ctflow, vartime) over it.
    let parsed: Vec<(String, crate::ast::Ast)> = ctxs
        .iter()
        .map(|c| (c.path.clone(), crate::ast::parse(&c.toks)))
        .collect();
    phase("parse", &mut mark);
    let ws = crate::callgraph::Workspace::build(parsed);
    // One shared type environment per fn: the secret-flow and
    // concurrency passes would otherwise rebuild it on every analysis.
    let typers: Vec<crate::callgraph::Typer<'_>> = ws
        .fns
        .iter()
        .map(|f| crate::callgraph::Typer::for_fn(&ws, f))
        .collect();
    phase("ws-build", &mut mark);
    let ctx_map: HashMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    crate::callgraph::check_panic_path(&ws, &ctx_map, all_rules, &mut report);
    phase("panic_path", &mut mark);
    let secret_names: HashSet<String> = secrets.iter().map(|s| s.name.clone()).collect();
    crate::secretflow::check_secret_flow(
        &ws,
        &typers,
        &ctx_map,
        &secret_names,
        all_rules,
        &mut report,
    );
    phase("secretflow", &mut mark);
    // Concurrency tier: the deadline pass computes per-fn stream-I/O
    // summaries that the locks pass reuses (a call handing a TcpStream to
    // an I/O-doing callee blocks like a direct socket op).
    let net = crate::blocking::check_deadline(&ws, &typers, &ctx_map, all_rules, &mut report);
    phase("deadline", &mut mark);
    crate::locks::check_locks(&ws, &typers, &ctx_map, &net, &mut report);
    phase("locks+blocking", &mut mark);
    for ctx in &ctxs {
        report.findings.extend(ctx.stale_allows());
    }

    // Fallback tier: the token-level `ct` heuristic stands down wherever
    // the dataflow-backed `ctflow` rule covered the same site.
    let ctflow_sites: HashSet<(String, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == RULE_CTFLOW)
        .map(|f| (f.file.clone(), f.line))
        .collect();
    report
        .findings
        .retain(|f| f.rule != RULE_CT || !ctflow_sites.contains(&(f.file.clone(), f.line)));

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    report.findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    report
        .allowances
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

// --- annotations ----------------------------------------------------------

/// Parsed per-file annotation state.
#[derive(Default)]
struct ParsedAnnotations {
    allows: HashMap<String, HashSet<u32>>,
    allow_sites: Vec<(String, u32, u32)>,
    safety: HashSet<u32>,
    ordering: HashSet<u32>,
    vartime: HashSet<u32>,
    lock: HashSet<u32>,
    findings: Vec<Finding>,
    allowances: Vec<Allowance>,
}

/// Parses `lint:` and `SAFETY:` comments.
///
/// An `allow`/`declassify`/`ordering`/`vartime` annotation covers its own
/// line (trailing-comment form) and the immediately following line
/// (standalone-comment form) — a `vartime` sanction must therefore sit
/// directly above its `fn`, never separated by an attribute, so the
/// sanction can never bleed onto a neighbouring declaration.
fn parse_annotations(path: &str, comments: &[Comment]) -> ParsedAnnotations {
    let mut out = ParsedAnnotations::default();
    for c in comments {
        if c.text.contains("SAFETY:") {
            // A SAFETY comment blesses the unsafe block on the following
            // few lines.
            for l in c.line..=c.end_line + 3 {
                out.safety.insert(l);
            }
        }
        let Some(rest) = c.text.trim().strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "secret" {
            continue; // handled by collect_secret_types
        }
        let mut record = |rule: &str, reason: String| {
            out.allowances.push(Allowance {
                rule: rule.to_string(),
                file: path.to_string(),
                line: c.line,
                reason,
            });
        };
        if let Some(reason) = keyword_reason(rest, "declassify") {
            // Publication of a secret-derived value is a protocol-level
            // decision; it suppresses the dataflow rule like an allow.
            let entry = out.allows.entry(RULE_CTFLOW.to_string()).or_default();
            entry.insert(c.line);
            entry.insert(c.end_line + 1);
            record(RULE_CTFLOW, reason);
            continue;
        }
        if let Some(reason) = keyword_reason(rest, "ordering") {
            out.ordering.insert(c.line);
            out.ordering.insert(c.end_line + 1);
            record(RULE_ATOMICS, reason);
            continue;
        }
        if let Some(reason) = keyword_reason(rest, "vartime") {
            out.vartime.insert(c.line);
            out.vartime.insert(c.end_line + 1);
            record(RULE_VARTIME, reason);
            continue;
        }
        if let Some(reason) = keyword_reason(rest, "lock") {
            out.lock.insert(c.line);
            out.lock.insert(c.end_line + 1);
            record(RULE_BLOCKING, reason);
            continue;
        }
        match parse_allow(rest) {
            Some((rule, reason)) => {
                let entry = out.allows.entry(rule.clone()).or_default();
                entry.insert(c.line);
                entry.insert(c.end_line + 1);
                out.allow_sites.push((rule.clone(), c.line, c.end_line + 1));
                out.allowances.push(Allowance {
                    rule,
                    file: path.to_string(),
                    line: c.line,
                    reason,
                });
            }
            None => out.findings.push(Finding {
                rule: RULE_ANNOTATION,
                file: path.to_string(),
                line: c.line,
                message: format!(
                    "malformed lint annotation `{}` — expected \
                     `lint: allow(<rule>, reason=<text>)`, `lint: secret`, \
                     `lint: declassify(<reason>)`, `lint: ordering(<reason>)`, \
                     `lint: vartime(<reason>)`, or `lint: lock(<reason>)`",
                    c.text.trim()
                ),
            }),
        }
    }
    out
}

/// Parses `<kw>(<reason>)`, demanding a non-empty reason. Returns `None`
/// both for "not this keyword" and for an empty reason — the latter then
/// falls through to the malformed-annotation finding, so a blanket
/// `declassify()` can never silently disable a rule.
fn keyword_reason(s: &str, kw: &str) -> Option<String> {
    let body = s
        .strip_prefix(kw)?
        .trim()
        .strip_prefix('(')?
        .strip_suffix(')')?;
    let reason = body.trim();
    if reason.is_empty() {
        return None;
    }
    Some(reason.to_string())
}

/// Parses `allow(<rule>, reason=<text>)`; the reason is mandatory and the
/// rule must be one of [`ALL_RULES`] (an `annotation` finding cannot be
/// allowed away).
fn parse_allow(s: &str) -> Option<(String, String)> {
    let body = s.strip_prefix("allow(")?.strip_suffix(')')?;
    let (rule, reason) = body.split_once(',')?;
    let reason = reason.trim().strip_prefix("reason=")?.trim();
    let rule = rule.trim();
    if reason.is_empty() || rule == RULE_ANNOTATION || !ALL_RULES.contains(&rule) {
        return None;
    }
    Some((rule.to_string(), reason.to_string()))
}

// --- test-code detection --------------------------------------------------

/// Lines belonging to `#[cfg(test)]` / `#[test]` items (the brace-matched
/// body of the `mod`/`fn`/`impl` that follows the attribute). Test code
/// may unwrap freely — a failing test *should* panic.
fn test_item_lines(toks: &[Tok]) -> HashSet<u32> {
    let mut lines = HashSet::new();
    let mut i = 0;
    while let Some(tok) = toks.get(i) {
        if tok.text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let (attr_toks, after) = attribute_span(toks, i);
            // `#[test]` / `#[cfg(test)]` / `#[cfg(all(test, …))]` — but not
            // `#[cfg(not(test))]`, which guards *production* code.
            let is_test_attr = attr_toks.iter().any(|t| t.text == "test")
                && !attr_toks.iter().any(|t| t.text == "not");
            if is_test_attr {
                // Skip any further attributes, then brace-match the item.
                let mut j = after;
                while toks.get(j).is_some_and(|t| t.text == "#")
                    && toks.get(j + 1).is_some_and(|t| t.text == "[")
                {
                    j = attribute_span(toks, j).1;
                }
                if let Some((open, close)) = item_body(toks, j) {
                    if let (Some(o), Some(c)) = (toks.get(open), toks.get(close)) {
                        for l in o.line..=c.line {
                            lines.insert(l);
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
            i = after;
            continue;
        }
        i += 1;
    }
    lines
}

/// Returns the tokens inside `#[...]` starting at `start` (which must point
/// at `#`), and the index just past the closing `]`.
fn attribute_span(toks: &[Tok], start: usize) -> (&[Tok], usize) {
    let mut depth = 0usize;
    let mut i = start + 1;
    while let Some(tok) = toks.get(i) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (toks.get(start + 2..i).unwrap_or(&[]), i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (toks.get(start + 1..).unwrap_or(&[]), toks.len())
}

/// From `start`, finds the item's `{ … }` body: scans to the first `{` at
/// nesting depth zero (aborting at a top-level `;`, e.g. `mod m;`), then
/// brace-matches. Returns (open index, close index).
fn item_body(toks: &[Tok], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    let mut paren = 0i32;
    while let Some(tok) = toks.get(i) {
        match tok.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => return None,
            "{" if paren == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let open = i;
    let mut depth = 0i32;
    while let Some(tok) = toks.get(i) {
        match tok.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((open, toks.len() - 1))
}

// --- rule: raw shifts in sampling arithmetic ------------------------------

fn in_scope(path: &str, scope: &[&str], all_rules: bool) -> bool {
    all_rules || scope.iter().any(|p| path.starts_with(p) || path == *p)
}

fn check_arith(ctx: &FileCtx, all_rules: bool, report: &mut Report) {
    if !in_scope(&ctx.path, &ARITH_SCOPE, all_rules) {
        return;
    }
    for t in &ctx.toks {
        if !matches!(t.text.as_str(), "<<" | "<<=")
            || ctx.test_lines.contains(&t.line)
            || ctx.rule_allowed(RULE_ARITH, t.line)
        {
            continue;
        }
        report.findings.push(Finding {
            rule: RULE_ARITH,
            file: ctx.path.clone(),
            line: t.line,
            message: format!(
                "raw `{}` in sampling/backoff math — a shift past the width drops bits \
                 silently and skews eq. 10; use `checked_shl`, or annotate \
                 `// lint: allow(arith, reason=...)`",
                t.text
            ),
        });
    }
}

// --- rule: constant-time discipline ---------------------------------------

/// Tokens that terminate an operand scan at nesting depth zero.
fn operand_stop(text: &str) -> bool {
    matches!(
        text,
        ";" | "{"
            | "}"
            | ","
            | "="
            | "=="
            | "!="
            | "&&"
            | "||"
            | "=>"
            | "?"
            | "if"
            | "else"
            | "while"
            | "let"
            | "return"
            | "match"
            | "for"
            | "in"
    )
}

/// Does this identifier look like digest/tag material?
fn digest_like(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| CT_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

fn check_ct(ctx: &FileCtx, all_rules: bool, report: &mut Report) {
    if !in_scope(&ctx.path, &CT_SCOPE, all_rules) {
        return;
    }
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if (t.text != "==" && t.text != "!=") || ctx.test_lines.contains(&t.line) {
            continue;
        }
        let mut suspicious: Option<String> = None;
        // Left operand: walk backwards, skipping balanced groups.
        let mut depth = 0i32;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let Some(tok) = toks.get(j) else { break };
            let text = tok.text.as_str();
            match text {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && operand_stop(text) => break,
                _ => {}
            }
            if tok.kind == TokKind::Ident && digest_like(text) {
                suspicious = Some(text.to_string());
            }
        }
        // Right operand: walk forwards.
        let mut depth = 0i32;
        let mut j = i + 1;
        while let Some(tok) = toks.get(j) {
            let text = tok.text.as_str();
            match text {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && operand_stop(text) => break,
                _ => {}
            }
            if tok.kind == TokKind::Ident && digest_like(text) {
                suspicious.get_or_insert_with(|| text.to_string());
            }
            j += 1;
        }
        let Some(ident) = suspicious else { continue };
        if ctx.rule_allowed(RULE_CT, t.line) {
            continue;
        }
        report.findings.push(Finding {
            rule: RULE_CT,
            file: ctx.path.clone(),
            line: t.line,
            message: format!(
                "`{}` on digest-like operand `{ident}` in verification code — use \
                 `seccloud_hash::ct_eq`, or annotate `// lint: allow(ct, reason=...)`",
                t.text
            ),
        });
    }
}

// --- rule: unsafe audit ---------------------------------------------------

/// Is this path a crate root that must carry `#![forbid(unsafe_code)]`?
fn is_guarded_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || (path.contains("src/bin/") && path.ends_with(".rs"))
}

fn has_unsafe_gate(toks: &[Tok], lint: &str) -> bool {
    toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == lint
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

fn check_unsafe(ctx: &FileCtx, all_rules: bool, report: &mut Report) {
    let root_check = if all_rules {
        ctx.path.ends_with("lib.rs") || ctx.path.ends_with("main.rs")
    } else {
        is_guarded_crate_root(&ctx.path)
    };
    if root_check && !has_unsafe_gate(&ctx.toks, "forbid") {
        report.findings.push(Finding {
            rule: RULE_UNSAFE,
            file: ctx.path.clone(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    for t in &ctx.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // Scope check: no workspace file may contain `unsafe` (skipped in
        // single-file fixture mode, where paths are synthetic).
        if !all_rules {
            report.findings.push(Finding {
                rule: RULE_UNSAFE,
                file: ctx.path.clone(),
                line: t.line,
                message: "`unsafe` in workspace code (no crate may contain it)".to_string(),
            });
        }
        if !ctx.safety_lines.contains(&t.line) {
            report.findings.push(Finding {
                rule: RULE_UNSAFE,
                file: ctx.path.clone(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment on the preceding lines"
                    .to_string(),
            });
        }
    }
}

// --- rule: raw-transport discipline ---------------------------------------

fn check_transport(ctx: &FileCtx, all_rules: bool, report: &mut Report) {
    // Exclusion-scoped: the rule fires *outside* the allowed prefixes (the
    // inverse of `in_scope`), or everywhere in single-file fixture mode.
    if !all_rules && TRANSPORT_ALLOWED.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for t in &ctx.toks {
        if t.kind != TokKind::Ident || !TRANSPORT_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        if ctx.rule_allowed(RULE_TRANSPORT, t.line) {
            continue;
        }
        report.findings.push(Finding {
            rule: RULE_TRANSPORT,
            file: ctx.path.clone(),
            line: t.line,
            message: format!(
                "raw `{}` outside cloudsim/resilience/testkit/net — drive audits through \
                 `seccloud_resilience::ResilientTransport` so channel faults are retried \
                 and byzantine evidence is pinned, or annotate \
                 `// lint: allow(transport, reason=...)`",
                t.text
            ),
        });
    }
}

// --- rule: secret hygiene -------------------------------------------------

/// Finds `// lint: secret` markers and resolves the type they annotate,
/// collecting any `#[derive(...)]` idents between marker and type.
fn collect_secret_types(ctx: &FileCtx) -> Vec<SecretType> {
    let mut out = Vec::new();
    for c in &ctx.comments {
        if c.text.trim() != "lint: secret" {
            continue;
        }
        let mut derives = Vec::new();
        let mut name = None;
        let mut line = c.line;
        let mut i = ctx.toks.partition_point(|t| t.line <= c.end_line);
        while let Some(t) = ctx.toks.get(i).filter(|t| t.line <= c.end_line + 15) {
            if t.text == "#" && ctx.toks.get(i + 1).is_some_and(|n| n.text == "[") {
                let (attr, after) = attribute_span(&ctx.toks, i);
                if attr.first().is_some_and(|a| a.text == "derive") {
                    derives.extend(
                        attr.iter()
                            .skip(1)
                            .filter(|a| a.kind == TokKind::Ident)
                            .map(|a| a.text.clone()),
                    );
                }
                i = after;
                continue;
            }
            if matches!(t.text.as_str(), "struct" | "enum" | "union") {
                if let Some(n) = ctx.toks.get(i + 1) {
                    name = Some(n.text.clone());
                    line = n.line;
                }
                break;
            }
            i += 1;
        }
        if let Some(name) = name {
            out.push(SecretType {
                name,
                file: ctx.path.clone(),
                line,
                derives,
            });
        }
    }
    out
}

/// Per-type checks: no `Debug`/`Serialize` derive, and an `impl Drop`
/// must exist somewhere in the scanned set (zeroize-on-drop).
fn check_secret_types(ctxs: &[FileCtx], secrets: &[SecretType], report: &mut Report) {
    for s in secrets {
        for bad in ["Debug", "Serialize"] {
            if s.derives.iter().any(|d| d == bad) {
                report.findings.push(Finding {
                    rule: RULE_SECRET,
                    file: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "secret type `{}` derives `{bad}` — implement a redacted manual \
                         `Debug` (and never serialize secrets)",
                        s.name
                    ),
                });
            }
        }
        let has_drop = ctxs.iter().any(|ctx| impls_drop(&ctx.toks, &s.name));
        if !has_drop {
            report.findings.push(Finding {
                rule: RULE_SECRET,
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "secret type `{}` has no `impl Drop` — wipe key material on drop \
                     (see `seccloud_hash::wipe`)",
                    s.name
                ),
            });
        }
    }
}

/// Looks for `impl Drop for <name>` (allowing generics between the parts).
fn impls_drop(toks: &[Tok], name: &str) -> bool {
    for (i, t) in toks.iter().enumerate() {
        if t.text == "Drop" && toks.get(i + 1).is_some_and(|n| n.text == "for") {
            let impl_before = toks
                .get(i.saturating_sub(6)..i)
                .unwrap_or(&[])
                .iter()
                .any(|p| p.text == "impl");
            let named_after = toks
                .get(i + 2..toks.len().min(i + 8))
                .unwrap_or(&[])
                .iter()
                .any(|n| n.text == name);
            if impl_before && named_after {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Report {
        lint_files(&[(path.to_string(), src.to_string())], false)
    }

    fn rules_of(r: &Report) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn arith_flags_raw_shifts_in_scope_only() {
        let src = "pub fn esc(t: usize, s: u32) -> usize {\n\
                   let mut x = 1usize << s;\n\
                   x <<= 1;\n\
                   t * x\n}";
        let hits = lint_one("crates/resilience/src/escalation.rs", src);
        let lines: Vec<(&str, u32)> = hits.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(lines, vec![(RULE_ARITH, 2), (RULE_ARITH, 3)]);
        assert!(lint_one("crates/resilience/src/transport.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn arith_skips_checked_shifts_strings_and_tests() {
        let src = r#"
            pub fn esc(t: usize, s: u32) -> usize {
                let scale = 1usize.checked_shl(s.min(63)).unwrap_or(usize::MAX);
                let _ = "a << b";
                t.saturating_mul(scale)
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { assert_eq!(1u32 << 3, 8); }
            }
        "#;
        let r = lint_one("crates/core/src/analysis/sampling.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn allow_annotation_downgrades_to_allowance() {
        let src = r#"
            fn f(x: u8) -> u8 {
                // lint: allow(arith, reason=precondition documented on f)
                x << 1
            }
        "#;
        let r = lint_one("crates/core/src/analysis/sampling.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowances.len(), 1);
        assert_eq!(r.allowances[0].rule, RULE_ARITH);
        assert!(r.allowances[0].reason.contains("precondition"));
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let src = "// lint: allow(ct)\nfn f() {}";
        let r = lint_one("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_ANNOTATION]);
    }

    #[test]
    fn ct_rule_flags_digest_equality() {
        let src = "fn verify(tag: &[u8], expected_tag: &[u8]) -> bool { tag == expected_tag }";
        let r = lint_one("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_CT]);
    }

    #[test]
    fn ct_rule_ignores_benign_comparisons() {
        let src = r#"
            fn f(version: u32, expected_version: u32) -> bool { version != expected_version }
            fn g(identity: &str, other: &str) -> bool { identity == other }
        "#;
        let r = lint_one("crates/core/src/foo.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn ct_rule_stops_at_assignment() {
        // The *assigned* variable name must not contaminate the operand scan.
        let src = "fn f(a: &str, b: &str) { let root_ok = a == b; let _ = root_ok; }";
        let r = lint_one("crates/core/src/foo.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unsafe_rule_requires_forbid_on_crate_roots() {
        let r = lint_one("crates/hash/src/lib.rs", "pub fn f() {}");
        assert_eq!(rules_of(&r), vec![RULE_UNSAFE]);
        let ok = lint_one(
            "crates/hash/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        );
        assert!(ok.findings.is_empty());
        // No crate is exempt, binaries included.
        let bin = lint_one("crates/analyzer/src/bin/seccloud_lint.rs", "fn main() {}");
        assert_eq!(rules_of(&bin), vec![RULE_UNSAFE]);
    }

    #[test]
    fn unsafe_deny_root_fires_on_every_crate_root() {
        // `deny` can be overridden by an inner `allow`, so no root may
        // settle for it — the pairing crate included.
        for path in ["crates/pairing/src/lib.rs", "crates/hash/src/lib.rs"] {
            let bad = lint_one(path, "#![deny(unsafe_code)]\npub mod arch;");
            assert_eq!(rules_of(&bad), vec![RULE_UNSAFE], "{path}");
        }
        let none = lint_one("crates/pairing/src/lib.rs", "pub fn f() {}");
        assert_eq!(rules_of(&none), vec![RULE_UNSAFE]);
    }

    #[test]
    fn unsafe_fires_in_every_crate_even_with_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads.\n    unsafe { *p }\n}";
        let r = lint_one("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_UNSAFE], "{:?}", r.findings);
        for path in [
            "crates/pairing/src/arch/mod.rs",
            "crates/pairing/src/arch/generic.rs",
            "crates/net/src/server.rs",
        ] {
            let r = lint_one(path, src);
            assert_eq!(rules_of(&r), vec![RULE_UNSAFE], "{path}: {:?}", r.findings);
        }
    }

    #[test]
    fn unsafe_blocks_need_safety_comments() {
        // Single-file mode, where the workspace-wide ban stands down.
        let fixture = |src: &str| lint_files(&[("scope.rs".to_string(), src.to_string())], true);
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_of(&fixture(bad)), vec![RULE_UNSAFE]);
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads.\n    unsafe { *p }\n}";
        assert!(fixture(good).findings.is_empty());
    }

    #[test]
    fn secret_type_without_drop_or_with_debug_fires() {
        let src = r#"
            // lint: secret
            #[derive(Clone, Debug)]
            pub struct KeyMaterial([u8; 32]);
        "#;
        let r = lint_one("crates/hash/src/k.rs", src);
        let rules = rules_of(&r);
        assert_eq!(rules, vec![RULE_SECRET, RULE_SECRET], "{:?}", r.findings);
    }

    #[test]
    fn secret_type_with_drop_and_no_debug_is_clean() {
        let src = r#"
            // lint: secret
            #[derive(Clone)]
            pub struct KeyMaterial([u8; 32]);
            impl Drop for KeyMaterial {
                fn drop(&mut self) {}
            }
        "#;
        let r = lint_one("crates/hash/src/k.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn drop_impl_may_live_in_another_file() {
        let a = (
            "crates/hash/src/k.rs".to_string(),
            "// lint: secret\n#[derive(Clone)]\npub struct KeyMaterial([u8; 32]);".to_string(),
        );
        let b = (
            "crates/hash/src/drop.rs".to_string(),
            "impl Drop for KeyMaterial { fn drop(&mut self) {} }".to_string(),
        );
        let r = lint_files(&[a, b], false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn secret_in_format_macro_fires_via_taint() {
        // The same-line leak heuristic of PR 3 is now the taint rule's
        // base case. `crates/core` keeps the sink reportable (the hash
        // crate itself declassifies).
        let src = r#"
            // lint: secret
            #[derive(Clone)]
            pub struct KeyMaterial([u8; 32]);
            impl Drop for KeyMaterial { fn drop(&mut self) {} }
            fn leak(k: &KeyMaterial) -> String { format!("{:?}", KeyMaterial::clone(k)) }
        "#;
        let r = lint_one("crates/core/src/k.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_TAINT]);
        assert!(r.findings[0].message.contains("format"));
    }

    #[test]
    fn transport_rule_fires_outside_allowed_crates() {
        let src = "fn f<T: WireTransport>(t: &mut T) { let _ = t; }";
        let hit = lint_one("tests/some_harness.rs", src);
        assert_eq!(rules_of(&hit), vec![RULE_TRANSPORT]);
        let bench = lint_one("crates/bench/src/util.rs", "use x::WireServer;");
        assert_eq!(rules_of(&bench), vec![RULE_TRANSPORT]);
    }

    #[test]
    fn transport_rule_spares_defining_and_wrapping_crates() {
        for path in [
            "crates/cloudsim/src/rpc.rs",
            "crates/resilience/src/transport.rs",
            "crates/testkit/src/fault.rs",
            "crates/net/src/server.rs",
        ] {
            let r = lint_one(path, "pub trait WireTransport {}\nstruct WireServer;");
            assert!(r.findings.is_empty(), "{path}: {:?}", r.findings);
        }
    }

    #[test]
    fn transport_rule_honors_allow_annotation() {
        let src = r#"
            // lint: allow(transport, reason=baseline arm of the with/without comparison)
            fn raw<T: WireTransport>(t: &mut T) { let _ = t; }
        "#;
        let r = lint_one("crates/bench/src/util.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowances.len(), 1);
        assert_eq!(r.allowances[0].rule, RULE_TRANSPORT);
    }

    #[test]
    fn all_rules_mode_ignores_path_scoping() {
        let src = "fn f(x: u8) -> u8 { x << 1 }";
        let r = lint_files(&[("anything.rs".to_string(), src.to_string())], true);
        assert_eq!(rules_of(&r), vec![RULE_ARITH]);
    }
}
