//! Interprocedural secret taint flow (rule `taint`).
//!
//! Taint is seeded wherever a value's declared or inferred type names a
//! `// lint: secret` type (`MasterKey`, `UserKey`, `VerifierKey`,
//! `HmacDrbg`), then propagated through `let` bindings, assignments,
//! field access, and — via per-function summaries — across call edges.
//! A finding fires when a tainted value reaches a *sink*: a
//! `format!`-family macro (Debug/Display formatting, panics, asserts)
//! or a wire-encode method (`put_*`, `encode_body`, `to_wire`). This
//! replaces the PR 3 same-line heuristic, which could not see
//! `let x = key.sk(); emit(x)`.
//!
//! Two deliberate imprecisions, both toward the paper's threat model:
//!
//! * **Declassification through crypto.** Calls resolving into
//!   `crates/{pairing,bigint,hash,ibs}` drop taint — signatures, tags,
//!   digests and DRBG output are *derived from* secrets but safe to
//!   publish by design (that is the whole point of the scheme). The
//!   exception is a call whose return type names a secret type
//!   (`HmacDrbg::new`, `MasterKey::extract`): constructors re-taint.
//! * **Fields stay tainted.** Any field read off a secret-typed base is
//!   treated as secret, even public metadata, because key structs are
//!   small and the cost of a miss (printing `sk_ID`) is protocol-fatal.
//!   Use `// lint: allow(taint, reason=…)` where metadata is provably
//!   public.
//!
//! Summaries are three masks per fn — params flowing to the return
//! value, params flowing to a sink, and whether the return is secret —
//! iterated to a fixpoint, then one reporting pass records findings.

use std::collections::{HashMap, HashSet};

use crate::ast::Expr;
use crate::callgraph::{FnNode, Typer, Workspace};
use crate::rules::{FileCtx, Finding, Report, FORMAT_MACROS, RULE_TAINT};

/// Bit 63 marks "directly secret"; bits 0..62 mark "derived from param i".
const SECRET: u64 = 1 << 63;

/// Methods that encode their arguments (and for `encode_body`/`to_wire`,
/// their receiver) onto the wire.
const WIRE_SINKS: [&str; 10] = [
    "put_bytes",
    "put_fixed",
    "put_str",
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
    "put_u128",
    "encode_body",
    "to_wire",
];

/// Sinks whose receiver (not just arguments) is encoded.
const RECV_SINKS: [&str; 2] = ["encode_body", "to_wire"];

/// Crates whose calls declassify taint (see module docs). `ibs` is the
/// signing/derivation layer: its outputs (signatures, tags, warrants)
/// are public by design, and its secret-typed returns re-taint.
const DECLASS_CRATES: [&str; 4] = [
    "crates/pairing/",
    "crates/bigint/",
    "crates/hash/",
    "crates/ibs/",
];

/// Per-fn dataflow summary.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Params whose taint reaches the return value.
    ret_params: u64,
    /// The return value is secret regardless of arguments.
    ret_secret: bool,
    /// Params whose taint reaches a format/wire sink inside (or below)
    /// this fn. Secret-*typed* params are excluded — those are reported
    /// directly in the fn that holds the sink.
    sink_params: u64,
}

/// Runs the taint rule over the workspace.
pub fn check_taint(
    ws: &Workspace,
    typers: &[Typer<'_>],
    ctxs: &HashMap<&str, &FileCtx>,
    secret_names: &HashSet<String>,
    all_rules: bool,
    report: &mut Report,
) {
    if secret_names.is_empty() {
        return;
    }
    let n = ws.fns.len();
    let summaries = ws.fixpoint_summaries(Summary::default(), |i, sums| {
        analyze_fn(ws, typers, i, sums, secret_names, all_rules, None)
    });
    // Reporting pass.
    let mut findings = Vec::new();
    for i in 0..n {
        let _ = analyze_fn(
            ws,
            typers,
            i,
            &summaries,
            secret_names,
            all_rules,
            Some(&mut findings),
        );
    }
    for f in findings {
        let allowed = ctxs
            .get(f.file.as_str())
            .is_some_and(|c| c.rule_allowed(RULE_TAINT, f.line) || c.test_lines.contains(&f.line));
        if !allowed {
            report.findings.push(f);
        }
    }
}

fn is_declass(path: &str) -> bool {
    DECLASS_CRATES.iter().any(|p| path.starts_with(p))
}

/// Does this type string name a secret type? (Shared with `ctflow`.)
pub(crate) fn ty_secret(ty: &str, secret_names: &HashSet<String>) -> bool {
    secret_names.iter().any(|s| contains_word(ty, s))
}

/// Does `f`'s declared return type name a secret type (directly or as
/// `Self` on a secret owner)? (Shared with `ctflow`.)
pub(crate) fn ret_names_secret(f: &FnNode, secret_names: &HashSet<String>) -> bool {
    f.ret.as_deref().is_some_and(|r| {
        ty_secret(r, secret_names)
            || (contains_word(r, "Self")
                && f.owner.as_deref().is_some_and(|o| secret_names.contains(o)))
    })
}

/// Word-boundary containment so `UserKey` does not match `UserKeyring`.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut rest = hay;
    while let Some(pos) = rest.find(needle) {
        let before_ok = rest
            .get(..pos)
            .and_then(|s| s.chars().last())
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let after_ok = rest
            .get(pos + needle.len()..)
            .and_then(|s| s.chars().next())
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            return true;
        }
        rest = rest.get(pos + 1..).unwrap_or("");
    }
    false
}

/// One evaluation of a fn body. Returns the fn's summary; when
/// `findings` is set, also records sink hits (the reporting pass).
fn analyze_fn(
    ws: &Workspace,
    typers: &[Typer<'_>],
    fn_idx: usize,
    summaries: &[Summary],
    secret_names: &HashSet<String>,
    all_rules: bool,
    findings: Option<&mut Vec<Finding>>,
) -> Summary {
    let Some(f) = ws.fns.get(fn_idx) else {
        return Summary::default();
    };
    let Some(body) = &f.body else {
        return Summary::default();
    };
    let path = ws.path_of(fn_idx);
    if f.is_test {
        return Summary::default();
    }
    let mut ev = Eval {
        ws,
        summaries,
        secret_names,
        typer: match typers.get(fn_idx) {
            Some(t) => t,
            None => return Summary::default(),
        },
        locals: HashMap::new(),
        owner: f.owner.clone(),
        owner_secret: f.owner.as_deref().is_some_and(|o| secret_names.contains(o)),
        param_secret_typed: 0,
        out: Summary::default(),
        findings,
        file: path.to_string(),
        report_sinks: all_rules || !is_declass(path),
    };
    for (i, p) in f.params.iter().enumerate().take(62) {
        let mut mask = 1u64 << i;
        let secret_param = if p.name == "self" {
            ev.owner_secret
        } else {
            ty_secret(&p.ty, secret_names)
        };
        if secret_param {
            mask |= SECRET;
            ev.param_secret_typed |= 1u64 << i;
        }
        ev.locals.insert(p.name.clone(), mask);
    }
    let ret_mask = ev.eval(body);
    ev.out.ret_params |= ret_mask & !SECRET;
    if ret_mask & SECRET != 0 {
        ev.out.ret_secret = true;
    }
    // A fn whose return type names a secret type returns a secret no
    // matter what the body analysis saw (constructors in declass crates).
    if ret_names_secret(f, secret_names) {
        ev.out.ret_secret = true;
    }
    ev.out.sink_params &= !ev.param_secret_typed;
    ev.out.ret_params &= (1u64 << f.params.len().min(62)) - 1;
    ev.out
}

struct Eval<'a> {
    ws: &'a Workspace,
    summaries: &'a [Summary],
    secret_names: &'a HashSet<String>,
    typer: &'a Typer<'a>,
    locals: HashMap<String, u64>,
    owner: Option<String>,
    owner_secret: bool,
    param_secret_typed: u64,
    out: Summary,
    findings: Option<&'a mut Vec<Finding>>,
    file: String,
    report_sinks: bool,
}

impl Eval<'_> {
    fn sink(&mut self, mask: u64, line: u32, what: &str) {
        self.out.sink_params |= mask & !SECRET;
        if mask & SECRET != 0 && self.report_sinks {
            if let Some(f) = self.findings.as_deref_mut() {
                f.push(Finding {
                    rule: RULE_TAINT,
                    file: self.file.clone(),
                    line,
                    message: format!(
                        "secret-derived value reaches {what} — secrets must never be \
                         formatted or wire-encoded; derive a public value first (sign/hash) \
                         or annotate `// lint: allow(taint, reason=...)`"
                    ),
                });
            }
        }
    }

    /// Applies a resolved callee's summary to the argument masks
    /// (`args[0]` aligned with the callee's first param).
    fn apply_summary(
        &mut self,
        targets: &[usize],
        arg_masks: &[u64],
        line: u32,
        name: &str,
    ) -> u64 {
        let mut out = 0u64;
        for &t in targets {
            let Some(callee) = self.ws.fns.get(t) else {
                continue;
            };
            let callee_path = self.ws.path_of(t);
            let summary = self.summaries.get(t).copied().unwrap_or_default();
            if is_declass(callee_path) {
                // Declassification is by declared type, not dataflow:
                // only constructors (return type naming a secret type)
                // re-taint. A getter whose *body* touches key material
                // still returns public data by design.
                if ret_names_secret(callee, self.secret_names) {
                    out |= SECRET;
                }
                continue;
            }
            for (i, m) in arg_masks.iter().enumerate().take(62) {
                let bit = 1u64 << i;
                if summary.ret_params & bit != 0 {
                    out |= m;
                }
                if summary.sink_params & bit != 0 {
                    self.sink(
                        *m,
                        line,
                        &format!("a format/wire sink via `{}`", qualified(callee, name)),
                    );
                }
            }
            if summary.ret_secret {
                out |= SECRET;
            }
        }
        if targets.is_empty() {
            // Unresolved (std) call: taint flows through (`.clone()`,
            // `Some(…)`, `.to_vec()` all preserve secrecy).
            out = arg_masks.iter().fold(0, |a, m| a | m);
        }
        out
    }

    fn bind(&mut self, names: &[String], mask: u64) {
        for n in names {
            *self.locals.entry(n.clone()).or_insert(0) |= mask;
        }
    }

    fn field_secret(&self, base: &Expr, name: &str) -> bool {
        let Some(base_ty) = self.typer.infer(base) else {
            return false;
        };
        self.ws
            .struct_fields
            .get(&base_ty)
            .and_then(|fields| fields.get(name))
            .is_some_and(|ty| ty_secret(ty, self.secret_names))
    }

    fn eval(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.locals.get(one).copied().unwrap_or(0),
                _ => 0,
            },
            Expr::Lit { .. } | Expr::Opaque { .. } | Expr::NestedFn(_) => 0,
            Expr::Field { base, name, .. } => {
                let mut m = self.eval(base);
                if self.field_secret(base, name) {
                    m |= SECRET;
                }
                m
            }
            Expr::Index { base, index, .. } => self.eval(base) | self.eval(index),
            Expr::Binary { lhs, rhs, .. } => self.eval(lhs) | self.eval(rhs),
            Expr::Assign { lhs, rhs, .. } => {
                let m = self.eval(rhs);
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if let [one] = segs.as_slice() {
                        *self.locals.entry(one.clone()).or_insert(0) |= m;
                    }
                }
                let _ = self.eval(lhs);
                0
            }
            Expr::Let {
                bindings,
                ty,
                init,
                else_block,
                ..
            } => {
                let mut m = init.as_ref().map_or(0, |i| self.eval(i));
                if ty
                    .as_deref()
                    .is_some_and(|t| ty_secret(t, self.secret_names))
                {
                    m |= SECRET;
                }
                self.bind(bindings, m);
                if let Some(e) = else_block {
                    let _ = self.eval(e);
                }
                0
            }
            Expr::Block { stmts, .. } => {
                let mut last = 0;
                for s in stmts {
                    last = self.eval(s);
                }
                last
            }
            Expr::If {
                cond,
                bindings,
                then_block,
                else_block,
                ..
            } => {
                let cm = self.eval(cond);
                self.bind(bindings, cm);
                let mut m = self.eval(then_block);
                if let Some(e) = else_block {
                    m |= self.eval(e);
                }
                m
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let sm = self.eval(scrutinee);
                let mut m = 0;
                for arm in arms {
                    self.bind(&arm.bindings, sm);
                    m |= self.eval(&arm.body);
                }
                m
            }
            Expr::For {
                bindings,
                iter,
                body,
                ..
            } => {
                let im = self.eval(iter);
                self.bind(bindings, im);
                // Twice: taint assigned late in the body reaches uses
                // earlier in the next iteration.
                let _ = self.eval(body);
                let _ = self.eval(body);
                0
            }
            Expr::Loop {
                cond,
                bindings,
                body,
                ..
            } => {
                if let Some(c) = cond {
                    let cm = self.eval(c);
                    self.bind(bindings, cm);
                }
                let _ = self.eval(body);
                let _ = self.eval(body);
                0
            }
            Expr::Closure { body, .. } => self.eval(body),
            Expr::Range { lo, hi, .. } => {
                lo.as_ref().map_or(0, |l| self.eval(l)) | hi.as_ref().map_or(0, |h| self.eval(h))
            }
            Expr::Cast { expr, ty, .. } => {
                let mut m = self.eval(expr);
                if ty_secret(ty, self.secret_names) {
                    m |= SECRET;
                }
                m
            }
            Expr::StructLit { segs, fields, .. } => {
                let mut m = 0;
                for (_, fe) in fields {
                    m |= self.eval(fe);
                }
                // `Self { .. }` inside an impl names the owner type.
                let head = segs.last().map(|s| {
                    if s == "Self" {
                        self.owner.as_deref().unwrap_or(s)
                    } else {
                        s.as_str()
                    }
                });
                if head.is_some_and(|s| self.secret_names.contains(s)) {
                    m |= SECRET;
                } else if head.is_some_and(|s| self.ws.struct_fields.contains_key(s)) {
                    // A known non-secret struct *boxes* any secret it is
                    // built from: the container itself is not hot, and
                    // reading the secret back out re-taints through the
                    // field's declared type. Without this, every
                    // `CloudUser`/`CloudServer`-style principal poisons
                    // the whole program.
                    m &= !SECRET;
                }
                m
            }
            Expr::Group { children, .. } => {
                let mut m = 0;
                for c in children {
                    m |= self.eval(c);
                }
                m
            }
            Expr::MacroCall { name, args, line } => {
                let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                let mut all = masks.iter().fold(0, |a, m| a | m);
                if FORMAT_MACROS.contains(&name.as_str()) {
                    // Inline captures — `format!("{v}")` — never surface
                    // `v` as a token, so mine the string literals too.
                    for a in args {
                        if let Expr::Lit { text, .. } = a {
                            for name in inline_captures(text) {
                                if let Some(m) = self.locals.get(&name) {
                                    all |= m;
                                }
                            }
                        }
                    }
                    self.sink(all, *line, &format!("`{name}!` (format sink)"));
                    0
                } else {
                    all
                }
            }
            Expr::Call { callee, args, line } => {
                let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                match callee.as_ref() {
                    Expr::Path { segs, .. } => {
                        let targets = self.typer.resolve_call(segs);
                        let name = segs.last().cloned().unwrap_or_default();
                        let mut m = self.apply_summary(&targets, &masks, *line, &name);
                        if targets.is_empty()
                            && segs
                                .iter()
                                .rev()
                                .nth(1)
                                .is_some_and(|t| self.secret_names.contains(t))
                        {
                            // `UserKey::clone(&k)`-style unresolved
                            // associated call on a secret type.
                            m |= SECRET;
                        }
                        m
                    }
                    other => {
                        let mut m = self.eval(other);
                        for mk in &masks {
                            m |= mk;
                        }
                        m
                    }
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let recv_mask = self.eval(recv);
                let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                if WIRE_SINKS.contains(&name.as_str()) {
                    let mut sunk = masks.iter().fold(0, |a, m| a | m);
                    if RECV_SINKS.contains(&name.as_str()) {
                        sunk |= recv_mask;
                    }
                    self.sink(sunk, *line, &format!("wire-encode sink `.{name}(…)`"));
                }
                let recv_ty = self.typer.infer(recv);
                let targets = self.ws.resolve_method(recv_ty.as_deref(), name, args.len());
                // Align receiver as param 0.
                let mut aligned = Vec::with_capacity(masks.len() + 1);
                aligned.push(recv_mask);
                aligned.extend(masks.iter().copied());
                self.apply_summary(&targets, &aligned, *line, name)
            }
        }
    }
}

/// Extracts inline-captured identifiers from a format string literal:
/// `"key {sk} {n:02x}"` → `["sk", "n"]`. `{{` escapes are skipped.
fn inline_captures(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = lit.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '{' {
            continue;
        }
        if chars.peek() == Some(&'{') {
            chars.next();
            continue;
        }
        let mut name = String::new();
        for c in chars.by_ref() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
            } else {
                break;
            }
        }
        if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            out.push(name);
        }
    }
    out
}

pub(crate) fn qualified(f: &FnNode, fallback: &str) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None if f.name.is_empty() => fallback.to_string(),
        None => f.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;
    use crate::rules::lint_files;

    fn lint(src: &str) -> Vec<(u32, String)> {
        let r = lint_files(
            &[("crates/core/src/t.rs".to_string(), src.to_string())],
            false,
        );
        r.findings
            .iter()
            .filter(|f| f.rule == RULE_TAINT)
            .map(|f| (f.line, f.message.clone()))
            .collect()
    }

    const SECRET_DEF: &str = "// lint: secret\npub struct UserKey { sk: u64 }\n\
                              impl Drop for UserKey { fn drop(&mut self) {} }\n";

    #[test]
    fn laundered_format_leak_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             impl UserKey {{ pub fn sk(&self) -> u64 {{ self.sk }} }}\n\
             fn leak(k: &UserKey) -> String {{\n\
                 let x = k.sk();\n\
                 render(x)\n\
             }}\n\
             fn render(v: u64) -> String {{ format!(\"{{v}}\") }}\n"
        );
        let hits = lint(&src);
        assert!(
            hits.iter().any(|(_, m)| m.contains("format")),
            "expected a taint finding, got {hits:?}"
        );
    }

    #[test]
    fn wire_encode_of_secret_field_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             struct W;\n\
             impl W {{ fn put_u64(&mut self, _v: u64) {{}} }}\n\
             fn emit(w: &mut W, k: &UserKey) {{ w.put_u64(k.sk); }}\n"
        );
        let hits = lint(&src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.contains("wire-encode"), "{hits:?}");
    }

    #[test]
    fn derived_public_values_are_not_tainted() {
        // A value returned by a non-secret fn fed by nothing secret.
        let src = format!(
            "{SECRET_DEF}\
             fn public_len(data: &[u8]) -> usize {{ data.len() }}\n\
             fn report(data: &[u8]) -> String {{ format!(\"{{}}\", public_len(data)) }}\n"
        );
        assert!(lint(&src).is_empty());
    }

    #[test]
    fn allow_annotation_silences_taint() {
        let src = format!(
            "{SECRET_DEF}\
             fn show(k: &UserKey) -> String {{\n\
                 // lint: allow(taint, reason=redacted debug prints no key bits)\n\
                 format!(\"{{}}\", k.sk)\n\
             }}\n"
        );
        assert!(lint(&src).is_empty());
    }

    #[test]
    fn word_boundary_containment() {
        assert!(contains_word("Option<UserKey>", "UserKey"));
        assert!(contains_word("&mut UserKey", "UserKey"));
        assert!(!contains_word("UserKeyring", "UserKey"));
    }

    #[test]
    fn summaries_converge_on_mutual_recursion() {
        let src = "fn a(x: u64) -> u64 { b(x) }\nfn b(x: u64) -> u64 { a(x) }";
        let ws = Workspace::build(vec![(
            "crates/core/src/r.rs".to_string(),
            parse(&lex(src).0),
        )]);
        let mut report = Report::default();
        let mut secrets = HashSet::new();
        secrets.insert("UserKey".to_string());
        let typers: Vec<Typer<'_>> = ws.fns.iter().map(|f| Typer::for_fn(&ws, f)).collect();
        check_taint(&ws, &typers, &HashMap::new(), &secrets, false, &mut report);
        assert!(report.findings.is_empty());
    }
}
