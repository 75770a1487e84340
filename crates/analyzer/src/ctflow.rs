//! Interprocedural constant-time dataflow (rules `ctflow` and `vartime`).
//!
//! The token-level `ct` rule of PR 3 pattern-matches `==` against
//! digest-like identifier names — it cannot see a secret that crosses a
//! `let`, a call boundary, or an arithmetic expression before controlling
//! a branch. This module runs a value-level taint analysis over the same
//! AST + call graph the `taint` rule uses, but with *timing sinks* instead
//! of format/wire sinks:
//!
//! * `if`/`while` conditions and `match` scrutinees (value patterns only —
//!   pure destructuring arms do not compare values),
//! * comparison operators (`==`, `!=`, `<`, `<=`, `>`, `>=`),
//! * `&&` / `||` short-circuits,
//! * slice/array index expressions (cache-timing on the access pattern),
//! * `for`-loop range bounds.
//!
//! A finding fires when a value whose taint lattice carries the SECRET bit
//! reaches one of these sinks. Taint is seeded exactly like the `taint`
//! rule: from `// lint: secret` types, secret-typed params/fields/locals.
//!
//! **Sanitizers.** `ct_eq`, `hmac_verify` and the conditional-select
//! family (`ct_select`, `conditional_select`) return public verdicts by
//! construction; their results are untainted and their arguments are not
//! treated as reaching a sink.
//!
//! **Crate policy.** Two independent per-crate axes (see [`Policy`]):
//!
//! * *return declassification* (`crates/hash`, `crates/ibs`): what these
//!   crates return — digests, DRBG output, signatures, audit verdicts —
//!   is public by protocol design, so returns drop the SECRET bit at the
//!   API boundary (constructors whose declared return type names a secret
//!   type re-taint, e.g. `HmacDrbg::new`, `MasterKey::generate`);
//! * *trusted branches* (`crates/pairing`, `crates/bigint`,
//!   `crates/hash`): internal branch sinks are neither reported nor
//!   propagated — these crates implement the constant-time arithmetic
//!   (or branch only on public structure such as digest block counts),
//!   and their data-dependent paths are policed by the `vartime` rule.
//!
//! `crates/ibs` is the interesting quadrant: its returns are declassified
//! (a signature is published), but its *internals* handle raw key
//! material and are fully analyzed and reported.
//!
//! **Rule `vartime`.** Variable-time primitives — every fn whose name
//! ends in `_vartime`, plus fns carrying an explicit
//! `// lint: vartime(reason)` sanction (wNAF digit recoding, Pippenger
//! window selection, binary-Euclid inversion) — are *sinks for secrets*:
//! per-fn summaries record which params reach a primitive (transitively,
//! across the whole call graph), and a call whose secret-tainted argument
//! or receiver lands on such a path is a `vartime` finding. This turns
//! PR 6's "public Miller-loop slopes only" doc-comment contract into a
//! machine-checked invariant.
//!
//! Escape hatches: `// lint: declassify(reason)` silences `ctflow` on the
//! next line (recorded as an allowance, surfaced in the baseline);
//! `// lint: allow(vartime, reason=…)` does the same for `vartime`.

use std::collections::{HashMap, HashSet};

use crate::ast::{Arm, Expr};
use crate::callgraph::{Typer, Workspace};
use crate::rules::{FileCtx, Finding, Report, RULE_CTFLOW, RULE_VARTIME};
use crate::taint::{qualified, ret_names_secret, ty_secret};

/// Bit 63 marks "directly secret"; bits 0..62 mark "derived from param i".
const SECRET: u64 = 1 << 63;

/// Calls whose result is a public verdict/selection by construction; their
/// arguments do not count as reaching a timing sink.
const SANITIZERS: [&str; 4] = ["ct_eq", "hmac_verify", "ct_select", "conditional_select"];

/// Comparison operators that leak their operands through timing when
/// short-circuiting (or through the branch they feed).
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

/// Per-crate trust policy — three independent axes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Policy {
    /// Returns drop the SECRET bit: the crate's API boundary is where
    /// secret-derived values become public by protocol design (digests,
    /// signatures, audit outcomes). Constructors whose declared return
    /// type names a secret type still re-taint.
    ret_declass: bool,
    /// Internal data-dependent branches are trusted (the crate implements
    /// the constant-time arithmetic itself): branch sinks are neither
    /// reported in the crate nor propagated to callers via summaries.
    /// The `vartime` rule still polices its sanctioned primitives.
    trust_branches: bool,
}

fn policy(path: &str) -> Policy {
    // Field/group arithmetic: taint-transparent (a secret point is still
    // secret across `to_affine`), branches trusted, vartime checked.
    if path.starts_with("crates/pairing/") || path.starts_with("crates/bigint/") {
        return Policy {
            ret_declass: false,
            trust_branches: true,
        };
    }
    // Digest/PRF/DRBG outputs are public by design; fixed-structure key
    // scheduling branches (on lengths, never values) are trusted.
    if path.starts_with("crates/hash/") {
        return Policy {
            ret_declass: true,
            trust_branches: true,
        };
    }
    // The scheme API: everything it *returns* (signatures, proofs,
    // outcomes) is published by protocol design, but its internals handle
    // raw key material — fully analyzed and reported.
    if path.starts_with("crates/ibs/") {
        return Policy {
            ret_declass: true,
            trust_branches: false,
        };
    }
    Policy {
        ret_declass: false,
        trust_branches: false,
    }
}

/// Per-fn dataflow summary (masks only grow across fixpoint rounds).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Params whose taint reaches the return value.
    ret_params: u64,
    /// The return value is secret regardless of arguments.
    ret_secret: bool,
    /// Params whose taint reaches a timing sink in (or below) this fn.
    branch_params: u64,
    /// Params whose taint reaches a variable-time primitive in (or below)
    /// this fn.
    vt_params: u64,
}

/// Runs the `ctflow` + `vartime` rules over the workspace.
pub fn check_ctflow(
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
    // The vartime sanction set: `*_vartime` names plus explicit markers.
    let prims: Vec<bool> = ws
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            f.name.ends_with("_vartime")
                || ctxs
                    .get(ws.path_of(i))
                    .is_some_and(|c| c.vartime_lines.contains(&f.line))
        })
        .collect();
    let n = ws.fns.len();
    let summaries = ws.fixpoint_summaries(Summary::default(), |i, sums| {
        analyze_fn(ws, typers, i, sums, &prims, secret_names, all_rules, None)
    });
    // Reporting pass.
    let mut findings = Vec::new();
    for i in 0..n {
        let _ = analyze_fn(
            ws,
            typers,
            i,
            &summaries,
            &prims,
            secret_names,
            all_rules,
            Some(&mut findings),
        );
    }
    for f in findings {
        let allowed = ctxs
            .get(f.file.as_str())
            .is_some_and(|c| c.rule_allowed(f.rule, f.line) || c.test_lines.contains(&f.line));
        if !allowed {
            report.findings.push(f);
        }
    }
}

/// One evaluation of a fn body. Returns the fn's summary; when
/// `findings` is set, also records sink hits (the reporting pass).
#[allow(clippy::too_many_arguments)]
fn analyze_fn(
    ws: &Workspace,
    typers: &[Typer<'_>],
    fn_idx: usize,
    summaries: &[Summary],
    prims: &[bool],
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
    if f.is_test {
        return Summary::default();
    }
    let path = ws.path_of(fn_idx);
    let pol = policy(path);
    if prims.get(fn_idx).copied().unwrap_or(false) {
        // A sanctioned primitive is variable-time in *all* of its inputs
        // by declaration; its body is not analyzed further.
        let all_params = (1u64 << f.params.len().min(62)) - 1;
        return Summary {
            vt_params: all_params,
            ..Summary::default()
        };
    }
    let mut ev = Eval {
        ws,
        summaries,
        prims,
        secret_names,
        typer: match typers.get(fn_idx) {
            Some(t) => t,
            None => return Summary::default(),
        },
        locals: HashMap::new(),
        owner: f.owner.clone(),
        owner_secret: f.owner.as_deref().is_some_and(|o| secret_names.contains(o)),
        out: Summary::default(),
        findings,
        file: path.to_string(),
        // Branch sinks are only *reported* where branches are not trusted
        // (or in fixture mode); they still feed `branch_params` so checked
        // callers of checked callees see through the boundary.
        report_branches: all_rules || !pol.trust_branches,
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
        }
        ev.locals.insert(p.name.clone(), mask);
    }
    let ret_mask = ev.eval(body);
    ev.out.ret_params |= ret_mask & !SECRET;
    if ret_mask & SECRET != 0 {
        ev.out.ret_secret = true;
    }
    if ret_names_secret(f, secret_names) {
        ev.out.ret_secret = true;
    }
    ev.out.ret_params &= (1u64 << f.params.len().min(62)) - 1;
    ev.out
}

/// Does a `match` arm compare concrete values (as opposed to pure
/// destructuring)? `0 => …` and `Tag::Ack => …` are value patterns;
/// `Some(v) => …`, `None => …` and `_ => …` are not — matching an
/// `Option`'s presence is how checked code unwraps, not a comparison.
fn is_value_arm(arm: &Arm) -> bool {
    if arm.has_literal {
        // `0 => …`, `"ack" => …`, `Some(0) => …` — comparing a literal is
        // a value comparison wherever it sits in the pattern.
        return true;
    }
    if arm.is_wildcard || !arm.bindings.is_empty() {
        return false;
    }
    !arm.pat_paths
        .iter()
        .all(|p| p.last().is_some_and(|s| s == "None"))
}

/// Is this condition expression already covered by an operator-level sink
/// (a comparison or short-circuit at its top level)?
fn cond_covered(e: &Expr) -> bool {
    match e {
        Expr::Group { children, .. } => children.iter().any(cond_covered),
        Expr::Binary { op, .. } => CMP_OPS.contains(&op.as_str()) || op == "&&" || op == "||",
        _ => false,
    }
}

struct Eval<'a> {
    ws: &'a Workspace,
    summaries: &'a [Summary],
    prims: &'a [bool],
    secret_names: &'a HashSet<String>,
    typer: &'a Typer<'a>,
    locals: HashMap<String, u64>,
    owner: Option<String>,
    owner_secret: bool,
    out: Summary,
    findings: Option<&'a mut Vec<Finding>>,
    file: String,
    report_branches: bool,
}

impl Eval<'_> {
    /// A timing sink (branch/index/comparison) saw `mask`.
    fn branch_sink(&mut self, mask: u64, line: u32, what: &str) {
        self.out.branch_params |= mask & !SECRET;
        if mask & SECRET != 0 && self.report_branches {
            if let Some(f) = self.findings.as_deref_mut() {
                f.push(Finding {
                    rule: RULE_CTFLOW,
                    file: self.file.clone(),
                    line,
                    message: format!(
                        "secret-influenced value reaches {what} — execution time would depend \
                         on key material; use `seccloud_hash::ct_eq` / a constant-time select, \
                         or annotate `// lint: declassify(reason)` if the value is public by \
                         protocol design"
                    ),
                });
            }
        }
    }

    /// A variable-time primitive (or a path into one) saw `mask`.
    fn vt_sink(&mut self, mask: u64, line: u32, what: &str) {
        self.out.vt_params |= mask & !SECRET;
        if mask & SECRET != 0 {
            if let Some(f) = self.findings.as_deref_mut() {
                f.push(Finding {
                    rule: RULE_VARTIME,
                    file: self.file.clone(),
                    line,
                    message: format!(
                        "secret-influenced value reaches variable-time {what} — the vartime \
                         sanction list (DESIGN.md §9) admits public inputs only; route secrets \
                         through the constant-time API (`inverse`, `mul_fr_ct`), or annotate \
                         `// lint: allow(vartime, reason=...)`"
                    ),
                });
            }
        }
    }

    /// Applies resolved callees' summaries to the argument masks
    /// (`arg_masks[0]` aligned with the callee's first param).
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
            if self.prims.get(t).copied().unwrap_or(false) {
                let all = arg_masks.iter().fold(0, |a, m| a | m);
                self.vt_sink(
                    all,
                    line,
                    &format!("primitive `{}`", qualified(callee, name)),
                );
                continue;
            }
            // Variable-time reachability crosses every crate class.
            for (i, m) in arg_masks.iter().enumerate().take(62) {
                if summary.vt_params & (1u64 << i) != 0 {
                    self.vt_sink(*m, line, &format!("path `{}`", qualified(callee, name)));
                }
            }
            let pol = policy(callee_path);
            for (i, m) in arg_masks.iter().enumerate().take(62) {
                let bit = 1u64 << i;
                if summary.ret_params & bit != 0 && !pol.ret_declass {
                    // Declassifying boundaries return *public* values —
                    // both the SECRET bit and the param provenance drop
                    // (otherwise a branch on `verifier.identity()` keeps
                    // blaming the key it was read from). Everywhere else
                    // taint is transparent (a secret point is still
                    // secret after `to_affine`).
                    out |= *m;
                }
                if !pol.trust_branches && summary.branch_params & bit != 0 {
                    self.branch_sink(
                        *m,
                        line,
                        &format!("a branch/index inside `{}`", qualified(callee, name)),
                    );
                }
            }
            if pol.ret_declass {
                // Only constructors of secret types re-taint.
                if ret_names_secret(callee, self.secret_names) {
                    out |= SECRET;
                }
            } else if summary.ret_secret {
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
            Expr::Index { base, index, line } => {
                let bm = self.eval(base);
                let im = self.eval(index);
                self.branch_sink(
                    im,
                    *line,
                    "an array/slice index (secret-dependent memory access pattern)",
                );
                bm | im
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let m = self.eval(lhs) | self.eval(rhs);
                // A comparison (or short-circuit) *is* the timing sink —
                // report it here, once. Its one-bit result is the verdict
                // the code goes on to branch with, so it leaves the
                // expression untainted (otherwise every verifier that
                // returns `lhs == rhs` would re-flag all of its callers).
                if CMP_OPS.contains(&op.as_str()) {
                    self.branch_sink(m, *line, &format!("a `{op}` comparison"));
                    return 0;
                }
                if op == "&&" || op == "||" {
                    self.branch_sink(m, *line, &format!("a `{op}` short-circuit"));
                    return 0;
                }
                m
            }
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
                // `let (key, items) = make();` — when the callee's declared
                // tuple components are visible, only secret-typed
                // components inherit SECRET; smearing the whole tuple's
                // taint over every binding flags the public halves too.
                let comps = (bindings.len() > 1 && ty.is_none())
                    .then(|| init.as_ref().and_then(|i| self.typer.ret_tuple_types(i)))
                    .flatten();
                match comps {
                    Some(comps) if comps.len() == bindings.len() => {
                        for (b, c) in bindings.iter().zip(&comps) {
                            let bm = if ty_secret(c, self.secret_names) {
                                m | SECRET
                            } else {
                                m & !SECRET
                            };
                            self.bind(std::slice::from_ref(b), bm);
                        }
                    }
                    _ => self.bind(bindings, m),
                }
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
                line,
            } => {
                let cm = self.eval(cond);
                // `if let` tests structure, not values; operator-level
                // sinks already fired inside comparison conditions.
                if bindings.is_empty() && !cond_covered(cond) {
                    self.branch_sink(cm, *line, "an `if` condition");
                }
                self.bind(bindings, cm);
                let mut m = self.eval(then_block);
                if let Some(e) = else_block {
                    m |= self.eval(e);
                }
                m
            }
            Expr::Match {
                scrutinee,
                arms,
                line,
            } => {
                let sm = self.eval(scrutinee);
                if arms.iter().any(is_value_arm) {
                    self.branch_sink(sm, *line, "a `match` on concrete values");
                }
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
                line,
            } => {
                if let Expr::Range { lo, hi, .. } = iter.as_ref() {
                    let bm = lo.as_ref().map_or(0, |l| self.eval(l))
                        | hi.as_ref().map_or(0, |h| self.eval(h));
                    self.branch_sink(bm, *line, "a loop bound");
                }
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
                line,
            } => {
                if let Some(c) = cond {
                    let cm = self.eval(c);
                    if bindings.is_empty() && !cond_covered(c) {
                        self.branch_sink(cm, *line, "a `while` condition");
                    }
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
                    // A known non-secret struct boxes the secrets it is
                    // built from; reading one back out re-taints through
                    // the field's declared type (same rule as `taint`).
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
            Expr::MacroCall { args, .. } => {
                // Format/panic macro leaks are the `taint` rule's domain;
                // here macros just propagate their arguments' taint.
                args.iter().map(|a| self.eval(a)).fold(0, |a, m| a | m)
            }
            Expr::Call { callee, args, line } => {
                let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                match callee.as_ref() {
                    Expr::Path { segs, .. } => {
                        let name = segs.last().cloned().unwrap_or_default();
                        if SANITIZERS.contains(&name.as_str()) {
                            return 0;
                        }
                        let targets = self.typer.resolve_call(segs);
                        if targets.is_empty() && name.ends_with("_vartime") {
                            // Unresolved primitive (macro-generated field
                            // inverses): sink directly on the arguments.
                            let all = masks.iter().fold(0, |a, m| a | m);
                            self.vt_sink(all, *line, &format!("primitive `{name}`"));
                            return all & !SECRET;
                        }
                        let mut m = self.apply_summary(&targets, &masks, *line, &name);
                        if targets.is_empty()
                            && segs
                                .iter()
                                .rev()
                                .nth(1)
                                .is_some_and(|t| self.secret_names.contains(t))
                        {
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
                if SANITIZERS.contains(&name.as_str()) {
                    return 0;
                }
                let recv_ty = self.typer.infer(recv);
                let targets = self.ws.resolve_method(recv_ty.as_deref(), name, args.len());
                let mut aligned = Vec::with_capacity(masks.len() + 1);
                aligned.push(recv_mask);
                aligned.extend(masks.iter().copied());
                if targets.is_empty() && name.ends_with("_vartime") {
                    let all = aligned.iter().fold(0, |a, m| a | m);
                    self.vt_sink(all, *line, &format!("primitive `{name}`"));
                    return all & !SECRET;
                }
                self.apply_summary(&targets, &aligned, *line, name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_files;

    fn lint_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let r = lint_files(&[(path.to_string(), src.to_string())], false);
        r.findings
            .iter()
            .filter(|f| f.rule == RULE_CTFLOW || f.rule == RULE_VARTIME)
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn lint(src: &str) -> Vec<(&'static str, u32)> {
        lint_at("crates/core/src/t.rs", src)
    }

    const SECRET_DEF: &str = "// lint: secret\npub struct UserKey { sk: u64 }\n\
                              impl Drop for UserKey { fn drop(&mut self) {} }\n";

    #[test]
    fn secret_branch_is_caught_across_a_call() {
        let src = format!(
            "{SECRET_DEF}\
             fn check(v: u64) -> bool {{ if v > 9 {{ true }} else {{ false }} }}\n\
             fn gate(k: &UserKey) -> bool {{ check(k.sk) }}\n"
        );
        let hits = lint(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_CTFLOW),
            "expected a ctflow finding, got {hits:?}"
        );
    }

    #[test]
    fn secret_comparison_and_index_are_caught() {
        let src = format!(
            "{SECRET_DEF}\
             fn cmp(k: &UserKey, x: u64) -> bool {{ k.sk == x }}\n\
             fn idx(k: &UserKey, t: &[u8]) -> u8 {{ t[(k.sk as usize) % t.len()] }}\n"
        );
        let hits = lint(&src);
        assert!(hits.len() >= 2, "{hits:?}");
    }

    #[test]
    fn sanitizers_clear_taint() {
        let src = format!(
            "{SECRET_DEF}\
             fn ok(k: &UserKey, x: u64) -> bool {{\n\
                 if ct_eq(&k.sk.to_be_bytes(), &x.to_be_bytes()) {{ true }} else {{ false }}\n\
             }}\n"
        );
        assert!(lint(&src).is_empty(), "{:?}", lint(&src));
    }

    #[test]
    fn declassify_annotation_silences_ctflow() {
        let src = format!(
            "{SECRET_DEF}\
             fn gate(k: &UserKey) -> bool {{\n\
                 // lint: declassify(parity of sk is published in the audit header)\n\
                 k.sk % 2 == 0\n\
             }}\n"
        );
        assert!(lint(&src).is_empty(), "{:?}", lint(&src));
    }

    #[test]
    fn vartime_call_with_secret_argument_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             fn inverse_vartime(v: u64) -> u64 {{ v }}\n\
             fn bad(k: &UserKey) -> u64 {{ inverse_vartime(k.sk) }}\n\
             fn good(x: u64) -> u64 {{ inverse_vartime(x) }}\n"
        );
        let hits = lint(&src);
        assert_eq!(
            hits.iter().filter(|(r, _)| *r == RULE_VARTIME).count(),
            1,
            "{hits:?}"
        );
    }

    #[test]
    fn vartime_reachability_crosses_call_boundaries() {
        let src = format!(
            "{SECRET_DEF}\
             fn inverse_vartime(v: u64) -> u64 {{ v }}\n\
             fn helper(v: u64) -> u64 {{ inverse_vartime(v) }}\n\
             fn outer(k: &UserKey) -> u64 {{ helper(k.sk) }}\n"
        );
        let hits = lint(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_VARTIME),
            "transitive vartime reach must be flagged: {hits:?}"
        );
    }

    #[test]
    fn vartime_marker_sanctions_a_named_fn() {
        let src = format!(
            "{SECRET_DEF}\
             // lint: vartime(window selection is public weights only)\n\
             fn fold(w: u64) -> u64 {{ w }}\n\
             fn bad(k: &UserKey) -> u64 {{ fold(k.sk) }}\n"
        );
        let hits = lint(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_VARTIME),
            "marker-sanctioned fn must sink secrets: {hits:?}"
        );
    }

    #[test]
    fn match_on_destructuring_is_not_a_sink() {
        let src = format!(
            "{SECRET_DEF}\
             fn peel(k: Option<UserKey>) -> u64 {{\n\
                 match k {{ Some(key) => key.sk, None => 0 }}\n\
             }}\n"
        );
        assert!(lint(&src).is_empty(), "{:?}", lint(&src));
    }

    #[test]
    fn trusted_crates_propagate_but_do_not_report() {
        // A branch inside crates/pairing is trusted; the taint still flows
        // through its return into checked code.
        let a = (
            "crates/pairing/src/h.rs".to_string(),
            "pub fn norm(v: u64) -> u64 { if v > 3 { v } else { 0 } }".to_string(),
        );
        let b = (
            "crates/core/src/t.rs".to_string(),
            format!(
                "{SECRET_DEF}\
                 fn gate(k: &UserKey) -> bool {{ norm(k.sk) == 0 }}\n"
            ),
        );
        let r = lint_files(&[a, b], false);
        let ctf: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_CTFLOW)
            .collect();
        assert_eq!(ctf.len(), 1, "{ctf:?}");
        assert!(ctf[0].file.contains("core"), "{ctf:?}");
    }
}
