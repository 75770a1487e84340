//! AST-level rules: unchecked sampling arithmetic (`arith`) and
//! exhaustive wire dispatch (`dispatch`).
//!
//! * `arith` — in the sampling/escalation/backoff files, a raw `+ - *
//!   <<` (or compound assignment) on operands known to be integers is a
//!   finding: the eq. 10 math (`t' = min(2^s·t, n)`, binomial terms)
//!   must use `checked_*` / `saturating_*` so a silent wrap can never
//!   inflate or deflate a detection probability. Floating-point math is
//!   exempt — the rule only fires when an operand is *provably* an
//!   integer (int-typed binding, `as` int cast, suffixed literal,
//!   `.len()`-family call, or an int-range loop variable) and neither
//!   side is provably a float.
//! * `dispatch` — a `match` whose arms name a wire-protocol enum
//!   (`WireError`, `RpcError`, `ServerError`, `ComputeFunction`) must
//!   not also carry a bare catch-all `_` arm: a `_` silently discards
//!   unknown-variant evidence the audit trail needs. Guarded `_ if …`
//!   arms and matches on non-protocol enums are exempt.

use std::collections::{HashMap, HashSet};

use crate::ast::{int_suffixed, int_typed, Expr};
use crate::callgraph::{type_head, Workspace};
use crate::rules::{FileCtx, Finding, Report, RULE_ARITH, RULE_DISPATCH};

/// Files whose integer arithmetic must be overflow-safe.
const ARITH_SCOPE: [&str; 4] = [
    "crates/resilience/src/escalation.rs",
    "crates/resilience/src/policy.rs",
    "crates/core/src/analysis/sampling.rs",
    "crates/cloudsim/src/montecarlo.rs",
];

/// Wire-protocol enums whose matches must stay arm-exhaustive.
const DISPATCH_ENUMS: [&str; 5] = [
    "WireError",
    "RpcError",
    "ServerError",
    "ComputeFunction",
    "WireMessage",
];

/// Handler-code prefixes for the dispatch rule.
const DISPATCH_SCOPE: [&str; 4] = [
    "crates/cloudsim/src/",
    "crates/resilience/src/",
    "crates/core/src/",
    "crates/testkit/src/",
];

/// Operators the arith rule polices (division/modulo panic rather than
/// wrap and are left to the panic rules).
const ARITH_OPS: [&str; 4] = ["+", "-", "*", "<<"];
const ARITH_ASSIGN_OPS: [&str; 4] = ["+=", "-=", "*=", "<<="];

#[derive(Clone, Copy, PartialEq, Eq)]
enum NumKind {
    Int,
    Float,
    Unknown,
}

/// Methods that return integers regardless of receiver.
const INT_METHODS: [&str; 3] = ["len", "count", "leading_zeros"];
/// Methods that return floats regardless of receiver.
const FLOAT_METHODS: [&str; 8] = [
    "powi",
    "powf",
    "sqrt",
    "ln",
    "log2",
    "exp",
    "abs_diff_f",
    "to_f64",
];

/// The `arith` rule.
pub fn check_arith(
    ws: &Workspace,
    ctxs: &HashMap<&str, &FileCtx>,
    all_rules: bool,
    report: &mut Report,
) {
    for (i, f) in ws.fns.iter().enumerate() {
        let path = ws.path_of(i);
        if f.is_test {
            continue;
        }
        if !all_rules && !ARITH_SCOPE.contains(&path) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let ctx = ctxs.get(path).copied();
        // Bindings known to be ints / floats: params, then `let`s (one
        // forward pass; a second pass would only matter for use-before-
        // definition, which `let` cannot express).
        let mut kinds: HashMap<String, NumKind> = HashMap::new();
        for p in &f.params {
            kinds.insert(p.name.clone(), kind_of_ty(&p.ty));
        }
        let mut findings: Vec<(u32, String)> = Vec::new();
        walk_arith(body, &mut kinds, &mut findings);
        for (line, op) in findings {
            let allowed = ctx
                .is_some_and(|c| c.rule_allowed(RULE_ARITH, line) || c.test_lines.contains(&line));
            if allowed {
                continue;
            }
            report.findings.push(Finding {
                rule: RULE_ARITH,
                file: path.to_string(),
                line,
                message: format!(
                    "unchecked `{op}` on integer operands in sampling/backoff math — a \
                     silent wrap skews eq. 10; use `checked_{{add,sub,mul,shl}}` / \
                     `saturating_*`, or annotate `// lint: allow(arith, reason=...)`"
                ),
            });
        }
    }
}

fn kind_of_ty(ty: &str) -> NumKind {
    if int_typed(ty) {
        NumKind::Int
    } else {
        let head = type_head(ty);
        if head == "f64" || head == "f32" {
            NumKind::Float
        } else {
            NumKind::Unknown
        }
    }
}

/// Walks a body in evaluation order, tracking binding kinds and flagging
/// raw integer arithmetic.
fn walk_arith(e: &Expr, kinds: &mut HashMap<String, NumKind>, out: &mut Vec<(u32, String)>) {
    match e {
        Expr::Let {
            bindings, ty, init, ..
        } => {
            if let Some(i) = init {
                walk_arith(i, kinds, out);
            }
            let k = match ty.as_deref() {
                Some(t) => kind_of_ty(t),
                None => init
                    .as_ref()
                    .map_or(NumKind::Unknown, |i| num_kind(i, kinds)),
            };
            for b in bindings {
                kinds.insert(b.clone(), k);
            }
        }
        Expr::Binary { op, lhs, rhs, line } => {
            walk_arith(lhs, kinds, out);
            walk_arith(rhs, kinds, out);
            if ARITH_OPS.contains(&op.as_str()) {
                let lk = num_kind(lhs, kinds);
                let rk = num_kind(rhs, kinds);
                let some_int = lk == NumKind::Int || rk == NumKind::Int;
                let some_float = lk == NumKind::Float || rk == NumKind::Float;
                if some_int && !some_float {
                    out.push((*line, op.clone()));
                }
            }
        }
        Expr::Assign { op, lhs, rhs, line } => {
            walk_arith(lhs, kinds, out);
            walk_arith(rhs, kinds, out);
            if ARITH_ASSIGN_OPS.contains(&op.as_str()) {
                let lk = num_kind(lhs, kinds);
                let rk = num_kind(rhs, kinds);
                let some_int = lk == NumKind::Int || rk == NumKind::Int;
                let some_float = lk == NumKind::Float || rk == NumKind::Float;
                if some_int && !some_float {
                    out.push((*line, op.clone()));
                }
            }
        }
        Expr::For {
            bindings,
            iter,
            body,
            ..
        } => {
            walk_arith(iter, kinds, out);
            let k = num_kind(iter, kinds);
            for b in bindings {
                kinds.insert(b.clone(), k);
            }
            walk_arith(body, kinds, out);
        }
        // Everything else: recurse structurally.
        Expr::Block { stmts, .. } => {
            for s in stmts {
                walk_arith(s, kinds, out);
            }
        }
        Expr::If {
            cond,
            then_block,
            else_block,
            ..
        } => {
            walk_arith(cond, kinds, out);
            walk_arith(then_block, kinds, out);
            if let Some(e2) = else_block {
                walk_arith(e2, kinds, out);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_arith(scrutinee, kinds, out);
            for arm in arms {
                walk_arith(&arm.body, kinds, out);
            }
        }
        Expr::Loop { cond, body, .. } => {
            if let Some(c) = cond {
                walk_arith(c, kinds, out);
            }
            walk_arith(body, kinds, out);
        }
        Expr::Call { callee, args, .. } => {
            walk_arith(callee, kinds, out);
            for a in args {
                walk_arith(a, kinds, out);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_arith(recv, kinds, out);
            for a in args {
                walk_arith(a, kinds, out);
            }
        }
        Expr::Field { base, .. } => walk_arith(base, kinds, out),
        Expr::Index { base, index, .. } => {
            walk_arith(base, kinds, out);
            walk_arith(index, kinds, out);
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(l) = lo {
                walk_arith(l, kinds, out);
            }
            if let Some(h) = hi {
                walk_arith(h, kinds, out);
            }
        }
        Expr::Cast { expr, .. } => walk_arith(expr, kinds, out),
        Expr::StructLit { fields, .. } => {
            for (_, fe) in fields {
                walk_arith(fe, kinds, out);
            }
        }
        Expr::Group { children, .. } => {
            for c in children {
                walk_arith(c, kinds, out);
            }
        }
        Expr::Closure { body, .. } => walk_arith(body, kinds, out),
        Expr::MacroCall { args, .. } => {
            for a in args {
                walk_arith(a, kinds, out);
            }
        }
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } | Expr::NestedFn(_) => {}
    }
}

/// Classifies an operand as provably-int, provably-float, or unknown.
fn num_kind(e: &Expr, kinds: &HashMap<String, NumKind>) -> NumKind {
    match e {
        Expr::Lit { text, is_int, .. } => {
            if int_suffixed(text) {
                NumKind::Int
            } else if !is_int || text.ends_with("f64") || text.ends_with("f32") {
                NumKind::Float
            } else {
                // A bare integer literal: numeric but its type is driven
                // by the other operand — report Unknown so `1.0 + 1`
                // style float math never fires.
                NumKind::Unknown
            }
        }
        Expr::Path { segs, .. } => match segs.as_slice() {
            [one] => kinds.get(one).copied().unwrap_or(NumKind::Unknown),
            _ => NumKind::Unknown,
        },
        Expr::Cast { ty, .. } => kind_of_ty(ty),
        Expr::Binary { op, lhs, rhs, .. } if ARITH_OPS.contains(&op.as_str()) || op == "/" => {
            let lk = num_kind(lhs, kinds);
            if lk != NumKind::Unknown {
                lk
            } else {
                num_kind(rhs, kinds)
            }
        }
        Expr::MethodCall { name, .. } if INT_METHODS.contains(&name.as_str()) => NumKind::Int,
        Expr::MethodCall { name, .. } if FLOAT_METHODS.contains(&name.as_str()) => NumKind::Float,
        Expr::MethodCall { recv, name, .. } => {
            // Arithmetic helpers (`saturating_mul`, `min`, `max`, …)
            // preserve the receiver's kind.
            if name.starts_with("saturating_")
                || name.starts_with("wrapping_")
                || name == "min"
                || name == "max"
                || name == "pow"
            {
                num_kind(recv, kinds)
            } else {
                NumKind::Unknown
            }
        }
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => num_kind(one, kinds),
            _ => NumKind::Unknown,
        },
        Expr::Range { lo, hi, .. } => {
            let k = lo.as_ref().map_or(NumKind::Unknown, |l| num_kind(l, kinds));
            if k != NumKind::Unknown {
                k
            } else {
                hi.as_ref().map_or(NumKind::Unknown, |h| num_kind(h, kinds))
            }
        }
        _ => NumKind::Unknown,
    }
}

/// The `dispatch` rule.
pub fn check_dispatch(
    ws: &Workspace,
    ctxs: &HashMap<&str, &FileCtx>,
    all_rules: bool,
    report: &mut Report,
) {
    for (i, f) in ws.fns.iter().enumerate() {
        let path = ws.path_of(i);
        if f.is_test {
            continue;
        }
        if !all_rules && !DISPATCH_SCOPE.iter().any(|p| path.starts_with(p)) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let ctx = ctxs.get(path).copied();
        body.walk(&mut |e| {
            let Expr::Match { arms, .. } = e else { return };
            let mut enums: HashSet<&str> = HashSet::new();
            for arm in arms {
                for p in &arm.pat_paths {
                    if let Some(first) = p.first() {
                        if DISPATCH_ENUMS.contains(&first.as_str()) {
                            enums.insert(first.as_str());
                        }
                    }
                }
            }
            if enums.is_empty() {
                return;
            }
            for arm in arms {
                if !arm.is_wildcard {
                    continue;
                }
                let allowed = ctx.is_some_and(|c| {
                    c.rule_allowed(RULE_DISPATCH, arm.line) || c.test_lines.contains(&arm.line)
                });
                if allowed {
                    continue;
                }
                let mut names: Vec<&str> = enums.iter().copied().collect();
                names.sort_unstable();
                report.findings.push(Finding {
                    rule: RULE_DISPATCH,
                    file: path.to_string(),
                    line: arm.line,
                    message: format!(
                        "catch-all `_` in a match on `{}` discards unknown-variant \
                         evidence — enumerate every variant so new wire cases are a \
                         compile error, or annotate `// lint: allow(dispatch, reason=...)`",
                        names.join("`/`")
                    ),
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_files;

    fn lint_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let r = lint_files(&[(path.to_string(), src.to_string())], false);
        r.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn raw_int_math_fires_in_scope_only() {
        let src = "pub fn esc(t: usize, s: u32) -> usize { t * 2 + s as usize }";
        let hits = lint_at("crates/resilience/src/escalation.rs", src);
        assert_eq!(hits, vec![(RULE_ARITH, 1), (RULE_ARITH, 1)]);
        assert!(lint_at("crates/resilience/src/transport.rs", src).is_empty());
    }

    #[test]
    fn float_probability_math_is_exempt() {
        let src = "pub fn p(x: f64, t: u32) -> f64 {\n\
                   let mut acc = 1.0;\n\
                   for i in 0..t { acc = acc * (1.0 - x / (i as f64 + 1.0)); }\n\
                   acc\n}";
        let hits = lint_at("crates/core/src/analysis/sampling.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn checked_and_saturating_forms_are_clean() {
        let src = "pub fn esc(t: usize, n: usize, s: u32) -> usize {\n\
                   let scale = 1usize.checked_shl(s.min(63)).unwrap_or(usize::MAX);\n\
                   t.saturating_mul(scale).min(n)\n}";
        let hits = lint_at("crates/resilience/src/escalation.rs", src);
        assert!(hits.iter().all(|(r, _)| *r != RULE_ARITH), "{hits:?}");
    }

    #[test]
    fn compound_assign_and_len_math_fire() {
        let src = "pub fn f(xs: &[u8]) -> usize {\n\
                   let mut t = 0usize;\n\
                   t += 1;\n\
                   xs.len() - 1\n}";
        let hits = lint_at("crates/core/src/analysis/sampling.rs", src);
        let arith: Vec<u32> = hits
            .iter()
            .filter(|(r, _)| *r == RULE_ARITH)
            .map(|(_, l)| *l)
            .collect();
        assert_eq!(arith, vec![3, 4], "{hits:?}");
    }

    #[test]
    fn wildcard_on_wire_enum_fires() {
        let src = "pub fn handle(e: &RpcError) -> bool {\n\
                   match e {\n\
                   RpcError::Timeout { .. } => true,\n\
                   _ => false,\n\
                   }\n}";
        let hits = lint_at("crates/cloudsim/src/handler.rs", src);
        assert_eq!(hits, vec![(RULE_DISPATCH, 4)]);
    }

    #[test]
    fn exhaustive_match_and_foreign_enums_are_clean() {
        let ok = "pub fn handle(e: &RpcError) -> bool {\n\
                  match e {\n\
                  RpcError::Timeout { .. } => true,\n\
                  RpcError::Malformed(_) => false,\n\
                  }\n}";
        assert!(lint_at("crates/cloudsim/src/handler.rs", ok).is_empty());
        let foreign =
            "pub fn f(b: &Behavior) -> f64 { match b { Behavior::Honest => 1.0, _ => 0.0 } }";
        assert!(lint_at("crates/cloudsim/src/behavior.rs", foreign).is_empty());
    }

    #[test]
    fn guarded_wildcard_is_exempt() {
        let src = "pub fn handle(e: &RpcError, n: u32) -> bool {\n\
                   match e {\n\
                   RpcError::Timeout { .. } => true,\n\
                   _ if n > 3 => false,\n\
                   RpcError::Malformed(_) => false,\n\
                   }\n}";
        let hits = lint_at("crates/cloudsim/src/handler.rs", src);
        assert!(hits.iter().all(|(r, _)| *r != RULE_DISPATCH), "{hits:?}");
    }
}
