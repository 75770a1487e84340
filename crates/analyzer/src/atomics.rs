//! Rule `atomics`: every memory-ordering choice must be justified.
//!
//! The workspace uses atomics in four places with security-relevant
//! semantics: the arch-dispatch `ACTIVE` backend selector, the prepared-key
//! cache hit/miss/eviction counters, the entropy-seed monotone counter,
//! and the zeroize compiler fences. A wrong `Ordering` in any of them is
//! silent — the code compiles, the tests pass on x86's strong memory
//! model, and the bug only surfaces as a reordered security decision on a
//! weakly-ordered target. So the rule is: *choosing* an ordering is an
//! act that requires a written justification.
//!
//! * Every `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}` site
//!   must carry a `// lint: ordering(reason)` annotation (same line or the
//!   line above). The reason string is mandatory and is surfaced as an
//!   allowance in the lint summary and baseline — an unjustified ordering
//!   is a finding.
//! * `Relaxed` on a *read-modify-write* (`fetch_*`, `swap`,
//!   `compare_exchange*`) inside security-scoped crates (`hash`, `ibs`,
//!   `core`) is an error even when annotated with `ordering(...)`: an RMW
//!   that feeds a security decision (entropy uniqueness, key-cache
//!   accounting) must not be free to reorder against the decision it
//!   feeds. Only an explicit `// lint: allow(atomics, reason=…)` — which
//!   lands in the baseline for review — can suppress it.
//!
//! `std::cmp::Ordering` never collides with this rule: its variants
//! (`Less`/`Equal`/`Greater`) are not memory orderings.

use crate::rules::{FileCtx, Finding, Report, RULE_ATOMICS};

/// The five memory orderings of `core::sync::atomic::Ordering`.
const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic read-modify-write methods: a load *and* a store in one step.
const RMW_METHODS: [&str; 12] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Crates whose atomics feed security decisions (entropy counters, key
/// caches, wire framing): `Relaxed` RMW is an error here.
const SECURITY_SCOPE: [&str; 3] = ["crates/hash/src/", "crates/ibs/src/", "crates/core/src/"];

/// Runs the `atomics` rule over one file's token stream.
pub fn check_atomics(ctx: &FileCtx, all_rules: bool, report: &mut Report) {
    let security = all_rules || SECURITY_SCOPE.iter().any(|p| ctx.path.starts_with(p));
    for (i, tok) in ctx.toks.iter().enumerate() {
        if tok.text != "Ordering" {
            continue;
        }
        if ctx.toks.get(i + 1).is_none_or(|t| t.text != "::") {
            continue;
        }
        let Some(variant) = ctx.toks.get(i + 2) else {
            continue;
        };
        if !MEMORY_ORDERINGS.contains(&variant.text.as_str()) {
            continue;
        }
        let line = variant.line;
        // Tests may order freely: a racy test fails loudly, and demanding
        // annotations there would drown the signal.
        if ctx.test_lines.contains(&line) {
            continue;
        }
        let unjustified = !ctx.ordering_lines.contains(&line);
        let relaxed_rmw = (variant.text == "Relaxed" && security)
            .then(|| enclosing_call_method(ctx, i))
            .flatten()
            .filter(|method| RMW_METHODS.contains(&method.as_str()));
        if !unjustified && relaxed_rmw.is_none() || ctx.rule_allowed(RULE_ATOMICS, line) {
            continue;
        }
        if unjustified {
            report.findings.push(Finding {
                rule: RULE_ATOMICS,
                file: ctx.path.clone(),
                line,
                message: format!(
                    "`Ordering::{}` without a `// lint: ordering(reason)` justification — \
                     every memory-ordering choice must say why it is strong enough \
                     (DESIGN.md §9)",
                    variant.text
                ),
            });
        }
        if let Some(method) = relaxed_rmw {
            report.findings.push(Finding {
                rule: RULE_ATOMICS,
                file: ctx.path.clone(),
                line,
                message: format!(
                    "`Relaxed` read-modify-write (`{method}`) on a security-scoped \
                     atomic — a counter or selector feeding a security decision needs \
                     `SeqCst` (or at least `AcqRel`); `ordering(...)` cannot bless \
                     this, only `// lint: allow(atomics, reason=...)` can"
                ),
            });
        }
    }
}

/// Walks backwards from the `Ordering` token at `i` to the unmatched `(`
/// that opened the enclosing call, and returns the method name before it.
fn enclosing_call_method(ctx: &FileCtx, i: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = ctx.toks.get(j)?;
        match t.text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    let name = ctx.toks.get(j.checked_sub(1)?)?;
                    return Some(name.text.clone());
                }
                depth -= 1;
            }
            ";" | "{" | "}" if depth == 0 => return None,
            _ => {}
        }
        // Bound the scan: an Ordering argument sits close to its call.
        if i - j > 64 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_files;

    fn atomics_findings(path: &str, src: &str) -> Vec<Finding> {
        lint_files(&[(path.to_string(), src.to_string())], false)
            .findings
            .into_iter()
            .filter(|f| f.rule == RULE_ATOMICS)
            .collect()
    }

    #[test]
    fn unjustified_ordering_is_flagged() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   c.load(Ordering::SeqCst)\n\
                   }\n";
        let hits = atomics_findings("crates/registry/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn ordering_annotation_justifies_a_site() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   // lint: ordering(statistics counter, no ordering dependency)\n\
                   c.load(Ordering::Relaxed)\n\
                   }\n";
        assert!(atomics_findings("crates/registry/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_rmw_in_security_scope_is_an_error_despite_ordering_note() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   // lint: ordering(counter increment)\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }\n";
        let hits = atomics_findings("crates/hash/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("read-modify-write"), "{hits:?}");
    }

    #[test]
    fn relaxed_rmw_outside_security_scope_needs_only_the_note() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   // lint: ordering(progress metric, never read for decisions)\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }\n";
        assert!(atomics_findings("crates/resilience/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_atomics_suppresses_the_rmw_error() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   // lint: allow(atomics, reason=hit counter is diagnostics-only)\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }\n";
        assert!(atomics_findings("crates/hash/src/x.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_a_memory_ordering() {
        let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n\
                   if a < b { Ordering::Less } else { Ordering::Greater }\n\
                   }\n";
        assert!(atomics_findings("crates/hash/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }\n}\n";
        assert!(atomics_findings("crates/hash/src/x.rs", src).is_empty());
    }
}
