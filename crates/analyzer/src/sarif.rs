//! Minimal SARIF 2.1.0 rendering of a lint [`Report`].
//!
//! Emits the subset of the schema
//! (<https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>)
//! that code-scanning UIs consume: one run, a `tool.driver` with the
//! rule catalogue, and one `result` per finding with a
//! `physicalLocation` (`artifactLocation.uri` + `region.startLine`).
//! Built by hand on the same escaping helper as the JSON baseline —
//! the workspace's zero-dependency rule applies to its tooling too.

use crate::rules::{Report, ALL_RULES};

/// The SARIF version this module emits.
pub const SARIF_VERSION: &str = "2.1.0";

/// Short per-rule descriptions for the SARIF rule catalogue.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "panic_path" => "Protocol-path fns must not transitively reach a panic source.",
        "secret" => "Secret types: no Debug/Serialize derive, zeroize on Drop.",
        "taint" => "Secret-derived values must never reach format or wire-encode sinks.",
        "ct" => "Digest/tag comparisons must be constant-time (ct_eq).",
        "ctflow" => {
            "Secret-tainted values must not reach timing sinks (branches, \
                     comparisons, indices, loop bounds)."
        }
        "vartime" => {
            "Variable-time primitives (inverse_vartime, wNAF, Pippenger windows) \
                      are reachable from public inputs only."
        }
        "atomics" => {
            "Every Ordering::* choice carries an ordering(reason); no Relaxed RMW \
                      on security-scoped atomics."
        }
        "locks" => {
            "No lock-order cycles across the workspace and no re-entrant \
                    acquisition of a held Mutex/RwLock/OnceLock."
        }
        "blocking" => {
            "No socket I/O, channel send/recv, joins, sleeps, or pairing work \
                       while a lock is held (escape: lock(reason))."
        }
        "deadline" => {
            "Every std::net read/write must be dominated by set_read_timeout/\
                       set_write_timeout on the same stream."
        }
        "arith" => "No raw left shift in sampling/backoff integer math (checked_shl).",
        "unsafe" => "forbid(unsafe_code) on crate roots; SAFETY comments on unsafe blocks.",
        "transport" => "Raw wire channels only inside cloudsim/resilience/testkit/net.",
        "annotation" => "lint: annotations must parse and carry a reason.",
        _ => "seccloud-lint rule.",
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `report` as a SARIF 2.1.0 document.
#[must_use]
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str(&format!("  \"version\": \"{SARIF_VERSION}\",\n"));
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"seccloud-lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let sep = if i + 1 == ALL_RULES.len() { "" } else { "," };
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{sep}\n",
            esc(rule),
            esc(rule_description(rule)),
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \
             \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{sep}\n",
            esc(f.rule),
            esc(&f.message),
            esc(&f.file),
            f.line,
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, RULE_TAINT};

    #[test]
    fn sarif_document_has_schema_rules_and_results() {
        let report = Report {
            findings: vec![Finding {
                rule: RULE_TAINT,
                file: "crates/ibs/src/keys.rs".to_string(),
                line: 7,
                message: "secret \"leak\"\nwith newline".to_string(),
            }],
            allowances: Vec::new(),
            files: 1,
        };
        let doc = render_sarif(&report);
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"seccloud-lint\""));
        assert!(doc.contains("\"ruleId\": \"taint\""));
        assert!(doc.contains("\"startLine\": 7"));
        assert!(doc.contains("secret \\\"leak\\\"\\nwith newline"));
        // Every rule id appears in the catalogue.
        for rule in ALL_RULES {
            assert!(doc.contains(&format!("\"id\": \"{rule}\"")), "{rule}");
        }
    }

    #[test]
    fn empty_report_renders_empty_results() {
        let doc = render_sarif(&Report::default());
        assert!(doc.contains("\"results\": [\n      ]"));
    }
}
