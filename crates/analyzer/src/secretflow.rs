//! Interprocedural secret flow (rules `taint`, `ctflow` and `vartime`).
//!
//! One dataflow engine with two lattices. Secrecy is seeded wherever a
//! value's declared or inferred type names a `// lint: secret` type
//! (`MasterKey`, `UserKey`, `VerifierKey`, `HmacDrbg`), then propagated
//! through `let` bindings, assignments, field access and — via per-fn
//! summaries iterated to a fixpoint — across call edges. Every value
//! carries a [`Mask`] with one lane per lattice; each lane is a SECRET
//! bit plus one bit per parameter the value derives from.
//!
//! **Three sink families.**
//!
//! * *Format/wire* (lane `fmt`, rule `taint`): `format!`-family macros
//!   (Debug/Display formatting, panics, asserts) and wire-encode methods
//!   (`put_*`, `encode_body`, `to_wire`).
//! * *Timing* (lane `ct`, rule `ctflow`): `if`/`while` conditions,
//!   `match` scrutinees with value patterns (pure destructuring arms do
//!   not compare values), comparison operators, `&&`/`||` short-circuits,
//!   slice/array indexes (cache timing) and `for`-loop range bounds.
//! * *Variable-time primitives* (lane `ct`, rule `vartime`): every fn
//!   whose name ends in `_vartime`, plus fns carrying an explicit
//!   `// lint: vartime(reason)` sanction (wNAF recoding, Pippenger window
//!   selection, binary-Euclid inversion). Summaries record which params
//!   reach a primitive across the whole call graph, so a secret argument
//!   landing on such a path is a finding however deep the primitive sits.
//!
//! **Where the lanes differ.**
//!
//! * A format macro is the `fmt` lane's sink and returns a public string;
//!   for `ct` it just propagates its arguments.
//! * A comparison, and a sanitizer call (`ct_eq`, `hmac_verify`,
//!   `ct_select`, `conditional_select`), is a public one-bit verdict for
//!   `ct` only: its operands reach no timing sink beyond the comparison
//!   itself, but the verdict may still not be printed.
//! * Each crate has one policy per lane ([`CRATE_POLICY`]): whether what
//!   it *returns* is public by design (constructors whose declared return
//!   type names a secret type re-taint, e.g. `HmacDrbg::new`,
//!   `MasterKey::extract`), and whether its own sinks are trusted. For
//!   `fmt`, everything `pairing`, `bigint`, `hash` and `ibs` return —
//!   signatures, tags, digests, DRBG output — may be published. For `ct`,
//!   `pairing` and `bigint` are taint-transparent (a secret point stays
//!   secret across `to_affine`) with trusted constant-time branches,
//!   `hash` declassifies and is trusted, and `ibs` declassifies what it
//!   returns while its internals, which handle raw key material, are
//!   fully checked.
//! * A secret-*typed* param's `fmt` sinks are reported in the fn that
//!   holds the sink, not propagated to callers.
//! * A vartime primitive is variable-time in all of its inputs by
//!   declaration: its body is not analyzed for `ct`, but still gets a
//!   `fmt` summary.
//!
//! Two deliberate imprecisions, both toward the paper's threat model:
//! any field read off a secret-typed base is secret (key structs are
//! small, and printing `sk_ID` is protocol-fatal), while a known
//! non-secret struct *boxes* the secrets it is built from (reading one
//! back out re-taints through the field's declared type).
//!
//! Escape hatches: `// lint: allow(taint, reason=…)` and
//! `// lint: allow(vartime, reason=…)`; `// lint: declassify(reason)`
//! silences `ctflow` on the next line (recorded as a `ctflow` allowance).

use std::collections::{HashMap, HashSet};
use std::ops::{BitOr, BitOrAssign};

use crate::ast::{Arm, Expr};
use crate::callgraph::{FnNode, Typer, Workspace};
use crate::rules::{
    FileCtx, Finding, Report, FORMAT_MACROS, RULE_CTFLOW, RULE_TAINT, RULE_VARTIME,
};

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

/// Calls whose result is a public verdict/selection by construction; their
/// arguments do not count as reaching a timing sink.
const SANITIZERS: [&str; 4] = ["ct_eq", "hmac_verify", "ct_select", "conditional_select"];

/// Comparison operators that leak their operands through timing when
/// short-circuiting (or through the branch they feed).
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

/// How one crate's fns look from a caller, in one lane.
#[derive(Clone, Copy)]
struct Policy {
    /// Returns drop every bit — the crate's API boundary is where
    /// secret-derived values become public by protocol design. Only
    /// constructors (declared return type naming a secret type) re-taint.
    ret_declass: bool,
    /// Sinks inside the crate are trusted: neither reported there nor
    /// propagated to callers through summaries.
    trust_sinks: bool,
}

const CHECKED: Policy = Policy {
    ret_declass: false,
    trust_sinks: false,
};
const DECLASS: Policy = Policy {
    ret_declass: true,
    trust_sinks: true,
};
const TRANSPARENT: Policy = Policy {
    ret_declass: false,
    trust_sinks: true,
};
const PUBLISHES: Policy = Policy {
    ret_declass: true,
    trust_sinks: false,
};

/// `(path prefix, fmt policy, ct policy)`; every other crate is
/// [`CHECKED`] in both lanes.
const CRATE_POLICY: [(&str, Policy, Policy); 4] = [
    // Field/group arithmetic: its outputs may be published, but a secret
    // point is still secret for timing; branches are constant-time by
    // construction, and the `vartime` rule polices the exceptions.
    ("crates/pairing/", DECLASS, TRANSPARENT),
    ("crates/bigint/", DECLASS, TRANSPARENT),
    // Digest/PRF/DRBG outputs are public; key scheduling branches on
    // lengths, never values.
    ("crates/hash/", DECLASS, DECLASS),
    // The scheme API publishes what it returns (signatures, proofs,
    // verdicts), but its internals handle raw key material.
    ("crates/ibs/", DECLASS, PUBLISHES),
];

fn policy(path: &str, lane: Lane) -> Policy {
    CRATE_POLICY
        .iter()
        .find(|(prefix, ..)| path.starts_with(prefix))
        .map_or(CHECKED, |&(_, fmt, ct)| match lane {
            Lane::Fmt => fmt,
            Lane::Ct => ct,
        })
}

/// The two lattices: format/wire leaks and timing leaks.
#[derive(Clone, Copy)]
enum Lane {
    Fmt,
    Ct,
}

impl Lane {
    fn rule(self) -> &'static str {
        match self {
            Lane::Fmt => RULE_TAINT,
            Lane::Ct => RULE_CTFLOW,
        }
    }

    fn message(self, what: &str) -> String {
        match self {
            Lane::Fmt => format!(
                "secret-derived value reaches {what} — secrets must never be \
                 formatted or wire-encoded; derive a public value first (sign/hash) \
                 or annotate `// lint: allow(taint, reason=...)`"
            ),
            Lane::Ct => format!(
                "secret-influenced value reaches {what} — execution time would depend \
                 on key material; use `seccloud_hash::ct_eq` / a constant-time select, \
                 or annotate `// lint: declassify(reason)` if the value is public by \
                 protocol design"
            ),
        }
    }
}

/// A value's secrecy in both lanes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Mask {
    fmt: u64,
    ct: u64,
}

impl Mask {
    const fn both(bits: u64) -> Self {
        Mask {
            fmt: bits,
            ct: bits,
        }
    }

    fn lane(self, lane: Lane) -> u64 {
        match lane {
            Lane::Fmt => self.fmt,
            Lane::Ct => self.ct,
        }
    }

    fn lane_mut(&mut self, lane: Lane) -> &mut u64 {
        match lane {
            Lane::Fmt => &mut self.fmt,
            Lane::Ct => &mut self.ct,
        }
    }
}

impl BitOr for Mask {
    type Output = Mask;
    fn bitor(self, rhs: Mask) -> Mask {
        Mask {
            fmt: self.fmt | rhs.fmt,
            ct: self.ct | rhs.ct,
        }
    }
}

impl BitOrAssign for Mask {
    fn bitor_assign(&mut self, rhs: Mask) {
        *self = *self | rhs;
    }
}

fn join(masks: &[Mask]) -> Mask {
    masks.iter().fold(Mask::default(), |a, m| a | *m)
}

/// Per-fn dataflow summary (masks only grow across fixpoint rounds).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Params whose taint reaches the return value, plus SECRET when the
    /// return is secret regardless of arguments.
    ret: Mask,
    /// Params whose taint reaches a lane's sink in (or below) this fn.
    sink: Mask,
    /// Params whose taint reaches a variable-time primitive in (or below)
    /// this fn.
    vt: u64,
}

/// Runs the `taint`, `ctflow` and `vartime` rules over the workspace.
pub fn check_secret_flow(
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
    let engine = Engine {
        ws,
        typers,
        prims: &prims,
        secret_names,
        all_rules,
    };
    let summaries = ws.fixpoint_summaries(Summary::default(), |i, sums| {
        engine.analyze_fn(i, sums, None)
    });
    // Reporting pass.
    let mut findings = Vec::new();
    for i in 0..ws.fns.len() {
        let _ = engine.analyze_fn(i, &summaries, Some(&mut findings));
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

/// Does this type string name a secret type?
fn ty_secret(ty: &str, secret_names: &HashSet<String>) -> bool {
    secret_names.iter().any(|s| contains_word(ty, s))
}

/// Does `f`'s declared return type name a secret type (directly or as
/// `Self` on a secret owner)?
fn ret_names_secret(f: &FnNode, secret_names: &HashSet<String>) -> bool {
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

/// What every fn's analysis shares.
struct Engine<'a> {
    ws: &'a Workspace,
    typers: &'a [Typer<'a>],
    prims: &'a [bool],
    secret_names: &'a HashSet<String>,
    all_rules: bool,
}

impl Engine<'_> {
    /// One evaluation of a fn body. Returns the fn's summary; when
    /// `findings` is set, also records sink hits (the reporting pass).
    fn analyze_fn(
        &self,
        fn_idx: usize,
        summaries: &[Summary],
        findings: Option<&mut Vec<Finding>>,
    ) -> Summary {
        let Some(f) = self.ws.fns.get(fn_idx) else {
            return Summary::default();
        };
        let Some(body) = &f.body else {
            return Summary::default();
        };
        if f.is_test {
            return Summary::default();
        }
        let Some(typer) = self.typers.get(fn_idx) else {
            return Summary::default();
        };
        let path = self.ws.path_of(fn_idx);
        let prim = self.prims.get(fn_idx).copied().unwrap_or(false);
        let mut ev = Eval {
            ws: self.ws,
            summaries,
            prims: self.prims,
            secret_names: self.secret_names,
            typer,
            locals: HashMap::new(),
            owner: f.owner.clone(),
            out: Summary::default(),
            findings,
            file: path.to_string(),
            // Trusted sinks still feed the summary so checked callers of
            // checked callees see through the boundary; they are only
            // reported where untrusted (or in fixture mode). A primitive's
            // timing lane is replaced by its sanction below.
            report_fmt: self.all_rules || !policy(path, Lane::Fmt).trust_sinks,
            report_ct: !prim && (self.all_rules || !policy(path, Lane::Ct).trust_sinks),
            report_vt: !prim,
        };
        let owner_secret = f
            .owner
            .as_deref()
            .is_some_and(|o| self.secret_names.contains(o));
        let mut param_secret_typed = 0u64;
        for (i, p) in f.params.iter().enumerate().take(62) {
            let mut mask = 1u64 << i;
            let secret_param = if p.name == "self" {
                owner_secret
            } else {
                ty_secret(&p.ty, self.secret_names)
            };
            if secret_param {
                mask |= SECRET;
                param_secret_typed |= 1u64 << i;
            }
            ev.locals.insert(p.name.clone(), Mask::both(mask));
        }
        let ret = ev.eval(body);
        let mut out = ev.out;
        let params = (1u64 << f.params.len().min(62)) - 1;
        // A fn whose return type names a secret type returns a secret no
        // matter what the body analysis saw (constructors in declass crates).
        let declared = if ret_names_secret(f, self.secret_names) {
            SECRET
        } else {
            0
        };
        out.ret = Mask {
            fmt: ret.fmt & (params | SECRET) | declared,
            ct: ret.ct & (params | SECRET) | declared,
        };
        // Secret-typed params are reported in the fn that holds the sink.
        out.sink.fmt &= !param_secret_typed;
        if prim {
            out.ret.ct = 0;
            out.sink.ct = 0;
            out.vt = params;
        }
        out
    }
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
    if !arm.bindings.is_empty() {
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
    locals: HashMap<String, Mask>,
    owner: Option<String>,
    out: Summary,
    findings: Option<&'a mut Vec<Finding>>,
    file: String,
    /// Report `fmt` / `ct` sink hits in this fn.
    report_fmt: bool,
    report_ct: bool,
    /// Report `vartime` hits in this fn.
    report_vt: bool,
}

impl Eval<'_> {
    fn push(&mut self, rule: &'static str, line: u32, message: String) {
        if let Some(f) = self.findings.as_deref_mut() {
            f.push(Finding {
                rule,
                file: self.file.clone(),
                line,
                message,
            });
        }
    }

    /// A `lane` sink saw `mask`.
    fn sink(&mut self, lane: Lane, mask: u64, line: u32, what: impl FnOnce() -> String) {
        *self.out.sink.lane_mut(lane) |= mask & !SECRET;
        let report = match lane {
            Lane::Fmt => self.report_fmt,
            Lane::Ct => self.report_ct,
        };
        if mask & SECRET != 0 && report && self.findings.is_some() {
            let message = lane.message(&what());
            self.push(lane.rule(), line, message);
        }
    }

    /// A variable-time primitive (or a path into one) saw `mask`.
    fn vt_sink(&mut self, mask: u64, line: u32, what: impl FnOnce() -> String) {
        self.out.vt |= mask & !SECRET;
        if mask & SECRET != 0 && self.report_vt && self.findings.is_some() {
            let message = format!(
                "secret-influenced value reaches variable-time {} — the vartime \
                 sanction list (DESIGN.md §9) admits public inputs only; route secrets \
                 through the constant-time API (`inverse`, `mul_fr_ct`), or annotate \
                 `// lint: allow(vartime, reason=...)`",
                what()
            );
            self.push(RULE_VARTIME, line, message);
        }
    }

    /// A call of `name` resolving to `targets`, with `args[0]` aligned to
    /// the callee's first param. `secret_assoc` marks an associated call
    /// on a secret type (`UserKey::clone(&k)`).
    fn call(
        &mut self,
        targets: &[usize],
        args: &[Mask],
        line: u32,
        name: &str,
        secret_assoc: bool,
    ) -> Mask {
        let sanitizer = SANITIZERS.contains(&name);
        let mut out = Mask::default();
        for &t in targets {
            let Some(callee) = self.ws.fns.get(t) else {
                continue;
            };
            out.fmt |= self.through(Lane::Fmt, t, args, line, name);
            // A sanitizer's verdict is public for timing: its arguments
            // reach none of the callee's timing sinks.
            if sanitizer {
                continue;
            }
            if self.prims.get(t).copied().unwrap_or(false) {
                let all = join(args).ct;
                self.vt_sink(all, line, || {
                    format!("primitive `{}`", qualified(callee, name))
                });
                continue;
            }
            // Variable-time reachability crosses every crate class.
            let vt = self.summaries.get(t).map_or(0, |s| s.vt);
            for (i, m) in args.iter().enumerate().take(62) {
                if vt & (1u64 << i) != 0 {
                    self.vt_sink(m.ct, line, || format!("path `{}`", qualified(callee, name)));
                }
            }
            out.ct |= self.through(Lane::Ct, t, args, line, name);
        }
        if targets.is_empty() {
            // Unresolved (std) call: taint flows through (`.clone()`,
            // `Some(…)`, `.to_vec()` all preserve secrecy).
            out = join(args);
            if secret_assoc {
                out |= Mask::both(SECRET);
            }
        }
        if sanitizer {
            out.ct = 0;
        } else if targets.is_empty() && name.ends_with("_vartime") {
            // Unresolved primitive (macro-generated field inverses): sink
            // directly on the arguments.
            let all = join(args).ct;
            self.vt_sink(all, line, || format!("primitive `{name}`"));
            out.ct = all & !SECRET;
        }
        out
    }

    /// Applies callee `t`'s `lane` summary under its crate's policy;
    /// returns the lane's mask of the call's value.
    fn through(&mut self, lane: Lane, t: usize, args: &[Mask], line: u32, name: &str) -> u64 {
        let Some(callee) = self.ws.fns.get(t) else {
            return 0;
        };
        let pol = policy(self.ws.path_of(t), lane);
        let summary = self.summaries.get(t).copied().unwrap_or_default();
        let (ret, sunk) = (summary.ret.lane(lane), summary.sink.lane(lane));
        let mut out = 0u64;
        for (i, m) in args.iter().enumerate().take(62) {
            let (m, bit) = (m.lane(lane), 1u64 << i);
            // Declassifying boundaries return *public* values — both the
            // SECRET bit and the param provenance drop (otherwise a branch
            // on `verifier.identity()` keeps blaming the key it was read
            // from).
            if !pol.ret_declass && ret & bit != 0 {
                out |= m;
            }
            if !pol.trust_sinks && sunk & bit != 0 {
                self.sink(lane, m, line, || {
                    let q = qualified(callee, name);
                    match lane {
                        Lane::Fmt => format!("a format/wire sink via `{q}`"),
                        Lane::Ct => format!("a branch/index inside `{q}`"),
                    }
                });
            }
        }
        // Declassification is by declared type, not dataflow: only
        // constructors re-taint. A getter whose *body* touches key
        // material still returns public data by design.
        let secret = if pol.ret_declass {
            ret_names_secret(callee, self.secret_names)
        } else {
            ret & SECRET != 0
        };
        if secret {
            out |= SECRET;
        }
        out
    }

    fn bind(&mut self, names: &[String], mask: Mask) {
        for n in names {
            *self.locals.entry(n.clone()).or_default() |= mask;
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

    fn eval(&mut self, e: &Expr) -> Mask {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.locals.get(one).copied().unwrap_or_default(),
                _ => Mask::default(),
            },
            Expr::Lit { .. } | Expr::Opaque { .. } | Expr::NestedFn(_) => Mask::default(),
            Expr::Field { base, name, .. } => {
                let mut m = self.eval(base);
                if self.field_secret(base, name) {
                    m |= Mask::both(SECRET);
                }
                m
            }
            Expr::Index { base, index, line } => {
                let bm = self.eval(base);
                let im = self.eval(index);
                self.sink(Lane::Ct, im.ct, *line, || {
                    "an array/slice index (secret-dependent memory access pattern)".into()
                });
                bm | im
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let m = self.eval(lhs) | self.eval(rhs);
                let kind = if CMP_OPS.contains(&op.as_str()) {
                    "comparison"
                } else if op == "&&" || op == "||" {
                    "short-circuit"
                } else {
                    return m;
                };
                // A comparison (or short-circuit) *is* the timing sink —
                // report it here, once. Its one-bit result is the verdict
                // the code goes on to branch with, so it leaves the
                // expression untainted for timing (otherwise every
                // verifier that returns `lhs == rhs` would re-flag all of
                // its callers).
                self.sink(Lane::Ct, m.ct, *line, || format!("a `{op}` {kind}"));
                Mask { fmt: m.fmt, ct: 0 }
            }
            Expr::Assign { lhs, rhs, .. } => {
                let m = self.eval(rhs);
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if let [one] = segs.as_slice() {
                        *self.locals.entry(one.clone()).or_default() |= m;
                    }
                }
                let _ = self.eval(lhs);
                Mask::default()
            }
            Expr::Let {
                bindings,
                ty,
                init,
                else_block,
                ..
            } => {
                let declared = if ty
                    .as_deref()
                    .is_some_and(|t| ty_secret(t, self.secret_names))
                {
                    Mask::both(SECRET)
                } else {
                    Mask::default()
                };
                if let Some(elems) = e.tuple_let_elements() {
                    // `let (user, server) = (…, …);` — each binding takes
                    // its own element's masks, not the whole tuple's.
                    for (b, elem) in elems {
                        let m = self.eval(elem) | declared;
                        self.bind(std::slice::from_ref(b), m);
                    }
                } else {
                    let m = init.as_ref().map_or(Mask::default(), |i| self.eval(i)) | declared;
                    // `let (key, items) = make();` — when the callee's
                    // declared tuple components are visible, only
                    // secret-typed components inherit SECRET, in both
                    // lattices; smearing the whole tuple's taint over
                    // every binding flags the public halves too.
                    let comps = (bindings.len() > 1 && ty.is_none())
                        .then(|| init.as_ref().and_then(|i| self.typer.ret_tuple_types(i)))
                        .flatten();
                    match comps {
                        Some(comps) if comps.len() == bindings.len() => {
                            for (b, c) in bindings.iter().zip(&comps) {
                                let secret = ty_secret(c, self.secret_names);
                                let split = |bits: u64| {
                                    if secret {
                                        bits | SECRET
                                    } else {
                                        bits & !SECRET
                                    }
                                };
                                let mask = Mask {
                                    fmt: split(m.fmt),
                                    ct: split(m.ct),
                                };
                                self.bind(std::slice::from_ref(b), mask);
                            }
                        }
                        _ => self.bind(bindings, m),
                    }
                }
                if let Some(e) = else_block {
                    let _ = self.eval(e);
                }
                Mask::default()
            }
            Expr::Block { stmts, .. } => {
                let mut last = Mask::default();
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
                    self.sink(Lane::Ct, cm.ct, *line, || "an `if` condition".into());
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
                    self.sink(Lane::Ct, sm.ct, *line, || {
                        "a `match` on concrete values".into()
                    });
                }
                let mut m = Mask::default();
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
                let im = self.eval(iter);
                if matches!(iter.as_ref(), Expr::Range { .. }) {
                    self.sink(Lane::Ct, im.ct, *line, || "a loop bound".into());
                }
                self.bind(bindings, im);
                // Twice: taint assigned late in the body reaches uses
                // earlier in the next iteration.
                let _ = self.eval(body);
                let _ = self.eval(body);
                Mask::default()
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
                        self.sink(Lane::Ct, cm.ct, *line, || "a `while` condition".into());
                    }
                    self.bind(bindings, cm);
                }
                let _ = self.eval(body);
                let _ = self.eval(body);
                Mask::default()
            }
            Expr::Closure { body, .. } => self.eval(body),
            Expr::Range { lo, hi, .. } => {
                let lo = lo.as_ref().map_or(Mask::default(), |l| self.eval(l));
                lo | hi.as_ref().map_or(Mask::default(), |h| self.eval(h))
            }
            Expr::Cast { expr, ty, .. } => {
                let mut m = self.eval(expr);
                if ty_secret(ty, self.secret_names) {
                    m |= Mask::both(SECRET);
                }
                m
            }
            Expr::StructLit { segs, fields, .. } => {
                let mut m = Mask::default();
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
                    m |= Mask::both(SECRET);
                } else if head.is_some_and(|s| self.ws.struct_fields.contains_key(s)) {
                    // A known non-secret struct *boxes* any secret it is
                    // built from: the container itself is not hot, and
                    // reading the secret back out re-taints through the
                    // field's declared type. Without this, every
                    // `CloudUser`/`CloudServer`-style principal poisons
                    // the whole program.
                    m.fmt &= !SECRET;
                    m.ct &= !SECRET;
                }
                m
            }
            Expr::Group { children, .. } => {
                let mut m = Mask::default();
                for c in children {
                    m |= self.eval(c);
                }
                m
            }
            Expr::MacroCall { name, args, line } => {
                let all = args.iter().fold(Mask::default(), |a, e| a | self.eval(e));
                if !FORMAT_MACROS.contains(&name.as_str()) {
                    return all;
                }
                // Inline captures — `format!("{v}")` — never surface `v`
                // as a token, so mine the string literals too.
                let mut fmt = all.fmt;
                for a in args {
                    if let Expr::Lit { text, .. } = a {
                        for name in inline_captures(text) {
                            if let Some(m) = self.locals.get(&name) {
                                fmt |= m.fmt;
                            }
                        }
                    }
                }
                self.sink(Lane::Fmt, fmt, *line, || format!("`{name}!` (format sink)"));
                Mask { fmt: 0, ct: all.ct }
            }
            Expr::Call { callee, args, line } => {
                let masks: Vec<Mask> = args.iter().map(|a| self.eval(a)).collect();
                let Expr::Path { segs, .. } = callee.as_ref() else {
                    return self.eval(callee) | join(&masks);
                };
                let targets = self.typer.resolve_call(segs);
                let name = segs.last().cloned().unwrap_or_default();
                let secret_assoc = segs
                    .iter()
                    .rev()
                    .nth(1)
                    .is_some_and(|t| self.secret_names.contains(t));
                self.call(&targets, &masks, *line, &name, secret_assoc)
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                // The receiver is aligned as param 0.
                let mut masks = vec![self.eval(recv)];
                masks.extend(args.iter().map(|a| self.eval(a)));
                if WIRE_SINKS.contains(&name.as_str()) {
                    let skip = usize::from(!RECV_SINKS.contains(&name.as_str()));
                    let sunk = join(masks.get(skip..).unwrap_or_default()).fmt;
                    self.sink(Lane::Fmt, sunk, *line, || {
                        format!("wire-encode sink `.{name}(…)`")
                    });
                }
                let recv_ty = self.typer.infer(recv);
                let targets = self.ws.resolve_method(recv_ty.as_deref(), name, args.len());
                self.call(&targets, &masks, *line, name, false)
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

fn qualified(f: &FnNode, fallback: &str) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None if f.name.is_empty() => fallback.to_string(),
        None => f.name.clone(),
    }
}

#[cfg(test)]
mod taint_tests {
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
        check_secret_flow(&ws, &typers, &HashMap::new(), &secrets, false, &mut report);
        assert!(report.findings.is_empty());
    }
}

#[cfg(test)]
mod ctflow_tests {
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
