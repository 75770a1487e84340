//! The `locks` and `blocking` rules: held-lock-set dataflow, the global
//! lock-order graph, and the blocking-under-lock policy.
//!
//! Three passes share one scoped guard-lifetime evaluator:
//!
//! 1. **Interning** walks every non-test body and assigns each distinct
//!    lock *identity* a bit in a `u64` mask. A field-held lock is named
//!    by its owner (`PreparedCache.inner`, `ProxyShared.plan`); a lock
//!    reached through a param or local is named by its declared type with
//!    `&`/`Arc<>` wrappers peeled (`Mutex<Receiver<TcpStream>>`); a
//!    `OnceLock` static is named `OnceLock.NAME`. Two same-typed locks
//!    collapse onto one bit — a deliberate conservative heuristic: the
//!    analysis may then report an order between two distinct instances,
//!    but it can never *miss* an order between aliases of one instance.
//! 2. **Summaries** ([`LockSummary`]) iterate over the PR-5 call graph
//!    with [`Workspace::fixpoint_summaries`]: which bits a fn (or any
//!    callee) acquires, which bits its return value still holds (only
//!    fns whose declared return type names a `Guard` can export one —
//!    `PreparedCache::lock`), and which blocking kinds (§[`crate::blocking`])
//!    it can reach.
//! 3. **Reporting** re-runs the evaluator with the fixpoint summaries:
//!    re-acquiring a held bit (directly or through a callee) is a
//!    self-deadlock finding; a blocking operation while a `Mutex`/`RwLock`
//!    bit is held is a `blocking` finding unless a reason-bearing
//!    `// lint: lock(...)` covers the line; every acquisition under held
//!    bits contributes `held → acquired` edges to the global lock-order
//!    graph, whose cycles are reported as potential deadlocks with one
//!    witness per edge.
//!
//! Guard lifetime follows Rust's drop rules closely enough to matter:
//! bindings anchor their bits until `drop()` or scope exit, un-bound
//! temporaries die at end of statement (so the guard-extending temporary
//! `m.lock().unwrap().push(x);` holds only for that statement), `match`
//! arms bind the scrutinee's bits (the poison-recovery
//! `match m.lock() { Ok(g) => g, Err(p) => p.into_inner() }` keeps the
//! bit), and `if let` temporaries release at the end of the `if`.
//! `OnceLock` bits participate in the order graph (a `get_or_init`
//! cycle is a real deadlock) but are exempt from the blocking policy —
//! one-time heavy initialization under a `OnceLock` is its whole point.

use std::collections::{BTreeMap, HashMap};

use crate::ast::{Expr, FnDecl};
use crate::blocking::{
    classify_unresolved_call, classify_unresolved_method, is_pairing_entry, kind_names, NetSummary,
    B_SOCKET,
};
use crate::callgraph::{Typer, Workspace};
use crate::rules::{FileCtx, Finding, Report, RULE_BLOCKING, RULE_LOCKS};

/// Methods whose return value still carries (or restores) the receiver's
/// guard: `m.lock().unwrap()` and the poison-recovery surface. Every
/// other method projects *out* of the guard (`.len()`, `.clone()`,
/// `.map(...)`) and returns no bits.
const GUARD_CARRIERS: [&str; 12] = [
    "unwrap",
    "expect",
    "ok",
    "err",
    "into_inner",
    "map_err",
    "as_ref",
    "as_mut",
    "as_deref",
    "borrow",
    "borrow_mut",
    "unwrap_or_else",
];

/// Receiver-type heads whose methods are std-library methods, never
/// workspace fns. The call graph's by-name union fallback would otherwise
/// manufacture phantom edges across them — `self.map.remove(&k)` on a
/// `HashMap` resolving to `PreparedCache::remove`, which locks — and the
/// evaluator would report the phantom as a re-entrant deadlock. Generic
/// params (`T`) and guard types stay union-eligible: guard deref
/// (`inner.touch(..)` through `MutexGuard<'_, Inner>`) and trait dispatch
/// (`t.rpc_audit(..)`) are real workspace edges.
const STD_CONTAINER_HEADS: [&str; 14] = [
    "HashMap", "BTreeMap", "HashSet", "BTreeSet", "Vec", "VecDeque", "String", "Option", "Result",
    "Arc", "Box", "Rc", "Instant", "Duration",
];

/// How a lock bit blocks waiters.
#[derive(Clone, Copy, PartialEq)]
enum LockKind {
    /// `Mutex` / `RwLock`: holding one subjects the holder to the
    /// blocking policy.
    Mutexy,
    /// `OnceLock`: order-graph participant only.
    Once,
}

/// The interned lock table: identity string → bit.
struct LockTable {
    names: Vec<String>,
    kinds: Vec<LockKind>,
    by_name: HashMap<String, u32>,
    /// Mask of bits whose kind is [`LockKind::Mutexy`].
    mutexy: u64,
}

impl LockTable {
    fn bit(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&i| 1u64 << i.min(63))
    }

    fn names_of(&self, mask: u64) -> String {
        let mut parts = Vec::new();
        for (i, n) in self.names.iter().enumerate() {
            if mask & (1u64 << i.min(63)) != 0 {
                parts.push(format!("`{n}`"));
            }
        }
        parts.join(", ")
    }
}

/// Per-fn lock summary (grows monotonically under the fixpoint).
#[derive(Clone, Copy, Default, PartialEq)]
struct LockSummary {
    /// Bits this fn (or any callee) can acquire.
    acquires: u64,
    /// Bits the return value still holds (guard-returning helpers).
    returns_guard: u64,
    /// Blocking kinds reachable from this fn (see [`crate::blocking`]).
    blocks: u8,
}

/// One lock-order edge's first witness.
struct EdgeWitness {
    file: String,
    line: u32,
    func: String,
    via: Option<String>,
}

/// Resolves an acquisition site to a lock identity, if `recv.name(...)`
/// is one. Returns `(identity, kind)`.
fn lock_site(
    ws: &Workspace,
    typer: &Typer<'_>,
    recv: &Expr,
    name: &str,
    argc: usize,
) -> Option<(String, LockKind)> {
    match name {
        "get_or_init" | "get_or_try_init" => {
            // `OnceLock` statics only: an UPPER_CASE terminal path segment.
            let seg = static_name(recv)?;
            Some((format!("OnceLock.{seg}"), LockKind::Once))
        }
        "lock" if argc == 0 => {
            let ty = declared_type(ws, typer, recv)?;
            ty.contains("Mutex<")
                .then(|| (lock_identity(ws, typer, recv, &ty), LockKind::Mutexy))
        }
        "read" | "write" if argc == 0 => {
            let ty = declared_type(ws, typer, recv)?;
            ty.contains("RwLock<")
                .then(|| (lock_identity(ws, typer, recv, &ty), LockKind::Mutexy))
        }
        _ => None,
    }
}

/// The UPPER_CASE name of a static path expression (`GLOBAL`,
/// `cache::SECRET`), peeling `Group` wrappers.
fn static_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => static_name(one),
            _ => None,
        },
        Expr::Path { segs, .. } => {
            let last = segs.last()?;
            (!last.is_empty() && !last.chars().any(char::is_lowercase)).then(|| last.clone())
        }
        _ => None,
    }
}

/// The declared type of a lock receiver: a struct field's declared type,
/// or a param/annotated-local raw type.
fn declared_type(ws: &Workspace, typer: &Typer<'_>, recv: &Expr) -> Option<String> {
    match recv {
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => declared_type(ws, typer, one),
            _ => None,
        },
        Expr::Field { base, name, .. } => {
            let owner = typer.infer(base)?;
            ws.struct_fields.get(&owner)?.get(name).cloned()
        }
        _ => typer.raw_type_of(recv),
    }
}

/// The interned identity for a `Mutex`/`RwLock` acquisition: field
/// receivers are `Owner.field`; params/locals are the normalized declared
/// type (`&Arc<Mutex<T>>` → `Mutex<T>`).
fn lock_identity(ws: &Workspace, typer: &Typer<'_>, recv: &Expr, declared: &str) -> String {
    if let Expr::Field { base, name, .. } = peel(recv) {
        if let Some(owner) = typer.infer(base) {
            if ws
                .struct_fields
                .get(&owner)
                .is_some_and(|f| f.contains_key(name))
            {
                return format!("{owner}.{name}");
            }
        }
    }
    normalize_lock_type(declared)
}

fn peel(e: &Expr) -> &Expr {
    match e {
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => peel(one),
            _ => e,
        },
        _ => e,
    }
}

/// The guarded type head inside a declared guard return type:
/// `MutexGuard<'_, Inner>` → `Inner`.
fn guard_target(ret: &str) -> Option<String> {
    let ret = ret.trim();
    let head_end = ret.find('<')?;
    if !ret.get(..head_end)?.ends_with("Guard") {
        return None;
    }
    let inner = ret.get(head_end + 1..)?.strip_suffix('>')?;
    Some(crate::callgraph::type_head(inner.rsplit(',').next()?))
}

/// The guarded type head of a direct std acquisition: a receiver declared
/// `Mutex<Receiver<TcpStream>>` yields `Receiver`.
fn lock_target_head(declared: &str) -> Option<String> {
    let t = normalize_lock_type(declared);
    let inner = t
        .strip_prefix("Mutex<")
        .or_else(|| t.strip_prefix("RwLock<"))?
        .strip_suffix('>')?;
    Some(crate::callgraph::type_head(inner))
}

/// Strips `&`, `mut ` and `Arc<…>` wrappers off a declared lock type.
fn normalize_lock_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        let peeled = t
            .trim_start_matches('&')
            .trim_start()
            .trim_start_matches("mut ")
            .trim_start();
        if peeled == t {
            break;
        }
        t = peeled;
    }
    while let Some(inner) = t.strip_prefix("Arc<").and_then(|r| r.strip_suffix('>')) {
        t = inner.trim();
    }
    t.to_string()
}

/// The evaluator: one fn body walk threading held bits, scoped bindings,
/// and (in the reporting pass) findings and order edges.
struct Eval<'a, 'b> {
    ws: &'a Workspace,
    typer: &'a Typer<'a>,
    table: &'a LockTable,
    summaries: &'a [LockSummary],
    net: &'a [NetSummary],
    fn_name: String,
    path: &'a str,
    /// Currently held bits.
    held: u64,
    /// Scoped binding stack: `(name, guard bits, guard-deref type head)`.
    /// The deref type makes method resolution *through* a guard exact:
    /// `inner.touch(..)` on a `MutexGuard<'_, Inner>` binding resolves
    /// against `Inner`, not the by-name union.
    bindings: Vec<(String, u64, Option<String>)>,
    /// Accumulated transitive acquisitions.
    acquires: u64,
    /// Accumulated reachable blocking kinds.
    blocks: u8,
    /// Reporting state (`None` during the fixpoint).
    sink: Option<Sink<'a, 'b>>,
}

struct Sink<'a, 'b> {
    ctx: &'a FileCtx,
    findings: &'b mut Vec<Finding>,
    edges: &'b mut BTreeMap<(u32, u32), EdgeWitness>,
}

impl Eval<'_, '_> {
    /// Union of all binding bits (anchored guards survive statement ends).
    fn anchored(&self) -> u64 {
        self.bindings.iter().fold(0, |m, (_, b, _)| m | b)
    }

    fn release_unanchored(&mut self, bits: u64) {
        self.held &= !(bits & !self.anchored());
    }

    fn held_mutexy(&self) -> u64 {
        self.held & self.table.mutexy
    }

    fn binding_bits(&self, name: &str) -> u64 {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map_or(0, |(_, b, _)| *b)
    }

    /// The receiver type a method should resolve against, seeing through
    /// guards: a binding's recorded deref type, a guard-returning helper's
    /// declared target (`PreparedCache::lock` → `Inner`), a direct std
    /// acquisition's guarded type, carrier methods, and fields thereof.
    /// Falls back to [`Typer::infer`].
    fn effective_ty(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Group { children, .. } => match children.as_slice() {
                [one] => self.effective_ty(one),
                _ => None,
            },
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self
                    .bindings
                    .iter()
                    .rev()
                    .find(|(n, _, d)| n == one && d.is_some())
                    .and_then(|(_, _, d)| d.clone())
                    .or_else(|| self.typer.infer(e)),
                _ => None,
            },
            Expr::Field { base, name, .. } => {
                let b = self.effective_ty(base)?;
                let fields = self.ws.struct_fields.get(&b)?;
                Some(crate::callgraph::type_head(fields.get(name)?))
            }
            Expr::MethodCall {
                recv, name, args, ..
            } => {
                if GUARD_CARRIERS.contains(&name.as_str()) {
                    return self.effective_ty(recv);
                }
                if matches!(name.as_str(), "lock" | "read" | "write") && args.is_empty() {
                    if let Some(ty) = declared_type(self.ws, self.typer, recv) {
                        if ty.contains("Mutex<") || ty.contains("RwLock<") {
                            return lock_target_head(&ty);
                        }
                    }
                }
                let rt = self.typer.infer(recv);
                let callees = self.ws.resolve_method(rt.as_deref(), name, args.len());
                if let [c] = callees.as_slice() {
                    if let Some(ret) = self.ws.fns.get(*c).and_then(|f| f.ret.as_deref()) {
                        if let Some(t) = guard_target(ret) {
                            return Some(t);
                        }
                    }
                }
                self.typer.infer(e)
            }
            _ => self.typer.infer(e),
        }
    }

    fn blocking_escaped(&self, line: u32) -> bool {
        self.sink.as_ref().is_none_or(|s| {
            s.ctx.lock_lines.contains(&line)
                || s.ctx.rule_allowed(RULE_BLOCKING, line)
                || s.ctx.test_lines.contains(&line)
        })
    }

    fn report_blocking(&mut self, line: u32, what: &str, kinds: u8) {
        let held = self.held_mutexy();
        if held == 0 || kinds == 0 || self.blocking_escaped(line) {
            return;
        }
        let locks = self.table.names_of(held);
        if let Some(s) = self.sink.as_mut() {
            s.findings.push(Finding {
                rule: RULE_BLOCKING,
                file: self.path.to_string(),
                line,
                message: format!(
                    "{what} ({}) while holding {locks} — move it outside the critical section \
                     or justify with `// lint: lock(<reason>)`",
                    kind_names(kinds),
                ),
            });
        }
    }

    fn report_lock(&mut self, line: u32, message: String) {
        let Some(s) = self.sink.as_mut() else { return };
        if s.ctx.rule_allowed(RULE_LOCKS, line) || s.ctx.test_lines.contains(&line) {
            return;
        }
        s.findings.push(Finding {
            rule: RULE_LOCKS,
            file: self.path.to_string(),
            line,
            message,
        });
    }

    /// Records `held → acquired` order edges and the re-entrancy check
    /// for `bits` being acquired at `line` (possibly via a callee).
    fn acquire_edges(&mut self, bits: u64, line: u32, via: Option<&str>) {
        if self.held & bits != 0 {
            let relocked = self.table.names_of(self.held & bits);
            let how = via.map_or(String::new(), |v| format!(" via `{v}`"));
            self.report_lock(
                line,
                format!(
                    "re-acquiring already-held {relocked}{how} — std locks are not reentrant; \
                     this deadlocks the thread against itself"
                ),
            );
        }
        let held = self.held & !bits;
        if held == 0 || bits == 0 {
            return;
        }
        let (path, func) = (self.path, self.fn_name.clone());
        let Some(s) = self.sink.as_mut() else { return };
        for h in 0..64u32 {
            if held & (1u64 << h) == 0 {
                continue;
            }
            for b in 0..64u32 {
                if bits & (1u64 << b) == 0 || h == b {
                    continue;
                }
                s.edges.entry((h, b)).or_insert_with(|| EdgeWitness {
                    file: path.to_string(),
                    line,
                    func: func.clone(),
                    via: via.map(str::to_string),
                });
            }
        }
    }

    /// Applies one resolved call's summaries: order edges, re-entrancy,
    /// blocking policy, and guard-bit return. Returns the value bits.
    fn apply_call(&mut self, callees: &[usize], args: &[Expr], method: bool, line: u32) -> u64 {
        let mut value = 0u64;
        let mut kinds = 0u8;
        let mut acq = 0u64;
        for &c in callees {
            let Some(s) = self.summaries.get(c) else {
                continue;
            };
            acq |= s.acquires;
            kinds |= s.blocks;
            value |= s.returns_guard;
        }
        // Deadline coupling: feeding a TcpStream into a callee that does
        // I/O on that param is socket-blocking at this call site.
        if self.call_feeds_stream_io(callees, args, method) {
            kinds |= B_SOCKET;
        }
        self.acquires |= acq;
        self.blocks |= kinds;
        if acq != 0 {
            let via = callees
                .first()
                .and_then(|&c| self.ws.fns.get(c))
                .map(|f| f.name.clone());
            self.acquire_edges(acq, line, via.as_deref());
        }
        if kinds != 0 {
            let via = callees
                .first()
                .and_then(|&c| self.ws.fns.get(c))
                .map_or_else(|| "call".to_string(), |f| format!("call to `{}`", f.name));
            self.report_blocking(line, &format!("{via} can block"), kinds);
        }
        self.held |= value;
        value
    }

    fn call_feeds_stream_io(&self, callees: &[usize], args: &[Expr], method: bool) -> bool {
        args.iter().enumerate().any(|(j, a)| {
            let Some(binding) = single_path(a) else {
                return false;
            };
            if !self
                .typer
                .raw_type_of(&Expr::Path {
                    segs: vec![binding.to_string()],
                    line: 0,
                })
                .is_some_and(|t| t.contains("TcpStream"))
            {
                return false;
            }
            callees.iter().any(|&c| {
                let Some(n) = self.net.get(c) else {
                    return false;
                };
                let has_self = self
                    .ws
                    .fns
                    .get(c)
                    .and_then(|f| f.params.first())
                    .is_some_and(|p| p.name == "self");
                let pidx = j + usize::from(method && has_self);
                let bit = 1u32 << u32::try_from(pidx).unwrap_or(31).min(31);
                (n.reads | n.writes) & bit != 0
            })
        })
    }

    fn eval_block(&mut self, stmts: &[Expr]) -> u64 {
        let scope = self.bindings.len();
        let mut last = 0u64;
        for (i, stmt) in stmts.iter().enumerate() {
            let v = self.eval(stmt);
            let tail = i + 1 == stmts.len();
            if tail {
                last = v;
            }
            // End of statement: un-anchored temporaries drop (the
            // guard-extending-temporary rule), except a tail expression's
            // value, which escapes to the enclosing scope.
            let keep = self.anchored() | if tail { v } else { 0 };
            self.held &= keep;
        }
        self.bindings.truncate(scope);
        self.held &= self.anchored() | last;
        last
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::Block { stmts, .. } => self.eval_block(stmts),
            Expr::Let {
                bindings,
                init,
                else_block,
                ..
            } => {
                let dty = match (init, bindings.len()) {
                    (Some(i), 1) => self.effective_ty(i),
                    _ => None,
                };
                let bits = init.as_ref().map_or(0, |i| self.eval(i));
                if let Some(eb) = else_block {
                    // The diverging arm observes the pre-binding state;
                    // whatever it does to `held` never reaches fall-through.
                    let snap = self.held;
                    self.eval(eb);
                    self.held = snap;
                }
                for b in bindings {
                    self.bindings.push((b.clone(), bits, dty.clone()));
                }
                0
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                // `ONCE.get_or_init(|| …)`: acquire, run the init under
                // the bit, release.
                if matches!(name.as_str(), "get_or_init" | "get_or_try_init") {
                    if let Some((id, _)) = lock_site(self.ws, self.typer, recv, name, args.len()) {
                        if let Some(bit) = self.table.bit(&id) {
                            self.acquire_edges(bit, *line, None);
                            self.acquires |= bit;
                            self.held |= bit;
                            for a in args {
                                self.eval(a);
                            }
                            self.held &= !bit;
                            return 0;
                        }
                    }
                }
                let rbits = self.eval(recv);
                if let Some((id, _)) = lock_site(self.ws, self.typer, recv, name, args.len()) {
                    if let Some(bit) = self.table.bit(&id) {
                        self.acquire_edges(bit, *line, None);
                        self.acquires |= bit;
                        self.held |= bit;
                        return bit;
                    }
                }
                for a in args {
                    self.eval(a);
                }
                let recv_ty = self.effective_ty(recv);
                let callees = if recv_ty
                    .as_deref()
                    .is_some_and(|t| STD_CONTAINER_HEADS.contains(&t))
                {
                    Vec::new()
                } else {
                    self.ws.resolve_method(recv_ty.as_deref(), name, args.len())
                };
                let carried = if GUARD_CARRIERS.contains(&name.as_str()) {
                    rbits
                } else {
                    0
                };
                if callees.is_empty() {
                    let raw = self.typer.raw_type_of(recv);
                    let kinds = classify_unresolved_method(name, raw.as_deref());
                    if kinds != 0 {
                        self.blocks |= kinds;
                        self.report_blocking(*line, &format!("`.{name}()` blocks"), kinds);
                    }
                    carried
                } else {
                    self.apply_call(&callees, args, true, *line) | carried
                }
            }
            Expr::Call { callee, args, line } => {
                let Expr::Path { segs, .. } = callee.as_ref() else {
                    self.eval(callee);
                    for a in args {
                        self.eval(a);
                    }
                    return 0;
                };
                let name = segs.last().map_or("", String::as_str);
                // `drop(g)` / `mem::drop(g)` releases the binding's bits.
                if name == "drop" && args.len() == 1 {
                    if let Some(b) = args.first().and_then(single_path) {
                        let bits = self.binding_bits(b);
                        let b = b.to_string();
                        if let Some(slot) = self.bindings.iter_mut().rev().find(|(n, _, _)| *n == b)
                        {
                            slot.1 = 0;
                        }
                        self.release_unanchored(bits);
                        return 0;
                    }
                    let bits = args.first().map_or(0, |a| self.eval(a));
                    self.release_unanchored(bits);
                    return 0;
                }
                let mut argbits = 0u64;
                for a in args {
                    argbits |= self.eval(a);
                }
                // `Some(g)` / `Ok(g)` wrappers keep carrying the guard.
                if matches!(name, "Some" | "Ok" | "Err") {
                    return argbits;
                }
                let callees = self.typer.resolve_call(segs);
                if callees.is_empty() {
                    let kinds = classify_unresolved_call(segs);
                    if kinds != 0 {
                        self.blocks |= kinds;
                        self.report_blocking(*line, &format!("`{name}(..)` blocks"), kinds);
                    }
                    0
                } else {
                    self.apply_call(&callees, args, false, *line)
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let sty = self.effective_ty(scrutinee);
                let sbits = self.eval(scrutinee);
                let base = self.held;
                let mut union_held = 0u64;
                let mut value = 0u64;
                for arm in arms {
                    self.held = base;
                    let scope = self.bindings.len();
                    for b in &arm.bindings {
                        self.bindings.push((b.clone(), sbits, sty.clone()));
                    }
                    let v = self.eval(&arm.body);
                    self.bindings.truncate(scope);
                    self.held &= self.anchored() | v;
                    union_held |= self.held;
                    value |= v;
                }
                if arms.is_empty() {
                    self.release_unanchored(sbits);
                } else {
                    self.held = union_held;
                }
                value
            }
            Expr::If {
                cond,
                bindings,
                then_block,
                else_block,
                ..
            } => {
                let cty = if bindings.is_empty() {
                    None
                } else {
                    self.effective_ty(cond)
                };
                let cbits = self.eval(cond);
                let plain = bindings.is_empty();
                if plain {
                    // Plain-`if` condition temporaries drop before the
                    // then-block runs.
                    self.release_unanchored(cbits);
                }
                let base = self.held;
                let scope = self.bindings.len();
                for b in bindings {
                    self.bindings.push((b.clone(), cbits, cty.clone()));
                }
                let tv = self.eval(then_block);
                self.bindings.truncate(scope);
                self.held &= self.anchored() | tv;
                let h_then = self.held;
                self.held = base;
                if !plain {
                    // The no-match path never bound the scrutinee.
                    self.release_unanchored(cbits);
                }
                let ev = else_block.as_ref().map_or(0, |eb| self.eval(eb));
                self.held &= self.anchored() | ev;
                self.held |= h_then;
                tv | ev
            }
            Expr::Loop {
                cond,
                bindings,
                body,
                ..
            } => {
                let cty = match (cond, bindings.is_empty()) {
                    (Some(c), false) => self.effective_ty(c),
                    _ => None,
                };
                let cbits = cond.as_ref().map_or(0, |c| self.eval(c));
                if bindings.is_empty() {
                    self.release_unanchored(cbits);
                }
                let scope = self.bindings.len();
                for b in bindings {
                    self.bindings.push((b.clone(), cbits, cty.clone()));
                }
                self.eval(body);
                self.bindings.truncate(scope);
                self.held &= self.anchored();
                0
            }
            Expr::For {
                bindings,
                iter,
                body,
                ..
            } => {
                let ibits = self.eval(iter);
                self.release_unanchored(ibits);
                let scope = self.bindings.len();
                for b in bindings {
                    self.bindings.push((b.clone(), 0, None));
                }
                self.eval(body);
                self.bindings.truncate(scope);
                self.held &= self.anchored();
                0
            }
            Expr::Closure { bindings, body, .. } => {
                // Closures are evaluated inline at their construction
                // site: for `.map(|g| …)` / `get_or_init(|| …)` arguments
                // that is exactly when they run.
                let scope = self.bindings.len();
                for b in bindings {
                    self.bindings.push((b.clone(), 0, None));
                }
                let v = self.eval(body);
                self.bindings.truncate(scope);
                self.held &= self.anchored() | v;
                v
            }
            Expr::Assign { lhs, rhs, .. } => {
                let rb = self.eval(rhs);
                if let Some(nm) = single_path(lhs) {
                    let nm = nm.to_string();
                    let old = self.binding_bits(&nm);
                    if self
                        .bindings
                        .iter_mut()
                        .rev()
                        .find(|(n, _, _)| *n == nm)
                        .map(|slot| slot.1 = rb)
                        .is_some()
                    {
                        self.release_unanchored(old);
                    }
                } else {
                    self.eval(lhs);
                }
                0
            }
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.binding_bits(one),
                _ => 0,
            },
            Expr::Group { children, .. } => {
                let mut v = 0;
                for c in children {
                    v |= self.eval(c);
                }
                v
            }
            Expr::Field { base, .. } => {
                self.eval(base);
                0
            }
            Expr::Index { base, index, .. } => {
                self.eval(base);
                self.eval(index);
                0
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.eval(lhs);
                self.eval(rhs);
                0
            }
            Expr::Cast { expr, .. } => self.eval(expr),
            Expr::MacroCall { args, .. } => {
                for x in args {
                    self.eval(x);
                }
                0
            }
            Expr::StructLit { fields, .. } => {
                for (_, x) in fields {
                    self.eval(x);
                }
                0
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(l) = lo {
                    self.eval(l);
                }
                if let Some(h) = hi {
                    self.eval(h);
                }
                0
            }
            Expr::Lit { .. } | Expr::Opaque { .. } | Expr::NestedFn(_) => 0,
        }
    }
}

/// A single-binding path (peeling `Group` wrappers).
fn single_path(e: &Expr) -> Option<&str> {
    match e {
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => single_path(one),
            _ => None,
        },
        Expr::Path { segs, .. } => match segs.as_slice() {
            [one] => Some(one.as_str()),
            _ => None,
        },
        _ => None,
    }
}

fn qualified(f: &crate::callgraph::FnNode) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Interning pre-pass: walk every non-test body for acquisition sites.
fn build_table(ws: &Workspace, typers: &[Typer<'_>]) -> LockTable {
    let mut found: BTreeMap<String, LockKind> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some(typer) = typers.get(i) else { continue };
        let Some(body) = &f.body else { continue };
        body.walk(&mut |e| {
            if let Expr::MethodCall {
                recv, name, args, ..
            } = e
            {
                if let Some((id, kind)) = lock_site(ws, typer, recv, name, args.len()) {
                    found.entry(id).or_insert(kind);
                }
            }
        });
    }
    let mut table = LockTable {
        names: Vec::new(),
        kinds: Vec::new(),
        by_name: HashMap::new(),
        mutexy: 0,
    };
    for (name, kind) in found {
        if table.names.len() >= 63 {
            break;
        }
        let idx = u32::try_from(table.names.len()).unwrap_or(63);
        if kind == LockKind::Mutexy {
            table.mutexy |= 1u64 << idx;
        }
        table.by_name.insert(name.clone(), idx);
        table.names.push(name);
        table.kinds.push(kind);
    }
    table
}

fn analyze_fn(
    ws: &Workspace,
    typers: &[Typer<'_>],
    table: &LockTable,
    net: &[NetSummary],
    fn_idx: usize,
    summaries: &[LockSummary],
    sink: Option<Sink<'_, '_>>,
) -> LockSummary {
    let Some(f) = ws.fns.get(fn_idx) else {
        return LockSummary::default();
    };
    if f.is_test {
        return LockSummary::default();
    }
    let (Some(body), Some(typer)) = (&f.body, typers.get(fn_idx)) else {
        return LockSummary::default();
    };
    let mut ev = Eval {
        ws,
        typer,
        table,
        summaries,
        net,
        fn_name: qualified(f),
        path: ws.path_of(fn_idx),
        held: 0,
        bindings: Vec::new(),
        acquires: 0,
        blocks: if is_pairing_entry(&f.name) {
            crate::blocking::B_PAIRING
        } else {
            0
        },
        sink,
    };
    let tail = ev.eval(body);
    let returns_guard = if f.ret.as_deref().is_some_and(|r| r.contains("Guard")) {
        tail
    } else {
        0
    };
    LockSummary {
        acquires: ev.acquires,
        returns_guard,
        blocks: ev.blocks,
    }
}

/// Enumerates elementary cycles of the order graph (each reported from
/// its smallest bit, so every cycle appears exactly once) and renders a
/// finding per cycle with one witness per edge.
fn report_cycles(
    table: &LockTable,
    edges: &BTreeMap<(u32, u32), EdgeWitness>,
    ctxs: &HashMap<&str, &FileCtx>,
    report: &mut Report,
) {
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let nodes: Vec<u32> = adj.keys().copied().collect();
    let mut cycles: Vec<Vec<u32>> = Vec::new();
    for &start in &nodes {
        // DFS restricted to nodes ≥ start; a path closing back on
        // `start` is an elementary cycle canonically rooted at its
        // minimum bit.
        let mut stack: Vec<(u32, Vec<u32>)> = vec![(start, vec![start])];
        while let Some((cur, path)) = stack.pop() {
            if cycles.len() >= 16 {
                break;
            }
            for &next in adj.get(&cur).map_or(&[][..], Vec::as_slice) {
                if next == start && path.len() > 1 {
                    cycles.push(path.clone());
                } else if next > start && !path.contains(&next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    cycles.sort();
    cycles.dedup();
    for cycle in cycles {
        let mut ring = String::new();
        let mut witnesses = Vec::new();
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle
                .get(i + 1)
                .copied()
                .unwrap_or_else(|| cycle.first().copied().unwrap_or(a));
            let na = table.names.get(a as usize).map_or("?", String::as_str);
            let nb = table.names.get(b as usize).map_or("?", String::as_str);
            if i == 0 {
                ring.push_str(&format!("`{na}`"));
            }
            ring.push_str(&format!(" → `{nb}`"));
            if let Some(w) = edges.get(&(a, b)) {
                let via = w
                    .via
                    .as_deref()
                    .map_or(String::new(), |v| format!(" via `{v}`"));
                witnesses.push(format!(
                    "`{na}` → `{nb}` in `{}`{via} ({}:{})",
                    w.func, w.file, w.line
                ));
            }
        }
        let Some(first) = cycle
            .first()
            .and_then(|&a| cycle.get(1).map(|&b| (a, b)))
            .and_then(|k| edges.get(&k))
        else {
            continue;
        };
        if ctxs.get(first.file.as_str()).is_some_and(|c| {
            c.rule_allowed(RULE_LOCKS, first.line) || c.test_lines.contains(&first.line)
        }) {
            continue;
        }
        report.findings.push(Finding {
            rule: RULE_LOCKS,
            file: first.file.clone(),
            line: first.line,
            message: format!(
                "potential deadlock: lock-order cycle {ring}; {}",
                witnesses.join("; ")
            ),
        });
    }
}

/// The `locks` + `blocking` rules: interning, summary fixpoint, then the
/// reporting pass feeding the global lock-order graph.
pub(crate) fn check_locks(
    ws: &Workspace,
    typers: &[Typer<'_>],
    ctxs: &HashMap<&str, &FileCtx>,
    net: &[NetSummary],
    report: &mut Report,
) {
    let table = build_table(ws, typers);
    if table.names.is_empty() {
        return;
    }
    let summaries = ws.fixpoint_summaries(LockSummary::default(), |i, sums| {
        analyze_fn(ws, typers, &table, net, i, sums, None)
    });
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(u32, u32), EdgeWitness> = BTreeMap::new();
    for i in 0..ws.fns.len() {
        // Held bits enter a body only through a direct acquisition or a
        // guard-returning callee, and both set `acquires` in the summary —
        // so a fn that can never acquire can never hold, and the reporting
        // walk cannot yield findings or edges for it. Skip the re-walk.
        if summaries.get(i).is_none_or(|s| s.acquires == 0) {
            continue;
        }
        let path = ws.path_of(i);
        let Some(ctx) = ctxs.get(path) else { continue };
        analyze_fn(
            ws,
            typers,
            &table,
            net,
            i,
            &summaries,
            Some(Sink {
                ctx,
                findings: &mut findings,
                edges: &mut edges,
            }),
        );
    }
    report.findings.append(&mut findings);
    report_cycles(&table, &edges, ctxs, report);
}

// Keep the unused-import lint honest: `FnDecl` is only named in docs.
const _: fn(&FnDecl) = |_| {};
