//! Workspace symbol table, call graph, and transitive panic reachability.
//!
//! [`Workspace`] flattens every parsed file's functions into one table
//! with (type, method) and free-function indexes, infers receiver types
//! from parameter/`let`/field declarations, and resolves call edges. On
//! top of that, [`check_panic_path`] implements the `panic_path` rule:
//! a protocol-path function whose call graph *reaches* a panic source
//! (`.unwrap()` / `.expect()` / panic macro / non-literal index) through
//! at least one call edge is a finding — the single-line `panic` rule
//! cannot see a panic laundered through a helper, which is exactly how
//! reproductions drift from their panic-freedom claims.
//!
//! Crates `pairing`, `bigint`, `hash` and `parallel` are *trusted
//! leaves*: constant-size field/curve arithmetic indexes fixed-length
//! arrays pervasively, is covered by its own property tests, and takes
//! no attacker-controlled lengths, so their bodies are neither scanned
//! for sources nor traversed for edges. An `// lint: allow(panic,
//! reason=…)` at a source line removes that source from the can-panic
//! set, so one documented invariant silences the whole caller chain.

use std::collections::HashMap;

use crate::ast::{Ast, Expr, FnDecl, Item, Param};
use crate::rules::{FileCtx, Finding, Report, RULE_PANIC, RULE_PANIC_PATH};

/// Protocol-path prefixes whose functions are `panic_path` roots.
const PANIC_PATH_ROOTS: [&str; 6] = [
    "crates/ibs/src/",
    "crates/merkle/src/",
    "crates/core/src/",
    "crates/cloudsim/src/",
    "crates/resilience/src/",
    "crates/analyzer/src/",
];

/// Crates treated as non-panicking leaves (see module docs). `testkit` is
/// here because its fault injector *deliberately* mangles payloads with
/// bounded random indexing — it is test harness, not protocol path.
const TRUSTED_CRATES: [&str; 5] = [
    "crates/pairing/",
    "crates/bigint/",
    "crates/hash/",
    "crates/parallel/",
    "crates/testkit/",
];

/// Macros that panic when reached (kept in sync with the token rule).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// One function in the flattened workspace table.
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Owning type for methods/associated fns (`impl` head or trait).
    pub owner: Option<String>,
    /// Parameters (receiver included as `self: Self`).
    pub params: Vec<Param>,
    /// Return type text.
    pub ret: Option<String>,
    /// Body expression tree (`None` for trait signatures).
    pub body: Option<Expr>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Test-only functions are excluded from roots and sources.
    pub is_test: bool,
}

/// The whole-workspace symbol table and call graph.
pub struct Workspace {
    /// Workspace-relative file paths, parallel to the parse inputs.
    pub files: Vec<String>,
    /// Flattened function table.
    pub fns: Vec<FnNode>,
    /// Struct name → field name → field type text.
    pub struct_fields: HashMap<String, HashMap<String, String>>,
    /// `(type, method)` → fn indices.
    by_type_method: HashMap<(String, String), Vec<usize>>,
    /// Free functions by name.
    free_by_name: HashMap<String, Vec<usize>>,
    /// All methods by name (for unresolved receivers).
    methods_by_name: HashMap<String, Vec<usize>>,
    /// Per-fn resolved call edges `(callee fn, call line)`.
    edges: Vec<Vec<(usize, u32)>>,
}

impl Workspace {
    /// Builds the symbol table and call graph from parsed files.
    pub fn build(parsed: Vec<(String, Ast)>) -> Self {
        let mut ws = Workspace {
            files: Vec::with_capacity(parsed.len()),
            fns: Vec::new(),
            struct_fields: HashMap::new(),
            by_type_method: HashMap::new(),
            free_by_name: HashMap::new(),
            methods_by_name: HashMap::new(),
            edges: Vec::new(),
        };
        for (path, ast) in parsed {
            let file_idx = ws.files.len();
            ws.files.push(path);
            flatten_items(ast.items, file_idx, None, false, &mut ws);
        }
        for (i, f) in ws.fns.iter().enumerate() {
            match &f.owner {
                Some(owner) => {
                    ws.by_type_method
                        .entry((owner.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    ws.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(i);
                }
                None => ws.free_by_name.entry(f.name.clone()).or_default().push(i),
            }
        }
        ws.edges = (0..ws.fns.len()).map(|i| ws.resolve_edges(i)).collect();
        ws
    }

    /// The file path of a fn.
    pub fn path_of(&self, fn_idx: usize) -> &str {
        self.fns
            .get(fn_idx)
            .and_then(|f| self.files.get(f.file))
            .map_or("", String::as_str)
    }

    /// Resolved call edges of a fn: `(callee index, call line)`.
    pub fn edges_of(&self, fn_idx: usize) -> &[(usize, u32)] {
        self.edges.get(fn_idx).map_or(&[], Vec::as_slice)
    }

    /// Iterates per-fn summaries to fixpoint with a reverse-edge worklist:
    /// after one full pass, a fn is re-examined only when a callee whose
    /// summary it reads actually changed. `edges_of` is built with the
    /// same call resolution the analyses use, so the dependency set is
    /// exact — this computes the identical fixpoint to the old
    /// whole-program rounds at a fraction of the body walks. Summaries
    /// only grow, so the per-fn requeue budget (mirroring the old
    /// 12-round cap) only guards degenerate resolution cycles.
    pub fn fixpoint_summaries<S, F>(&self, default: S, mut analyze: F) -> Vec<S>
    where
        S: Copy + PartialEq,
        F: FnMut(usize, &[S]) -> S,
    {
        let n = self.fns.len();
        let mut summaries = vec![default; n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for caller in 0..n {
            for &(callee, _) in self.edges_of(caller) {
                if let Some(v) = rev.get_mut(callee) {
                    v.push(caller);
                }
            }
        }
        for v in &mut rev {
            v.sort_unstable();
            v.dedup();
        }
        // Seed in DFS post-order — callees before callers — so most fns
        // see their callees' final summaries on the first analysis and
        // the requeue tail stays short.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 expanded, 2 emitted
        for root in 0..n {
            if state.get(root).copied() != Some(0) {
                continue;
            }
            let mut stack = vec![root];
            while let Some(&i) = stack.last() {
                match state.get(i).copied() {
                    Some(0) => {
                        if let Some(s) = state.get_mut(i) {
                            *s = 1;
                        }
                        for &(callee, _) in self.edges_of(i) {
                            if state.get(callee).copied() == Some(0) {
                                stack.push(callee);
                            }
                        }
                    }
                    Some(1) => {
                        if let Some(s) = state.get_mut(i) {
                            *s = 2;
                        }
                        order.push(i);
                        stack.pop();
                    }
                    _ => {
                        stack.pop();
                    }
                }
            }
        }
        let mut queue: std::collections::VecDeque<usize> = order.into_iter().collect();
        let mut queued = vec![true; n];
        let mut budget = vec![12u8; n];
        while let Some(i) = queue.pop_front() {
            if let Some(q) = queued.get_mut(i) {
                *q = false;
            }
            let next = analyze(i, &summaries);
            if summaries.get(i).copied() == Some(next) {
                continue;
            }
            if let Some(slot) = summaries.get_mut(i) {
                *slot = next;
            }
            for &caller in rev.get(i).map_or(&[][..], Vec::as_slice) {
                if queued.get(caller).copied() != Some(false) {
                    continue;
                }
                let Some(b) = budget.get_mut(caller) else {
                    continue;
                };
                if *b == 0 {
                    continue;
                }
                *b -= 1;
                if let Some(q) = queued.get_mut(caller) {
                    *q = true;
                }
                queue.push_back(caller);
            }
        }
        summaries
    }

    /// Resolves the functions a `Type::name` / free-name call made from
    /// `caller` can reach. A bare name resolves to the free fns of that
    /// name in the caller's file, else in the caller's crate, else anywhere
    /// in the workspace — so a same-named fn in an unrelated crate never
    /// joins a call that has a local target, while imports from other
    /// crates still resolve.
    pub fn resolve_call(&self, segs: &[String], caller: &FnNode) -> Vec<usize> {
        let Some(name) = segs.last() else {
            return Vec::new();
        };
        let owner = caller.owner.as_deref();
        if segs.len() >= 2 {
            let ty = segs
                .get(segs.len().wrapping_sub(2))
                .map_or("", String::as_str);
            let ty = if ty == "Self" {
                owner.unwrap_or(ty)
            } else {
                ty
            };
            if let Some(v) = self.by_type_method.get(&(ty.to_string(), name.clone())) {
                return v.clone();
            }
            // Module-qualified free fn (`seccloud_hash::sha256`): the
            // qualifier is lowercase, the name resolves to free fns.
            if ty.chars().next().is_some_and(char::is_lowercase) {
                if let Some(v) = self.free_by_name.get(name) {
                    return v.clone();
                }
            }
            return Vec::new();
        }
        let all = match self.free_by_name.get(name) {
            Some(all) if all.len() > 1 => all,
            // Zero or one candidate: scoping cannot change the answer.
            other => return other.cloned().unwrap_or_default(),
        };
        let home = self.files.get(caller.file).map_or("", |p| crate_root(p));
        let in_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| crate_root(self.path_of(i)) == home)
            .collect();
        if in_crate.is_empty() {
            return all.clone();
        }
        let in_file: Vec<usize> = in_crate
            .iter()
            .copied()
            .filter(|&i| self.fns.get(i).is_some_and(|f| f.file == caller.file))
            .collect();
        if in_file.is_empty() {
            in_crate
        } else {
            in_file
        }
    }

    /// Resolves a method call: exact `(receiver type, name)` when the
    /// receiver type is inferable, otherwise the union of same-named
    /// workspace methods — narrowed to candidates that actually take a
    /// `self` receiver plus `argc` arguments, so `sig.verify(a, b, c)`
    /// does not pick up every 2- or 6-parameter `verify` in the tree.
    pub fn resolve_method(&self, recv_ty: Option<&str>, name: &str, argc: usize) -> Vec<usize> {
        if let Some(ty) = recv_ty {
            if let Some(v) = self.by_type_method.get(&(ty.to_string(), name.to_string())) {
                return v.clone();
            }
            // A typed receiver that has no such method: a std/primitive
            // method (`.min()`, `.push()`) — no workspace edge.
            if self.struct_fields.contains_key(ty) {
                return Vec::new();
            }
        }
        let Some(all) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        all.iter()
            .copied()
            .filter(|&i| {
                self.fns.get(i).is_some_and(|f| {
                    f.params.first().is_some_and(|p| p.name == "self") && f.params.len() == argc + 1
                })
            })
            .collect()
    }

    fn resolve_edges(&self, fn_idx: usize) -> Vec<(usize, u32)> {
        let Some(f) = self.fns.get(fn_idx) else {
            return Vec::new();
        };
        let Some(body) = &f.body else {
            return Vec::new();
        };
        let typer = Typer::for_fn(self, f);
        let mut out = Vec::new();
        body.walk(&mut |e| match e {
            Expr::Call { callee, line, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    for t in self.resolve_call(segs, f) {
                        out.push((t, *line));
                    }
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let recv_ty = typer.infer(recv);
                for t in self.resolve_method(recv_ty.as_deref(), name, args.len()) {
                    out.push((t, *line));
                }
            }
            _ => {}
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The crate a workspace-relative path belongs to: `crates/<dir>/` for a
/// member crate, otherwise its top-level directory (`src/`, `tests/`, …).
fn crate_root(path: &str) -> &str {
    let end = match path.strip_prefix("crates/") {
        Some(rest) => rest.find('/').map(|i| "crates/".len() + i + 1),
        None => path.find('/').map(|i| i + 1),
    };
    end.and_then(|e| path.get(..e)).unwrap_or(path)
}

/// Moves items into the flat fn table, tracking impl owner and test
/// gating.
fn flatten_items(
    items: Vec<Item>,
    file_idx: usize,
    _owner: Option<&str>,
    under_test: bool,
    ws: &mut Workspace,
) {
    for item in items {
        match item {
            Item::Fn(decl) => push_fn(decl, file_idx, None, under_test, ws),
            Item::Impl { type_name, fns, .. } => {
                for decl in fns {
                    push_fn(decl, file_idx, Some(type_name.clone()), under_test, ws);
                }
            }
            Item::Trait { name, fns } => {
                for decl in fns {
                    push_fn(decl, file_idx, Some(name.clone()), under_test, ws);
                }
            }
            Item::Mod { items, is_test, .. } => {
                flatten_items(items, file_idx, None, under_test || is_test, ws);
            }
            Item::Struct { name, fields, .. } => {
                let entry = ws.struct_fields.entry(name).or_default();
                for (fname, fty) in fields {
                    entry.insert(fname, fty);
                }
            }
            Item::Enum { name, .. } => {
                // Register the type so `resolve_method` knows a typed
                // receiver with no matching method is a std method.
                ws.struct_fields.entry(name).or_default();
            }
            Item::Other => {}
        }
    }
}

fn push_fn(
    decl: FnDecl,
    file_idx: usize,
    owner: Option<String>,
    under_test: bool,
    ws: &mut Workspace,
) {
    let is_test = decl.is_test || under_test;
    ws.fns.push(FnNode {
        file: file_idx,
        name: decl.name,
        owner,
        params: decl.params,
        ret: decl.ret,
        body: decl.body,
        line: decl.line,
        is_test,
    });
}

/// The head type name of a type string: `&mut HmacDrbg` → `HmacDrbg`,
/// `seccloud_hash::HmacDrbg` → `HmacDrbg`, `Option<Server>` → `Option`.
pub fn type_head(ty: &str) -> String {
    let mut rest = ty.trim();
    loop {
        let trimmed = rest
            .trim_start_matches('&')
            .trim_start_matches("'static")
            .trim_start()
            .trim_start_matches("mut ")
            .trim_start_matches("dyn ")
            .trim_start();
        if trimmed == rest {
            break;
        }
        rest = trimmed;
    }
    // Walk `seg::seg::Head<…>` to the last segment before generics.
    let mut head: &str;
    let mut cur = rest;
    loop {
        let end = cur
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
            .map_or(cur.len(), |(i, _)| i);
        head = cur.get(..end).unwrap_or(cur);
        match cur.get(end..).and_then(|r| r.strip_prefix("::")) {
            Some(next) => cur = next,
            None => break,
        }
    }
    head.to_string()
}

/// The element-type head of a container type: `Vec<T>`, `&[T]`, and
/// `[T; N]` all yield `type_head(T)`. `None` for anything else.
pub fn elem_head(ty: &str) -> Option<String> {
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
    let inner = if let Some(rest) = t.strip_prefix("Vec<") {
        rest.strip_suffix('>')?
    } else if let Some(rest) = t.strip_prefix('[') {
        rest.split([';', ']']).next()?
    } else {
        return None;
    };
    let head = type_head(inner);
    (!head.is_empty()).then_some(head)
}

/// Local type environment for one fn: resolves receiver expressions to
/// type heads using params, annotated/inferable `let`s, and struct
/// fields. Shared by the call graph and the taint engine.
pub struct Typer<'w> {
    ws: &'w Workspace,
    caller: &'w FnNode,
    locals: HashMap<String, String>,
    /// Raw declared types (generics intact) for params and annotated
    /// `let`s — the head alone cannot answer element-type questions
    /// (`&[VerifierKey]` has head `""` but element `VerifierKey`).
    raws: HashMap<String, String>,
}

impl<'w> Typer<'w> {
    /// Builds the environment for `f`: parameter types plus every
    /// resolvable `let` binding in the body (flat — shadowing across
    /// scopes keeps the innermost annotation, which is the common case).
    pub fn for_fn(ws: &'w Workspace, f: &'w FnNode) -> Self {
        let mut t = Typer {
            ws,
            caller: f,
            locals: HashMap::new(),
            raws: HashMap::new(),
        };
        for p in &f.params {
            let head = if p.name == "self" {
                f.owner.clone().unwrap_or_else(|| "Self".to_string())
            } else {
                type_head(&p.ty)
            };
            t.locals.insert(p.name.clone(), head);
            if p.name != "self" {
                t.raws.insert(p.name.clone(), p.ty.clone());
            }
        }
        if let Some(body) = &f.body {
            // Collect the (sparse) declaration sites once, then resolve
            // them in two rounds so a `let` referring to a later-typed
            // local still resolves — without re-walking the whole body.
            let mut decls: Vec<&Expr> = Vec::new();
            body.walk(&mut |e| {
                if matches!(e, Expr::Let { .. } | Expr::For { .. }) {
                    decls.push(e);
                }
            });
            for _ in 0..2 {
                for e in &decls {
                    if let Expr::Let {
                        bindings, ty, init, ..
                    } = e
                    {
                        if let (Some(name), 1) = (bindings.first(), bindings.len()) {
                            let resolved = match ty {
                                Some(t_str) => {
                                    t.raws.insert(name.clone(), t_str.clone());
                                    Some(type_head(t_str))
                                }
                                None => init.as_ref().and_then(|i| t.infer(i)),
                            };
                            if let Some(head) = resolved {
                                if !head.is_empty() {
                                    t.locals.insert(name.clone(), head);
                                }
                            }
                        }
                    }
                    // `for s in [&mut a, &mut b]` — a homogeneous array
                    // literal types its loop binding.
                    if let Expr::For { bindings, iter, .. } = e {
                        if let (Some(name), 1) = (bindings.first(), bindings.len()) {
                            if let Some(head) = t.infer_elem(iter) {
                                t.locals.insert(name.clone(), head);
                            }
                        }
                    }
                }
            }
        }
        t
    }

    /// [`Workspace::resolve_call`] from this environment's fn.
    pub fn resolve_call(&self, segs: &[String]) -> Vec<usize> {
        self.ws.resolve_call(segs, self.caller)
    }

    /// Infers the head type of an expression, if the environment can.
    pub fn infer(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.locals.get(one).cloned(),
                _ => None,
            },
            Expr::Field { base, name, .. } => {
                let base_ty = self.infer(base)?;
                let fields = self.ws.struct_fields.get(&base_ty)?;
                Some(type_head(fields.get(name)?))
            }
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    let targets = self.resolve_call(segs);
                    self.ret_head(&targets, segs.get(segs.len().wrapping_sub(2)))
                } else {
                    None
                }
            }
            Expr::MethodCall {
                recv, name, args, ..
            } => {
                let recv_ty = self.infer(recv);
                let targets = self.ws.resolve_method(recv_ty.as_deref(), name, args.len());
                // Only trust an exact-receiver resolution for typing.
                if recv_ty.is_some() && !targets.is_empty() {
                    self.ret_head(&targets, recv_ty.as_ref())
                } else {
                    None
                }
            }
            Expr::StructLit { segs, .. } => segs.last().cloned(),
            // `verifiers[i]` — the element type of a container-typed base.
            Expr::Index { base, .. } => elem_head(&self.raw_of(base)?),
            Expr::Cast { ty, .. } => Some(type_head(ty)),
            Expr::Group { children, .. } => match children.as_slice() {
                [one] => self.infer(one),
                _ => None,
            },
            _ => None,
        }
    }

    /// The element type of an iterated expression: either a container
    /// (`Vec<T>`, `&[T]`, `[T; N]`) with a declared element type reachable
    /// through struct fields, or an array literal whose elements all infer
    /// to the same head. Both possibly behind
    /// `.iter()`/`.iter_mut()`/`.into_iter()` and `&` wrappers.
    fn infer_elem(&self, iter: &Expr) -> Option<String> {
        let inner = match iter {
            Expr::MethodCall { recv, name, .. }
                if matches!(name.as_str(), "iter" | "iter_mut" | "into_iter") =>
            {
                recv.as_ref()
            }
            other => other,
        };
        // `for block in &item.inputs` with `inputs: Vec<SignedBlock>` —
        // the declared field type names the element type directly.
        if let Some(head) = self.container_elem(inner) {
            return Some(head);
        }
        let Expr::Group { children, .. } = inner else {
            return None;
        };
        let first = self.infer(children.first()?)?;
        children
            .iter()
            .all(|c| self.infer(c).as_deref() == Some(&first))
            .then_some(first)
    }

    /// The declared element type of a container-typed field access or
    /// local (peeling `&x`/`(x)` wrappers, which parse as single-child
    /// groups).
    fn container_elem(&self, e: &Expr) -> Option<String> {
        elem_head(&self.raw_of(e)?)
    }

    /// The raw declared type of an expression (generics intact), when the
    /// declaration is reachable. Public face of [`Self::raw_of`] for the
    /// concurrency analyses, which key lock identity and stream tracking
    /// off declared generic arguments (`Arc<Mutex<Receiver<TcpStream>>>`)
    /// that [`Self::infer`]'s head types erase.
    pub fn raw_type_of(&self, e: &Expr) -> Option<String> {
        self.raw_of(e)
    }

    /// The raw declared type of an expression, when the declaration is
    /// reachable (param/annotated local, or a struct field).
    fn raw_of(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Group { children, .. } => match children.as_slice() {
                [one] => self.raw_of(one),
                _ => None,
            },
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.raws.get(one).cloned(),
                _ => None,
            },
            Expr::Field { base, name, .. } => {
                let base_ty = self.infer(base)?;
                self.ws.struct_fields.get(&base_ty)?.get(name).cloned()
            }
            _ => None,
        }
    }

    /// The declared component types of a call returning a tuple —
    /// `fn make() -> (MasterKey, Vec<Item>)` yields the two component
    /// texts — so `let (key, items) = make();` can bind per-component
    /// secrecy instead of smearing the whole tuple's taint over every
    /// binding.
    pub fn ret_tuple_types(&self, e: &Expr) -> Option<Vec<String>> {
        let targets = match e {
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    self.resolve_call(segs)
                } else {
                    return None;
                }
            }
            Expr::MethodCall {
                recv, name, args, ..
            } => {
                let recv_ty = self.infer(recv)?;
                self.ws.resolve_method(Some(&recv_ty), name, args.len())
            }
            Expr::Group { children, .. } => match children.as_slice() {
                [one] => return self.ret_tuple_types(one),
                _ => return None,
            },
            _ => return None,
        };
        let ret = self.ws.fns.get(*targets.first()?)?.ret.as_deref()?;
        let inner = ret.trim().strip_prefix('(')?.strip_suffix(')')?;
        let mut comps = Vec::new();
        let mut depth = 0i32;
        let mut cur = String::new();
        for ch in inner.chars() {
            match ch {
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    comps.push(cur.trim().to_string());
                    cur.clear();
                    continue;
                }
                _ => {}
            }
            cur.push(ch);
        }
        if !cur.trim().is_empty() {
            comps.push(cur.trim().to_string());
        }
        (comps.len() > 1).then_some(comps)
    }

    /// The shared return-type head of resolved callees (`Self` resolved
    /// against `self_ty`).
    fn ret_head(&self, targets: &[usize], self_ty: Option<&String>) -> Option<String> {
        let first = targets.first().and_then(|i| self.ws.fns.get(*i))?;
        let ret = first.ret.as_deref()?;
        let head = type_head(ret);
        if head == "Self" {
            return first.owner.clone().or_else(|| self_ty.cloned());
        }
        if head == "Option" || head == "Result" {
            // `Result<Self, E>` constructors: peel one generic level.
            let inner = ret.split_once('<').map(|(_, r)| r)?;
            let inner_head = type_head(inner);
            if inner_head == "Self" {
                return first.owner.clone().or_else(|| self_ty.cloned());
            }
            return Some(head);
        }
        Some(head)
    }
}

// --- panic reachability ---------------------------------------------------

/// A direct panic source inside a fn.
struct PanicSource {
    line: u32,
    what: String,
}

fn is_trusted(path: &str) -> bool {
    TRUSTED_CRATES.iter().any(|p| path.starts_with(p))
}

fn literal_index(index: &Expr) -> bool {
    match index {
        Expr::Lit { is_int, .. } => *is_int,
        Expr::Range { lo, hi, .. } => {
            let ok = |side: &Option<Box<Expr>>| {
                side.as_ref()
                    .is_none_or(|e| matches!(e.as_ref(), Expr::Lit { is_int: true, .. }))
            };
            ok(lo) && ok(hi)
        }
        _ => false,
    }
}

/// Collects the direct panic sources of one fn, honoring
/// `// lint: allow(panic, …)` at the source line.
fn panic_sources(f: &FnNode, ctx: Option<&FileCtx>) -> Vec<PanicSource> {
    let mut out = Vec::new();
    let Some(body) = &f.body else {
        return out;
    };
    let line_allowed = |line: u32| {
        ctx.is_some_and(|c| c.rule_allowed(RULE_PANIC, line) || c.test_lines.contains(&line))
    };
    body.walk(&mut |e| match e {
        Expr::MethodCall { name, line, .. }
            if (name == "unwrap" || name == "expect") && !line_allowed(*line) =>
        {
            out.push(PanicSource {
                line: *line,
                what: format!(".{name}()"),
            });
        }
        Expr::MacroCall { name, line, .. }
            if PANIC_MACROS.contains(&name.as_str()) && !line_allowed(*line) =>
        {
            out.push(PanicSource {
                line: *line,
                what: format!("{name}!"),
            });
        }
        Expr::Index { index, line, .. } if !literal_index(index) && !line_allowed(*line) => {
            out.push(PanicSource {
                line: *line,
                what: "non-literal index".to_string(),
            });
        }
        _ => {}
    });
    out
}

/// The `panic_path` rule: protocol-path fns that transitively reach a
/// panic source through at least one call edge. `ctxs` must be keyed by
/// the same paths the workspace was built from.
pub fn check_panic_path(
    ws: &Workspace,
    ctxs: &HashMap<&str, &FileCtx>,
    all_rules: bool,
    report: &mut Report,
) {
    let n = ws.fns.len();
    let mut direct: Vec<Option<PanicSource>> = Vec::with_capacity(n);
    for (i, f) in ws.fns.iter().enumerate() {
        let path = ws.path_of(i);
        if f.is_test || (!all_rules && is_trusted(path)) {
            direct.push(None);
            continue;
        }
        let mut sources = panic_sources(f, ctxs.get(path).copied());
        direct.push(if sources.is_empty() {
            None
        } else {
            Some(sources.swap_remove(0))
        });
    }
    // Fixpoint: reach[f] = ∃ edge f→g with direct[g] or reach[g]. Trusted
    // and test fns contribute no edges.
    let mut reach = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if reach.get(i).copied().unwrap_or(true) {
                continue;
            }
            let skip = ws.fns.get(i).is_some_and(|f| f.is_test)
                || (!all_rules && is_trusted(ws.path_of(i)));
            if skip {
                continue;
            }
            let hits = ws.edges_of(i).iter().any(|(g, _)| {
                direct.get(*g).is_some_and(Option::is_some)
                    || reach.get(*g).copied().unwrap_or(false)
            });
            if hits {
                if let Some(slot) = reach.get_mut(i) {
                    *slot = true;
                }
                changed = true;
            }
        }
    }
    for (i, f) in ws.fns.iter().enumerate() {
        let path = ws.path_of(i);
        if f.is_test || !reach.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !all_rules && !PANIC_PATH_ROOTS.iter().any(|p| path.starts_with(p)) {
            continue;
        }
        let ctx = ctxs.get(path).copied();
        if ctx.is_some_and(|c| {
            c.rule_allowed(RULE_PANIC_PATH, f.line) || c.test_lines.contains(&f.line)
        }) {
            continue;
        }
        let chain = witness_chain(ws, &direct, i);
        report.findings.push(Finding {
            rule: RULE_PANIC_PATH,
            file: path.to_string(),
            line: f.line,
            message: format!(
                "`{}` can reach a panic: {chain} — make the callee total or annotate the \
                 source `// lint: allow(panic, reason=...)`",
                qualified(f)
            ),
        });
    }
}

fn qualified(f: &FnNode) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Shortest call chain from `root` to a fn with a direct source, rendered
/// as `root → callee → … → .unwrap() (file:line)`.
fn witness_chain(ws: &Workspace, direct: &[Option<PanicSource>], root: usize) -> String {
    // BFS over edges.
    let n = ws.fns.len();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    if let Some(s) = seen.get_mut(root) {
        *s = true;
    }
    queue.push_back(root);
    let mut hit = None;
    'bfs: while let Some(cur) = queue.pop_front() {
        for (g, _) in ws.edges_of(cur) {
            if seen.get(*g).copied().unwrap_or(true) {
                continue;
            }
            if let Some(s) = seen.get_mut(*g) {
                *s = true;
            }
            if let Some(p) = prev.get_mut(*g) {
                *p = Some(cur);
            }
            if direct.get(*g).is_some_and(Option::is_some) {
                hit = Some(*g);
                break 'bfs;
            }
            queue.push_back(*g);
        }
    }
    let Some(mut cur) = hit else {
        return "(call chain unavailable)".to_string();
    };
    let mut names = Vec::new();
    let tail = match (ws.fns.get(cur), direct.get(cur).and_then(Option::as_ref)) {
        (Some(f), Some(src)) => format!(
            "{} ({} at {}:{})",
            qualified(f),
            src.what,
            ws.path_of(cur),
            src.line
        ),
        _ => "?".to_string(),
    };
    names.push(tail);
    while let Some(p) = prev.get(cur).copied().flatten() {
        if p == root {
            break;
        }
        if let Some(f) = ws.fns.get(p) {
            names.push(qualified(f));
        }
        cur = p;
    }
    names.reverse();
    let mut chain = ws.fns.get(root).map(qualified).unwrap_or_default();
    for n in names {
        chain.push_str(" → ");
        chain.push_str(&n);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn build(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| ((*p).to_string(), parse(&lex(s).0)))
                .collect(),
        )
    }

    #[test]
    fn free_and_method_edges_resolve() {
        let ws = build(&[(
            "crates/core/src/a.rs",
            "struct S;\n\
             impl S { fn helper(&self) { free(); } }\n\
             fn free() {}\n\
             fn root(s: S) { s.helper(); }",
        )]);
        let root = ws.fns.iter().position(|f| f.name == "root").unwrap();
        let helper = ws.fns.iter().position(|f| f.name == "helper").unwrap();
        let free = ws.fns.iter().position(|f| f.name == "free").unwrap();
        assert_eq!(ws.edges_of(root), &[(helper, 4)]);
        assert_eq!(ws.edges_of(helper), &[(free, 2)]);
    }

    #[test]
    fn self_field_receivers_resolve_via_struct_fields() {
        let ws = build(&[(
            "crates/core/src/a.rs",
            "struct Inner;\n\
             impl Inner { fn go(&self) {} }\n\
             struct Outer { inner: Inner }\n\
             impl Outer { fn run(&self) { self.inner.go(); } }",
        )]);
        let run = ws.fns.iter().position(|f| f.name == "run").unwrap();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(ws.edges_of(run), &[(go, 4)]);
    }

    #[test]
    fn typed_receiver_without_matching_method_gets_no_union_edge() {
        // `v.push(…)` on a known workspace type that lacks `push` must not
        // link to some other type's `push`.
        let ws = build(&[(
            "crates/core/src/a.rs",
            "struct Buf;\n\
             struct Other;\n\
             impl Other { fn push(&mut self) { panic!(\"boom\") } }\n\
             fn root(b: Buf) { b.push(); }",
        )]);
        let root = ws.fns.iter().position(|f| f.name == "root").unwrap();
        assert!(ws.edges_of(root).is_empty());
    }

    #[test]
    fn type_head_handles_refs_paths_and_generics() {
        assert_eq!(type_head("&mut HmacDrbg"), "HmacDrbg");
        assert_eq!(type_head("seccloud_hash::HmacDrbg"), "HmacDrbg");
        assert_eq!(type_head("Option<Server>"), "Option");
        assert_eq!(type_head("&[u8]"), "");
    }
}
