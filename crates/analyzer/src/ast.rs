//! A dependency-free recursive-descent parser over [`crate::lexer`] tokens.
//!
//! The token-level rules of PR 3 see one line at a time; the
//! interprocedural rules (secret taint flow, transitive panic
//! reachability, unchecked sampling arithmetic, exhaustive wire dispatch)
//! need *structure*: which function a token belongs to, what a call's
//! arguments are, which patterns a `match` covers. This module produces
//! exactly as much structure as those rules consume — items, functions
//! with typed parameter lists, and an expression tree with source lines —
//! and no more (generic arguments are skipped, patterns are kept as
//! token-derived summaries).
//!
//! Parsing is *total*: any construct the grammar does not model is
//! consumed into an [`Expr::Opaque`] node that still records the
//! identifiers inside it, so downstream analyses degrade gracefully
//! instead of going blind. The parser makes progress on every loop
//! iteration and never panics — it is itself subject to the
//! panic-reachability rule it enables (`lint_workspace` parses
//! untrusted-ish bytes from disk).

use crate::lexer::{Tok, TokKind};

/// One parsed source file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A free function (or trait default method when nested in a trait).
    Fn(FnDecl),
    /// `impl [Trait for] Type { fns }`.
    Impl {
        /// The self type's head identifier (`Writer` for
        /// `wire::Writer<'a>`).
        type_name: String,
        /// The trait's head identifier for trait impls.
        trait_name: Option<String>,
        /// Methods and associated functions.
        fns: Vec<FnDecl>,
        /// 1-based line of the `impl` keyword.
        line: u32,
    },
    /// An inline module with its body.
    Mod {
        /// Module name.
        name: String,
        /// Items inside the module.
        items: Vec<Item>,
        /// Whether the module is gated behind `#[cfg(test)]`.
        is_test: bool,
    },
    /// A struct definition with its fields (named or tuple).
    Struct {
        /// Type name.
        name: String,
        /// `(field name, type text)` pairs; tuple fields are named `0`,
        /// `1`, ….
        fields: Vec<(String, String)>,
        /// Idents listed in `#[derive(...)]`.
        derives: Vec<String>,
        /// 1-based line of the name.
        line: u32,
    },
    /// An enum definition (variants are not modeled).
    Enum {
        /// Type name.
        name: String,
        /// Idents listed in `#[derive(...)]`.
        derives: Vec<String>,
        /// 1-based line of the name.
        line: u32,
    },
    /// `trait Name { fns }` — default method bodies are analyzed.
    Trait {
        /// Trait name.
        name: String,
        /// Method signatures and default bodies.
        fns: Vec<FnDecl>,
    },
    /// Anything else (`use`, `const`, `static`, `type`, macros, …).
    Other,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for receivers; `_` patterns keep their idents
    /// joined by `_`).
    pub name: String,
    /// The declared type, as joined token text (`&mut HmacDrbg`).
    pub ty: String,
}

/// A parsed function: signature plus body expression tree.
#[derive(Debug)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Parameters in order (`self` first for methods).
    pub params: Vec<Param>,
    /// Return type text, if any (`Result<Self, WireError>`).
    pub ret: Option<String>,
    /// The body block; `None` for trait method signatures.
    pub body: Option<Expr>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn is test-only (`#[test]` / inside `#[cfg(test)]`).
    pub is_test: bool,
}

/// A `match` arm summary.
#[derive(Debug)]
pub struct Arm {
    /// `Path::Segments` referenced by the pattern (e.g.
    /// `["RpcError", "Timeout"]`).
    pub pat_paths: Vec<Vec<String>>,
    /// Lowercase identifiers bound by the pattern.
    pub bindings: Vec<String>,
    /// Whether the pattern contains a literal token (`0`, `"ack"`, `'c'`)
    /// — such an arm compares values, not just structure.
    pub has_literal: bool,
    /// The arm body.
    pub body: Expr,
    /// 1-based line of the pattern.
    pub line: u32,
}

/// The expression tree. Every node carries the 1-based line it starts on.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (generic arguments skipped).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// A literal token.
    Lit {
        /// Exact token text.
        text: String,
        /// Whether the literal is an integer (no `.`/exponent, or an
        /// integer suffix).
        is_int: bool,
        /// Source line.
        line: u32,
    },
    /// `callee(args…)`.
    Call {
        /// The called expression (usually a [`Expr::Path`]).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `recv.name(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments in order (receiver excluded).
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `base.field` (or `.0` tuple access).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name or tuple index.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression (may be a range).
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A binary operation `lhs op rhs`.
    Binary {
        /// Operator text (`+`, `<<`, `==`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `lhs = rhs` or a compound assignment (`+=`, `<<=`, …).
    Assign {
        /// Operator text (`=`, `+=`, …).
        op: String,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `let pat[: ty] = init;` (plus an optional `else` block).
    Let {
        /// Identifiers bound by the pattern.
        bindings: Vec<String>,
        /// Declared type text, if annotated.
        ty: Option<String>,
        /// Initializer.
        init: Option<Box<Expr>>,
        /// `else { … }` diverging block of a let-else.
        else_block: Option<Box<Expr>>,
        /// The pattern is a tuple whose element `i` binds exactly
        /// `bindings[i]` — `(a, mut b, Some(c))`, not `(_, (b, c))`.
        flat_tuple: bool,
        /// Source line.
        line: u32,
    },
    /// `{ stmts… }`.
    Block {
        /// Statements / trailing expression in order.
        stmts: Vec<Expr>,
        /// Source line of the opening brace.
        line: u32,
    },
    /// `if cond { … } [else …]`; `if let` keeps its bindings.
    If {
        /// Condition (the initializer for `if let`).
        cond: Box<Expr>,
        /// Identifiers bound by an `if let` pattern.
        bindings: Vec<String>,
        /// Then-block.
        then_block: Box<Expr>,
        /// Else branch (block or nested `if`).
        else_block: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `match scrutinee { arms… }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
        /// Source line.
        line: u32,
    },
    /// `for pat in iter { … }`.
    For {
        /// Loop variable bindings.
        bindings: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body block.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `while cond { … }` / `loop { … }` (cond is `None` for `loop`).
    Loop {
        /// Condition for `while` / `while let`.
        cond: Option<Box<Expr>>,
        /// Identifiers bound by a `while let` pattern.
        bindings: Vec<String>,
        /// Body block.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `|params| body` closures.
    Closure {
        /// Parameter bindings.
        bindings: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `name!(args…)` — arguments parsed as expressions where possible.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Parsed arguments (or [`Expr::Opaque`] per unparseable piece).
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A range `lo..hi` / `lo..=hi` (either side optional).
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `expr as Ty`.
    Cast {
        /// The cast expression.
        expr: Box<Expr>,
        /// Target type text.
        ty: String,
        /// Source line.
        line: u32,
    },
    /// `Path { field: expr, … }` struct literal.
    StructLit {
        /// The struct path segments.
        segs: Vec<String>,
        /// Field initializers.
        fields: Vec<(String, Expr)>,
        /// Source line.
        line: u32,
    },
    /// A grouping node: parentheses, tuples, arrays, `return`/`break`
    /// values, `?`/`&`/`*`/`-`/`!` operands — anything whose children
    /// matter but whose own shape does not.
    Group {
        /// Child expressions.
        children: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A nested `fn` item inside a block.
    NestedFn(Box<FnDecl>),
    /// Tokens the grammar does not model; identifiers are preserved.
    Opaque {
        /// Identifier tokens seen in the skipped region.
        idents: Vec<String>,
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// `let (a, b) = (x, y);` — a flat tuple pattern over a tuple literal
    /// of the same arity: each binding paired with its own element.
    pub fn tuple_let_elements(&self) -> Option<impl Iterator<Item = (&String, &Expr)>> {
        let Expr::Let {
            bindings,
            init: Some(init),
            flat_tuple: true,
            ..
        } = self
        else {
            return None;
        };
        let Expr::Group { children, .. } = init.as_ref() else {
            return None;
        };
        (children.len() == bindings.len()).then(|| bindings.iter().zip(children))
    }

    /// The 1-based source line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Let { line, .. }
            | Expr::Block { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::For { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Closure { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::Range { line, .. }
            | Expr::Cast { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Group { line, .. }
            | Expr::Opaque { line, .. } => *line,
            Expr::NestedFn(f) => f.line,
        }
    }

    /// Visits `self` and every child expression (pre-order), including
    /// nested fn bodies.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Field { base, .. } => base.walk(visit),
            Expr::Index { base, index, .. } => {
                base.walk(visit);
                index.walk(visit);
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Let {
                init, else_block, ..
            } => {
                if let Some(i) = init {
                    i.walk(visit);
                }
                if let Some(e) = else_block {
                    e.walk(visit);
                }
            }
            Expr::Block { stmts, .. } => {
                for s in stmts {
                    s.walk(visit);
                }
            }
            Expr::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                cond.walk(visit);
                then_block.walk(visit);
                if let Some(e) = else_block {
                    e.walk(visit);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(visit);
                for arm in arms {
                    arm.body.walk(visit);
                }
            }
            Expr::For { iter, body, .. } => {
                iter.walk(visit);
                body.walk(visit);
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    c.walk(visit);
                }
                body.walk(visit);
            }
            Expr::Closure { body, .. } => body.walk(visit),
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(l) = lo {
                    l.walk(visit);
                }
                if let Some(h) = hi {
                    h.walk(visit);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(visit),
            Expr::StructLit { fields, .. } => {
                for (_, e) in fields {
                    e.walk(visit);
                }
            }
            Expr::Group { children, .. } => {
                for c in children {
                    c.walk(visit);
                }
            }
            Expr::NestedFn(f) => {
                if let Some(b) = &f.body {
                    b.walk(visit);
                }
            }
        }
    }
}

/// Parses a lexed token stream into an [`Ast`]. Total: never fails,
/// never panics; unmodeled constructs become [`Expr::Opaque`] /
/// [`Item::Other`].
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser { toks, pos: 0 };
    Ast {
        items: p.parse_items(false),
    }
}

/// Keywords that terminate pattern/type scans and never act as bindings.
const KEYWORDS: [&str; 24] = [
    "let", "mut", "ref", "if", "else", "match", "while", "for", "loop", "fn", "return", "break",
    "continue", "in", "as", "move", "where", "impl", "dyn", "self", "Self", "pub", "crate",
    "unsafe",
]; // `self` is handled explicitly where it matters

struct Parser<'t> {
    toks: &'t [Tok],
    pos: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self, ahead: usize) -> Option<&'t Tok> {
        self.toks.get(self.pos.saturating_add(ahead))
    }

    fn peek_text(&self, ahead: usize) -> &str {
        self.peek(ahead).map_or("", |t| t.text.as_str())
    }

    fn line(&self) -> u32 {
        self.peek(0)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'t Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.peek_text(0) == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips one balanced delimiter group (the opener must be current);
    /// counts `<<`/`>>` as two angle brackets when angles are live.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            let txt = t.text.as_str();
            if txt == open {
                depth += 1;
            } else if txt == close {
                depth -= 1;
                if depth <= 0 {
                    return;
                }
            } else if open == "<" {
                match txt {
                    "<<" => depth += 2,
                    ">>" => {
                        depth -= 2;
                        if depth <= 0 {
                            return;
                        }
                    }
                    // An expression-level comparison would derail angle
                    // matching; bail out at statement boundaries.
                    ";" | "{" => return,
                    _ => {}
                }
            }
        }
    }

    /// Skips `#[...]` / `#![...]` returning the idents inside, or `None`
    /// if not at an attribute.
    fn eat_attribute(&mut self) -> Option<Vec<String>> {
        if self.peek_text(0) != "#" {
            return None;
        }
        let bracket_at = if self.peek_text(1) == "[" {
            1
        } else if self.peek_text(1) == "!" && self.peek_text(2) == "[" {
            2
        } else {
            return None;
        };
        self.pos += bracket_at; // at `[`
        let start = self.pos;
        self.skip_balanced("[", "]");
        let idents = self
            .toks
            .get(start..self.pos)
            .unwrap_or_default()
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        Some(idents)
    }

    // --- items ------------------------------------------------------------

    /// Parses items until end of input (`in_block = false`) or a closing
    /// `}` (`in_block = true`, which consumes the brace).
    fn parse_items(&mut self, in_block: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_end() {
                return items;
            }
            if in_block && self.eat("}") {
                return items;
            }
            // Attributes: remember derives and test gating for the item.
            let mut derives: Vec<String> = Vec::new();
            let mut is_test_attr = false;
            while let Some(idents) = self.eat_attribute() {
                let has = |s: &str| idents.iter().any(|i| i == s);
                if has("derive") {
                    derives.extend(idents.iter().skip(1).cloned());
                }
                if has("test") && !has("not") {
                    is_test_attr = true;
                }
            }
            // Visibility / misc prefixes.
            while matches!(self.peek_text(0), "pub" | "unsafe" | "async" | "default") {
                self.pos += 1;
                if self.peek_text(0) == "(" {
                    self.skip_balanced("(", ")"); // pub(crate) etc.
                }
            }
            match self.peek_text(0) {
                "fn" => items.push(Item::Fn(self.parse_fn(is_test_attr))),
                "struct" => items.push(self.parse_struct(derives)),
                "enum" | "union" => items.push(self.parse_enum(derives)),
                "impl" => items.push(self.parse_impl(is_test_attr)),
                "mod" => items.push(self.parse_mod(is_test_attr)),
                "trait" => items.push(self.parse_trait(is_test_attr)),
                "use" | "extern" | "const" | "static" | "type" => {
                    self.skip_item_to_semi();
                    items.push(Item::Other);
                }
                "macro_rules" => {
                    // macro_rules! name { ... }
                    while !self.at_end() && self.peek_text(0) != "{" {
                        self.pos += 1;
                    }
                    if self.peek_text(0) == "{" {
                        self.skip_balanced("{", "}");
                    }
                    items.push(Item::Other);
                }
                _ => {
                    // Unknown leading token: make progress.
                    self.pos += 1;
                }
            }
        }
    }

    /// Skips to the `;` ending a simple item, respecting nesting.
    fn skip_item_to_semi(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return,
                _ => {}
            }
        }
    }

    fn parse_struct(&mut self, derives: Vec<String>) -> Item {
        self.pos += 1; // struct
        let line = self.line();
        let name = self.ident_or("?");
        if self.peek_text(0) == "<" {
            self.skip_balanced("<", ">");
        }
        let mut fields = Vec::new();
        if self.peek_text(0) == "(" {
            // Tuple struct: types split at top-level commas.
            let inner = self.delimited_tokens("(", ")");
            for (i, seg) in split_top_level(&inner, ",").into_iter().enumerate() {
                if !seg.is_empty() {
                    fields.push((i.to_string(), join_tokens(seg)));
                }
            }
            self.eat(";");
        } else if self.peek_text(0) == "{" {
            let inner = self.delimited_tokens("{", "}");
            for seg in split_top_level(&inner, ",") {
                // [pub] name : type
                let seg: Vec<&Tok> = seg
                    .iter()
                    .copied()
                    .filter(|t| t.text != "pub")
                    .skip_while(|t| t.text == "(" || t.text == ")" || t.text == "crate")
                    .collect();
                let mut it = seg.iter();
                if let (Some(nm), Some(colon)) = (it.next(), it.next()) {
                    if colon.text == ":" {
                        let ty: Vec<&Tok> = it.copied().collect();
                        fields.push((nm.text.clone(), join_tokens(ty)));
                    }
                }
            }
        } else {
            self.eat(";"); // unit struct
        }
        Item::Struct {
            name,
            fields,
            derives,
            line,
        }
    }

    fn parse_enum(&mut self, derives: Vec<String>) -> Item {
        self.pos += 1; // enum / union
        let line = self.line();
        let name = self.ident_or("?");
        if self.peek_text(0) == "<" {
            self.skip_balanced("<", ">");
        }
        // Skip a possible where clause, then the body.
        while !self.at_end() && self.peek_text(0) != "{" && self.peek_text(0) != ";" {
            self.pos += 1;
        }
        if self.peek_text(0) == "{" {
            self.skip_balanced("{", "}");
        } else {
            self.eat(";");
        }
        Item::Enum {
            name,
            derives,
            line,
        }
    }

    fn parse_mod(&mut self, is_test: bool) -> Item {
        self.pos += 1; // mod
        let name = self.ident_or("?");
        if self.eat(";") {
            return Item::Other;
        }
        if !self.eat("{") {
            return Item::Other;
        }
        let items = self.parse_items(true);
        Item::Mod {
            name,
            items,
            is_test,
        }
    }

    fn parse_trait(&mut self, is_test: bool) -> Item {
        self.pos += 1; // trait
        let name = self.ident_or("?");
        if self.peek_text(0) == "<" {
            self.skip_balanced("<", ">");
        }
        while !self.at_end() && self.peek_text(0) != "{" && self.peek_text(0) != ";" {
            self.pos += 1; // supertraits / where clause
        }
        if !self.eat("{") {
            self.eat(";");
            return Item::Trait {
                name,
                fns: Vec::new(),
            };
        }
        let fns = self.parse_fn_container(is_test);
        Item::Trait { name, fns }
    }

    fn parse_impl(&mut self, is_test: bool) -> Item {
        let line = self.line();
        self.pos += 1; // impl
        if self.peek_text(0) == "<" {
            self.skip_balanced("<", ">");
        }
        // Tokens up to the body: `Type` or `Trait for Type` (+ where).
        let mut head: Vec<&Tok> = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.text == "{" || t.text == "where" {
                break;
            }
            head.push(t);
            self.pos += 1;
        }
        if self.peek_text(0) == "where" {
            while !self.at_end() && self.peek_text(0) != "{" {
                self.pos += 1;
            }
        }
        let (trait_name, type_toks): (Option<String>, Vec<&Tok>) = {
            let mut split = None;
            let mut depth = 0i64;
            for (i, t) in head.iter().enumerate() {
                match t.text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "for" if depth <= 0 => {
                        split = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            match split {
                Some(i) => (
                    head.get(..i).and_then(head_type_name),
                    head.get(i + 1..).map(<[&Tok]>::to_vec).unwrap_or_default(),
                ),
                None => (None, head.clone()),
            }
        };
        let type_name = head_type_name(&type_toks).unwrap_or_else(|| "?".to_string());
        if !self.eat("{") {
            return Item::Other;
        }
        let fns = self.parse_fn_container(is_test);
        Item::Impl {
            type_name,
            trait_name,
            fns,
            line,
        }
    }

    /// Parses the `{ … }` body of an impl/trait (opening brace consumed),
    /// collecting fns and skipping everything else.
    fn parse_fn_container(&mut self, container_is_test: bool) -> Vec<FnDecl> {
        let mut fns = Vec::new();
        loop {
            if self.at_end() || self.eat("}") {
                return fns;
            }
            let mut is_test_attr = container_is_test;
            while let Some(idents) = self.eat_attribute() {
                if idents.iter().any(|i| i == "test") && !idents.iter().any(|i| i == "not") {
                    is_test_attr = true;
                }
            }
            while matches!(self.peek_text(0), "pub" | "unsafe" | "async" | "default") {
                self.pos += 1;
                if self.peek_text(0) == "(" {
                    self.skip_balanced("(", ")");
                }
            }
            match self.peek_text(0) {
                "fn" => fns.push(self.parse_fn(is_test_attr)),
                "const" | "type" => self.skip_item_to_semi(),
                "{" => self.skip_balanced("{", "}"),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_fn(&mut self, is_test: bool) -> FnDecl {
        let line = self.line();
        self.pos += 1; // fn
        let name = self.ident_or("?");
        if self.peek_text(0) == "<" {
            self.skip_balanced("<", ">");
        }
        let params = if self.peek_text(0) == "(" {
            let inner = self.delimited_tokens("(", ")");
            parse_params(&inner)
        } else {
            Vec::new()
        };
        let ret = if self.eat("->") {
            let mut depth = 0i64;
            let mut ty: Vec<&Tok> = Vec::new();
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    "{" | "where" | ";" if depth <= 0 => break,
                    _ => {}
                }
                ty.push(t);
                self.pos += 1;
            }
            Some(join_tokens(ty))
        } else {
            None
        };
        if self.peek_text(0) == "where" {
            let mut depth = 0i64;
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    "{" | ";" if depth <= 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
        }
        let body = if self.eat("{") {
            Some(self.parse_block_body(line))
        } else {
            self.eat(";");
            None
        };
        FnDecl {
            name,
            params,
            ret,
            body,
            line,
            is_test,
        }
    }

    fn ident_or(&mut self, fallback: &str) -> String {
        match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                self.pos += 1;
                t.text.clone()
            }
            _ => fallback.to_string(),
        }
    }

    /// Consumes a balanced group (current token must be `open`) and
    /// returns the tokens strictly inside it.
    fn delimited_tokens(&mut self, open: &str, close: &str) -> Vec<&'t Tok> {
        let start = self.pos.saturating_add(1);
        self.skip_balanced(open, close);
        let end = self.pos.saturating_sub(1);
        self.toks
            .get(start..end.max(start))
            .unwrap_or_default()
            .iter()
            .collect()
    }

    // --- statements and expressions ---------------------------------------

    /// Parses statements until the matching `}` (opening brace already
    /// consumed).
    fn parse_block_body(&mut self, line: u32) -> Expr {
        let mut stmts = Vec::new();
        loop {
            if self.at_end() || self.eat("}") {
                return Expr::Block { stmts, line };
            }
            if self.eat(";") {
                continue;
            }
            while self.eat_attribute().is_some() {}
            let before = self.pos;
            match self.peek_text(0) {
                "let" => stmts.push(self.parse_let()),
                "fn" => {
                    self.pos += 1;
                    self.pos = self.pos.saturating_sub(1);
                    stmts.push(Expr::NestedFn(Box::new(self.parse_fn(false))));
                }
                "use" | "const" | "static" | "type" | "extern" => {
                    self.skip_item_to_semi();
                }
                "struct" | "enum" | "impl" | "mod" | "trait" | "macro_rules" => {
                    // Nested items inside fn bodies: reuse the item parser
                    // for one item.
                    let mut sub = Parser {
                        toks: self.toks,
                        pos: self.pos,
                    };
                    let _ = sub.parse_single_item();
                    self.pos = sub.pos.max(self.pos + 1);
                }
                "pub" => {
                    self.pos += 1;
                }
                _ => {
                    let e = self.parse_expr(0, true);
                    stmts.push(e);
                    self.eat(";");
                }
            }
            // Guarantee progress even on pathological input.
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    fn parse_single_item(&mut self) -> Vec<Item> {
        match self.peek_text(0) {
            "struct" => vec![self.parse_struct(Vec::new())],
            "enum" => vec![self.parse_enum(Vec::new())],
            "impl" => vec![self.parse_impl(false)],
            "mod" => vec![self.parse_mod(false)],
            "trait" => vec![self.parse_trait(false)],
            _ => {
                self.skip_item_to_semi();
                Vec::new()
            }
        }
    }

    fn parse_let(&mut self) -> Expr {
        let line = self.line();
        self.pos += 1; // let
                       // Pattern tokens until `:`, `=` or `;` at depth 0.
        let mut depth = 0i64;
        let mut pat: Vec<&Tok> = Vec::new();
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" | "=" | ";" if depth <= 0 => break,
                "==" | "=>" if depth <= 0 => break,
                _ => {}
            }
            pat.push(t);
            self.pos += 1;
        }
        let bindings = pattern_bindings(&pat);
        let flat_tuple = match pat.as_slice() {
            [open, inner @ .., close] if open.text == "(" && close.text == ")" => {
                split_top_level(inner, ",")
                    .iter()
                    .all(|elem| pattern_bindings(elem).len() == 1)
            }
            _ => false,
        };
        let ty = if self.eat(":") {
            let mut depth = 0i64;
            let mut ty: Vec<&Tok> = Vec::new();
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    "=" | ";" if depth <= 0 => break,
                    _ => {}
                }
                ty.push(t);
                self.pos += 1;
            }
            Some(join_tokens(ty))
        } else {
            None
        };
        let init = if self.eat("=") {
            Some(Box::new(self.parse_expr(0, true)))
        } else {
            None
        };
        let else_block = if self.peek_text(0) == "else" && self.peek_text(1) == "{" {
            self.pos += 1;
            self.pos += 1;
            Some(Box::new(self.parse_block_body(self.line())))
        } else {
            None
        };
        self.eat(";");
        Expr::Let {
            bindings,
            ty,
            init,
            else_block,
            flat_tuple,
            line,
        }
    }

    /// Pratt expression parser. `no_struct` suppresses struct-literal
    /// parsing (condition / scrutinee position).
    fn parse_expr(&mut self, min_bp: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(allow_struct);
        while let Some(op) = self.peek(0) {
            let op_text = op.text.clone();
            let line = op.line;
            // Postfix.
            match op_text.as_str() {
                "." => {
                    self.pos += 1;
                    let Some(next) = self.peek(0) else { break };
                    let name = next.text.clone();
                    self.pos += 1;
                    if name == "await" {
                        continue;
                    }
                    // Turbofish on methods: `.collect::<Vec<_>>()`.
                    if self.peek_text(0) == "::" {
                        self.pos += 1;
                        if self.peek_text(0) == "<" {
                            self.skip_balanced("<", ">");
                        }
                    }
                    if self.peek_text(0) == "(" {
                        let args = self.call_args();
                        lhs = Expr::MethodCall {
                            recv: Box::new(lhs),
                            name,
                            args,
                            line,
                        };
                    } else {
                        lhs = Expr::Field {
                            base: Box::new(lhs),
                            name,
                            line,
                        };
                    }
                    continue;
                }
                "(" => {
                    let args = self.call_args();
                    lhs = Expr::Call {
                        callee: Box::new(lhs),
                        args,
                        line,
                    };
                    continue;
                }
                "[" => {
                    let inner = self.delimited_tokens("[", "]");
                    let index = parse_fragment(&inner, line);
                    lhs = Expr::Index {
                        base: Box::new(lhs),
                        index: Box::new(index),
                        line,
                    };
                    continue;
                }
                "?" => {
                    self.pos += 1;
                    lhs = Expr::Group {
                        children: vec![lhs],
                        line,
                    };
                    continue;
                }
                "as" => {
                    self.pos += 1;
                    let mut depth = 0i64;
                    let mut ty: Vec<&Tok> = Vec::new();
                    while let Some(t) = self.peek(0) {
                        let is_type_tok = match t.text.as_str() {
                            "<" | "(" | "[" => {
                                depth += 1;
                                true
                            }
                            ">" | ")" | "]" if depth > 0 => {
                                depth -= 1;
                                true
                            }
                            _ if depth > 0 => true,
                            "::" | "*" | "&" | "dyn" | "mut" | "const" => ty
                                .last()
                                .is_none_or(|l| l.kind != TokKind::Ident || t.text == "::"),
                            _ => t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()),
                        };
                        if !is_type_tok {
                            break;
                        }
                        ty.push(t);
                        self.pos += 1;
                    }
                    lhs = Expr::Cast {
                        expr: Box::new(lhs),
                        ty: join_tokens(ty),
                        line,
                    };
                    continue;
                }
                _ => {}
            }
            // Range operators.
            if op_text == ".." || op_text == "..=" {
                let (l_bp, r_bp) = (2u8, 3u8);
                if l_bp < min_bp {
                    break;
                }
                self.pos += 1;
                let hi = if self.starts_expr(allow_struct) {
                    Some(Box::new(self.parse_expr(r_bp, allow_struct)))
                } else {
                    None
                };
                lhs = Expr::Range {
                    lo: Some(Box::new(lhs)),
                    hi,
                    line,
                };
                continue;
            }
            // Binary / assignment operators.
            let Some((l_bp, r_bp, is_assign)) = binop_power(&op_text) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_expr(r_bp, allow_struct);
            lhs = if is_assign {
                Expr::Assign {
                    op: op_text,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            } else {
                Expr::Binary {
                    op: op_text,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            };
        }
        lhs
    }

    /// Could the current token begin an expression? (Used to detect
    /// open-ended ranges.)
    fn starts_expr(&self, _allow_struct: bool) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => match t.kind {
                TokKind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where"),
                TokKind::Number | TokKind::Str | TokKind::Char => true,
                TokKind::Lifetime => false,
                TokKind::Punct => matches!(
                    t.text.as_str(),
                    "(" | "[" | "{" | "&" | "*" | "-" | "!" | "|" | "||"
                ),
            },
        }
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let line = self.line();
        let inner = self.delimited_tokens("(", ")");
        split_top_level(&inner, ",")
            .into_iter()
            .filter(|seg| !seg.is_empty())
            .map(|seg| parse_fragment(&seg, line))
            .collect()
    }

    fn parse_prefix(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Opaque {
                idents: Vec::new(),
                line: self.line(),
            };
        };
        let line = t.line;
        match t.kind {
            TokKind::Number => {
                self.pos += 1;
                Expr::Lit {
                    is_int: int_literal(&t.text),
                    text: t.text.clone(),
                    line,
                }
            }
            TokKind::Str | TokKind::Char | TokKind::Lifetime => {
                self.pos += 1;
                Expr::Lit {
                    is_int: false,
                    text: t.text.clone(),
                    line,
                }
            }
            TokKind::Punct => match t.text.as_str() {
                "&" | "*" | "-" | "!" => {
                    self.pos += 1;
                    self.eat("mut");
                    let inner = self.parse_expr(11, allow_struct);
                    Expr::Group {
                        children: vec![inner],
                        line,
                    }
                }
                "(" => {
                    let inner = self.delimited_tokens("(", ")");
                    let children = split_top_level(&inner, ",")
                        .into_iter()
                        .filter(|seg| !seg.is_empty())
                        .map(|seg| parse_fragment(&seg, line))
                        .collect();
                    Expr::Group { children, line }
                }
                "[" => {
                    let inner = self.delimited_tokens("[", "]");
                    let mut children = Vec::new();
                    for seg in split_top_level(&inner, ",") {
                        for sub in split_top_level(&seg, ";") {
                            if !sub.is_empty() {
                                children.push(parse_fragment(&sub, line));
                            }
                        }
                    }
                    Expr::Group { children, line }
                }
                "{" => {
                    self.pos += 1;
                    self.parse_block_body(line)
                }
                "|" | "||" => self.parse_closure(line),
                ".." | "..=" => {
                    self.pos += 1;
                    let hi = if self.starts_expr(allow_struct) {
                        Some(Box::new(self.parse_expr(3, allow_struct)))
                    } else {
                        None
                    };
                    Expr::Range { lo: None, hi, line }
                }
                "#" => {
                    if self.eat_attribute().is_none() {
                        self.pos += 1;
                    }
                    self.parse_prefix(allow_struct)
                }
                _ => {
                    self.pos += 1;
                    Expr::Opaque {
                        idents: Vec::new(),
                        line,
                    }
                }
            },
            TokKind::Ident => match t.text.as_str() {
                "if" => self.parse_if(line),
                "match" => self.parse_match(line),
                "while" => self.parse_while(line),
                "loop" => {
                    self.pos += 1;
                    let body = if self.eat("{") {
                        self.parse_block_body(line)
                    } else {
                        Expr::Opaque {
                            idents: Vec::new(),
                            line,
                        }
                    };
                    Expr::Loop {
                        cond: None,
                        bindings: Vec::new(),
                        body: Box::new(body),
                        line,
                    }
                }
                "for" => self.parse_for(line),
                "unsafe" => {
                    self.pos += 1;
                    if self.eat("{") {
                        self.parse_block_body(line)
                    } else {
                        Expr::Opaque {
                            idents: Vec::new(),
                            line,
                        }
                    }
                }
                "move" => {
                    self.pos += 1;
                    if matches!(self.peek_text(0), "|" | "||") {
                        self.parse_closure(line)
                    } else {
                        self.parse_prefix(allow_struct)
                    }
                }
                "return" | "break" => {
                    self.pos += 1;
                    let children = if self.starts_expr(allow_struct)
                        && !matches!(self.peek_text(0), ";" | "}" | ",")
                    {
                        vec![self.parse_expr(0, allow_struct)]
                    } else {
                        Vec::new()
                    };
                    Expr::Group { children, line }
                }
                "continue" => {
                    self.pos += 1;
                    Expr::Group {
                        children: Vec::new(),
                        line,
                    }
                }
                "let" => {
                    // `let` in expression position (if let / while let
                    // conditions reach here when parenthesized oddly).
                    self.parse_let()
                }
                "true" | "false" => {
                    self.pos += 1;
                    Expr::Lit {
                        is_int: false,
                        text: t.text.clone(),
                        line,
                    }
                }
                _ => self.parse_path_based(allow_struct, line),
            },
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        let mut bindings = Vec::new();
        if self.eat("||") {
            // no params
        } else if self.eat("|") {
            let mut pat: Vec<&Tok> = Vec::new();
            let mut depth = 0i64;
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "|" if depth <= 0 => break,
                    _ => {}
                }
                pat.push(t);
                self.pos += 1;
            }
            self.eat("|");
            bindings = pattern_bindings(&pat);
        }
        // Optional `-> Ty` before a block body.
        if self.eat("->") {
            while !self.at_end() && self.peek_text(0) != "{" {
                self.pos += 1;
            }
        }
        let body = self.parse_expr(0, true);
        Expr::Closure {
            bindings,
            body: Box::new(body),
            line,
        }
    }

    fn parse_if(&mut self, line: u32) -> Expr {
        self.pos += 1; // if
        let (cond, bindings) = self.parse_condition();
        let then_block = if self.eat("{") {
            self.parse_block_body(self.line())
        } else {
            Expr::Opaque {
                idents: Vec::new(),
                line,
            }
        };
        let else_block = if self.eat("else") {
            if self.peek_text(0) == "if" {
                Some(Box::new(self.parse_if(self.line())))
            } else if self.eat("{") {
                Some(Box::new(self.parse_block_body(self.line())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            bindings,
            then_block: Box::new(then_block),
            else_block,
            line,
        }
    }

    /// Parses an `if`/`while` condition, handling `let pat = expr`.
    fn parse_condition(&mut self) -> (Expr, Vec<String>) {
        if self.eat("let") {
            let mut depth = 0i64;
            let mut pat: Vec<&Tok> = Vec::new();
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    "=" if depth <= 0 => break,
                    _ => {}
                }
                pat.push(t);
                self.pos += 1;
            }
            let bindings = pattern_bindings(&pat);
            self.eat("=");
            let cond = self.parse_expr(0, false);
            (cond, bindings)
        } else {
            (self.parse_expr(0, false), Vec::new())
        }
    }

    fn parse_while(&mut self, line: u32) -> Expr {
        self.pos += 1; // while
        let (cond, bindings) = self.parse_condition();
        let body = if self.eat("{") {
            self.parse_block_body(self.line())
        } else {
            Expr::Opaque {
                idents: Vec::new(),
                line,
            }
        };
        Expr::Loop {
            cond: Some(Box::new(cond)),
            bindings,
            body: Box::new(body),
            line,
        }
    }

    fn parse_for(&mut self, line: u32) -> Expr {
        self.pos += 1; // for
        let mut depth = 0i64;
        let mut pat: Vec<&Tok> = Vec::new();
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "in" if depth <= 0 => break,
                _ => {}
            }
            pat.push(t);
            self.pos += 1;
        }
        let bindings = pattern_bindings(&pat);
        self.eat("in");
        let iter = self.parse_expr(0, false);
        let body = if self.eat("{") {
            self.parse_block_body(self.line())
        } else {
            Expr::Opaque {
                idents: Vec::new(),
                line,
            }
        };
        Expr::For {
            bindings,
            iter: Box::new(iter),
            body: Box::new(body),
            line,
        }
    }

    fn parse_match(&mut self, line: u32) -> Expr {
        self.pos += 1; // match
        let scrutinee = self.parse_expr(0, false);
        if !self.eat("{") {
            return Expr::Group {
                children: vec![scrutinee],
                line,
            };
        }
        let mut arms = Vec::new();
        loop {
            if self.at_end() || self.eat("}") {
                break;
            }
            while self.eat_attribute().is_some() {}
            if self.eat(",") {
                continue;
            }
            // Pattern tokens until `=>` at depth 0.
            let arm_line = self.line();
            let mut depth = 0i64;
            let mut pat: Vec<&Tok> = Vec::new();
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth <= 0 => break,
                    _ => {}
                }
                if depth < 0 {
                    break;
                }
                pat.push(t);
                self.pos += 1;
            }
            if !self.eat("=>") {
                // Malformed arm; resync.
                if self.peek_text(0) == "}" {
                    continue;
                }
                self.pos += 1;
                continue;
            }
            // Split an `if` guard off the pattern.
            let mut guard_split = None;
            let mut d = 0i64;
            for (i, t) in pat.iter().enumerate() {
                match t.text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    "if" if d <= 0 => {
                        guard_split = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let pat_part = match guard_split {
                Some(i) => pat.get(..i).map(<[&Tok]>::to_vec).unwrap_or_default(),
                None => pat.clone(),
            };
            let pat_paths = pattern_paths(&pat_part);
            let bindings = pattern_bindings(&pat_part);
            let has_literal = pat_part
                .iter()
                .any(|t| matches!(t.kind, TokKind::Number | TokKind::Str | TokKind::Char));
            let body = self.parse_expr(0, true);
            self.eat(",");
            arms.push(Arm {
                pat_paths,
                bindings,
                has_literal,
                body,
                line: arm_line,
            });
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }

    /// Ident-led expressions: paths, calls, macro calls, struct literals.
    fn parse_path_based(&mut self, allow_struct: bool, line: u32) -> Expr {
        let mut segs: Vec<String> = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.kind != TokKind::Ident {
                break;
            }
            segs.push(t.text.clone());
            self.pos += 1;
            if self.peek_text(0) == "::" {
                self.pos += 1;
                // Turbofish `::<…>`.
                if self.peek_text(0) == "<" {
                    self.skip_balanced("<", ">");
                    if self.peek_text(0) == "::" {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            self.pos += 1;
            return Expr::Opaque {
                idents: Vec::new(),
                line,
            };
        }
        // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
        if self.peek_text(0) == "!" {
            let delim = self.peek_text(1).to_string();
            if matches!(delim.as_str(), "(" | "[" | "{") {
                self.pos += 1; // !
                let (open, close) = match delim.as_str() {
                    "(" => ("(", ")"),
                    "[" => ("[", "]"),
                    _ => ("{", "}"),
                };
                let inner = self.delimited_tokens(open, close);
                let name = segs.last().cloned().unwrap_or_default();
                let mut args = Vec::new();
                for seg in split_top_level(&inner, ",") {
                    for sub in split_top_level(&seg, ";") {
                        if !sub.is_empty() {
                            args.push(parse_fragment(&sub, line));
                        }
                    }
                }
                return Expr::MacroCall { name, args, line };
            }
        }
        // Struct literal: `Path { field: …, … }`.
        if allow_struct && self.peek_text(0) == "{" && struct_lit_ahead(self) {
            let inner = self.delimited_tokens("{", "}");
            let mut fields = Vec::new();
            for seg in split_top_level(&inner, ",") {
                let mut it = seg.iter();
                match (it.next(), it.next()) {
                    (Some(nm), Some(colon)) if colon.text == ":" => {
                        let rest: Vec<&Tok> = it.copied().collect();
                        fields.push((nm.text.clone(), parse_fragment(&rest, line)));
                    }
                    (Some(nm), None) if nm.kind == TokKind::Ident => {
                        // Shorthand `Foo { x }`.
                        fields.push((
                            nm.text.clone(),
                            Expr::Path {
                                segs: vec![nm.text.clone()],
                                line,
                            },
                        ));
                    }
                    (Some(dots), _) if dots.text == ".." => {
                        let rest: Vec<&Tok> = seg.iter().skip(1).copied().collect();
                        if !rest.is_empty() {
                            fields.push(("..".to_string(), parse_fragment(&rest, line)));
                        }
                    }
                    _ => {}
                }
            }
            return Expr::StructLit { segs, fields, line };
        }
        Expr::Path { segs, line }
    }
}

/// Lookahead: does `{` open a struct literal (vs a block)? Heuristic on
/// the first meaningful tokens: `ident:`, `ident,`, `ident}`, `..`, `}`.
fn struct_lit_ahead(p: &Parser<'_>) -> bool {
    let t1 = p.peek(1);
    let t2 = p.peek(2);
    match (t1, t2) {
        (Some(a), _) if a.text == "}" || a.text == ".." => true,
        (Some(a), Some(b)) if a.kind == TokKind::Ident => {
            matches!(b.text.as_str(), ":" | "," | "}")
                && !matches!(a.text.as_str(), "if" | "match" | "let" | "return" | "while")
        }
        _ => false,
    }
}

/// Parses a detached token fragment (macro argument, call argument,
/// index) as an expression; falls back to [`Expr::Opaque`] keeping the
/// identifiers if the fragment is not a single complete expression.
fn parse_fragment(toks: &[&Tok], line: u32) -> Expr {
    let owned: Vec<Tok> = toks.iter().map(|t| clone_tok(t)).collect();
    let mut p = Parser {
        toks: &owned,
        pos: 0,
    };
    let e = p.parse_expr(0, true);
    if p.at_end() {
        e
    } else {
        Expr::Opaque {
            idents: toks
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect(),
            line: toks.first().map_or(line, |t| t.line),
        }
    }
}

fn clone_tok(t: &Tok) -> Tok {
    Tok {
        kind: t.kind,
        text: t.text.clone(),
        line: t.line,
    }
}

/// Splits `toks` at top-level occurrences of `sep` (depth over all
/// bracket kinds, with `<`/`>` excluded — they are ambiguous in
/// expression fragments and commas never appear at generic depth in the
/// fragments we split).
fn split_top_level<'a>(toks: &[&'a Tok], sep: &str) -> Vec<Vec<&'a Tok>> {
    let mut out = Vec::new();
    let mut cur: Vec<&Tok> = Vec::new();
    let mut depth = 0i64;
    let mut angle = 0i64;
    for t in toks {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if prev_is_pathish(&cur) => angle += 1,
            ">" if angle > 0 => angle -= 1,
            ">>" if angle > 1 => angle -= 2,
            _ => {}
        }
        if t.text == sep && depth <= 0 && angle <= 0 {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(t);
        }
    }
    out.push(cur);
    out
}

/// Was the previous token something a generic-argument list could follow
/// (`ident` or `::`)? Distinguishes `Vec<u8>` from `a < b`.
fn prev_is_pathish(cur: &[&Tok]) -> bool {
    cur.last()
        .is_some_and(|t| t.kind == TokKind::Ident || t.text == "::")
}

/// Extracts binding identifiers from pattern tokens: lowercase-initial
/// idents that are not keywords, not path segments (`a::b`), and not
/// struct-pattern field names followed by `:`.
fn pattern_bindings(pat: &[&Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in pat.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(first) = t.text.chars().next() else {
            continue;
        };
        if !(first.is_lowercase() || first == '_') || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next = pat.get(i + 1).map(|n| n.text.as_str());
        let prev = i
            .checked_sub(1)
            .and_then(|p| pat.get(p))
            .map(|n| n.text.as_str());
        if next == Some("::") || prev == Some("::") {
            continue;
        }
        if next == Some(":") {
            continue; // `Struct { field: binding }` — the binding follows
        }
        if t.text == "_" {
            continue;
        }
        out.push(t.text.clone());
    }
    out
}

/// Extracts `A::B[::C]` path chains referenced by pattern tokens.
fn pattern_paths(pat: &[&Tok]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut i = 0usize;
    while let Some(t) = pat.get(i) {
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            cur.push(t.text.clone());
            if pat.get(i + 1).is_some_and(|n| n.text == "::") {
                i += 2;
                continue;
            }
            if cur.len() > 1 {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        } else {
            if cur.len() > 1 {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
        i += 1;
    }
    if cur.len() > 1 {
        out.push(cur);
    }
    out
}

/// Parses a parameter list's inner tokens into [`Param`]s.
fn parse_params(inner: &[&Tok]) -> Vec<Param> {
    let mut out = Vec::new();
    for seg in split_top_level(inner, ",") {
        if seg.is_empty() {
            continue;
        }
        // Receiver forms: self / &self / &mut self / mut self /
        // self: Type.
        if seg.iter().any(|t| t.text == "self") && seg.len() <= 4 {
            out.push(Param {
                name: "self".to_string(),
                ty: "Self".to_string(),
            });
            continue;
        }
        // `pattern : type` split at the first top-level `:`.
        let mut depth = 0i64;
        let mut colon = None;
        for (i, t) in seg.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                ":" if depth <= 0 => {
                    colon = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(c) = colon else { continue };
        let pat = seg.get(..c).unwrap_or_default();
        let ty = seg.get(c + 1..).unwrap_or_default();
        let bindings = pattern_bindings(pat);
        let name = bindings.join("_");
        out.push(Param {
            name: if name.is_empty() {
                "_".to_string()
            } else {
                name
            },
            ty: join_tokens(ty.to_vec()),
        });
    }
    out
}

/// Extracts the head type name from an impl-header token run: the last
/// path segment before generics, skipping `&`/`mut`/`dyn` prefixes
/// (`fmt::Debug` → `Debug`, `&mut Vec<u8>` → `Vec`).
fn head_type_name(toks: &[&Tok]) -> Option<String> {
    let mut last = None;
    let mut i = 0;
    while let Some(&t) = toks.get(i) {
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            last = Some(t.text.clone());
            if toks.get(i + 1).is_some_and(|n| n.text == "::") {
                i += 2;
                continue;
            }
            break;
        }
        if t.kind == TokKind::Lifetime || matches!(t.text.as_str(), "&" | "mut" | "dyn" | "const") {
            i += 1;
            continue;
        }
        break;
    }
    last
}

/// Binding powers for infix operators: `(left, right, is_assignment)`.
/// Right-associativity for assignment falls out of `right < left`.
fn binop_power(op: &str) -> Option<(u8, u8, bool)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => (4, 3, true),
        "||" => (5, 6, false),
        "&&" => (7, 8, false),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (9, 10, false),
        "|" => (11, 12, false),
        "^" => (13, 14, false),
        "&" => (15, 16, false),
        "<<" | ">>" => (17, 18, false),
        "+" | "-" => (19, 20, false),
        "*" | "/" | "%" => (21, 22, false),
        _ => return None,
    })
}

/// Joins tokens into a compact type string (`& mut HmacDrbg` →
/// `&mut HmacDrbg`).
fn join_tokens(toks: Vec<&Tok>) -> String {
    let mut out = String::new();
    for t in toks {
        if !out.is_empty()
            && t.kind == TokKind::Ident
            && out
                .chars()
                .last()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

/// Is this numeric literal an integer (`42`, `0xff`, `1_000u64`) rather
/// than a float (`1.5`, `2e3`)?
fn int_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return true;
    }
    !text.contains('.') && !text.contains('e') && !text.contains('E')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).0)
    }

    fn first_fn(ast: &Ast) -> &FnDecl {
        for item in &ast.items {
            if let Item::Fn(f) = item {
                return f;
            }
        }
        panic!("no fn parsed");
    }

    #[test]
    fn fn_signature_is_captured() {
        let ast = parse_src("pub fn f(a: u32, b: &mut HmacDrbg) -> Result<u64, E> { a }");
        let f = first_fn(&ast);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, "u32");
        assert_eq!(f.params[1].ty, "&mut HmacDrbg");
        assert!(f.ret.as_deref().unwrap().contains("Result"));
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_methods_and_self_receiver() {
        let ast = parse_src(
            "impl Writer { pub fn put(&mut self, v: u8) { self.buf.push(v); } }\n\
             impl Display for Writer { fn fmt(&self) {} }",
        );
        let mut seen = Vec::new();
        for item in &ast.items {
            if let Item::Impl {
                type_name,
                trait_name,
                fns,
                ..
            } = item
            {
                seen.push((type_name.clone(), trait_name.clone(), fns.len()));
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], ("Writer".to_string(), None, 1));
        assert_eq!(
            seen[1],
            ("Writer".to_string(), Some("Display".to_string()), 1)
        );
    }

    #[test]
    fn calls_methods_and_macros_are_distinguished() {
        let ast = parse_src(
            "fn f(x: Option<u8>) { let y = x.unwrap(); helper(y); println!(\"{}\", y); }",
        );
        let f = first_fn(&ast);
        let mut methods = Vec::new();
        let mut calls = Vec::new();
        let mut macros = Vec::new();
        if let Some(b) = &f.body {
            b.walk(&mut |e| match e {
                Expr::MethodCall { name, .. } => methods.push(name.clone()),
                Expr::Call { callee, .. } => {
                    if let Expr::Path { segs, .. } = callee.as_ref() {
                        calls.push(segs.join("::"));
                    }
                }
                Expr::MacroCall { name, .. } => macros.push(name.clone()),
                _ => {}
            });
        }
        assert_eq!(methods, ["unwrap"]);
        assert_eq!(calls, ["helper"]);
        assert_eq!(macros, ["println"]);
    }

    #[test]
    fn match_arms_capture_pattern_paths() {
        let ast = parse_src(
            "fn f(e: RpcError) -> bool { match e { RpcError::Timeout { .. } => true, \
             RpcError::Server(s) => s.ok(), _ => false } }",
        );
        let f = first_fn(&ast);
        let mut found = false;
        if let Some(b) = &f.body {
            b.walk(&mut |e| {
                if let Expr::Match { arms, .. } = e {
                    found = true;
                    assert_eq!(arms.len(), 3);
                    assert_eq!(arms[0].pat_paths, vec![vec!["RpcError", "Timeout"]]);
                    assert!(arms[2].pat_paths.is_empty() && arms[2].bindings.is_empty());
                }
            });
        }
        assert!(found, "match not parsed");
    }

    #[test]
    fn tuple_let_pairs_each_binding_with_its_element() {
        let ast = parse_src(
            "fn f() { let (a, mut b) = (x, y); let (_, (c, d)) = (x, y); \
             let (e, ..) = (x, y); let (g, h) = pair(); let (i, j) = (x, y, z); }",
        );
        let f = first_fn(&ast);
        let mut pairs = Vec::new();
        if let Some(bd) = &f.body {
            bd.walk(&mut |e| {
                if let Expr::Let { flat_tuple, .. } = e {
                    let names = e
                        .tuple_let_elements()
                        .map(|it| it.map(|(b, _)| b.as_str()).collect::<Vec<_>>());
                    pairs.push((*flat_tuple, names));
                }
            });
        }
        assert_eq!(
            pairs,
            [
                (true, Some(vec!["a", "b"])),
                (false, None),
                (false, None),
                (true, None),
                (true, None)
            ]
        );
    }

    #[test]
    fn let_bindings_types_and_inits() {
        let ast = parse_src(
            "fn f() { let mut t: u32 = 1; let (a, b) = pair(); let Some(x) = opt else { return; }; }",
        );
        let f = first_fn(&ast);
        let mut lets = Vec::new();
        if let Some(bd) = &f.body {
            bd.walk(&mut |e| {
                if let Expr::Let { bindings, ty, .. } = e {
                    lets.push((bindings.clone(), ty.clone()));
                }
            });
        }
        assert_eq!(lets.len(), 3);
        assert_eq!(lets[0], (vec!["t".to_string()], Some("u32".to_string())));
        assert_eq!(lets[1].0, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(lets[2].0, vec!["x".to_string()]);
    }

    #[test]
    fn binary_and_index_and_range() {
        let ast =
            parse_src("fn f(t: u32, xs: &[u8]) -> u8 { let a = t - 1; xs[(a + 2) as usize] }");
        let f = first_fn(&ast);
        let mut saw_sub = false;
        let mut saw_index = false;
        if let Some(b) = &f.body {
            b.walk(&mut |e| match e {
                Expr::Binary { op, .. } if op == "-" => saw_sub = true,
                Expr::Index { .. } => saw_index = true,
                _ => {}
            });
        }
        assert!(saw_sub && saw_index);
    }

    #[test]
    fn struct_literal_vs_block() {
        let ast = parse_src("fn f() -> S { if cond { g(); } S { a: 1, b } }");
        let f = first_fn(&ast);
        let mut lits = 0;
        if let Some(b) = &f.body {
            b.walk(&mut |e| {
                if let Expr::StructLit { segs, fields, .. } = e {
                    lits += 1;
                    assert_eq!(segs, &vec!["S".to_string()]);
                    assert_eq!(fields.len(), 2);
                }
            });
        }
        assert_eq!(lits, 1);
    }

    #[test]
    fn struct_fields_are_typed() {
        let ast =
            parse_src("struct Policy { pub jitter_ms: u64, name: String }\nstruct T(u32, f64);");
        let mut seen = Vec::new();
        for item in &ast.items {
            if let Item::Struct { name, fields, .. } = item {
                seen.push((name.clone(), fields.clone()));
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1[0], ("jitter_ms".to_string(), "u64".to_string()));
        assert_eq!(seen[1].1[0], ("0".to_string(), "u32".to_string()));
    }

    #[test]
    fn test_gating_is_tracked() {
        let ast =
            parse_src("#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }\nfn prod() {}");
        let mut test_fns = 0;
        let mut prod_fns = 0;
        fn count(items: &[Item], under_test: bool, test_fns: &mut u32, prod_fns: &mut u32) {
            for item in items {
                match item {
                    Item::Fn(f) => {
                        if under_test || f.is_test {
                            *test_fns += 1;
                        } else {
                            *prod_fns += 1;
                        }
                    }
                    Item::Mod { items, is_test, .. } => {
                        count(items, under_test || *is_test, test_fns, prod_fns);
                    }
                    _ => {}
                }
            }
        }
        count(&ast.items, false, &mut test_fns, &mut prod_fns);
        assert_eq!(test_fns, 2);
        assert_eq!(prod_fns, 1);
    }

    #[test]
    fn closures_and_turbofish_do_not_derail() {
        let ast = parse_src(
            "fn f(v: Vec<u32>) -> Vec<u32> { v.iter().map(|x| x + 1).collect::<Vec<_>>() }",
        );
        let f = first_fn(&ast);
        let mut methods = Vec::new();
        if let Some(b) = &f.body {
            b.walk(&mut |e| {
                if let Expr::MethodCall { name, .. } = e {
                    methods.push(name.clone());
                }
            });
        }
        assert!(methods.contains(&"collect".to_string()));
        assert!(methods.contains(&"map".to_string()));
    }

    #[test]
    fn parser_is_total_on_garbage() {
        // Arbitrary token soup must neither panic nor loop forever.
        let srcs = [
            "fn f( { ) } ]",
            "impl for {}",
            "match { => , }",
            "fn g() { let = ; if { } else }",
            "}}}}((((",
        ];
        for s in srcs {
            let _ = parse_src(s);
        }
    }

    #[test]
    fn int_literal_classification() {
        assert!(int_literal("42") && int_literal("0xff") && int_literal("1_000u64"));
        assert!(!int_literal("1.5") && !int_literal("2e3"));
    }
}
