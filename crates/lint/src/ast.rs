//! A lightweight recursive-descent parser over the [`crate::lexer`]
//! token stream.
//!
//! Produces just enough structure for the rules: items (functions,
//! mods, impls, types with their derives and hash-typed fields, each
//! with its test flag), statements, and a full expression tree with
//! spans — no types beyond those fields, no patterns beyond bound
//! names. Like the
//! lexer, the parser is *total*: any token stream the lexer accepts
//! parses without panicking (fuel and depth budgets bound every loop
//! and recursion), and malformed input degrades to [`Expr::Opaque`]
//! nodes plus narrow [`ParseError`]s rather than failure. Over the
//! real workspace the error count must be zero — the workspace
//! self-test asserts it, and CI checks the `lint_all --json` report.
//!
//! Deliberate simplifications (documented false-negative boundaries):
//!
//! * types are skipped, not modeled — `as` casts keep only the operand;
//! * match/let/for patterns are reduced to their bound names (lowercase
//!   or `_` idents, in source order);
//! * match guards are skipped with the pattern;
//! * macro arguments are parsed best-effort as comma-separated
//!   expressions, with parse errors suppressed (macro input is not
//!   necessarily expression grammar), so items inside a macro call are
//!   not seen;
//! * nested items are found in modules, impls and at the top level of
//!   function bodies, not in blocks inside expressions.

use crate::lexer::{Token, TokenKind};

/// Byte span plus the position of its first token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column of the first byte.
    pub col: u32,
}

impl Span {
    /// A zero-width span at the file start.
    pub const EMPTY: Span = Span {
        start: 0,
        end: 0,
        line: 1,
        col: 1,
    };

    fn of(tok: &Token) -> Span {
        Span {
            start: tok.start,
            end: tok.end,
            line: tok.line,
            col: tok.col,
        }
    }

    fn to(self, end: Span) -> Span {
        Span {
            start: self.start,
            end: end.end.max(self.start),
            line: self.line,
            col: self.col,
        }
    }

    /// The span's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    fn contains(&self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }
}

/// One narrowly-counted parse failure.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Byte offset of the offending token (or EOF).
    pub pos: usize,
    /// 1-based line.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

/// A parsed file: top-level items plus parse errors.
#[derive(Debug)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Narrow parse failures (must be empty over the real workspace).
    pub errors: Vec<ParseError>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Whether the item's own attributes make it test code: a test
    /// attribute (`#[test]`, `#[tokio::test]`) or a `cfg` that rustc
    /// only satisfies under `--test` (`cfg(test)`, or `cfg(all(…))` with
    /// a bare `test` argument). Everything inside such an item is test
    /// code too; see [`Ast::for_each_item`].
    pub test: bool,
    /// Full span, leading attributes included.
    pub span: Span,
}

/// The kinds of [`Item`] the parser distinguishes.
#[derive(Debug)]
pub enum ItemKind {
    /// A function definition (free, impl, or trait).
    Fn(FnDef),
    /// A `mod name { … }` with its nested items.
    Mod {
        /// Module name.
        name: String,
        /// Nested items.
        items: Vec<Item>,
    },
    /// An `impl … { … }` or `trait … { … }` with its nested items.
    Impl {
        /// Nested items (mostly functions).
        items: Vec<Item>,
    },
    /// A `struct`, `enum`, or `union` definition.
    Type(TypeDef),
    /// Anything else (use, const, static, macro_rules, …).
    Other,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter binding names in order (`self` included).
    pub params: Vec<String>,
    /// Body block, `None` for trait signatures.
    pub body: Option<Block>,
}

/// A `struct`, `enum`, or `union` definition: what the hash-iteration
/// rule and the serialization taint need, not its full shape.
#[derive(Debug)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// Last path segment of each entry in the item's `#[derive(…)]`
    /// attributes (`serde::Serialize` → `Serialize`).
    pub derives: Vec<String>,
    /// Named fields whose type mentions `HashMap`/`HashSet`: the field
    /// name's span, the name, and the type's tokens joined by spaces.
    pub hash_fields: Vec<(Span, String, String)>,
}

/// A `{ … }` block.
#[derive(Debug)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT (= init)? (else { … })?;`
    Let {
        /// Bound names in pattern order (`_` included).
        pats: Vec<String>,
        /// Initializer.
        init: Option<Expr>,
        /// Full span.
        span: Span,
    },
    /// An expression statement; `semi` records the trailing `;`.
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` followed.
        semi: bool,
    },
    /// A nested item.
    Item(Item),
}

/// Binary operators the expression grammar distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// Whether the operator is a comparison.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is additive (`+`/`-`), where mixed
    /// dimensions are always an error.
    pub fn is_additive(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub)
    }

    /// Stable source text of the operator.
    pub fn text(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Literal classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal.
    Int,
    /// Float literal.
    Float,
    /// String-ish literal (str, raw str, byte str, char, byte).
    Str,
    /// `true` / `false`.
    Bool,
}

/// One expression node. Every variant carries its span.
#[derive(Debug)]
pub enum Expr {
    /// A literal.
    Lit {
        /// Literal class.
        kind: LitKind,
        /// Span (text recoverable from source).
        span: Span,
    },
    /// A (possibly qualified) path: `a::b::c`.
    Path {
        /// Segments in order (turbofish dropped).
        segs: Vec<String>,
        /// Span.
        span: Span,
    },
    /// A prefix operator: `-x`, `!x`, `*x`.
    Unary {
        /// Operator text (`-`, `!`, `*`).
        op: char,
        /// Operand.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// `&x` / `&mut x`.
    Ref {
        /// Whether `mut` follows the `&`.
        is_mut: bool,
        /// Referent.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Span of the operator token.
        op_span: Span,
        /// Full span.
        span: Span,
    },
    /// `lhs = rhs` or `lhs += rhs` (op is `Some` for compound forms).
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// The arithmetic part of a compound assign (`+` for `+=`).
        op: Option<BinOp>,
        /// Span of the operator token.
        op_span: Span,
        /// Full span.
        span: Span,
    },
    /// `x as T` (type skipped).
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A call `f(args)`.
    Call {
        /// Callee (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// A method call `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Span of the method name token.
        method_span: Span,
        /// Full span.
        span: Span,
    },
    /// Field access `x.f` (tuple indices included, e.g. `t.0`).
    Field {
        /// Base.
        base: Box<Expr>,
        /// Field name.
        name: String,
        /// Span.
        span: Span,
    },
    /// Index `x[i]`.
    Index {
        /// Base.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// `x?`.
    Try {
        /// Operand.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A closure `|params| body` / `move |params| body`.
    Closure {
        /// Parameter binding names.
        params: Vec<String>,
        /// Body.
        body: Box<Expr>,
        /// Whether `move` precedes.
        is_move: bool,
        /// Span.
        span: Span,
    },
    /// A `{ … }` block (plain, `unsafe`, `async`, `const`, labeled).
    Block(Block),
    /// `if cond { … } (else …)?`; `if let` keeps only the matched expr.
    If {
        /// Condition (for `if let`, the right-hand side).
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// Else branch: a block or another `If`.
        else_: Option<Box<Expr>>,
        /// Span.
        span: Span,
    },
    /// `match scrutinee { arms }` — arm patterns reduce to bound names.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arm bodies in order, with the pattern's bound names.
        arms: Vec<(Vec<String>, Expr)>,
        /// Span.
        span: Span,
    },
    /// `loop { … }` / `while cond { … }`.
    Loop {
        /// `while` condition (`None` for bare `loop`).
        cond: Option<Box<Expr>>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `for PAT in iter { … }`.
    For {
        /// Bound names in pattern order (`_` included).
        pats: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `return x` / `break x` / `continue`.
    Jump {
        /// `return`, `break`, or `continue`.
        kw: &'static str,
        /// Carried value.
        value: Option<Box<Expr>>,
        /// Span.
        span: Span,
    },
    /// A struct literal `Path { field: value, .. }`.
    StructLit {
        /// Path segments.
        segs: Vec<String>,
        /// `(field name, value)` pairs; shorthand fields repeat the
        /// name as a path expr; the `..base` tail is `("..", base)`.
        fields: Vec<(String, Expr)>,
        /// Span.
        span: Span,
    },
    /// A macro call `name!(…)`, args parsed best-effort.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Best-effort argument expressions.
        args: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// `lo..hi` / `lo..=hi` with optional endpoints.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// Span.
        span: Span,
    },
    /// A tuple `(a, b)`.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// An array `[a, b]` / `[x; n]`.
    Array {
        /// Elements (repeat form keeps `[x, n]`).
        elems: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// Something the parser could not model; contents skipped.
    Opaque {
        /// Span.
        span: Span,
    },
}

impl Expr {
    /// The node's span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Lit { span, .. }
            | Expr::Path { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Ref { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Try { span, .. }
            | Expr::Closure { span, .. }
            | Expr::If { span, .. }
            | Expr::Match { span, .. }
            | Expr::Loop { span, .. }
            | Expr::For { span, .. }
            | Expr::Jump { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::MacroCall { span, .. }
            | Expr::Range { span, .. }
            | Expr::Tuple { span, .. }
            | Expr::Array { span, .. }
            | Expr::Opaque { span } => *span,
            Expr::Block(b) => b.span,
        }
    }

    /// The path's last segment, if this is a bare path.
    pub fn path_last(&self) -> Option<&str> {
        match self {
            Expr::Path { segs, .. } => segs.last().map(|s| s.as_str()),
            _ => None,
        }
    }

    /// Calls `f` on every direct child expression.
    pub fn for_each_child(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Lit { .. } | Expr::Path { .. } | Expr::Opaque { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::Ref { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Try { expr, .. } => f(expr),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Call { callee, args, .. } => {
                f(callee);
                args.iter().for_each(&mut *f);
            }
            Expr::MethodCall { recv, args, .. } => {
                f(recv);
                args.iter().for_each(&mut *f);
            }
            Expr::Field { base, .. } => f(base),
            Expr::Index { base, index, .. } => {
                f(base);
                f(index);
            }
            Expr::Closure { body, .. } => f(body),
            Expr::Block(b) => walk_block_children(b, f),
            Expr::If {
                cond, then, else_, ..
            } => {
                f(cond);
                walk_block_children(then, f);
                if let Some(e) = else_ {
                    f(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                f(scrutinee);
                for (_, e) in arms {
                    f(e);
                }
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    f(c);
                }
                walk_block_children(body, f);
            }
            Expr::For { iter, body, .. } => {
                f(iter);
                walk_block_children(body, f);
            }
            Expr::Jump { value, .. } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Expr::StructLit { fields, .. } => {
                for (_, e) in fields {
                    f(e);
                }
            }
            Expr::MacroCall { args, .. } => args.iter().for_each(&mut *f),
            Expr::Range { lo, hi, .. } => {
                if let Some(l) = lo {
                    f(l);
                }
                if let Some(h) = hi {
                    f(h);
                }
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                elems.iter().for_each(&mut *f);
            }
        }
    }
}

fn walk_block_children(b: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    f(e);
                }
            }
            Stmt::Expr { expr, .. } => f(expr),
            Stmt::Item(_) => {}
        }
    }
}

/// Pre-order walk of every expression under `block`, nested items
/// excluded (they are visited by [`Ast::for_each_fn`]).
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    walk_block_children(block, &mut |e| walk_expr(e, f));
}

/// Pre-order walk of `expr` and every descendant expression.
pub fn walk_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    expr.for_each_child(&mut |c| walk_expr(c, f));
}

impl Item {
    /// The items nested directly inside this one: a module's or impl's
    /// items, and the items among a function body's statements.
    fn children(&self) -> Vec<&Item> {
        match &self.kind {
            ItemKind::Mod { items, .. } | ItemKind::Impl { items } => items.iter().collect(),
            ItemKind::Fn(d) => d
                .body
                .iter()
                .flat_map(|b| &b.stmts)
                .filter_map(|s| match s {
                    Stmt::Item(i) => Some(i),
                    _ => None,
                })
                .collect(),
            ItemKind::Type(_) | ItemKind::Other => Vec::new(),
        }
    }
}

impl Ast {
    /// Pre-order walk over every item with whether it is test code (see
    /// [`Ast::for_each_item`]), descending into an item's children only
    /// when `f` returns `true`.
    fn walk_items<'a>(&'a self, f: &mut impl FnMut(&'a Item, bool) -> bool) {
        fn rec<'a>(
            items: Vec<&'a Item>,
            in_test: bool,
            f: &mut impl FnMut(&'a Item, bool) -> bool,
        ) {
            for item in items {
                let test = in_test || item.test;
                if f(item, test) {
                    rec(item.children(), test, f);
                }
            }
        }
        rec(self.items.iter().collect(), false, f);
    }

    /// Calls `f` on every item in the file, nested ones included, with
    /// whether it is test code.
    ///
    /// This is the one definition of test code that every rule shares:
    /// an item is test code when it, or any item enclosing it, carries
    /// the [`Item::test`] flag. Scope is decided per item, so attributes
    /// on statements and expressions never change it.
    pub fn for_each_item<'a>(&'a self, f: &mut impl FnMut(&'a Item, bool)) {
        self.walk_items(&mut |item, in_test| {
            f(item, in_test);
            true
        });
    }

    /// Calls `f` on every function in the file with whether it is test
    /// code: it carries a test attribute or a test-only `cfg`, or sits
    /// inside an item that does ([`Item::test`]). A `mod tests` without
    /// `#[cfg(test)]` is library code, as it is to rustc.
    pub fn for_each_fn<'a>(&'a self, f: &mut impl FnMut(&'a FnDef, bool)) {
        self.for_each_item(&mut |item, in_test| {
            if let ItemKind::Fn(d) = &item.kind {
                f(d, in_test);
            }
        });
    }

    /// Whether byte offset `pos` is test code (it lies inside an item
    /// [`Ast::for_each_item`] reports as test code), and the innermost
    /// function whose body contains it.
    pub fn scope_at(&self, pos: usize) -> (bool, Option<&FnDef>) {
        let mut scope = (false, None);
        self.walk_items(&mut |item, in_test| {
            if !item.span.contains(pos) {
                return false;
            }
            scope.0 = in_test;
            if let ItemKind::Fn(d) = &item.kind {
                if d.body.as_ref().is_some_and(|b| b.span.contains(pos)) {
                    scope.1 = Some(d);
                }
            }
            true
        });
        scope
    }
}

const EXPR_FUEL_PER_TOKEN: usize = 64;
const MAX_DEPTH: u32 = 200;

/// Reserved words that cannot start a path segment.
fn is_reserved(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "async"
            | "await"
            | "dyn"
    )
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    i: usize,
    fuel: usize,
    depth: u32,
    errors: Vec<ParseError>,
    suppress: u32,
}

/// Parses `src` (already lexed to `tokens`) into an [`Ast`].
pub fn parse_file(src: &str, tokens: &[Token]) -> Ast {
    let toks = crate::lexer::code_tokens(tokens);
    let fuel = toks.len().saturating_mul(EXPR_FUEL_PER_TOKEN) + 1024;
    let mut p = Parser {
        src,
        toks,
        i: 0,
        fuel,
        depth: 0,
        errors: Vec::new(),
        suppress: 0,
    };
    let items = p.parse_items_until(None);
    Ast {
        items,
        errors: p.errors,
    }
}

impl<'a> Parser<'a> {
    // ----- token cursor -------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.toks.get(self.i + n)
    }

    fn text_at(&self, n: usize) -> &'a str {
        self.peek_at(n).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn cur_text(&self) -> &'a str {
        self.text_at(0)
    }

    fn cur_span(&self) -> Span {
        match self.peek() {
            Some(t) => Span::of(t),
            None => self
                .toks
                .last()
                .map(|t| Span {
                    start: t.end,
                    end: t.end,
                    line: t.line,
                    col: t.col,
                })
                .unwrap_or(Span::EMPTY),
        }
    }

    fn prev_span(&self) -> Span {
        if self.i == 0 {
            return self.cur_span();
        }
        self.toks
            .get(self.i - 1)
            .map(Span::of)
            .unwrap_or(Span::EMPTY)
    }

    fn bump(&mut self) -> Span {
        let s = self.cur_span();
        if self.i < self.toks.len() {
            self.i += 1;
        }
        s
    }

    fn at(&self, punct: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Punct && t.text(self.src) == punct)
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Ident && t.text(self.src) == kw)
    }

    fn at_any_ident(&self) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Ident)
    }

    fn eat(&mut self, punct: &str) -> bool {
        if self.at(punct) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&mut self, msg: impl Into<String>) {
        if self.suppress > 0 {
            return;
        }
        let span = self.cur_span();
        if self.errors.len() < 64 {
            self.errors.push(ParseError {
                pos: span.start,
                line: span.line,
                msg: msg.into(),
            });
        }
    }

    fn spend_fuel(&mut self) -> bool {
        if self.fuel == 0 {
            return false;
        }
        self.fuel -= 1;
        true
    }

    /// Skips tokens until the closer of the just-consumed opener,
    /// tracking all three bracket kinds. Totally safe: EOF stops it.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 1usize;
        while self.peek().is_some() && depth > 0 && self.spend_fuel() {
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skips a generic-argument list after a consumed `<`. `>>` closes
    /// two levels; `->`/`=>` are single tokens and never miscounted.
    fn skip_angles(&mut self) {
        let mut depth = 1i32;
        let (mut paren, mut brack, mut brace) = (0i32, 0i32, 0i32);
        while self.peek().is_some() && depth > 0 && self.spend_fuel() {
            let t = self.cur_text();
            match t {
                "(" => paren += 1,
                ")" => {
                    if paren == 0 {
                        return; // stray close: not our generics
                    }
                    paren -= 1;
                }
                "[" => brack += 1,
                "]" => brack = (brack - 1).max(0),
                "{" => brace += 1,
                "}" => {
                    if brace == 0 {
                        return;
                    }
                    brace -= 1;
                }
                "<" | "<<" if paren + brack + brace == 0 => {
                    depth += if t == "<<" { 2 } else { 1 };
                }
                ">" if paren + brack + brace == 0 => depth -= 1,
                ">>" if paren + brack + brace == 0 => depth -= 2,
                ";" if paren + brack + brace == 0 => return, // gave up: not generics
                _ => {}
            }
            self.bump();
        }
    }

    // ----- items --------------------------------------------------------

    /// Parses items until `close` (or EOF when `None`).
    fn parse_items_until(&mut self, close: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(_t) = self.peek() {
            if let Some(c) = close {
                if self.at(c) {
                    break;
                }
            }
            if !self.spend_fuel() {
                break;
            }
            let before = self.i;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.i == before {
                self.bump(); // always make progress
            }
        }
        items
    }

    /// Parses one item. Returns `None` for separators consumed silently.
    fn parse_item(&mut self) -> Option<Item> {
        let start = self.cur_span();
        let mut test = false;
        let mut derives = Vec::new();
        // Attributes: `#[…]` / `#![…]`. An inner attribute describes the
        // enclosing module, not the next item, so it never marks it.
        while self.at("#") {
            let save = self.i;
            self.bump();
            let inner = self.eat("!");
            if self.eat("[") {
                let first = self.i;
                self.skip_balanced("[", "]");
                let attr: Vec<&str> = self.toks[first..self.i.saturating_sub(1).max(first)]
                    .iter()
                    .map(|t| t.text(self.src))
                    .collect();
                test |= !inner && is_test_attr(&attr);
                if let ["derive", "(", list @ .., ")"] = attr.as_slice() {
                    let paths = list.split(|t| *t == ",");
                    derives.extend(paths.filter_map(|p| p.last()).map(|d| d.to_string()));
                }
            } else {
                self.i = save;
                self.bump();
                return Some(Item {
                    kind: ItemKind::Other,
                    test,
                    span: start.to(self.prev_span()),
                });
            }
        }
        let kind = self.parse_item_kind(derives)?;
        Some(Item {
            kind,
            test,
            span: start.to(self.prev_span()),
        })
    }

    /// Parses the item after its attributes; `derives` are the names its
    /// `#[derive(…)]` attributes listed.
    fn parse_item_kind(&mut self, derives: Vec<String>) -> Option<ItemKind> {
        // Visibility.
        if self.eat_kw("pub") && self.eat("(") {
            self.skip_balanced("(", ")");
        }
        // Leading modifiers shared by several item kinds.
        self.eat_kw("default");
        let const_mod =
            self.at_kw("const") && matches!(self.text_at(1), "fn" | "unsafe" | "extern" | "async");
        if const_mod {
            self.bump();
        }
        self.eat_kw("async");
        let unsafe_mod = self.at_kw("unsafe") && self.text_at(1) != "{";
        if unsafe_mod {
            self.bump();
        }
        if self.at_kw("extern") && matches!(self.peek_at(1).map(|t| t.kind), Some(TokenKind::Str)) {
            // `extern "C" fn` modifier or `extern "C" { … }` block.
            self.bump();
            self.bump();
            if self.eat("{") {
                self.skip_balanced("{", "}");
                return Some(ItemKind::Other);
            }
        }

        if self.at_kw("fn") {
            return Some(ItemKind::Fn(self.parse_fn()));
        }
        if self.at_kw("mod") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            if self.eat("{") {
                let items = self.parse_items_until(Some("}"));
                self.eat("}");
                return Some(ItemKind::Mod { name, items });
            }
            self.skip_to_semi();
            return Some(ItemKind::Other);
        }
        if self.at_kw("impl") || self.at_kw("trait") {
            self.bump();
            // Skip generics / self-type / trait bounds up to the body.
            while self.peek().is_some() && !self.at("{") && !self.at(";") && self.spend_fuel() {
                if self.eat("<") {
                    self.skip_angles();
                } else if self.eat("(") {
                    self.skip_balanced("(", ")");
                } else if self.eat("[") {
                    self.skip_balanced("[", "]");
                } else {
                    self.bump();
                }
            }
            if self.eat("{") {
                let items = self.parse_items_until(Some("}"));
                self.eat("}");
                return Some(ItemKind::Impl { items });
            }
            self.eat(";");
            return Some(ItemKind::Other);
        }
        if self.at_kw("struct") || self.at_kw("enum") || self.at_kw("union") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            let hash_fields = match self.skip_to_item_end() {
                Some((open, close)) => self.hash_fields(open, close),
                None => Vec::new(),
            };
            return Some(ItemKind::Type(TypeDef {
                name,
                derives,
                hash_fields,
            }));
        }
        if self.at_kw("macro_rules") {
            self.bump();
            self.eat("!");
            if self.at_any_ident() {
                self.bump();
            }
            if self.eat("{") {
                self.skip_balanced("{", "}");
            } else if self.eat("(") {
                self.skip_balanced("(", ")");
                self.eat(";");
            }
            return Some(ItemKind::Other);
        }
        if self.at_kw("use")
            || self.at_kw("type")
            || self.at_kw("static")
            || self.at_kw("const")
            || self.at_kw("extern")
        {
            self.bump();
            self.skip_to_semi();
            return Some(ItemKind::Other);
        }
        if self.at(";") {
            self.bump();
            return None;
        }
        // Unknown: consume one token as an opaque item.
        self.bump();
        Some(ItemKind::Other)
    }

    /// Consumes and returns the identifier at the cursor, if there is one.
    fn eat_ident(&mut self) -> Option<String> {
        let name = self.at_any_ident().then(|| self.cur_text().to_string())?;
        self.bump();
        Some(name)
    }

    /// Skips to the `;` ending a simple item, balancing brackets (for
    /// `use a::{b, c};`, const initializers, …).
    fn skip_to_semi(&mut self) {
        while self.peek().is_some() && self.spend_fuel() {
            if self.eat(";") {
                return;
            }
            if self.eat("{") {
                self.skip_balanced("{", "}");
            } else if self.eat("(") {
                self.skip_balanced("(", ")");
            } else if self.eat("[") {
                self.skip_balanced("[", "]");
            } else {
                self.bump();
            }
        }
    }

    /// Skips a struct/enum definition: to `;` (unit/tuple struct) or
    /// through the `{ … }` body, returning the body's token range with
    /// the braces excluded.
    fn skip_to_item_end(&mut self) -> Option<(usize, usize)> {
        while self.peek().is_some() && self.spend_fuel() {
            if self.eat(";") {
                return None;
            }
            if self.eat("{") {
                let open = self.i;
                self.skip_balanced("{", "}");
                return Some((open, self.i.saturating_sub(1).max(open)));
            }
            if self.eat("(") {
                self.skip_balanced("(", ")");
                // Tuple struct: `struct X(A, B);` — keep going to `;`.
                continue;
            }
            if self.eat("<") {
                self.skip_angles();
                continue;
            }
            self.bump();
        }
        None
    }

    /// The `name: Type` fields among body tokens `open..close` whose
    /// type mentions `HashMap`/`HashSet` (see [`TypeDef::hash_fields`]).
    fn hash_fields(&self, open: usize, close: usize) -> Vec<(Span, String, String)> {
        let text = |k: usize| self.toks[k].text(self.src);
        let mut out = Vec::new();
        let mut j = open;
        while j + 1 < close {
            if text(j + 1) != ":" {
                j += 1;
                continue;
            }
            // The type runs to the next `,` outside brackets.
            let mut depth = 0i32;
            let mut ty = Vec::new();
            let mut k = j + 2;
            while k < close {
                match text(k) {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    ">>" => depth -= 2,
                    "," if depth <= 0 => break,
                    _ => {}
                }
                ty.push(text(k));
                k += 1;
            }
            let ty = ty.join(" ");
            if ty.contains("HashMap") || ty.contains("HashSet") {
                out.push((Span::of(&self.toks[j]), text(j).to_string(), ty));
            }
            j = k;
        }
        out
    }

    fn parse_fn(&mut self) -> FnDef {
        self.bump(); // `fn`
        let name = self.eat_ident().unwrap_or_else(|| {
            self.error("expected function name");
            String::new()
        });
        if self.eat("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.eat("(") {
            params = self.parse_param_names();
        }
        // Return type and where clause: skip to body or `;`.
        while self.peek().is_some() && !self.at("{") && !self.at(";") && self.spend_fuel() {
            if self.eat("<") {
                self.skip_angles();
            } else if self.eat("(") {
                self.skip_balanced("(", ")");
            } else if self.eat("[") {
                self.skip_balanced("[", "]");
            } else {
                self.bump();
            }
        }
        let body = if self.at("{") {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnDef { name, params, body }
    }

    /// Collects parameter binding names after a consumed `(`.
    fn parse_param_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 1i32;
        let mut seen_colon = false;
        while self.peek().is_some() && depth > 0 && self.spend_fuel() {
            let t = self.cur_text();
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 1 => seen_colon = false,
                ":" if depth == 1 => seen_colon = true,
                "<" if depth == 1 && seen_colon => {
                    self.bump();
                    self.skip_angles();
                    continue;
                }
                _ => {
                    if !seen_colon
                        && depth == 1
                        && self.at_any_ident()
                        && !matches!(t, "mut" | "ref" | "box")
                        && binds(t)
                    {
                        names.push(t.to_string());
                    }
                }
            }
            if depth > 0 {
                self.bump();
            }
        }
        self.bump(); // closing `)`
        names
    }

    // ----- blocks and statements ----------------------------------------

    fn parse_block(&mut self) -> Block {
        let start = self.cur_span();
        self.bump(); // `{`
        let mut stmts = Vec::new();
        while self.peek().is_some() && !self.at("}") {
            if !self.spend_fuel() {
                break;
            }
            let before = self.i;
            self.parse_stmt(&mut stmts);
            if self.i == before {
                self.bump();
            }
        }
        if !self.eat("}") {
            self.error("unclosed block at end of file");
        }
        Block {
            stmts,
            span: start.to(self.prev_span()),
        }
    }

    fn parse_stmt(&mut self, out: &mut Vec<Stmt>) {
        if self.at(";") {
            self.bump();
            return;
        }
        if self.at_kw("let") {
            let start = self.cur_span();
            self.bump();
            let pats = self.collect_pat_names(&["=", ";"]);
            let init = if self.eat("=") {
                Some(self.parse_expr(true))
            } else {
                None
            };
            // let-else.
            if self.at_kw("else") {
                self.bump();
                if self.at("{") {
                    let _ = self.parse_block();
                }
            }
            self.eat(";");
            out.push(Stmt::Let {
                pats,
                init,
                span: start.to(self.prev_span()),
            });
            return;
        }
        if self.stmt_starts_item() {
            if let Some(item) = self.parse_item() {
                out.push(Stmt::Item(item));
            }
            return;
        }
        let expr = self.parse_expr(true);
        let semi = self.eat(";");
        out.push(Stmt::Expr { expr, semi });
    }

    /// Whether the statement at the cursor is an item, looking *past*
    /// any leading attributes without consuming them (`#[allow(…)]` can
    /// precede expressions too). `const`/`unsafe` are only items when
    /// not starting a block expression.
    fn stmt_starts_item(&self) -> bool {
        let mut j = self.i;
        loop {
            let hash = self
                .toks
                .get(j)
                .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == "#");
            let brack = self
                .toks
                .get(j + 1)
                .is_some_and(|t| t.text(self.src) == "[");
            if !(hash && brack) {
                break;
            }
            j += 2;
            let mut depth = 1usize;
            while depth > 0 {
                let Some(t) = self.toks.get(j) else {
                    return false;
                };
                match t.text(self.src) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let at = |n: usize| {
            self.toks
                .get(j + n)
                .filter(|t| t.kind == TokenKind::Ident || t.kind == TokenKind::Punct)
                .map(|t| t.text(self.src))
                .unwrap_or("")
        };
        match at(0) {
            "fn" | "mod" | "impl" | "struct" | "enum" | "trait" | "use" | "static" | "type"
            | "macro_rules" | "union" | "pub" => true,
            "extern" => at(1) != "{",
            "const" => at(1) != "{",
            "unsafe" => matches!(at(1), "fn" | "impl" | "trait" | "extern"),
            _ => false,
        }
    }

    /// Collects binding names (lowercase idents and `_`) from a pattern,
    /// stopping at any of `stops` at bracket depth 0.
    fn collect_pat_names(&mut self, stops: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while self.peek().is_some() && self.spend_fuel() {
            let t = self.cur_text();
            if depth == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "<" => {
                    // Qualified pattern path generics.
                    self.bump();
                    self.skip_angles();
                    continue;
                }
                ":" => {
                    // Type ascription: skip the type up to a stop or `,`.
                    self.bump();
                    self.skip_pat_type(stops, depth);
                    continue;
                }
                _ => {
                    let next = self.text_at(1);
                    if self.at_any_ident()
                        && binds(t)
                        && !matches!(t, "mut" | "ref" | "box")
                        && next != "::"
                        && next != "!"
                    {
                        names.push(t.to_string());
                    }
                }
            }
            self.bump();
        }
        names
    }

    /// Skips a type in pattern position until `,` at the given depth or
    /// one of `stops` at depth 0.
    fn skip_pat_type(&mut self, stops: &[&str], base_depth: i32) {
        let mut depth = base_depth;
        while self.peek().is_some() && self.spend_fuel() {
            let t = self.cur_text();
            if depth == base_depth && (t == "," || (depth == 0 && stops.contains(&t))) {
                return;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == base_depth {
                        return;
                    }
                    depth -= 1;
                }
                "<" => {
                    self.bump();
                    self.skip_angles();
                    continue;
                }
                _ => {}
            }
            self.bump();
        }
    }

    // ----- expressions --------------------------------------------------

    fn parse_expr(&mut self, struct_lit: bool) -> Expr {
        self.parse_assign(struct_lit)
    }

    fn parse_assign(&mut self, struct_lit: bool) -> Expr {
        let lhs = self.parse_range(struct_lit);
        let op = if self.at("=") {
            Some(None)
        } else {
            let compound = match self.cur_text() {
                "+=" => Some(BinOp::Add),
                "-=" => Some(BinOp::Sub),
                "*=" => Some(BinOp::Mul),
                "/=" => Some(BinOp::Div),
                "%=" => Some(BinOp::Rem),
                "&=" => Some(BinOp::BitAnd),
                "|=" => Some(BinOp::BitOr),
                "^=" => Some(BinOp::BitXor),
                "<<=" => Some(BinOp::Shl),
                ">>=" => Some(BinOp::Shr),
                _ => None,
            };
            if self
                .peek()
                .is_some_and(|t| t.kind == TokenKind::Punct && compound.is_some())
            {
                Some(compound)
            } else {
                None
            }
        };
        if let Some(op) = op {
            let op_span = self.bump();
            let rhs = self.parse_assign(struct_lit);
            let span = lhs.span().to(rhs.span());
            return Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                op,
                op_span,
                span,
            };
        }
        lhs
    }

    fn parse_range(&mut self, struct_lit: bool) -> Expr {
        // Prefix range handled in atom; here: `lo..`, `lo..=hi`, `lo..hi`.
        let lo = self.parse_binary(0, struct_lit);
        if self.at("..") || self.at("..=") {
            let start = lo.span();
            self.bump();
            let hi = if self.expr_can_start() {
                Some(Box::new(self.parse_binary(0, struct_lit)))
            } else {
                None
            };
            let end = hi.as_ref().map(|h| h.span()).unwrap_or(self.prev_span());
            return Expr::Range {
                lo: Some(Box::new(lo)),
                hi,
                span: start.to(end),
            };
        }
        lo
    }

    fn bin_op(&self) -> Option<(BinOp, u8)> {
        let op = match self.cur_text() {
            "||" => (BinOp::Or, 1),
            "&&" => (BinOp::And, 2),
            "==" => (BinOp::Eq, 3),
            "!=" => (BinOp::Ne, 3),
            "<" => (BinOp::Lt, 3),
            "<=" => (BinOp::Le, 3),
            ">" => (BinOp::Gt, 3),
            ">=" => (BinOp::Ge, 3),
            "|" => (BinOp::BitOr, 4),
            "^" => (BinOp::BitXor, 5),
            "&" => (BinOp::BitAnd, 6),
            "<<" => (BinOp::Shl, 7),
            ">>" => (BinOp::Shr, 7),
            "+" => (BinOp::Add, 8),
            "-" => (BinOp::Sub, 8),
            "*" => (BinOp::Mul, 9),
            "/" => (BinOp::Div, 9),
            "%" => (BinOp::Rem, 9),
            _ => return None,
        };
        if self.peek().is_some_and(|t| t.kind == TokenKind::Punct) {
            Some(op)
        } else {
            None
        }
    }

    fn parse_binary(&mut self, min_bp: u8, struct_lit: bool) -> Expr {
        if self.depth >= MAX_DEPTH || !self.spend_fuel() {
            let span = self.bump();
            return Expr::Opaque { span };
        }
        self.depth += 1;
        let mut lhs = self.parse_unary(struct_lit);
        loop {
            // `as` cast binds tighter than any binary operator.
            if self.at_kw("as") {
                self.bump();
                self.skip_type(false);
                let span = lhs.span().to(self.prev_span());
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    span,
                };
                continue;
            }
            let Some((op, bp)) = self.bin_op() else { break };
            if bp < min_bp {
                break;
            }
            // Comparison chains (`a < b < c`) are not valid Rust; treat
            // comparisons as left-assoc anyway (total, never stuck).
            let op_span = self.bump();
            let rhs = self.parse_binary(bp + 1, struct_lit);
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                op_span,
                span,
            };
        }
        self.depth -= 1;
        lhs
    }

    fn parse_unary(&mut self, struct_lit: bool) -> Expr {
        let start = self.cur_span();
        if self.at("-") || self.at("!") || self.at("*") {
            let op = self.cur_text().chars().next().unwrap_or('-');
            self.bump();
            let expr = self.parse_unary(struct_lit);
            let span = start.to(expr.span());
            return Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            };
        }
        if self.at("&") || self.at("&&") {
            let double = self.at("&&");
            self.bump();
            let is_mut = self.eat_kw("mut");
            let inner = self.parse_unary(struct_lit);
            let span = start.to(inner.span());
            let one = Expr::Ref {
                is_mut,
                expr: Box::new(inner),
                span,
            };
            return if double {
                Expr::Ref {
                    is_mut: false,
                    expr: Box::new(one),
                    span,
                }
            } else {
                one
            };
        }
        if self.at("..") || self.at("..=") {
            self.bump();
            let hi = if self.expr_can_start() {
                Some(Box::new(self.parse_binary(1, struct_lit)))
            } else {
                None
            };
            let end = hi.as_ref().map(|h| h.span()).unwrap_or(start);
            return Expr::Range {
                lo: None,
                hi,
                span: start.to(end),
            };
        }
        self.parse_postfix(struct_lit)
    }

    fn parse_postfix(&mut self, struct_lit: bool) -> Expr {
        let mut e = self.parse_atom(struct_lit);
        loop {
            if !self.spend_fuel() {
                break;
            }
            if self.at(".") {
                self.bump();
                if self.at_kw("await") {
                    let end = self.bump();
                    let span = e.span().to(end);
                    e = Expr::Opaque { span };
                    continue;
                }
                if matches!(self.peek().map(|t| t.kind), Some(TokenKind::Num { .. })) {
                    // Tuple index (`t.0`, possibly lexed as `0.1`).
                    let name = self.cur_text().to_string();
                    let end = self.bump();
                    let span = e.span().to(end);
                    e = Expr::Field {
                        base: Box::new(e),
                        name,
                        span,
                    };
                    continue;
                }
                if self.at_any_ident() {
                    let method = self.cur_text().to_string();
                    let method_span = self.bump();
                    if self.at("::") {
                        // Turbofish: `x.collect::<Vec<_>>()`.
                        self.bump();
                        if self.eat("<") {
                            self.skip_angles();
                        }
                    }
                    if self.eat("(") {
                        let args = self.parse_call_args();
                        let span = e.span().to(self.prev_span());
                        e = Expr::MethodCall {
                            recv: Box::new(e),
                            method,
                            args,
                            method_span,
                            span,
                        };
                    } else {
                        let span = e.span().to(method_span);
                        e = Expr::Field {
                            base: Box::new(e),
                            name: method,
                            span,
                        };
                    }
                    continue;
                }
                self.error("expected field or method after `.`");
                continue;
            }
            if self.at("?") {
                let end = self.bump();
                let span = e.span().to(end);
                e = Expr::Try {
                    expr: Box::new(e),
                    span,
                };
                continue;
            }
            if self.at("(") && e.callable() {
                self.bump();
                let args = self.parse_call_args();
                let span = e.span().to(self.prev_span());
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    span,
                };
                continue;
            }
            if self.at("[") && e.callable() {
                self.bump();
                let index = self.parse_expr(true);
                self.eat("]");
                let span = e.span().to(self.prev_span());
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    span,
                };
                continue;
            }
            break;
        }
        e
    }

    /// Parses `)`-terminated comma-separated call arguments after a
    /// consumed `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        while self.peek().is_some() && !self.at(")") {
            if !self.spend_fuel() {
                break;
            }
            let before = self.i;
            args.push(self.parse_expr(true));
            if self.i == before {
                self.bump();
            }
            if !self.eat(",") {
                break;
            }
        }
        self.eat(")");
        args
    }

    /// Whether the current token could begin an expression (used for
    /// optional range endpoints and `return`/`break` values).
    fn expr_can_start(&self) -> bool {
        let Some(t) = self.peek() else { return false };
        match t.kind {
            TokenKind::Ident => {
                let s = t.text(self.src);
                !matches!(
                    s,
                    "as" | "else" | "in" | "where" | "mut" | "let" | "const" | "fn" | "impl"
                )
            }
            TokenKind::Num { .. }
            | TokenKind::Str
            | TokenKind::RawStr
            | TokenKind::ByteStr
            | TokenKind::RawByteStr
            | TokenKind::Char
            | TokenKind::Byte
            | TokenKind::Lifetime => true,
            TokenKind::Punct => matches!(
                t.text(self.src),
                "(" | "["
                    | "{"
                    | "-"
                    | "!"
                    | "*"
                    | "&"
                    | "&&"
                    | "|"
                    | "||"
                    | ".."
                    | "..="
                    | "<"
                    | "#"
            ),
            _ => false,
        }
    }

    fn parse_atom(&mut self, struct_lit: bool) -> Expr {
        if self.depth >= MAX_DEPTH || !self.spend_fuel() {
            let span = self.bump();
            return Expr::Opaque { span };
        }
        let start = self.cur_span();
        let Some(tok) = self.peek() else {
            self.error("expected expression, found end of file");
            return Expr::Opaque { span: start };
        };
        match tok.kind {
            TokenKind::Num { float } => {
                self.bump();
                Expr::Lit {
                    kind: if float { LitKind::Float } else { LitKind::Int },
                    span: start,
                }
            }
            TokenKind::Str
            | TokenKind::RawStr
            | TokenKind::ByteStr
            | TokenKind::RawByteStr
            | TokenKind::Char
            | TokenKind::Byte => {
                self.bump();
                Expr::Lit {
                    kind: LitKind::Str,
                    span: start,
                }
            }
            TokenKind::Lifetime => {
                // Loop label: `'a: loop { … }`.
                self.bump();
                self.eat(":");
                self.parse_atom(struct_lit)
            }
            TokenKind::Ident => self.parse_ident_atom(struct_lit),
            TokenKind::Punct => self.parse_punct_atom(struct_lit),
            TokenKind::Unknown
            | TokenKind::Shebang
            | TokenKind::LineComment { .. }
            | TokenKind::BlockComment { .. } => {
                self.error("expected expression");
                let span = self.bump();
                Expr::Opaque { span }
            }
        }
    }

    fn parse_punct_atom(&mut self, struct_lit: bool) -> Expr {
        let start = self.cur_span();
        if self.at("(") {
            self.bump();
            let mut elems = Vec::new();
            let mut trailing_comma = false;
            while self.peek().is_some() && !self.at(")") {
                if !self.spend_fuel() {
                    break;
                }
                let before = self.i;
                elems.push(self.parse_expr(true));
                if self.i == before {
                    self.bump();
                }
                trailing_comma = self.eat(",");
                if !trailing_comma {
                    break;
                }
            }
            self.eat(")");
            let span = start.to(self.prev_span());
            if elems.len() == 1 && !trailing_comma {
                return elems.pop().expect("len checked");
            }
            return Expr::Tuple { elems, span };
        }
        if self.at("[") {
            self.bump();
            let mut elems = Vec::new();
            while self.peek().is_some() && !self.at("]") {
                if !self.spend_fuel() {
                    break;
                }
                let before = self.i;
                elems.push(self.parse_expr(true));
                if self.i == before {
                    self.bump();
                }
                if !self.eat(",") && !self.eat(";") {
                    break;
                }
            }
            self.eat("]");
            let span = start.to(self.prev_span());
            return Expr::Array { elems, span };
        }
        if self.at("{") {
            return Expr::Block(self.parse_block());
        }
        if self.at("|") || self.at("||") {
            return self.parse_closure(false, start);
        }
        if self.at("<") {
            // Qualified path: `<T as Trait>::method(…)`.
            self.bump();
            self.skip_angles();
            if self.eat("::") {
                return self.parse_path_tail(start, struct_lit, Vec::new());
            }
            let span = start.to(self.prev_span());
            return Expr::Opaque { span };
        }
        if self.at("#") {
            // Expression attribute (`#[cfg(…)] expr` in arrays/args).
            self.bump();
            if self.eat("[") {
                self.skip_balanced("[", "]");
            }
            return self.parse_atom(struct_lit);
        }
        self.error(format!("expected expression, found `{}`", self.cur_text()));
        let span = self.bump();
        Expr::Opaque { span }
    }

    fn parse_ident_atom(&mut self, struct_lit: bool) -> Expr {
        let start = self.cur_span();
        let text = self.cur_text();
        match text {
            "true" | "false" => {
                self.bump();
                Expr::Lit {
                    kind: LitKind::Bool,
                    span: start,
                }
            }
            "if" => self.parse_if(start),
            "match" => self.parse_match(start),
            "loop" => {
                self.bump();
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    self.empty_block()
                };
                let span = start.to(self.prev_span());
                Expr::Loop {
                    cond: None,
                    body,
                    span,
                }
            }
            "while" => {
                self.bump();
                let cond = if self.eat_kw("let") {
                    self.collect_pat_names(&["="]);
                    self.eat("=");
                    self.parse_expr(false)
                } else {
                    self.parse_expr(false)
                };
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    self.empty_block()
                };
                let span = start.to(self.prev_span());
                Expr::Loop {
                    cond: Some(Box::new(cond)),
                    body,
                    span,
                }
            }
            "for" => {
                self.bump();
                let pats = self.collect_pat_names(&["in"]);
                self.eat_kw("in");
                let iter = self.parse_expr(false);
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    self.empty_block()
                };
                let span = start.to(self.prev_span());
                Expr::For {
                    pats,
                    iter: Box::new(iter),
                    body,
                    span,
                }
            }
            "unsafe" | "async" | "const" | "try" => {
                self.bump();
                self.eat_kw("move");
                if self.at("{") {
                    let b = self.parse_block();
                    return Expr::Block(b);
                }
                if self.at("|") || self.at("||") {
                    return self.parse_closure(false, start);
                }
                self.error("expected block");
                Expr::Opaque { span: start }
            }
            "move" => {
                self.bump();
                if self.at("|") || self.at("||") {
                    return self.parse_closure(true, start);
                }
                if self.at("{") {
                    // `async move { … }` already consumed `async`.
                    return Expr::Block(self.parse_block());
                }
                self.error("expected closure after `move`");
                Expr::Opaque { span: start }
            }
            "return" | "break" | "continue" => {
                let kw = match text {
                    "return" => "return",
                    "break" => "break",
                    _ => "continue",
                };
                self.bump();
                if matches!(self.peek().map(|t| t.kind), Some(TokenKind::Lifetime)) {
                    self.bump(); // break/continue 'label
                }
                let value = if kw != "continue" && self.expr_can_start() && !self.at("{") {
                    Some(Box::new(self.parse_expr(struct_lit)))
                } else {
                    None
                };
                let end = value.as_ref().map(|v| v.span()).unwrap_or(start);
                Expr::Jump {
                    kw,
                    value,
                    span: start.to(end),
                }
            }
            "let" => {
                // `let`-condition inside `if`/`while` chains.
                self.bump();
                self.collect_pat_names(&["="]);
                self.eat("=");
                self.parse_binary(2, false)
            }
            _ if is_reserved(text) => {
                self.error(format!("expected expression, found keyword `{text}`"));
                let span = self.bump();
                Expr::Opaque { span }
            }
            _ => {
                let seg = text.trim_start_matches("r#").to_string();
                self.bump();
                self.parse_path_tail(start, struct_lit, vec![seg])
            }
        }
    }

    /// Continues a path after its first segment: `::seg`, turbofish,
    /// macro bang, struct literal.
    fn parse_path_tail(&mut self, start: Span, struct_lit: bool, mut segs: Vec<String>) -> Expr {
        while self.at("::") && self.spend_fuel() {
            self.bump();
            if self.eat("<") {
                self.skip_angles();
                continue;
            }
            if self.at_any_ident() {
                segs.push(self.cur_text().trim_start_matches("r#").to_string());
                self.bump();
            } else {
                break;
            }
        }
        if self.at("!") && !matches!(self.text_at(1), "=") {
            // Macro call.
            self.bump();
            let name = segs.last().cloned().unwrap_or_default();
            let args = if self.eat("(") {
                self.parse_macro_args(")")
            } else if self.eat("[") {
                self.parse_macro_args("]")
            } else if self.eat("{") {
                self.parse_macro_args("}")
            } else {
                Vec::new()
            };
            let span = start.to(self.prev_span());
            return Expr::MacroCall { name, args, span };
        }
        if struct_lit && self.at("{") && self.looks_like_struct_lit() {
            return self.parse_struct_lit(start, segs);
        }
        let span = start.to(self.prev_span());
        Expr::Path { segs, span }
    }

    /// After `Path` with the cursor on `{`: does this look like a struct
    /// literal body (`ident:`, `ident,`, `ident}`, `..`, `}`)?
    fn looks_like_struct_lit(&self) -> bool {
        let t1 = self.text_at(1);
        if t1 == "}" || t1 == ".." {
            return true;
        }
        let is_ident = matches!(self.peek_at(1).map(|t| t.kind), Some(TokenKind::Ident));
        is_ident && matches!(self.text_at(2), ":" | "," | "}")
    }

    fn parse_struct_lit(&mut self, start: Span, segs: Vec<String>) -> Expr {
        self.bump(); // `{`
        let mut fields = Vec::new();
        while self.peek().is_some() && !self.at("}") {
            if !self.spend_fuel() {
                break;
            }
            if self.at("..") {
                self.bump();
                let base = self.parse_expr(true);
                fields.push(("..".to_string(), base));
                break;
            }
            let before = self.i;
            if self.at_any_ident() {
                let name = self.cur_text().to_string();
                let name_span = self.bump();
                if self.eat(":") {
                    let value = self.parse_expr(true);
                    fields.push((name, value));
                } else {
                    // Shorthand: `Foo { joules }`.
                    let value = Expr::Path {
                        segs: vec![name.clone()],
                        span: name_span,
                    };
                    fields.push((name, value));
                }
            }
            if self.i == before {
                self.bump();
            }
            if !self.eat(",") {
                break;
            }
        }
        self.eat("}");
        let span = start.to(self.prev_span());
        Expr::StructLit { segs, fields, span }
    }

    /// Best-effort macro arguments after a consumed opener: parse each
    /// comma chunk as an expression with errors suppressed, skipping to
    /// the next top-level comma regardless of where parsing stopped.
    fn parse_macro_args(&mut self, close: &str) -> Vec<Expr> {
        let open = match close {
            ")" => "(",
            "]" => "[",
            _ => "{",
        };
        let mut args = Vec::new();
        self.suppress += 1;
        while self.peek().is_some() && !self.at(close) {
            if !self.spend_fuel() {
                break;
            }
            let before = self.i;
            args.push(self.parse_expr(true));
            // Skip to the next top-level comma or the closer.
            let mut depth = 0i32;
            while self.peek().is_some() && self.spend_fuel() {
                let t = self.cur_text();
                if depth == 0 && (t == "," || t == close) {
                    break;
                }
                match t {
                    _ if t == open || t == "(" || t == "[" || t == "{" => depth += 1,
                    _ if t == ")" || t == "]" || t == "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
                self.bump();
            }
            if self.i == before {
                self.bump();
            }
            if !self.eat(",") {
                break;
            }
        }
        self.suppress -= 1;
        if !self.eat(close) {
            // Unbalanced macro body: drain to EOF safely.
            self.skip_balanced(open, close);
        }
        args
    }

    fn parse_closure(&mut self, is_move: bool, start: Span) -> Expr {
        let mut params = Vec::new();
        if self.eat("||") {
            // Zero-parameter closure.
        } else if self.eat("|") {
            params = self.collect_pat_names(&["|"]);
            self.eat("|");
        }
        if self.at("->") {
            self.bump();
            self.skip_type(true);
        }
        let body = self.parse_expr(true);
        let span = start.to(body.span());
        Expr::Closure {
            params,
            body: Box::new(body),
            is_move,
            span,
        }
    }

    fn parse_if(&mut self, start: Span) -> Expr {
        self.bump(); // `if`
        let cond = if self.eat_kw("let") {
            self.collect_pat_names(&["="]);
            self.eat("=");
            self.parse_expr(false)
        } else {
            self.parse_expr(false)
        };
        let then = if self.at("{") {
            self.parse_block()
        } else {
            self.error("expected block after `if` condition");
            self.empty_block()
        };
        let else_ = if self.eat_kw("else") {
            if self.at_kw("if") {
                let s = self.cur_span();
                Some(Box::new(self.parse_if(s)))
            } else if self.at("{") {
                Some(Box::new(Expr::Block(self.parse_block())))
            } else {
                self.error("expected block after `else`");
                None
            }
        } else {
            None
        };
        let span = start.to(self.prev_span());
        Expr::If {
            cond: Box::new(cond),
            then,
            else_,
            span,
        }
    }

    fn parse_match(&mut self, start: Span) -> Expr {
        self.bump(); // `match`
        let scrutinee = self.parse_expr(false);
        let mut arms = Vec::new();
        if self.eat("{") {
            while self.peek().is_some() && !self.at("}") {
                if !self.spend_fuel() {
                    break;
                }
                let before = self.i;
                let pats = self.collect_pat_names(&["=>"]);
                if self.eat("=>") {
                    let body = self.parse_expr(true);
                    arms.push((pats, body));
                }
                self.eat(",");
                if self.i == before {
                    self.bump();
                }
            }
            self.eat("}");
        } else {
            self.error("expected `{` after match scrutinee");
        }
        let span = start.to(self.prev_span());
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            span,
        }
    }

    /// Skips one type, conservatively: prefix sigils (`&`, `*const`,
    /// `dyn`, `impl`), then a bracketed type or a path. `allow_angles`
    /// controls whether a trailing `<…>` belongs to the type (closure
    /// return position) or to the expression (`x as usize < y` is a
    /// comparison — generic cast targets are a documented false
    /// negative there).
    fn skip_type(&mut self, allow_angles: bool) {
        loop {
            if !self.spend_fuel() {
                return;
            }
            if self.at("&") || self.at("&&") {
                self.bump();
                if matches!(self.peek().map(|t| t.kind), Some(TokenKind::Lifetime)) {
                    self.bump();
                }
                self.eat_kw("mut");
                continue;
            }
            if self.at("*") && matches!(self.text_at(1), "const" | "mut") {
                self.bump();
                self.bump();
                continue;
            }
            if self.at_kw("dyn") || self.at_kw("impl") {
                self.bump();
                continue;
            }
            break;
        }
        if self.eat("(") {
            self.skip_balanced("(", ")");
            return;
        }
        if self.eat("[") {
            self.skip_balanced("[", "]");
            return;
        }
        if self.at_kw("fn") {
            self.bump();
            if self.eat("(") {
                self.skip_balanced("(", ")");
            }
            if self.eat("->") {
                self.skip_type(allow_angles);
            }
            return;
        }
        if !self.at_any_ident() || is_reserved(self.cur_text()) {
            return;
        }
        self.bump();
        while self.at("::") && self.spend_fuel() {
            self.bump();
            if self.eat("<") {
                self.skip_angles();
                continue;
            }
            if self.at_any_ident() {
                self.bump();
            } else {
                break;
            }
        }
        if allow_angles && self.eat("<") {
            self.skip_angles();
        }
    }

    fn empty_block(&self) -> Block {
        Block {
            stmts: Vec::new(),
            span: self.cur_span(),
        }
    }
}

impl Expr {
    /// Whether a following `(`/`[` continues this expression (block-like
    /// expressions end statements instead).
    fn callable(&self) -> bool {
        !matches!(
            self,
            Expr::If { .. }
                | Expr::Match { .. }
                | Expr::Loop { .. }
                | Expr::For { .. }
                | Expr::Block(_)
                | Expr::Jump { .. }
                | Expr::StructLit { .. }
                | Expr::Closure { .. }
                | Expr::Range { .. }
        )
    }
}

/// Whether `ident` is a plausible binding name in a pattern: `_`, or a
/// lowercase-initial identifier (enum variants and types are CamelCase
/// by convention, which the workspace's clippy gate enforces).
fn binds(ident: &str) -> bool {
    let s = ident.trim_start_matches("r#");
    s == "_"
        || s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && !is_reserved(s)
}

/// Whether an attribute, given as its tokens between `#[` and `]`, makes
/// its item test code: `#[test]`, `#[tokio::test…]`, `#[cfg(test)]`, or
/// `#[cfg(all(…))]` with a bare `test` argument — the items rustc only
/// compiles for tests. `not(test)`, `any(test, …)` and `cfg_attr(test,
/// …)` do not qualify.
fn is_test_attr(attr: &[&str]) -> bool {
    match attr {
        ["test"] | ["tokio", "::", "test", ..] | ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ .., ")", ")"] => {
            let mut depth = 0;
            args.iter().enumerate().any(|(k, t)| {
                match *t {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                depth == 0
                    && *t == "test"
                    && (k == 0 || args[k - 1] == ",")
                    && args.get(k + 1).is_none_or(|n| *n == ",")
            })
        }
        _ => false,
    }
}

// ----- span validation and dumping --------------------------------------

/// Checks every span in the AST: within bounds, on char boundaries,
/// ordered, and contained in the parent. Returns human-readable
/// violations (empty = valid).
pub fn validate_spans(ast: &Ast, src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |span: Span, what: &str, parent: Option<Span>| {
        if span.start > span.end {
            out.push(format!("{what}: start {} > end {}", span.start, span.end));
        }
        if span.end > src.len() {
            out.push(format!("{what}: end {} > len {}", span.end, src.len()));
        }
        if !src.is_char_boundary(span.start.min(src.len()))
            || !src.is_char_boundary(span.end.min(src.len()))
        {
            out.push(format!("{what}: span not on char boundary"));
        }
        if let Some(p) = parent {
            if span.start < p.start || span.end > p.end {
                out.push(format!(
                    "{what}: child {}..{} escapes parent {}..{}",
                    span.start, span.end, p.start, p.end
                ));
            }
        }
    };
    fn collect_block(b: &Block, parent: Span, exprs: &mut Vec<(Span, Span)>) {
        walk_block(b, &mut |e| {
            exprs.push((e.span(), parent));
            e.for_each_child(&mut |c| {
                exprs.push((c.span(), e.span()));
            });
        });
    }
    let mut exprs = Vec::new();
    ast.for_each_item(&mut |item, _| match &item.kind {
        ItemKind::Fn(d) => {
            check(item.span, "fn", None);
            if let Some(b) = &d.body {
                check(b.span, "fn body", Some(item.span));
                collect_block(b, b.span, &mut exprs);
            }
        }
        ItemKind::Mod { .. } => check(item.span, "mod", None),
        ItemKind::Impl { .. } => check(item.span, "impl", None),
        ItemKind::Type(_) | ItemKind::Other => check(item.span, "item", None),
    });
    for (span, parent) in exprs {
        check(span, "expr", Some(parent));
    }
    out
}

/// A stable, indented dump of the AST for golden tests.
pub fn dump(ast: &Ast, src: &str) -> String {
    let mut out = String::new();
    for item in &ast.items {
        dump_item(item, src, 0, &mut out);
    }
    if !ast.errors.is_empty() {
        out.push_str(&format!("errors: {}\n", ast.errors.len()));
    }
    out
}

fn pad(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn dump_item(item: &Item, src: &str, ind: usize, out: &mut String) {
    pad(ind, out);
    match &item.kind {
        ItemKind::Fn(d) => {
            out.push_str(&format!(
                "fn {}({}){}\n",
                d.name,
                d.params.join(", "),
                if item.test { " #[test]" } else { "" }
            ));
            if let Some(b) = &d.body {
                dump_block(b, src, ind + 1, out);
            }
        }
        ItemKind::Mod { name, items } => {
            out.push_str(&format!(
                "mod {name}{}\n",
                if item.test { " #[cfg(test)]" } else { "" }
            ));
            for i in items {
                dump_item(i, src, ind + 1, out);
            }
        }
        ItemKind::Impl { items } => {
            out.push_str("impl\n");
            for i in items {
                dump_item(i, src, ind + 1, out);
            }
        }
        ItemKind::Type(_) | ItemKind::Other => {
            let text = item.span.text(src);
            let head: String = text
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ");
            let head: String = head.chars().take(40).collect();
            out.push_str(&format!("item `{head}`\n"));
        }
    }
}

fn dump_block(b: &Block, src: &str, ind: usize, out: &mut String) {
    pad(ind, out);
    out.push_str("block\n");
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { pats, init, .. } => {
                pad(ind + 1, out);
                out.push_str(&format!("let [{}]\n", pats.join(", ")));
                if let Some(e) = init {
                    dump_expr(e, src, ind + 2, out);
                }
            }
            Stmt::Expr { expr, semi } => {
                pad(ind + 1, out);
                out.push_str(if *semi { "stmt\n" } else { "tail\n" });
                dump_expr(expr, src, ind + 2, out);
            }
            Stmt::Item(i) => dump_item(i, src, ind + 1, out),
        }
    }
}

fn dump_expr(e: &Expr, src: &str, ind: usize, out: &mut String) {
    pad(ind, out);
    let label = match e {
        Expr::Lit { kind, span } => format!("lit {:?} `{}`", kind, span.text(src)),
        Expr::Path { segs, .. } => format!("path {}", segs.join("::")),
        Expr::Unary { op, .. } => format!("unary {op}"),
        Expr::Ref { is_mut, .. } => format!("ref{}", if *is_mut { " mut" } else { "" }),
        Expr::Binary { op, .. } => format!("binary {}", op.text()),
        Expr::Assign { op, .. } => match op {
            Some(o) => format!("assign {}=", o.text()),
            None => "assign =".to_string(),
        },
        Expr::Cast { .. } => "cast".to_string(),
        Expr::Call { .. } => "call".to_string(),
        Expr::MethodCall { method, .. } => format!("method .{method}"),
        Expr::Field { name, .. } => format!("field .{name}"),
        Expr::Index { .. } => "index".to_string(),
        Expr::Try { .. } => "try".to_string(),
        Expr::Closure {
            params, is_move, ..
        } => format!(
            "closure{} [{}]",
            if *is_move { " move" } else { "" },
            params.join(", ")
        ),
        Expr::Block(_) => "blockexpr".to_string(),
        Expr::If { .. } => "if".to_string(),
        Expr::Match { .. } => "match".to_string(),
        Expr::Loop { cond, .. } => {
            if cond.is_some() {
                "while".to_string()
            } else {
                "loop".to_string()
            }
        }
        Expr::For { pats, .. } => format!("for [{}]", pats.join(", ")),
        Expr::Jump { kw, .. } => (*kw).to_string(),
        Expr::StructLit { segs, fields, .. } => format!(
            "structlit {} {{{}}}",
            segs.join("::"),
            fields
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Expr::MacroCall { name, .. } => format!("macro {name}!"),
        Expr::Range { .. } => "range".to_string(),
        Expr::Tuple { .. } => "tuple".to_string(),
        Expr::Array { .. } => "array".to_string(),
        Expr::Opaque { .. } => "opaque".to_string(),
    };
    out.push_str(&label);
    out.push('\n');
    match e {
        Expr::Block(b) => {
            for stmt in &b.stmts {
                dump_block_stmt(stmt, src, ind + 1, out);
            }
        }
        Expr::If {
            cond, then, else_, ..
        } => {
            dump_expr(cond, src, ind + 1, out);
            dump_block(then, src, ind + 1, out);
            if let Some(el) = else_ {
                dump_expr(el, src, ind + 1, out);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            dump_expr(scrutinee, src, ind + 1, out);
            for (pats, body) in arms {
                pad(ind + 1, out);
                out.push_str(&format!("arm [{}]\n", pats.join(", ")));
                dump_expr(body, src, ind + 2, out);
            }
        }
        Expr::Loop { cond, body, .. } => {
            if let Some(c) = cond {
                dump_expr(c, src, ind + 1, out);
            }
            dump_block(body, src, ind + 1, out);
        }
        Expr::For { iter, body, .. } => {
            dump_expr(iter, src, ind + 1, out);
            dump_block(body, src, ind + 1, out);
        }
        _ => {
            e.for_each_child(&mut |c| dump_expr(c, src, ind + 1, out));
        }
    }
}

fn dump_block_stmt(stmt: &Stmt, src: &str, ind: usize, out: &mut String) {
    match stmt {
        Stmt::Let { pats, init, .. } => {
            pad(ind, out);
            out.push_str(&format!("let [{}]\n", pats.join(", ")));
            if let Some(e) = init {
                dump_expr(e, src, ind + 1, out);
            }
        }
        Stmt::Expr { expr, semi } => {
            pad(ind, out);
            out.push_str(if *semi { "stmt\n" } else { "tail\n" });
            dump_expr(expr, src, ind + 1, out);
        }
        Stmt::Item(i) => dump_item(i, src, ind, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Ast {
        parse_file(src, &lex(src))
    }

    #[test]
    fn parses_simple_fn_with_expressions() {
        let ast =
            parse("fn f(a: f64, b: f64) -> f64 {\n    let c = a * b + 1.0;\n    c.max(0.0)\n}\n");
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        assert_eq!(ast.items.len(), 1);
        let ItemKind::Fn(f) = &ast.items[0].kind else {
            panic!("expected fn");
        };
        assert_eq!(f.name, "f");
        assert_eq!(f.params, vec!["a", "b"]);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(&body.stmts[0], Stmt::Let { pats, .. } if pats == &["c"]));
        assert!(matches!(
            body.stmts.last(),
            Some(Stmt::Expr { expr: Expr::MethodCall { method, .. }, semi: false }) if method == "max"
        ));
    }

    #[test]
    fn parses_control_flow_closures_and_struct_lits() {
        let src = r#"
fn g(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for (i, x) in xs.iter().enumerate() {
        if *x > 0.0 {
            total += x * (i as f64);
        } else if *x < -1.0 {
            total -= 1.0;
        }
    }
    let f = move |y: f64| y + total;
    let p = Point { x: 1.0, y: f(2.0) };
    match p.x {
        v if v > 0.0 => v,
        _ => 0.0,
    }
}
"#;
        let ast = parse(src);
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        let violations = validate_spans(&ast, src);
        assert!(violations.is_empty(), "{violations:?}");
        let d = dump(&ast, src);
        assert!(d.contains("for [i, x]"), "{d}");
        assert!(d.contains("closure move [y]"), "{d}");
        assert!(d.contains("structlit Point {x, y}"), "{d}");
    }

    #[test]
    fn never_loses_spans_on_garbage() {
        for src in [
            "fn f( {",
            "fn f() { let = ; }",
            "impl } {",
            "fn f() { a +  }",
            "fn f() { ((((((((((",
            "match",
            "fn f() { x.  }",
        ] {
            let ast = parse(src);
            let violations = validate_spans(&ast, src);
            assert!(violations.is_empty(), "{src:?}: {violations:?}");
        }
    }

    #[test]
    fn macro_args_parse_without_error_noise() {
        let ast = parse("fn f() { assert_eq!(a + b, c, \"msg {}\", d); let v = vec![1, 2, 3]; }");
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        let src = "fn f() { matches!(x, Some(_) | None) }";
        let ast = parse(src);
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
    }

    #[test]
    fn test_attrs_and_cfg_test_mods_are_detected() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n}\n";
        let ast = parse(src);
        let mut found = Vec::new();
        ast.for_each_fn(&mut |f, in_test| found.push((f.name.clone(), in_test)));
        assert_eq!(found, vec![("t".to_string(), true)]);
    }

    /// Every function with whether it is test code, in source order.
    fn fns_of(ast: &Ast) -> Vec<(&FnDef, bool)> {
        let mut fns = Vec::new();
        ast.for_each_fn(&mut |f, in_test| fns.push((f, in_test)));
        fns
    }

    #[test]
    fn finds_fns_and_bodies() {
        let ast = parse("pub fn alpha(x: u32) -> u32 { x + 1 }\nfn beta();\n");
        let fns = fns_of(&ast);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].0.name, "alpha");
        assert!(fns[0].0.body.is_some());
        assert_eq!(fns[1].0.name, "beta");
        assert!(fns[1].0.body.is_none());
    }

    #[test]
    fn marks_cfg_test_regions() {
        let ast = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        let fns = fns_of(&ast);
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].1);
        assert!(fns[1].1, "helper is inside #[cfg(test)]");
    }

    #[test]
    fn marks_test_attr_fns() {
        let ast = parse("#[test]\nfn check() { assert!(true); }\nfn lib() {}\n");
        let fns = fns_of(&ast);
        assert!(fns[0].1);
        assert!(!fns[1].1);
    }

    #[test]
    fn captures_derives_and_hash_fields() {
        let src = "#[derive(Debug, Serialize)]\npub struct S {\n    pub m: HashMap<String, u32>,\n    n: u32,\n}\n";
        let ast = parse(src);
        let mut types = Vec::new();
        ast.for_each_item(&mut |item, _| {
            if let ItemKind::Type(t) = &item.kind {
                types.push(t);
            }
        });
        assert_eq!(types.len(), 1);
        let t = types[0];
        assert_eq!(t.name, "S");
        assert!(t.derives.iter().any(|d| d == "Serialize"));
        assert_eq!(t.hash_fields.len(), 1);
        assert_eq!(t.hash_fields[0].0.line, 3, "field line");
    }

    #[test]
    fn generic_fn_with_angle_brackets_gets_right_body() {
        let src = "fn g<T: Into<String>>(t: T) -> String { t.into() }";
        let ast = parse(src);
        let fns = fns_of(&ast);
        assert_eq!(fns.len(), 1);
        let body = fns[0].0.body.as_ref().expect("has body");
        assert!(body.span.start < body.span.end);
        assert_eq!(body.span.text(src), "{ t.into() }");
    }

    #[test]
    fn scope_at_gives_test_code_and_the_innermost_fn() {
        let src = "fn outer() { fn inner() { 1 } 2 }\n#[cfg(test)]\nmod m { fn t() { 3 } }\n";
        let ast = parse(src);
        let at = |needle: &str| {
            let (test, f) = ast.scope_at(src.find(needle).expect("needle in src"));
            (test, f.map(|f| f.name.as_str()))
        };
        assert_eq!(at("1"), (false, Some("inner")));
        assert_eq!(at("2"), (false, Some("outer")));
        assert_eq!(at("3"), (true, Some("t")));
        assert_eq!(
            at("outer"),
            (false, None),
            "a signature is outside every body"
        );
    }
}
