//! A small JavaScript engine: lexer, parser, name resolution,
//! tree-walking interpreter.
//!
//! §4.1 of the paper: "JavaScript codes are much more complex than HTML or
//! CSS codes, and there is no simple approach to find out if they will
//! generate new data transmission without executing them." So the
//! energy-aware browser *executes* scripts during the transmission phase —
//! and this module is the interpreter that makes that meaningful: the
//! corpus scripts build their fetch URLs with string concatenation inside
//! loops, and only evaluation reveals them.
//!
//! The language subset: `var`, `function`/`return`, `if`/`else`, `while`,
//! numbers, strings, booleans, arithmetic, comparison, assignment, string
//! concatenation, and the host API `loadImage(url)`, `loadScript(url)`,
//! `document.write(html)`.
//!
//! Before running, [`execute`] resolves the parsed program once: every
//! variable reference becomes a frame slot and a global slot, every call
//! target a builtin or a function-table index, and every function body a
//! shared pointer. The interpreter then indexes vectors instead of
//! hashing names, and charges one op per statement and per expression
//! node. A `while` loop whose condition and body are arithmetic (with
//! calls to functions that only `return` arithmetic) is compiled at each
//! entry to an `f64` register file with those calls inlined, and charges
//! each iteration's op count in one step. All of it keeps the scoping
//! rules and the operation count of a name-keyed walk that charges node
//! by node (see `interp.rs`).
//!
//! Safety: execution is bounded by an operation budget (gas), so arbitrary
//! input — including infinite loops — always terminates.

mod ast;
mod interp;
mod lexer;

pub use ast::{parse_program, Expr, ParseError, Program, Stmt};
pub use interp::{execute, JsEffect, JsOutcome, DEFAULT_GAS};
pub use lexer::{lex, JsToken};
