//! The interpreter: resolves a parsed program once, then walks it with
//! host effects and an operation budget.
//!
//! Resolution turns every name into indices before anything runs. A
//! variable reference becomes its slot in the enclosing scope's frame (if
//! that scope ever declares the name) plus its slot in the program-wide
//! globals; a call target becomes a builtin or a function-table index;
//! a function body becomes a shared [`Rc`]. Execution then
//! indexes `Vec`s: no name is hashed or cloned and no body is copied, so
//! no per-operation cost grows with the number of distinct names.
//!
//! The walk charges one op per statement and one per expression node, as
//! the name-keyed walk does. A `while` loop whose condition is
//! arithmetic (number literals and variables under `+ - * / %` and unary
//! `-`, with at most one comparison, at its root) and whose body only
//! assigns arithmetic, or the result of calling a function whose whole
//! body is `return <arithmetic>`, runs in the numeric loop tier: at each
//! entry its pieces and its callees' returned expressions are compiled
//! from the resolved tree into one `f64` register file and one
//! instruction list, and each iteration charges its static op count in
//! one step. Guards at entry, a whole-step gas rule and a write-back
//! before any hand-over keep `ops`, the gas outcome, the effects and
//! every value those of the walk (see [`Interp::numeric_loop`]).
//!
//! The scoping rules are those of the name-keyed interpreter this
//! replaces:
//!
//! * A name is local to a scope (the top level or one function call)
//!   only as a parameter, or once its `var` has run in that scope.
//! * A read takes the local if bound, else the global if bound, else
//!   `undefined`. An assignment writes the local if bound, else the
//!   global. So top-level `var`s are invisible inside functions.
//! * `loadImage`, `loadScript` and `document.write` are builtins and win
//!   over a user function of the same name.
//! * Top-level function declarations are hoisted; every declaration also
//!   registers when it runs, and the latest registration wins. Calling a
//!   name no declaration has registered yields `undefined`, after its
//!   arguments are evaluated.
//! * A parameter binds the argument at its position (`undefined` if
//!   missing); with duplicate parameter names the last one wins.

use super::ast::{parse_program, Expr, Stmt};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A side effect a script asked the browser for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsEffect {
    /// `loadImage(url)` — fetch an image.
    LoadImage(String),
    /// `loadScript(url)` — fetch and execute another script.
    LoadScript(String),
    /// `document.write(html)` — inject markup (which may reference more
    /// resources).
    DocumentWrite(String),
}

/// The result of executing a script.
#[derive(Debug, Clone, PartialEq)]
pub struct JsOutcome {
    /// Host effects, in execution order.
    pub effects: Vec<JsEffect>,
    /// Interpreter operations executed (work accounting).
    pub ops: u64,
    /// Tokens lexed (work accounting).
    pub tokens: usize,
    /// Source bytes (work accounting).
    pub bytes: usize,
    /// Whether the source parsed; a `false` outcome has no effects.
    pub parse_ok: bool,
    /// Whether the operation budget was exhausted (runaway script).
    pub hit_gas_limit: bool,
}

/// Default operation budget per script.
pub const DEFAULT_GAS: u64 = 2_000_000;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
    Undefined,
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            // lint:allow(api/float-eq) ECMA ToBoolean: only exact +/-0 and NaN are falsy
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
            Value::Undefined => false,
        }
    }

    fn to_num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            Value::Str(s) => s.parse().unwrap_or(f64::NAN),
            Value::Bool(true) => 1.0,
            Value::Bool(false) => 0.0,
            Value::Undefined => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JS-style number printing: integers without a decimal point,
            // which is what makes `base + i + ".jpg"` produce "dyn0.jpg".
            Value::Num(n) => {
                // lint:allow(api/float-eq) fract() of a mathematical integer is exactly 0.0
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Undefined => f.write_str("undefined"),
        }
    }
}

enum Flow {
    Normal,
    Return(Value),
    OutOfGas,
}

/// Why an expression stopped: the budget ran out, or the call depth
/// limit was hit (reported the same way).
struct OutOfGas;

const MAX_CALL_DEPTH: usize = 64;

/// A resolved variable reference.
#[derive(Clone, Copy)]
struct Var {
    /// Slot in the enclosing scope's frame, if the scope declares the
    /// name as a parameter or `var`.
    local: Option<usize>,
    /// Slot in the program-wide globals.
    global: usize,
}

/// A binary operator, resolved from its source text.
#[derive(Clone, Copy)]
enum BinOp {
    Arith(Arith),
    Cmp(Cmp),
    /// Text the parser never produces; evaluates to `undefined`.
    Other,
}

impl BinOp {
    fn resolve(op: &str) -> BinOp {
        match op {
            "+" => BinOp::Arith(Arith::Add),
            "-" => BinOp::Arith(Arith::Sub),
            "*" => BinOp::Arith(Arith::Mul),
            "/" => BinOp::Arith(Arith::Div),
            "%" => BinOp::Arith(Arith::Rem),
            "<" => BinOp::Cmp(Cmp::Lt),
            ">" => BinOp::Cmp(Cmp::Gt),
            "<=" => BinOp::Cmp(Cmp::Le),
            ">=" => BinOp::Cmp(Cmp::Ge),
            "==" => BinOp::Cmp(Cmp::Eq),
            "!=" => BinOp::Cmp(Cmp::Ne),
            _ => BinOp::Other,
        }
    }
}

/// An arithmetic operator: on numbers, a number.
#[derive(Clone, Copy)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl Arith {
    fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            Arith::Add => l + r,
            Arith::Sub => l - r,
            Arith::Mul => l * r,
            Arith::Div => l / r,
            Arith::Rem => l % r,
        }
    }
}

/// A comparison operator: on numbers, a boolean.
#[derive(Clone, Copy)]
enum Cmp {
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

impl Cmp {
    fn test(self, l: f64, r: f64) -> bool {
        match self {
            Cmp::Lt => l < r,
            Cmp::Gt => l > r,
            Cmp::Le => l <= r,
            Cmp::Ge => l >= r,
            // `js_eq` on two numbers.
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
        }
    }
}

/// A resolved call target.
#[derive(Clone, Copy)]
enum Callee {
    /// A host builtin; the effect it records from its first argument.
    Builtin(fn(String) -> JsEffect),
    /// An index into the function table. A name no declaration has
    /// registered (yet) has an empty entry.
    Function(usize),
}

/// A unary operator, resolved from its source text.
#[derive(Clone, Copy)]
enum UnOp {
    Neg,
    Not,
    /// Text the parser never produces; evaluates to `undefined`.
    Other,
}

impl UnOp {
    fn resolve(op: &str) -> UnOp {
        match op {
            "-" => UnOp::Neg,
            "!" => UnOp::Not,
            _ => UnOp::Other,
        }
    }
}

/// [`Expr`] with its names resolved, node for node.
enum RExpr {
    Num(f64),
    Str(String),
    Bool(bool),
    Var(Var),
    Binary {
        op: BinOp,
        left: Box<RExpr>,
        right: Box<RExpr>,
    },
    Unary {
        op: UnOp,
        operand: Box<RExpr>,
    },
    Assign {
        var: Var,
        value: Box<RExpr>,
    },
    Call {
        callee: Callee,
        args: Vec<RExpr>,
    },
}

/// One register instruction: `regs[dst] = regs[a] op regs[b]`; `Neg`
/// and `Copy` use `a` only (their `b` is `a`).
#[derive(Clone, Copy)]
struct Instr {
    op: Op,
    dst: usize,
    a: usize,
    b: usize,
}

#[derive(Clone, Copy)]
enum Op {
    Arith(Arith),
    Neg,
    Copy,
}

/// Runs register instructions in order.
fn run(code: &[Instr], regs: &mut [f64]) {
    for i in code {
        let (a, b) = (regs[i.a], regs[i.b]);
        regs[i.dst] = match i.op {
            Op::Arith(op) => op.apply(a, b),
            Op::Neg => -a,
            Op::Copy => a,
        };
    }
}

/// Where a loop condition leaves its value: a register, or the root
/// comparison of that register with a second one.
#[derive(Clone, Copy)]
struct Out {
    result: usize,
    cmp: Option<(Cmp, usize)>,
}

impl Out {
    fn value(self, regs: &[f64]) -> Value {
        match self.cmp {
            Some((cmp, right)) => Value::Bool(cmp.test(regs[self.result], regs[right])),
            None => Value::Num(regs[self.result]),
        }
    }
}

/// [`Stmt`] with its names resolved.
enum RStmt {
    VarDecl {
        slot: usize,
        init: Option<RExpr>,
    },
    Expr(RExpr),
    If {
        cond: RExpr,
        then_branch: Vec<RStmt>,
        else_branch: Vec<RStmt>,
    },
    While {
        cond: RExpr,
        body: Vec<RStmt>,
    },
    FunctionDecl {
        index: usize,
        function: Rc<Function>,
    },
    Return(Option<RExpr>),
}

/// One resolved function declaration.
struct Function {
    /// Frame slot of each parameter, in order.
    params: Vec<usize>,
    /// Slots in a call's frame: distinct parameter and `var` names.
    frame_len: usize,
    body: Vec<RStmt>,
}

/// A resolved program: the top-level scope plus table sizes.
struct Resolved {
    body: Vec<RStmt>,
    frame_len: usize,
    globals: usize,
    functions: usize,
}

/// Program-wide name tables built during resolution.
#[derive(Default)]
struct Resolver<'p> {
    globals: HashMap<&'p str, usize>,
    functions: HashMap<&'p str, usize>,
}

fn resolve(statements: &[Stmt]) -> Resolved {
    let mut r = Resolver::default();
    let mut frame = HashMap::new();
    declare_vars(statements, &mut frame);
    let body = r.block(statements, &frame);
    Resolved {
        body,
        frame_len: frame.len(),
        globals: r.globals.len(),
        functions: r.functions.len(),
    }
}

/// Gives `name` the next slot in `table` unless it has one.
fn intern<'p>(table: &mut HashMap<&'p str, usize>, name: &'p str) -> usize {
    let next = table.len();
    *table.entry(name).or_insert(next)
}

/// Adds every `var` name of one scope's statements to its frame, without
/// entering nested function bodies (each call has its own frame).
fn declare_vars<'p>(statements: &'p [Stmt], frame: &mut HashMap<&'p str, usize>) {
    for stmt in statements {
        match stmt {
            Stmt::VarDecl { name, .. } => {
                intern(frame, name);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                declare_vars(then_branch, frame);
                declare_vars(else_branch, frame);
            }
            Stmt::While { body, .. } => declare_vars(body, frame),
            Stmt::Expr(_) | Stmt::FunctionDecl { .. } | Stmt::Return(_) => {}
        }
    }
}

impl<'p> Resolver<'p> {
    fn block(&mut self, statements: &'p [Stmt], frame: &HashMap<&'p str, usize>) -> Vec<RStmt> {
        statements.iter().map(|s| self.stmt(s, frame)).collect()
    }

    fn stmt(&mut self, stmt: &'p Stmt, frame: &HashMap<&'p str, usize>) -> RStmt {
        match stmt {
            Stmt::VarDecl { name, init } => RStmt::VarDecl {
                slot: frame[name.as_str()],
                init: init.as_ref().map(|e| self.expr(e, frame)),
            },
            Stmt::Expr(e) => RStmt::Expr(self.expr(e, frame)),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => RStmt::If {
                cond: self.expr(cond, frame),
                then_branch: self.block(then_branch, frame),
                else_branch: self.block(else_branch, frame),
            },
            Stmt::While { cond, body } => RStmt::While {
                cond: self.expr(cond, frame),
                body: self.block(body, frame),
            },
            Stmt::FunctionDecl { name, params, body } => {
                let mut own = HashMap::new();
                let params = params.iter().map(|p| intern(&mut own, p)).collect();
                declare_vars(body, &mut own);
                let body = self.block(body, &own);
                RStmt::FunctionDecl {
                    index: intern(&mut self.functions, name),
                    function: Rc::new(Function {
                        params,
                        frame_len: own.len(),
                        body,
                    }),
                }
            }
            Stmt::Return(value) => RStmt::Return(value.as_ref().map(|e| self.expr(e, frame))),
        }
    }

    fn var(&mut self, name: &'p str, frame: &HashMap<&'p str, usize>) -> Var {
        Var {
            local: frame.get(name).copied(),
            global: intern(&mut self.globals, name),
        }
    }

    fn expr(&mut self, expr: &'p Expr, frame: &HashMap<&'p str, usize>) -> RExpr {
        match expr {
            Expr::Num(v) => RExpr::Num(*v),
            Expr::Str(s) => RExpr::Str(s.clone()),
            Expr::Bool(b) => RExpr::Bool(*b),
            Expr::Var(name) => RExpr::Var(self.var(name, frame)),
            Expr::Binary { op, left, right } => RExpr::Binary {
                op: BinOp::resolve(op),
                left: Box::new(self.expr(left, frame)),
                right: Box::new(self.expr(right, frame)),
            },
            Expr::Unary { op, operand } => RExpr::Unary {
                op: UnOp::resolve(op),
                operand: Box::new(self.expr(operand, frame)),
            },
            Expr::Assign { name, value } => RExpr::Assign {
                var: self.var(name, frame),
                value: Box::new(self.expr(value, frame)),
            },
            Expr::Call { target, args } => {
                let callee = match target.as_str() {
                    "loadImage" => Callee::Builtin(JsEffect::LoadImage),
                    "loadScript" => Callee::Builtin(JsEffect::LoadScript),
                    "document.write" => Callee::Builtin(JsEffect::DocumentWrite),
                    name => Callee::Function(intern(&mut self.functions, name)),
                };
                RExpr::Call {
                    callee,
                    args: args.iter().map(|a| self.expr(a, frame)).collect(),
                }
            }
        }
    }
}

/// Where a variable the numeric loop tier loaded lives.
#[derive(Clone, Copy, PartialEq)]
enum Home {
    /// An absolute stack slot.
    Local(usize),
    Global(usize),
}

/// The scope an expression is compiled into a loop from.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// The loop's own scope, whose frame starts at this base.
    Loop(usize),
    /// An inlined callee with distinct parameters: parameter slot `s`
    /// reads the register at `args[s]`.
    Callee(&'a [usize]),
}

/// A numeric loop linked for one entry: its register file and its
/// code, the condition's instructions first. Every literal, variable
/// slot and operator has a register of its own, and every operator one
/// instruction, in evaluation order. The buffers are reused from entry
/// to entry.
#[derive(Default)]
struct Tier {
    regs: Vec<f64>,
    code: Vec<Instr>,
    /// Every variable loaded, and its register; written back on exit.
    homes: Vec<(Home, usize)>,
}

impl Tier {
    /// Appends `op` on the registers `a` and `b` into a fresh register,
    /// and returns it.
    fn emit(&mut self, op: Op, a: usize, b: usize) -> usize {
        let dst = self.regs.len();
        self.regs.push(0.0);
        self.code.push(Instr { op, dst, a, b });
        dst
    }
}

/// What one linked entry of a numeric loop charges and tests.
struct Linked {
    /// Instructions of the condition, at the start of `Tier::code`.
    cond_len: usize,
    cond: Out,
    /// Ops the condition charges.
    cond_ops: u64,
    /// Ops one iteration charges: the condition and the body.
    step_ops: u64,
}

#[cfg(test)]
thread_local! {
    /// Numeric loop entries whose guards passed, and the ops their
    /// iterations charged, on this thread.
    static TIERED: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

struct Interp {
    globals: Vec<Option<Value>>,
    /// The latest registered declaration of each function name.
    functions: Vec<Option<Rc<Function>>>,
    /// Call frames and pending arguments. The running scope's frame
    /// starts at the `base` its statements execute with; `None` marks an
    /// unbound local.
    stack: Vec<Option<Value>>,
    effects: Vec<JsEffect>,
    gas: u64,
    ops: u64,
    call_depth: usize,
    tier: Tier,
}

/// Parses and executes `source` with the given operation budget
/// (`None` = [`DEFAULT_GAS`]).
pub fn execute(source: &str, gas: Option<u64>) -> JsOutcome {
    let bytes = source.len();
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(_) => {
            return JsOutcome {
                effects: Vec::new(),
                ops: 0,
                tokens: 0,
                bytes,
                parse_ok: false,
                hit_gas_limit: false,
            }
        }
    };
    let resolved = resolve(&program.statements);
    let mut interp = Interp {
        globals: vec![None; resolved.globals],
        functions: vec![None; resolved.functions],
        stack: vec![None; resolved.frame_len],
        effects: Vec::new(),
        gas: gas.unwrap_or(DEFAULT_GAS),
        ops: 0,
        call_depth: 0,
        tier: Tier::default(),
    };
    // Hoist top-level function declarations.
    for stmt in &resolved.body {
        if let RStmt::FunctionDecl { index, function } = stmt {
            interp.functions[*index] = Some(Rc::clone(function));
        }
    }
    // A top-level `return` ends the script like running out of statements.
    let hit_gas_limit = matches!(interp.exec_block(&resolved.body, 0), Flow::OutOfGas);
    JsOutcome {
        effects: interp.effects,
        ops: interp.ops,
        tokens: program.tokens,
        bytes,
        parse_ok: true,
        hit_gas_limit,
    }
}

impl Interp {
    /// Charges one operation. The charge that finds the budget empty
    /// still counts.
    fn charge(&mut self) -> Result<(), OutOfGas> {
        self.ops += 1;
        if self.gas == 0 {
            return Err(OutOfGas);
        }
        self.gas -= 1;
        Ok(())
    }

    /// Runs `statements` in the frame at `base`, stopping at the first
    /// non-normal flow.
    fn exec_block(&mut self, statements: &[RStmt], base: usize) -> Flow {
        for s in statements {
            match self.exec(s, base) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec(&mut self, stmt: &RStmt, base: usize) -> Flow {
        if self.charge().is_err() {
            return Flow::OutOfGas;
        }
        match stmt {
            RStmt::VarDecl { slot, init } => {
                let value = match init {
                    Some(e) => match self.eval(e, base) {
                        Ok(v) => v,
                        Err(OutOfGas) => return Flow::OutOfGas,
                    },
                    None => Value::Undefined,
                };
                self.stack[base + slot] = Some(value);
                Flow::Normal
            }
            RStmt::Expr(e) => match self.eval(e, base) {
                Ok(_) => Flow::Normal,
                Err(OutOfGas) => Flow::OutOfGas,
            },
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = match self.eval(cond, base) {
                    Ok(v) => v,
                    Err(OutOfGas) => return Flow::OutOfGas,
                };
                let branch = if c.truthy() { then_branch } else { else_branch };
                self.exec_block(branch, base)
            }
            RStmt::While { cond, body } => {
                if self.numeric_loop(cond, body, base) {
                    return Flow::Normal;
                }
                loop {
                    let c = match self.eval(cond, base) {
                        Ok(v) => v,
                        Err(OutOfGas) => return Flow::OutOfGas,
                    };
                    if !c.truthy() {
                        return Flow::Normal;
                    }
                    match self.exec_block(body, base) {
                        Flow::Normal => {}
                        other => return other,
                    }
                }
            }
            RStmt::FunctionDecl { index, function } => {
                // Hoisting already registered top-level declarations;
                // nested ones register here, and the latest one wins.
                self.functions[*index] = Some(Rc::clone(function));
                Flow::Normal
            }
            RStmt::Return(value) => {
                let v = match value {
                    Some(e) => match self.eval(e, base) {
                        Ok(v) => v,
                        Err(OutOfGas) => return Flow::OutOfGas,
                    },
                    None => Value::Undefined,
                };
                Flow::Return(v)
            }
        }
    }

    fn eval(&mut self, expr: &RExpr, base: usize) -> Result<Value, OutOfGas> {
        self.charge()?;
        match expr {
            RExpr::Num(v) => Ok(Value::Num(*v)),
            RExpr::Str(s) => Ok(Value::Str(s.clone())),
            RExpr::Bool(b) => Ok(Value::Bool(*b)),
            RExpr::Var(var) => Ok(self.read(*var, base).cloned().unwrap_or(Value::Undefined)),
            RExpr::Assign { var, value } => {
                let v = self.eval(value, base)?;
                // Assignment updates the local binding if it exists;
                // otherwise it writes the global (JS semantics, simplified).
                match var.local.map(|s| &mut self.stack[base + s]) {
                    Some(slot @ Some(_)) => *slot = Some(v.clone()),
                    _ => self.globals[var.global] = Some(v.clone()),
                }
                Ok(v)
            }
            RExpr::Unary { op, operand } => {
                let v = self.eval(operand, base)?;
                Ok(unary(*op, &v))
            }
            RExpr::Binary { op, left, right } => {
                let l = self.eval(left, base)?;
                let r = self.eval(right, base)?;
                Ok(binary(*op, &l, &r))
            }
            RExpr::Call { callee, args } => {
                // Arguments wait on the stack above the caller's frame.
                let args_base = self.stack.len();
                for a in args {
                    let v = self.eval(a, base)?;
                    self.stack.push(Some(v));
                }
                let result = self.call(*callee, args_base);
                self.stack.truncate(args_base);
                result
            }
        }
    }

    /// The bound value of `var`: the local if bound, else the global.
    fn read(&self, var: Var, base: usize) -> Option<&Value> {
        let local = var.local.and_then(|s| self.stack[base + s].as_ref());
        local.or(self.globals[var.global].as_ref())
    }

    /// Runs the `while` loop `cond`/`body` in the numeric loop tier, its
    /// `while` statement already charged. Returns `true` once the loop
    /// has ended there, and `false` with every variable as the walk would
    /// have left it, for the walk to go on at the condition.
    ///
    /// The loop is compiled at every entry if its condition is arithmetic
    /// and every body statement assigns arithmetic (no comparison), or
    /// the result of a call whose argument expressions are such
    /// arithmetic. The guards at entry: every variable the loop, and its
    /// callees' returned expressions, read or write holds a number in the
    /// slot the walk would use (the local if bound, else the global); the
    /// registered declaration of each callee has distinct parameters, one
    /// per argument, and a body of `return <arithmetic>` alone; and the
    /// call depth is below [`MAX_CALL_DEPTH`]. The body then assigns only
    /// numbers, registers no function and calls no deeper, so the guards
    /// hold for the whole loop and the iterations run on registers.
    ///
    /// One iteration charges what the walk charges: the condition's
    /// nodes; then, per statement, 2 + the value's nodes for arithmetic,
    /// or 4 + the arguments' nodes + the returned nodes for a call (the
    /// statement, the assignment, the call and the `return`). It runs
    /// only while the gas covers a whole iteration, so the budget never
    /// runs out inside the tier; a final condition that fails charges
    /// only its own nodes. When the gas is short the registers are
    /// written back; a failed guard has written no slot. Either way the
    /// walk, charging node by node, takes over at the condition.
    fn numeric_loop(&mut self, cond: &RExpr, body: &[RStmt], base: usize) -> bool {
        if self.call_depth >= MAX_CALL_DEPTH {
            return false;
        }
        let mut tier = std::mem::take(&mut self.tier);
        let done = match self.link(&mut tier, cond, body, base) {
            Some(linked) => self.run_tier(&mut tier, &linked),
            None => false,
        };
        self.tier = tier;
        done
    }

    /// Compiles one entry of a numeric loop into `t`, loading every
    /// variable it touches, or returns `None` if the loop's shape or a
    /// guard rules the tier out.
    fn link(&self, t: &mut Tier, cond: &RExpr, body: &[RStmt], base: usize) -> Option<Linked> {
        t.regs.clear();
        t.code.clear();
        t.homes.clear();
        let (cond, cond_ops) = self.condition(t, cond, base)?;
        let cond_len = t.code.len();
        let mut step_ops = cond_ops;
        for stmt in body {
            let RStmt::Expr(RExpr::Assign { var, value }) = stmt else {
                return None;
            };
            let start = t.code.len();
            let (result, ops) = match &**value {
                RExpr::Call {
                    callee: Callee::Function(index),
                    args,
                } => self.inline(t, *index, args, base)?,
                value => {
                    let (result, nodes) = self.arith(t, value, Scope::Loop(base))?;
                    (result, 2 + nodes)
                }
            };
            let target = self.register(t, *var, Scope::Loop(base))?;
            // The value's last instruction writes the target directly;
            // a literal or a variable is copied.
            match t.code[start..].last_mut() {
                Some(last) if last.dst == result => last.dst = target,
                _ => t.code.push(Instr {
                    op: Op::Copy,
                    dst: target,
                    a: result,
                    b: result,
                }),
            }
            step_ops += ops;
        }
        Some(Linked {
            cond_len,
            cond,
            cond_ops,
            step_ops,
        })
    }

    /// Compiles a call of the function registered at `index`, its body
    /// inlined, and returns the register of its result and the ops the
    /// statement assigning it charges: the statement, the assignment,
    /// the call and the `return`, and the nodes of the arguments and of
    /// the returned expression.
    fn inline(
        &self,
        t: &mut Tier,
        index: usize,
        args: &[RExpr],
        base: usize,
    ) -> Option<(usize, u64)> {
        let function = self.functions[index].as_deref()?;
        let [RStmt::Return(Some(returned))] = function.body.as_slice() else {
            return None;
        };
        // Parameter slots are interned in order, so distinct parameters
        // have slots 0, 1, 2, ...
        let distinct = function.params.iter().enumerate().all(|(i, &s)| s == i);
        if !distinct || function.params.len() != args.len() {
            return None;
        }
        let mut ops = 4;
        let mut regs = Vec::with_capacity(args.len());
        for arg in args {
            let (r, nodes) = self.arith(t, arg, Scope::Loop(base))?;
            regs.push(r);
            ops += nodes;
        }
        let (result, nodes) = self.arith(t, returned, Scope::Callee(&regs))?;
        Some((result, ops + nodes))
    }

    /// Compiles a loop condition, arithmetic with at most one comparison
    /// at its root, and returns where its value ends up and its node
    /// count.
    fn condition(&self, t: &mut Tier, cond: &RExpr, base: usize) -> Option<(Out, u64)> {
        let scope = Scope::Loop(base);
        if let RExpr::Binary {
            op: BinOp::Cmp(cmp),
            left,
            right,
        } = cond
        {
            let (result, l) = self.arith(t, left, scope)?;
            let (right, r) = self.arith(t, right, scope)?;
            let cmp = Some((*cmp, right));
            return Some((Out { result, cmp }, l + r + 1));
        }
        let (result, nodes) = self.arith(t, cond, scope)?;
        Some((Out { result, cmp: None }, nodes))
    }

    /// Compiles an arithmetic `expr`, number literals and variables under
    /// `+ - * / %` and unary `-`, and returns the register of its value
    /// and its node count, or `None` if it is not arithmetic or a
    /// variable it reads fails the number guard.
    fn arith(&self, t: &mut Tier, expr: &RExpr, scope: Scope<'_>) -> Option<(usize, u64)> {
        Some(match expr {
            RExpr::Num(v) => {
                t.regs.push(*v);
                (t.regs.len() - 1, 1)
            }
            RExpr::Var(var) => (self.register(t, *var, scope)?, 1),
            RExpr::Binary {
                op: BinOp::Arith(op),
                left,
                right,
            } => {
                let (a, l) = self.arith(t, left, scope)?;
                let (b, r) = self.arith(t, right, scope)?;
                (t.emit(Op::Arith(*op), a, b), l + r + 1)
            }
            RExpr::Unary {
                op: UnOp::Neg,
                operand,
            } => {
                let (a, nodes) = self.arith(t, operand, scope)?;
                (t.emit(Op::Neg, a, a), nodes + 1)
            }
            _ => return None,
        })
    }

    /// The register of `var` in `scope`, loading it on first use, or
    /// `None` if the slot the walk would use does not hold a number.
    fn register(&self, t: &mut Tier, var: Var, scope: Scope<'_>) -> Option<usize> {
        let home = match (scope, var.local) {
            (Scope::Callee(args), Some(s)) => return args.get(s).copied(),
            (Scope::Loop(base), Some(s)) if self.stack[base + s].is_some() => Home::Local(base + s),
            _ => Home::Global(var.global),
        };
        if let Some(&(_, r)) = t.homes.iter().find(|(h, _)| *h == home) {
            return Some(r);
        }
        let slot = match home {
            Home::Local(i) => &self.stack[i],
            Home::Global(g) => &self.globals[g],
        };
        let Some(Value::Num(n)) = slot else {
            return None;
        };
        t.regs.push(*n);
        t.homes.push((home, t.regs.len() - 1));
        Some(t.regs.len() - 1)
    }

    /// Runs a linked numeric loop while the gas covers whole iterations,
    /// then writes its variables back.
    fn run_tier(&mut self, t: &mut Tier, linked: &Linked) -> bool {
        let (cond, body) = t.code.split_at(linked.cond_len);
        let gas = self.gas;
        let done = loop {
            if self.gas < linked.step_ops {
                break false;
            }
            run(cond, &mut t.regs);
            if !linked.cond.value(&t.regs).truthy() {
                self.gas -= linked.cond_ops;
                break true;
            }
            self.gas -= linked.step_ops;
            run(body, &mut t.regs);
        };
        self.ops += gas - self.gas;
        #[cfg(test)]
        TIERED.with(|c| {
            let (entries, ops) = c.get();
            c.set((entries + 1, ops + gas - self.gas));
        });
        for &(home, r) in &t.homes {
            let value = Some(Value::Num(t.regs[r]));
            match home {
                Home::Local(i) => self.stack[i] = value,
                Home::Global(g) => self.globals[g] = value,
            }
        }
        done
    }

    /// Calls `callee` with the arguments at `stack[args_base..]`.
    fn call(&mut self, callee: Callee, args_base: usize) -> Result<Value, OutOfGas> {
        let index = match callee {
            Callee::Builtin(effect) => {
                if let Some(Some(v)) = self.stack.get(args_base) {
                    self.effects.push(effect(v.to_string()));
                }
                return Ok(Value::Undefined);
            }
            Callee::Function(index) => index,
        };
        let Some(function) = self.functions[index].clone() else {
            // Unknown function: evaluate to undefined, as a lenient
            // engine does for missing host APIs.
            return Ok(Value::Undefined);
        };
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(OutOfGas);
        }
        self.call_depth += 1;
        let base = self.stack.len();
        self.stack.resize(base + function.frame_len, None);
        for (i, &slot) in function.params.iter().enumerate() {
            let arg = if args_base + i < base {
                self.stack[args_base + i].take()
            } else {
                None
            };
            self.stack[base + slot] = Some(arg.unwrap_or(Value::Undefined));
        }
        let result = match self.exec_block(&function.body, base) {
            Flow::Normal => Ok(Value::Undefined),
            Flow::Return(v) => Ok(v),
            Flow::OutOfGas => Err(OutOfGas),
        };
        self.call_depth -= 1;
        result
    }
}

fn unary(op: UnOp, v: &Value) -> Value {
    match op {
        UnOp::Neg => Value::Num(-v.to_num()),
        UnOp::Not => Value::Bool(!v.truthy()),
        UnOp::Other => Value::Undefined,
    }
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        // String concatenation wins if either side is a string.
        BinOp::Arith(Arith::Add) if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) => {
            Value::Str(format!("{l}{r}"))
        }
        BinOp::Arith(op) => Value::Num(op.apply(l.to_num(), r.to_num())),
        BinOp::Cmp(Cmp::Eq) => Value::Bool(js_eq(l, r)),
        BinOp::Cmp(Cmp::Ne) => Value::Bool(!js_eq(l, r)),
        BinOp::Cmp(op) => Value::Bool(op.test(l.to_num(), r.to_num())),
        BinOp::Other => Value::Undefined,
    }
}

fn js_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Undefined, Value::Undefined) => true,
        _ => l.to_num() == r.to_num(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_urls_require_execution() {
        // The corpus pattern: the fetched URL never appears literally.
        let src = r#"
            var base = "http://s/img/dyn";
            var n = 0;
            while (n < 3) { loadImage(base + n + ".jpg"); n = n + 1; }
        "#;
        let out = execute(src, None);
        assert!(out.parse_ok);
        assert_eq!(
            out.effects,
            vec![
                JsEffect::LoadImage("http://s/img/dyn0.jpg".into()),
                JsEffect::LoadImage("http://s/img/dyn1.jpg".into()),
                JsEffect::LoadImage("http://s/img/dyn2.jpg".into()),
            ]
        );
        assert!(out.ops > 10);
    }

    #[test]
    fn document_write_effect() {
        let out = execute("document.write(\"<img src='x.jpg'>\");", None);
        assert_eq!(
            out.effects,
            vec![JsEffect::DocumentWrite("<img src='x.jpg'>".into())]
        );
    }

    #[test]
    fn functions_and_arithmetic() {
        let src = r#"
            function mix(a, b) { return a * 31 + b % 97; }
            var acc = 0;
            var k = 0;
            while (k < 10) { acc = mix(acc, k); k = k + 1; }
            if (acc > 0) { loadImage("got" + acc + ".png"); }
        "#;
        let out = execute(src, None);
        assert_eq!(out.effects.len(), 1);
        // acc is deterministic; recompute in Rust.
        let mut acc = 0i64;
        for k in 0..10 {
            acc = acc * 31 + k % 97;
        }
        assert_eq!(out.effects[0], JsEffect::LoadImage(format!("got{acc}.png")));
    }

    #[test]
    fn dead_branches_produce_no_effects() {
        let out = execute("if (1 > 2) { loadImage(\"never.jpg\"); }", None);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn infinite_loop_hits_gas_limit() {
        let out = execute("while (true) { var x = 1; }", Some(10_000));
        assert!(out.hit_gas_limit);
        assert!(out.ops >= 10_000);
    }

    #[test]
    fn parse_errors_yield_no_effects() {
        let out = execute("loadImage(", None);
        assert!(!out.parse_ok);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn unbounded_recursion_is_cut_off() {
        let out = execute("function f() { return f(); } f();", None);
        // Either gas or call-depth stops it; must not overflow the stack.
        assert!(out.parse_ok);
    }

    #[test]
    fn number_formatting_matches_js() {
        let out = execute("loadImage(\"a\" + 7 + \"_\" + 2.5 + \".png\");", None);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("a7_2.5.png".into())]);
    }

    #[test]
    fn string_comparison_and_equality() {
        let out = execute(
            "if (\"a\" == \"a\") { loadImage(\"eq.png\"); } if (1 != 2) { loadImage(\"ne.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 2);
    }

    #[test]
    fn undefined_variables_are_undefined() {
        let out = execute("if (ghost) { loadImage(\"no.png\"); }", None);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn globals_assigned_inside_functions() {
        let src = "function set() { g = 5; } set(); if (g == 5) { loadImage(\"g.png\"); }";
        let out = execute(src, None);
        assert_eq!(out.effects.len(), 1);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn division_and_modulo_by_zero_are_nan_or_inf_not_panics() {
        let out = execute(
            "var a = 1 / 0; var b = 0 / 0; var c = 5 % 0; \
             if (a > 100) { loadImage(\"inf.png\"); }",
            None,
        );
        assert!(out.parse_ok);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("inf.png".into())]);
    }

    #[test]
    fn string_to_number_coercion_in_arithmetic() {
        // "3" * 2 -> 6; "x" * 2 -> NaN (falsy in comparisons).
        let out = execute(
            "var a = \"3\" * 2; if (a == 6) { loadImage(\"six.png\"); } \
             var b = \"x\" * 2; if (b == b) { loadImage(\"nan-equal.png\"); }",
            None,
        );
        // NaN != NaN, so only the first effect fires.
        assert_eq!(out.effects, vec![JsEffect::LoadImage("six.png".into())]);
    }

    #[test]
    fn boolean_coercion_in_concat() {
        let out = execute("loadImage(\"f_\" + true + \".png\");", None);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("f_true.png".into())]);
    }

    #[test]
    fn unary_operators() {
        let out = execute(
            "var a = -3; if (!false) { if (a < 0) { loadImage(\"neg.png\"); } }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }

    #[test]
    fn nested_function_calls_and_shadowing() {
        let out = execute(
            "function f(x) { return g(x) + 1; } function g(x) { return x * 2; } \
             var x = 10; if (f(x) == 21) { loadImage(\"ok\" + x + \".png\"); }",
            None,
        );
        assert_eq!(out.effects, vec![JsEffect::LoadImage("ok10.png".into())]);
    }

    #[test]
    fn while_with_early_return_inside_function() {
        let out = execute(
            "function first(n) { var i = 0; while (i < 100) { if (i == n) { return i; } \
             i = i + 1; } return -1; } if (first(7) == 7) { loadImage(\"r.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }

    #[test]
    fn empty_source_is_fine() {
        let out = execute("", None);
        assert!(out.parse_ok);
        assert!(out.effects.is_empty());
        assert_eq!(out.ops, 0);
    }

    #[test]
    fn args_mismatch_pads_with_undefined() {
        // Missing arguments become `undefined`; as in JS,
        // `undefined == undefined` is true, but `undefined < 1` is false.
        let out = execute(
            "function f(a, b) { if (b == b) { if (b < 1) { return 3; } return 1; } return 2; } \
             if (f(1) == 1) { loadImage(\"pad.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;
    use crate::html;
    use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};

    /// Executes `source` and returns its outcome, the numeric loop
    /// entries it made and the ops their iterations charged.
    fn tiered(source: &str) -> (JsOutcome, u64, u64) {
        let (entries, ops) = TIERED.with(std::cell::Cell::get);
        let out = execute(source, None);
        let (entries_after, ops_after) = TIERED.with(std::cell::Cell::get);
        (out, entries_after - entries, ops_after - ops)
    }

    #[test]
    fn corpus_filler_and_accumulator_loops_enter_the_tier() {
        // Every corpus script has one `mix` filler loop, and every page
        // one inline accumulator loop; the URL loops call `loadImage`
        // and stay on the walk.
        let (mut scripts, mut ops, mut tier_ops) = (0, 0, 0);
        for seed in [1, 7] {
            let corpus = benchmark_corpus(seed);
            for version in [PageVersion::Mobile, PageVersion::Full] {
                for page in corpus.pages(version) {
                    for obj in page.objects() {
                        let sources = match obj.kind {
                            ObjectKind::Js => vec![obj.body.clone()],
                            ObjectKind::Html => html::parse(&obj.body).inline_scripts,
                            _ => continue,
                        };
                        for source in &sources {
                            let (out, entries, charged) = tiered(source);
                            assert_eq!(entries, 1, "{source}");
                            scripts += 1;
                            ops += out.ops;
                            tier_ops += charged;
                        }
                    }
                }
            }
        }
        assert!(scripts > 100, "only {scripts} corpus scripts");
        // The two loops are nearly all of the corpus's script work.
        assert!(tier_ops * 100 > ops * 99, "{tier_ops} of {ops} ops tiered");
    }

    #[test]
    fn eligible_shapes_the_corpus_lacks_enter_the_tier() {
        // Each loop runs three steps and a failing condition; the URL
        // loaded after it shows the written-back values.
        for (source, charged, url) in [
            // `-i > -3` is 5 ops and `i = i + 1` 5.
            (
                "var i = 0; while (-i > -3) { i = i + 1; } loadImage(\"i\" + i);",
                3 * (5 + 5) + 5,
                "i3",
            ),
            // A bare literal or variable assigned is 2 + 1 ops.
            (
                "var i = 0; var x = 0; var y = 0; while (i < 3) { x = 7; y = i; i = i + 1; } \
                 loadImage(x + \"/\" + y + \"/\" + i);",
                3 * (3 + 3 + 3 + 5) + 3,
                "7/2/3",
            ),
            // A call is 4 + the argument's nodes + the returned nodes.
            (
                "function id(a) { return a; } var i = 0; while (i < 3) { i = id(i + 1); } \
                 loadImage(\"i\" + i);",
                3 * (3 + 4 + 3 + 1) + 3,
                "i3",
            ),
            // The callee reads the global `g` the loop writes.
            (
                "function add(a) { return a + g; } g = 1; t = 0; i = 0; \
                 while (i < 3) { t = add(t); g = g + 1; i = i + 1; } loadImage(t + \"/\" + g);",
                3 * (3 + 4 + 1 + 3 + 5 + 5) + 3,
                "6/4",
            ),
        ] {
            let (out, entries, tier_ops) = tiered(source);
            assert_eq!((entries, tier_ops), (1, charged), "{source}");
            assert_eq!(
                out.effects,
                vec![JsEffect::LoadImage(url.into())],
                "{source}"
            );
        }
    }

    #[test]
    fn loops_outside_the_tier_shape_stay_on_the_walk() {
        for source in [
            "var i = 0; while (i < 3) { var x = i; i = i + 1; }",
            "var i = 0; while (i < 3) { if (i) { i = i + 1; } i = i + 1; }",
            "var i = 0; while (i < 3) { loadImage(\"a\" + i); i = i + 1; }",
            "var i = 0; while (i < 3 == true) { i = i + 1; }",
            "var i = 0; while (i < 3) { i = i < 2; }",
            "var i = \"0\"; while (i < 3) { i = i + 1; }",
        ] {
            assert_eq!(tiered(source).1, 0, "{source}");
        }
        let (out, entries, charged) = tiered("var i = 0; while (i < 3) { i = i + 1; }");
        // Three steps of `i < 3` (3 ops) and `i = i + 1` (5), then the
        // failing condition; the `var` (2) and the `while` (1) outside.
        assert_eq!((entries, charged), (1, 3 * (3 + 5) + 3));
        assert_eq!(out.ops, 2 + 1 + charged);
    }
}
