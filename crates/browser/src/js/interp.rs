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
//! Resolution also marks each largest subtree with no call and no
//! assignment as pure, with its node count. Evaluating such a subtree has
//! no effect but its value, so `eval` charges the count in one step: the
//! whole count when the budget covers it, and otherwise what charging
//! node by node leaves observable, `ops += gas + 1` and `gas = 0` (the
//! charge that finds the budget empty counts too) with an out-of-gas
//! stop. It then evaluates the subtree uncharged on `f64`s and `bool`s,
//! and as soon as an operand is not a number, again on [`Value`]s with
//! the same `binary` and `unary` the charged path uses.
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
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    /// Text the parser never produces; evaluates to `undefined`.
    Other,
}

impl BinOp {
    fn resolve(op: &str) -> BinOp {
        match op {
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Rem,
            "<" => BinOp::Lt,
            ">" => BinOp::Gt,
            "<=" => BinOp::Le,
            ">=" => BinOp::Ge,
            "==" => BinOp::Eq,
            "!=" => BinOp::Ne,
            _ => BinOp::Other,
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

/// [`Expr`] with its names resolved.
enum RExpr {
    /// A largest subtree with no call and no assignment, and its node
    /// count: it is charged in one step.
    Pure {
        nodes: u64,
        expr: PureExpr,
    },
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

/// A resolved subtree with no call and no assignment: evaluating it has
/// no effect but its value.
enum PureExpr {
    Num(f64),
    Str(String),
    Bool(bool),
    Var(Var),
    Binary {
        op: BinOp,
        left: Box<PureExpr>,
        right: Box<PureExpr>,
    },
    Unary {
        op: UnOp,
        operand: Box<PureExpr>,
    },
}

/// The value of a pure subtree whose operands are all numbers: a
/// number, or the boolean a comparison or `!` gives.
#[derive(Clone, Copy)]
enum Scalar {
    Num(f64),
    Bool(bool),
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::Num(n) => Value::Num(n),
            Scalar::Bool(b) => Value::Bool(b),
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

    /// Resolves `expr`, wrapping each largest subtree with no call and no
    /// assignment in [`RExpr::Pure`].
    fn expr(&mut self, expr: &'p Expr, frame: &HashMap<&'p str, usize>) -> RExpr {
        let leaf = |expr| RExpr::Pure { nodes: 1, expr };
        match expr {
            Expr::Num(v) => leaf(PureExpr::Num(*v)),
            Expr::Str(s) => leaf(PureExpr::Str(s.clone())),
            Expr::Bool(b) => leaf(PureExpr::Bool(*b)),
            Expr::Var(name) => leaf(PureExpr::Var(self.var(name, frame))),
            Expr::Binary { op, left, right } => {
                let op = BinOp::resolve(op);
                match (self.expr(left, frame), self.expr(right, frame)) {
                    (
                        RExpr::Pure {
                            nodes: l,
                            expr: left,
                        },
                        RExpr::Pure {
                            nodes: r,
                            expr: right,
                        },
                    ) => RExpr::Pure {
                        nodes: l + r + 1,
                        expr: PureExpr::Binary {
                            op,
                            left: Box::new(left),
                            right: Box::new(right),
                        },
                    },
                    (left, right) => RExpr::Binary {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                }
            }
            Expr::Unary { op, operand } => {
                let op = UnOp::resolve(op);
                match self.expr(operand, frame) {
                    RExpr::Pure { nodes, expr } => RExpr::Pure {
                        nodes: nodes + 1,
                        expr: PureExpr::Unary {
                            op,
                            operand: Box::new(expr),
                        },
                    },
                    operand => RExpr::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                }
            }
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
    /// Charges `cost` operations in one step, with the outcome of charging
    /// them one at a time: if the budget runs out partway, the charge
    /// that finds it empty still counts, so `ops` grows by `gas + 1` and
    /// the budget ends at zero.
    fn charge(&mut self, cost: u64) -> Result<(), OutOfGas> {
        if self.gas >= cost {
            self.gas -= cost;
            self.ops += cost;
            Ok(())
        } else {
            self.ops += self.gas + 1;
            self.gas = 0;
            Err(OutOfGas)
        }
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
        if self.charge(1).is_err() {
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
            RStmt::While { cond, body } => loop {
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
            },
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
        // A pure subtree is charged whole; any other node charges itself.
        self.charge(match expr {
            RExpr::Pure { nodes, .. } => *nodes,
            _ => 1,
        })?;
        match expr {
            RExpr::Pure { expr, .. } => Ok(self.pure(expr, base)),
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

    /// Evaluates a pure subtree, already charged: on numbers alone when
    /// every operand is one, else again on [`Value`]s.
    fn pure(&self, expr: &PureExpr, base: usize) -> Value {
        match self.scalar(expr, base) {
            Some(s) => s.into(),
            None => self.pure_value(expr, base),
        }
    }

    /// A pure subtree's value on `f64`s and `bool`s, or `None` as soon as
    /// an operand is not a number (or an operator yields `undefined`).
    fn scalar(&self, expr: &PureExpr, base: usize) -> Option<Scalar> {
        match expr {
            PureExpr::Num(v) => Some(Scalar::Num(*v)),
            PureExpr::Bool(b) => Some(Scalar::Bool(*b)),
            PureExpr::Str(_) => None,
            PureExpr::Var(var) => match self.read(*var, base)? {
                Value::Num(n) => Some(Scalar::Num(*n)),
                Value::Bool(b) => Some(Scalar::Bool(*b)),
                Value::Str(_) | Value::Undefined => None,
            },
            PureExpr::Unary { op, operand } => {
                let Scalar::Num(n) = self.scalar(operand, base)? else {
                    return None;
                };
                match op {
                    UnOp::Neg => Some(Scalar::Num(-n)),
                    UnOp::Not => Some(Scalar::Bool(!Value::Num(n).truthy())),
                    UnOp::Other => None,
                }
            }
            PureExpr::Binary { op, left, right } => {
                let Scalar::Num(l) = self.scalar(left, base)? else {
                    return None;
                };
                let Scalar::Num(r) = self.scalar(right, base)? else {
                    return None;
                };
                numeric(*op, l, r)
            }
        }
    }

    /// A pure subtree's value on [`Value`]s, with the semantics of the
    /// charged path.
    fn pure_value(&self, expr: &PureExpr, base: usize) -> Value {
        match expr {
            PureExpr::Num(v) => Value::Num(*v),
            PureExpr::Str(s) => Value::Str(s.clone()),
            PureExpr::Bool(b) => Value::Bool(*b),
            PureExpr::Var(var) => self.read(*var, base).cloned().unwrap_or(Value::Undefined),
            PureExpr::Unary { op, operand } => unary(*op, &self.pure_value(operand, base)),
            PureExpr::Binary { op, left, right } => binary(
                *op,
                &self.pure_value(left, base),
                &self.pure_value(right, base),
            ),
        }
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
        BinOp::Add if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) => {
            Value::Str(format!("{l}{r}"))
        }
        BinOp::Eq => Value::Bool(js_eq(l, r)),
        BinOp::Ne => Value::Bool(!js_eq(l, r)),
        _ => numeric(op, l.to_num(), r.to_num()).map_or(Value::Undefined, Value::from),
    }
}

/// `op` on two numbers, or `None` where it yields `undefined`.
fn numeric(op: BinOp, l: f64, r: f64) -> Option<Scalar> {
    Some(match op {
        BinOp::Add => Scalar::Num(l + r),
        BinOp::Sub => Scalar::Num(l - r),
        BinOp::Mul => Scalar::Num(l * r),
        BinOp::Div => Scalar::Num(l / r),
        BinOp::Rem => Scalar::Num(l % r),
        BinOp::Lt => Scalar::Bool(l < r),
        BinOp::Gt => Scalar::Bool(l > r),
        BinOp::Le => Scalar::Bool(l <= r),
        BinOp::Ge => Scalar::Bool(l >= r),
        // `js_eq` on two numbers.
        BinOp::Eq => Scalar::Bool(l == r),
        BinOp::Ne => Scalar::Bool(l != r),
        BinOp::Other => return None,
    })
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
