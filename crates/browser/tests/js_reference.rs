//! Differential test: `js::execute` against a name-keyed reference
//! interpreter.
//!
//! The reference below is the interpreter `js::execute` ran before it
//! resolved names to slots: it walks the public AST, keeps variables and
//! functions in `HashMap`s keyed by name, copies a function's body on
//! every call, and charges one operation per node. `js::execute` walks a
//! slot-resolved tree with the same per-node charges, and runs arithmetic
//! `while` loops on `f64` registers, one charge per iteration. Both must
//! return the same `JsOutcome` (effects, op count, tokens, parse and gas
//! outcome) on every corpus script, on gas budgets that run out on every
//! node of the corpus loop shapes, on expressions with string, bool,
//! `undefined` and NaN operands, on loops inside and outside the numeric
//! loop tier's shape and guards, and on seeded random programs. Debug
//! builds run a few thousand random programs; release builds run 100 000.

use ewb_browser::html;
use ewb_browser::js::{execute, parse_program, Expr, JsEffect, JsOutcome, Stmt, DEFAULT_GAS};
use ewb_simcore::Xoshiro256;
use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};
use std::collections::HashMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// The reference interpreter.
// ---------------------------------------------------------------------

const MAX_CALL_DEPTH: usize = 64;

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

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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

struct Reference {
    globals: HashMap<String, Value>,
    functions: HashMap<String, (Vec<String>, Vec<Stmt>)>,
    effects: Vec<JsEffect>,
    gas: u64,
    ops: u64,
    call_depth: usize,
}

fn reference_execute(source: &str, gas: Option<u64>) -> JsOutcome {
    let bytes = source.len();
    let Ok(program) = parse_program(source) else {
        return JsOutcome {
            effects: Vec::new(),
            ops: 0,
            tokens: 0,
            bytes,
            parse_ok: false,
            hit_gas_limit: false,
        };
    };
    let mut interp = Reference {
        globals: HashMap::new(),
        functions: HashMap::new(),
        effects: Vec::new(),
        gas: gas.unwrap_or(DEFAULT_GAS),
        ops: 0,
        call_depth: 0,
    };
    let mut hit_gas_limit = false;
    for stmt in &program.statements {
        if let Stmt::FunctionDecl { name, params, body } = stmt {
            interp
                .functions
                .insert(name.clone(), (params.clone(), body.clone()));
        }
    }
    let mut locals = HashMap::new();
    for stmt in &program.statements {
        match interp.exec(stmt, &mut locals) {
            Flow::Normal => {}
            Flow::Return(_) => break,
            Flow::OutOfGas => {
                hit_gas_limit = true;
                break;
            }
        }
    }
    JsOutcome {
        effects: interp.effects,
        ops: interp.ops,
        tokens: program.tokens,
        bytes,
        parse_ok: true,
        hit_gas_limit,
    }
}

impl Reference {
    fn charge(&mut self) -> bool {
        self.ops += 1;
        if self.gas == 0 {
            return false;
        }
        self.gas -= 1;
        true
    }

    fn exec_block(&mut self, stmts: &[Stmt], locals: &mut HashMap<String, Value>) -> Flow {
        for s in stmts {
            match self.exec(s, locals) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec(&mut self, stmt: &Stmt, locals: &mut HashMap<String, Value>) -> Flow {
        if !self.charge() {
            return Flow::OutOfGas;
        }
        match stmt {
            Stmt::VarDecl { name, init } => {
                let value = match init {
                    Some(e) => match self.eval(e, locals) {
                        Ok(v) => v,
                        Err(flow) => return flow,
                    },
                    None => Value::Undefined,
                };
                locals.insert(name.clone(), value);
                Flow::Normal
            }
            Stmt::Expr(e) => match self.eval(e, locals) {
                Ok(_) => Flow::Normal,
                Err(flow) => flow,
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = match self.eval(cond, locals) {
                    Ok(v) => v,
                    Err(flow) => return flow,
                };
                let branch = if c.truthy() { then_branch } else { else_branch };
                self.exec_block(branch, locals)
            }
            Stmt::While { cond, body } => loop {
                let c = match self.eval(cond, locals) {
                    Ok(v) => v,
                    Err(flow) => return flow,
                };
                if !c.truthy() {
                    return Flow::Normal;
                }
                match self.exec_block(body, locals) {
                    Flow::Normal => {}
                    other => return other,
                }
            },
            Stmt::FunctionDecl { name, params, body } => {
                self.functions
                    .insert(name.clone(), (params.clone(), body.clone()));
                Flow::Normal
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => match self.eval(e, locals) {
                        Ok(v) => v,
                        Err(flow) => return flow,
                    },
                    None => Value::Undefined,
                };
                Flow::Return(v)
            }
        }
    }

    fn eval(&mut self, expr: &Expr, locals: &mut HashMap<String, Value>) -> Result<Value, Flow> {
        if !self.charge() {
            return Err(Flow::OutOfGas);
        }
        match expr {
            Expr::Num(v) => Ok(Value::Num(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(name) => Ok(locals
                .get(name)
                .or_else(|| self.globals.get(name))
                .cloned()
                .unwrap_or(Value::Undefined)),
            Expr::Assign { name, value } => {
                let v = self.eval(value, locals)?;
                if locals.contains_key(name) {
                    locals.insert(name.clone(), v.clone());
                } else {
                    self.globals.insert(name.clone(), v.clone());
                }
                Ok(v)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, locals)?;
                Ok(match *op {
                    "-" => Value::Num(-v.to_num()),
                    "!" => Value::Bool(!v.truthy()),
                    _ => Value::Undefined,
                })
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, locals)?;
                let r = self.eval(right, locals)?;
                Ok(binary(op, &l, &r))
            }
            Expr::Call { target, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, locals)?);
                }
                self.call(target, values)
            }
        }
    }

    fn call(&mut self, target: &str, args: Vec<Value>) -> Result<Value, Flow> {
        let effect: fn(String) -> JsEffect = match target {
            "loadImage" => JsEffect::LoadImage,
            "loadScript" => JsEffect::LoadScript,
            "document.write" => JsEffect::DocumentWrite,
            name => {
                let Some((params, body)) = self.functions.get(name).cloned() else {
                    return Ok(Value::Undefined);
                };
                if self.call_depth >= MAX_CALL_DEPTH {
                    return Err(Flow::OutOfGas);
                }
                self.call_depth += 1;
                let mut frame = HashMap::new();
                for (i, p) in params.iter().enumerate() {
                    frame.insert(p.clone(), args.get(i).cloned().unwrap_or(Value::Undefined));
                }
                let result = match self.exec_block(&body, &mut frame) {
                    Flow::Normal => Ok(Value::Undefined),
                    Flow::Return(v) => Ok(v),
                    Flow::OutOfGas => Err(Flow::OutOfGas),
                };
                self.call_depth -= 1;
                return result;
            }
        };
        if let Some(v) = args.first() {
            self.effects.push(effect(v.to_string()));
        }
        Ok(Value::Undefined)
    }
}

fn binary(op: &str, l: &Value, r: &Value) -> Value {
    match op {
        "+" => {
            if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                Value::Str(format!("{l}{r}"))
            } else {
                Value::Num(l.to_num() + r.to_num())
            }
        }
        "-" => Value::Num(l.to_num() - r.to_num()),
        "*" => Value::Num(l.to_num() * r.to_num()),
        "/" => Value::Num(l.to_num() / r.to_num()),
        "%" => Value::Num(l.to_num() % r.to_num()),
        "<" => Value::Bool(l.to_num() < r.to_num()),
        ">" => Value::Bool(l.to_num() > r.to_num()),
        "<=" => Value::Bool(l.to_num() <= r.to_num()),
        ">=" => Value::Bool(l.to_num() >= r.to_num()),
        "==" => Value::Bool(js_eq(l, r)),
        "!=" => Value::Bool(!js_eq(l, r)),
        _ => Value::Undefined,
    }
}

fn js_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Undefined, Value::Undefined) => true,
        _ => l.to_num() == r.to_num(),
    }
}

/// Asserts both interpreters agree on `source` under `gas` and returns
/// the shared outcome.
fn assert_same(source: &str, gas: Option<u64>) -> JsOutcome {
    let want = reference_execute(source, gas);
    let got = execute(source, gas);
    assert_eq!(got, want, "gas {gas:?}, source:\n{source}");
    got
}

// ---------------------------------------------------------------------
// Corpus scripts.
// ---------------------------------------------------------------------

#[test]
fn every_corpus_script_matches_the_reference() {
    let mut scripts = 0;
    for seed in [1, 7, 42] {
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
                        for gas in [None, Some(500)] {
                            assert_same(source, gas);
                        }
                        scripts += 1;
                    }
                }
            }
        }
    }
    assert!(scripts > 100, "only {scripts} corpus scripts");
}

// ---------------------------------------------------------------------
// Hand-written programs for each scoping rule.
// ---------------------------------------------------------------------

#[test]
fn scoping_rules_match_the_reference() {
    let programs = [
        // A top-level var is invisible inside a function; the global is not.
        "var t = 1; g = 2; function f() { loadImage(\"t\" + t + g); } f();",
        // Assigning before the local `var` has run writes the global.
        "function f() { x = 1; var x = 2; x = 3; return x; } loadImage(f() + \"/\" + x);",
        // In a loop, a reference before the `var` is global on the first
        // pass and local once the `var` has run.
        "function f() { var k = 0; while (k < 3) { z = k; var z = 10; k = k + 1; } return z; } \
         loadImage(f() + \"/\" + z);",
        "var k = 0; while (k < 3) { loadImage(\"q\" + q); q = k; var q = 10; k = k + 1; }",
        // A var inside a never-taken branch stays unbound.
        "function f() { if (false) { var y = 1; } y = 5; return y; } loadImage(f() + \"\" + y);",
        // Builtins win over user functions of the same name.
        "function loadImage(u) { loadScript(\"shadow\"); } loadImage(\"real.png\");",
        "function loadScript(u) { return 1; } loadScript(\"s.js\");",
        // Unknown callees evaluate their arguments and yield undefined.
        "var n = 0; ghost(n = 5); console.log(n = n + 1); loadImage(\"n\" + n + ghost());",
        // Hoisting: the later top-level declaration is registered first,
        // then each declaration re-registers when it runs.
        "loadImage(\"a\" + f()); function f() { return 1; } loadImage(\"b\" + f()); \
         function f() { return 2; } loadImage(\"c\" + f());",
        // A nested declaration registers only when it runs.
        "loadImage(\"a\" + inner()); function outer() { function inner() { return 7; } } \
         outer(); loadImage(\"b\" + inner());",
        "if (true) { function h() { return 3; } } loadImage(\"h\" + h());",
        // Duplicate parameters: the last one wins, even when missing.
        "function d(a, a) { return a; } loadImage(d(1, 2) + \"/\" + d(1));",
        // Recursion past the call-depth limit stops the script.
        "function r(n) { loadImage(\"r\" + n); return r(n + 1); } r(0); loadImage(\"after\");",
        "function r(n) { if (n > 0) { return r(n - 1) + 1; } return 0; } loadImage(\"d\" + r(63));",
        "function r(n) { if (n > 0) { return r(n - 1) + 1; } return 0; } loadImage(\"d\" + r(64));",
        // Top-level return ends the script.
        "loadImage(\"a\"); return 1; loadImage(\"b\");",
        "var i = 0; while (true) { i = i + 1; if (i > 3) { return; } loadImage(\"w\" + i); }",
        // Parameters shadow globals and vanish after the call.
        "a = 9; function p(a) { a = a + 1; return a; } loadImage(p(1) + \"/\" + a);",
        // Missing arguments and extra arguments.
        "function m(a, b) { return b; } loadImage(\"m\" + m(1) + m(1, 2, loadImage(\"x\")));",
        // Values crossing frames: functions read their caller's globals only.
        "function a1() { v = v + 1; return b1(); } function b1() { return v * 2; } \
         v = 1; loadImage(\"v\" + a1() + v);",
        "",
        "loadImage(",
    ];
    for source in programs {
        for gas in [None, Some(500), Some(37), Some(0)] {
            assert_same(source, gas);
        }
    }
}

#[test]
fn gas_running_out_mid_loop_matches_the_reference() {
    let source = "var i = 0; function f(x) { return x * 2; } \
                  while (i < 1000) { loadImage(\"l\" + f(i)); i = i + 1; }";
    for gas in 0..400 {
        assert_same(source, Some(gas));
    }
}

/// Asserts both interpreters agree on `source` under every budget from
/// 0 to one past its full run, so the budget runs out on every node.
fn assert_same_at_every_gas(source: &str) {
    let full = assert_same(source, None);
    assert!(!full.hit_gas_limit, "source must finish:\n{source}");
    for gas in 0..=full.ops + 1 {
        let out = assert_same(source, Some(gas));
        assert_eq!(out.hit_gas_limit, gas < full.ops, "gas {gas}");
    }
}

#[test]
fn gas_running_out_in_the_corpus_loop_shapes_matches_the_reference() {
    // The corpus scripts' two loops (`ewb_webpage`'s script generator)
    // with a few iterations each: the URL-building loop and its
    // `document.write`, then the filler loop, whose condition, call
    // arguments, returned expression and increment are all arithmetic.
    let url_loop = "var base0 = \"http://s/img/dyn\";\nvar n0 = 3;\n\
                    while (n0 < 6) {\n  loadImage(base0 + n0 + \".jpg\");\n  n0 = n0 + 1;\n}\n\
                    document.write(\"<img src='\" + base0 + \"6.jpg'>\");\n";
    let mix_loop = "function mix0(a, b) { return a * 31 + b % 97; }\n\
                    var acc0 = 0;\nvar k0 = 0;\n\
                    while (k0 < 4) { acc0 = mix0(acc0, k0); k0 = k0 + 1; }\n\
                    if (acc0 < 0) { document.write(\"<p>unreachable</p>\"); }\n";
    for source in [url_loop, mix_loop, &format!("{url_loop}{mix_loop}")] {
        assert_same_at_every_gas(source);
    }
    // The inline script every corpus page carries.
    assert_same_at_every_gas(
        "var inlineAcc = 0;\nvar q = 0;\nwhile (q < 4) { inlineAcc = inlineAcc + q; q = q + 1; }\n",
    );
}

#[test]
fn non_number_operands_match_the_reference() {
    let programs = [
        // String operands: concatenation, and arithmetic and comparison
        // that convert them.
        "var s = \"7\"; var t = \"x\"; var a = s + 1; var b = s * 2; var c = s < 10; \
         var d = t * 2; var e = s == 7; var f = s + t; var g = 1 + 2 + s; var h = s - -s; \
         loadImage(a + \"/\" + b + c + d + e + f + g + h + (s != \"7\"));",
        // Boolean operands.
        "var t = true; var f = false; var a = t + 1; var b = t * f; var c = t == 1; \
         var d = f < t; var e = !t; var g = -t; var h = !!f; var i = (1 < 2) + (2 < 1); \
         loadImage(\"\" + a + b + c + d + e + g + h + i + (t == true) + (f != 0));",
        // `undefined` operands: unbound names.
        "var a = u + 1; var b = u == u; var c = u != 0; var d = -u; var e = !u; var f = u < 1; \
         var g = u + \"s\"; loadImage(\"\" + a + b + c + d + e + f + g + (u == 0));",
        // NaN.
        "var n = 0 / 0; var a = n == n; var b = n != n; var c = !n; var d = -n; var e = n < 1; \
         var f = n + 1; var g = n >= n; loadImage(\"\" + a + b + c + d + e + f + g);",
        // Unary minus and not, on numbers and on their results.
        "var x = 5; var a = -x; var b = !x; var c = - -x; var d = !!x; var e = -(x - 5); \
         var f = !(x - 5); var g = -0; var h = !(x < 3); var i = -(x < 3); \
         loadImage(\"\" + a + b + c + d + e + f + (1 / g) + h + i);",
        // Division and remainder by zero.
        "var z = 0; var a = 1 / z; var b = -1 / z; var c = 5 % z; var d = z / z; var e = 1 / -z; \
         var f = 5.5 % 2; var g = -7 % 3; \
         loadImage(\"\" + a + b + c + d + e + f + g + (a > 100000) + (c == c) + (a == -b));",
        // A number subtree inside a string expression, and a deep chain.
        "var k = 3; loadImage(\"p\" + (k * 2 + 1) + \"_\" + (k < 2) + (k % 0) + (k - -k * k / 2));",
        "var v = 1; var w = v + v + v + v + v + v + v + v + v + v + \"!\" + v + v;\n\
         if (v * 2 - 2) { loadImage(\"no\"); } else { loadImage(w + (v + v * (v + v))); }",
    ];
    for source in programs {
        let out = assert_same(source, None);
        assert_eq!(out.effects.len(), 1, "{source}");
        assert_same_at_every_gas(source);
    }
}

#[test]
fn numeric_loops_match_the_reference() {
    let programs = [
        // Tiered over a function's locals, and over top-level globals.
        "function run(n) { var k = 0; var acc = 1; \
         while (k < n) { acc = acc * 3 - k / 2; k = k + 1; } return acc; } \
         loadImage(\"r\" + run(5));",
        "k = 0; acc = 0; while (k < 5) { acc = acc + k * k; k = -(-k - 1); } \
         loadImage(\"g\" + acc + \"/\" + k);",
        // A leaf reads a global the loop writes; inside `g` the loop's
        // `step` is a local, so the leaf reads another slot.
        "function bump(a) { return a + step; } step = 2; total = 0; i = 0; \
         while (i < 4) { total = bump(total); step = step * 2; i = i + 1; } \
         function g() { var step = 1; var t = 0; var i = 0; \
         while (i < 3) { t = bump(t); step = step + 1; i = i + 1; } return t * 1000 + step; } \
         loadImage(\"s\" + total + \"/\" + step + \"/\" + g());",
        // Variables unbound at entry, or holding a string, a bool or
        // `undefined`.
        "var i = 0; while (i < 3) { u = i * 2; i = i + 1; } loadImage(\"u\" + u + i);",
        "var i = 0; while (i < 3) { i = i + 1 + w; } loadImage(\"w\" + i);",
        "var i = 0; var s = \"7\"; while (i < 3) { s = s * 2; i = i + 1; } loadImage(\"s\" + s);",
        "var i = 0; var b = true; while (i < 3) { b = b + i; i = i + 1; } loadImage(\"b\" + b);",
        "var i = 0; var v; while (i < 3) { v = v + 1; i = i + 1; } loadImage(\"v\" + v);",
        "var i = \"1\"; while (i < 3) { i = i + 1; } var j = false; while (j < 3) { j = j + 1; } \
         loadImage(\"i\" + i + j);",
        // An inner loop whose variable is a string at its first entries
        // and a number at the later ones.
        "var x = \"a\"; var j = 0; while (j < 4) { var k = 0; \
         while (k < 2) { x = x + 1; k = k + 1; } j = j + 1; if (j == 2) { x = 5; } } \
         loadImage(\"x\" + x);",
        // Callees: unregistered; registered by the statement before the
        // loop (after hoisting picked the later declaration); nested.
        "var k = 0; var a = 0; while (k < 3) { a = nope(k); k = k + 1; } loadImage(\"n\" + a);",
        "function f(a) { return a + 1; } var k = 0; var a = 1; \
         while (k < 3) { a = f(a); k = k + 1; } \
         function f(a) { return a * 2 + 1; } k = 0; while (k < 3) { a = f(a); k = k + 1; } \
         if (true) { function f(a) { return a - 1; } } k = 0; while (k < 3) { a = f(a); k = k + 1; } \
         loadImage(\"f\" + a);",
        // Duplicate parameters; too few and too many arguments.
        "function d(a, a) { return a * 2; } var k = 0; var x = 1; \
         while (k < 3) { x = d(x, k); k = k + 1; } loadImage(\"d\" + x);",
        "function two(a, b) { return a + b; } var k = 0; var x = 1; \
         while (k < 3) { x = two(k); k = k + 1; } loadImage(\"t\" + x);",
        "function one(a) { return a * 3; } var k = 0; var x = 1; \
         while (k < 3) { x = one(k, x, 5); k = k + 1; } loadImage(\"o\" + x);",
        // Callee bodies that are not one `return <arithmetic>`.
        "function two(a) { var t = a * 2; return t + 1; } var k = 0; var x = 1; \
         while (k < 3) { x = two(x); k = k + 1; } loadImage(\"2\" + x);",
        "function c(a) { return a < 2; } function e(a) { return; } var k = 0; var x = 1; \
         while (k < 3) { x = c(k); k = k + 1; } while (k < 5) { x = e(k); k = k + 1; } \
         loadImage(\"c\" + x);",
        // NaN, infinities, -0, `/ 0` and `% 0`; conditions with no
        // comparison, and `!=`.
        "var k = 0; var z = 0; var a = 1; var b = -1; var c = 5; var n = 0; var m = 0; \
         while (k < 4) { a = a / z; b = b / z; c = c % z; n = z / z; m = -z; k = k + 1; } \
         loadImage(\"\" + a + b + c + n + (1 / m) + (m == 0) + (n == n));",
        "var q = 1; while (q) { q = q * -0; } var n = 5; while (n) { n = n * 0 / 0; } \
         var v = 1; while (v < 1 / 0) { v = v * v + 9; } var i = 0; while (i != 5) { i = i + 1; } \
         loadImage(\"\" + (1 / q) + n + v + i);",
        // Bodies with a `var`, an `if` or a `loadImage` are not tiered.
        "var i = 0; while (i < 3) { var x = i * 2; i = i + 1; } loadImage(\"x\" + x);",
        "var i = 0; var y = 0; while (i < 3) { if (i > 1) { y = y + 1; } i = i + 1; } \
         loadImage(\"y\" + y);",
        "var i = 0; while (i < 3) { loadImage(\"l\" + i); i = i + 1; }",
    ];
    for source in programs {
        assert_same_at_every_gas(source);
    }
    // A leaf loop entered at call depth 63 finishes; at 64 its first
    // call is past the depth limit, which stops the script.
    let at_depth = |n: usize| {
        format!(
            "function leaf(a, b) {{ return a * 31 + b % 97; }} \
             function r(n) {{ if (n > 0) {{ return r(n - 1); }} var k = 0; var acc = 0; \
             while (k < 3) {{ acc = leaf(acc, k); k = k + 1; }} return acc; }} \
             loadImage(\"d\" + r({n}));"
        )
    };
    assert_same_at_every_gas(&at_depth(62));
    let deep = at_depth(63);
    let full = assert_same(&deep, None);
    assert!(full.hit_gas_limit && full.effects.is_empty() && full.ops < DEFAULT_GAS);
    for gas in 0..=full.ops + 1 {
        assert_same(&deep, Some(gas));
    }
}

#[test]
fn a_script_with_20000_distinct_names_matches_the_reference() {
    let mut source = String::from("var v0 = 1;\n");
    for i in 1..10_000 {
        let _ = writeln!(source, "var v{i} = v{} + 1;", i - 1);
    }
    // Globals assigned inside a function, read back at the top level.
    source.push_str("function spill() {\n");
    for i in 0..10_000 {
        let _ = writeln!(source, "g{i} = {i};");
    }
    source.push_str("}\nspill();\nvar k = 0;\n");
    source
        .push_str("while (k < 50) { loadImage(\"n\" + v9999 + \"_\" + g9999 + k); k = k + 1; }\n");
    let out = assert_same(&source, None);
    assert_eq!(out.effects.len(), 50);
    assert_eq!(out.effects[0], JsEffect::LoadImage("n10000_99990".into()));
}

// ---------------------------------------------------------------------
// Seeded random programs.
// ---------------------------------------------------------------------

/// Variable names, shared by the top level and every function so that
/// top-level `var`s, globals, locals and parameters collide.
const VARS: &[&str] = &["a", "b", "c", "i", "n", "acc"];
/// Declared function names, including two builtins to shadow.
const FUNCS: &[&str] = &["f", "g", "h", "loadImage", "loadScript"];
/// Call targets: declared functions, builtins and unknown names.
const CALLEES: &[&str] = &[
    "f",
    "g",
    "h",
    "loadImage",
    "loadScript",
    "document.write",
    "ghost",
    "console.log",
];
const BINOPS: &[&str] = &["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!="];

struct Gen {
    rng: Xoshiro256,
}

impl Gen {
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.rng.usize_below(items.len())]
    }

    fn expr(&mut self, out: &mut String, depth: usize) {
        let leaf = depth == 0 || self.rng.chance(0.35);
        if leaf {
            match self.rng.usize_below(6) {
                0 => {
                    let _ = write!(out, "{}", self.rng.usize_below(20));
                }
                1 => {
                    let _ = write!(out, "{}.5", self.rng.usize_below(4));
                }
                2 => {
                    let _ = write!(out, "\"s{}\"", self.rng.usize_below(3));
                }
                3 => out.push_str(if self.rng.chance(0.5) {
                    "true"
                } else {
                    "false"
                }),
                _ => out.push_str(self.pick(VARS)),
            }
            return;
        }
        match self.rng.usize_below(5) {
            0 | 1 => {
                out.push('(');
                self.expr(out, depth - 1);
                let _ = write!(out, " {} ", self.pick(BINOPS));
                self.expr(out, depth - 1);
                out.push(')');
            }
            2 => {
                out.push_str(if self.rng.chance(0.5) { "-" } else { "!" });
                self.expr(out, depth - 1);
            }
            3 => {
                let _ = write!(out, "({} = ", self.pick(VARS));
                self.expr(out, depth - 1);
                out.push(')');
            }
            _ => self.call(out, depth - 1),
        }
    }

    fn call(&mut self, out: &mut String, depth: usize) {
        let _ = write!(out, "{}(", self.pick(CALLEES));
        for k in 0..self.rng.usize_below(4) {
            if k > 0 {
                out.push_str(", ");
            }
            self.expr(out, depth);
        }
        out.push(')');
    }

    fn block(&mut self, out: &mut String, depth: usize, in_function: bool) {
        out.push_str("{ ");
        for _ in 0..self.rng.usize_below(4) {
            self.stmt(out, depth, in_function);
        }
        out.push_str("} ");
    }

    fn stmt(&mut self, out: &mut String, depth: usize, in_function: bool) {
        let nested = depth > 0;
        match self.rng.usize_below(if nested { 9 } else { 5 }) {
            0 => {
                let _ = write!(out, "var {}", self.pick(VARS));
                if self.rng.chance(0.8) {
                    out.push_str(" = ");
                    self.expr(out, 2);
                }
                out.push_str("; ");
            }
            1 => {
                let _ = write!(out, "{} = ", self.pick(VARS));
                self.expr(out, 2);
                out.push_str("; ");
            }
            2 => {
                self.call(out, 2);
                out.push_str("; ");
            }
            // A top-level return ends the script, so keep it rare there.
            3 if in_function || self.rng.chance(0.1) => {
                out.push_str("return");
                if self.rng.chance(0.7) {
                    out.push(' ');
                    self.expr(out, 2);
                }
                out.push_str("; ");
            }
            3 => {
                self.expr(out, 2);
                out.push_str("; ");
            }
            4 => {
                let v = self.pick(VARS);
                let _ = write!(out, "loadImage(\"e\" + {v}); ");
            }
            5 => {
                out.push_str("if (");
                self.expr(out, 2);
                out.push_str(") ");
                self.block(out, depth - 1, in_function);
                if self.rng.chance(0.5) {
                    out.push_str("else ");
                    self.block(out, depth - 1, in_function);
                }
            }
            6 => {
                // Mostly counted loops; sometimes an arbitrary condition
                // that only gas can stop.
                if self.rng.chance(0.7) {
                    let v = self.pick(VARS);
                    let _ = write!(
                        out,
                        "{v} = 0; while ({v} < {}) {{ ",
                        self.rng.usize_below(12)
                    );
                    for _ in 0..self.rng.usize_below(3) {
                        self.stmt(out, depth - 1, in_function);
                    }
                    let _ = write!(out, "{v} = {v} + 1; }} ");
                } else {
                    out.push_str("while (");
                    self.expr(out, 2);
                    out.push_str(") ");
                    self.block(out, depth - 1, in_function);
                }
            }
            _ => self.function(out, depth - 1),
        }
    }

    fn function(&mut self, out: &mut String, depth: usize) {
        let _ = write!(out, "function {}(", self.pick(FUNCS));
        for k in 0..self.rng.usize_below(4) {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(self.pick(VARS));
        }
        out.push_str(") ");
        self.block(out, depth, true);
    }

    fn program(&mut self) -> String {
        let mut out = String::new();
        for _ in 0..1 + self.rng.usize_below(3) {
            self.function(&mut out, 2);
        }
        for _ in 0..1 + self.rng.usize_below(6) {
            self.stmt(&mut out, 3, false);
        }
        out
    }
}

#[test]
fn random_programs_match_the_reference() {
    let programs = if cfg!(debug_assertions) {
        3_000
    } else {
        100_000
    };
    let mut gen = Gen {
        rng: Xoshiro256::seed_from_u64(0x15_2013),
    };
    let (mut with_effects, mut out_of_gas, mut deep) = (0, 0, 0);
    for k in 0..programs {
        let source = gen.program();
        let gas = [Some(50), Some(500), Some(5_000), Some(20_000)][k % 4];
        let out = assert_same(&source, gas);
        assert!(
            out.parse_ok,
            "generator produced unparsable source:\n{source}"
        );
        with_effects += usize::from(!out.effects.is_empty());
        out_of_gas += usize::from(out.hit_gas_limit);
        deep += usize::from(out.hit_gas_limit && out.ops <= gas.unwrap_or(DEFAULT_GAS));
    }
    // The generator reaches effects, gas exhaustion, and the call-depth
    // limit (which reports out-of-gas with gas left).
    assert!(with_effects > programs / 10, "{with_effects} with effects");
    assert!(out_of_gas > programs / 50, "{out_of_gas} out of gas");
    assert!(deep > 0, "no program hit the call-depth limit");
}
