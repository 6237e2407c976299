//! Differential test: the span-based CSS parser and the skip scan
//! against the parser and scan they replaced.
//!
//! `reference` below is the owned-`String` stylesheet parser and the
//! byte-by-byte URL scan that `css::parse` and `css::scan_urls` were
//! before the span format. The new code must agree with it field by
//! field: every selector's tag, classes and id (and so its specificity),
//! every declaration's name and value, and `urls`, `imports` and `bytes`
//! of both the parse and the scan. The comparison runs on:
//!
//! * every corpus stylesheet and inline `<style>` block (those of
//!   `document.write` fragments included) at seeds 1, 7 and 42;
//! * hand-written edge cases: comments, at-rules, `@import` forms,
//!   unclosed blocks, selector syntax the engine ignores, letter case,
//!   empty names and values, non-ASCII whitespace and multi-byte text;
//! * seeded random sheets (10 000 in debug builds, 100 000 in release).
//!
//! A counting allocator also pins the point of the span format: a
//! 2 000-rule sheet parses in fewer than 100 allocations.

use ewb_browser::css::{self, CssParseResult, Stylesheet};
use ewb_browser::html;
use ewb_browser::js::{self, JsEffect};
use ewb_simcore::Xoshiro256;
use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// `sheet` in the reference's owned form.
fn owned(sheet: &Stylesheet) -> reference::Stylesheet {
    let rules = sheet
        .iter_rules()
        .map(|rule| reference::Rule {
            selectors: rule
                .selectors()
                .map(|sel| reference::Selector {
                    parts: sel
                        .parts()
                        .map(|p| reference::SimpleSelector {
                            tag: p.tag().map(str::to_string),
                            classes: p.classes().map(str::to_string).collect(),
                            id: p.id().map(str::to_string),
                        })
                        .collect(),
                })
                .collect(),
            declarations: rule
                .declarations()
                .map(|d| reference::Declaration {
                    name: d.name.to_string(),
                    value: d.value.to_string(),
                })
                .collect(),
        })
        .collect();
    reference::Stylesheet {
        rules,
        imports: sheet.imports.clone(),
    }
}

/// Asserts that `css::parse` and `css::scan_urls` agree with the
/// reference on `input`, and returns the parse.
fn assert_same(input: &str) -> CssParseResult {
    let want = reference::parse(input);
    let got = css::parse(input);
    assert_eq!(owned(&got.sheet), want.sheet, "sheet of {input:?}");
    assert_eq!(got.urls, want.urls, "urls of {input:?}");
    assert_eq!(got.bytes, want.bytes, "bytes of {input:?}");
    assert_eq!(
        got.sheet.declaration_count(),
        want.sheet.declaration_count(),
        "{input:?}"
    );
    for (rule, want_rule) in got.sheet.iter_rules().zip(&want.sheet.rules) {
        for (sel, want_sel) in rule.selectors().zip(&want_rule.selectors) {
            assert_eq!(sel.specificity(), want_sel.specificity(), "{input:?}");
            for (p, want_p) in sel.parts().zip(&want_sel.parts) {
                assert_eq!(p.is_universal(), want_p.is_universal(), "{input:?}");
            }
        }
    }
    let (scan, want_scan) = (css::scan_urls(input), reference::scan_urls(input));
    assert_eq!(scan.urls, want_scan.urls, "scanned urls of {input:?}");
    assert_eq!(
        scan.imports, want_scan.imports,
        "scanned imports of {input:?}"
    );
    assert_eq!(scan.bytes, want_scan.bytes, "scanned bytes of {input:?}");
    got
}

// ---------------------------------------------------------------------
// Corpus sheets.
// ---------------------------------------------------------------------

#[test]
fn every_corpus_sheet_and_inline_style_matches_the_reference() {
    let (mut sheets, mut inline, mut rules, mut urls) = (0, 0, 0, 0);
    let mut check = |css: &str| {
        let got = assert_same(css);
        rules += got.sheet.rules.len();
        urls += got.urls.len();
    };
    for seed in [1, 7, 42] {
        let corpus = benchmark_corpus(seed);
        for version in [PageVersion::Mobile, PageVersion::Full] {
            for page in corpus.pages(version) {
                let root = html::parse(&page.object(page.root_url()).unwrap().body);
                let mut scripts = root.inline_scripts.clone();
                for style in &root.inline_styles {
                    check(style);
                    inline += 1;
                }
                for obj in page.objects() {
                    match obj.kind {
                        ObjectKind::Css => {
                            check(&obj.body);
                            sheets += 1;
                        }
                        ObjectKind::Js => scripts.push(obj.body.clone()),
                        _ => {}
                    }
                }
                for script in &scripts {
                    for effect in js::execute(script, None).effects {
                        if let JsEffect::DocumentWrite(fragment) = effect {
                            for style in &html::parse(&fragment).inline_styles {
                                check(style);
                                inline += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(sheets > 100, "only {sheets} corpus sheets");
    assert!(inline >= 60, "only {inline} inline style blocks");
    assert!(rules > 10_000, "only {rules} rules");
    assert!(urls > 100, "only {urls} urls");
}

// ---------------------------------------------------------------------
// Hand-written edge cases.
// ---------------------------------------------------------------------

/// Each group is one kind of edge; every entry must match the reference.
const EDGE_CASES: &[(&str, &[&str])] = &[
    (
        "comments",
        &[
            "p { color: red; } /* open",
            "/* never closed p { margin: 1px; }",
            "p /* a */ { margin: /* b */ 1px /* c */ }",
            "/**/p{margin:1px}/***/",
            "/*/ p { margin: 1px } */ q { margin: 2px }",
            "a { background: url(/* x */a.png) } /* url(ghost.png) */",
            "p { margin: 1px } /* @import 'hidden.css'; */",
            "/* } */ p { margin: 1px }",
        ],
    ),
    (
        "at-rules",
        &[
            "@media screen { @supports (display: grid) { p { color: red } } } div { padding: 2px }",
            "@media print { p { margin: 1px }",
            "@media print { p { margin: 1px } } } q { margin: 2px }",
            "@font-face { src: url(f.woff) } p { margin: 0 }",
            "@charset \"utf-8\"; p { margin: 0 }",
            "@page { margin: 1px } @ p { margin: 2px }",
            "@supports (x: y) { @media (min-width: 1px) { a { b: c } } @font-face { d: e } } f { g: h }",
            "@",
            "@media",
            "@media {",
        ],
    ),
    (
        "@import forms",
        &[
            "@import url(\"a.css\"); @import url(b.css) screen; p { margin: 0 }",
            "@import 'c.css'; @import \"d.css\" print;",
            "@import e.css\"; @import f.css';",
            "@import; @import url(); @import '';",
            "@IMPORT \"x.css\"; @importx \"y.css\";",
            "@import \"unterminated",
            "@import url(\"g.css\") p { margin: 1px }",
            "@import url('h.css' ; p { margin: 1px }",
            "@import \"i.css\" url(j.css);",
            "@import { p { margin: 1px } } q { margin: 2px }",
        ],
    ),
    (
        "unclosed blocks",
        &[
            "p { color: red; margin: 2px",
            "p { color",
            "p",
            "p {",
            "p { margin: 1px } q",
            "}}} p { margin: 1px }",
            "p { a: b } } q { c: d }",
            "p { a: { b } c: d }",
            "{ margin: 1px }",
            "{",
            "}",
        ],
    ),
    (
        "attribute selectors",
        &[
            "a[href^=\"http\"] { color: blue } p { margin: 1px }",
            "input[type=text].big { margin: 1px }",
            "[data-x] { padding: 1px }",
            "a[title=\"a, b\"] { margin: 1px }",
            "div [x] p { margin: 1px }",
        ],
    ),
    (
        "combinators",
        &[
            "div > p + span ~ a { margin: 1px }",
            "div>p { margin: 1px }",
            "> p { margin: 1px }",
            "a , , b { margin: 1px }",
            "+ ~ > { margin: 1px }",
            ">> p { margin: 1px }",
        ],
    ),
    (
        "pseudo-classes",
        &[
            "a:hover { }",
            "a:hover, a:visited { color: red }",
            "p::first-line { font-size: 2px }",
            ":root { --x: 1px }",
            "li:nth-child(2n+1) { margin: 1px }",
            "a:not(.b) { margin: 1px }",
            ".x:hover.y { margin: 1px }",
        ],
    ),
    (
        "letter case",
        &[
            "DIV.Wrap#Main P { FONT-SIZE: 12PX; Margin: 0 }",
            "BODY { DISPLAY: NONE } Body { Display: None }",
            "A:HOVER { COLOR: RED }",
            "p { Background: URL(Big.PNG) } q { background: uRl('x.png') }",
        ],
    ),
    (
        "universal and odd names",
        &[
            "* { margin: 0 }",
            "*.a { margin: 0 }",
            "div * p { margin: 1px }",
            "** { margin: 1px }",
            "a*b { margin: 1px }",
            "*#x { margin: 1px }",
            "#a#b.c.c { margin: 1px }",
            ".#. { margin: 1px }",
            "p.-x_y#_z { margin: 1px }",
        ],
    ),
    (
        "empty names and values",
        &[
            "p { : red; color: ; ; margin:1px }",
            "p { color:; }",
            ", { margin: 1px }",
            "p { margin }",
            "p { margin:: 1px; a:b:c }",
            "p {}",
            "",
            "   \n\t ",
        ],
    ),
    (
        "non-ASCII whitespace",
        &[
            "p\u{a0}a { margin:\u{a0}1px\u{a0}}",
            "\u{2003}div\u{3000}{ color:\u{2028}red }",
            "\u{feff}p { margin: 1px }",
            "p\u{85}q { x: y }",
            "a\u{a0}>\u{a0}b { c\u{a0}: d }",
            "\u{a0}",
            "p { background: url(\u{a0}a.png\u{a0}) }",
            "@import\u{a0}url(k.css);",
        ],
    ),
    (
        "multi-byte text",
        &[
            "p.caf\u{e9} { content: \"\u{4e2d}\u{6587}\"; background: url(\u{1f600}.png) }",
            "\u{e9}t\u{e9} { margin: 1px }",
            "p { font-family: \u{dc}n\u{ef}c\u{f6}d\u{e9} }",
            "div.\u{fc}ber, .x\u{4e2d} { x: y }",
            "\u{1f600} { \u{1f600}: \u{1f600} }",
            "p { background: url(\"\u{e9}.png\") } \u{e9}url(x.png)",
        ],
    ),
    (
        "url syntax",
        &[
            "a { b: url( }",
            "a { b: URL(x.png) } c { d: uRl( 'a b.png' ) }",
            "a { b: url() url('') url(\"\") url( ) }",
            "a { b: url(\"a.png\" ) url(b.png) }",
            "a { b: url(x;y) }",
            "a { b: uuuurl(a) url (b) urlurl(c) }",
            "url(top.png) p { margin: 1px }",
            "a { b: url(\"quoted'mixed\") }",
            "url(",
            "u",
            "/",
            "@import",
        ],
    ),
];

#[test]
fn edge_cases_match_the_reference() {
    for (kind, cases) in EDGE_CASES {
        for css in *cases {
            assert_same(css);
            // Each case also parses after a valid rule and before one.
            let framed = assert_same(&format!("x {{ y: z }} {css}\nw {{ v: u }}"));
            assert!(!framed.sheet.rules.is_empty(), "{kind}: {css:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Seeded random sheets.
// ---------------------------------------------------------------------

fn pick<'a>(rng: &mut Xoshiro256, pool: &[&'a str]) -> &'a str {
    pool[rng.usize_below(pool.len())]
}

const TAGS: &[&str] = &["p", "div", "a", "SPAN", "Li", "*", "h1", "", "**", "img"];
const QUALIFIERS: &[&str] = &[
    ".x",
    ".Y",
    "#id",
    "#ID",
    ":hover",
    "::before",
    "[href]",
    "[a=\"b c\"]",
    ".a.b",
    "#a#b",
    ".caf\u{e9}",
    ".",
    "#",
    ":not(.q)",
    ".c-1_2",
];
const COMBINATORS: &[&str] = &[" ", " > ", " + ", " ~ ", ">", "\u{a0}", "\n", "  \t"];
const NAMES: &[&str] = &[
    "color",
    "MARGIN",
    "font-size",
    "Padding",
    "height",
    "width",
    "display",
    "background",
    "",
    " ",
    "--var",
    "\u{e9}",
];
const VALUES: &[&str] = &[
    "12px",
    "0",
    "red",
    " 3px 4px ",
    "none",
    "url(a.png)",
    "URL( \"b.png\" )",
    "url('')",
    "url(c.png), url(d.png)",
    "url(e",
    "",
    "\u{a0}1px\u{a0}",
    "\"\u{4e2d}\"",
    "1px !important",
];
const AT_RULES: &[&str] = &[
    "@import url(i.css);",
    "@import 'j.css';",
    "@import \"k.css\" screen;",
    "@import l.css\";",
    "@import;",
    "@media screen { p { margin: 1px } }",
    "@media print { @supports (x: y) { q { r: s } } }",
    "@font-face { src: url(f.woff) }",
    "@charset \"utf-8\";",
    "@page {",
];
/// Fragments spliced into a sheet at random places.
const NOISE: &[&str] = &[
    "{",
    "}",
    ";",
    ":",
    ",",
    "/*",
    "*/",
    "/* c */",
    "\"",
    "'",
    "(",
    ")",
    "@",
    "u",
    "U",
    "/",
    "url(",
    "@import",
    "\u{e9}",
    "\u{1f600}",
    "\u{a0}",
    "\u{2003}",
    " ",
    "\n",
];

/// A random sheet: rules, at-rules and comments in a row, some of them
/// damaged by fragments spliced in at random character boundaries.
fn random_sheet(rng: &mut Xoshiro256) -> String {
    let mut css = String::new();
    for _ in 0..rng.usize_below(8) {
        match rng.usize_below(8) {
            0 => css.push_str(pick(rng, AT_RULES)),
            1 => css.push_str("/* comment url(ghost.png) */"),
            _ => {
                for s in 0..1 + rng.usize_below(3) {
                    if s > 0 {
                        css.push_str(if rng.usize_below(4) == 0 { "," } else { ", " });
                    }
                    for p in 0..1 + rng.usize_below(3) {
                        if p > 0 {
                            css.push_str(pick(rng, COMBINATORS));
                        }
                        css.push_str(pick(rng, TAGS));
                        for _ in 0..rng.usize_below(3) {
                            css.push_str(pick(rng, QUALIFIERS));
                        }
                    }
                }
                css.push_str(" { ");
                for _ in 0..rng.usize_below(4) {
                    let _ = write!(css, "{}: {}; ", pick(rng, NAMES), pick(rng, VALUES));
                }
                if rng.usize_below(8) > 0 {
                    css.push('}');
                }
            }
        }
        css.push_str(pick(rng, COMBINATORS));
    }
    for _ in 0..rng.usize_below(3) {
        let mut at = rng.usize_below(css.len() + 1);
        while !css.is_char_boundary(at) {
            at -= 1;
        }
        css.insert_str(at, pick(rng, NOISE));
    }
    css
}

#[test]
fn random_sheets_match_the_reference() {
    let cases = if cfg!(debug_assertions) {
        10_000
    } else {
        100_000
    };
    let mut rng = Xoshiro256::seed_from_u64(0x21_2013);
    let (mut rules, mut urls, mut imports, mut empty) = (0, 0, 0, 0);
    for _ in 0..cases {
        let got = assert_same(&random_sheet(&mut rng));
        rules += got.sheet.rules.len();
        urls += got.urls.len();
        imports += got.sheet.imports.len();
        empty += usize::from(got.sheet.rules.is_empty());
    }
    // The generator reaches every outcome often.
    assert!(rules > cases, "{rules} rules");
    assert!(urls > cases / 4, "{urls} urls");
    assert!(imports > cases / 20, "{imports} imports");
    assert!(empty > cases / 20, "{empty} sheets without a rule");
}

// ---------------------------------------------------------------------
// Allocations.
// ---------------------------------------------------------------------

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_2000_rule_sheet_parses_in_fewer_than_100_allocations() {
    // Shaped like the corpus sheets: two-selector rules of five
    // declarations, a background image every 500 rules, one import.
    let mut css = String::from("@import url(\"extra.css\");\nbody { margin: 0; }\n");
    for k in 1..2000 {
        let _ = writeln!(
            css,
            ".c{} p, .c{} a:hover {{ color: #{:06x}; margin: {}px 0; padding: {}px; \
             font-size: {}px; line-height: 1.{}; }}",
            k % 11,
            (k + 3) % 11,
            k * 977 % 0xFF_FFFF,
            k % 24,
            k % 16,
            10 + k % 14,
            k % 9
        );
        if k % 500 == 0 {
            let _ = writeln!(
                css,
                ".hero{k} {{ background-image: url(\"img/bg{k}.png\"); }}"
            );
        }
    }
    let (allocs, parsed) = allocations(|| css::parse(&css));
    assert_eq!(parsed.sheet.rules.len(), 2003);
    assert_eq!(parsed.urls.len(), 3);
    assert!(allocs < 100, "{allocs} allocations");
    // The owned form needs some per rule, so the count above is no
    // accident of the allocator hook.
    let (reference_allocs, _) = allocations(|| reference::parse(&css));
    assert!(
        reference_allocs > 20 * 2000,
        "{reference_allocs} allocations"
    );
}

// ---------------------------------------------------------------------
// The reference: the parser and the scan before the span format.
// ---------------------------------------------------------------------

#[allow(dead_code)]
mod reference {
    /// One simple selector: optional tag, classes, optional id.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct SimpleSelector {
        /// Tag name to match (lower-cased), or `None` for `*`/any.
        pub tag: Option<String>,
        /// Required classes.
        pub classes: Vec<String>,
        /// Required id.
        pub id: Option<String>,
    }

    impl SimpleSelector {
        /// Whether this selector has no constraints (matches everything).
        pub fn is_universal(&self) -> bool {
            self.tag.is_none() && self.classes.is_empty() && self.id.is_none()
        }
    }

    /// A selector: a chain of simple selectors joined by descendant
    /// combinators, e.g. `.wrap p` = `[.wrap, p]`. Pseudo-classes (`:hover`)
    /// are parsed and ignored for matching, as a non-interactive engine would.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Selector {
        /// The chain, outermost ancestor first; the last entry is the subject.
        pub parts: Vec<SimpleSelector>,
    }

    impl Selector {
        /// Specificity as (ids, classes, tags) — enough for cascade ordering.
        pub fn specificity(&self) -> (usize, usize, usize) {
            let mut ids = 0;
            let mut classes = 0;
            let mut tags = 0;
            for p in &self.parts {
                ids += usize::from(p.id.is_some());
                classes += p.classes.len();
                tags += usize::from(p.tag.is_some());
            }
            (ids, classes, tags)
        }
    }

    /// `name: value` pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Declaration {
        /// Property name, lower-cased.
        pub name: String,
        /// Raw value text, trimmed.
        pub value: String,
    }

    /// One rule: selectors sharing a declaration block.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Rule {
        /// The comma-separated selector list.
        pub selectors: Vec<Selector>,
        /// The declarations.
        pub declarations: Vec<Declaration>,
    }

    /// A parsed stylesheet.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Stylesheet {
        /// Rules in source order.
        pub rules: Vec<Rule>,
        /// `@import` targets.
        pub imports: Vec<String>,
    }

    impl Stylesheet {
        /// Total number of declarations across all rules.
        pub fn declaration_count(&self) -> usize {
            self.rules.iter().map(|r| r.declarations.len()).sum()
        }
    }

    /// The output of [`parse`], with work accounting.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CssParseResult {
        /// The stylesheet.
        pub sheet: Stylesheet,
        /// Bytes processed.
        pub bytes: usize,
        /// `url(...)` references found in declaration values.
        pub urls: Vec<String>,
    }

    /// Parses stylesheet text. Robust: malformed constructs are skipped to the
    /// next `}` as the CSS error-recovery rules prescribe; arbitrary input
    /// never panics.
    pub fn parse(input: &str) -> CssParseResult {
        let cleaned = strip_comments(input);
        let mut rules = Vec::new();
        let mut imports = Vec::new();
        let mut urls = Vec::new();
        let bytes = input.len();

        let mut rest = cleaned.as_str();
        while !rest.trim().is_empty() {
            let trimmed = rest.trim_start();
            let offset = rest.len() - trimmed.len();
            rest = &rest[offset..];
            if rest.is_empty() {
                break;
            }
            if rest.starts_with('@') {
                // At-rule: @import url(...) | "..." ; — others skipped.
                let end = rest.find([';', '{']).unwrap_or(rest.len());
                let head = &rest[..end];
                if let Some(stripped) = head.strip_prefix("@import") {
                    if let Some(u) = extract_import(stripped) {
                        imports.push(u);
                    }
                }
                if rest[end..].starts_with('{') {
                    // Skip a block at-rule wholesale (balanced braces).
                    rest = skip_block(&rest[end..]);
                } else {
                    rest = rest.get(end + 1..).unwrap_or("");
                }
                continue;
            }
            // Ordinary rule: selectors { declarations }.
            let Some(open) = rest.find('{') else {
                break; // trailing garbage without a block
            };
            let selector_text = &rest[..open];
            let after_open = &rest[open + 1..];
            let close = after_open.find('}').unwrap_or(after_open.len());
            let body = &after_open[..close];
            rest = after_open.get(close + 1..).unwrap_or("");

            let selectors: Vec<Selector> = selector_text
                .split(',')
                .filter_map(parse_selector)
                .collect();
            let declarations = parse_declarations(body, &mut urls);
            if !selectors.is_empty() && !declarations.is_empty() {
                rules.push(Rule {
                    selectors,
                    declarations,
                });
            }
        }

        CssParseResult {
            sheet: Stylesheet { rules, imports },
            bytes,
            urls,
        }
    }

    fn strip_comments(input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        let mut rest = input;
        while let Some(start) = rest.find("/*") {
            out.push_str(&rest[..start]);
            match rest[start + 2..].find("*/") {
                Some(end) => rest = &rest[start + 2 + end + 2..],
                None => return out,
            }
        }
        out.push_str(rest);
        out
    }

    fn parse_selector(text: &str) -> Option<Selector> {
        let mut parts = Vec::new();
        for chunk in text.split_whitespace() {
            if chunk == ">" || chunk == "+" || chunk == "~" {
                // Treat all combinators as descendant — close enough for cost
                // and geometry purposes.
                continue;
            }
            let mut simple = SimpleSelector::default();
            // Strip pseudo-classes/elements.
            let chunk = chunk.split(':').next().unwrap_or("");
            let mut cur = String::new();
            let mut mode = b' '; // ' ' = tag, '.' = class, '#' = id
            let flush = |mode: u8, cur: &mut String, s: &mut SimpleSelector| {
                if cur.is_empty() {
                    return;
                }
                match mode {
                    b'.' => s.classes.push(cur.clone()),
                    b'#' => s.id = Some(cur.clone()),
                    _ => {
                        if cur != "*" {
                            s.tag = Some(cur.to_ascii_lowercase());
                        }
                    }
                }
                cur.clear();
            };
            for ch in chunk.chars() {
                match ch {
                    '.' | '#' => {
                        flush(mode, &mut cur, &mut simple);
                        mode = ch as u8;
                    }
                    c if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '*' => {
                        cur.push(c)
                    }
                    _ => {
                        // Attribute selectors etc.: ignore the remainder.
                        break;
                    }
                }
            }
            flush(mode, &mut cur, &mut simple);
            parts.push(simple);
        }
        if parts.is_empty() {
            None
        } else {
            Some(Selector { parts })
        }
    }

    fn parse_declarations(body: &str, urls: &mut Vec<String>) -> Vec<Declaration> {
        let mut out = Vec::new();
        for decl in body.split(';') {
            let Some((name, value)) = decl.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name.is_empty() || value.is_empty() {
                continue;
            }
            urls.extend(urls_in_value(&value));
            out.push(Declaration { name, value });
        }
        out
    }

    fn extract_import(text: &str) -> Option<String> {
        let t = text.trim();
        if let Some(u) = urls_in_value(t).into_iter().next() {
            return Some(u);
        }
        // @import "path";
        let t = t.trim_start_matches(['"', '\'']);
        let end = t.find(['"', '\''])?;
        Some(t[..end].to_string())
    }

    /// Skips a balanced `{ ... }` block, returning the remainder.
    fn skip_block(rest: &str) -> &str {
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return rest.get(i + 1..).unwrap_or("");
                    }
                }
                _ => {}
            }
        }
        ""
    }

    /// The output of [`scan_urls`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CssScanResult {
        /// `url(...)` targets, in source order.
        pub urls: Vec<String>,
        /// `@import` targets (stylesheets to fetch and scan too).
        pub imports: Vec<String>,
        /// Bytes scanned (work accounting).
        pub bytes: usize,
    }

    /// Scans stylesheet text for fetchable references without parsing rules.
    pub fn scan_urls(input: &str) -> CssScanResult {
        let mut urls = Vec::new();
        let mut imports = Vec::new();
        let bytes = input.len();

        let b = input.as_bytes();
        let mut i = 0;
        while i < b.len() {
            // The scan advances byte-wise; only slice on char boundaries.
            if !input.is_char_boundary(i) {
                i += 1;
                continue;
            }
            // Skip comments so commented-out references are not fetched.
            if input[i..].starts_with("/*") {
                match input[i + 2..].find("*/") {
                    Some(end) => i += 2 + end + 2,
                    None => break,
                }
                continue;
            }
            if input[i..].starts_with("@import") {
                let end = input[i..].find(';').map_or(input.len(), |p| i + p);
                let head = &input[i + 7..end.min(input.len())];
                if let Some(u) = urls_in_value(head).into_iter().next() {
                    imports.push(u);
                } else if let Some(u) = quoted_string(head) {
                    imports.push(u);
                }
                i = end + 1;
                continue;
            }
            if has_url_at(input, i) {
                let (url, next) = read_url(input, i + 4);
                if let Some(u) = url {
                    urls.push(u);
                }
                i = next;
                continue;
            }
            i += 1;
        }

        CssScanResult {
            urls,
            imports,
            bytes,
        }
    }

    fn has_url_at(input: &str, i: usize) -> bool {
        input[i..].len() >= 4
            && input.as_bytes()[i..i + 3].eq_ignore_ascii_case(b"url")
            && input.as_bytes()[i + 3] == b'('
    }

    /// Reads the contents of `url( ... )` starting just past `url(`.
    /// Returns `(url, index_after_close_paren)`.
    fn read_url(input: &str, start: usize) -> (Option<String>, usize) {
        let rest = &input[start..];
        let close = match rest.find(')') {
            Some(p) => p,
            None => return (None, input.len()),
        };
        let raw = rest[..close].trim();
        let url = raw
            .trim_start_matches(['"', '\''])
            .trim_end_matches(['"', '\''])
            .trim();
        let next = start + close + 1;
        if url.is_empty() {
            (None, next)
        } else {
            (Some(url.to_string()), next)
        }
    }

    /// All `url(...)` values inside a declaration value (used by the full
    /// parser too, so both paths agree on what counts as a reference).
    fn urls_in_value(value: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < value.len() {
            if !value.is_char_boundary(i) {
                i += 1;
                continue;
            }
            if has_url_at(value, i) {
                let (url, next) = read_url(value, i + 4);
                if let Some(u) = url {
                    out.push(u);
                }
                i = next;
            } else {
                i += 1;
            }
        }
        out
    }

    fn quoted_string(text: &str) -> Option<String> {
        let t = text.trim();
        let first = t.find(['"', '\''])?;
        let quote = t.as_bytes()[first] as char;
        let rest = &t[first + 1..];
        let end = rest.find(quote)?;
        Some(rest[..end].to_string())
    }
}
