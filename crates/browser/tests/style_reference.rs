//! Differential test: the indexed cascade against a full scan.
//!
//! The reference below is the pass `css::compute_styles` ran before it had
//! a rule index: every selector of every rule against every element,
//! through the public `css::matches`, stopping at a rule's first matching
//! selector, then a copy of the fold. `compute_styles` and every chunking
//! of `compute_styles_for` must return the same styles, `match_attempts`
//! and `declarations_applied`:
//!
//! * on every corpus page at seeds 1, 7 and 42, after each sheet and each
//!   `document.write` step of its load;
//! * on hand-written documents for each indexing rule;
//! * on seeded random documents and sheets (a few hundred in debug
//!   builds, 20 000 in release).

use ewb_browser::css::{
    compute_styles, compute_styles_for, matches, parse, ComputedStyle, RuleRef, StyleResult,
    Stylesheet,
};
use ewb_browser::dom::{Document, NodeId, NodeKind};
use ewb_browser::html;
use ewb_browser::js::{self, JsEffect};
use ewb_simcore::Xoshiro256;
use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};
use std::collections::HashMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// The reference cascade.
// ---------------------------------------------------------------------

/// Matches every element against every selector of every rule and folds
/// the winners: rules in (specificity, source index) order, each rule's
/// declarations in its own order.
fn reference_styles(doc: &Document, sheets: &[&Stylesheet]) -> StyleResult {
    let rules: Vec<RuleRef<'_>> = sheets.iter().flat_map(|s| s.iter_rules()).collect();
    let mut out = StyleResult::default();
    for id in doc.descendants() {
        if !matches!(doc.node(id).kind, NodeKind::Element { .. }) {
            continue;
        }
        let mut winners = Vec::new();
        for (src_idx, rule) in rules.iter().enumerate() {
            for sel in rule.selectors() {
                out.match_attempts += 1;
                if matches(doc, id, sel) {
                    winners.push((sel.specificity(), src_idx));
                    break;
                }
            }
        }
        winners.sort_unstable();
        let mut style = ComputedStyle::default();
        for (_, src_idx) in winners {
            for d in rules[src_idx].declarations() {
                apply(&mut style, d.name, d.value);
                style.applied += 1;
            }
        }
        out.declarations_applied += style.applied;
        out.styles.insert(id, style);
    }
    out
}

fn apply(style: &mut ComputedStyle, name: &str, value: &str) {
    match name {
        "display" => style.display_none = value.eq_ignore_ascii_case("none"),
        "margin" => {
            if let Some(px) = first_px(value) {
                style.margin_px = px * 2.0;
            }
        }
        "padding" => {
            if let Some(px) = first_px(value) {
                style.padding_px = px;
            }
        }
        "font-size" => {
            if let Some(px) = first_px(value) {
                style.font_size_px = px.clamp(6.0, 64.0);
            }
        }
        "height" => style.height_px = first_px(value),
        "width" => style.width_px = first_px(value),
        _ => {}
    }
}

fn first_px(value: &str) -> Option<f64> {
    for token in value.split_whitespace() {
        if let Some(num) = token.strip_suffix("px") {
            if let Ok(v) = num.parse::<f64>() {
                if v.is_finite() && v >= 0.0 {
                    return Some(v);
                }
            }
        }
    }
    None
}

/// Which chunkings of the node list to check `compute_styles_for` on.
#[derive(Clone, Copy)]
enum Chunkings {
    /// Every chunk size from 1 to the node count.
    All,
    /// Splits into 1 to 4 near-equal chunks, as the parallel plan makes.
    Plan,
}

/// Asserts `compute_styles` and the chunked `compute_styles_for` equal
/// the reference on `doc` under `sheets`, and returns the reference.
fn assert_same(doc: &Document, sheets: &[&Stylesheet], chunkings: Chunkings) -> StyleResult {
    let want = reference_styles(doc, sheets);
    assert_eq!(compute_styles(doc, sheets), want, "whole document");
    let ids = doc.descendants();
    let sizes: Vec<usize> = match chunkings {
        Chunkings::All => (1..=ids.len()).collect(),
        Chunkings::Plan => (1..=4).map(|k| ids.len().div_ceil(k)).collect(),
    };
    for size in sizes {
        let mut merged = StyleResult::default();
        for chunk in ids.chunks(size) {
            let part = compute_styles_for(doc, sheets, chunk);
            merged.match_attempts += part.match_attempts;
            merged.declarations_applied += part.declarations_applied;
            merged.styles.extend(part.styles);
        }
        assert_eq!(merged, want, "chunk size {size}");
    }
    want
}

fn sheet(css: &str) -> Stylesheet {
    parse(css).sheet
}

fn element(doc: &Document, tag: &str, nth: usize) -> NodeId {
    doc.descendants()
        .into_iter()
        .filter(|&id| doc.tag(id) == Some(tag))
        .nth(nth)
        .unwrap_or_else(|| panic!("no <{tag}> #{nth}"))
}

fn attrs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

// ---------------------------------------------------------------------
// Corpus pages.
// ---------------------------------------------------------------------

#[test]
fn every_corpus_load_step_matches_the_reference() {
    let (mut pages, mut steps, mut writes) = (0, 0, 0);
    for seed in [1, 7, 42] {
        let corpus = benchmark_corpus(seed);
        for version in [PageVersion::Mobile, PageVersion::Full] {
            for page in corpus.pages(version) {
                pages += 1;
                let root = html::parse(&page.object(page.root_url()).unwrap().body);
                let mut doc = root.document;
                let mut sheets = Vec::new();
                let mut check = |doc: &Document, sheets: &[Stylesheet]| {
                    let refs: Vec<&Stylesheet> = sheets.iter().collect();
                    assert_same(doc, &refs, Chunkings::Plan);
                    steps += 1;
                };
                check(&doc, &sheets);
                for style in &root.inline_styles {
                    sheets.push(sheet(style));
                    check(&doc, &sheets);
                }
                let mut scripts = root.inline_scripts.clone();
                for obj in page.objects() {
                    match obj.kind {
                        ObjectKind::Css => {
                            sheets.push(sheet(&obj.body));
                            check(&doc, &sheets);
                        }
                        ObjectKind::Js => scripts.push(obj.body.clone()),
                        _ => {}
                    }
                }
                for script in &scripts {
                    for effect in js::execute(script, None).effects {
                        let JsEffect::DocumentWrite(fragment) = effect else {
                            continue;
                        };
                        writes += 1;
                        let written = html::parse(&fragment);
                        let at = doc.root();
                        doc.adopt(at, &written.document);
                        check(&doc, &sheets);
                        for style in &written.inline_styles {
                            sheets.push(sheet(style));
                            check(&doc, &sheets);
                        }
                    }
                }
                // The final document under every chunking.
                let refs: Vec<&Stylesheet> = sheets.iter().collect();
                let last = assert_same(&doc, &refs, Chunkings::All);
                assert!(last.declarations_applied > 0, "{}", page.root_url());
            }
        }
    }
    assert_eq!(pages, 60);
    assert!(steps > 5 * pages, "only {steps} steps");
    assert!(writes > 30, "only {writes} document.write fragments");
}

// ---------------------------------------------------------------------
// Hand-written documents, one per indexing rule.
// ---------------------------------------------------------------------

#[test]
fn id_class_tag_and_universal_subjects() {
    let doc = html::parse(
        "<div id=\"top\" class=\"wrap\"><p class=\"c1 big\" id=\"lead\">x</p>\
         <p>y</p><span class=\"big\">z</span><a>w</a></div>",
    )
    .document;
    let s = sheet(
        "#lead { margin: 1px; } .big { padding: 2px; } p { font-size: 11px; } \
         * { height: 3px; } #top .big { width: 4px; } a, * { margin: 5px; } \
         #nowhere { display: none; } .c1.big { font-size: 20px; }",
    );
    let out = assert_same(&doc, &[&s], Chunkings::All);
    let lead = element(&doc, "p", 0);
    assert_eq!(out.styles[&lead].margin_px, 2.0, "#lead beats `a, *`");
    assert_eq!(out.styles[&lead].font_size_px, 20.0);
    assert_eq!(out.styles[&element(&doc, "a", 0)].margin_px, 10.0);
    assert_eq!(out.styles[&element(&doc, "span", 0)].width_px, Some(4.0));
    assert_eq!(out.styles[&element(&doc, "div", 0)].height_px, Some(3.0));
}

#[test]
fn a_subject_with_two_classes_against_one_of_them() {
    let doc = html::parse(
        "<p class=\"b\">1</p><p class=\"a b\">2</p><p class=\"b a\">3</p>\
         <div class=\"a b\">4</div><p class=\"a\">5</p>",
    )
    .document;
    let s = sheet("p.a.b { margin: 1px; } .b { padding: 2px; } .b.a { height: 5px; }");
    let out = assert_same(&doc, &[&s], Chunkings::All);
    assert_eq!(out.styles[&element(&doc, "p", 0)].margin_px, 4.0);
    assert_eq!(out.styles[&element(&doc, "p", 1)].margin_px, 2.0);
    assert_eq!(out.styles[&element(&doc, "p", 2)].margin_px, 2.0);
    assert_eq!(out.styles[&element(&doc, "div", 0)].height_px, Some(5.0));
    assert_eq!(out.styles[&element(&doc, "p", 3)].padding_px, 0.0);
}

#[test]
fn a_failing_candidate_before_a_matching_selector_costs_both_attempts() {
    let doc = html::parse("<div><span><p class=\"q\">x</p></span></div>").document;
    // Each rule's first selector is a candidate of the <p> (filed under
    // `q` or `p`) that does not match; its second selector does.
    let rules = [
        "p.q.zz, .q { margin: 1px; }",
        "section p, p { padding: 2px; }",
        "div p.none, span p, p { height: 3px; }",
    ];
    let doc_elements = doc.element_count();
    for css in rules {
        let s = sheet(css);
        let out = assert_same(&doc, &[&s], Chunkings::All);
        let p = element(&doc, "p", 0);
        assert_eq!(out.styles[&p].applied, 1, "{css}");
        let selectors = s.rule(0).selector_count();
        // <p> stops at its second selector; the others try them all.
        assert_eq!(
            out.match_attempts,
            2 + (doc_elements - 1) * selectors,
            "{css}"
        );
    }
    // The cascade takes the specificity of the first matching selector:
    // `.q` (0,1,0), not `p.q` (0,1,1), so the later `p.q` rule wins.
    let s = sheet(".q, p.q { font-size: 30px; } p.q { font-size: 12px; }");
    let out = assert_same(&doc, &[&s], Chunkings::All);
    assert_eq!(out.styles[&element(&doc, "p", 0)].font_size_px, 12.0);
}

#[test]
fn duplicate_class_tokens() {
    let doc = html::parse("<p class=\"a a b a\">x</p><p class=\"b b\">y</p>").document;
    let s = sheet(
        ".a { margin: 1px; } .a.b { padding: 2px; } .b.a.a { height: 3px; } \
         .a, .b { width: 4px; } p.b, .a { font-size: 9px; }",
    );
    let out = assert_same(&doc, &[&s], Chunkings::All);
    let first = &out.styles[&element(&doc, "p", 0)];
    assert_eq!(first.applied, 5);
    assert_eq!(out.styles[&element(&doc, "p", 1)].applied, 2);
}

#[test]
fn two_class_or_two_id_attributes() {
    let mut doc = Document::new();
    let root = doc.root();
    let host = doc.append_element(
        root,
        "div",
        attrs(&[
            ("class", "outer"),
            ("class", "second"),
            ("id", "h1"),
            ("id", "h2"),
        ]),
    );
    let p = doc.append_element(
        host,
        "p",
        attrs(&[("id", "x"), ("class", "a"), ("id", "y"), ("class", "b")]),
    );
    doc.append_text(p, "text");
    let s = sheet(
        ".a { margin: 1px; } .b { padding: 2px; } #x { height: 3px; } #y { width: 4px; } \
         .second p { font-size: 20px; } #h2 p { display: none; } .outer #y { font-size: 8px; }",
    );
    let out = assert_same(&doc, &[&s], Chunkings::All);
    let style = &out.styles[&p];
    // Only the first `class` attribute counts; every `id` value does.
    assert_eq!(style.margin_px, 2.0);
    assert_eq!(style.padding_px, 0.0);
    assert_eq!((style.height_px, style.width_px), (Some(3.0), Some(4.0)));
    assert!(style.display_none);
    assert_eq!(style.font_size_px, 8.0);
}

#[test]
fn subjects_with_a_pseudo_class_stripped() {
    let doc =
        html::parse("<div class=\"nav\"><a class=\"c\" id=\"home\">h</a><p>t</p></div><a>bare</a>")
            .document;
    let s = sheet(
        "a:hover { margin: 1px; } .c:hover { padding: 2px; } :hover { height: 3px; } \
         #home:first-child { width: 4px; } p::before { font-size: 20px; } \
         .nav:hover a:visited { display: none; } :first-child p { font-size: 30px; }",
    );
    let out = assert_same(&doc, &[&s], Chunkings::All);
    let home = &out.styles[&element(&doc, "a", 0)];
    assert_eq!(home.applied, 5);
    assert!(home.display_none);
    assert_eq!(out.styles[&element(&doc, "p", 0)].font_size_px, 30.0);
    assert!(!out.styles[&element(&doc, "a", 1)].display_none);
}

#[test]
fn descendant_keys_that_collide_in_the_filter() {
    // An ancestor with hundreds of classes sets nearly every filter bit,
    // so absent ancestor keys pass the filter and only the walk rejects
    // them; present ones must still match.
    let mut classes = String::new();
    for k in 0..400 {
        let _ = write!(classes, "k{k} ");
    }
    let markup = format!("<div class=\"{classes}\"><section><p class=\"t\">x</p></section></div>");
    let doc = html::parse(&markup).document;
    let mut css = String::new();
    for k in 0..60 {
        let _ = write!(
            css,
            ".absent{k} p, #none{k} .t, i{k} p {{ margin: {k}px; }} "
        );
    }
    css.push_str(
        ".k17 p { padding: 2px; } .k399 section .t { height: 5px; } .k3 div p { width: 1px; }",
    );
    let s = sheet(&css);
    let out = assert_same(&doc, &[&s], Chunkings::All);
    let p = &out.styles[&element(&doc, "p", 0)];
    assert_eq!(p.applied, 2);
    assert_eq!(
        (p.padding_px, p.height_px, p.width_px),
        (2.0, Some(5.0), None)
    );
}

#[test]
fn rules_split_across_sheets_and_empty_inputs() {
    let doc = html::parse("<ul id=\"l\"><li class=\"i\">1</li><li>2</li></ul>").document;
    let a = sheet("li { margin: 1px; } #l li { padding: 1px; }");
    let b = sheet("");
    let c = sheet(".i, li, ul { margin: 7px; } * { font-size: 5px; }");
    assert_same(&doc, &[], Chunkings::All);
    assert_same(&doc, &[&b], Chunkings::All);
    assert_same(&doc, &[&a, &b, &c], Chunkings::All);
    assert_same(&doc, &[&c, &a], Chunkings::All);
    assert_same(&Document::new(), &[&a, &c], Chunkings::All);
}

// ---------------------------------------------------------------------
// Seeded random documents and sheets.
// ---------------------------------------------------------------------

const TAGS: &[&str] = &["div", "p", "a", "span", "li"];
const CLASSES: &[&str] = &["a", "b", "c", "d"];
const IDS: &[&str] = &["x", "y", "z"];
const PSEUDOS: &[&str] = &[":hover", ":first-child", "::before"];
const DECLS: &[&str] = &[
    "margin: 3px",
    "padding: 2px",
    "font-size: 18px",
    "display: none",
    "height: 40px",
    "width: 7px",
    "color: red",
];

fn pick<'a>(rng: &mut Xoshiro256, items: &[&'a str]) -> &'a str {
    items[rng.usize_below(items.len())]
}

/// A random tree: elements with repeated, missing or duplicated `class`
/// and `id` attributes, and text nodes.
fn random_document(rng: &mut Xoshiro256) -> Document {
    let mut doc = Document::new();
    let mut parents = vec![doc.root()];
    for _ in 0..1 + rng.usize_below(30) {
        let parent = parents[rng.usize_below(parents.len())];
        if rng.chance(0.15) {
            doc.append_text(parent, "t");
            continue;
        }
        let mut attrs = Vec::new();
        for _ in 0..rng.usize_below(4) {
            if rng.chance(0.6) {
                let tokens: Vec<&str> = (0..rng.usize_below(4))
                    .map(|_| pick(rng, CLASSES))
                    .collect();
                attrs.push(("class".to_string(), tokens.join(" ")));
            } else {
                attrs.push(("id".to_string(), pick(rng, IDS).to_string()));
            }
        }
        let tag = pick(rng, TAGS);
        parents.push(doc.append_element(parent, tag, attrs));
    }
    doc
}

/// One random simple selector's text; may be empty (`a :hover`-style).
fn random_simple(rng: &mut Xoshiro256, out: &mut String) {
    match rng.usize_below(4) {
        0 => out.push('*'),
        1 | 2 => out.push_str(pick(rng, TAGS)),
        _ => {}
    }
    for _ in 0..rng.usize_below(3) {
        let _ = write!(out, ".{}", pick(rng, CLASSES));
    }
    if rng.chance(0.25) {
        let _ = write!(out, "#{}", pick(rng, IDS));
    }
    if rng.chance(0.15) {
        out.push_str(pick(rng, PSEUDOS));
    }
}

fn random_sheet(rng: &mut Xoshiro256) -> String {
    let mut css = String::new();
    for _ in 0..rng.usize_below(8) {
        for s in 0..1 + rng.usize_below(4) {
            if s > 0 {
                css.push_str(", ");
            }
            for p in 0..1 + rng.usize_below(3) {
                if p > 0 {
                    css.push_str(if rng.chance(0.2) { " > " } else { " " });
                }
                random_simple(rng, &mut css);
            }
        }
        css.push_str(" { ");
        for _ in 0..1 + rng.usize_below(3) {
            let _ = write!(css, "{}; ", pick(rng, DECLS));
        }
        css.push_str("}\n");
    }
    css
}

#[test]
fn random_documents_and_sheets_match_the_reference() {
    let cases = if cfg!(debug_assertions) { 400 } else { 20_000 };
    let mut rng = Xoshiro256::seed_from_u64(0x18_2013);
    let (mut matched, mut unmatched) = (0usize, 0usize);
    let mut rules_seen: HashMap<usize, usize> = HashMap::new();
    for _ in 0..cases {
        let doc = random_document(&mut rng);
        let sheets: Vec<Stylesheet> = (0..rng.usize_below(4))
            .map(|_| sheet(&random_sheet(&mut rng)))
            .collect();
        let refs: Vec<&Stylesheet> = sheets.iter().collect();
        let out = assert_same(&doc, &refs, Chunkings::All);
        for style in out.styles.values() {
            if style.applied > 0 {
                matched += 1;
            } else {
                unmatched += 1;
            }
        }
        let rules: usize = sheets.iter().map(|s| s.rules.len()).sum();
        *rules_seen.entry(rules.min(10)).or_default() += 1;
    }
    // Enough elements land on each side of the cascade to mean something.
    assert!(matched > cases, "{matched} styled elements");
    assert!(unmatched > cases, "{unmatched} unstyled elements");
    assert!(rules_seen.len() > 5, "rule counts {rules_seen:?}");
}
