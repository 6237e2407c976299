//! Style formatting: assigning computed styles to DOM nodes.
//!
//! §2.2: "After the CSS code has been parsed, the style and layout
//! properties are assigned to these nodes in the DOM tree." The cascade
//! here is simplified (specificity, then source order) but real: every
//! element is matched against every rule, which is exactly the cost the
//! paper's layout-computation category pays.
//!
//! The counted work and the host work differ on purpose. Every style pass
//! reports the match attempts and applied declarations of a full pass,
//! because that is what the simulated browser spends on each redraw. The
//! host does much less, in two ways:
//!
//! * It matches each (element, rule) pair only once per load:
//!   `StyleMemo` keeps each element's winning rules across restyles and
//!   matches only what is new, since within a load the document only
//!   grows and the sheets only append.
//! * Matching goes through a rule index (`index.rs`): an element tests
//!   only the selectors filed under its own id, class and tag keys, and
//!   only those whose ancestor keys its ancestors' Bloom filter holds.
//!   The attempts a full scan spends are computed, not performed.

use super::index::{Matcher, Winner};
use super::parser::{RuleRef, Stylesheet};
use crate::dom::{Document, NodeId, NodeKind};
use std::collections::HashMap;

/// The layout-relevant computed style of one element.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputedStyle {
    /// `display: none` removes the subtree from layout.
    pub display_none: bool,
    /// Vertical margin in pixels (top + bottom combined).
    pub margin_px: f64,
    /// Padding in pixels (all sides).
    pub padding_px: f64,
    /// Font size in pixels.
    pub font_size_px: f64,
    /// Explicit height (e.g. CSS-sized hero images), if any.
    pub height_px: Option<f64>,
    /// Explicit width, if any.
    pub width_px: Option<f64>,
    /// Number of declarations that applied (cascade accounting).
    pub applied: usize,
}

impl Default for ComputedStyle {
    fn default() -> Self {
        ComputedStyle {
            display_none: false,
            margin_px: 4.0,
            padding_px: 0.0,
            font_size_px: 14.0,
            height_px: None,
            width_px: None,
            applied: 0,
        }
    }
}

/// The output of [`compute_styles`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StyleResult {
    /// Computed style per element node.
    pub styles: HashMap<NodeId, ComputedStyle>,
    /// Total selector-match attempts — the work unit priced by the cost
    /// model. Each (element, rule) pair costs one attempt per selector
    /// tried: a rule stops at its first matching selector, so this is at
    /// most elements × selectors.
    pub match_attempts: usize,
    /// Total declarations applied.
    pub declarations_applied: usize,
}

/// Matches every element against every rule of every sheet and folds the
/// winning declarations into computed styles.
pub fn compute_styles(doc: &Document, sheets: &[&Stylesheet]) -> StyleResult {
    compute_styles_for(doc, sheets, &doc.descendants())
}

/// [`compute_styles`] restricted to the nodes in `ids` (non-elements are
/// skipped). Each node is styled independently, so a document's node list
/// can be split into chunks, resolved on separate cores, and the partial
/// results merged: the style maps are disjoint and the counters sum to
/// exactly the whole-document totals. Each call builds its own rule
/// index.
pub fn compute_styles_for(doc: &Document, sheets: &[&Stylesheet], ids: &[NodeId]) -> StyleResult {
    let rules = rule_list(sheets);
    let mut matcher = Matcher::default();
    matcher.update(doc, &rules);
    let mut out = StyleResult::default();
    let mut winners = Vec::new();
    for &id in ids {
        if !is_element(doc, id) {
            continue;
        }
        winners.clear();
        out.match_attempts += matcher.match_rules(doc, id, &rules, 0, &mut winners);
        let style = fold(&rules, &mut winners);
        out.declarations_applied += style.applied;
        out.styles.insert(id, style);
    }
    out
}

/// Incremental restyling of one page load.
///
/// [`StyleMemo::restyle`] returns exactly what [`compute_styles`] returns
/// for the same document and sheets, counters included, but it matches
/// each (element, rule) pair only once over the memo's life: an element
/// styled before is matched only against the rules of sheets appended
/// since, and its style is refolded only when that adds a winning rule.
///
/// That is exact because within one load the document only grows (nodes
/// are appended under existing ones, never removed or edited) and the
/// sheets only append. So an element's tag, attributes and ancestors are
/// fixed once it exists, and a rule is fixed once its sheet is pushed.
/// `restyle` asserts the checkable half of this: the node count and the
/// sheet count never shrink, and every sheet seen before keeps its rule
/// count. The same facts let the memo keep its rule index and its node
/// filters across restyles, adding only the new rules and nodes.
#[derive(Debug, Default)]
pub(crate) struct StyleMemo {
    /// Per node id: the winning rules among those matched so far (empty
    /// for non-elements). Every node below `winners.len()` has been
    /// matched against every rule of the sheets in `sheet_rules`.
    winners: Vec<Vec<Winner>>,
    /// Rule count of every sheet seen so far, in order.
    sheet_rules: Vec<usize>,
    /// The rule index and node filters of the rules and nodes seen so far.
    matcher: Matcher,
    /// The styles and the full-pass counters, kept up to date.
    result: StyleResult,
}

impl StyleMemo {
    /// Styles `doc` under `sheets`, matching only the (element, rule)
    /// pairs not matched before.
    ///
    /// # Panics
    ///
    /// Panics if `doc` has fewer nodes or `sheets` fewer sheets than at
    /// the previous restyle, or if a sheet seen before changed its rule
    /// count.
    pub(crate) fn restyle(&mut self, doc: &Document, sheets: &[&Stylesheet]) -> &StyleResult {
        let old_nodes = self.winners.len();
        let old_rules: usize = self.sheet_rules.iter().sum();
        assert!(
            doc.len() >= old_nodes,
            "restyle: the document shrank from {old_nodes} to {} nodes",
            doc.len()
        );
        assert!(
            sheets.len() >= self.sheet_rules.len(),
            "restyle: the sheet list shrank from {} to {}",
            self.sheet_rules.len(),
            sheets.len()
        );
        for (i, (sheet, &n)) in sheets.iter().zip(&self.sheet_rules).enumerate() {
            let now = sheet.rules.len();
            assert_eq!(now, n, "restyle: sheet {i} changed its rule count");
        }
        self.sheet_rules = sheets.iter().map(|s| s.rules.len()).collect();
        let rules = rule_list(sheets);
        self.matcher.update(doc, &rules);
        self.winners.resize_with(doc.len(), Vec::new);
        // With no new rules, only the new nodes have anything to match.
        let first = if rules.len() == old_rules {
            old_nodes
        } else {
            0
        };
        for id in first..doc.len() {
            if !is_element(doc, id) {
                continue;
            }
            let is_new = id >= old_nodes;
            let winners = &mut self.winners[id];
            let before = winners.len();
            let from = if is_new { 0 } else { old_rules };
            self.result.match_attempts += self.matcher.match_rules(doc, id, &rules, from, winners);
            if !is_new && winners.len() == before {
                continue;
            }
            let style = fold(&rules, winners);
            self.result.declarations_applied += style.applied;
            if let Some(old) = self.result.styles.insert(id, style) {
                self.result.declarations_applied -= old.applied;
            }
        }
        &self.result
    }
}

/// Every rule of every sheet, in cascade source order.
fn rule_list<'s>(sheets: &[&'s Stylesheet]) -> Vec<RuleRef<'s>> {
    sheets.iter().flat_map(|s| s.iter_rules()).collect()
}

fn is_element(doc: &Document, id: NodeId) -> bool {
    matches!(doc.node(id).kind, NodeKind::Element { .. })
}

/// Folds an element's winning rules into its computed style: rules in
/// cascade order (specificity, then source order), each rule's
/// declarations in its own order. Sorts `winners` in place.
fn fold(rules: &[RuleRef<'_>], winners: &mut [Winner]) -> ComputedStyle {
    winners.sort_unstable();
    let mut style = ComputedStyle::default();
    for &(_, src_idx) in winners.iter() {
        for d in rules[src_idx].declarations() {
            apply(&mut style, d.name, d.value);
            style.applied += 1;
        }
    }
    style
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

/// Extracts the first `<number>px` in a value.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::parse;
    use crate::html;

    #[test]
    fn applies_matching_declarations() {
        let r = html::parse("<div class=\"wrap\"><p class=\"c1\">x</p></div>");
        let css = parse(".wrap p { font-size: 20px; margin: 6px; } .c1 { padding: 3px; }");
        let out = compute_styles(&r.document, &[&css.sheet]);
        let p = r
            .document
            .descendants()
            .into_iter()
            .find(|&id| r.document.tag(id) == Some("p"))
            .unwrap();
        let style = &out.styles[&p];
        assert_eq!(style.font_size_px, 20.0);
        assert_eq!(style.margin_px, 12.0);
        assert_eq!(style.padding_px, 3.0);
        assert_eq!(style.applied, 3);
        assert!(out.match_attempts >= 4, "2 elements x 2 rules");
    }

    #[test]
    fn cascade_specificity_wins_over_source_order() {
        let r = html::parse("<p class=\"c1\">x</p>");
        let css = parse(".c1 { font-size: 22px; } p { font-size: 10px; }");
        let out = compute_styles(&r.document, &[&css.sheet]);
        let p = r
            .document
            .descendants()
            .into_iter()
            .find(|&id| r.document.tag(id) == Some("p"))
            .unwrap();
        // .c1 (0,1,0) beats p (0,0,1) despite earlier source position.
        assert_eq!(out.styles[&p].font_size_px, 22.0);
    }

    #[test]
    fn later_source_wins_at_equal_specificity() {
        let r = html::parse("<p>x</p>");
        let css = parse("p { font-size: 10px; } p { font-size: 18px; }");
        let out = compute_styles(&r.document, &[&css.sheet]);
        let p = r
            .document
            .descendants()
            .into_iter()
            .find(|&id| r.document.tag(id) == Some("p"))
            .unwrap();
        assert_eq!(out.styles[&p].font_size_px, 18.0);
    }

    #[test]
    fn display_none_and_explicit_geometry() {
        let r = html::parse("<div class=\"hide\">x</div><div class=\"hero0\">y</div>");
        let css = parse(".hide { display: none; } .hero0 { height: 150px; width: 300px; }");
        let out = compute_styles(&r.document, &[&css.sheet]);
        let divs: Vec<_> = r
            .document
            .descendants()
            .into_iter()
            .filter(|&id| r.document.tag(id) == Some("div"))
            .collect();
        assert!(out.styles[&divs[0]].display_none);
        assert_eq!(out.styles[&divs[1]].height_px, Some(150.0));
        assert_eq!(out.styles[&divs[1]].width_px, Some(300.0));
    }

    #[test]
    fn unstyled_elements_get_defaults() {
        let r = html::parse("<p>x</p>");
        let out = compute_styles(&r.document, &[]);
        let p = r
            .document
            .descendants()
            .into_iter()
            .find(|&id| r.document.tag(id) == Some("p"))
            .unwrap();
        assert_eq!(out.styles[&p], ComputedStyle::default());
        assert_eq!(out.declarations_applied, 0);
    }

    #[test]
    fn chunked_resolution_merges_to_the_whole_document_result() {
        let r = html::parse(
            "<div class=\"wrap\"><p class=\"c1\">x</p><p>y</p><span class=\"c1\">z</span></div>",
        );
        let css = parse(".wrap p { font-size: 20px; } .c1 { padding: 3px; } p { margin: 2px; }");
        let sheets = [&css.sheet];
        let whole = compute_styles(&r.document, &sheets);
        let ids = r.document.descendants();
        for chunk_size in 1..=ids.len() {
            let mut styles = HashMap::new();
            let mut match_attempts = 0;
            let mut declarations_applied = 0;
            for chunk in ids.chunks(chunk_size) {
                let part = compute_styles_for(&r.document, &sheets, chunk);
                match_attempts += part.match_attempts;
                declarations_applied += part.declarations_applied;
                styles.extend(part.styles);
            }
            assert_eq!(styles, whole.styles, "chunk_size={chunk_size}");
            assert_eq!(match_attempts, whole.match_attempts);
            assert_eq!(declarations_applied, whole.declarations_applied);
        }
    }

    #[test]
    fn first_px_parsing() {
        assert_eq!(first_px("12px"), Some(12.0));
        assert_eq!(first_px("0 auto 3px"), Some(3.0));
        assert_eq!(first_px("red"), None);
        assert_eq!(first_px("-5px"), None, "negative rejected");
    }

    /// Restyles through `memo` and checks the result against a full pass.
    fn check(memo: &mut StyleMemo, doc: &Document, sheets: &[&Stylesheet]) -> StyleResult {
        let got = memo.restyle(doc, sheets).clone();
        assert_eq!(got, compute_styles(doc, sheets));
        got
    }

    fn first_tag(doc: &Document, tag: &str) -> NodeId {
        doc.descendants()
            .into_iter()
            .find(|&id| doc.tag(id) == Some(tag))
            .unwrap()
    }

    #[test]
    fn memo_equals_a_full_pass_as_the_document_and_sheets_grow() {
        let mut doc = html::parse(
            "<div class=\"wrap\"><p class=\"c1\">x</p><span>no rule matches</span></div>",
        )
        .document;
        let s1 = parse(".wrap p { font-size: 20px; } .c1 { padding: 3px; }").sheet;
        let s2 = parse("p { font-size: 10px; margin: 1px; }").sheet;
        let empty = parse("").sheet;
        let s3 = parse(".c1 { display: none; }").sheet;
        let s4 = parse("h1, span { margin: 5px; }").sheet;
        let mut memo = StyleMemo::default();

        check(&mut memo, &doc, &[]);
        let first = check(&mut memo, &doc, &[&s1]);
        let span = first_tag(&doc, "span");
        assert_eq!(first.styles[&span], ComputedStyle::default());
        // Nothing new: the same result, no extra work counted.
        assert_eq!(check(&mut memo, &doc, &[&s1]), first);

        // A later sheet's lower-specificity rule sorts before the earlier
        // `.wrap p` winner, so the font size stays 20px.
        let out = check(&mut memo, &doc, &[&s1, &s2]);
        let p = first_tag(&doc, "p");
        assert_eq!(out.styles[&p].font_size_px, 20.0);
        assert_eq!(out.styles[&p].margin_px, 2.0);
        check(&mut memo, &doc, &[&s1, &s2, &empty]);

        // Nodes adopted under the root after earlier restyles.
        let root = doc.root();
        doc.adopt(
            root,
            &html::parse("<p class=\"c1\">new</p><em>bare</em>").document,
        );
        check(&mut memo, &doc, &[&s1, &s2, &empty]);

        let out = check(&mut memo, &doc, &[&s1, &s2, &empty, &s3]);
        assert!(out.styles[&p].display_none);

        // `h1, span`: no h1 exists, so every element tries both selectors.
        let before = out.match_attempts;
        let out = check(&mut memo, &doc, &[&s1, &s2, &empty, &s3, &s4]);
        let elements = doc.element_count();
        assert_eq!(out.match_attempts - before, 2 * elements);
        assert_eq!(out.styles[&span].margin_px, 10.0);
    }

    #[test]
    fn memo_equals_a_full_pass_over_the_corpus() {
        use crate::js::{self, JsEffect};
        use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};

        let (mut pages, mut writes) = (0, 0);
        for seed in [1, 7] {
            let corpus = benchmark_corpus(seed);
            for version in [PageVersion::Mobile, PageVersion::Full] {
                for page in corpus.pages(version) {
                    let root = html::parse(&page.object(page.root_url()).unwrap().body);
                    let mut doc = root.document;
                    let mut sheets = Vec::new();
                    pages += 1;
                    let mut memo = StyleMemo::default();
                    let mut restyle = |doc: &Document, sheets: &[Stylesheet]| {
                        let refs: Vec<&Stylesheet> = sheets.iter().collect();
                        check(&mut memo, doc, &refs);
                    };
                    restyle(&doc, &sheets);
                    for style in &root.inline_styles {
                        sheets.push(parse(style).sheet);
                        restyle(&doc, &sheets);
                    }
                    let mut scripts = root.inline_scripts.clone();
                    for obj in page.objects() {
                        match obj.kind {
                            ObjectKind::Css => {
                                sheets.push(parse(&obj.body).sheet);
                                restyle(&doc, &sheets);
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
                            restyle(&doc, &sheets);
                            for style in &written.inline_styles {
                                sheets.push(parse(style).sheet);
                                restyle(&doc, &sheets);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(pages, 40);
        assert!(writes > 20, "only {writes} document.write fragments");
    }

    #[test]
    #[should_panic(expected = "the document shrank")]
    fn memo_rejects_a_shrinking_document() {
        let big = html::parse("<p>a</p><p>b</p>").document;
        let small = html::parse("<p>a</p>").document;
        let mut memo = StyleMemo::default();
        memo.restyle(&big, &[]);
        memo.restyle(&small, &[]);
    }

    #[test]
    #[should_panic(expected = "the sheet list shrank")]
    fn memo_rejects_a_shrinking_sheet_list() {
        let doc = html::parse("<p>a</p>").document;
        let (a, b) = (parse("p { margin: 1px; }").sheet, parse("").sheet);
        let mut memo = StyleMemo::default();
        memo.restyle(&doc, &[&a, &b]);
        memo.restyle(&doc, &[&a]);
    }

    #[test]
    #[should_panic(expected = "changed its rule count")]
    fn memo_rejects_a_sheet_that_changed() {
        let doc = html::parse("<p>a</p>").document;
        let a = parse("p { margin: 1px; }").sheet;
        let b = parse("p { margin: 1px; } p { padding: 2px; }").sheet;
        let mut memo = StyleMemo::default();
        memo.restyle(&doc, &[&a]);
        memo.restyle(&doc, &[&b]);
    }
}
