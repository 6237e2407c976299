//! Selector matching against the DOM.
//!
//! [`matches`] is the definition of a match. The style pass calls it only
//! on the candidates its rule index leaves (see `index.rs`), and the
//! index is exact because it drops only selectors `matches` would reject:
//! a subject's id, classes and tag are each necessary here, and so is
//! every key of every ancestor part.

use super::parser::{Selector, SimpleSelector};
use crate::dom::{Document, NodeId, NodeKind};

/// Whether `selector` matches the element `id` in `doc` (the last simple
/// selector must match the element, earlier ones must match ancestors in
/// order — descendant combinator semantics).
///
/// Non-element nodes never match.
pub fn matches(doc: &Document, id: NodeId, selector: Selector<'_>) -> bool {
    let Some((subject, ancestors)) = selector.split_last() else {
        return false;
    };
    if !matches_simple(doc, id, subject) {
        return false;
    }
    // Walk ancestors matching the remaining chain right-to-left;
    // parts `0..remaining` of `ancestors` are still unmatched.
    let mut remaining = ancestors.len();
    let mut current = doc.node(id).parent;
    while remaining > 0 {
        let Some(anc) = current else {
            return false; // ran out of ancestors with parts unmatched
        };
        if matches_simple(doc, anc, ancestors.part(remaining - 1)) {
            remaining -= 1;
        }
        current = doc.node(anc).parent;
    }
    true
}

fn matches_simple(doc: &Document, id: NodeId, simple: SimpleSelector<'_>) -> bool {
    let NodeKind::Element { tag, attrs } = &doc.node(id).kind else {
        return false;
    };
    if simple.tag().is_some_and(|want| tag != want) {
        return false;
    }
    if let Some(want_id) = simple.id() {
        let has = attrs.iter().any(|(k, v)| k == "id" && v == want_id);
        if !has {
            return false;
        }
    }
    let mut classes = simple.classes();
    if classes.len() > 0 {
        let class_attr = attrs
            .iter()
            .find(|(k, _)| k == "class")
            .map(|(_, v)| v.as_str())
            .unwrap_or("");
        if !classes.all(|want| class_attr.split_whitespace().any(|c| c == want)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::parse;

    /// Builds `<div id="top" class="wrap"><p class="c1 big">..<a>..</a></p></div>`.
    fn doc() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let div = d.append_element(
            d.root(),
            "div",
            vec![("id".into(), "top".into()), ("class".into(), "wrap".into())],
        );
        let p = d.append_element(div, "p", vec![("class".into(), "c1 big".into())]);
        let a = d.append_element(p, "a", vec![("href".into(), "#".into())]);
        (d, div, p, a)
    }

    /// Whether the selector `text` matches element `id`.
    fn hits(d: &Document, id: NodeId, text: &str) -> bool {
        let sheet = parse(&format!("{text} {{ color: red; }}")).sheet;
        matches(d, id, sheet.rule(0).selector(0))
    }

    #[test]
    fn tag_class_id_matching() {
        let (d, div, p, _) = doc();
        assert!(hits(&d, p, "p"));
        assert!(hits(&d, p, ".c1"));
        assert!(hits(&d, p, "p.big"));
        assert!(!hits(&d, p, "p.missing"));
        assert!(hits(&d, div, "#top"));
        assert!(hits(&d, div, "div#top.wrap"));
        assert!(!hits(&d, p, "#top"));
    }

    #[test]
    fn descendant_combinator() {
        let (d, _, p, a) = doc();
        assert!(hits(&d, p, ".wrap p"));
        assert!(hits(&d, a, "#top a"));
        assert!(hits(&d, a, "div p a"));
        assert!(!hits(&d, a, "span a"));
        assert!(!hits(&d, p, "p a"), "subject must be the element itself");
    }

    #[test]
    fn universal_matches_all_elements() {
        let (d, div, p, a) = doc();
        for id in [div, p, a] {
            assert!(hits(&d, id, "*"));
        }
        assert!(!hits(&d, d.root(), "*"), "root is not an element");
    }

    #[test]
    fn multi_class_requirement() {
        let (d, _, p, _) = doc();
        assert!(hits(&d, p, ".c1.big"));
        assert!(!hits(&d, p, ".c1.small"));
    }
}
