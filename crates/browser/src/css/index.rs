//! The rule index: which selectors an element needs to test at all.
//!
//! A full pass tests every selector of every rule against every element,
//! and that pass is what the style counters report. The host finds the
//! same matches while testing almost none of those selectors:
//!
//! * **Subject buckets.** Each selector is filed under one key of its
//!   subject (its last simple selector): the id, else the first class,
//!   else the tag. A subject with none of these is universal. An element
//!   matching the subject has that id among its `id` values, that class
//!   among the tokens of its first `class` attribute, and that tag,
//!   because [`matches`] requires each. So an element gathers candidates
//!   only from the buckets its own keys hit, plus the universal one.
//! * **Ancestor filter.** Every node carries a Bloom filter of its own
//!   keys and its ancestors'. A selector's ancestor parts must each match
//!   an ancestor, so each of their keys was inserted into the filter of
//!   the element's parent. A candidate with a key missing there is
//!   dropped before the [`matches`] walk.
//!
//! Keys are hashed. A collision can only add a candidate, which
//! [`matches`] then rejects, and a Bloom filter has no false negatives,
//! so no match is lost. The match attempts are computed rather than
//! performed: a rule none of whose selectors match costs its selector
//! count, and a matching rule costs its first matching selector's
//! position + 1, exactly what a scan stopping at the first match spends.
//! Candidates are tested in source order, so the first one of a rule
//! that matches is that first matching selector.

use super::parser::{RuleRef, SimpleSelector};
use super::selector::matches;
use crate::dom::{Document, NodeId, NodeKind};
use std::collections::HashMap;

/// The cascade key of one rule that matched an element: the matching
/// selector's specificity, then the rule's index in the sheet-ordered
/// rule list. The index makes it unique per rule.
pub(super) type Winner = ((usize, usize, usize), usize);

/// Key kinds, hashed in front of the name so that `#x`, `.x` and `x`
/// get different keys.
const ID: u8 = b'#';
const CLASS: u8 = b'.';
const TAG: u8 = b'<';

/// The hash of one selector key: FNV-1a over the kind and the name, then
/// a multiply that carries every input bit into the high bits the filter
/// takes.
fn key(kind: u8, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in std::iter::once(&kind).chain(name.as_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A 128-bit Bloom filter of keys, two bits per key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Filter([u64; 2]);

impl Filter {
    fn insert(&mut self, key: u64) {
        for bit in [key >> 57, (key >> 50) & 0x7f] {
            self.0[(bit >> 6) as usize] |= 1 << (bit & 63);
        }
    }

    /// Whether every bit set in `want` is set here: true whenever every
    /// key inserted into `want` was inserted here too.
    fn covers(&self, want: &Filter) -> bool {
        self.0
            .iter()
            .zip(&want.0)
            .all(|(have, want)| want & !have == 0)
    }
}

/// Calls `f` with the key of the tag, of every `id` value and of every
/// token of the first `class` attribute of node `id`: the keys a simple
/// selector matching the node can be filed under. A non-element has none.
fn for_each_key(doc: &Document, id: NodeId, mut f: impl FnMut(u64)) {
    let NodeKind::Element { tag, attrs } = &doc.node(id).kind else {
        return;
    };
    f(key(TAG, tag));
    for (name, value) in attrs {
        if name == "id" {
            f(key(ID, value));
        }
    }
    if let Some((_, classes)) = attrs.iter().find(|(name, _)| name == "class") {
        for class in classes.split_whitespace() {
            f(key(CLASS, class));
        }
    }
}

/// The bucket a selector with this subject is filed under: its id, else
/// its first class, else its tag; `None` files it as universal.
fn subject_key(subject: SimpleSelector<'_>) -> Option<u64> {
    if let Some(id) = subject.id() {
        Some(key(ID, id))
    } else if let Some(class) = subject.classes().next() {
        Some(key(CLASS, class))
    } else {
        subject.tag().map(|tag| key(TAG, tag))
    }
}

/// The rule index of one rule list and the filters of one document's
/// nodes. Both only grow: [`Matcher::update`] files the rules and nodes
/// added since its last call.
#[derive(Debug, Default)]
pub(super) struct Matcher {
    /// Per selector of the filed rules, numbered in source order: every
    /// key of its ancestor parts.
    ancestor_keys: Vec<Filter>,
    /// Per filed rule, the number of its first selector.
    rule_first: Vec<usize>,
    /// Subject key → numbers of the selectors filed under it, ascending.
    buckets: HashMap<u64, Vec<usize>>,
    /// Numbers of the selectors with a universal subject, ascending.
    universal: Vec<usize>,
    /// Per node: the keys of the node and of its ancestors.
    filters: Vec<Filter>,
    /// The candidates of the element being matched.
    candidates: Vec<usize>,
}

impl Matcher {
    /// Files the rules of `rules` beyond those filed so far and the nodes
    /// of `doc` beyond those seen so far. The rules filed before must be
    /// a prefix of `rules`, and the nodes seen before must be unchanged.
    pub(super) fn update(&mut self, doc: &Document, rules: &[RuleRef<'_>]) {
        for rule in rules.iter().skip(self.rule_first.len()) {
            self.rule_first.push(self.ancestor_keys.len());
            for sel in rule.selectors() {
                let n = self.ancestor_keys.len();
                let mut keys = Filter::default();
                // A selector without parts never matches; it is filed
                // nowhere but still numbered, since a scan tries it.
                if let Some((subject, parts)) = sel.split_last() {
                    for part in parts.parts() {
                        part_keys(part, &mut keys);
                    }
                    match subject_key(subject) {
                        Some(k) => self.buckets.entry(k).or_default().push(n),
                        None => self.universal.push(n),
                    }
                }
                self.ancestor_keys.push(keys);
            }
        }
        // A parent's id is below its children's, so it is filtered first.
        for id in self.filters.len()..doc.len() {
            let mut filter = doc
                .node(id)
                .parent
                .map_or_else(Filter::default, |p| self.filters[p]);
            for_each_key(doc, id, |k| filter.insert(k));
            self.filters.push(filter);
        }
    }

    /// Matches element `id` against `rules[from..]`, pushing the cascade
    /// key of each rule that matches onto `winners`, and returns the
    /// match attempts a full scan spends on them: one per selector tried,
    /// stopping at a rule's first matching selector. `rules` and `doc`
    /// must be those of the last [`Matcher::update`].
    pub(super) fn match_rules(
        &mut self,
        doc: &Document,
        id: NodeId,
        rules: &[RuleRef<'_>],
        from: usize,
        winners: &mut Vec<Winner>,
    ) -> usize {
        let first = self
            .rule_first
            .get(from)
            .map_or(self.ancestor_keys.len(), |&s| s);
        // The keys present on the element's ancestors.
        let present = doc
            .node(id)
            .parent
            .map_or_else(Filter::default, |p| self.filters[p]);
        let Matcher {
            ancestor_keys,
            rule_first,
            buckets,
            universal,
            candidates,
            ..
        } = self;
        candidates.clear();
        let mut gather = |bucket: &[usize]| {
            let start = bucket.partition_point(|&s| s < first);
            candidates.extend(
                bucket[start..]
                    .iter()
                    .filter(|&&s| present.covers(&ancestor_keys[s])),
            );
        };
        gather(universal);
        for_each_key(doc, id, |k| {
            if let Some(bucket) = buckets.get(&k) {
                gather(bucket);
            }
        });
        // Duplicate class tokens, several `id` attributes and colliding
        // keys can reach one bucket twice.
        candidates.sort_unstable();
        candidates.dedup();

        let mut attempts = ancestor_keys.len() - first;
        let mut matched = None;
        for &s in candidates.iter() {
            let rule = rule_first.partition_point(|&f| f <= s) - 1;
            let pos = s - rule_first[rule];
            if matched == Some(rule) {
                continue; // a scan stops at the rule's first match
            }
            let sel = rules[rule].selector(pos);
            if matches(doc, id, sel) {
                matched = Some(rule);
                winners.push((sel.specificity(), rule));
                attempts -= rules[rule].selector_count() - pos - 1;
            }
        }
        attempts
    }
}

/// Inserts every key of one ancestor part into `filter`.
fn part_keys(part: SimpleSelector<'_>, filter: &mut Filter) {
    if let Some(tag) = part.tag() {
        filter.insert(key(TAG, tag));
    }
    if let Some(id) = part.id() {
        filter.insert(key(ID, id));
    }
    for class in part.classes() {
        filter.insert(key(CLASS, class));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::parse;
    use crate::html;

    /// The bucket of the selector `text`'s subject.
    fn subject_key_of(text: &str) -> Option<u64> {
        let sheet = parse(&format!("{text} {{ color: red; }}")).sheet;
        let (subject, _) = sheet.rule(0).selector(0).split_last().unwrap();
        subject_key(subject)
    }

    #[test]
    fn subjects_are_filed_under_id_then_first_class_then_tag() {
        assert_eq!(subject_key_of("p.a#x.b"), Some(key(ID, "x")));
        assert_eq!(subject_key_of("p.a.b"), Some(key(CLASS, "a")));
        assert_eq!(subject_key_of("div p"), Some(key(TAG, "p")));
        assert_eq!(subject_key_of("a:hover"), Some(key(TAG, "a")));
        assert_eq!(subject_key_of("*"), None);
        assert_eq!(subject_key_of(":hover"), None);
        assert_ne!(key(ID, "x"), key(CLASS, "x"));
        assert_ne!(key(CLASS, "x"), key(TAG, "x"));
    }

    #[test]
    fn node_filters_hold_every_key_of_the_node_and_its_ancestors() {
        let doc =
            html::parse("<div id=\"top\" class=\"a b\" class=\"c\"><p class=\"d\">x</p></div>")
                .document;
        let mut m = Matcher::default();
        m.update(&doc, &[]);
        let p = doc
            .descendants()
            .into_iter()
            .find(|&id| doc.tag(id) == Some("p"))
            .unwrap();
        let mut want = Filter::default();
        for k in [
            key(TAG, "div"),
            key(ID, "top"),
            key(CLASS, "a"),
            key(CLASS, "b"),
            key(TAG, "p"),
            key(CLASS, "d"),
        ] {
            want.insert(k);
        }
        // Only the first `class` attribute counts, as in `matches`.
        assert_eq!(m.filters[p], want);
    }
}
