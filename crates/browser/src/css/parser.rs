//! The CSS parser: stylesheet text → one text and flat index arrays.
//!
//! [`parse`] copies the sheet once, leaving out its comments, and
//! lower-cases tag and property names in that copy. Rules, selectors,
//! simple selectors, classes and declarations are index ranges into a few
//! flat `Vec`s the [`Stylesheet`] owns, and every name and value is a
//! byte span of its text, so a sheet costs a handful of allocations
//! however many rules it has. The span format stays in this module: the
//! views ([`RuleRef`], [`Selector`], [`SimpleSelector`], [`Declaration`])
//! borrow the sheet and hand out `&str`s.

use super::scan::urls_in;
use std::ops::Range;

/// A half-open range: bytes of a sheet's text, or entries of one of its
/// arrays. An empty tag or id span means the part has none, since the
/// parser never records an empty name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// `start..end` of entries pushed since an array had `start`.
    fn since(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// The span of `sub`, a slice of `base`.
    fn of(base: &str, sub: &str) -> Span {
        let start = sub.as_ptr() as usize - base.as_ptr() as usize;
        debug_assert!(start + sub.len() <= base.len(), "not a slice of the text");
        Span::since(start, start + sub.len())
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// One simple selector: spans of its tag and id, and its range of the
/// sheet's classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Part {
    tag: Span,
    id: Span,
    classes: Span,
}

/// One rule: its range of the sheet's selectors and its range of the
/// sheet's declarations. Read it through [`Stylesheet::rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    selectors: Span,
    declarations: Span,
}

/// A parsed stylesheet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stylesheet {
    /// The sheet without comments, tag and property names lower-cased.
    text: String,
    /// Rules in source order.
    pub rules: Vec<Rule>,
    /// Per selector, its range of `parts`.
    selectors: Vec<Span>,
    /// Simple selectors; each selector's outermost ancestor comes first.
    parts: Vec<Part>,
    /// Class names, as spans of `text`.
    classes: Vec<Span>,
    /// Per declaration, the spans of its name and of its value.
    declarations: Vec<(Span, Span)>,
    /// `@import` targets.
    pub imports: Vec<String>,
}

impl Stylesheet {
    /// Total number of declarations across all rules.
    pub fn declaration_count(&self) -> usize {
        self.declarations.len()
    }

    /// Rule `i` in source order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rules.len()`.
    pub fn rule(&self, i: usize) -> RuleRef<'_> {
        RuleRef {
            sheet: self,
            rule: self.rules[i],
        }
    }

    /// Every rule in source order.
    pub fn iter_rules(&self) -> impl ExactSizeIterator<Item = RuleRef<'_>> {
        self.rules.iter().map(|&rule| RuleRef { sheet: self, rule })
    }

    fn slice(&self, span: Span) -> &str {
        &self.text[span.range()]
    }
}

/// One rule of a [`Stylesheet`]: selectors sharing a declaration block.
#[derive(Debug, Clone, Copy)]
pub struct RuleRef<'s> {
    sheet: &'s Stylesheet,
    rule: Rule,
}

impl<'s> RuleRef<'s> {
    /// Number of selectors in the comma-separated list.
    pub fn selector_count(self) -> usize {
        self.rule.selectors.range().len()
    }

    /// Selector `i` of the list.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.selector_count()`.
    pub fn selector(self, i: usize) -> Selector<'s> {
        let parts = self.sheet.selectors[self.rule.selectors.range()][i];
        Selector {
            sheet: self.sheet,
            parts: &self.sheet.parts[parts.range()],
        }
    }

    /// The selector list, in source order.
    pub fn selectors(self) -> impl ExactSizeIterator<Item = Selector<'s>> {
        (0..self.selector_count()).map(move |i| self.selector(i))
    }

    /// The declarations, in source order.
    pub fn declarations(self) -> impl ExactSizeIterator<Item = Declaration<'s>> {
        let sheet = self.sheet;
        sheet.declarations[self.rule.declarations.range()]
            .iter()
            .map(move |&(name, value)| Declaration {
                name: sheet.slice(name),
                value: sheet.slice(value),
            })
    }
}

/// A selector: a chain of simple selectors joined by descendant
/// combinators, e.g. `.wrap p` = `[.wrap, p]`, outermost ancestor first;
/// the last one is the subject. Pseudo-classes (`:hover`) are parsed and
/// ignored for matching, as a non-interactive engine would.
#[derive(Debug, Clone, Copy)]
pub struct Selector<'s> {
    sheet: &'s Stylesheet,
    parts: &'s [Part],
}

impl<'s> Selector<'s> {
    /// Number of simple selectors in the chain.
    pub fn len(self) -> usize {
        self.parts.len()
    }

    /// Whether the chain is empty (a parsed selector never is).
    pub fn is_empty(self) -> bool {
        self.parts.is_empty()
    }

    /// Simple selector `i` of the chain.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn part(self, i: usize) -> SimpleSelector<'s> {
        SimpleSelector {
            sheet: self.sheet,
            part: self.parts[i],
        }
    }

    /// The chain, outermost ancestor first.
    pub fn parts(self) -> impl DoubleEndedIterator<Item = SimpleSelector<'s>> + ExactSizeIterator {
        (0..self.len()).map(move |i| self.part(i))
    }

    /// The subject and the chain of ancestor parts before it, or `None`
    /// for an empty chain.
    pub fn split_last(self) -> Option<(SimpleSelector<'s>, Selector<'s>)> {
        let (last, rest) = self.parts.split_last()?;
        let subject = SimpleSelector {
            sheet: self.sheet,
            part: *last,
        };
        Some((
            subject,
            Selector {
                parts: rest,
                ..self
            },
        ))
    }

    /// Specificity as (ids, classes, tags) — enough for cascade ordering.
    pub fn specificity(self) -> (usize, usize, usize) {
        let mut ids = 0;
        let mut classes = 0;
        let mut tags = 0;
        for p in self.parts {
            ids += usize::from(!p.id.is_empty());
            classes += p.classes.range().len();
            tags += usize::from(!p.tag.is_empty());
        }
        (ids, classes, tags)
    }
}

/// One simple selector: optional tag, classes, optional id.
#[derive(Debug, Clone, Copy)]
pub struct SimpleSelector<'s> {
    sheet: &'s Stylesheet,
    part: Part,
}

impl<'s> SimpleSelector<'s> {
    /// Tag name to match (lower-cased), or `None` for `*`/any.
    pub fn tag(self) -> Option<&'s str> {
        (!self.part.tag.is_empty()).then(|| self.sheet.slice(self.part.tag))
    }

    /// Required id.
    pub fn id(self) -> Option<&'s str> {
        (!self.part.id.is_empty()).then(|| self.sheet.slice(self.part.id))
    }

    /// Required classes, in source order.
    pub fn classes(self) -> impl ExactSizeIterator<Item = &'s str> {
        let sheet = self.sheet;
        sheet.classes[self.part.classes.range()]
            .iter()
            .map(move |&c| sheet.slice(c))
    }

    /// Whether this selector has no constraints (matches everything).
    pub fn is_universal(self) -> bool {
        self.part.tag.is_empty() && self.part.classes.is_empty() && self.part.id.is_empty()
    }
}

/// `name: value` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declaration<'s> {
    /// Property name, lower-cased.
    pub name: &'s str,
    /// Raw value text, trimmed.
    pub value: &'s str,
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
/// next `}` as the CSS error-recovery rules prescribe.
///
/// # Panics
///
/// Panics on a sheet of 4 GiB or more, which its 32-bit spans cannot
/// address; any shorter input parses.
pub fn parse(input: &str) -> CssParseResult {
    assert!(
        u32::try_from(input.len()).is_ok(),
        "css::parse: a {}-byte sheet is beyond its 32-bit spans",
        input.len()
    );
    let mut text = strip_comments(input);
    let mut sheet = Stylesheet::default();
    let mut urls = Vec::new();

    let mut rest = text.as_str().trim_start();
    while !rest.is_empty() {
        if rest.starts_with('@') {
            // At-rule: @import url(...) | "..." ; — others skipped.
            let end = rest.find([';', '{']).unwrap_or(rest.len());
            if let Some(head) = rest[..end].strip_prefix("@import") {
                sheet.imports.extend(import_target(head));
            }
            rest = if rest[end..].starts_with('{') {
                // Skip a block at-rule wholesale (balanced braces).
                skip_block(&rest[end..])
            } else {
                rest.get(end + 1..).unwrap_or("")
            };
        } else {
            // Ordinary rule: selectors { declarations }.
            let Some(open) = rest.find('{') else {
                break; // trailing garbage without a block
            };
            let body = Span::of(&text, rest).start as usize + open + 1;
            let close = sheet.push_rule(&text, &rest[..open], body, &mut urls);
            rest = text.get(close + 1..).unwrap_or("");
        }
        rest = rest.trim_start();
    }

    for part in &sheet.parts {
        text[part.tag.range()].make_ascii_lowercase();
    }
    for &(name, _) in &sheet.declarations {
        text[name.range()].make_ascii_lowercase();
    }
    sheet.text = text;
    CssParseResult {
        sheet,
        bytes: input.len(),
        urls,
    }
}

/// Parsing: [`parse`] fills the arrays from the text before it moves the
/// text into the sheet.
impl Stylesheet {
    /// Records the rule whose selector list is `selector_text` and whose
    /// declaration block starts at byte `body` of `text`, and pushes the
    /// `url(...)` targets of its declarations onto `urls`. Returns the
    /// index of the `}` that closes the block, or the length of `text`
    /// for an unclosed one. A rule without a selector or a declaration
    /// is dropped; its URLs are still found.
    fn push_rule(
        &mut self,
        text: &str,
        selector_text: &str,
        body: usize,
        urls: &mut Vec<String>,
    ) -> usize {
        let lens = (
            self.selectors.len(),
            self.parts.len(),
            self.classes.len(),
            self.declarations.len(),
        );
        self.push_selectors(text, selector_text);
        let close = self.push_declarations(text, body, urls);
        if self.selectors.len() > lens.0 && self.declarations.len() > lens.3 {
            self.rules.push(Rule {
                selectors: Span::since(lens.0, self.selectors.len()),
                declarations: Span::since(lens.3, self.declarations.len()),
            });
        } else {
            self.selectors.truncate(lens.0);
            self.parts.truncate(lens.1);
            self.classes.truncate(lens.2);
            self.declarations.truncate(lens.3);
        }
        close
    }

    /// Records the `name: value` declarations of the block starting at
    /// byte `from` of `text`, split at `;`, each at its first `:`, and
    /// returns the index of the block's closing `}` (or the length of
    /// `text`). One pass stops only at the bytes that matter.
    fn push_declarations(&mut self, text: &str, from: usize, urls: &mut Vec<String>) -> usize {
        let b = text.as_bytes();
        let mut start = from;
        let mut colon = None;
        // Whether the declaration so far has a `(`: a value without one
        // holds no `url(`.
        let mut paren = false;
        let mut i = from;
        loop {
            while b.get(i).is_some_and(|&c| !BLOCK_STOP[usize::from(c)]) {
                i += 1;
            }
            match b.get(i) {
                Some(b':') => {
                    colon = colon.or(Some(i));
                }
                Some(b'(') => paren = true,
                end => {
                    if let Some(colon) = colon.take() {
                        let name = trim(&text[start..colon]);
                        let value = trim(&text[colon + 1..i]);
                        if !name.is_empty() && !value.is_empty() {
                            if paren {
                                urls.extend(urls_in(value).map(str::to_string));
                            }
                            self.declarations
                                .push((Span::of(text, name), Span::of(text, value)));
                        }
                    }
                    if end != Some(&b';') {
                        return i;
                    }
                    start = i + 1;
                    paren = false;
                }
            }
            i += 1;
        }
    }

    /// Records the selectors of the comma-separated `list`, a slice of
    /// `text`, leaving out those without a simple selector. Each has one
    /// part per word between whitespace, as [`str::split_whitespace`]
    /// splits it, the combinators `>`, `+` and `~` left out.
    fn push_selectors(&mut self, text: &str, list: &str) {
        let base = Span::of(text, list).start as usize;
        let b = list.as_bytes();
        let mut first = self.parts.len();
        let mut i = 0;
        loop {
            i = skip_spaces(list, i);
            match b.get(i) {
                Some(b',') | None => {
                    if self.parts.len() > first {
                        self.selectors.push(Span::since(first, self.parts.len()));
                        first = self.parts.len();
                    }
                    if i == b.len() {
                        return;
                    }
                    i += 1;
                }
                Some(&c) => {
                    let end = word_end(list, i);
                    // Treat all combinators as descendant — close enough
                    // for cost and geometry purposes.
                    if !(matches!(c, b'>' | b'+' | b'~') && end == i + 1) {
                        self.push_part(base, &b[..end], i);
                    }
                    i = end;
                }
            }
        }
    }

    /// Records the simple selector of the word `b[from..]`, where `b` is
    /// a slice of the text starting at byte `base`: a tag, `.class`es and
    /// `#id`s up to the first other byte; pseudo-classes, attribute
    /// selectors and the like are ignored from there on.
    fn push_part(&mut self, base: usize, b: &[u8], from: usize) {
        let classes = self.classes.len();
        let mut part = Part::default();
        // The name being read runs from `start`; `mode` says what it
        // names: b' ' a tag, b'.' a class, b'#' an id.
        let mut mode = b' ';
        let mut start = from;
        let mut i = from;
        loop {
            let c = b.get(i).copied().unwrap_or(0);
            if NAME[usize::from(c)] {
                i += 1;
                continue;
            }
            if i > start {
                let name = Span::since(base + start, base + i);
                match mode {
                    b'.' => self.classes.push(name),
                    b'#' => part.id = name,
                    _ if &b[start..i] != b"*" => part.tag = name,
                    _ => {}
                }
            }
            if c != b'.' && c != b'#' {
                break;
            }
            mode = c;
            i += 1;
            start = i;
        }
        part.classes = Span::since(classes, self.classes.len());
        self.parts.push(part);
    }
}

/// The bytes a declaration block is split at: `;` between declarations,
/// the first `:` of each, `}` at its end, and `(`, which every `url(`
/// has.
const BLOCK_STOP: [bool; 256] = {
    let mut t = [false; 256];
    t[b';' as usize] = true;
    t[b':' as usize] = true;
    t[b'}' as usize] = true;
    t[b'(' as usize] = true;
    t
};

/// `s` without leading and trailing whitespace, as [`str::trim`] trims
/// it: ASCII whitespace is stripped byte by byte, and only a non-ASCII
/// character left at either end needs the Unicode test.
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let start = b.iter().position(|&c| !is_space(c)).unwrap_or(b.len());
    let end = b
        .iter()
        .rposition(|&c| !is_space(c))
        .map_or(start, |e| e + 1);
    let t = &s[start..end];
    match (t.as_bytes().first(), t.as_bytes().last()) {
        (Some(&first), Some(&last)) if first >= 0x80 || last >= 0x80 => t.trim(),
        _ => t,
    }
}

/// The bytes a selector name is made of.
const NAME: [bool; 256] = {
    let mut t = [false; 256];
    let mut c = 0;
    while c < 128 {
        t[c] = (c as u8).is_ascii_alphanumeric() || matches!(c as u8, b'-' | b'_' | b'*');
        c += 1;
    }
    t
};

/// The index of the first non-whitespace character of `s` at or after
/// byte `i` (a character boundary), or the length of `s`.
fn skip_spaces(s: &str, mut i: usize) -> usize {
    while let Some(&c) = s.as_bytes().get(i) {
        match c {
            c if is_space(c) => i += 1,
            0x80.. => match s[i..].chars().next() {
                Some(ch) if ch.is_whitespace() => i += ch.len_utf8(),
                _ => break,
            },
            _ => break,
        }
    }
    i
}

/// The index of the first whitespace character of `s` at or after byte
/// `i` (a character boundary), or the length of `s`.
fn word_end(s: &str, mut i: usize) -> usize {
    while let Some(&c) = s.as_bytes().get(i) {
        match c {
            b',' => break,
            c if is_space(c) => break,
            0x80.. => match s[i..].chars().next() {
                Some(ch) if !ch.is_whitespace() => i += ch.len_utf8(),
                _ => break,
            },
            _ => i += 1,
        }
    }
    i
}

/// Whether `c` is an ASCII character [`char::is_whitespace`] accepts.
fn is_space(c: u8) -> bool {
    matches!(c, b'\t'..=b'\r' | b' ')
}

/// `input` without its `/* ... */` comments; an unterminated comment runs
/// to the end.
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

/// The target of `@import <head>`: its first `url(...)`, else the text up
/// to the first quote after any leading quotes.
fn import_target(head: &str) -> Option<String> {
    let t = head.trim();
    if let Some(u) = urls_in(t).next() {
        return Some(u.to_string());
    }
    // @import "path";
    let t = t.trim_start_matches(['"', '\'']);
    let end = t.find(['"', '\''])?;
    Some(t[..end].to_string())
}

/// Skips a balanced `{ ... }` block, returning the remainder.
fn skip_block(rest: &str) -> &str {
    let mut depth = 0usize;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return &rest[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple selector `part` of selector `sel` of rule `rule`.
    fn part(sheet: &Stylesheet, rule: usize, sel: usize, part: usize) -> SimpleSelector<'_> {
        sheet.rule(rule).selector(sel).part(part)
    }

    #[test]
    fn parses_simple_rules() {
        let r = parse("body { margin: 0; color: #222; } .wrap p { font-size: 12px; }");
        assert_eq!(r.sheet.rules.len(), 2);
        assert_eq!(r.sheet.declaration_count(), 3);
        assert_eq!(part(&r.sheet, 0, 0, 0).tag(), Some("body"));
        let first = r.sheet.rule(0).declarations().next().unwrap();
        assert_eq!(first.name, "margin");
    }

    #[test]
    fn selector_chain_and_specificity() {
        let r = parse("#top .menu a:hover { color: red; }");
        let sel = r.sheet.rule(0).selector(0);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.part(0).id(), Some("top"));
        assert_eq!(sel.part(1).classes().collect::<Vec<_>>(), vec!["menu"]);
        assert_eq!(sel.part(2).tag(), Some("a"));
        assert_eq!(sel.specificity(), (1, 1, 1));
    }

    #[test]
    fn selector_list_splits_on_comma() {
        let r = parse("h1, h2, .big { font-weight: bold; }");
        assert_eq!(r.sheet.rule(0).selector_count(), 3);
    }

    #[test]
    fn extracts_urls_from_values() {
        let r = parse(".hero { background-image: url(\"http://s/img/bg0.png\"); }");
        assert_eq!(r.urls, vec!["http://s/img/bg0.png"]);
    }

    #[test]
    fn imports_are_collected() {
        let r = parse(
            "@import url(\"http://s/css/extra.css\");\n@import \"plain.css\";\nbody{margin:0;}",
        );
        assert_eq!(r.sheet.imports, vec!["http://s/css/extra.css", "plain.css"]);
        assert_eq!(r.sheet.rules.len(), 1);
    }

    #[test]
    fn comments_are_stripped() {
        let r = parse("/* c1 */ body /* c2 */ { margin: 0; /* c3 */ }");
        assert_eq!(r.sheet.rules.len(), 1);
    }

    #[test]
    fn at_media_blocks_are_skipped() {
        let r = parse("@media print { body { display: none; } } p { color: blue; }");
        assert_eq!(r.sheet.rules.len(), 1);
        assert_eq!(part(&r.sheet, 0, 0, 0).tag(), Some("p"));
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for s in ["{", "}", "a {", "a } b {", "@import", "/* open", "x { y }"] {
            let _ = parse(s);
        }
    }

    #[test]
    fn universal_selector() {
        let r = parse("* { margin: 0; }");
        assert!(part(&r.sheet, 0, 0, 0).is_universal());
    }

    #[test]
    fn a_dropped_rule_leaves_no_entries_behind() {
        let r = parse("a.x b { } > { color: red; } p.y { margin: 1px; }");
        assert_eq!(r.sheet.rules.len(), 1);
        assert_eq!(r.sheet.selectors.len(), 1);
        assert_eq!(r.sheet.parts.len(), 1);
        assert_eq!(r.sheet.classes.len(), 1);
        assert_eq!(r.sheet.declaration_count(), 1);
        assert_eq!(part(&r.sheet, 0, 0, 0).classes().collect::<Vec<_>>(), ["y"]);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn attribute_selectors_degrade_gracefully() {
        let r = parse("a[href^=\"http\"] { color: blue; } p { margin: 1px; }");
        // The attribute chunk is truncated at '['; both rules survive.
        assert_eq!(r.sheet.rules.len(), 2);
    }

    #[test]
    fn nested_at_rule_blocks_are_skipped_wholesale() {
        let r = parse(
            "@media screen { @supports (display: flex) { p { color: red; } } } \
             div { padding: 2px; }",
        );
        assert_eq!(r.sheet.rules.len(), 1);
        assert_eq!(r.sheet.rule(0).selector(0).part(0).tag(), Some("div"));
    }

    #[test]
    fn declaration_without_colon_is_dropped() {
        let r = parse("p { color red; margin: 3px; }");
        assert_eq!(r.sheet.declaration_count(), 1);
    }

    #[test]
    fn multiple_urls_in_one_declaration() {
        let r = parse(".a { background: url(one.png), url(two.png); }");
        assert_eq!(r.urls, vec!["one.png", "two.png"]);
    }

    #[test]
    fn selector_with_only_combinators_is_dropped() {
        let r = parse("> { color: red; } p { color: blue; }");
        assert_eq!(r.sheet.rules.len(), 1);
    }

    #[test]
    fn unclosed_final_block_still_parses() {
        let r = parse("p { color: red; margin: 2px");
        assert_eq!(r.sheet.rules.len(), 1);
        assert_eq!(r.sheet.declaration_count(), 2);
    }
}
