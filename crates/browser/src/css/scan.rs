//! The cheap URL scan — the energy-aware transmission-phase CSS path.
//!
//! §4.1: "For the computation to process CSS code and files, we only scan
//! them to fetch the objects (images and CSS files) referred by URLs, but
//! do not parse them." This module is that scan: one pass over the bytes,
//! no rule construction, roughly an order of magnitude cheaper than
//! [`super::parse`] under the cost model. Its URL reader is also the one
//! the parser reads `url(...)` values with.

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
///
/// A comment, an `@import` or a `url(` can only start at a `/`, `@`, `u`
/// or `U` byte, so the scan jumps from one such byte to the next.
pub fn scan_urls(input: &str) -> CssScanResult {
    let mut urls = Vec::new();
    let mut imports = Vec::new();
    let b = input.as_bytes();
    let mut i = 0;
    while let Some(p) = b[i.min(b.len())..]
        .iter()
        .position(|&c| CANDIDATE[usize::from(c)])
    {
        i += p;
        if b[i..].starts_with(b"/*") {
            // Skip comments so commented-out references are not fetched.
            match input[i + 2..].find("*/") {
                Some(end) => i += 2 + end + 2,
                None => break,
            }
        } else if b[i..].starts_with(b"@import") {
            let end = input[i..].find(';').map_or(input.len(), |p| i + p);
            let head = &input[i + 7..end];
            if let Some(u) = urls_in(head).next().or_else(|| quoted_string(head)) {
                imports.push(u.to_string());
            }
            i = end + 1;
        } else if has_url_at(b, i) {
            let (url, next) = read_url(input, i + 4);
            urls.extend(url.map(str::to_string));
            i = next;
        } else {
            i += 1;
        }
    }

    CssScanResult {
        urls,
        imports,
        bytes: input.len(),
    }
}

/// The bytes [`scan_urls`] stops at: the first byte of `/*`, `@import`
/// and `url(` (either case).
const CANDIDATE: [bool; 256] = {
    let mut t = [false; 256];
    t[b'/' as usize] = true;
    t[b'@' as usize] = true;
    t[b'u' as usize] = true;
    t[b'U' as usize] = true;
    t
};

/// Whether `url(` (the keyword in any case) starts at byte `i`.
fn has_url_at(b: &[u8], i: usize) -> bool {
    b.len() - i >= 4 && b[i..i + 3].eq_ignore_ascii_case(b"url") && b[i + 3] == b'('
}

/// Reads the contents of `url( ... )` starting just past `url(`: the
/// target with spaces and quotes trimmed (`None` if that leaves nothing)
/// and the index just past the closing `)`, or the end of `text` when
/// there is none.
fn read_url(text: &str, start: usize) -> (Option<&str>, usize) {
    let rest = &text[start..];
    let Some(close) = rest.find(')') else {
        return (None, text.len());
    };
    let url = rest[..close]
        .trim()
        .trim_start_matches(['"', '\''])
        .trim_end_matches(['"', '\''])
        .trim();
    (Some(url).filter(|u| !u.is_empty()), start + close + 1)
}

/// The non-empty `url(...)` targets in `window`, in order, each read to
/// its `)` within the window. The full parser reads declaration values
/// and `@import` heads with it, so both paths agree on what counts as a
/// reference.
pub(super) fn urls_in(window: &str) -> impl Iterator<Item = &str> {
    let b = window.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || loop {
        // `url(` can only start at a `u` or `U`.
        i += b.get(i..)?.iter().position(|&c| (c | 0x20) == b'u')?;
        if has_url_at(b, i) {
            let (url, next) = read_url(window, i + 4);
            i = next;
            if url.is_some() {
                return url;
            }
        } else {
            i += 1;
        }
    })
}

/// The text between the first quote of `text` and the next quote of the
/// same kind.
fn quoted_string(text: &str) -> Option<&str> {
    let t = text.trim();
    let first = t.find(['"', '\''])?;
    let quote = t.as_bytes()[first] as char;
    let rest = &t[first + 1..];
    let end = rest.find(quote)?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_urls_in_various_quotings() {
        let css = r#"
            .a { background: url("http://s/1.png"); }
            .b { background-image: url('http://s/2.png'); }
            .c { background: url(http://s/3.png) no-repeat; }
        "#;
        let r = scan_urls(css);
        assert_eq!(
            r.urls,
            vec!["http://s/1.png", "http://s/2.png", "http://s/3.png"]
        );
        assert_eq!(r.bytes, css.len());
    }

    #[test]
    fn finds_imports() {
        let r = scan_urls("@import url(\"http://s/x.css\");\n@import 'y.css';");
        assert_eq!(r.imports, vec!["http://s/x.css", "y.css"]);
    }

    #[test]
    fn ignores_commented_out_references() {
        let r = scan_urls("/* url(\"http://s/ghost.png\") */ .a { background: url(real.png); }");
        assert_eq!(r.urls, vec!["real.png"]);
    }

    #[test]
    fn agrees_with_full_parser_on_urls() {
        let css = r#"
            .hero0 { background-image: url("http://s/img/bg0.png"); height: 120px; }
            .hero1 { background-image: url("http://s/img/bg1.png"); }
            p { color: red; }
        "#;
        let scan = scan_urls(css);
        let full = super::super::parse(css);
        assert_eq!(scan.urls, full.urls);
    }

    #[test]
    fn case_insensitive_url_keyword() {
        let r = scan_urls(".a { background: URL(x.png); }");
        assert_eq!(r.urls, vec!["x.png"]);
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for s in ["url(", "url(   ", "@import", "url()", "/* open", "url(')"] {
            let _ = scan_urls(s);
        }
        assert!(scan_urls("url()").urls.is_empty());
    }
}
