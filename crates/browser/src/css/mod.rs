//! CSS processing.
//!
//! Two very different code paths, mirroring the paper's §4.1:
//!
//! * [`scan_urls`] — the energy-aware transmission-phase operation: a
//!   cheap single pass that extracts `url(...)` and `@import` references
//!   *without* building rules ("we only scan them to fetch the objects ...
//!   but do not parse them");
//! * [`parse`] + [`compute_styles`] — the full layout-phase work: parse
//!   selectors and declarations, match rules against the DOM, produce
//!   computed styles. The paper notes rule extraction "takes a lot of
//!   processing time" — the cost model prices it accordingly.
//!
//! A parsed [`Stylesheet`] is one comment-free copy of the sheet's text
//! plus flat index arrays of rules, selectors, simple selectors, classes
//! and declarations; every name and value is a byte span of that text,
//! read through borrowed views. The scan and the parser share one
//! `url(` reader, and the scan jumps between the only bytes that can
//! start a reference or a comment. `tests/css_reference.rs` keeps the
//! owned-`String` parser and the byte-by-byte scan these replaced as the
//! reference both must match field by field.
//!
//! Every style pass is counted as a full pass, so the cost model prices
//! each of the original browser's redraws as a whole-document restyle.
//! The host does less: within one load, `StyleMemo` matches each
//! (element, rule) pair once, and every pass tests only the selectors a
//! rule index files under the element's own keys whose ancestor keys its
//! ancestors hold. Both report the same counters and styles as a full
//! scan of every selector against every element would.

mod index;
mod parser;
mod scan;
mod selector;
mod style;

pub use parser::{
    parse, CssParseResult, Declaration, Rule, RuleRef, Selector, SimpleSelector, Stylesheet,
};
pub use scan::{scan_urls, CssScanResult};
pub use selector::matches;
pub(crate) use style::StyleMemo;
pub use style::{compute_styles, compute_styles_for, ComputedStyle, StyleResult};
