//! Web objects: the units a page is made of.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a web object, which determines how the browser processes it
/// (and, per the paper's §2.2, whether processing it can generate *new*
/// data transmissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// An HTML document. Parsing it discovers more objects.
    Html,
    /// A stylesheet. Scanning it can discover images (`url(...)`).
    Css,
    /// JavaScript. Executing it can fetch anything.
    Js,
    /// An image. Pure layout-side payload (decode + paint).
    Image,
    /// A flash/multimedia blob. Pure layout-side payload.
    Flash,
}

impl ObjectKind {
    /// Whether processing this object can cause further data transmissions
    /// — the paper's *data transmission computation* category.
    pub fn can_discover_resources(self) -> bool {
        matches!(self, ObjectKind::Html | ObjectKind::Css | ObjectKind::Js)
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Html => "html",
            ObjectKind::Css => "css",
            ObjectKind::Js => "js",
            ObjectKind::Image => "image",
            ObjectKind::Flash => "flash",
        };
        f.write_str(s)
    }
}

/// One fetchable object of a page.
///
/// For textual kinds (`Html`, `Css`, `Js`) the `body` is the real document
/// the browser engine parses/executes, and `bytes == body.len()`. For
/// opaque kinds (`Image`, `Flash`) the body is empty and `bytes` is the
/// transfer size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebObject {
    /// Absolute URL, unique within the corpus.
    pub url: String,
    /// What kind of object this is.
    pub kind: ObjectKind,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Document text for textual kinds; empty for opaque kinds.
    pub body: String,
}

impl WebObject {
    /// Creates a textual object whose size is its body length.
    pub fn text(url: impl Into<String>, kind: ObjectKind, body: String) -> Self {
        debug_assert!(
            kind.can_discover_resources(),
            "textual object of opaque kind"
        );
        let bytes = body.len() as u64;
        WebObject {
            url: url.into(),
            kind,
            bytes,
            body,
        }
    }

    /// Creates an opaque object (image/flash) of a given size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero — a zero-byte image is always a corpus
    /// generation bug.
    pub fn opaque(url: impl Into<String>, kind: ObjectKind, bytes: u64) -> Self {
        assert!(bytes > 0, "opaque object must have a positive size");
        debug_assert!(
            !kind.can_discover_resources(),
            "opaque object of textual kind"
        );
        WebObject {
            url: url.into(),
            kind,
            bytes,
            body: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_categories_match_the_paper() {
        // §2.2: HTML/CSS parsing and JS execution generate transmissions;
        // images and flash are layout-side only.
        assert!(ObjectKind::Html.can_discover_resources());
        assert!(ObjectKind::Css.can_discover_resources());
        assert!(ObjectKind::Js.can_discover_resources());
        assert!(!ObjectKind::Image.can_discover_resources());
        assert!(!ObjectKind::Flash.can_discover_resources());
    }

    #[test]
    fn text_object_size_is_body_length() {
        let o = WebObject::text("http://a/x.html", ObjectKind::Html, "<html></html>".into());
        assert_eq!(o.bytes, 13);
    }

    #[test]
    fn opaque_object_has_no_body() {
        let o = WebObject::opaque("http://a/x.jpg", ObjectKind::Image, 2048);
        assert_eq!(o.bytes, 2048);
        assert!(o.body.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_byte_opaque_rejected() {
        WebObject::opaque("http://a/x.jpg", ObjectKind::Image, 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(ObjectKind::Image.to_string(), "image");
        assert_eq!(ObjectKind::Html.to_string(), "html");
    }
}
