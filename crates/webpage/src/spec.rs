//! Page specifications: the knobs the generators honor.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mobile-optimized vs full desktop version of a page — the two benchmark
/// flavors of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageVersion {
    /// A lightweight page designed for phones: few objects, little CSS/JS.
    Mobile,
    /// The full desktop page: many images, multiple stylesheets, scripts.
    Full,
}

impl fmt::Display for PageVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageVersion::Mobile => "mobile",
            PageVersion::Full => "full",
        })
    }
}

/// Generation parameters for one synthetic page.
///
/// Every quantity is an *expected* value; the deterministic generators add
/// bounded per-object jitter from the page seed so no two pages are
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageSpec {
    /// Site key, e.g. `"espn"`.
    pub site: String,
    /// Mobile or full flavor.
    pub version: PageVersion,
    /// Main document size, KB.
    pub html_kb: f64,
    /// Number of external stylesheets.
    pub n_css: usize,
    /// Mean stylesheet size, KB.
    pub css_kb: f64,
    /// Number of external scripts.
    pub n_scripts: usize,
    /// Mean script size, KB.
    pub js_kb: f64,
    /// Resources (images) that only executing the JavaScript discovers.
    pub js_fetches: usize,
    /// Loop iterations of filler computation per script — the knob behind
    /// the Table 1 "JavaScript Running Time" feature.
    pub js_work: usize,
    /// Images referenced directly from the HTML.
    pub n_images: usize,
    /// Mean image size, KB (log-normal spread around this).
    pub image_kb: f64,
    /// Images referenced *only* from CSS `url(...)` values.
    pub css_image_refs: usize,
    /// Secondary URLs (`<a href>`) — Table 1's "Second URL" feature.
    pub n_links: usize,
    /// Body text paragraphs.
    pub text_paragraphs: usize,
    /// Seed for the page's content jitter.
    pub seed: u64,
}

impl PageSpec {
    /// Root URL of the page this spec generates.
    pub fn root_url(&self) -> String {
        match self.version {
            PageVersion::Mobile => format!("http://m.{}.com/", self.site),
            PageVersion::Full => format!("http://www.{}.com/main/", self.site),
        }
    }

    /// Validates that the spec can be generated.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.site.is_empty() {
            return Err("site must be non-empty".to_string());
        }
        for (name, v) in [
            ("html_kb", self.html_kb),
            ("css_kb", self.css_kb),
            ("js_kb", self.js_kb),
            ("image_kb", self.image_kb),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.js_fetches > 0 && self.n_scripts == 0 {
            return Err("js_fetches requires at least one script".to_string());
        }
        if self.css_image_refs > 0 && self.n_css == 0 {
            return Err("css_image_refs requires at least one stylesheet".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PageSpec {
        PageSpec {
            site: "espn".into(),
            version: PageVersion::Full,
            html_kb: 40.0,
            n_css: 3,
            css_kb: 12.0,
            n_scripts: 6,
            js_kb: 10.0,
            js_fetches: 4,
            js_work: 100,
            n_images: 20,
            image_kb: 18.0,
            css_image_refs: 3,
            n_links: 12,
            text_paragraphs: 30,
            seed: 1,
        }
    }

    #[test]
    fn root_urls_differ_by_version() {
        let full = spec();
        let mobile = PageSpec {
            version: PageVersion::Mobile,
            ..spec()
        };
        assert_eq!(full.root_url(), "http://www.espn.com/main/");
        assert_eq!(mobile.root_url(), "http://m.espn.com/");
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(spec().validate().is_ok());
        assert!(PageSpec {
            site: String::new(),
            ..spec()
        }
        .validate()
        .is_err());
        assert!(PageSpec {
            html_kb: 0.0,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(PageSpec {
            n_scripts: 0,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(PageSpec { n_css: 0, ..spec() }.validate().is_err());
    }

    #[test]
    fn version_display() {
        assert_eq!(PageVersion::Mobile.to_string(), "mobile");
        assert_eq!(PageVersion::Full.to_string(), "full");
    }
}
