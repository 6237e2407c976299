//! A fully generated page: the object store the origin server serves.

use crate::gen;
use crate::object::{ObjectKind, WebObject};
use crate::spec::PageSpec;
use ewb_simcore::dist::LogNormal;
use ewb_simcore::{SplitMix64, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A generated webpage: the root document plus every sub-resource,
/// addressable by URL.
///
/// # Example
///
/// ```
/// use ewb_webpage::{Page, PageSpec, PageVersion};
///
/// let spec = PageSpec {
///     site: "demo".into(),
///     version: PageVersion::Mobile,
///     html_kb: 10.0, n_css: 1, css_kb: 3.0,
///     n_scripts: 1, js_kb: 2.0, js_fetches: 1, js_work: 50,
///     n_images: 3, image_kb: 5.0, css_image_refs: 1,
///     n_links: 2, text_paragraphs: 5, seed: 1,
/// };
/// let page = Page::generate(&spec);
/// // The document, its sheet and script, the script's fetch, three
/// // images and the sheet's image.
/// assert_eq!(page.object_count(), 8);
/// assert!(page.object(page.root_url()).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Page {
    spec: PageSpec,
    root_url: String,
    objects: BTreeMap<String, WebObject>,
}

impl Page {
    /// Generates the page deterministically from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`PageSpec::validate`].
    pub fn generate(spec: &PageSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid PageSpec: {e}");
        }
        let root = spec.root_url();
        // Derive the content stream from the page identity + seed so every
        // page in the corpus is distinct but reproducible.
        let identity = spec.site.bytes().fold(spec.seed ^ 0x9E37_79B9, |h, b| {
            h.wrapping_mul(131).wrapping_add(b as u64)
        }) ^ SplitMix64::mix(
            matches!(spec.version, crate::spec::PageVersion::Full) as u64 + 17,
        );
        let mut rng = Xoshiro256::seed_from_u64(identity);

        let mut objects = BTreeMap::new();
        let html = gen::gen_html(spec, &mut rng);
        objects.insert(
            root.clone(),
            WebObject::text(root.clone(), ObjectKind::Html, html),
        );
        for i in 0..spec.n_css {
            let url = gen::css_url(&root, i);
            objects.insert(
                url.clone(),
                WebObject::text(url, ObjectKind::Css, gen::gen_css(spec, i, &mut rng)),
            );
        }
        for i in 0..spec.n_scripts {
            let url = gen::js_url(&root, i);
            objects.insert(
                url.clone(),
                WebObject::text(url, ObjectKind::Js, gen::gen_js(spec, i, &mut rng)),
            );
        }
        // Image sizes: log-normal with *mean* equal to the spec's
        // image_kb (median = mean / e^{σ²/2}), clamped to a sane floor so
        // tiny draws don't vanish. Matching the mean keeps page totals on
        // the paper's numbers (espn full = 760 KB).
        const SIGMA: f64 = 0.5;
        let median = spec.image_kb / (0.5 * SIGMA * SIGMA).exp();
        let size_dist = LogNormal::with_median(median, SIGMA);
        let img = |url: String, rng: &mut Xoshiro256| {
            let kb = size_dist.sample(rng).max(0.5);
            WebObject::opaque(url, ObjectKind::Image, (kb * 1024.0) as u64)
        };
        for i in 0..spec.n_images {
            let url = gen::img_url(&root, i);
            objects.insert(url.clone(), img(url, &mut rng));
        }
        for i in 0..spec.js_fetches {
            let url = gen::dyn_img_url(&root, i);
            objects.insert(url.clone(), img(url, &mut rng));
        }
        for i in 0..spec.css_image_refs {
            let url = gen::bg_img_url(&root, i);
            objects.insert(url.clone(), img(url, &mut rng));
        }

        Page {
            spec: spec.clone(),
            root_url: root,
            objects,
        }
    }

    /// The URL of the main HTML document.
    pub fn root_url(&self) -> &str {
        &self.root_url
    }

    /// The spec the page was generated from.
    pub fn spec(&self) -> &PageSpec {
        &self.spec
    }

    /// Looks up an object by URL.
    pub fn object(&self, url: &str) -> Option<&WebObject> {
        self.objects.get(url)
    }

    /// All objects, in URL order.
    pub fn objects(&self) -> impl Iterator<Item = &WebObject> {
        self.objects.values()
    }

    /// Number of objects, including the root document.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Total transfer size of the page in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.bytes).sum()
    }

    /// Number of objects of a given kind.
    pub fn count_kind(&self, kind: ObjectKind) -> usize {
        self.objects.values().filter(|o| o.kind == kind).count()
    }

    /// Total bytes of a given kind.
    pub fn bytes_of_kind(&self, kind: ObjectKind) -> u64 {
        self.objects
            .values()
            .filter(|o| o.kind == kind)
            .map(|o| o.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PageVersion;

    fn spec() -> PageSpec {
        PageSpec {
            site: "espn".into(),
            version: PageVersion::Full,
            html_kb: 30.0,
            n_css: 3,
            css_kb: 10.0,
            n_scripts: 5,
            js_kb: 8.0,
            js_fetches: 4,
            js_work: 100,
            n_images: 20,
            image_kb: 15.0,
            css_image_refs: 3,
            n_links: 8,
            text_paragraphs: 15,
            seed: 3,
        }
    }

    #[test]
    fn generates_expected_object_inventory() {
        let p = Page::generate(&spec());
        assert_eq!(p.object_count(), 36);
        assert_eq!(p.count_kind(ObjectKind::Html), 1);
        assert_eq!(p.count_kind(ObjectKind::Css), 3);
        assert_eq!(p.count_kind(ObjectKind::Js), 5);
        assert_eq!(p.count_kind(ObjectKind::Image), 27);
    }

    #[test]
    fn total_size_is_near_spec_expectation() {
        let p = Page::generate(&spec());
        // Every object at its kind's nominal size: 30 + 3·10 + 5·8 + 27·15.
        let expected_kb = 505.0;
        let actual_kb = p.total_bytes() as f64 / 1024.0;
        // Log-normal image jitter: allow a generous band.
        assert!(
            (actual_kb / expected_kb - 1.0).abs() < 0.5,
            "expected ≈{expected_kb} KB, got {actual_kb} KB"
        );
    }

    #[test]
    fn generation_is_deterministic_and_version_sensitive() {
        let a = Page::generate(&spec());
        let b = Page::generate(&spec());
        assert_eq!(a, b);
        let mobile = Page::generate(&PageSpec {
            version: PageVersion::Mobile,
            n_images: 4,
            ..spec()
        });
        assert_ne!(a.root_url(), mobile.root_url());
    }

    #[test]
    fn every_referenced_url_resolves() {
        let p = Page::generate(&spec());
        let root = p.root_url().to_string();
        // All generator-known URLs must be in the store.
        for i in 0..spec().n_css {
            assert!(p.object(&crate::gen::css_url(&root, i)).is_some());
        }
        for i in 0..spec().js_fetches {
            assert!(p.object(&crate::gen::dyn_img_url(&root, i)).is_some());
        }
        for i in 0..spec().css_image_refs {
            assert!(p.object(&crate::gen::bg_img_url(&root, i)).is_some());
        }
    }

    #[test]
    fn kind_byte_accounting_sums_to_total() {
        let p = Page::generate(&spec());
        let sum: u64 = [
            ObjectKind::Html,
            ObjectKind::Css,
            ObjectKind::Js,
            ObjectKind::Image,
            ObjectKind::Flash,
        ]
        .iter()
        .map(|&k| p.bytes_of_kind(k))
        .sum();
        assert_eq!(sum, p.total_bytes());
    }
}
