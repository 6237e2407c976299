//! Property-based tests for the corpus generator: every generated page is
//! internally consistent regardless of spec parameters.

use ewb_webpage::{ObjectKind, Page, PageSpec, PageVersion};
use proptest::prelude::*;

fn arbitrary_spec() -> impl Strategy<Value = PageSpec> {
    let text = (
        1.0f64..60.0,
        1usize..5,
        1.0f64..15.0,
        1usize..8,
        1.0f64..12.0,
    );
    let scripts = (0usize..6, 0usize..500);
    let media = (0usize..30, 1.0f64..25.0, 0usize..5);
    let misc = (0usize..20, 1usize..30, any::<u64>(), any::<bool>());
    (text, scripts, media, misc).prop_map(
        |(
            (html_kb, n_css, css_kb, n_scripts, js_kb),
            (js_fetches, js_work),
            (n_images, image_kb, css_image_refs),
            (n_links, text_paragraphs, seed, full),
        )| {
            PageSpec {
                site: "propsite".to_string(),
                version: if full {
                    PageVersion::Full
                } else {
                    PageVersion::Mobile
                },
                html_kb,
                n_css,
                css_kb,
                n_scripts,
                js_kb,
                js_fetches,
                js_work,
                n_images,
                image_kb,
                css_image_refs,
                n_links,
                text_paragraphs,
                seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated page has exactly the objects the spec promises,
    /// all with unique URLs and positive sizes.
    #[test]
    fn inventory_matches_spec(spec in arbitrary_spec()) {
        let page = Page::generate(&spec);
        prop_assert_eq!(
            page.object_count(),
            1 + spec.n_css + spec.n_scripts + spec.n_images + spec.js_fetches + spec.css_image_refs
        );
        prop_assert_eq!(page.count_kind(ObjectKind::Html), 1);
        prop_assert_eq!(page.count_kind(ObjectKind::Css), spec.n_css);
        prop_assert_eq!(page.count_kind(ObjectKind::Js), spec.n_scripts);
        prop_assert_eq!(
            page.count_kind(ObjectKind::Image),
            spec.n_images + spec.js_fetches + spec.css_image_refs
        );
        for obj in page.objects() {
            prop_assert!(obj.bytes > 0, "{} has zero size", obj.url);
        }
    }

    /// Generation is a pure function of the spec.
    #[test]
    fn generation_is_deterministic(spec in arbitrary_spec()) {
        prop_assert_eq!(Page::generate(&spec), Page::generate(&spec));
    }

    /// Textual objects really carry their bytes (`bytes == body.len()`),
    /// and the root document references every stylesheet and script.
    #[test]
    fn text_objects_are_real(spec in arbitrary_spec()) {
        let page = Page::generate(&spec);
        let root = page.object(page.root_url()).expect("root exists");
        prop_assert_eq!(root.bytes as usize, root.body.len());
        for obj in page.objects() {
            if obj.kind.can_discover_resources() {
                prop_assert_eq!(obj.bytes as usize, obj.body.len());
            } else {
                prop_assert!(obj.body.is_empty());
            }
            if matches!(obj.kind, ObjectKind::Css | ObjectKind::Js) {
                prop_assert!(root.body.contains(&obj.url), "root must reference {}", obj.url);
            }
        }
    }

    /// The origin server resolves every URL of a generated page.
    #[test]
    fn server_serves_the_whole_page(spec in arbitrary_spec()) {
        let page = Page::generate(&spec);
        let mut server = ewb_webpage::OriginServer::new();
        server.add_page(&page);
        prop_assert_eq!(server.len(), page.object_count());
        for obj in page.objects() {
            prop_assert_eq!(server.fetch(&obj.url), Some(obj));
        }
    }
}
