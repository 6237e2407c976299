//! Property test: the engine discovers the *complete* inventory of any
//! generated corpus page — HTML references, CSS-scanned `url(...)`
//! targets, and JS-computed fetches all included. This is the coverage
//! property the paper's §4.1 technique depends on: the transmission phase
//! only ends correctly if nothing is discovered late.

use ewb_browser::fetch::FixedRateFetcher;
use ewb_browser::pipeline::{load_page, PipelineConfig, PipelineMode};
use ewb_browser::CpuCostModel;
use ewb_simcore::SimTime;
use ewb_webpage::{OriginServer, Page, PageSpec, PageVersion};
use proptest::prelude::*;

fn arbitrary_spec() -> impl Strategy<Value = PageSpec> {
    let text = (
        1.0f64..40.0,
        1usize..4,
        1.0f64..10.0,
        1usize..6,
        1.0f64..8.0,
    );
    let scripts = (0usize..6, 0usize..300);
    let media = (0usize..20, 1.0f64..20.0, 0usize..4);
    let misc = (0usize..12, 1usize..20, any::<u64>(), any::<bool>());
    (text, scripts, media, misc).prop_map(
        |(
            (html_kb, n_css, css_kb, n_scripts, js_kb),
            (js_fetches, js_work),
            (n_images, image_kb, css_image_refs),
            (n_links, text_paragraphs, seed, full),
        )| {
            PageSpec {
                site: "discovery".to_string(),
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn both_pipelines_discover_every_object(spec in arbitrary_spec(), ea in any::<bool>()) {
        let page = Page::generate(&spec);
        let mut server = OriginServer::new();
        server.add_page(&page);
        let mode = if ea { PipelineMode::EnergyAware } else { PipelineMode::Original };
        let mut fetcher = FixedRateFetcher::paper_3g(server);
        let metrics = load_page(
            &mut fetcher,
            page.root_url(),
            SimTime::ZERO,
            &PipelineConfig::new(mode),
            &CpuCostModel::default(),
        );
        prop_assert_eq!(metrics.objects_fetched, page.object_count());
        prop_assert_eq!(metrics.bytes_fetched, page.total_bytes());
        prop_assert_eq!(metrics.fetch_failures, 0);
        // The Table 1 features must be internally consistent too.
        let f = metrics.features();
        prop_assert_eq!(f[3] as usize, spec.n_scripts);
        prop_assert_eq!(
            f[4] as usize,
            spec.n_images + spec.js_fetches + spec.css_image_refs
        );
        prop_assert!(f[8] >= 0.0);
    }

    /// The energy-aware transmission phase never ends before the last
    /// byte, and its layout phase adds no transfers.
    #[test]
    fn ea_phase_boundary_is_sound(spec in arbitrary_spec()) {
        let page = Page::generate(&spec);
        let mut server = OriginServer::new();
        server.add_page(&page);
        let mut fetcher = FixedRateFetcher::paper_3g(server);
        let metrics = load_page(
            &mut fetcher,
            page.root_url(),
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::EnergyAware),
            &CpuCostModel::default(),
        );
        let &(last_arrival, _) = metrics
            .traffic
            .points()
            .last()
            .expect("at least the root arrived");
        prop_assert!(metrics.data_transmission_end >= last_arrival);
        prop_assert!(metrics.final_display_at >= metrics.data_transmission_end);
    }
}
