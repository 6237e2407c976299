//! The learned parallelism controller: a second GBRT (the same
//! [`ewb_gbrt`] trainer the reading-time predictor uses) that picks an
//! intra-page [`ParallelismPlan`] per page from static page features.
//!
//! Parallel pipeline stages finish sooner but burn more cores at once
//! (§`ewb_rrc::MAX_CPU_CORES`), so whether a plan saves energy depends on
//! the page: image-heavy pages amortize the fork overhead across many
//! decode jobs, tiny mobile pages do not. The controller regresses the
//! *energy delta vs the sequential plan* of every candidate plan from
//! [`PlanFeatures`] ⊕ the plan's knobs, then serves
//! `argmin_plan predict(features, plan)` — falling back to the sequential
//! plan unless the predicted saving clears a safety margin. That fallback
//! is what makes the controller **never lose** to always-sequential: it
//! only deviates when the model is confident, and the equivalence tests
//! in `crates/core/tests/golden_parallel.rs` plus the
//! [`experiments::parallel`](crate::experiments::parallel) sweep hold it
//! to that.
//!
//! Training is fully deterministic: [`GbrtParams::default`] uses
//! `subsample = 1.0` (no RNG path) and a fixed seed, candidate plans are
//! enumerated in a fixed order, and ties break toward the earlier
//! candidate — so the learned plan table is a pure function of the corpus
//! and config, pinnable in a golden file.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionOpts, Visit};
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::{css, html};
use ewb_gbrt::{Dataset, Gbrt, GbrtModel, GbrtParams};
use ewb_webpage::{ObjectKind, OriginServer, Page};
use serde::{Deserialize, Serialize};

/// The candidate plans the controller chooses among: matched decode/style
/// fan-out of 1, 2, 4, or 8 simulated cores, with and without the
/// CSS-scan/HTML-parse overlap. Fixed order — candidate 0 is the
/// sequential plan, and [`PlanChooser::choose`] breaks ties toward lower
/// indices.
pub const CANDIDATE_PLANS: [ParallelismPlan; 8] = [
    ParallelismPlan::SEQUENTIAL,
    ParallelismPlan {
        decode_threads: 1,
        style_threads: 1,
        overlap_css: true,
    },
    ParallelismPlan {
        decode_threads: 2,
        style_threads: 2,
        overlap_css: false,
    },
    ParallelismPlan {
        decode_threads: 2,
        style_threads: 2,
        overlap_css: true,
    },
    ParallelismPlan {
        decode_threads: 4,
        style_threads: 4,
        overlap_css: false,
    },
    ParallelismPlan {
        decode_threads: 4,
        style_threads: 4,
        overlap_css: true,
    },
    ParallelismPlan {
        decode_threads: 8,
        style_threads: 8,
        overlap_css: false,
    },
    ParallelismPlan {
        decode_threads: 8,
        style_threads: 8,
        overlap_css: true,
    },
];

/// Static page features the controller predicts from — everything is
/// computable from the page's objects alone, before any load runs (the
/// browser would know all of these after the transmission phase, in time
/// to schedule the layout phase).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanFeatures {
    /// Total objects on the page.
    pub objects: f64,
    /// Total transfer size, kilobytes.
    pub total_kb: f64,
    /// Image objects — the decode fan-out's job count.
    pub images: f64,
    /// Image bytes, kilobytes — the decode fan-out's work volume.
    pub image_kb: f64,
    /// External CSS objects.
    pub css_objects: f64,
    /// CSS rules across external sheets and inline `<style>` blocks —
    /// the style fan-out's matching workload.
    pub css_rules: f64,
    /// Maximum DOM depth of the root document.
    pub dom_depth: f64,
    /// DOM nodes of the root document — the style fan-out's job count.
    pub dom_nodes: f64,
}

impl PlanFeatures {
    /// Measures a page: parses the root HTML for DOM shape and the CSS
    /// objects (external sheets plus inline `<style>` blocks) for rule
    /// counts, and tallies object counts/bytes by kind.
    ///
    /// # Panics
    ///
    /// Panics if the page has no root object (a corpus generation bug).
    pub fn of_page(page: &Page) -> PlanFeatures {
        let root = page
            .object(page.root_url())
            .unwrap_or_else(|| panic!("page {} has no root object", page.root_url()));
        let parsed = html::parse(&root.body);
        let doc = &parsed.document;
        let dom_depth = doc
            .descendants()
            .iter()
            .map(|&id| doc.ancestors(id).len())
            .max()
            .unwrap_or(0);
        let mut css_rules = 0usize;
        for style in &parsed.inline_styles {
            css_rules += css::parse(style).sheet.rules.len();
        }
        for obj in page.objects() {
            if obj.kind == ObjectKind::Css {
                css_rules += css::parse(&obj.body).sheet.rules.len();
            }
        }
        PlanFeatures {
            objects: page.object_count() as f64,
            total_kb: page.total_bytes() as f64 / 1024.0,
            images: page.count_kind(ObjectKind::Image) as f64,
            image_kb: page.bytes_of_kind(ObjectKind::Image) as f64 / 1024.0,
            css_objects: page.count_kind(ObjectKind::Css) as f64,
            css_rules: css_rules as f64,
            dom_depth: dom_depth as f64,
            dom_nodes: doc.len() as f64,
        }
    }

    /// The regression row of (features, plan): the eight page features
    /// followed by the plan's three knobs.
    pub fn row(&self, plan: ParallelismPlan) -> Vec<f64> {
        vec![
            self.objects,
            self.total_kb,
            self.images,
            self.image_kb,
            self.css_objects,
            self.css_rules,
            self.dom_depth,
            self.dom_nodes,
            plan.decode_threads as f64,
            plan.style_threads as f64,
            f64::from(plan.overlap_css),
        ]
    }
}

/// One training example: a page visited once under one candidate plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanSample {
    /// The page's static features.
    pub features: PlanFeatures,
    /// The plan the visit ran under.
    pub plan: ParallelismPlan,
    /// Session energy of a one-visit session under `plan`, joules.
    pub energy_j: f64,
    /// `energy_j` minus the same visit under the sequential plan — the
    /// regression target. Negative means the plan saves energy.
    pub delta_j: f64,
}

/// Reading time of the one-visit training sessions, seconds. Long enough
/// for the inactivity timers to fully drain, so the delta isolates the
/// load itself.
const TRAIN_READING_S: f64 = 25.0;

/// Safety margin, joules: the controller only leaves the sequential plan
/// when the predicted saving exceeds this (10 mJ — an order of magnitude
/// above the deltas µs-rounding can fabricate).
pub const MARGIN_J: f64 = 0.01;

/// The trained per-page plan picker.
#[derive(Debug, Clone)]
pub struct PlanChooser {
    model: GbrtModel,
}

/// Builds the training set: every corpus page (both versions) × every
/// candidate plan, each as a one-visit session under `case`, with the
/// energy delta vs the sequential plan as the target.
///
/// # Panics
///
/// Panics if the configuration is invalid or `case` needs a predictor.
pub fn training_samples(
    pages: &[&Page],
    server: &OriginServer,
    cfg: &CoreConfig,
    case: Case,
) -> Vec<PlanSample> {
    assert!(
        !case.needs_predictor(),
        "plan training uses predictor-free cases, got {case}"
    );
    let mut samples = Vec::with_capacity(pages.len() * CANDIDATE_PLANS.len());
    for page in pages {
        let features = PlanFeatures::of_page(page);
        let visit = [Visit {
            page,
            reading_s: TRAIN_READING_S,
            features: None,
        }];
        let energy = |plan: ParallelismPlan| {
            simulate_session(
                server,
                &visit,
                case,
                cfg,
                SessionOpts {
                    plan,
                    ..SessionOpts::three_g(cfg)
                },
            )
            .total_joules
        };
        let seq_j = energy(ParallelismPlan::SEQUENTIAL);
        for plan in CANDIDATE_PLANS {
            let energy_j = if plan.is_sequential() {
                seq_j
            } else {
                energy(plan)
            };
            samples.push(PlanSample {
                features,
                plan,
                energy_j,
                delta_j: energy_j - seq_j,
            });
        }
    }
    samples
}

impl PlanChooser {
    /// Trains the controller on `samples` with the deterministic
    /// [`GbrtParams::default`] (subsample 1.0 — no RNG).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[PlanSample]) -> PlanChooser {
        let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.features.row(s.plan)).collect();
        let targets: Vec<f64> = samples.iter().map(|s| s.delta_j).collect();
        let data = Dataset::new(rows, targets)
            .unwrap_or_else(|e| panic!("invalid plan training set: {e:?}"));
        PlanChooser {
            model: Gbrt::fit(&data, &GbrtParams::default()),
        }
    }

    /// Predicted energy delta (joules, vs sequential) of running a page
    /// with these features under `plan`.
    pub fn predicted_delta_j(&self, features: &PlanFeatures, plan: ParallelismPlan) -> f64 {
        if plan.is_sequential() {
            0.0
        } else {
            self.model.predict(&features.row(plan))
        }
    }

    /// Picks the plan for a page: the candidate with the lowest predicted
    /// energy delta, if that delta beats the sequential plan by more than
    /// [`MARGIN_J`]; the sequential plan otherwise. Ties break toward the
    /// earlier candidate, so the choice is deterministic.
    pub fn choose(&self, features: &PlanFeatures) -> ParallelismPlan {
        let mut best = ParallelismPlan::SEQUENTIAL;
        let mut best_delta = 0.0f64;
        for plan in CANDIDATE_PLANS {
            let delta = self.predicted_delta_j(features, plan);
            if delta < best_delta - f64::EPSILON {
                best = plan;
                best_delta = delta;
            }
        }
        if best_delta < -MARGIN_J {
            best
        } else {
            ParallelismPlan::SEQUENTIAL
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::{benchmark_corpus, Corpus, PageVersion};

    fn corpus_pages(corpus: &Corpus) -> Vec<&Page> {
        corpus
            .sites()
            .iter()
            .flat_map(|s| [&s.mobile, &s.full])
            .collect()
    }

    #[test]
    fn candidate_plans_are_valid_unique_and_anchored() {
        assert!(CANDIDATE_PLANS[0].is_sequential());
        for (i, plan) in CANDIDATE_PLANS.iter().enumerate() {
            assert!(plan.validate().is_ok(), "candidate {plan}");
            assert!(
                !CANDIDATE_PLANS[..i].contains(plan),
                "duplicate candidate {plan}"
            );
        }
    }

    #[test]
    fn features_reflect_page_composition() {
        let corpus = benchmark_corpus(1);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let f = PlanFeatures::of_page(espn);
        assert!(f.objects >= 1.0);
        assert!(f.images >= 1.0, "espn full has images");
        assert!(f.dom_depth >= 2.0);
        assert!(f.dom_nodes > f.dom_depth);
        assert_eq!(f.row(ParallelismPlan::SEQUENTIAL).len(), 11);
        // The mobile page is strictly lighter than the full one.
        let m = PlanFeatures::of_page(corpus.page("espn", PageVersion::Mobile).unwrap());
        assert!(m.total_kb < f.total_kb);
    }

    #[test]
    fn trained_controller_never_loses_to_sequential_in_sample() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let pages = corpus_pages(&corpus);
        let samples = training_samples(&pages, &server, &cfg, Case::EnergyAwareAlwaysOff);
        assert_eq!(samples.len(), pages.len() * CANDIDATE_PLANS.len());
        let chooser = PlanChooser::train(&samples);

        let mut parallel_chosen = 0usize;
        for page in &pages {
            let features = PlanFeatures::of_page(page);
            let plan = chooser.choose(&features);
            parallel_chosen += usize::from(!plan.is_sequential());
            // Ground truth: the chosen plan's measured energy never
            // exceeds the sequential plan's on the training corpus.
            let actual = samples
                .iter()
                .find(|s| s.features == features && s.plan == plan)
                .expect("chosen plan is a candidate");
            assert!(
                actual.delta_j <= 0.0,
                "page with {} objects: chosen plan {plan} loses {} J",
                features.objects,
                actual.delta_j
            );
        }
        assert!(
            parallel_chosen > 0,
            "the controller must find at least one page worth parallelizing"
        );
    }

    #[test]
    fn choice_is_deterministic() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let pages = corpus_pages(&corpus);
        let samples = training_samples(&pages, &server, &cfg, Case::EnergyAwareAlwaysOff);
        let a = PlanChooser::train(&samples);
        let b = PlanChooser::train(&samples);
        for page in &pages {
            let f = PlanFeatures::of_page(page);
            assert_eq!(a.choose(&f), b.choose(&f));
            assert_eq!(
                a.predicted_delta_j(&f, CANDIDATE_PLANS[5]).to_bits(),
                b.predicted_delta_j(&f, CANDIDATE_PLANS[5]).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "predictor-free")]
    fn predictor_cases_are_rejected() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let pages = corpus_pages(&corpus);
        training_samples(&pages, &server, &cfg, Case::Predict9);
    }
}
