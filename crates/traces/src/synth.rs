//! Per-visit feature synthesis.
//!
//! Each visit's Table 1 features derive from the benchmark corpus shapes
//! (`ewb-webpage`) plus per-visit jitter: a user browsing espn does not
//! land on the identical page twice. Three of the jitters are deliberately
//! *independent* across features — they feed the binarized interaction
//! that drives engaged dwell (see [`crate::user`]), which is what keeps
//! Table 4's linear correlations at zero while staying tree-learnable.

use crate::features::FeatureVector;
use ewb_simcore::dist::{LogNormal, PolarPoint};
use ewb_simcore::Xoshiro256;
use ewb_webpage::{Corpus, PageVersion};
use serde::{Deserialize, Serialize};

/// The latent per-visit factors the dwell model consumes.
///
/// Each bit is an **outer-band** indicator of one feature: true when the
/// value is in the outer half of its (log-symmetric) distribution, i.e.
/// unusually small *or* unusually large. The symmetry is what keeps every
/// Pearson coefficient in Table 4 near zero — a banded effect has no
/// linear component — while a regression tree recovers each bit with two
/// splits (the band edges). The three carrier features
/// (`page_height`, `js_running_time`, `second_urls`) are drawn from
/// global (site-independent) log-normal distributions so the band edges
/// are global constants; this learnability-preserving simplification is
/// recorded as a substitution in DESIGN.md. A bit is set from the
/// carrier's normal deviate against edges derived from `outer_band`, so
/// it is known before the feature's value is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VisitLatents {
    /// Page height in the outer band (unusually short or tall page).
    pub tall_page: bool,
    /// Secondary-URL count in the outer band.
    pub link_rich: bool,
    /// JS running time in the outer band.
    pub script_heavy: bool,
}

/// Global median of the page-height feature, px.
pub const HEIGHT_MEDIAN_PX: f64 = 2800.0;
/// Log-σ of the page-height feature.
pub const HEIGHT_SIGMA: f64 = 0.45;
/// Global median of the JS-running-time feature, seconds.
pub const JS_TIME_MEDIAN_S: f64 = 0.9;
/// Log-σ of the JS-time feature.
pub const JS_TIME_SIGMA: f64 = 0.5;
/// Global median of the secondary-URL count.
pub const LINKS_MEDIAN: f64 = 14.0;
/// Log-σ of the link-count feature.
pub const LINKS_SIGMA: f64 = 0.5;

/// |z| threshold putting exactly half the mass in the outer band
/// (Φ(0.674) = 0.75).
const OUTER_BAND_Z: f64 = 0.674;

/// Whether `value` lies in the outer band of a log-normal with the given
/// median and log-σ.
pub fn outer_band(value: f64, median: f64, sigma: f64) -> bool {
    (value / median).ln().abs() > OUTER_BAND_Z * sigma
}

/// One carrier feature's log-normal law and its outer band in deviate
/// space: the deviate `z` gives a value in the band exactly when
/// `z <= z_lo || z >= z_hi`.
#[derive(Debug, Clone, Copy)]
struct Carrier {
    law: LogNormal,
    z_lo: f64,
    z_hi: f64,
}

impl Carrier {
    fn new(median: f64, sigma: f64) -> Self {
        let law = LogNormal::with_median(median, sigma);
        let in_band = |z: f64| outer_band(law.at(z), median, sigma);
        Carrier {
            law,
            z_lo: band_edge(in_band, -1.0),
            z_hi: band_edge(in_band, 1.0),
        }
    }

    fn in_band(&self, z: f64) -> bool {
        z <= self.z_lo || z >= self.z_hi
    }
}

/// The deviate nearest zero on `side` (±1) at which `in_band` holds,
/// found by bisection over the bit patterns of magnitudes in `[0, 2]`.
/// `outer_band` of a log-normal's value is monotone in `|z|` on each side
/// of zero, from out of the band at 0 to in it from about 0.674 on;
/// rounding could break that only next to the edge, where the unit tests
/// check every `f64`.
fn band_edge(in_band: impl Fn(f64) -> bool, side: f64) -> f64 {
    let at = |bits: u64| side * f64::from_bits(bits);
    let (mut inside, mut outside) = (0.0f64.to_bits(), 2.0f64.to_bits());
    assert!(!in_band(at(inside)) && in_band(at(outside)));
    while outside - inside > 1 {
        let mid = inside + (outside - inside) / 2;
        if in_band(at(mid)) {
            outside = mid;
        } else {
            inside = mid;
        }
    }
    at(outside)
}

/// One visit's share of the RNG stream, before any feature arithmetic:
/// the base index, the latent bits, the three carrier deviates and the
/// four jitter points. [`VisitSynthesizer::features`] turns it into the
/// visit's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitDraw {
    base: usize,
    latents: VisitLatents,
    bulk: PolarPoint,
    scripts: PolarPoint,
    figure_kb: PolarPoint,
    transmission: PolarPoint,
    height_z: f64,
    js_time_z: f64,
    links_z: f64,
}

impl VisitDraw {
    /// The drawn base index; [`VisitSynthesizer::base`] labels it.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The visit's latent bits for the dwell model.
    pub fn latents(&self) -> VisitLatents {
        self.latents
    }
}

/// Synthesizes visit features anchored to corpus page shapes.
#[derive(Debug, Clone)]
pub struct VisitSynthesizer {
    /// `(site_key, version, base)` rows derived from the corpus.
    bases: Vec<(String, PageVersion, FeatureVector)>,
    height: Carrier,
    js_time: Carrier,
    links: Carrier,
}

impl VisitSynthesizer {
    /// Builds a synthesizer from the benchmark corpus.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let mut bases = Vec::new();
        for site in corpus.sites() {
            for version in [PageVersion::Mobile, PageVersion::Full] {
                let page = match version {
                    PageVersion::Mobile => &site.mobile,
                    PageVersion::Full => &site.full,
                };
                let spec = page.spec();
                let text_kb = spec.html_kb
                    + spec.n_css as f64 * spec.css_kb
                    + spec.n_scripts as f64 * spec.js_kb;
                let figures = (spec.n_images + spec.js_fetches + spec.css_image_refs) as f64;
                let figure_kb = figures * spec.image_kb;
                // Analytic load estimates (the full browser pipeline gives
                // the precise values; for trace generation these anchors
                // only need the right scale).
                let tx_time = 2.0 + (text_kb + figure_kb) / 95.0 + figures * 0.05;
                let js_time = spec.n_scripts as f64 * (0.1 + spec.js_work as f64 * 2e-4);
                let height = 900.0 + spec.text_paragraphs as f64 * 160.0 + figures * 120.0;
                let width = match version {
                    PageVersion::Mobile => 480.0,
                    PageVersion::Full => 980.0,
                };
                bases.push((
                    site.key.clone(),
                    version,
                    FeatureVector([
                        tx_time,
                        text_kb,
                        figures + 1.0 + spec.n_css as f64 + spec.n_scripts as f64,
                        spec.n_scripts as f64,
                        figures,
                        figure_kb,
                        js_time,
                        spec.n_links as f64,
                        height,
                        width,
                    ]),
                ));
            }
        }
        VisitSynthesizer {
            bases,
            height: Carrier::new(HEIGHT_MEDIAN_PX, HEIGHT_SIGMA),
            js_time: Carrier::new(JS_TIME_MEDIAN_S, JS_TIME_SIGMA),
            links: Carrier::new(LINKS_MEDIAN, LINKS_SIGMA),
        }
    }

    /// Number of distinct (site, version) bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether there are no bases (never true for the benchmark corpus).
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The `(site_key, version)` label of base `idx` (Table 3 order,
    /// mobile before full within a site).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn base(&self, idx: usize) -> (&str, PageVersion) {
        let (key, version, _) = &self.bases[idx];
        (key, *version)
    }

    /// Draws one visit: picks a (site, version), jitters its features,
    /// and returns the latent bits for the dwell model.
    pub fn sample(
        &self,
        rng: &mut Xoshiro256,
    ) -> (String, PageVersion, FeatureVector, VisitLatents) {
        let draw = self.draw(rng);
        let (key, version, _) = &self.bases[draw.base];
        (key.clone(), *version, self.features(&draw), draw.latents)
    }

    /// The stream half of [`VisitSynthesizer::sample`]: consumes the same
    /// words (the base index, then seven polar points) and sets the
    /// latent bits, but computes no feature.
    pub fn draw(&self, rng: &mut Xoshiro256) -> VisitDraw {
        let base = rng.usize_below(self.bases.len());
        let bulk = PolarPoint::draw(rng);
        let scripts = PolarPoint::draw(rng);
        let figure_kb = PolarPoint::draw(rng);
        // The three bit-carrying features come from global distributions,
        // so the outer-band edges are global constants and the bits are
        // balanced, independent, and recoverable with two splits each.
        let height_z = PolarPoint::draw(rng).deviate();
        let js_time_z = PolarPoint::draw(rng).deviate();
        let links_z = PolarPoint::draw(rng).deviate();
        let transmission = PolarPoint::draw(rng);
        VisitDraw {
            base,
            latents: VisitLatents {
                tall_page: self.height.in_band(height_z),
                link_rich: self.links.in_band(links_z),
                script_heavy: self.js_time.in_band(js_time_z),
            },
            bulk,
            scripts,
            figure_kb,
            transmission,
            height_z,
            js_time_z,
            links_z,
        }
    }

    /// The feature half of [`VisitSynthesizer::sample`]: the row of a
    /// visit this synthesizer drew.
    pub fn features(&self, draw: &VisitDraw) -> FeatureVector {
        let (_, _, base) = &self.bases[draw.base];
        let mut f = *base;

        // Correlated bulk jitter: bigger variants of the same page.
        let bulk = LogNormal::new(0.0, 0.25).at(draw.bulk.deviate());
        f.0[1] *= bulk; // page size
        f.0[2] = (f.0[2] * bulk).round().max(1.0); // objects
        f.0[3] = (f.0[3] * LogNormal::new(0.0, 0.3).at(draw.scripts.deviate()))
            .round()
            .max(0.0);
        f.0[4] = (f.0[4] * bulk).round().max(0.0); // figures
        f.0[5] = f.0[5] * bulk * LogNormal::new(0.0, 0.3).at(draw.figure_kb.deviate()); // figure KB

        f.0[8] = self.height.law.at(draw.height_z);
        f.0[6] = self.js_time.law.at(draw.js_time_z);
        f.0[7] = self.links.law.at(draw.links_z).round();

        // Transmission time follows the jittered payload plus its own
        // network noise.
        f.0[0] = f.0[0] * bulk * LogNormal::new(0.0, 0.2).at(draw.transmission.deviate());
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    fn synth() -> VisitSynthesizer {
        VisitSynthesizer::from_corpus(&benchmark_corpus(1))
    }

    #[test]
    fn twenty_bases_from_ten_sites() {
        let s = synth();
        assert_eq!(s.len(), 20);
        assert!(!s.is_empty());
    }

    #[test]
    fn samples_are_plausible() {
        let s = synth();
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..200 {
            let (key, _, f, _) = s.sample(&mut rng);
            let [transmission_s, page_kb, objects, .., height, width] = f.0;
            assert!(!key.is_empty());
            assert!(transmission_s > 0.0);
            assert!(page_kb > 1.0);
            assert!(objects >= 1.0);
            assert!(height > 100.0);
            assert!(width == 480.0 || width == 980.0);
        }
    }

    #[test]
    fn latent_bits_are_roughly_balanced_and_independent() {
        let s = synth();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let n = 20_000;
        let mut counts = [0u32; 3];
        let mut pair = [[0u32; 2]; 3];
        for _ in 0..n {
            let (_, _, _, l) = s.sample(&mut rng);
            let bits = [l.tall_page, l.link_rich, l.script_heavy];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    counts[i] += 1;
                }
            }
            // Pairwise joint for independence spot-check (bit0 vs bit1 etc.)
            pair[0][usize::from(bits[0] == bits[1])] += 1;
            pair[1][usize::from(bits[1] == bits[2])] += 1;
            pair[2][usize::from(bits[0] == bits[2])] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((0.46..0.54).contains(&frac), "bit balance {frac}");
        }
        for p in pair {
            let agree = p[1] as f64 / n as f64;
            assert!((0.46..0.54).contains(&agree), "pair agreement {agree}");
        }
    }

    #[test]
    fn mobile_and_full_differ_in_scale() {
        let s = synth();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut mobile = Vec::new();
        let mut full = Vec::new();
        for _ in 0..2000 {
            let (_, v, f, _) = s.sample(&mut rng);
            let page_kb = f.0[1];
            match v {
                PageVersion::Mobile => mobile.push(page_kb),
                PageVersion::Full => full.push(page_kb),
            }
        }
        let m = ewb_simcore::stats::mean(&mobile);
        let f = ewb_simcore::stats::mean(&full);
        assert!(f > 3.0 * m, "full {f} KB vs mobile {m} KB");
    }

    /// The deviate-space edges decide every bit as `outer_band` of the
    /// carrier's value does: on every `f64` within 2^16 ulps of each edge,
    /// where rounding in `outer_band`'s chain could matter, and on the
    /// carrier deviates of 10^5 draws.
    #[test]
    fn band_edges_agree_with_outer_band() {
        let s = synth();
        let carriers = [
            (s.height, HEIGHT_MEDIAN_PX, HEIGHT_SIGMA),
            (s.js_time, JS_TIME_MEDIAN_S, JS_TIME_SIGMA),
            (s.links, LINKS_MEDIAN, LINKS_SIGMA),
        ];
        let agree = |(c, median, sigma): (Carrier, f64, f64), z: f64| {
            assert_eq!(
                c.in_band(z),
                outer_band(c.law.at(z), median, sigma),
                "z {z:e}, median {median}"
            );
        };
        for carrier in carriers {
            let (c, _, _) = carrier;
            for edge in [c.z_lo, c.z_hi] {
                assert!((edge.abs() - OUTER_BAND_Z).abs() < 1e-9, "edge {edge}");
                for k in -(1i64 << 16)..=1 << 16 {
                    agree(
                        carrier,
                        f64::from_bits(edge.to_bits().wrapping_add_signed(k)),
                    );
                }
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..100_000 {
            let d = s.draw(&mut rng);
            for (carrier, z) in carriers
                .into_iter()
                .zip([d.height_z, d.js_time_z, d.links_z])
            {
                agree(carrier, z);
            }
        }
    }
}
