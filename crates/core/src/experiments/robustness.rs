//! Robustness sweep — does the energy win survive a bad cell?
//!
//! The paper evaluates its reorganized pipeline and fast-dormancy release
//! on a clean UMTS link. This experiment injects deterministic faults
//! (packet loss/stalls, RTT jitter + promotion failures, periodic signal
//! fades — the [`FaultConfig`] presets) at a sweep of loss rates and
//! re-runs the Fig. 10 energy comparison under each, for both the
//! original and the energy-aware browser. Failed objects degrade pages
//! instead of wedging them; every retry attempt's radio time rides into
//! the energy replay. The output is the loss-sweep table in
//! EXPERIMENTS.md and the golden summary the CI robustness job pins.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionFaults, SessionOpts, SessionOutcome, Visit};
use ewb_net::FaultConfig;
use ewb_simcore::{par_map, SplitMix64};
use ewb_webpage::{Corpus, OriginServer};
use serde::{Deserialize, Serialize};

/// The fixed reading window, matching the Fig. 10 energy experiment.
pub const READING_S: f64 = 20.0;

/// The loss rates the sweep visits.
pub const LOSS_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// The named fault profiles the sweep crosses with [`LOSS_RATES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultProfile {
    /// Pure packet loss/stalls plus correlated truncation
    /// ([`FaultConfig::lossy`]).
    Lossy,
    /// Loss plus RTT jitter spikes and RRC promotion failures
    /// ([`FaultConfig::jittery`]).
    Jittery,
    /// Loss plus periodic deep signal fades ([`FaultConfig::fading`]).
    Fading,
}

impl FaultProfile {
    /// Every profile, in sweep order.
    pub const ALL: [FaultProfile; 3] = [
        FaultProfile::Lossy,
        FaultProfile::Jittery,
        FaultProfile::Fading,
    ];

    /// The profile's fault model at the given loss rate.
    pub fn config(self, loss: f64) -> FaultConfig {
        match self {
            FaultProfile::Lossy => FaultConfig::lossy(loss),
            FaultProfile::Jittery => FaultConfig::jittery(loss),
            FaultProfile::Fading => FaultConfig::fading(loss),
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Lossy => "lossy",
            FaultProfile::Jittery => "jittery",
            FaultProfile::Fading => "fading",
        }
    }
}

/// One cell of the sweep: a (profile, loss rate) pair measured across the
/// whole mobile benchmark for both browser cases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Fault profile.
    pub profile: FaultProfile,
    /// Per-attempt loss probability.
    pub loss: f64,
    /// Original browser: mean page-load time, seconds.
    pub orig_load_s: f64,
    /// Original browser: mean session energy (load + 20 s reading), J.
    pub orig_energy_j: f64,
    /// Original browser: degraded page loads across the benchmark.
    pub orig_degraded: u64,
    /// Original browser: objects that errored out across the benchmark.
    pub orig_failed_objects: u64,
    /// Energy-aware browser: mean page-load time, seconds.
    pub ea_load_s: f64,
    /// Energy-aware browser: mean session energy, J.
    pub ea_energy_j: f64,
    /// Energy-aware browser: degraded page loads across the benchmark.
    pub ea_degraded: u64,
    /// Energy-aware browser: objects that errored out.
    pub ea_failed_objects: u64,
}

impl RobustnessRow {
    /// Fraction of energy the energy-aware browser saves in this cell.
    pub fn saving(&self) -> f64 {
        1.0 - self.ea_energy_j / self.orig_energy_j
    }
}

/// Per-site seed: the base seed folded with the site key, so adding a
/// site never shifts another site's fault pattern.
fn site_seed(base: u64, key: &str) -> u64 {
    let mut h = SplitMix64::mix(base);
    for b in key.bytes() {
        h = SplitMix64::mix(h ^ u64::from(b));
    }
    h
}

fn measure(
    server: &OriginServer,
    page: &ewb_webpage::Page,
    case: Case,
    cfg: &CoreConfig,
    faults: &SessionFaults,
) -> SessionOutcome {
    let visits = [Visit {
        page,
        reading_s: READING_S,
        features: None,
    }];
    simulate_session(
        server,
        &visits,
        case,
        cfg,
        SessionOpts {
            faults: Some(faults),
            ..SessionOpts::three_g(cfg)
        },
    )
}

/// Runs the full sweep: [`FaultProfile::ALL`] × [`LOSS_RATES`] over the
/// mobile benchmark, one scoped worker per site within each cell.
///
/// Deterministic in (`corpus`, `cfg`, `seed`): the golden robustness test
/// pins the serialized output at a fixed seed.
pub fn sweep(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    seed: u64,
) -> Vec<RobustnessRow> {
    let mut rows = Vec::with_capacity(FaultProfile::ALL.len() * LOSS_RATES.len());
    for (pi, profile) in FaultProfile::ALL.iter().enumerate() {
        for (li, &loss) in LOSS_RATES.iter().enumerate() {
            let cell_seed = SplitMix64::mix(seed ^ ((pi as u64) << 8 | li as u64));
            let fc = profile.config(loss);
            let per_site = par_map(corpus.sites(), |site| {
                let sf = SessionFaults::new(fc, site_seed(cell_seed, &site.key));
                let orig = measure(server, &site.mobile, Case::Original, cfg, &sf);
                let ea = measure(server, &site.mobile, Case::Accurate9, cfg, &sf);
                (orig, ea)
            });
            let n = per_site.len() as f64;
            let mut row = RobustnessRow {
                profile: *profile,
                loss,
                orig_load_s: 0.0,
                orig_energy_j: 0.0,
                orig_degraded: 0,
                orig_failed_objects: 0,
                ea_load_s: 0.0,
                ea_energy_j: 0.0,
                ea_degraded: 0,
                ea_failed_objects: 0,
            };
            for (orig, ea) in &per_site {
                row.orig_load_s += orig.total_load_time_s / n;
                row.orig_energy_j += orig.total_joules / n;
                row.orig_degraded += orig.degraded_pages() as u64;
                row.orig_failed_objects += orig.failed_objects() as u64;
                row.ea_load_s += ea.total_load_time_s / n;
                row.ea_energy_j += ea.total_joules / n;
                row.ea_degraded += ea.degraded_pages() as u64;
                row.ea_failed_objects += ea.failed_objects() as u64;
            }
            rows.push(row);
        }
    }
    rows
}

/// Serializes the sweep as the golden summary JSON the CI robustness job
/// compares against.
pub fn summary_json(rows: &[RobustnessRow]) -> String {
    serde_json::to_string(rows).expect("rows are always serializable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn zero_loss_cells_match_the_clean_baseline() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = sweep(&corpus, &server, &cfg, 7);
        assert_eq!(rows.len(), FaultProfile::ALL.len() * LOSS_RATES.len());
        // At zero loss the lossy profile draws no faults at all, so its
        // cell agrees bit-for-bit with the clean (fault-free) benchmark.
        // (Jittery keeps its jitter spikes and fading its fade windows
        // even at zero loss.)
        let lossy0 = &rows[0];
        assert_eq!(lossy0.loss, 0.0);
        let n = corpus.sites().len() as f64;
        let mut clean_orig = 0.0;
        let mut clean_ea = 0.0;
        for site in corpus.sites() {
            let orig =
                super::super::single_visit(&server, &site.mobile, Case::Original, &cfg, READING_S);
            let ea =
                super::super::single_visit(&server, &site.mobile, Case::Accurate9, &cfg, READING_S);
            clean_orig += orig.total_joules / n;
            clean_ea += ea.total_joules / n;
        }
        assert_eq!(lossy0.orig_energy_j.to_bits(), clean_orig.to_bits());
        assert_eq!(lossy0.ea_energy_j.to_bits(), clean_ea.to_bits());
        assert_eq!(lossy0.orig_degraded + lossy0.ea_degraded, 0);
        assert_eq!(lossy0.orig_failed_objects + lossy0.ea_failed_objects, 0);
        // The clean cell shows the paper-scale saving.
        assert!(
            (0.20..0.55).contains(&lossy0.saving()),
            "clean saving {:.3}",
            lossy0.saving()
        );
    }

    #[test]
    fn sweep_is_deterministic_in_the_seed() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let a = sweep(&corpus, &server, &cfg, 2013);
        let b = sweep(&corpus, &server, &cfg, 2013);
        assert_eq!(summary_json(&a), summary_json(&b));
    }

    #[test]
    fn loss_increases_load_time_without_wedging() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = sweep(&corpus, &server, &cfg, 2013);
        for profile in FaultProfile::ALL {
            let of_profile: Vec<&RobustnessRow> =
                rows.iter().filter(|r| r.profile == profile).collect();
            let clean = of_profile[0];
            let worst = of_profile.last().unwrap();
            assert!(
                worst.orig_load_s > clean.orig_load_s,
                "{}: 20% loss should slow the original browser ({} vs {})",
                profile.name(),
                worst.orig_load_s,
                clean.orig_load_s
            );
            assert!(
                worst.ea_load_s > clean.ea_load_s,
                "{}: 20% loss should slow the energy-aware browser",
                profile.name()
            );
            // Every cell completed: energies are finite and positive.
            for r in &of_profile {
                assert!(r.orig_energy_j.is_finite() && r.orig_energy_j > 0.0);
                assert!(r.ea_energy_j.is_finite() && r.ea_energy_j > 0.0);
            }
        }
    }
}
