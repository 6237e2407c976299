//! Property-based tests for the simulation kernel.

use ewb_simcore::stats::{pearson, Ecdf};
use ewb_simcore::{EnergyMeter, EventQueue, SimTime, Xoshiro256};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order regardless of
    /// insertion order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), t);
        }
        let mut last = SimTime::ZERO;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= last);
            last = e.time;
        }
    }

    /// FIFO among equal timestamps: payload order is preserved.
    #[test]
    fn event_queue_fifo_for_ties(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_micros(t), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().event, i);
        }
    }

    /// Energy integration is additive: splitting a segment at any interior
    /// point leaves the total unchanged.
    #[test]
    fn energy_split_invariance(
        total_us in 2u64..10_000_000,
        frac in 0.0f64..1.0,
        watts in 0.0f64..5.0,
    ) {
        let end = SimTime::from_micros(total_us);
        let mid = SimTime::from_micros(((total_us as f64) * frac) as u64);

        let mut whole = EnergyMeter::new(SimTime::ZERO);
        whole.advance_to(end, watts);

        let mut split = EnergyMeter::new(SimTime::ZERO);
        split.advance_to(mid, watts);
        split.advance_to(end, watts);

        prop_assert!((whole.total_joules() - split.total_joules()).abs() < 1e-9);
    }

    /// The ECDF is a proper CDF: monotone, 0 at -inf side, 1 at the max.
    #[test]
    fn ecdf_is_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Ecdf::from_samples(xs);
        let mut prev = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 100.0;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= prev);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert_eq!(cdf.fraction_at_or_below(max), 1.0);
    }

    /// Pearson is bounded, symmetric, and scale-invariant.
    #[test]
    fn pearson_properties(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&x, &y);
        prop_assert!((-1.0..=1.0).contains(&r));
        prop_assert!((r - pearson(&y, &x)).abs() < 1e-9);
        let y2: Vec<f64> = y.iter().map(|v| v * scale + shift).collect();
        prop_assert!((r - pearson(&x, &y2)).abs() < 1e-6);
    }

    /// u64_below never exceeds its bound and forked streams are stable.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.u64_below(bound) < bound);
        }
        let base = Xoshiro256::seed_from_u64(seed);
        let mut f1 = base.fork(42);
        let mut f2 = base.fork(42);
        prop_assert_eq!(f1.next_u64(), f2.next_u64());
    }
}
