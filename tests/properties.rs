//! Property-based tests over cross-crate invariants.
//!
//! Unit-level properties (SECDED algebra, interleaver bijectivity) live in
//! their crates; this file checks properties of the *assembled* system over
//! randomized inputs: arbitrary voltages, cluster shapes, seeds and
//! exposure windows.

use proptest::prelude::*;

use serscale_core::dut::DeviceUnderTest;
use serscale_ecc::{ProtectionScheme, UpsetOutcome};
use serscale_soc::platform::OperatingPoint;
use serscale_sram::{MbuModel, SoftErrorModel, SramArray};
use serscale_stats::ci::{poisson_ci, wilson_ci};
use serscale_stats::SimRng;
use serscale_types::{
    ArrayKind, Bytes, CrossSection, Fluence, Flux, Megahertz, Millivolts, SimDuration,
    NYC_SEA_LEVEL_FLUX,
};

proptest! {
    /// σ_bit(V) is monotonically non-increasing in V, for any anchoring.
    #[test]
    fn sigma_monotone_in_voltage(
        nominal_mv in 700u32..1100,
        lo_mv in 500u32..1100,
        sensitivity in 0.0f64..8.0,
    ) {
        let hi_mv = lo_mv + 50;
        let model = SoftErrorModel::new(
            CrossSection::cm2(1e-15),
            Millivolts::new(nominal_mv),
            sensitivity,
        );
        let lo = model.sigma_bit(Millivolts::new(lo_mv)).as_cm2();
        let hi = model.sigma_bit(Millivolts::new(hi_mv)).as_cm2();
        prop_assert!(lo >= hi);
    }

    /// Every strike on a SECDED array yields only legal outcome
    /// combinations: cluster of 1 ⇒ corrected; UEs require ≥2 flips in a
    /// word; no word ever reports clean-but-corrupt for small clusters.
    #[test]
    fn secded_array_strike_outcomes_are_legal(
        seed in 0u64..1000,
        cluster in 1u32..6,
        interleave in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let array = SramArray::new(
            ArrayKind::L3Shared,
            Bytes::kib(64),
            ProtectionScheme::Secded,
            interleave,
        );
        let mut rng = SimRng::seed_from(seed);
        let effect = array.strike(&mut rng, cluster);
        let flipped: u32 = effect.words.iter().map(|w| w.flipped_bits).sum();
        prop_assert_eq!(flipped, cluster.min(array.protection().entry_bits() * interleave));
        for word in &effect.words {
            match word.outcome {
                UpsetOutcome::Corrected => prop_assert!(word.flipped_bits >= 1),
                UpsetOutcome::DetectedUncorrectable =>
                    prop_assert!(word.flipped_bits >= 2),
                UpsetOutcome::MiscorrectedReported =>
                    prop_assert!(word.flipped_bits >= 3),
                UpsetOutcome::SilentCorruption =>
                    // Requires a flip pattern equal to a codeword: weight ≥ 4.
                    prop_assert!(word.flipped_bits >= 4),
            }
        }
    }

    /// MBU cluster lengths always respect the model cap and grow (in
    /// expectation) as voltage falls.
    #[test]
    fn mbu_cluster_bounds(seed in 0u64..500, mv in 600u32..1000) {
        let model = MbuModel::tech_28nm();
        let mut rng = SimRng::seed_from(seed);
        let len = model.sample_cluster_len(&mut rng, Millivolts::new(mv));
        prop_assert!((1..=model.max_cluster()).contains(&len));
        let low_mean = model.mean_cluster_len(Millivolts::new(mv));
        let high_mean = model.mean_cluster_len(Millivolts::new(mv + 100));
        prop_assert!(low_mean >= high_mean);
    }

    /// FIT arithmetic: FIT(σ) is linear in σ and events/fluence roundtrip
    /// through Eq. 1.
    #[test]
    fn fit_linear_in_cross_section(sigma in 1e-12f64..1e-6, k in 1.0f64..100.0) {
        let a = CrossSection::cm2(sigma).fit_at(NYC_SEA_LEVEL_FLUX).get();
        let b = CrossSection::cm2(sigma * k).fit_at(NYC_SEA_LEVEL_FLUX).get();
        prop_assert!((b / a - k).abs() / k < 1e-9);
    }

    /// Fluence accounting is additive regardless of how a window is split.
    #[test]
    fn fluence_additive_under_splitting(
        total_secs in 1.0f64..100_000.0,
        split in 0.01f64..0.99,
    ) {
        let flux = Flux::per_cm2_s(1.5e6);
        let whole: Fluence = flux * SimDuration::from_secs(total_secs);
        let a = flux * SimDuration::from_secs(total_secs * split);
        let b = flux * SimDuration::from_secs(total_secs * (1.0 - split));
        let sum = a + b;
        prop_assert!((whole.as_per_cm2() - sum.as_per_cm2()).abs()
            / whole.as_per_cm2() < 1e-12);
    }

    /// Poisson and Wilson intervals always bracket their point estimates.
    #[test]
    fn intervals_bracket_estimates(count in 1u64..5000, trials in 1u64..5000) {
        let (lo, hi) = poisson_ci(count, 0.95);
        prop_assert!(lo < count as f64 && (count as f64) < hi);
        let successes = count.min(trials);
        let (wlo, whi) = wilson_ci(successes, trials, 0.95);
        let p = successes as f64 / trials as f64;
        prop_assert!(wlo <= p + 1e-12 && p <= whi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&wlo) && (0.0..=1.0).contains(&whi));
    }

    /// The DUT's observable cross-section scales exactly linearly with the
    /// benchmark detection factor and is monotone under PMD undervolting.
    #[test]
    fn dut_sigma_properties(factor in 0.2f64..3.0, pmd_mv in 700u32..980) {
        let vmin = DeviceUnderTest::paper_vmin(Megahertz::new(2400));
        let nominal = DeviceUnderTest::xgene2(OperatingPoint::nominal(), vmin);
        let base = nominal.total_observable_sram_sigma(1.0).as_cm2();
        let scaled = nominal.total_observable_sram_sigma(factor).as_cm2();
        prop_assert!((scaled / base - factor).abs() < 1e-9);

        let mut point = OperatingPoint::nominal();
        point.pmd = Millivolts::new(pmd_mv - pmd_mv % 5);
        let under = DeviceUnderTest::xgene2(point, vmin);
        prop_assert!(under.total_observable_sram_sigma(1.0).as_cm2() >= base);
    }

    /// Logic datapath susceptibility is monotone: lower voltage (at fixed
    /// frequency and Vmin) never decreases σ_data.
    #[test]
    fn datapath_sigma_monotone(mv in 920u32..980) {
        let mv = mv - mv % 5;
        let vmin = Millivolts::new(920);
        let f = Megahertz::new(2400);
        let logic = serscale_soc::LogicSusceptibility::xgene2();
        let here = logic.sigma_data(Millivolts::new(mv), f, vmin).as_cm2();
        let lower = logic.sigma_data(Millivolts::new(mv - 5), f, vmin).as_cm2();
        prop_assert!(lower >= here);
    }
}

/// Campaign determinism over arbitrary seeds (plain test with a few seeds
/// rather than proptest: each campaign run is relatively expensive).
#[test]
fn campaign_determinism_over_seeds() {
    for seed in [1u64, 999, 0xDEAD_BEEF] {
        let mut config = serscale_core::campaign::CampaignConfig::paper_scaled(0.004);
        config.seed = seed;
        let a = serscale_core::campaign::Campaign::new(config.clone()).run_parallel(1);
        let b = serscale_core::campaign::Campaign::new(config).run_parallel(1);
        assert_eq!(a, b, "seed {seed}");
    }
}
