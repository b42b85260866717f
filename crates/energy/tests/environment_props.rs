//! Property tests on the fleet environment generators: seed determinism
//! (same seed ⇒ bit-identical trace) and statistical sanity (realized
//! mean power tracks the model's configured mean) across the whole
//! parameter space fleet scenarios can reach.

use proptest::prelude::*;

use wn_energy::EnvModel;

fn any_model() -> impl Strategy<Value = EnvModel> {
    prop_oneof![
        (1e-6f64..1e-3, 5.0f64..120.0, 5.0f64..120.0).prop_map(
            |(mean_power_w, mean_burst_ms, mean_gap_ms)| EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            }
        ),
        (1e-6f64..1e-3, 2.0f64..60.0).prop_map(|(peak_power_w, day_s)| {
            EnvModel::SolarDiurnal {
                peak_power_w,
                day_s,
            }
        }),
        (0.0f64..1e-5, 1e-5f64..1e-3, 1.0f64..20.0, 20.0f64..400.0).prop_map(
            |(baseline_w, impulse_w, impulse_ms, mean_gap_ms)| EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same (model, seed) always synthesizes a bit-identical trace —
    /// the invariant fleet resume relies on to replay a device's
    /// environment exactly.
    #[test]
    fn synthesis_is_seed_deterministic(model in any_model(), seed in 0u64..10_000) {
        let a = model.synthesize(seed, 3.0);
        let b = model.synthesize(seed, 3.0);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_csv(), b.to_csv());
    }

    /// Every synthesized sample is non-negative and the trace has the
    /// requested length.
    #[test]
    fn synthesis_is_nonnegative_and_sized(model in any_model(), seed in 0u64..1000) {
        let t = model.synthesize(seed, 1.5);
        prop_assert_eq!(t.len(), 1500);
        for i in 0..t.len() {
            prop_assert!(t.power_at(i as f64 / 1000.0) >= 0.0);
        }
    }
}

/// Statistical sanity across seeds at fixed defaults: the seed-averaged
/// realized mean power lands within ±20 % of the analytic mean. (The
/// per-parameter sweep above checks determinism; the mean check uses
/// long traces, so it runs once per model, not per proptest case.)
#[test]
fn default_models_hit_their_configured_mean() {
    for model in [
        EnvModel::rf_default(),
        EnvModel::solar_default(),
        EnvModel::piezo_default(),
    ] {
        let mean: f64 = (10..14)
            .map(|seed| model.synthesize(seed, 300.0).mean_power())
            .sum::<f64>()
            / 4.0;
        let expect = model.expected_mean_power_w();
        assert!(
            (mean - expect).abs() <= 0.2 * expect,
            "{}: realized {mean:e} vs expected {expect:e}",
            model.name()
        );
    }
}
