//! Property and scenario tests for the §5 Byzantine-agreement reduction:
//! agreement and validity must hold under every crash schedule with at
//! most `t` failures, for every engine.

use doall::agreement::{BaSystem, Engine, FloodingBa};
use doall::bounds::theorems;
use doall::sim::{CrashSpec, FaultPlan, NoFailures, Pid};
use proptest::prelude::*;

#[test]
fn ba_via_every_engine_is_correct_failure_free() {
    // Engine shape constraints: t+1 square for A/B, power of two for C.
    for (engine, t) in [(Engine::A, 8), (Engine::B, 8), (Engine::C, 7)] {
        let outcome =
            BaSystem::new(32, t, engine).unwrap().general_value(3).run(NoFailures).unwrap();
        assert!(outcome.agreement(), "{engine:?}");
        assert!(outcome.validity(), "{engine:?}");
        assert_eq!(outcome.decided_count(), 32, "{engine:?}");
    }
}

#[test]
fn ba_message_complexity_ranks_as_in_section_5() {
    let (n, t) = (128u64, 8u64);
    let via_b = BaSystem::new(n, t, Engine::B)
        .unwrap()
        .general_value(1)
        .run(NoFailures)
        .unwrap()
        .metrics
        .messages;
    let via_c = BaSystem::new(n, 7, Engine::C)
        .unwrap()
        .general_value(1)
        .run(NoFailures)
        .unwrap()
        .metrics
        .messages;
    let (_, flood) = FloodingBa::run_system(n, t, 1, NoFailures).unwrap();
    assert!(via_b <= theorems::ba_via_b_messages(n, t));
    assert!(via_c <= theorems::ba_via_c_messages(n, 7));
    assert!(via_b < flood.messages / 10, "reduction beats flooding: {via_b} vs {}", flood.messages);
    assert!(via_c < flood.messages / 10);
}

#[test]
fn ba_survives_general_crash_at_every_stage_1_prefix() {
    // The general reaches only the first k senders before dying: agreement
    // must hold for every k.
    let (n, t) = (24u64, 3u64);
    for k in 0..=t as usize {
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::prefix(k));
        let outcome = BaSystem::new(n, t, Engine::B).unwrap().general_value(9).run(adv).unwrap();
        assert!(outcome.agreement(), "prefix {k}: {:?}", outcome.decisions);
        assert_eq!(outcome.decided_count() as u64, n - 1, "prefix {k}");
    }
}

#[test]
fn ba_survives_active_sender_crashes_at_every_cut_point() {
    use doall::sim::Trigger;
    let (n, t) = (16u64, 3u64);
    for nth in 1..=10u64 {
        for engine in [Engine::B, Engine::C] {
            let adv = FaultPlan::default()
                .crash_on(Trigger::NthSendRoundBy { pid: Pid::new(0), nth }, CrashSpec::prefix(1));
            let outcome = BaSystem::new(n, t, engine).unwrap().general_value(6).run(adv).unwrap();
            assert!(outcome.agreement(), "{engine:?} cut {nth}: {:?}", outcome.decisions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Agreement holds under random crash storms for the B engine.
    #[test]
    fn ba_agreement_under_random_storms(seed in any::<u64>(), p in 0.0f64..0.05) {
        let (n, t) = (24u64, 3u64);
        let adv = FaultPlan::random(seed, p, t as u32);
        let outcome = BaSystem::new(n, t, Engine::B)
            .unwrap()
            .general_value(13)
            .run(adv)
            .unwrap();
        prop_assert!(outcome.agreement(), "{:?}", outcome.decisions);
        prop_assert!(outcome.validity());
        // At most t crashes -> at least n - t deciders.
        prop_assert!(outcome.decided_count() as u64 >= n - t);
    }

    /// Flooding also agrees (it had better, at Θ(n²t) messages).
    #[test]
    fn flooding_agreement_under_random_storms(seed in any::<u64>(), p in 0.0f64..0.05) {
        let (n, t) = (16u64, 4u64);
        let adv = FaultPlan::random(seed, p, t as u32);
        let (decisions, _) = FloodingBa::run_system(n, t, 2, adv).unwrap();
        let decided: Vec<u64> = decisions.iter().flatten().copied().collect();
        prop_assert!(decided.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
    }
}
