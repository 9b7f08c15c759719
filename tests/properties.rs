//! Property-based tests (proptest) over randomly drawn system shapes and
//! crash schedules: correctness ("all work done whenever one process
//! survives"), the theorem bounds, the single-active invariants, and the
//! deadline identities of Lemma 2.5.

use doall::bounds::deadlines_ab::{ddb, tt, AbParams};
use doall::bounds::theorems;
use doall::core::ab::padded_params;
use doall::sim::invariants::{check_activation_order, check_single_active};
use doall::sim::{run, RunConfig};
use doall::workload::Scenario;
use doall::{ProtocolA, ProtocolB, ProtocolC, ProtocolD};
use proptest::prelude::*;

/// Valid Protocol A/B shapes: t a perfect square, t | n, n >= t.
fn ab_shape() -> impl Strategy<Value = (u64, u64)> {
    (1u64..=6, 1u64..=6).prop_map(|(s, k)| {
        let t = s * s;
        (t * k, t)
    })
}

/// Valid Protocol C shapes, kept small (exponential deadlines).
fn c_shape() -> impl Strategy<Value = (u64, u64)> {
    (1u64..=3, 1u64..=3).prop_map(|(log_t, k)| {
        let t = 1u64 << log_t;
        (t * k, t)
    })
}

/// One random crash storm against `t` Protocol A processes doing `n`
/// units: all work done whenever one process survives, Theorem 2.3 in
/// the terms of the shape the schedule runs on (`ran` — the padded one for
/// a padded build), and the single-active invariants.
fn protocol_a_storm(procs: Vec<ProtocolA>, n: u64, t: u64, ran: AbParams, seed: u64, p: f64) {
    let scenario = Scenario::Random { seed, p, max_crashes: (t - 1) as u32 };
    let report =
        run(procs, scenario.adversary(), RunConfig::new(n as usize, u64::MAX - 1).with_trace())
            .unwrap();
    prop_assert!(report.has_survivor());
    prop_assert!(report.metrics.all_work_done());
    let b = theorems::protocol_a(ran.n, ran.t);
    prop_assert!(report.metrics.work_total <= b.work);
    prop_assert!(report.metrics.messages <= b.messages);
    prop_assert!(report.metrics.rounds <= b.rounds);
    prop_assert!(check_single_active(&report.trace).is_empty());
    prop_assert!(check_activation_order(&report.trace).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Lemma 2.5(a): TT(j,k) + TT(l,j) = TT(l,k) for l > j > k.
    #[test]
    fn lemma_2_5_a_holds((n, t) in ab_shape(), seed in any::<u64>()) {
        prop_assume!(t >= 3);
        let p = AbParams::new(n, t);
        let k = seed % (t - 2);
        let j = k + 1 + (seed >> 8) % (t - k - 2).max(1);
        let l = j + 1 + (seed >> 16) % (t - j - 1).max(1);
        prop_assume!(l < t);
        prop_assert_eq!(tt(p, j, k) + tt(p, l, j), tt(p, l, k));
    }

    /// Lemma 2.5(b): TT(j,k) + DDB(l,j) = DDB(l,k) when group(j) < group(l).
    #[test]
    fn lemma_2_5_b_holds((n, t) in ab_shape(), seed in any::<u64>()) {
        prop_assume!(t >= 4);
        let p = AbParams::new(n, t);
        let k = seed % (t - 2);
        let j = k + 1 + (seed >> 8) % (t - k - 2).max(1);
        let l = j + 1 + (seed >> 16) % (t - j - 1).max(1);
        prop_assume!(l < t && p.group_of(j) < p.group_of(l));
        prop_assert_eq!(tt(p, j, k) + ddb(p, l, j), ddb(p, l, k));
    }

    /// Protocol A: correctness and Theorem 2.3 under random crash storms.
    #[test]
    fn protocol_a_random_storms((n, t) in ab_shape(), seed in any::<u64>(), p in 0.0f64..0.08) {
        protocol_a_storm(ProtocolA::processes(n, t).unwrap(), n, t, AbParams::new(n, t), seed, p);
    }

    /// The same contract on arbitrary shapes through the padded
    /// constructor, Theorem 2.3 read in padded terms (`3n⁺`, `9t⁺√t⁺`).
    #[test]
    fn protocol_a_padded_random_storms(n in 1u64..=200, t in 1u64..=40, seed in any::<u64>(), p in 0.0f64..0.08) {
        let procs = ProtocolA::processes_padded(n, t).unwrap();
        protocol_a_storm(procs, n, t, padded_params(n, t), seed, p);
    }

    /// Protocol B: correctness and Theorem 2.8 under random crash storms.
    #[test]
    fn protocol_b_random_storms((n, t) in ab_shape(), seed in any::<u64>(), p in 0.0f64..0.08) {
        let scenario = Scenario::Random { seed, p, max_crashes: (t - 1) as u32 };
        let report = run(
            ProtocolB::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
        ).unwrap();
        prop_assert!(report.metrics.all_work_done());
        let b = theorems::protocol_b(n, t);
        prop_assert!(report.metrics.work_total <= b.work);
        prop_assert!(report.metrics.messages <= b.messages);
        prop_assert!(report.metrics.rounds <= b.rounds,
            "rounds {} > bound {}", report.metrics.rounds, b.rounds);
        prop_assert!(check_single_active(&report.trace).is_empty());
        prop_assert!(check_activation_order(&report.trace).is_empty());
    }

    /// Protocol C: correctness, Theorem 3.8, and the knowledge-order
    /// invariant (checked live by a debug assertion inside the merge).
    #[test]
    fn protocol_c_random_storms((n, t) in c_shape(), seed in any::<u64>(), p in 0.0f64..0.08) {
        let scenario = Scenario::Random { seed, p, max_crashes: (t - 1) as u32 };
        let report = run(
            ProtocolC::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
        ).unwrap();
        prop_assert!(report.metrics.all_work_done());
        let b = theorems::protocol_c(n, t);
        prop_assert!(report.metrics.work_total <= b.work,
            "work {} > bound {}", report.metrics.work_total, b.work);
        prop_assert!(report.metrics.messages <= b.messages);
        prop_assert!(check_single_active(&report.trace).is_empty());
    }

    /// Protocol D accepts arbitrary shapes (no divisibility assumptions)
    /// and keeps Theorem 4.1's envelope under random storms.
    #[test]
    fn protocol_d_random_storms(n in 1u64..=60, t in 1u64..=12, seed in any::<u64>(), p in 0.0f64..0.08) {
        let scenario = Scenario::Random { seed, p, max_crashes: t.saturating_sub(1) as u32 };
        let report = run(
            ProtocolD::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
        ).unwrap();
        prop_assert!(report.metrics.all_work_done());
        let f = u64::from(report.metrics.crashes);
        let b = theorems::protocol_d_fallback(n, t, f);
        prop_assert!(report.metrics.work_total <= b.work,
            "work {} > bound {} (f = {f})", report.metrics.work_total, b.work);
        prop_assert!(report.metrics.messages <= b.messages);
    }

    /// Dead-on-arrival prefixes of any length leave a working system.
    #[test]
    fn dead_on_arrival_any_prefix((n, t) in ab_shape(), frac in 0.0f64..1.0) {
        prop_assume!(t >= 2);
        let k = ((t - 1) as f64 * frac) as u64;
        let scenario = Scenario::DeadOnArrival { k };
        let report = run(
            ProtocolB::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
        ).unwrap();
        prop_assert!(report.metrics.all_work_done());
        prop_assert_eq!(report.metrics.work_total, n, "dead processes did nothing; no rework");
    }

    /// Determinism as a property: equal inputs, equal outputs.
    #[test]
    fn metrics_are_deterministic((n, t) in ab_shape(), seed in any::<u64>()) {
        let mk = || run(
            ProtocolB::processes(n, t).unwrap(),
            Scenario::Random { seed, p: 0.03, max_crashes: (t - 1) as u32 }.adversary(),
            RunConfig::new(n as usize, u64::MAX - 1),
        ).unwrap().metrics;
        prop_assert_eq!(mk(), mk());
    }
}

/// Wide-clock arithmetic properties for [`Round`](doall::sim::Round),
/// concentrated on the `u64`/`u128` boundary the PR-5 clock widening
/// crossed: offsets are drawn so that sums regularly straddle `2^64`
/// (where the old clock overflowed) and the `u128` saturation horizon.
mod round_arithmetic {
    use doall::sim::Round;
    use proptest::prelude::*;

    /// A base value that lands below, at, or above `2^64`, or near the
    /// very top of the wide clock — the interesting neighbourhoods.
    fn boundary_base() -> impl Strategy<Value = u128> {
        (any::<u64>(), 0usize..4).prop_map(|(x, zone)| {
            let x = u128::from(x);
            match zone {
                0 => x,                                           // 64-bit range
                1 => (1u128 << 64).saturating_sub(x % 1_000_000), // just below 2^64
                2 => (1u128 << 64) + x,                           // just above 2^64
                _ => u128::MAX - (x % 1_000_000),                 // near the horizon
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `checked_add` is exact arithmetic or `None`, and
        /// `saturating_add` agrees with it wherever it is defined —
        /// pinning at the horizon where it is not.
        #[test]
        fn checked_and_saturating_agree(base in boundary_base(), d in any::<u64>()) {
            let r = Round::new(base);
            let d = u128::from(d);
            match r.checked_add(d) {
                Some(sum) => {
                    prop_assert_eq!(sum.get(), base + d);
                    prop_assert_eq!(r.saturating_add(d), sum);
                }
                None => {
                    prop_assert!(base > u128::MAX - d, "checked_add refused a legal sum");
                    prop_assert_eq!(r.saturating_add(d), Round::MAX);
                }
            }
        }

        /// The panicking `+` operators agree with `checked_add` on every
        /// non-overflowing sum, for both `u64` and `u128` offsets.
        #[test]
        fn add_operators_match_checked(base in boundary_base(), d in any::<u64>()) {
            let r = Round::new(base);
            if base <= u128::MAX - u128::from(d) {
                prop_assert_eq!(r + d, Round::new(base + u128::from(d)));
                prop_assert_eq!(r + u128::from(d), Round::new(base + u128::from(d)));
                // Round-trip through subtraction recovers the offset.
                prop_assert_eq!((r + d) - r, u128::from(d));
            }
        }

        /// Crossing the old clock's edge is ordinary arithmetic now:
        /// `u64::MAX`-anchored rounds advance into the wide range with
        /// ordering, comparisons, and distance all consistent.
        #[test]
        fn u64_horizon_is_not_an_edge(d in 1u64..1_000_000) {
            let edge = Round::from(u64::MAX);
            let beyond = edge + d;
            prop_assert!(beyond > edge);
            prop_assert!(beyond > u64::MAX);
            prop_assert_eq!(beyond - edge, u128::from(d));
            prop_assert_eq!(beyond.get(), u128::from(u64::MAX) + u128::from(d));
            // saturating_sub floors at zero in the other direction.
            prop_assert_eq!(edge.saturating_sub(beyond), 0);
        }

        /// Mixed-width comparisons are coherent: `Round` vs `u64` and
        /// `Round` vs `u128` order exactly as the underlying values.
        #[test]
        fn mixed_width_comparisons(base in boundary_base(), x in any::<u64>()) {
            let r = Round::new(base);
            prop_assert_eq!(r == x, base == u128::from(x));
            prop_assert_eq!(r < x, base < u128::from(x));
            prop_assert_eq!(x < r, u128::from(x) < base);
            prop_assert_eq!(r == base, true);
            prop_assert_eq!(r <= base, true);
            // From<u64> is lossless and ordering-preserving.
            prop_assert_eq!(Round::from(x).get(), u128::from(x));
            prop_assert_eq!(Round::from(x) <= Round::from(u64::MAX), true);
        }

        /// The horizon is absorbing for saturating arithmetic and ordered
        /// above every other round.
        #[test]
        fn horizon_is_absorbing(base in boundary_base(), d in any::<u64>()) {
            prop_assert_eq!(Round::MAX.saturating_add(u128::from(d)), Round::MAX);
            let r = Round::new(base);
            prop_assert!(r <= Round::MAX);
            prop_assert_eq!(r.saturating_add(u128::MAX), Round::MAX);
        }
    }
}
