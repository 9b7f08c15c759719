//! The correctness gate behind `failed`: every simulated count of every
//! operation is compared with a committed expectation (`expected.json`, for
//! operations whose inputs do not depend on the seed, and for all of them
//! on the default seed) or with the warm-up pass of the same process.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::ops::Outcome;

/// The committed expectations, generated by `--write-expected` on
/// [`DEFAULT_SEED`](crate::DEFAULT_SEED).
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The exact counts of one operation, or the sum over a group of them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub work: u64,
    pub messages: u64,
    pub by_class: BTreeMap<String, u64>,
    /// Simulated rounds (final timestamp on the async plane), wrapping sum.
    pub rounds: u128,
    pub executed: u64,
    pub dead_letters: u64,
    pub omissions: u64,
    pub crashes: u64,
    pub recoveries: u64,
    pub terminations: u64,
    pub survivors: u64,
    pub violations: u64,
    pub errors: u64,
    /// Position-weighted checksum of `work_by_unit` (see [`work_digest`]).
    pub work_digest: u64,
    pub extra: BTreeMap<String, u64>,
}

/// `Σ (i+1)·multiplicity[i]` (wrapping) folded with the table length: any
/// unit performed a different number of times moves it, and the loop
/// vectorizes, which matters for the 2²⁴-entry tables of the giant cells.
pub fn work_digest(work_by_unit: &[u32]) -> u64 {
    let weighted = work_by_unit
        .iter()
        .zip(1u64..)
        .fold(0u64, |acc, (&c, i)| acc.wrapping_add(i.wrapping_mul(u64::from(c))));
    weighted ^ (work_by_unit.len() as u64).rotate_left(48)
}

impl Counts {
    /// Adds one operation to a group's sums (no allocation once every
    /// message class and extra counter of the group has been seen).
    pub fn absorb(&mut self, o: &Outcome) {
        fn bump(map: &mut BTreeMap<String, u64>, key: &str, by: u64) {
            match map.get_mut(key) {
                Some(v) => *v += by,
                None => {
                    map.insert(key.to_string(), by);
                }
            }
        }
        let m = &o.metrics;
        self.ops += 1;
        self.work += m.work_total;
        self.messages += m.messages;
        for (class, k) in &m.messages_by_class {
            bump(&mut self.by_class, class, *k);
        }
        self.rounds = self.rounds.wrapping_add(m.rounds.get());
        self.executed += o.executed;
        self.dead_letters += m.dead_letters;
        self.omissions += m.omissions;
        self.crashes += u64::from(m.crashes);
        self.recoveries += u64::from(m.recoveries);
        self.terminations += u64::from(m.terminations);
        self.survivors += o.survivors;
        self.violations += o.violations;
        self.errors += u64::from(o.error.is_some());
        self.work_digest = self.work_digest.wrapping_add(work_digest(&m.work_by_unit));
        for (key, k) in &o.extra {
            bump(&mut self.extra, key, *k);
        }
    }

    /// Wide values travel as decimal strings: JSON numbers are doubles.
    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, u64>| {
            let mut v = Value::obj();
            for (k, n) in m {
                v.set(k, *n);
            }
            v
        };
        let mut v = Value::obj();
        v.set("ops", self.ops)
            .set("work", self.work)
            .set("messages", self.messages)
            .set("by_class", map(&self.by_class))
            .set("rounds", self.rounds.to_string())
            .set("executed", self.executed)
            .set("dead_letters", self.dead_letters)
            .set("omissions", self.omissions)
            .set("crashes", self.crashes)
            .set("recoveries", self.recoveries)
            .set("terminations", self.terminations)
            .set("survivors", self.survivors)
            .set("violations", self.violations)
            .set("errors", self.errors)
            .set("work_digest", self.work_digest.to_string())
            .set("extra", map(&self.extra));
        v
    }

    pub fn from_json(v: &Value) -> Result<Counts, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("expected counts: missing number `{key}`"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("expected counts: missing string `{key}`"))
        };
        let map = |key: &str| -> BTreeMap<String, u64> {
            let fields = v.get(key).map_or(&[][..], Value::fields);
            fields.iter().filter_map(|(k, n)| Some((k.clone(), n.as_f64()? as u64))).collect()
        };
        Ok(Counts {
            ops: num("ops")?,
            work: num("work")?,
            messages: num("messages")?,
            by_class: map("by_class"),
            rounds: text("rounds")?.parse().map_err(|e| format!("expected counts: rounds: {e}"))?,
            executed: num("executed")?,
            dead_letters: num("dead_letters")?,
            omissions: num("omissions")?,
            crashes: num("crashes")?,
            recoveries: num("recoveries")?,
            terminations: num("terminations")?,
            survivors: num("survivors")?,
            violations: num("violations")?,
            errors: num("errors")?,
            work_digest: text("work_digest")?
                .parse()
                .map_err(|e| format!("expected counts: work_digest: {e}"))?,
            extra: map("extra"),
        })
    }

    /// The fields in which `self` differs from `want`, as the record shows them.
    pub fn diff(&self, want: &Counts) -> Vec<String> {
        let (got, want) = (self.to_json(), want.to_json());
        got.fields()
            .iter()
            .zip(want.fields())
            .filter(|((_, got), (_, want))| got != want)
            .map(|((name, got), (_, want))| format!("{name}: got {got}, expected {want}"))
            .collect()
    }
}

/// Group label → summed counts, for one pass.
pub type Groups = BTreeMap<&'static str, Counts>;

/// Sums the outcomes of one pass by label.
pub fn group(outcomes: &[Outcome]) -> Groups {
    let mut groups = Groups::new();
    for o in outcomes {
        groups.entry(o.label).or_default().absorb(o);
    }
    groups
}

/// The expected groups of one workload from `expected.json` (keyed by
/// owned strings; empty if the workload has no entry yet).
pub fn expected_groups(doc: &Value, workload: &str) -> Result<BTreeMap<String, Counts>, String> {
    let Some(entry) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(BTreeMap::new());
    };
    entry.fields().iter().map(|(k, v)| Ok((k.clone(), Counts::from_json(v)?))).collect()
}

/// What a pass is held against: per group, the counts it must reproduce.
#[derive(Debug, Default)]
pub struct Reference {
    pub groups: BTreeMap<String, Counts>,
}

impl Reference {
    /// Checks one pass. Returns the number of failed operations and a line
    /// per discrepancy. An operation fails alone (error, violation, bound)
    /// or with its whole group (summed counts differ from the reference);
    /// `complete` passes must also produce every group of the reference.
    pub fn check(&self, outcomes: &[Outcome], complete: bool) -> (u64, Vec<String>) {
        let groups = group(outcomes);
        let mut bad_groups: Vec<&str> = Vec::new();
        let mut notes = Vec::new();
        for (label, got) in &groups {
            match self.groups.get(*label) {
                Some(want) if got == want => {}
                Some(want) => {
                    bad_groups.push(label);
                    notes.push(format!("{label}: {}", got.diff(want).join("; ")));
                }
                None => {
                    bad_groups.push(label);
                    notes.push(format!("{label}: no reference counts"));
                }
            }
        }
        let mut failed = 0u64;
        for o in outcomes {
            let alone = o.failed_alone();
            if alone {
                let (work, msgs) = o.bound_ratios();
                notes.push(format!(
                    "{}: error={:?} violations={} work/bound={work:.3} msgs/bound={msgs:.3}",
                    o.label, o.error, o.violations
                ));
            }
            failed += u64::from(alone || bad_groups.contains(&o.label));
        }
        if complete {
            for label in self.groups.keys().filter(|l| !groups.contains_key(l.as_str())) {
                failed += 1;
                notes.push(format!("{label}: group missing from the pass"));
            }
        }
        notes.truncate(20);
        (failed, notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Plane;

    fn outcome(label: &'static str, work: &[u32], messages: u64) -> Outcome {
        let mut o = Outcome::empty(label, Plane::Sync);
        o.metrics.work_by_unit = work.to_vec();
        o.metrics.work_total = work.iter().map(|&c| u64::from(c)).sum();
        o.metrics.messages = messages;
        o.metrics.messages_by_class.insert("ordinary", messages);
        o.metrics.rounds = doall_sim::Round::new(1 << 100);
        o
    }

    #[test]
    fn counts_round_trip_through_json_with_wide_values() {
        let mut c = Counts::default();
        c.absorb(&outcome("a", &[1, 2, 3], 9));
        c.absorb(&outcome("a", &[1, 1, 1], 4));
        c.extra.insert("completed".into(), 3000);
        c.work_digest = u64::MAX - 5;
        assert_eq!(c.rounds, 1 << 101);
        let back = Counts::from_json(&Value::parse(&c.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn digest_sees_which_unit_was_redone() {
        assert_ne!(work_digest(&[2, 1, 1]), work_digest(&[1, 2, 1]));
        assert_ne!(work_digest(&[1, 1]), work_digest(&[1, 1, 0]));
    }

    #[test]
    fn a_group_mismatch_fails_every_operation_in_the_group() {
        let reference = Reference {
            groups: group(&[
                outcome("a", &[1, 1], 2),
                outcome("a", &[1, 1], 2),
                outcome("b", &[1], 0),
            ])
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        };
        let good = [outcome("a", &[1, 1], 2), outcome("a", &[1, 1], 2), outcome("b", &[1], 0)];
        assert_eq!(reference.check(&good, true).0, 0);
        let drift = [outcome("a", &[1, 1], 2), outcome("a", &[1, 1], 3), outcome("b", &[1], 0)];
        let (failed, notes) = reference.check(&drift, true);
        assert_eq!(failed, 2);
        assert!(notes[0].contains("messages: got 5, expected 4"), "{notes:?}");
        // A twin pass may cover a subset of the groups; a complete one may not.
        assert_eq!(reference.check(&good[..2], false).0, 0);
        assert_eq!(reference.check(&good[..2], true).0, 1);
    }

    #[test]
    fn errors_violations_and_bounds_fail_alone() {
        let reference = Reference::default();
        let mut o = outcome("x", &[1], 10);
        o.bound = Some(doall_bounds::Bounds { work: 1, messages: 9, rounds: 0 });
        assert!(o.failed_alone());
        o.bound = Some(doall_bounds::Bounds { work: 1, messages: 10, rounds: 0 });
        assert!(!o.failed_alone());
        o.violations = 1;
        assert!(o.failed_alone());
        assert_eq!(reference.check(&[o], false).0, 1);
    }
}

/// The committed expectations against the closed forms the repo pins
/// elsewhere (e2, e8, e17 and the theorems): `expected.json` is generated,
/// so this is what keeps a regenerated file honest.
#[cfg(test)]
mod closed_forms {
    use super::*;

    fn counts(workload: &str, group: &str) -> Counts {
        let doc = Value::parse(EXPECTED_JSON).unwrap();
        expected_groups(&doc, workload).unwrap().remove(group).unwrap_or_else(|| {
            panic!("expected.json has no `{workload}` / `{group}`: regenerate it with --write-expected")
        })
    }

    #[test]
    fn storm_cells_match_their_pinned_message_counts() {
        // The A group is the failure-free cell plus its checkpointed twin.
        let a = counts("sync_storm", "a_2048_1024");
        assert_eq!((a.ops, a.messages, a.work), (2, 2 * 94_240, 2 * 2048));
        assert_eq!(counts("sync_storm", "lockstep_2048_512").messages, 1_046_528);
        assert_eq!(counts("sync_storm", "naive_4096_1024").messages, 5_115);
        let b = counts("sync_storm", "b_4096_1024_doa992");
        assert_eq!(
            (b.messages, b.by_class["ordinary"], b.by_class["go_ahead"]),
            (31_775, 31_744, 31)
        );
        // Broadcast D, failure-free: two agreement broadcasts of t(t−1).
        assert_eq!(counts("sync_storm", "d_1024_256").messages, 2 * 256 * 255);
    }

    #[test]
    fn giant_cell_matches_the_coordinator_closed_forms() {
        let (n, t) = (1u64 << 24, 1u64 << 16);
        let d = counts("sync_giant", "d_coord_2p24_2p16");
        assert_eq!(d.messages, 2 * (t - 1));
        assert_eq!(d.rounds, u128::from(n / t + 3));
        assert_eq!((d.work, d.survivors, d.dead_letters), (n, t, 0));
        // Every unit exactly once: Σ i for i in 1..=n, folded with the length.
        assert_eq!(d.work_digest, (n * (n + 1) / 2) ^ n.rotate_left(48));
    }

    #[test]
    fn nothing_expected_ever_failed() {
        let doc = Value::parse(EXPECTED_JSON).unwrap();
        for (workload, groups) in doc.get("workloads").unwrap().fields() {
            for (group, counts) in expected_groups(&doc, workload).unwrap() {
                assert_eq!((counts.errors, counts.violations), (0, 0), "{workload}/{group}");
                assert!(counts.ops > 0, "{workload}/{group}");
            }
            assert!(!groups.fields().is_empty(), "{workload} has no groups");
        }
        // Fail-stop async A sends exactly what sync A sends (PR 4's pin).
        assert_eq!(counts("async_storm", "async_a_fixed1").messages, 94_240);
        assert_eq!(counts("serve_stream", "steady.fleet").extra["completed"], 3_000);
        let overload = counts("serve_stream", "overload.fleet");
        assert_eq!(overload.extra["completed"] + overload.extra["rejected"], 1_000);
    }
}
