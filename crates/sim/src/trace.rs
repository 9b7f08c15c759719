//! Execution traces: the raw material for invariant checking.

use serde::Serialize;

use crate::ids::{Pid, Round, Unit};

/// One observable event of an execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Event {
    /// A process performed a unit of work.
    Work {
        /// Round of the event.
        round: Round,
        /// Acting process.
        pid: Pid,
        /// The unit performed.
        unit: Unit,
    },
    /// A message left a process (post-adversary: suppressed sends of a
    /// crashing process are not traced).
    Send {
        /// Round of the event.
        round: Round,
        /// Sender.
        from: Pid,
        /// Recipient.
        to: Pid,
        /// Message class (see [`Classify`](crate::Classify)).
        class: &'static str,
    },
    /// A process crashed.
    Crash {
        /// Round of the event.
        round: Round,
        /// The victim.
        pid: Pid,
    },
    /// A process terminated voluntarily.
    Terminate {
        /// Round of the event.
        round: Round,
        /// The terminating process.
        pid: Pid,
    },
    /// The asynchronous plane's retirement detector informed `observer`
    /// that `retired` has crashed or terminated. Only the event-driven
    /// engine emits this; the detector-soundness checker
    /// ([`check_detector_soundness`](crate::invariants::check_detector_soundness))
    /// verifies that no notice ever precedes the retirement it reports.
    Notice {
        /// Timestamp of the delivery (the async plane records its logical
        /// time in the round field).
        round: Round,
        /// The process being informed.
        observer: Pid,
        /// The process reported as retired.
        retired: Pid,
    },
    /// A protocol-internal annotation (see
    /// [`Effects::note`](crate::Effects::note)), e.g. `"activate"`.
    Note {
        /// Round of the event.
        round: Round,
        /// The annotating process.
        pid: Pid,
        /// The annotation tag.
        tag: &'static str,
    },
    /// A previously crashed process restarted after its scheduled downtime
    /// (see [`Fate::CrashRecover`](crate::Fate::CrashRecover)). From this
    /// event on, the process is alive again and may act; the
    /// recovery-silence checker
    /// ([`check_recovery_silence`](crate::invariants::check_recovery_silence))
    /// verifies that nothing happened in between.
    Recover {
        /// Round (or async timestamp) of the restart.
        round: Round,
        /// The recovering process.
        pid: Pid,
    },
}

impl Event {
    /// The round at which the event occurred.
    pub fn round(&self) -> Round {
        match self {
            Event::Work { round, .. }
            | Event::Send { round, .. }
            | Event::Crash { round, .. }
            | Event::Terminate { round, .. }
            | Event::Notice { round, .. }
            | Event::Note { round, .. }
            | Event::Recover { round, .. } => *round,
        }
    }
}

/// An ordered log of [`Event`]s that knows whether it records.
///
/// Both engines set the flag from their config's `record_trace` (see
/// [`RunConfig::record_trace`](crate::RunConfig::record_trace)) and push
/// every event; an untraced run's trace drops them all. Long sweeps leave
/// recording off; tests turn it on and feed the trace to the checkers in
/// [`invariants`](crate::invariants). Equality compares events only.
#[derive(Clone, Debug, Serialize)]
pub struct Trace {
    events: Vec<Event>,
    recording: bool,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl Eq for Trace {}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace that records.
    pub fn new() -> Self {
        Self::recording(true)
    }

    /// An empty trace that records only if `on`.
    pub(crate) fn recording(on: bool) -> Self {
        Trace { events: Vec::new(), recording: on }
    }

    /// Whether events pushed to this trace are kept.
    #[inline]
    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    /// All events in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events of a given note tag.
    pub fn notes<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = (Round, Pid)> + 'a {
        self.events.iter().filter_map(move |e| match e {
            Event::Note { round, pid, tag: t } if *t == tag => Some((*round, *pid)),
            _ => None,
        })
    }

    /// The round at which `pid` retired (crashed or terminated), if it did.
    pub fn retirement_round(&self, pid: Pid) -> Option<Round> {
        self.events.iter().find_map(|e| match e {
            Event::Crash { round, pid: p } | Event::Terminate { round, pid: p } if *p == pid => {
                Some(*round)
            }
            _ => None,
        })
    }

    /// Appends `event` if the trace records; a no-op otherwise.
    #[inline]
    pub(crate) fn push(&mut self, event: Event) {
        if self.recording {
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_orders_and_filters_notes() {
        let mut t = Trace::new();
        t.push(Event::Note { round: Round::new(1), pid: Pid::new(0), tag: "activate" });
        t.push(Event::Work { round: Round::new(2), pid: Pid::new(0), unit: Unit::new(1) });
        t.push(Event::Note { round: Round::new(9), pid: Pid::new(1), tag: "activate" });
        let activations: Vec<_> = t.notes("activate").collect();
        assert_eq!(activations, vec![(Round::new(1), Pid::new(0)), (Round::new(9), Pid::new(1))]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn an_off_trace_drops_pushes_and_equality_ignores_the_flag() {
        let mut off = Trace::recording(false);
        off.push(Event::Crash { round: Round::new(1), pid: Pid::new(0) });
        assert!(off.is_empty() && !off.is_recording());
        assert!(Trace::new().is_recording() && Trace::default().is_recording());
        assert_eq!(off, Trace::new(), "equality compares events only");
    }

    #[test]
    fn retirement_round_finds_first_retirement_event() {
        let mut t = Trace::new();
        t.push(Event::Crash { round: Round::new(4), pid: Pid::new(2) });
        t.push(Event::Terminate { round: Round::new(6), pid: Pid::new(1) });
        assert_eq!(t.retirement_round(Pid::new(2)), Some(Round::new(4)));
        assert_eq!(t.retirement_round(Pid::new(1)), Some(Round::new(6)));
        assert_eq!(t.retirement_round(Pid::new(0)), None);
    }

    #[test]
    fn event_round_accessor_covers_all_variants() {
        let events = [
            Event::Work { round: Round::new(1), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Send { round: Round::new(2), from: Pid::new(0), to: Pid::new(1), class: "m" },
            Event::Crash { round: Round::new(3), pid: Pid::new(0) },
            Event::Terminate { round: Round::new(4), pid: Pid::new(1) },
            Event::Note { round: Round::new(5), pid: Pid::new(1), tag: "x" },
            Event::Notice { round: Round::new(6), observer: Pid::new(1), retired: Pid::new(0) },
            Event::Recover { round: Round::new(7), pid: Pid::new(0) },
        ];
        let rounds: Vec<Round> = events.iter().map(Event::round).collect();
        assert_eq!(rounds, (1u64..=7).map(Round::from).collect::<Vec<_>>());
    }
}
