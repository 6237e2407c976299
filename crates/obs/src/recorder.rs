//! The recorder handle and its pluggable sinks.
//!
//! A [`Recorder`] is cheap to clone and thread through every layer. The
//! disabled recorder is a `None` — emitting through it is a single branch
//! and [`Recorder::emit_with`] never even constructs the event, so
//! instrumentation has zero overhead (and zero observable effect) when
//! tracing is off.

use crate::event::Event;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Where recorded events go. Sinks run under the recorder's lock, so a
/// sink only needs `&mut self`.
pub trait Sink {
    /// Accept one event.
    fn record(&mut self, event: &Event);
    /// The events the sink retained, oldest first.
    fn events(&self) -> Vec<Event>;
}

/// Retains every event, unbounded. The right sink for tests and for
/// timeline export.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<Event>,
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn events(&self) -> Vec<Event> {
        self.events.clone()
    }
}

/// Retains only the energy ledger ([`Event::EnergySegment`] events) and
/// passes every event on to another recorder: the sink behind
/// [`Recorder::ledger`].
#[derive(Debug)]
struct LedgerSink {
    segments: Vec<Event>,
    forward: Recorder,
}

impl Sink for LedgerSink {
    fn record(&mut self, event: &Event) {
        if matches!(event, Event::EnergySegment { .. }) {
            self.segments.push(event.clone());
        }
        self.forward.emit_with(|| event.clone());
    }

    fn events(&self) -> Vec<Event> {
        self.segments.clone()
    }
}

type SinkBox = Box<dyn Sink + Send>;

/// A cloneable handle to an event sink — or to nothing at all.
///
/// Layers store one of these and call [`emit`](Recorder::emit) /
/// [`emit_with`](Recorder::emit_with) at interesting points. Clones
/// share the same sink, so a recorder can fan through fetchers,
/// machines, and pipelines and still collect one stream.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<SinkBox>>>,
}

impl Recorder {
    /// The no-op recorder: every emit is a single `None` check.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder retaining every event in memory.
    pub fn memory() -> Self {
        Recorder::custom(Box::new(MemorySink::default()))
    }

    /// A recorder retaining only the energy ledger
    /// ([`Event::EnergySegment`] events) and passing every event on to
    /// `forward` in order. The recorder a reader of a machine's history
    /// attaches: it keeps the ledger without every transition, timer and
    /// promotion event as well, and without taking those events from
    /// the caller's own recorder. `forward` must not be this recorder or
    /// feed back into it.
    pub fn ledger(forward: Recorder) -> Self {
        Recorder::custom(Box::new(LedgerSink {
            segments: Vec::new(),
            forward,
        }))
    }

    /// A recorder backed by a caller-provided sink.
    pub fn custom(sink: SinkBox) -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(sink))),
        }
    }

    /// Whether emits reach a sink. Use to skip expensive event
    /// construction; [`emit_with`](Recorder::emit_with) does this for you.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled).
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.inner {
            sink.lock()
                .expect("recorder sink mutex poisoned")
                .record(&event);
        }
    }

    /// Record the event built by `f`, which runs only when enabled — the
    /// disabled path pays nothing for allocation-heavy events.
    pub fn emit_with<F: FnOnce() -> Event>(&self, f: F) {
        if let Some(sink) = &self.inner {
            sink.lock()
                .expect("recorder sink mutex poisoned")
                .record(&f());
        }
    }

    /// The events retained by the sink, in emission order. Empty when
    /// disabled.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(sink) => sink.lock().expect("recorder sink mutex poisoned").events(),
            None => Vec::new(),
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Timer;
    use ewb_simcore::SimTime;

    fn timer_event(secs: u64) -> Event {
        Event::TimerExpired {
            at: SimTime::from_secs(secs),
            timer: Timer::T1,
        }
    }

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.emit_with(|| unreachable!("closure must not run when disabled"));
        assert!(r.events().is_empty());
    }

    #[test]
    fn memory_recorder_retains_in_emission_order() {
        let r = Recorder::memory();
        r.emit(timer_event(1));
        r.emit(timer_event(2));
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at(), SimTime::from_secs(1));
        assert_eq!(evs[1].at(), SimTime::from_secs(2));
    }

    #[test]
    fn clones_share_one_sink() {
        let r = Recorder::memory();
        let r2 = r.clone();
        r.emit(timer_event(1));
        r2.emit(timer_event(2));
        assert_eq!(r.events().len(), 2);
    }

    #[test]
    fn ledger_recorder_keeps_segments_and_forwards_everything() {
        let forward = Recorder::memory();
        let r = Recorder::ledger(forward.clone());
        let segment = Event::EnergySegment {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            state: crate::event::RadioState::Idle,
            watts: 0.15,
            joules: 0.15,
        };
        r.emit(timer_event(1));
        r.emit(segment.clone());
        r.emit(timer_event(2));
        assert_eq!(
            forward.events(),
            [timer_event(1), segment.clone(), timer_event(2)]
        );
        assert_eq!(r.events(), [segment]);
        Recorder::ledger(Recorder::disabled()).emit(timer_event(3));
    }
}
