//! Compiled load tapes: a memoized page load as a fixed chain of energy
//! addends.
//!
//! A page load's first radio stimulus is a transfer request at the click,
//! which cancels every pending inactivity timer before any time passes.
//! From that instant on, what the load does to a machine depends only on
//! the state the click found it in (its click state) and on the load's
//! own stimuli. Time is integer microseconds, so every step between two
//! stimuli lasts exactly as long wherever the click falls, and its meter
//! addend `watts × duration` has exactly the same bits.
//!
//! A [`LoadTape`] is that effect compiled once:
//! - the meter addends, in order, and the load's duration
//!   ([`MeterTape`]);
//! - its residency and counter deltas, which add exactly as integers;
//! - its end state, with inactivity deadlines relative to the click.
//!
//! [`RadioModel::play_tape`] replays it onto a live machine at a click:
//! the meter continues its `f64` sum over the same addends in the same
//! order, so the result is bit-identical to stimulating the machine one
//! event at a time. A tape carries no history — no power segments, no
//! state transitions — because the machines keep none: that history is
//! the energy ledger of a recorder, and a machine with a recorder
//! attached refuses tapes.
//!
//! Compilation takes the addends from the machine's own energy ledger
//! ([`ObsEvent::EnergySegment`], whose `joules` is the meter's addend), so
//! the machines need no tape-specific instrumentation.

use crate::backend::RadioModel;
use ewb_obs::{Event as ObsEvent, Recorder};
use ewb_simcore::{MeterTape, SimDuration, SimTime};

/// One page load's whole effect on a machine of backend `R`, compiled
/// for one click state: what the load does from a click that finds the
/// machine in that state.
#[derive(Debug, Clone)]
pub struct LoadTape<R: RadioModel> {
    click_state: usize,
    meter: MeterTape,
    end: R::LoadEnd,
}

impl<R: RadioModel> LoadTape<R> {
    /// Compiles the load `drive` applies to a machine in click state
    /// `click_state` ([`RadioModel::in_click_state`] under `cfg`).
    /// `drive` receives the machine and the click's offset from
    /// [`SimTime::ZERO`]: it must apply the load's click-relative stimuli
    /// that much later.
    ///
    /// # Panics
    ///
    /// Panics if `click_state` or `cfg` is invalid, or if the load ends
    /// with a transfer active, a promotion in flight or a nonzero CPU
    /// load — a tape could not carry such a load across the dwell that
    /// follows.
    pub fn compile(
        cfg: R::Config,
        click_state: usize,
        drive: impl FnOnce(&mut R, SimDuration),
    ) -> Self {
        let (mut machine, click) = R::in_click_state(cfg, click_state);
        let at_click = machine.clone();
        let ledger = Recorder::ledger(Recorder::disabled());
        machine.set_recorder(ledger.clone());
        drive(&mut machine, click - SimTime::ZERO);
        machine.set_recorder(Recorder::disabled());

        let mut meter = MeterTape::default();
        for e in ledger.events() {
            if let ObsEvent::EnergySegment {
                start, end, joules, ..
            } = e
            {
                meter.push(since_click(click, start), since_click(click, end), joules);
            }
        }
        assert_eq!(
            click + meter.duration(),
            machine.now(),
            "the ledger must cover the whole load"
        );
        LoadTape {
            click_state,
            meter,
            end: machine.load_end(&at_click, click),
        }
    }

    /// The click state the load was compiled from, as a
    /// [`RadioModel::click_state_index`].
    pub(crate) fn click_state(&self) -> usize {
        self.click_state
    }

    /// The load's meter addends and duration.
    pub(crate) fn meter(&self) -> &MeterTape {
        &self.meter
    }

    /// The backend-specific rest: residency and counter deltas, and the
    /// end state.
    pub(crate) fn end(&self) -> &R::LoadEnd {
        &self.end
    }
}

/// The instant `t` on the click-relative clock of a click at `click`.
fn since_click(click: SimTime, t: SimTime) -> SimTime {
    SimTime::ZERO + (t - click)
}

/// Field-wise `since` (the delta from an earlier value) and `add_delta`
/// for a struct of counters or durations: the integer deltas a tape
/// carries.
macro_rules! field_deltas {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $ty {
            fn since(self, earlier: Self) -> Self {
                Self { $($field: self.$field - earlier.$field),+ }
            }

            fn add_delta(&mut self, delta: Self) {
                $(self.$field += delta.$field;)+
            }
        }
    };
}
pub(crate) use field_deltas;
