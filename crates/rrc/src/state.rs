//! The RRC protocol states.

use ewb_obs::RadioState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The RRC state of the handset's 3G radio, per §2.1 of the paper.
///
/// `Promoting` is not a 3GPP state; it models the signaling-connection
/// establishment window ("ten\[s\] of control message exchanges ... more than
/// one second") during which the radio burns power but cannot move user
/// data yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RrcState {
    /// No signaling connection; the radio draws almost nothing.
    Idle,
    /// Signaling-connection / dedicated-channel establishment in progress.
    Promoting,
    /// Shared common channels only; low speed, roughly half DCH power.
    Fach,
    /// Dedicated transmission channels allocated; full speed, full power.
    Dch,
}

impl RrcState {
    /// The state's stable name: what it displays as, and the 3G
    /// machine's [`RadioModel::state_label`](crate::RadioModel::state_label).
    pub fn name(self) -> &'static str {
        match self {
            RrcState::Idle => "IDLE",
            RrcState::Promoting => "PROMOTING",
            RrcState::Fach => "FACH",
            RrcState::Dch => "DCH",
        }
    }
}

impl fmt::Display for RrcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The `ewb-obs` name of a 3G state, which the machine's events carry.
impl From<RrcState> for RadioState {
    fn from(s: RrcState) -> Self {
        match s {
            RrcState::Idle => RadioState::Idle,
            RrcState::Promoting => RadioState::Promoting,
            RrcState::Fach => RadioState::Fach,
            RrcState::Dch => RadioState::Dch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(RrcState::Idle.to_string(), "IDLE");
        assert_eq!(RrcState::Dch.to_string(), "DCH");
        assert_eq!(RrcState::Fach.to_string(), "FACH");
        assert_eq!(RrcState::Promoting.to_string(), "PROMOTING");
    }
}
