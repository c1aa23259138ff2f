//! The four desirable fairness properties of Section 2.1 as executable
//! checkers.
//!
//! | Property | Perspective | Checker |
//! |----------|-------------|---------|
//! | 1. fully-utilized-receiver-fairness | receiver | [`fully_utilized`] |
//! | 2. same-path-receiver-fairness      | receiver | [`same_path`] |
//! | 3. per-receiver-link-fairness       | session  | [`per_receiver_link`] |
//! | 4. per-session-link-fairness        | session  | [`per_session_link`] |
//!
//! For a *unicast* network, Properties 1, 3 and 4 all collapse to Unicast
//! Fairness Property 1 and Property 2 to Unicast Fairness Property 2 (the
//! paper notes this in Section 2.2); the integration tests verify the
//! collapse. Theorem 1 asserts all four hold in a multi-rate max-min fair
//! allocation; Section 2.3's Figure 2 shows a single-rate max-min allocation
//! violating 1, 2 and 3 while still satisfying 4; Section 3's Figure 4 shows
//! redundancy breaking 3 and 4 while 1 and 2 survive.

pub mod fully_utilized;
pub mod per_receiver_link;
pub mod per_session_link;
pub mod same_path;

pub use fully_utilized::check_fully_utilized_receiver_fair;
pub use per_receiver_link::check_per_receiver_link_fair;
pub use per_session_link::check_per_session_link_fair;
pub(crate) use same_path::check_same_path_receiver_fair;

use crate::allocation::Allocation;
use crate::linkrate::LinkRateConfig;
use mlf_net::{Network, ReceiverId, SessionId};

/// Outcome of checking all four fairness properties on an allocation.
#[derive(Debug, Clone, Default)]
pub struct FairnessReport {
    /// Receivers violating fully-utilized-receiver-fairness (Property 1).
    pub fully_utilized_violations: Vec<ReceiverId>,
    /// Same-data-path receiver pairs with unequal, un-capped rates
    /// (Property 2).
    pub same_path_violations: Vec<(ReceiverId, ReceiverId)>,
    /// `(session, receiver)` pairs violating per-receiver-link-fairness
    /// (Property 3).
    pub per_receiver_link_violations: Vec<ReceiverId>,
    /// Sessions violating per-session-link-fairness (Property 4).
    pub per_session_link_violations: Vec<SessionId>,
}

impl FairnessReport {
    /// Whether Property 1 holds network-wide.
    pub fn fully_utilized_receiver_fair(&self) -> bool {
        self.fully_utilized_violations.is_empty()
    }

    /// Whether Property 2 holds network-wide.
    pub fn same_path_receiver_fair(&self) -> bool {
        self.same_path_violations.is_empty()
    }

    /// Whether Property 3 holds network-wide.
    pub fn per_receiver_link_fair(&self) -> bool {
        self.per_receiver_link_violations.is_empty()
    }

    /// Whether Property 4 holds network-wide.
    pub fn per_session_link_fair(&self) -> bool {
        self.per_session_link_violations.is_empty()
    }

    /// Whether all four properties hold.
    pub fn all_hold(&self) -> bool {
        self.fully_utilized_receiver_fair()
            && self.same_path_receiver_fair()
            && self.per_receiver_link_fair()
            && self.per_session_link_fair()
    }

    /// Number of properties (out of four) that hold.
    pub fn count_holding(&self) -> usize {
        [
            self.fully_utilized_receiver_fair(),
            self.same_path_receiver_fair(),
            self.per_receiver_link_fair(),
            self.per_session_link_fair(),
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

/// Check all four fairness properties of an allocation at once.
pub fn check_all(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> FairnessReport {
    FairnessReport {
        fully_utilized_violations: check_fully_utilized_receiver_fair(net, cfg, alloc),
        same_path_violations: check_same_path_receiver_fair(net, alloc),
        per_receiver_link_violations: check_per_receiver_link_fair(net, cfg, alloc),
        per_session_link_violations: check_per_session_link_fair(net, cfg, alloc),
    }
}

/// Unicast Fairness Property 1 (Section 2.1) on an all-unicast network:
/// each session is at `κ_i` or has a fully utilized link on its path where
/// its rate is the largest among crossing receivers. Delegates to the
/// multicast Property 1 checker, to which it is equivalent for unicast.
pub fn check_unicast_property1(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<ReceiverId> {
    debug_assert!(net.sessions().iter().all(|s| s.is_unicast()));
    check_fully_utilized_receiver_fair(net, cfg, alloc)
}
