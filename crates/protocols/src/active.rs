//! Active-node coordination (a Section 5 extension, implemented).
//!
//! The paper closes by suggesting that "placing the decision to add and
//! drop layers at the active nodes, rather than at receivers, should
//! increase the coordination of the joins and leaves of layers by
//! downstream receivers, thereby reducing redundancy. Such an approach
//! would make a redundancy of one feasible."
//!
//! This module implements that delegation for the star: the hub runs **one**
//! Deterministic-style congestion-control instance for its whole subtree
//! and every receiver simply tracks the instance's target level. With all
//! receivers holding identical layer sets, the shared link carries exactly
//! what the maximal receiver consumes — redundancy 1 by construction
//! (plus transient slack while stragglers converge).
//!
//! The instance is driven by a *designated representative* receiver's
//! end-to-end congestion experience (receiver 0). Feeding it the union of
//! every receiver's losses would multiply the effective loss rate by the
//! receiver count and collapse the subscription — the loss-path-
//! multiplicity problem the paper's companion work (Bhattacharyya et al.)
//! analyzes. The representative policy is what RLM-style agent designs
//! deploy, and it surfaces the real trade-off of active-node coordination:
//! receivers with worse fanout links than the representative lose packets
//! without their subscription adapting — subtree uniformity buys shared-
//! link efficiency at the price of receiver autonomy (Section 2's
//! single-rate coupling, reborn one hop down).

use crate::config::join_threshold;
use mlf_sim::{Action, PacketEvent, ReceiverController, Tick};
use std::cell::RefCell;
use std::rc::Rc;

/// The active node's shared controller: one target level for the subtree,
/// driven by the representative receiver's congestion experience.
#[derive(Debug)]
pub(crate) struct ActiveNodeState {
    layers: usize,
    target: usize,
    clean_run: u64,
    /// Slot of the last counted congestion event (a representative may see
    /// one packet per slot, but keep the dedup for robustness).
    last_loss_slot: Option<Tick>,
}

impl ActiveNodeState {
    fn new(layers: usize) -> Self {
        ActiveNodeState {
            layers,
            target: 1,
            clean_run: 0,
            last_loss_slot: None,
        }
    }

    /// The current subtree-wide target subscription level.
    ///
    /// Observability hook for the unit tests below; production callers go
    /// through [`active_node_controllers`].
    #[cfg(test)]
    pub(crate) fn target(&self) -> usize {
        self.target
    }

    /// Feed one representative packet event into the instance.
    fn observe(&mut self, ev: &PacketEvent) {
        if ev.lost {
            if self.last_loss_slot != Some(ev.slot) {
                self.last_loss_slot = Some(ev.slot);
                self.clean_run = 0;
                if self.target > 1 {
                    self.target -= 1;
                }
            }
        } else {
            self.clean_run += 1;
            if self.target < self.layers && self.clean_run >= join_threshold(self.target) {
                self.clean_run = 0;
                self.target += 1;
            }
        }
    }
}

/// A receiver that delegates congestion control to the active node and
/// merely tracks its target level. The receiver at `representative_index`
/// additionally feeds its events into the shared instance.
#[derive(Debug, Clone)]
pub(crate) struct ActiveNodeReceiver {
    state: Rc<RefCell<ActiveNodeState>>,
    is_representative: bool,
}

impl ReceiverController for ActiveNodeReceiver {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        let mut st = self.state.borrow_mut();
        if self.is_representative {
            st.observe(ev);
        }
        use std::cmp::Ordering::*;
        match ev.level.cmp(&st.target) {
            Less => Action::JoinUp,
            Equal => Action::Stay,
            Greater => Action::LeaveDown,
        }
    }
}

/// Build one shared active-node state and a controller per receiver
/// (receiver 0 is the representative). Returns the controllers plus a
/// handle to the shared state for inspection.
pub(crate) fn active_node_controllers(
    receivers: usize,
    layers: usize,
) -> (Vec<ActiveNodeReceiver>, Rc<RefCell<ActiveNodeState>>) {
    let state = Rc::new(RefCell::new(ActiveNodeState::new(layers)));
    let controllers = (0..receivers)
        .map(|r| ActiveNodeReceiver {
            state: Rc::clone(&state),
            is_representative: r == 0,
        })
        .collect();
    (controllers, state)
}

/// Run one Figure-8-style trial with active-node coordination and return
/// the engine report (mirror of [`crate::experiment::run_trial`]).
pub fn run_trial_active(
    params: &crate::experiment::ExperimentParams,
    trial: usize,
) -> mlf_sim::StarReport {
    let cfg = params.star_config();
    let seed = params.seed.wrapping_add(trial as u64);
    let (mut controllers, _state) = active_node_controllers(params.receivers, params.layers);
    mlf_sim::run_star(
        &cfg,
        &mut controllers,
        &mut mlf_sim::NoMarkers,
        params.packets,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentParams;

    fn ev(slot: Tick, level: usize, lost: bool) -> PacketEvent {
        PacketEvent {
            slot,
            layer: 1,
            lost,
            marker: None,
            level,
            layer_count: 8,
        }
    }

    #[test]
    fn receivers_track_the_shared_target() {
        let (mut ctls, state) = active_node_controllers(3, 8);
        state.borrow_mut().target = 4;
        // Non-representative receivers never move the target.
        assert_eq!(ctls[1].on_packet(&ev(0, 2, false)), Action::JoinUp);
        assert_eq!(ctls[2].on_packet(&ev(0, 6, false)), Action::LeaveDown);
        assert_eq!(ctls[1].on_packet(&ev(1, 4, false)), Action::Stay);
        assert_eq!(state.borrow().target(), 4);
    }

    #[test]
    fn only_the_representative_drives_the_instance() {
        let (mut ctls, state) = active_node_controllers(2, 8);
        // A loss reported by receiver 1 (non-representative) is ignored.
        let _ = ctls[1].on_packet(&ev(5, 1, true));
        assert_eq!(state.borrow().target(), 1);
        // The representative's clean packets climb the ladder (threshold at
        // level 1 is a single packet).
        let _ = ctls[0].on_packet(&ev(6, 1, false));
        assert_eq!(state.borrow().target(), 2);
        // And its loss steps the target down.
        let _ = ctls[0].on_packet(&ev(7, 2, true));
        assert_eq!(state.borrow().target(), 1);
    }

    #[test]
    fn active_node_redundancy_is_near_one() {
        // The Section 5 claim: active-node coordination makes redundancy ~1
        // even under independent loss that drives Uncoordinated near 3.
        let params = ExperimentParams {
            receivers: 20,
            packets: 40_000,
            trials: 1,
            ..ExperimentParams::quick(0.0001, 0.05).unwrap()
        };
        let report = run_trial_active(&params, 0);
        let red = report.shared_redundancy().unwrap();
        assert!(red < 1.1, "active-node redundancy {red}");
        // The subtree still adapts: levels respond to the representative's
        // loss and sit well inside (1, 8).
        let mean: f64 = (0..params.receivers)
            .map(|r| report.mean_level(r))
            .sum::<f64>()
            / 20.0;
        assert!(mean > 1.5 && mean < 7.5, "mean level {mean}");
    }

    #[test]
    fn climbs_without_loss() {
        let params = ExperimentParams {
            receivers: 4,
            packets: 60_000,
            trials: 1,
            ..ExperimentParams::quick(0.0, 0.0).unwrap()
        };
        let report = run_trial_active(&params, 0);
        assert!(report.final_levels.iter().all(|&l| l == 8));
    }
}
