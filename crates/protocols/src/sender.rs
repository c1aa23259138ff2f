//! The Coordinated protocol's sender: a dyadic join-marker schedule.
//!
//! "The sender indicates (e.g., through a field within its transmitted
//! packet) when receivers should join an additional layer. This is done in
//! such a way so that when the field indicates that receivers joined up to
//! layer `i` should join layer `i+1`, it also indicates that receivers
//! joined up to layer `j < i` should join layer `j+1`." (Section 4)
//!
//! A single *threshold* field implements the implication: a marker with
//! threshold `t` means "everyone at level ≤ t joins one layer".
//!
//! Markers ride **base-layer packets** — the one layer every receiver always
//! holds, so every receiver has a chance to see every marker. Base-layer
//! packets arrive once per `2^{M−1}` slots under the exponential schedule.
//! Emitting threshold-`t` markers on every `2^{t−1}`-th base-layer packet
//! makes the marker interval for level `i` equal to `2^{M+i−2}` slots;
//! a receiver at level `i` (aggregate rate `2^{i−1}` packets per `2^{M−1}`
//! slots) therefore collects `2^{2(i−1)}` packets between its markers —
//! exactly the paper's pacing. The dyadic pattern means thresholds nest:
//! `1, 2, 1, 3, 1, 2, 1, 4, ...` (the ruler sequence).

use crate::config::ProtocolKind;
use mlf_sim::{MarkerSource, Tick};

/// The sender of a Section 4 session: the protocols differ only in how
/// joins are coordinated, and only Coordinated has the sender mark them.
#[derive(Debug, Clone)]
pub enum Sender {
    /// Uncoordinated and Deterministic: the sender emits no markers.
    Silent,
    /// Coordinated: the dyadic join-marker schedule.
    Coordinated(CoordinatedSender),
}

impl Sender {
    /// The sender `kind`'s receivers expect, for `layers` layers.
    pub fn new(kind: ProtocolKind, layers: usize) -> Self {
        match kind {
            ProtocolKind::Coordinated => Sender::Coordinated(CoordinatedSender::new(layers)),
            ProtocolKind::Uncoordinated | ProtocolKind::Deterministic => Sender::Silent,
        }
    }
}

impl MarkerSource for Sender {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        match self {
            Sender::Silent => None,
            Sender::Coordinated(s) => s.marker(slot, layer),
        }
    }
}

/// Sender-side marker scheduler for the Coordinated protocol.
#[derive(Debug, Clone)]
pub struct CoordinatedSender {
    /// Number of layers `M` (markers max out at threshold `M − 1`; a join
    /// from `M` is impossible).
    layers: usize,
    /// Count of base-layer packets emitted so far.
    base_packets: u64,
}

impl CoordinatedSender {
    /// A sender for `layers` layers.
    pub fn new(layers: usize) -> Self {
        assert!(layers >= 1);
        CoordinatedSender {
            layers,
            base_packets: 0,
        }
    }

    /// The marker threshold for the `k`-th base-layer packet (`k ≥ 1`):
    /// `min(trailing_zeros(k) + 1, M − 1)` — the ruler sequence capped at
    /// the highest joinable level.
    pub fn threshold_for(&self, k: u64) -> usize {
        debug_assert!(k >= 1);
        let t = k.trailing_zeros() as usize + 1;
        t.min(self.layers.saturating_sub(1)).max(1)
    }
}

impl MarkerSource for CoordinatedSender {
    fn marker(&mut self, _slot: Tick, layer: usize) -> Option<usize> {
        if layer != 1 || self.layers < 2 {
            return None;
        }
        self.base_packets += 1;
        Some(self.threshold_for(self.base_packets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruler_sequence_thresholds() {
        let s = CoordinatedSender::new(8);
        let seq: Vec<usize> = (1..=16).map(|k| s.threshold_for(k)).collect();
        assert_eq!(seq, vec![1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5]);
    }

    #[test]
    fn thresholds_cap_at_m_minus_1() {
        let s = CoordinatedSender::new(4);
        // k = 8 would be threshold 4, capped to 3.
        assert_eq!(s.threshold_for(8), 3);
        assert_eq!(s.threshold_for(1024), 3);
    }

    #[test]
    fn markers_only_on_base_layer() {
        let mut s = CoordinatedSender::new(8);
        assert_eq!(s.marker(0, 2), None);
        assert_eq!(s.marker(1, 8), None);
        assert_eq!(s.marker(2, 1), Some(1));
        assert_eq!(s.marker(3, 1), Some(2));
    }

    #[test]
    fn marker_rate_for_level_i_matches_pacing() {
        // Over 2^{i-1} consecutive base packets there is exactly one marker
        // with threshold >= i (for i <= M-1).
        let s = CoordinatedSender::new(8);
        for i in 1..=7usize {
            let window = 1u64 << (i - 1);
            for start in [1u64, 17, 129] {
                let count = (start..start + window)
                    .filter(|&k| s.threshold_for(k) >= i)
                    .count();
                assert_eq!(count, 1, "level {i}, window at {start}");
            }
        }
    }

    #[test]
    fn only_the_coordinated_sender_marks() {
        for kind in ProtocolKind::ALL {
            let mut s = Sender::new(kind, 8);
            let marked = s.marker(0, 1).is_some();
            assert_eq!(
                marked,
                kind == ProtocolKind::Coordinated,
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn single_layer_sender_never_marks() {
        let mut s = CoordinatedSender::new(1);
        assert_eq!(s.marker(0, 1), None);
    }
}
