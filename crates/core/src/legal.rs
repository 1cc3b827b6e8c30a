//! Precomputed legal-action sets and dense device-mode indexing.
//!
//! Every Q-DPM agent needs, twice per slice (in `decide` and `observe`),
//! the sorted set of commands that are legal in the current device mode.
//! Computing it on the fly costs a heap allocation plus a sort on the
//! hottest path of the whole simulator; both are pure functions of the
//! immutable [`PowerModel`], so this module computes them once at agent
//! construction:
//!
//! * [`TransientModeIndex`] — O(1) dense lookup from a
//!   [`DeviceMode`] (operational state or in-flight transition step) to
//!   the contiguous device-mode index used by state encoders, replacing
//!   the former linear scan over the transient-mode list;
//! * [`LegalActionTable`] — one flat action buffer with per-mode offsets,
//!   handing out each mode's sorted legal set as a borrowed `&[usize]`.
//!
//! The enumeration order is pinned to the one `DpmStateEncoder` has always
//! used (operational states first, then for each `from` state, each
//! command target in ascending index order, each remaining-latency step
//! from 1 up), so encoded state indices — and therefore learned tables and
//! published results — are unchanged.

use qdpm_device::{DeviceMode, PowerModel, PowerStateId};

/// Dense O(1) index of a power model's device modes: `n_op` operational
/// states followed by every in-flight transition step, in the pinned
/// enumeration order described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientModeIndex {
    n_op: usize,
    /// Row-major `(from, to)` -> `(first transient slot, latency)`;
    /// latency 0 marks a command with no multi-slice transient phase.
    spans: Vec<(u32, u32)>,
    n_transient: usize,
}

impl TransientModeIndex {
    /// Enumerates the transient modes of `power`.
    #[must_use]
    pub fn new(power: &PowerModel) -> Self {
        let n_op = power.n_states();
        let mut spans = vec![(0u32, 0u32); n_op * n_op];
        let mut slot = 0u32;
        for from in 0..n_op {
            for to in power.commands_from(PowerStateId::from_index(from)) {
                let spec = power
                    .transition(PowerStateId::from_index(from), to)
                    .expect("commands_from yields defined transitions");
                if spec.latency > 0 {
                    spans[from * n_op + to.index()] = (slot, spec.latency);
                    slot += spec.latency;
                }
            }
        }
        TransientModeIndex {
            n_op,
            spans,
            n_transient: slot as usize,
        }
    }

    /// Number of operational states.
    #[must_use]
    pub fn n_op(&self) -> usize {
        self.n_op
    }

    /// Number of transient (in-flight transition) modes.
    #[must_use]
    pub fn n_transient(&self) -> usize {
        self.n_transient
    }

    /// Total number of device modes (operational + transient).
    #[must_use]
    pub fn n_modes(&self) -> usize {
        self.n_op + self.n_transient
    }

    /// The dense device-mode index of `mode`.
    ///
    /// # Panics
    ///
    /// Panics when the mode does not belong to the indexed power model
    /// (unknown transition or remaining count outside `1..=latency`).
    #[must_use]
    pub fn mode_index(&self, mode: DeviceMode) -> usize {
        match mode {
            DeviceMode::Operational(s) => {
                assert!(s.index() < self.n_op, "unknown operational state {s}");
                s.index()
            }
            DeviceMode::Transitioning {
                from,
                to,
                remaining,
            } => {
                let (base, latency) = self.spans[from.index() * self.n_op + to.index()];
                assert!(
                    remaining >= 1 && remaining <= latency,
                    "unknown transient mode for this power model"
                );
                self.n_op + base as usize + (remaining as usize - 1)
            }
        }
    }
}

/// Precomputed sorted legal-action sets for every device mode, stored as
/// one flat buffer with per-mode offsets.
///
/// Legal commands are: in an operational state, staying put or any defined
/// transition target; mid-transition, only "stay the course" (the target
/// state). Each set is sorted ascending, exactly as the agents' former
/// per-call computation produced. (Deliberately not checkpointed: the
/// table is cheap to rebuild from the `PowerModel`, and a restored copy
/// would need its offsets/actions invariants validated on load.)
#[derive(Debug, Clone, PartialEq)]
pub struct LegalActionTable {
    modes: TransientModeIndex,
    /// Flat buffer of action indices, mode-major.
    actions: Vec<usize>,
    /// Per-mode extents into `actions`; `offsets[m]..offsets[m + 1]`.
    offsets: Vec<u32>,
}

impl LegalActionTable {
    /// Precomputes the legal sets of every device mode of `power`.
    #[must_use]
    pub fn new(power: &PowerModel) -> Self {
        let modes = TransientModeIndex::new(power);
        let n_op = modes.n_op();
        let mut actions = Vec::new();
        let mut offsets = Vec::with_capacity(modes.n_modes() + 1);
        offsets.push(0u32);
        let mut scratch = Vec::new();
        for s in 0..n_op {
            let sid = PowerStateId::from_index(s);
            scratch.clear();
            scratch.push(s);
            scratch.extend(power.commands_from(sid).map(PowerStateId::index));
            scratch.sort_unstable();
            actions.extend_from_slice(&scratch);
            offsets.push(u32::try_from(actions.len()).expect("action buffer fits u32"));
        }
        for from in 0..n_op {
            for to in power.commands_from(PowerStateId::from_index(from)) {
                let spec = power
                    .transition(PowerStateId::from_index(from), to)
                    .expect("commands_from yields defined transitions");
                for _ in 0..spec.latency {
                    actions.push(to.index());
                    offsets.push(u32::try_from(actions.len()).expect("action buffer fits u32"));
                }
            }
        }
        LegalActionTable {
            modes,
            actions,
            offsets,
        }
    }

    /// The device-mode index map backing this table.
    #[must_use]
    pub fn modes(&self) -> &TransientModeIndex {
        &self.modes
    }

    /// Total number of device modes.
    #[must_use]
    pub fn n_modes(&self) -> usize {
        self.modes.n_modes()
    }

    /// The dense device-mode index of `mode` (delegates to
    /// [`TransientModeIndex::mode_index`]).
    ///
    /// # Panics
    ///
    /// Panics when the mode does not belong to the indexed power model.
    #[must_use]
    pub fn mode_index(&self, mode: DeviceMode) -> usize {
        self.modes.mode_index(mode)
    }

    /// The sorted legal-action set of `mode`, borrowed from the table.
    ///
    /// # Panics
    ///
    /// Panics when the mode does not belong to the indexed power model.
    #[must_use]
    #[inline]
    pub fn legal(&self, mode: DeviceMode) -> &[usize] {
        self.legal_by_index(self.modes.mode_index(mode))
    }

    /// The sorted legal-action set of the device mode with dense index
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.n_modes()`.
    #[must_use]
    pub fn legal_by_index(&self, index: usize) -> &[usize] {
        let start = self.offsets[index] as usize;
        let end = self.offsets[index + 1] as usize;
        &self.actions[start..end]
    }

    /// Heap footprint of the precomputed buffers, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.actions.len() * std::mem::size_of::<usize>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.modes.spans.len() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;

    /// The former per-call computation, kept verbatim as the reference.
    fn legal_actions_reference(power: &PowerModel, mode: DeviceMode) -> Vec<usize> {
        match mode {
            DeviceMode::Operational(s) => {
                let mut acts = vec![s.index()];
                acts.extend(power.commands_from(s).map(PowerStateId::index));
                acts.sort_unstable();
                acts
            }
            DeviceMode::Transitioning { to, .. } => vec![to.index()],
        }
    }

    /// Every device mode of a model: operational states plus every
    /// `(from, to, remaining)` transient step.
    fn all_modes(power: &PowerModel) -> Vec<DeviceMode> {
        let mut modes = Vec::new();
        for s in 0..power.n_states() {
            modes.push(DeviceMode::Operational(PowerStateId::from_index(s)));
        }
        for from in 0..power.n_states() {
            let fid = PowerStateId::from_index(from);
            for to in power.commands_from(fid) {
                let spec = power.transition(fid, to).unwrap();
                for remaining in 1..=spec.latency {
                    modes.push(DeviceMode::Transitioning {
                        from: fid,
                        to,
                        remaining,
                    });
                }
            }
        }
        modes
    }

    /// The tentpole's correctness property: for every device mode of every
    /// preset power model, the precomputed table equals the old per-call
    /// computation.
    #[test]
    fn table_matches_per_call_computation_on_all_presets() {
        for name in presets::preset_names() {
            let power = presets::by_name(name).unwrap();
            let table = LegalActionTable::new(&power);
            let modes = all_modes(&power);
            assert_eq!(table.n_modes(), modes.len(), "preset {name}");
            for mode in modes {
                assert_eq!(
                    table.legal(mode),
                    legal_actions_reference(&power, mode).as_slice(),
                    "preset {name}, mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn mode_indices_are_dense_and_ordered() {
        for name in presets::preset_names() {
            let power = presets::by_name(name).unwrap();
            let table = LegalActionTable::new(&power);
            for (expect, mode) in all_modes(&power).into_iter().enumerate() {
                assert_eq!(table.mode_index(mode), expect, "preset {name}");
            }
        }
    }

    #[test]
    fn legal_sets_are_sorted_and_in_range() {
        for name in presets::preset_names() {
            let power = presets::by_name(name).unwrap();
            let table = LegalActionTable::new(&power);
            for m in 0..table.n_modes() {
                let legal = table.legal_by_index(m);
                assert!(!legal.is_empty());
                assert!(legal.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                assert!(legal.iter().all(|&a| a < power.n_states()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown transient mode")]
    fn unknown_transient_mode_panics() {
        let power = presets::three_state_generic();
        let table = LegalActionTable::new(&power);
        let active = power.state_by_name("active").unwrap();
        let sleep = power.state_by_name("sleep").unwrap();
        // `remaining` beyond the transition's latency is not a real mode.
        let _ = table.mode_index(DeviceMode::Transitioning {
            from: active,
            to: sleep,
            remaining: 10_000,
        });
    }

    #[test]
    fn memory_accounting_is_positive_and_small() {
        let power = presets::three_state_generic();
        let table = LegalActionTable::new(&power);
        let bytes = table.memory_bytes();
        assert!(bytes > 0);
        // 11 modes x <=3 actions on a 3-state device: well under 1 KiB.
        assert!(bytes < 1024, "got {bytes}");
    }
}
