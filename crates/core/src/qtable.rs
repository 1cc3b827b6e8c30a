use crate::CoreError;

/// Dense tabular Q-function over `n_states x n_actions`, with per-pair
/// visit counts.
///
/// The paper's efficiency argument rests on this structure: "Q values can
/// be encoded in a `|s| x |a|` table that requires a little bit memory
/// space. Hence, it is feasible to implement Q-DPM on almost any embedded
/// nodes." [`QTable::memory_bytes`] feeds the memory-comparison table (T2).
///
/// By the paper's convention the table stores expected discounted
/// *reinforcement* (reward), so the greedy action is the arg-**max**.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    n_states: usize,
    n_actions: usize,
    q: Vec<f64>,
    visits: Vec<u32>,
}

impl QTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(n_states: usize, n_actions: usize) -> Self {
        assert!(
            n_states > 0 && n_actions > 0,
            "table dimensions must be positive"
        );
        QTable {
            n_states,
            n_actions,
            q: vec![0.0; n_states * n_actions],
            visits: vec![0; n_states * n_actions],
        }
    }

    /// Creates a table optimistically initialized to `value` (optimistic
    /// initialization is a standard exploration aid).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_initial_value(n_states: usize, n_actions: usize, value: f64) -> Self {
        let mut t = QTable::new(n_states, n_actions);
        t.q.fill(value);
        t
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Q-value of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// Overwrites the Q-value of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, s: usize, a: usize, value: f64) {
        let i = self.idx(s, a);
        self.q[i] = value;
    }

    /// Visit count of `(s, a)` (incremented by [`QTable::record_visit`]).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn visits(&self, s: usize, a: usize) -> u32 {
        self.visits[self.idx(s, a)]
    }

    /// Increments and returns the visit count of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn record_visit(&mut self, s: usize, a: usize) -> u32 {
        let i = self.idx(s, a);
        self.visits[i] = self.visits[i].saturating_add(1);
        self.visits[i]
    }

    /// Overwrites the visit count of `(s, a)` — the bulk write-back of the
    /// learner's closed-form stay run, which tracks visits in a register.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub(crate) fn set_visit_count(&mut self, s: usize, a: usize, visits: u32) {
        let i = self.idx(s, a);
        self.visits[i] = visits;
    }

    /// The Q-row of state `s`: one value per action, as a borrowed slice.
    ///
    /// This is the allocation-free bulk accessor the hot path iterates
    /// over — bounds are asserted once per row instead of once per action.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn row(&self, s: usize) -> &[f64] {
        assert!(
            s < self.n_states,
            "q-table state {s} out of range ({})",
            self.n_states
        );
        &self.q[s * self.n_actions..(s + 1) * self.n_actions]
    }

    /// The greedy (maximum-Q) action among `legal`, with deterministic
    /// lowest-index tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or contains an out-of-range action.
    #[must_use]
    pub fn best_action(&self, s: usize, legal: &[usize]) -> usize {
        assert!(!legal.is_empty(), "need at least one legal action");
        let row = self.row(s);
        let mut best = legal[0];
        let mut best_q = row[legal[0]];
        for &a in &legal[1..] {
            let q = row[a];
            if q > best_q {
                best_q = q;
                best = a;
            }
        }
        best
    }

    /// `max_b Q(s, b)` over `legal` — the bootstrap target of Eqn. (3).
    ///
    /// # Panics
    ///
    /// Panics if `legal` is empty or contains an out-of-range action.
    #[must_use]
    pub fn max_q(&self, s: usize, legal: &[usize]) -> f64 {
        assert!(!legal.is_empty(), "need at least one legal action");
        let row = self.row(s);
        legal
            .iter()
            .map(|&a| row[a])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mutable access to the raw row-major value/visit buffers — the
    /// row-slice view the shared learner arithmetic
    /// (`learner::update_in_place`) operates on, letting [`crate::QLearner`]
    /// and [`crate::BatchLearner`] execute the same code path.
    pub(crate) fn cells_mut(&mut self) -> (&mut [f64], &mut [u32]) {
        (&mut self.q, &mut self.visits)
    }

    /// Exact heap footprint of the Q-values and visit counters, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.q.len() * std::mem::size_of::<f64>() + self.visits.len() * std::mem::size_of::<u32>()
    }

    /// Resets all values and visit counts to zero.
    pub fn reset(&mut self) {
        self.q.fill(0.0);
        self.visits.fill(0);
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        assert!(
            s < self.n_states && a < self.n_actions,
            "q-table index ({s}, {a}) out of range ({}, {})",
            self.n_states,
            self.n_actions
        );
        s * self.n_actions + a
    }

    /// Serializes the table to a compact, self-describing binary blob —
    /// the persistence format for warm-starting an embedded node across
    /// reboots (magic + version + dims + values + visit counts + FNV-1a
    /// checksum). No external format crate required.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.q.len() * 8 + self.visits.len() * 4 + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.n_states as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_actions as u32).to_le_bytes());
        for v in &self.q {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.visits {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes a blob produced by [`QTable::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptTable`] for wrong magic/version,
    /// truncated data, checksum mismatch, or non-finite values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let corrupt = |msg: &str| CoreError::CorruptTable(msg.to_string());
        if bytes.len() < 14 + 8 {
            return Err(corrupt("blob too short for header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if &body[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u16::from_le_bytes(body[4..6].try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return Err(CoreError::CorruptTable(format!(
                "unsupported format version {version}"
            )));
        }
        let n_states = u32::from_le_bytes(body[6..10].try_into().expect("4 bytes")) as usize;
        let n_actions = u32::from_le_bytes(body[10..14].try_into().expect("4 bytes")) as usize;
        if n_states == 0 || n_actions == 0 {
            return Err(corrupt("zero dimension"));
        }
        let n = n_states
            .checked_mul(n_actions)
            .ok_or_else(|| corrupt("dimension overflow"))?;
        let expected = 14 + n * 8 + n * 4;
        if body.len() != expected {
            return Err(CoreError::CorruptTable(format!(
                "payload length {} does not match dims ({n_states} x {n_actions})",
                body.len()
            )));
        }
        let mut q = Vec::with_capacity(n);
        for chunk in body[14..14 + n * 8].chunks_exact(8) {
            let v = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            if !v.is_finite() {
                return Err(corrupt("non-finite q-value"));
            }
            q.push(v);
        }
        let mut visits = Vec::with_capacity(n);
        for chunk in body[14 + n * 8..].chunks_exact(4) {
            visits.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        Ok(QTable {
            n_states,
            n_actions,
            q,
            visits,
        })
    }
}

const MAGIC: &[u8; 4] = b"QDPM";
const FORMAT_VERSION: u16 = 1;

/// FNV-1a over the blob (integrity, not security).
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let t = QTable::new(3, 2);
        assert_eq!(t.get(2, 1), 0.0);
        assert_eq!(t.visits(0, 0), 0);
    }

    #[test]
    fn optimistic_initialization() {
        let t = QTable::with_initial_value(2, 2, 5.0);
        assert_eq!(t.get(1, 1), 5.0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = QTable::new(2, 3);
        t.set(1, 2, -4.5);
        assert_eq!(t.get(1, 2), -4.5);
        assert_eq!(t.get(1, 1), 0.0);
    }

    #[test]
    fn best_action_respects_legal_set() {
        let mut t = QTable::new(1, 3);
        t.set(0, 0, 10.0);
        t.set(0, 1, 5.0);
        t.set(0, 2, 7.0);
        assert_eq!(t.best_action(0, &[0, 1, 2]), 0);
        // Action 0 masked out.
        assert_eq!(t.best_action(0, &[1, 2]), 2);
    }

    #[test]
    fn best_action_breaks_ties_to_lowest_index() {
        let t = QTable::new(1, 3);
        assert_eq!(t.best_action(0, &[1, 2]), 1);
    }

    #[test]
    fn max_q_over_legal() {
        let mut t = QTable::new(1, 3);
        t.set(0, 1, 3.0);
        t.set(0, 2, -1.0);
        assert_eq!(t.max_q(0, &[1, 2]), 3.0);
        assert_eq!(t.max_q(0, &[2]), -1.0);
    }

    #[test]
    fn visits_accumulate() {
        let mut t = QTable::new(1, 1);
        assert_eq!(t.record_visit(0, 0), 1);
        assert_eq!(t.record_visit(0, 0), 2);
        assert_eq!(t.visits(0, 0), 2);
    }

    #[test]
    fn memory_accounting() {
        let t = QTable::new(100, 4);
        assert_eq!(t.memory_bytes(), 400 * 8 + 400 * 4);
    }

    #[test]
    fn reset_clears() {
        let mut t = QTable::new(1, 1);
        t.set(0, 0, 1.0);
        t.record_visit(0, 0);
        t.reset();
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.visits(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let t = QTable::new(2, 2);
        let _ = t.get(2, 0);
    }

    #[test]
    fn row_exposes_state_values_in_action_order() {
        let mut t = QTable::new(2, 3);
        t.set(1, 0, 1.0);
        t.set(1, 2, -2.0);
        assert_eq!(t.row(1), &[1.0, 0.0, -2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let t = QTable::new(2, 2);
        let _ = t.row(2);
    }

    #[test]
    fn bytes_round_trip() {
        let mut t = QTable::new(3, 2);
        t.set(0, 1, -1.25);
        t.set(2, 0, 7.5);
        t.record_visit(2, 0);
        t.record_visit(2, 0);
        let blob = t.to_bytes();
        let back = QTable::from_bytes(&blob).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.visits(2, 0), 2);
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let t = QTable::new(2, 2);
        let good = t.to_bytes();

        // Truncated.
        assert!(matches!(
            QTable::from_bytes(&good[..10]),
            Err(crate::CoreError::CorruptTable(_))
        ));
        // Bit flip in the payload breaks the checksum.
        let mut flipped = good.clone();
        flipped[20] ^= 0xff;
        assert!(matches!(
            QTable::from_bytes(&flipped),
            Err(crate::CoreError::CorruptTable(_))
        ));
        // Bad magic (with a recomputed checksum) is still rejected.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let body_len = bad_magic.len() - 8;
        let sum = super::fnv1a(&bad_magic[..body_len]);
        let tail = bad_magic.len() - 8;
        bad_magic[tail..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            QTable::from_bytes(&bad_magic),
            Err(crate::CoreError::CorruptTable(_))
        ));
        // Empty input.
        assert!(QTable::from_bytes(&[]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let t = QTable::new(2, 2);
        let mut blob = t.to_bytes();
        // Claim 3 states without growing the payload; fix the checksum so
        // only the length validation can catch it.
        blob[6..10].copy_from_slice(&3u32.to_le_bytes());
        let body_len = blob.len() - 8;
        let sum = super::fnv1a(&blob[..body_len]);
        let tail = blob.len() - 8;
        blob[tail..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            QTable::from_bytes(&blob),
            Err(crate::CoreError::CorruptTable(_))
        ));
    }
}
