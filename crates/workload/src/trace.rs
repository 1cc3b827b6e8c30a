use rand::Rng;

use crate::{RequestGenerator, WorkloadError};

/// Records per-slice arrival counts so a stochastic run can be replayed
/// deterministically (e.g. to hand identical inputs to every policy under
/// comparison).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    arrivals: Vec<u32>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Appends the arrival count of one slice.
    pub fn record(&mut self, arrivals: u32) {
        self.arrivals.push(arrivals);
    }

    /// Number of slices recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Consumes the recorder into a replayable trace.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyTrace`] when nothing was recorded.
    pub fn into_replay(self) -> Result<TraceReplay, WorkloadError> {
        TraceReplay::new(self.arrivals)
    }

    /// Captures `steps` slices from `gen` into a recorder.
    pub fn capture(gen: &mut dyn RequestGenerator, rng: &mut dyn Rng, steps: u64) -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        for _ in 0..steps {
            rec.record(gen.next_arrivals(rng));
        }
        rec
    }
}

/// Replays a recorded arrival trace; wraps around at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    arrivals: Vec<u32>,
    pos: usize,
}

impl TraceReplay {
    /// Creates a replay over `arrivals` (one count per slice).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyTrace`] for an empty trace.
    pub fn new(arrivals: Vec<u32>) -> Result<Self, WorkloadError> {
        if arrivals.is_empty() {
            return Err(WorkloadError::EmptyTrace);
        }
        Ok(TraceReplay { arrivals, pos: 0 })
    }

    /// Length of the underlying trace in slices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty (never true for a constructed replay).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

impl RequestGenerator for TraceReplay {
    fn next_arrivals(&mut self, _rng: &mut dyn Rng) -> u32 {
        let a = self.arrivals[self.pos];
        self.pos = (self.pos + 1) % self.arrivals.len();
        a
    }

    fn mean_rate(&self) -> Option<f64> {
        let total: u64 = self.arrivals.iter().map(|&a| u64::from(a)).sum();
        Some(total as f64 / self.arrivals.len() as f64)
    }

    fn save_state(&self, w: &mut qdpm_core::StateWriter) {
        w.put_usize(self.pos);
    }

    fn load_state(
        &mut self,
        r: &mut qdpm_core::StateReader<'_>,
    ) -> Result<(), qdpm_core::StateError> {
        let pos = r.get_usize()?;
        if pos >= self.arrivals.len() {
            return Err(qdpm_core::StateError::BadValue(format!(
                "replay cursor {pos} out of range for trace of {} slices",
                self.arrivals.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

impl TraceRecorder {
    /// Writes the trace as plain text, one arrival count per line, with a
    /// `# qdpm-trace v1` header — readable by any tool, loadable by
    /// [`TraceReplay::load`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.arrivals.len() * 2 + 16);
        out.push_str("# qdpm-trace v1\n");
        for a in &self.arrivals {
            out.push_str(&a.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

impl TraceReplay {
    /// Loads a trace saved by [`TraceRecorder::save`]. Blank lines and
    /// `#`-comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files or an
    /// `InvalidData`-wrapped message for malformed lines / empty traces.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut arrivals = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let count: u32 = line.parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {e}", i + 1),
                )
            })?;
            arrivals.push(count);
        }
        TraceReplay::new(arrivals)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BernoulliArrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn replay_wraps_and_resets() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut replay = TraceReplay::new(vec![1, 0, 2]).unwrap();
        let seq: Vec<u32> = (0..7).map(|_| replay.next_arrivals(&mut rng)).collect();
        assert_eq!(seq, vec![1, 0, 2, 1, 0, 2, 1]);
        replay.reset();
        assert_eq!(replay.next_arrivals(&mut rng), 1);
    }

    #[test]
    fn replay_mean_rate() {
        let replay = TraceReplay::new(vec![1, 0, 2, 1]).unwrap();
        assert_eq!(replay.mean_rate(), Some(1.0));
    }

    #[test]
    fn empty_trace_rejected() {
        assert_eq!(
            TraceReplay::new(vec![]).unwrap_err(),
            WorkloadError::EmptyTrace
        );
        assert_eq!(
            TraceRecorder::new().into_replay().unwrap_err(),
            WorkloadError::EmptyTrace
        );
    }

    #[test]
    fn save_load_round_trip() {
        let mut rec = TraceRecorder::new();
        for a in [1u32, 0, 2, 0, 1] {
            rec.record(a);
        }
        let path = std::env::temp_dir().join("qdpm_trace_roundtrip.txt");
        rec.save(&path).unwrap();
        let mut replay = TraceReplay::load(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<u32> = (0..5).map(|_| replay.next_arrivals(&mut rng)).collect();
        assert_eq!(seq, vec![1, 0, 2, 0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_malformed_lines() {
        let path = std::env::temp_dir().join("qdpm_trace_malformed.txt");
        std::fs::write(&path, "# header\n1\nnot-a-number\n").unwrap();
        let err = TraceReplay::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_empty_trace() {
        let path = std::env::temp_dir().join("qdpm_trace_empty.txt");
        std::fs::write(&path, "# nothing but comments\n\n").unwrap();
        assert!(TraceReplay::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capture_then_replay_is_identical() {
        let mut gen = BernoulliArrivals::new(0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let rec = TraceRecorder::capture(&mut gen, &mut rng, 50);
        assert_eq!(rec.len(), 50);

        // Re-run the generator with the same seed: replay must match.
        let mut gen2 = BernoulliArrivals::new(0.4).unwrap();
        let mut rng2 = StdRng::seed_from_u64(99);
        let mut replay = rec.into_replay().unwrap();
        let mut dummy = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(
                replay.next_arrivals(&mut dummy),
                gen2.next_arrivals(&mut rng2)
            );
        }
    }
}
