use rand::Rng;

use crate::{ArrivalGap, RequestGenerator, Step, WorkloadError, WorkloadSpec};

/// One stationary stretch of a piecewise-stationary workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// How many slices this segment lasts.
    pub duration: Step,
    /// The stationary workload active during the segment.
    pub spec: WorkloadSpec,
}

impl Segment {
    /// Convenience constructor.
    #[must_use]
    pub fn new(duration: Step, spec: WorkloadSpec) -> Self {
        Segment { duration, spec }
    }
}

/// Piecewise-stationary workload: the Fig. 2 driver.
///
/// The paper evaluates rapid response by "feeding temporarily stationary
/// synthetic input" whose parameters jump at switching points (the vertical
/// lines of Fig. 2). This type concatenates stationary [`Segment`]s, builds
/// each generator lazily on segment entry, and exposes the exact switch
/// points so harnesses can annotate their output. After the final segment
/// the last generator keeps running indefinitely.
#[derive(Debug)]
pub struct PiecewiseStationary {
    segments: Vec<Segment>,
    current: usize,
    into_segment: Step,
    active: Box<dyn RequestGenerator>,
}

impl PiecewiseStationary {
    /// Creates a piecewise workload from non-empty segments.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptySegments`] when `segments` is empty or
    /// any segment has zero duration.
    pub fn new(segments: Vec<Segment>) -> Result<Self, WorkloadError> {
        if segments.is_empty() || segments.iter().any(|s| s.duration == 0) {
            return Err(WorkloadError::EmptySegments);
        }
        let active = segments[0].spec.build();
        Ok(PiecewiseStationary {
            segments,
            current: 0,
            into_segment: 0,
            active,
        })
    }

    /// Absolute slice indices at which the workload switches segments
    /// (one per boundary; the vertical lines of Fig. 2).
    #[must_use]
    pub fn switch_points(&self) -> Vec<Step> {
        let mut points = Vec::with_capacity(self.segments.len().saturating_sub(1));
        let mut t = 0;
        for seg in &self.segments[..self.segments.len() - 1] {
            t += seg.duration;
            points.push(t);
        }
        points
    }

    /// Index of the currently active segment.
    #[must_use]
    pub fn current_segment(&self) -> usize {
        self.current
    }

    /// The segments making up this workload.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total length of all segments in slices.
    #[must_use]
    pub fn total_duration(&self) -> Step {
        self.segments.iter().map(|s| s.duration).sum()
    }
}

impl RequestGenerator for PiecewiseStationary {
    fn next_arrivals(&mut self, rng: &mut dyn Rng) -> u32 {
        // Advance to the next segment when the current one is exhausted
        // (the final segment runs forever).
        if self.into_segment >= self.segments[self.current].duration
            && self.current + 1 < self.segments.len()
        {
            self.current += 1;
            self.into_segment = 0;
            self.active = self.segments[self.current].spec.build();
        }
        self.into_segment += 1;
        self.active.next_arrivals(rng)
    }

    /// Delegates to the active segment without crossing its boundary: the
    /// request is capped at the slices left in the segment, so a `Quiet`
    /// result may consume fewer than `limit` slices — the caller re-asks
    /// and the next call enters the following segment, mirroring
    /// [`PiecewiseStationary::next_arrivals`]' per-slice switch check.
    fn next_arrival_gap(&mut self, rng: &mut dyn Rng, limit: u64) -> ArrivalGap {
        if self.into_segment >= self.segments[self.current].duration
            && self.current + 1 < self.segments.len()
        {
            self.current += 1;
            self.into_segment = 0;
            self.active = self.segments[self.current].spec.build();
        }
        let capped = if self.current + 1 < self.segments.len() {
            limit.min(self.segments[self.current].duration - self.into_segment)
        } else {
            limit // the final segment runs forever
        };
        let gap = self.active.next_arrival_gap(rng, capped);
        self.into_segment += match gap {
            ArrivalGap::Arrival { empty, .. } => empty + 1,
            ArrivalGap::Quiet { advanced } => advanced,
        };
        gap
    }

    fn mode(&self) -> usize {
        self.active.mode()
    }

    fn n_modes(&self) -> usize {
        self.active.n_modes()
    }

    fn mean_rate(&self) -> Option<f64> {
        // Duration-weighted average of the segment rates.
        let total = self.total_duration() as f64;
        let mut acc = 0.0;
        for seg in &self.segments {
            acc += seg.spec.mean_rate()? * seg.duration as f64 / total;
        }
        Some(acc)
    }

    fn save_state(&self, w: &mut qdpm_core::StateWriter) {
        w.put_usize(self.current);
        w.put_u64(self.into_segment);
        self.active.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut qdpm_core::StateReader<'_>,
    ) -> Result<(), qdpm_core::StateError> {
        let current = r.get_usize()?;
        if current >= self.segments.len() {
            return Err(qdpm_core::StateError::BadValue(format!(
                "segment cursor {current} out of range for {} segments",
                self.segments.len()
            )));
        }
        self.current = current;
        self.into_segment = r.get_u64()?;
        self.active = self.segments[self.current].spec.build();
        self.active.load_state(r)
    }

    fn reset(&mut self) {
        self.current = 0;
        self.into_segment = 0;
        self.active = self.segments[0].spec.build();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_segment() -> PiecewiseStationary {
        PiecewiseStationary::new(vec![
            Segment::new(10, WorkloadSpec::Bernoulli { p: 0.0 }),
            Segment::new(10, WorkloadSpec::Bernoulli { p: 1.0 }),
        ])
        .unwrap()
    }

    #[test]
    fn switches_exactly_at_boundary() {
        let mut w = two_segment();
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<u32> = (0..20).map(|_| w.next_arrivals(&mut rng)).collect();
        assert_eq!(&seq[..10], &[0; 10]);
        assert_eq!(&seq[10..], &[1; 10]);
        assert_eq!(w.current_segment(), 1);
    }

    #[test]
    fn switch_points_reported() {
        let w = PiecewiseStationary::new(vec![
            Segment::new(100, WorkloadSpec::Bernoulli { p: 0.1 }),
            Segment::new(50, WorkloadSpec::Bernoulli { p: 0.5 }),
            Segment::new(25, WorkloadSpec::Bernoulli { p: 0.2 }),
        ])
        .unwrap();
        assert_eq!(w.switch_points(), vec![100, 150]);
        assert_eq!(w.total_duration(), 175);
    }

    #[test]
    fn last_segment_runs_forever() {
        let mut w = two_segment();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            w.next_arrivals(&mut rng);
        }
        assert_eq!(w.current_segment(), 1);
        assert_eq!(w.next_arrivals(&mut rng), 1);
    }

    #[test]
    fn reset_restarts_from_first_segment() {
        let mut w = two_segment();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..15 {
            w.next_arrivals(&mut rng);
        }
        w.reset();
        assert_eq!(w.current_segment(), 0);
        assert_eq!(w.next_arrivals(&mut rng), 0);
    }

    #[test]
    fn duration_weighted_mean_rate() {
        let w = PiecewiseStationary::new(vec![
            Segment::new(75, WorkloadSpec::Bernoulli { p: 0.0 }),
            Segment::new(25, WorkloadSpec::Bernoulli { p: 0.4 }),
        ])
        .unwrap();
        assert!((w.mean_rate().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gap_api_respects_segment_boundaries() {
        // Trace segments make the gap API fully deterministic: the exact
        // per-slice sequence must be reproduced, including the switch.
        let build = || {
            PiecewiseStationary::new(vec![
                Segment::new(
                    7,
                    WorkloadSpec::Trace {
                        arrivals: vec![0, 0, 1, 0, 0, 0, 0],
                    },
                ),
                Segment::new(
                    5,
                    WorkloadSpec::Trace {
                        arrivals: vec![0, 1, 0, 0, 1],
                    },
                ),
            ])
            .unwrap()
        };
        let mut per = build();
        let mut rng = StdRng::seed_from_u64(0);
        let expected: Vec<u32> = (0..12).map(|_| per.next_arrivals(&mut rng)).collect();

        let mut gaps = build();
        let mut got = Vec::new();
        while got.len() < 12 {
            match gaps.next_arrival_gap(&mut rng, 12 - got.len() as u64) {
                crate::ArrivalGap::Arrival { empty, count } => {
                    got.extend(std::iter::repeat_n(0, empty as usize));
                    got.push(count);
                }
                crate::ArrivalGap::Quiet { advanced } => {
                    assert!(advanced > 0, "quiet gap must make progress");
                    got.extend(std::iter::repeat_n(0, advanced as usize));
                }
            }
        }
        assert_eq!(expected, got);
        assert_eq!(gaps.current_segment(), 1);
    }

    #[test]
    fn rejects_empty_and_zero_duration() {
        assert!(PiecewiseStationary::new(vec![]).is_err());
        assert!(PiecewiseStationary::new(vec![Segment::new(
            0,
            WorkloadSpec::Bernoulli { p: 0.5 }
        )])
        .is_err());
    }
}
