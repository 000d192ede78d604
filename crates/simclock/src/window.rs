use crate::{ActorClock, SimTime};

/// A fixed-depth window of in-flight operations (a k-server dispatch gate):
/// how a submission queue of depth `k` — an io_uring, a drive's command
/// queue fed by a writeback — spaces the requests pushed through it.
///
/// Each operation [runs](DispatchWindow::run) eagerly on a private clock
/// that starts at its *dispatch* instant: the submission instant while
/// fewer than `k` operations are in flight, otherwise the earliest
/// in-flight completion. The submitter [joins](DispatchWindow::join) the
/// last completion when it needs them all.
///
/// With a depth of 1 the gate degenerates to "previous completion": the
/// window is then exactly the same operations issued back to back on one
/// clock.
///
/// # Example
///
/// ```
/// use simclock::{ActorClock, DispatchWindow, SimTime};
/// let clock = ActorClock::new();
/// let mut window = DispatchWindow::new(2);
/// for _ in 0..4 {
///     window.run(clock.now(), |op| op.advance(SimTime::from_micros(10)));
/// }
/// window.join(&clock);
/// // Four 10µs operations, two at a time.
/// assert_eq!(clock.now(), SimTime::from_micros(20));
/// ```
#[derive(Debug)]
pub struct DispatchWindow {
    depth: usize,
    /// Completion times of the in-flight operations, ascending — the gate
    /// pops the earliest.
    inflight: Vec<SimTime>,
    peak: usize,
}

impl DispatchWindow {
    /// Creates an empty window of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "a dispatch window needs a depth of at least 1");
        DispatchWindow { depth, inflight: Vec::new(), peak: 0 }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Operations run and not yet joined.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Largest in-flight population seen so far: the overlap actually
    /// achieved.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// When the next operation may dispatch: `now`, or — window full — the
    /// earliest completion among the in-flight operations (which is thereby
    /// retired). Operations whose completion is at or before `now` are
    /// retired first: they are no longer in flight at this instant, so they
    /// neither hold a slot nor count towards [`peak`](DispatchWindow::peak)
    /// (which would otherwise report occupancy between joins instead of
    /// temporal overlap).
    fn gate(&mut self, now: SimTime) -> SimTime {
        let done = self.inflight.partition_point(|&t| t <= now);
        self.inflight.drain(..done);
        if self.inflight.len() < self.depth {
            return now;
        }
        now.max(self.inflight.remove(0))
    }

    /// Runs `op`, submitted at `now`, on a private clock starting at its
    /// dispatch instant. Returns that instant, the operation's completion
    /// and its result.
    pub fn run<R>(
        &mut self,
        now: SimTime,
        op: impl FnOnce(&ActorClock) -> R,
    ) -> (SimTime, SimTime, R) {
        let start = self.gate(now);
        let op_clock = ActorClock::starting_at(start);
        let result = op(&op_clock);
        let done = op_clock.now();
        let pos = self.inflight.partition_point(|&t| t <= done);
        self.inflight.insert(pos, done);
        self.peak = self.peak.max(self.inflight.len());
        (start, done, result)
    }

    /// Advances `clock` to the last in-flight completion and empties the
    /// window, which is reusable afterwards.
    pub fn join(&mut self, clock: &ActorClock) {
        if let Some(&last) = self.inflight.last() {
            clock.advance_to(last);
        }
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Services of uneven length, some of them zero.
    const SERVICES_US: [u64; 9] = [48, 9, 0, 140, 48, 48, 15, 0, 7];

    #[test]
    fn depth_one_is_back_to_back_calls_on_one_clock() {
        let start = SimTime::from_micros(3);
        let serial = ActorClock::starting_at(start);
        let joined = ActorClock::starting_at(start);
        let mut window = DispatchWindow::new(1);
        for us in SERVICES_US {
            let before = serial.now();
            serial.advance(SimTime::from_micros(us));
            let (dispatched, done, ()) = window.run(joined.now(), |op| {
                op.advance(SimTime::from_micros(us));
            });
            assert_eq!((dispatched, done), (before, serial.now()));
        }
        assert_eq!(joined.now(), start, "the submitter's clock moves only at the join");
        window.join(&joined);
        assert_eq!(joined.now(), serial.now());
        assert_eq!((window.peak(), window.in_flight()), (1, 0));
    }

    #[test]
    fn depth_k_over_n_equal_services_ends_at_ceil_n_over_k_services() {
        let service = SimTime::from_micros(48);
        for (k, n) in [(1usize, 5u64), (2, 5), (8, 8), (8, 9), (8, 1020), (16, 3)] {
            let clock = ActorClock::starting_at(SimTime::from_micros(7));
            let mut window = DispatchWindow::new(k);
            for _ in 0..n {
                window.run(clock.now(), |op| op.advance(service));
            }
            assert_eq!(window.peak(), k.min(n as usize), "depth {k}, {n} ops");
            window.join(&clock);
            let waves = n.div_ceil(k as u64);
            assert_eq!(clock.now(), SimTime::from_micros(7) + service * waves, "depth {k}, {n}");
        }
    }

    #[test]
    fn a_full_window_dispatches_at_the_earliest_completion() {
        let mut window = DispatchWindow::new(2);
        let t0 = SimTime::ZERO;
        window.run(t0, |op| op.advance(SimTime::from_micros(30)));
        window.run(t0, |op| op.advance(SimTime::from_micros(10)));
        let (dispatched, done, ()) = window.run(t0, |op| {
            op.advance(SimTime::from_micros(5));
        });
        assert_eq!((dispatched, done), (SimTime::from_micros(10), SimTime::from_micros(15)));
        // Submitted once everything has completed: nothing is in flight.
        let (late, ..) = window.run(SimTime::from_micros(40), |_| ());
        assert_eq!((late, window.peak()), (SimTime::from_micros(40), 2));
    }

    #[test]
    fn join_leaves_a_clock_that_is_already_past_alone() {
        let clock = ActorClock::starting_at(SimTime::from_millis(1));
        let mut window = DispatchWindow::new(4);
        window.run(SimTime::ZERO, |op| op.advance(SimTime::from_micros(1)));
        window.join(&clock);
        assert_eq!(clock.now(), SimTime::from_millis(1));
        window.join(&clock); // empty: a no-op
        assert_eq!(clock.now(), SimTime::from_millis(1));
    }
}
