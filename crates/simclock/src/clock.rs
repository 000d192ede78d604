use std::sync::atomic::{AtomicU64, Ordering};

use crate::SimTime;

/// A per-actor virtual clock.
///
/// Each simulated execution context (an application thread, the NVCache
/// cleanup thread, a background writeback daemon) owns one `ActorClock`.
/// Device models *charge* latency by advancing the clock; synchronization
/// points (lock hand-offs, log-full waits) propagate time with
/// [`advance_to`](ActorClock::advance_to).
///
/// The clock is internally atomic so other actors may *observe* it (e.g. to
/// stamp a freed log entry with the cleanup thread's time), but only the
/// owning actor should advance it.
///
/// # Example
///
/// ```
/// use simclock::{ActorClock, SimTime};
/// let c = ActorClock::new();
/// c.advance(SimTime::from_micros(7));
/// c.advance_to(SimTime::from_micros(5)); // no-op: already past
/// assert_eq!(c.now(), SimTime::from_micros(7));
/// ```
#[derive(Debug, Default)]
pub struct ActorClock {
    now_ns: AtomicU64,
}

impl ActorClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        ActorClock { now_ns: AtomicU64::new(0) }
    }

    /// Creates a clock starting at `t`.
    pub fn starting_at(t: SimTime) -> Self {
        ActorClock { now_ns: AtomicU64::new(t.as_nanos()) }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: SimTime) -> SimTime {
        let ns = self.now_ns.fetch_add(d.as_nanos(), Ordering::AcqRel) + d.as_nanos();
        SimTime::from_nanos(ns)
    }

    /// Advances the clock to at least `t` (monotonic merge, used when an actor
    /// unblocks after waiting on another actor).
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_nanos();
        let prev = self.now_ns.fetch_max(target, Ordering::AcqRel);
        SimTime::from_nanos(prev.max(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_accumulates() {
        let c = ActorClock::new();
        c.advance(SimTime::from_nanos(10));
        c.advance(SimTime::from_nanos(5));
        assert_eq!(c.now(), SimTime::from_nanos(15));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = ActorClock::starting_at(SimTime::from_micros(3));
        assert_eq!(c.advance_to(SimTime::from_micros(1)), SimTime::from_micros(3));
        assert_eq!(c.advance_to(SimTime::from_micros(9)), SimTime::from_micros(9));
        assert_eq!(c.now(), SimTime::from_micros(9));
    }

    #[test]
    fn observable_across_threads() {
        let c = Arc::new(ActorClock::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            c2.advance(SimTime::from_micros(42));
        });
        h.join().unwrap();
        assert_eq!(c.now(), SimTime::from_micros(42));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ActorClock::default().now(), SimTime::ZERO);
    }
}
