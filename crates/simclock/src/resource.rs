use crate::SimTime;

/// A device timeline with `ways` parallel service channels (a k-server
/// queue) — the latency model behind command queueing (SATA NCQ, NVMe
/// submission queues).
///
/// Each request is dispatched to the earliest-free channel: one channel is a
/// strictly serial device timeline (an M/G/1-style service point, where
/// queueing delay emerges when several actors hammer one device); with `k` channels,
/// up to `k` requests whose submission times overlap are served concurrently,
/// which is what makes an io_uring-style batch of writes cheaper than the
/// same writes issued back to back.
///
/// # Example
///
/// ```
/// use simclock::{ChannelResource, SimTime};
/// let dev = ChannelResource::new(2);
/// let a = dev.serve(SimTime::ZERO, SimTime::from_micros(10));
/// let b = dev.serve(SimTime::ZERO, SimTime::from_micros(10));
/// let c = dev.serve(SimTime::ZERO, SimTime::from_micros(10));
/// // Two requests overlap on the two channels; the third queues.
/// assert_eq!(a, SimTime::from_micros(10));
/// assert_eq!(b, SimTime::from_micros(10));
/// assert_eq!(c, SimTime::from_micros(20));
/// ```
#[derive(Debug)]
pub struct ChannelResource {
    channels: std::sync::Mutex<Vec<u64>>,
}

impl ChannelResource {
    /// Creates an idle resource with `ways` parallel channels.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Self {
        assert!(ways >= 1, "a device needs at least one service channel");
        ChannelResource { channels: std::sync::Mutex::new(vec![0; ways]) }
    }

    /// Number of parallel service channels.
    pub fn ways(&self) -> usize {
        self.channels.lock().expect("channel lock").len()
    }

    /// Submits a request arriving at `now` needing `service` time; the
    /// request is dispatched to the earliest-free channel. Returns the
    /// completion time; the caller should `advance_to` it.
    pub fn serve(&self, now: SimTime, service: SimTime) -> SimTime {
        let mut channels = self.channels.lock().expect("channel lock");
        let slot = channels
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            .expect("at least one channel");
        let start = channels[slot].max(now.as_nanos());
        let end = start + service.as_nanos();
        channels[slot] = end;
        SimTime::from_nanos(end)
    }

    /// Submits a full-device barrier (flush/FUA): starts only once every
    /// channel is idle and occupies all of them until completion.
    pub fn serve_barrier(&self, now: SimTime, service: SimTime) -> SimTime {
        let mut channels = self.channels.lock().expect("channel lock");
        let start = channels.iter().copied().max().unwrap_or(0).max(now.as_nanos());
        let end = start + service.as_nanos();
        channels.iter_mut().for_each(|c| *c = end);
        SimTime::from_nanos(end)
    }

    /// The time at which the whole device becomes idle.
    pub fn busy_until(&self) -> SimTime {
        SimTime::from_nanos(
            self.channels.lock().expect("channel lock").iter().copied().max().unwrap_or(0),
        )
    }

    /// Resets every channel timeline (used when re-seeding an experiment).
    pub fn reset(&self) {
        self.channels.lock().expect("channel lock").iter_mut().for_each(|c| *c = 0);
    }
}

/// A bandwidth figure used to convert byte counts into service time.
///
/// # Example
///
/// ```
/// use simclock::{Bandwidth, SimTime};
/// let bw = Bandwidth::mib_per_sec(100.0);
/// // 1 MiB at 100 MiB/s takes 10ms.
/// assert_eq!(bw.time_for(1 << 20), SimTime::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from MiB/s.
    ///
    /// # Panics
    ///
    /// Panics if `mib` is not a positive finite number.
    pub fn mib_per_sec(mib: f64) -> Self {
        assert!(mib.is_finite() && mib > 0.0, "invalid bandwidth: {mib} MiB/s");
        Bandwidth { bytes_per_sec: mib * (1u64 << 20) as f64 }
    }

    /// Creates a bandwidth from GiB/s.
    pub fn gib_per_sec(gib: f64) -> Self {
        Self::mib_per_sec(gib * 1024.0)
    }

    /// Scales the bandwidth by `factor` (used for the experiment scale knob).
    pub fn scaled(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "invalid scale: {factor}");
        Bandwidth { bytes_per_sec: self.bytes_per_sec * factor }
    }

    /// The bandwidth in bytes per (virtual) second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Service time for transferring `bytes`.
    pub fn time_for(self, bytes: u64) -> SimTime {
        SimTime::from_nanos((bytes as f64 / self.bytes_per_sec * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serial_requests_queue() {
        let r = ChannelResource::new(1);
        let first = r.serve(SimTime::ZERO, SimTime::from_micros(5));
        let second = r.serve(SimTime::ZERO, SimTime::from_micros(5));
        assert_eq!(first, SimTime::from_micros(5));
        assert_eq!(second, SimTime::from_micros(10));
        assert_eq!(r.busy_until(), SimTime::from_micros(10));
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let r = ChannelResource::new(1);
        r.serve(SimTime::ZERO, SimTime::from_micros(1));
        // Arrives long after the device went idle: starts at its own arrival.
        let done = r.serve(SimTime::from_millis(1), SimTime::from_micros(1));
        assert_eq!(done, SimTime::from_millis(1) + SimTime::from_micros(1));
    }

    #[test]
    fn concurrent_total_service_is_conserved() {
        let r = Arc::new(ChannelResource::new(1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.serve(SimTime::ZERO, SimTime::from_nanos(10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads x 1000 requests x 10ns, all arriving at t=0 on a serial
        // device: the timeline must extend exactly to the sum of service.
        assert_eq!(r.busy_until(), SimTime::from_nanos(80_000));
    }

    #[test]
    fn bandwidth_conversion() {
        let bw = Bandwidth::mib_per_sec(80.0);
        // 4 KiB at 80 MiB/s = 48.828..µs
        let t = bw.time_for(4096);
        assert!(t > SimTime::from_micros(48) && t < SimTime::from_micros(49));
        let g = Bandwidth::gib_per_sec(2.0);
        assert_eq!(g.time_for(2 << 30), SimTime::from_secs(1));
    }

    #[test]
    fn bandwidth_scaling() {
        let bw = Bandwidth::mib_per_sec(64.0).scaled(0.5);
        assert_eq!(bw.time_for(1 << 20), Bandwidth::mib_per_sec(32.0).time_for(1 << 20));
    }

    #[test]
    fn reset_clears_timeline() {
        let r = ChannelResource::new(1);
        r.serve(SimTime::ZERO, SimTime::from_secs(1));
        r.reset();
        assert_eq!(r.busy_until(), SimTime::ZERO);
    }

    #[test]
    fn channels_overlap_up_to_the_way_count() {
        let r = ChannelResource::new(4);
        let done: Vec<SimTime> =
            (0..8).map(|_| r.serve(SimTime::ZERO, SimTime::from_micros(10))).collect();
        // First four overlap fully, next four queue one service time behind.
        assert!(done[..4].iter().all(|&t| t == SimTime::from_micros(10)));
        assert!(done[4..].iter().all(|&t| t == SimTime::from_micros(20)));
    }

    #[test]
    fn barrier_waits_for_every_channel() {
        let r = ChannelResource::new(2);
        r.serve(SimTime::ZERO, SimTime::from_micros(10));
        r.serve(SimTime::ZERO, SimTime::from_micros(30));
        let done = r.serve_barrier(SimTime::ZERO, SimTime::from_micros(5));
        assert_eq!(done, SimTime::from_micros(35));
        // The barrier occupies both channels: the next request queues behind.
        assert_eq!(r.serve(SimTime::ZERO, SimTime::from_micros(1)), SimTime::from_micros(36));
        r.reset();
        assert_eq!(r.busy_until(), SimTime::ZERO);
        assert_eq!(r.ways(), 2);
    }
}
