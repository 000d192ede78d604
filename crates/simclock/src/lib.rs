//! Virtual-time primitives for the NVCache reproduction.
//!
//! The whole evaluation stack runs on *simulated* devices: an NVMM DIMM and an
//! SSD that charge latency against **virtual nanoseconds** instead of wall
//! time. Real OS threads execute the protocols (locking, the cleanup thread,
//! CAS races are all real), but every I/O primitive advances an [`ActorClock`]
//! by a modelled service time, and shared devices serialize concurrent
//! requests through a [`ChannelResource`].
//!
//! This model is deterministic for single-threaded workloads and very close to
//! deterministic under concurrency (the only nondeterminism is queueing order
//! at a `ChannelResource`, which affects fairness but not totals).
//!
//! # Example
//!
//! ```
//! use simclock::{ActorClock, ChannelResource, SimTime};
//!
//! let clock = ActorClock::new();
//! let ssd = ChannelResource::new(1);
//! // Serve a 50µs random write against the device timeline.
//! let done = ssd.serve(clock.now(), SimTime::from_micros(50));
//! clock.advance_to(done);
//! assert_eq!(clock.now(), SimTime::from_micros(50));
//! ```

mod clock;
mod resource;
mod series;
mod time;
mod window;

pub use clock::ActorClock;
pub use resource::{Bandwidth, ChannelResource};
pub use series::{Sample, SeriesBin, TimeSeries};
pub use time::SimTime;
pub use window::DispatchWindow;
