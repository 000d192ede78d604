//! Deterministic multi-tenant traffic engine for the NVCache reproduction.
//!
//! Replays synthetic traces — seeded zipfian popularity, configurable
//! read/write/fsync mixes, open-loop (Poisson, optionally bursty) or
//! closed-loop arrivals — against a single shared mount, with several
//! tenants (raw-FS, [`rocklet`], [`sqlight`]) running concurrently in
//! virtual time, each under its own path prefix so tiering and heat
//! placement engage per tenant.
//!
//! The pipeline is three stages:
//!
//! 1. **Generate** ([`TenantTrace::generate`]): a [`TenantSpec`] plus a
//!    seed deterministically materialises a trace (compare runs with
//!    [`TenantTrace::encode`]).
//! 2. **Replay** ([`engine::run`]): a single-OS-thread discrete-event
//!    scheduler drives per-worker [`simclock::ActorClock`]s; the globally
//!    earliest-ready operation always executes next, so results are exactly
//!    reproducible per seed.
//! 3. **Report** ([`TrafficReport`]): per-tenant mergeable log-scale
//!    latency histograms ([`fiosim::LatencyHistogram`]) with p50/p99/p999,
//!    offered vs achieved rates, and saturation ratios.

pub mod engine;
pub mod gen;
pub mod metrics;
pub mod tenant;

pub use engine::{run, EngineConfig, TrafficError, TrafficResult, TrafficTarget};
pub use fiosim::Tail;
pub use gen::{Arrival, Burst, OpKind, OpMix, SizeDist, TenantTrace, TraceOp, ZipfSampler};
pub use metrics::{TenantMetrics, TenantReport, TrafficReport};
pub use tenant::{TenantKind, TenantSpec};
