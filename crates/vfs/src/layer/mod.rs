//! Composable backend **layers**: behavior stacked *vertically* over a
//! [`FileSystem`].
//!
//! The mount stack composes backends *side-by-side* — a router picks one
//! tier per file. Layers compose **vertically**: each wraps an inner
//! `Arc<dyn FileSystem>` and returns another `Arc<dyn FileSystem>`, so a
//! tier can be `crypt(delay(ssd))` and everything above it (cache drains,
//! the tier migrator, recovery) works unchanged, because a layered backend
//! *is* a plain `FileSystem`.
//!
//! ```text
//!           NvCache mount
//!                │ Router picks a tier per file
//!       ┌────────┴────────┐
//!    tier 0            tier 1
//!   CryptLayer        FaultLayer         ← outermost layer
//!       │                 │
//!   DelayLayer         Ext4+SSD          ← … down to the base backend
//!       │
//!    Ext4+SSD
//! ```
//!
//! Three first-class layers ship with the crate:
//!
//! * [`DelayLayer`] — deterministic per-op virtual-time latency (device
//!   parameterization, what-if modelling);
//! * [`FaultLayer`] — deterministic fault schedules (op budgets, nth-op
//!   triggers, path predicates) for chaos/crash testing;
//! * [`CryptLayer`] — simulated-fidelity encryption-at-rest: per-page
//!   XOR keystream plus a stored per-page auth tag, verified on read.
//!
//! # The inertness contract
//!
//! Every layer type has an **inert configuration** (its `inert()`
//! constructor, or equivalent zero/empty settings) under which the wrapper
//! is a pure call-forwarder: it never touches the caller's virtual clock,
//! never alters arguments, results, errors, or stored bytes, and never
//! reorders operations. A mount whose tiers are wrapped in inert layers is
//! therefore **byte- and virtual-time-identical** to the unlayered mount —
//! the conformance matrix in `tests/layer_matrix.rs` pins this down on
//! region bytes, the application clock, and the deterministic statistics.
//! Active layers must still preserve application-visible *content* (the
//! byte oracle); only their timing and their storage representation may
//! differ.
//!
//! Layer handles stay usable after wrapping: the same [`FaultLayer`] value
//! that built a stack can `arm()`/`disarm()` faults mid-run and report
//! [`faults_injected`](FaultLayer::faults_injected) — the wrapper shares
//! its state. One layer value should wrap one stack; wrapping several
//! stacks with the same handle shares its counters across them.

mod crypt;
mod delay;
mod fault;

use std::sync::Arc;

use crate::{FileSystem, IoError, IoResult};

pub use crypt::{CryptLayer, CryptStats};
pub use delay::{DelayLayer, DelayProfile, DelayStats};
pub use fault::{FaultLayer, FaultOp, FaultRule, FaultTrigger};

/// Deepest supported layer stack per tier. Stacks are hand-assembled and
/// shallow in practice; the bound exists to catch accidentally cyclic or
/// programmatically exploded stacks at mount time instead of at run time.
pub const MAX_STACK_DEPTH: usize = 8;

/// A vertically composable file-system layer.
///
/// Object-safe: a stack is a `Vec<Arc<dyn Layer>>`. [`wrap`](Layer::wrap)
/// consumes nothing — the layer value keeps its shared state (counters,
/// fault schedules, cache contents) and stays usable as a live handle to
/// the wrapper it produced.
pub trait Layer: Send + Sync + std::fmt::Debug {
    /// Short human-readable name (e.g. `"delay"`, `"crypt"`).
    fn name(&self) -> &str;

    /// Wraps `inner`, returning the layered file system.
    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem>;
}

/// Validates a layer stack without applying it: currently the depth bound
/// ([`MAX_STACK_DEPTH`]).
///
/// # Errors
///
/// [`IoError::InvalidArgument`] naming the offending stack depth.
pub fn validate_stack(layers: &[Arc<dyn Layer>]) -> IoResult<()> {
    if layers.len() > MAX_STACK_DEPTH {
        return Err(IoError::InvalidArgument(format!(
            "layer stack of depth {} exceeds MAX_STACK_DEPTH ({MAX_STACK_DEPTH})",
            layers.len()
        )));
    }
    Ok(())
}

/// Applies a stack of layers over `inner`: the **first** element becomes
/// the outermost wrapper, so `stack(&[crypt, delay], ssd)` builds
/// `crypt(delay(ssd))`. An empty stack returns `inner` unchanged.
///
/// # Errors
///
/// [`IoError::InvalidArgument`] if the stack fails [`validate_stack`].
pub fn stack(
    layers: &[Arc<dyn Layer>],
    inner: Arc<dyn FileSystem>,
) -> IoResult<Arc<dyn FileSystem>> {
    validate_stack(layers)?;
    let mut fs = inner;
    for layer in layers.iter().rev() {
        fs = layer.wrap(fs);
    }
    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_posix_semantics, MemFs};

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_l: &dyn Layer) {}
    }

    #[test]
    fn empty_stack_is_identity() {
        let mem: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let stacked = stack(&[], Arc::clone(&mem)).unwrap();
        assert!(Arc::ptr_eq(&mem, &stacked));
    }

    #[test]
    fn stack_applies_first_layer_outermost() {
        let crypt = Arc::new(CryptLayer::new(7));
        let delay = Arc::new(DelayLayer::inert());
        let layers: Vec<Arc<dyn Layer>> = vec![crypt, delay];
        let fs = stack(&layers, Arc::new(MemFs::new())).unwrap();
        assert_eq!(fs.name(), "crypt(delay(tmpfs))");
    }

    #[test]
    fn over_deep_stack_is_rejected() {
        let layers: Vec<Arc<dyn Layer>> =
            (0..MAX_STACK_DEPTH + 1).map(|_| Arc::new(DelayLayer::inert()) as _).collect();
        assert!(matches!(stack(&layers, Arc::new(MemFs::new())), Err(IoError::InvalidArgument(_))));
        assert!(validate_stack(&layers[..MAX_STACK_DEPTH]).is_ok());
    }

    #[test]
    fn every_inert_layer_passes_posix_conformance() {
        let layers: Vec<Arc<dyn Layer>> = vec![
            Arc::new(DelayLayer::inert()),
            Arc::new(FaultLayer::inert()),
            Arc::new(CryptLayer::passthrough()),
        ];
        for layer in &layers {
            check_posix_semantics(layer.wrap(Arc::new(MemFs::new())).as_ref());
        }
        // And the whole inert stack at once.
        check_posix_semantics(stack(&layers, Arc::new(MemFs::new())).unwrap().as_ref());
    }

    #[test]
    fn every_active_layer_passes_posix_conformance() {
        let layers: Vec<Arc<dyn Layer>> = vec![
            Arc::new(DelayLayer::fixed(simclock::SimTime::from_micros(3))),
            Arc::new(CryptLayer::new(0xC0FFEE)),
        ];
        for layer in &layers {
            check_posix_semantics(layer.wrap(Arc::new(MemFs::new())).as_ref());
        }
        check_posix_semantics(stack(&layers, Arc::new(MemFs::new())).unwrap().as_ref());
    }
}
