//! Shared command-line parsing for the figure binaries.
//!
//! Every capacity-bound experiment takes the same three stack knobs —
//! `--scale` (capacity divisor, see README), `--shards` (log stripes) and
//! `--queue-depth` (submission-ring/SSD-channel depth) — which used to be
//! copy-pasted into each binary. [`CommonArgs`] parses them once and stamps
//! them onto a [`SystemSpec`], which the systems module turns into an
//! `NvCacheBuilder` mount.

use crate::{arg_u64, SystemKind, SystemSpec};

/// The stack knobs shared by every figure binary.
#[derive(Debug, Clone, Copy)]
pub struct CommonArgs {
    /// Scale divisor applied to the paper's capacities (`--scale`, default
    /// 64).
    pub scale: u64,
    /// NVCache log stripes (`--shards`, default 1 = the paper's single
    /// log).
    pub shards: usize,
    /// I/O queue depth (`--queue-depth`, default 1 = the paper's
    /// synchronous model).
    pub queue_depth: usize,
}

impl CommonArgs {
    /// Parses `--scale N`, `--shards S` and `--queue-depth Q` from the
    /// process arguments, with the paper-reproducing defaults.
    pub fn parse() -> CommonArgs {
        CommonArgs {
            scale: arg_u64("--scale", 64),
            shards: arg_u64("--shards", 1).max(1) as usize,
            queue_depth: arg_u64("--queue-depth", 1).max(1) as usize,
        }
    }

    /// A [`SystemSpec`] for `kind` carrying these knobs.
    pub fn spec(&self, kind: SystemKind) -> SystemSpec {
        SystemSpec::new(kind, self.scale)
            .with_log_shards(self.shards)
            .with_queue_depth(self.queue_depth)
    }

    /// The standard suffix describing these knobs in a figure's headline.
    pub fn describe(&self) -> String {
        format!(
            "scale 1/{}, {} log shard(s), queue depth {}",
            self.scale, self.shards, self.queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_paper() {
        let args = CommonArgs::parse();
        assert_eq!(args.shards, 1);
        assert_eq!(args.queue_depth, 1);
        let spec = args.spec(SystemKind::NvcacheSsd);
        assert_eq!(spec.log_shards, 1);
        assert_eq!(spec.queue_depth, 1);
        assert_eq!(spec.scale, args.scale);
        assert!(args.describe().contains("1 log shard(s)"));
    }
}
