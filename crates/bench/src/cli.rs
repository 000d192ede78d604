//! Shared command-line parsing for the figure binaries.
//!
//! Every capacity-bound experiment takes the same three stack knobs —
//! `--scale` (capacity divisor, see README), `--shards` (log stripes) and
//! `--queue-depth` (submission-ring/SSD-channel depth) — which used to be
//! copy-pasted into each binary. [`CommonArgs`] parses them once and stamps
//! them onto a [`SystemSpec`]: the stripes onto its NVCache configuration,
//! the depth onto the spec.

use nvcache::NvCacheConfig;

use crate::{arg_in, SystemKind, SystemSpec};

/// The stack knobs shared by every figure binary.
#[derive(Debug, Clone, Copy)]
pub struct CommonArgs {
    /// Scale divisor applied to the paper's capacities (`--scale`, default
    /// 64, at least 1).
    pub scale: u64,
    /// NVCache log stripes (`--shards`, default 1 = the paper's single
    /// log).
    pub shards: usize,
    /// I/O queue depth (`--queue-depth`, default 1 = the paper's
    /// synchronous model).
    pub queue_depth: usize,
}

impl CommonArgs {
    /// [`CommonArgs::from_args`] over the process arguments; a usage error
    /// ends the process with status 2.
    pub fn parse() -> CommonArgs {
        let args: Vec<String> = std::env::args().collect();
        CommonArgs::from_args(&args).unwrap_or_else(|e| {
            eprintln!("usage error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses `--scale N`, `--shards S` and `--queue-depth Q` from `args`,
    /// with the paper-reproducing defaults. A zero `--scale` is an error:
    /// every capacity divides by it.
    pub fn from_args(args: &[String]) -> Result<CommonArgs, String> {
        let num = |key, default| arg_in(args, key).and_then(|v| v.parse().ok()).unwrap_or(default);
        let scale = num("--scale", 64);
        if scale == 0 {
            return Err("--scale must be at least 1".into());
        }
        let shards = num("--shards", 1).max(1) as usize;
        Ok(CommonArgs { scale, shards, queue_depth: num("--queue-depth", 1).max(1) as usize })
    }

    /// A [`SystemSpec`] for `kind` carrying these knobs, over the default
    /// configuration at this scale.
    pub fn spec(&self, kind: SystemKind) -> SystemSpec {
        self.spec_with(kind, NvCacheConfig::default().scaled(self.scale))
    }

    /// A [`SystemSpec`] for `kind` carrying these knobs, over `cfg` split
    /// into `--shards` stripes.
    pub fn spec_with(&self, kind: SystemKind, cfg: NvCacheConfig) -> SystemSpec {
        SystemSpec::new(kind, self.scale)
            .with_nvcache_cfg(cfg.with_log_shards(self.shards))
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
        assert_eq!(spec.nvcache_cfg.log_shards, 1);
        assert_eq!(spec.queue_depth, 1);
        assert_eq!(spec.scale, args.scale);
        assert!(args.describe().contains("1 log shard(s)"));
    }

    #[test]
    fn a_zero_scale_is_a_usage_error_that_names_the_flag() {
        let parse = |args: &[&str]| {
            CommonArgs::from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert!(parse(&["fig5", "--scale", "0"]).expect_err("scale 0").contains("--scale"));
        let args = parse(&["fig5", "--scale", "8", "--shards", "4"]).expect("valid");
        assert_eq!((args.scale, args.shards, args.queue_depth), (8, 4, 1));
    }
}
