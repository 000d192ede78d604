//! Benchmark harness for the NVCache reproduction.
//!
//! One binary per table/figure of the paper (README, "Regenerating the
//! paper's figures", lists them all):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Table I (system property matrix) |
//! | `table4` | Table IV (evaluated configurations) |
//! | `fig3`   | Fig. 3 (db_bench latencies, RocksDB + SQLite stand-ins) |
//! | `fig4`   | Fig. 4 (FIO randwrite time series, 5 systems) |
//! | `fig5`   | Fig. 5 (NVMM log-size saturation) |
//! | `fig6`   | Fig. 6 (cleanup batching sweep) |
//! | `fig7`   | Fig. 7 (read-cache size sweep) |
//!
//! Capacity-bound experiments run at a configurable `--scale N` (default 64,
//! see README's `--scale` paragraph): all capacities and dataset sizes divide by N, so the
//! virtual-time axis compresses by ≈N while per-operation latencies stay at
//! paper scale. Each binary prints both raw virtual seconds and
//! "paper-equivalent" seconds (`raw × N`).
//!
//! Every stack a binary, a benchmark or a test mounts, crashes and recovers
//! is described by [`rig`] (its [`rig::Rig`] and [`rig::Model`]).

// The rig names the core crate as `super::nvcache`.
extern crate nvcache;

pub mod cli;
pub mod json;
pub mod report;
pub mod rig;
pub mod saturation;
pub mod systems;

pub use cli::CommonArgs;
pub use json::Json;
pub use report::{print_series, print_table, Row};
pub use saturation::run_to_saturation;
pub use systems::{build_system, System, SystemKind, SystemSpec};

/// The value after `key` in `args`, `None` when absent.
pub(crate) fn arg_in<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--key value` style arguments with a default.
pub fn arg_u64(key: &str, default: u64) -> u64 {
    arg_str(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether a bare flag is present.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

/// Parses a `--key value` string argument, `None` when absent.
pub fn arg_str(key: &str) -> Option<String> {
    arg_in(&std::env::args().collect::<Vec<_>>(), key).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(super::arg_u64("--definitely-not-passed", 7), 7);
        assert!(!super::arg_flag("--definitely-not-passed"));
    }
}
