//! `nvbench` — the repo's single benchmark: five workloads, every result
//! checked against an in-driver model, every metric printed by name with
//! its unit, sample count and clock (`virtual` = the modelled NVCache
//! stack, `host` = the simulator). See `README.md` beside this file.
//!
//! ```text
//! nvbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--trace-out PATH] [--out PATH]
//! nvbench --selftest | --smoke | --repeat-check
//! ```
//!
//! The last line of a run's standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics.

mod gen;
mod metrics;
mod model;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{Clock, Metric, Value, END_TO_END, PER_LAYER};
use nvcache_bench::Json;
use workloads::{Params, Pass, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 10;
/// The seeds `--repeat-check` runs.
const CHECK_SEEDS: [u64; 2] = [42, 7];
/// The committed description of this benchmark; `--selftest` holds the
/// registry against it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    mode: Mode,
}

#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Run,
    Selftest,
    Smoke,
    RepeatCheck,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        out: None,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--seconds" => args.seconds = parse(&value("--seconds")?)?,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--out" => args.out = Some(value("--out")?),
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selftest" => args.mode = Mode::Selftest,
            "--smoke" => args.mode = Mode::Smoke,
            "--repeat-check" => args.mode = Mode::RepeatCheck,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if let Some(name) = &args.workload {
        find_workload(name)?;
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })
}

/// The result of one run of one workload, ready to print.
struct Report {
    workload: &'static str,
    seed: u64,
    attempted: u64,
    failed: u64,
    lost_write: bool,
    /// Harness checks that did not hold (a lost write, a missing value…).
    violations: Vec<String>,
    values: Vec<Value>,
    trace_json: Option<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The contract line: every listed metric, as a number. The driver
    /// wants them all, so a per-layer value the workload does not produce
    /// reads 0 here (`absent` in the table, `null` in `--out`); an
    /// end-to-end value that is missing makes the run incorrect instead.
    fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, v) in self.values.iter().enumerate() {
            let value = v.value.filter(|x| x.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                v.metric.name, v.metric.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human table: name, value, unit, samples, clock.
    fn table(&self) -> String {
        let mut out = format!("# nvbench {} seed {}\n", self.workload, self.seed);
        let _ =
            writeln!(out, "{:<38} {:>16} {:<6} {:>9} clock", "metric", "value", "unit", "samples");
        for v in &self.values {
            let value = match v.value {
                Some(x) => format!("{x:.4}"),
                None => "absent".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<38} {:>16} {:<6} {:>9} {}",
                v.metric.name,
                value,
                v.metric.unit,
                v.samples,
                v.metric.clock.label()
            );
        }
        let _ = writeln!(out, "ops_attempted {} ops_failed {}", self.attempted, self.failed);
        for violation in &self.violations {
            let _ = writeln!(out, "VIOLATION: {violation}");
        }
        out
    }

    /// The full document for `--out`: absent values stay `null`.
    fn document(&self) -> Json {
        let metrics = self
            .values
            .iter()
            .map(|v| {
                let value = v.value.filter(|x| x.is_finite()).map_or(Json::Null, Json::Num);
                Json::obj([
                    ("name", Json::str(v.metric.name)),
                    ("value", value),
                    ("unit", Json::str(v.metric.unit)),
                    ("samples", Json::Int(v.samples as i64)),
                    ("clock", Json::str(v.metric.clock.label())),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Int(self.seed as i64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Int(self.attempted as i64)),
            ("ops_failed", Json::Int(self.failed as i64)),
            ("violations", Json::Arr(self.violations.iter().map(Json::str).collect())),
            ("metrics", Json::Arr(metrics)),
        ])
    }
}

fn pass_violations(pass: &Pass, out: &mut Vec<String>) {
    if pass.lost_write {
        out.push("an acknowledged write was lost".into());
    }
    if pass.ops_attempted == 0 {
        out.push("no op was attempted".into());
    }
    if let Some(what) = &pass.first_failure {
        out.push(format!("first failed op: {what}"));
    }
}

/// Runs one workload untraced and reports its end-to-end metrics.
fn run_end_to_end(w: &Workload, seed: u64, rounds: u32, shrink: u64) -> Report {
    let params = Params { seed, rounds, shrink, traced: false, setups: SETUPS };
    let mut pass = (w.run)(&params);
    let values = metrics::end_to_end(&mut pass);
    let mut violations = Vec::new();
    pass_violations(&pass, &mut violations);
    for v in &values {
        // Shrunk runs are too short for the tail statistics.
        if shrink == 1 && !v.value.is_some_and(|x| x.is_finite() && x > 0.0) {
            violations.push(format!("{} has no value", v.metric.name));
        }
    }
    Report {
        workload: w.name,
        seed,
        attempted: pass.ops_attempted,
        failed: pass.ops_failed,
        lost_write: pass.lost_write,
        violations,
        values,
        trace_json: None,
    }
}

/// Runs one workload for `rounds` untraced, then again with the wrappers
/// spliced in, and reports the per-layer metrics. The wrappers must be
/// inert: every virtual-time end-to-end metric has to agree between the two
/// passes.
fn run_per_layer(w: &Workload, seed: u64, rounds: u32, shrink: u64, want_trace: bool) -> Report {
    let mut untraced = (w.run)(&Params { seed, rounds, shrink, traced: false, setups: 1 });
    let mut traced = (w.run)(&Params { seed, rounds, shrink, traced: true, setups: 1 });
    let mut violations = Vec::new();
    pass_violations(&untraced, &mut violations);
    pass_violations(&traced, &mut violations);
    let plain = metrics::end_to_end(&mut untraced);
    let wrapped = metrics::end_to_end(&mut traced);
    for (a, b) in plain.iter().zip(&wrapped) {
        // A shrunk run of a workload that races its cleanup workers is too
        // short to compare.
        if a.metric.clock != Clock::Virtual || (shrink > 1 && !w.exact) {
            continue;
        }
        if let (Some(x), Some(y)) = (a.value, b.value) {
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            if diff > a.metric.bound {
                violations.push(format!(
                    "tracing is not inert: {} untraced {x} traced {y} (bound {})",
                    a.metric.name, a.metric.bound
                ));
            }
        }
    }
    let values = metrics::per_layer(&untraced, &mut traced);
    let value_of = |name: &str| values.iter().find(|v| v.metric.name == name).and_then(|v| v.value);
    // Closed loop, no think time: the driver-boundary spans are the timed
    // virtual window. Only the engines of db-apps charge time of their own
    // between their file-system calls.
    if let Some(r) = value_of("driver.span_sum_ratio") {
        let floor = if w.name == "db-apps" { 0.95 } else { 0.99 };
        if !(floor..=1.01).contains(&r) {
            violations.push(format!("driver-boundary spans cover {r} of the timed virtual window"));
        }
    }
    // A layer cannot be busier than the calls that fit inside it at once.
    for share in ["vfs.ext4.busy_virt_share", "blockdev.ssd.busy_virt_share"] {
        if let Some(x) = value_of(share).filter(|&x| x > w.lanes * 1.01) {
            violations.push(format!("{share} is {x}, with room for {} calls at once", w.lanes));
        }
    }
    // wal-sync's write is fully accounted for: the fsync's libc crossing,
    // the cache's own time and the DIMM's add up to the mean latency.
    if w.name == "wal-sync" {
        let fsync = traced.spans.as_ref().map(|t| *t.get(trace::Key::CacheFsync));
        let fsync_us =
            fsync.filter(|a| a.count > 0).map(|a| a.virt_ns as f64 / a.count as f64 / 1e3);
        let parts = [
            fsync_us,
            value_of("core.cache.self_virt_us_per_write"),
            value_of("nvmm.virt_us_per_write"),
        ];
        if let (Some(mean), [Some(a), Some(b), Some(c)]) = (traced.writes.mean_us(), parts) {
            if ((a + b + c) / mean - 1.0).abs() > 0.01 {
                violations.push(format!(
                    "write latency {mean} us is not libc {a} + cache {b} + nvmm {c}"
                ));
            }
        }
    }
    Report {
        workload: w.name,
        seed,
        attempted: untraced.ops_attempted + traced.ops_attempted,
        failed: untraced.ops_failed + traced.ops_failed,
        lost_write: untraced.lost_write || traced.lost_write,
        violations,
        values,
        trace_json: traced.tracer.as_ref().filter(|_| want_trace).map(|t| t.chrome_trace()),
    }
}

/// Runs the selected workloads. A run whose checks failed still prints its
/// result (`"correct": false`); only a lost acknowledged write is an error.
fn run_mode(args: &Args) -> Result<(), String> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let mut lost = Vec::new();
    let mut documents = Vec::new();
    for w in selected {
        // A traced run splits its length between its two passes.
        let report = if args.trace {
            run_per_layer(w, args.seed, w.rounds(args.seconds / 2.0), 1, args.trace_out.is_some())
        } else {
            run_end_to_end(w, args.seed, w.rounds(args.seconds), 1)
        };
        print!("{}", report.table());
        if let (Some(path), Some(json)) = (&args.trace_out, &report.trace_json) {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        }
        documents.push(report.document());
        if report.lost_write {
            lost.push(w.name);
        }
        println!("{}", report.contract_line());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, Json::Arr(documents).render())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if lost.is_empty() {
        Ok(())
    } else {
        Err(format!("acknowledged writes were lost on {lost:?}"))
    }
}

/// `--selftest`: the quantile function, generator determinism, a
/// `Json::parse` round trip of both output documents, and the registry
/// against the committed `BENCHMARK.json`.
fn selftest() -> Result<(), String> {
    stats::selftest()?;
    gen::selftest()?;
    let w = find_workload("wal-sync")?;
    let report = run_end_to_end(w, 42, 1, 50);
    let line = Json::parse(&report.contract_line())?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        line.get(key).ok_or(format!("contract line lacks {key:?}"))?;
    }
    for m in &END_TO_END {
        let entry = line.get("metrics").and_then(|ms| ms.get(m.name));
        let unit = entry.and_then(|e| e.get("unit"));
        if !matches!(unit, Some(Json::Str(u)) if u == m.unit) {
            return Err(format!("contract line lacks {} in {}", m.name, m.unit));
        }
    }
    let doc = Json::parse(&report.document().render())?;
    if !matches!(doc.get("metrics"), Some(Json::Arr(ms)) if ms.len() == END_TO_END.len()) {
        return Err("document does not round-trip its metrics".into());
    }
    check_benchmark_json()
}

/// `--smoke`: all five workloads at 1/50 size, asserting the output schema,
/// zero failures, and bit-identical virtual-time metrics across two
/// in-process repeats of the single-threaded workloads.
fn smoke() -> Result<(), String> {
    for w in &WORKLOADS {
        let a = run_per_layer(w, 42, 1, 50, false);
        print!("{}", a.table());
        if !a.correct() {
            return Err(format!("{}: {} failed ops, {:?}", w.name, a.failed, a.violations));
        }
        if a.values.len() != PER_LAYER.len() {
            return Err(format!("{}: per-layer schema", w.name));
        }
        Json::parse(&a.contract_line())?;
        let e = run_end_to_end(w, 42, 2, 50);
        if !e.correct() || e.values.len() != END_TO_END.len() {
            return Err(format!("{}: end-to-end run: {:?}", w.name, e.violations));
        }
        if w.exact {
            let again = run_end_to_end(w, 42, 2, 50);
            for (x, y) in e.values.iter().zip(&again.values) {
                if x.metric.clock == Clock::Virtual && x.value != y.value {
                    return Err(format!(
                        "{}: {} is not deterministic: {:?} then {:?}",
                        w.name, x.metric.name, x.value, y.value
                    ));
                }
            }
        }
        println!("smoke {}: ok", w.name);
    }
    Ok(())
}

/// `--repeat-check`: each workload twice per seed of [`CHECK_SEEDS`], at the
/// length `--seconds` gives; prints every end-to-end metric's relative
/// difference against its bound and fails on any excess.
fn repeat_check(args: &Args) -> Result<(), String> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let mut excess = Vec::new();
    println!(
        "{:<14} {:>5} {:<18} {:>14} {:>14} {:>9} {:>6}",
        "workload", "seed", "metric", "first", "second", "diff", "bound"
    );
    for w in selected {
        let rounds = w.rounds(args.seconds);
        for seed in CHECK_SEEDS {
            let a = run_end_to_end(w, seed, rounds, 1);
            let b = run_end_to_end(w, seed, rounds, 1);
            if !(a.correct() && b.correct()) {
                excess.push(format!(
                    "{} seed {seed}: incorrect run: {:?} {:?}",
                    w.name, a.violations, b.violations
                ));
            }
            for (x, y) in a.values.iter().zip(&b.values) {
                let (Some(p), Some(q)) = (x.value, y.value) else { continue };
                let diff = (p - q).abs() / p.abs().max(f64::MIN_POSITIVE);
                // The single-threaded workloads' virtual time repeats exactly.
                let exact = x.metric.clock == Clock::Virtual && w.exact;
                let bound = if exact { 0.0 } else { x.metric.bound };
                println!(
                    "{:<14} {:>5} {:<18} {:>14.4} {:>14.4} {:>9.5} {:>6}",
                    w.name, seed, x.metric.name, p, q, diff, bound
                );
                if diff > bound {
                    excess.push(format!(
                        "{} seed {seed}: {} differs by {diff:.5} > {bound}",
                        w.name, x.metric.name
                    ));
                }
            }
        }
    }
    if excess.is_empty() {
        Ok(())
    } else {
        Err(excess.join("\n"))
    }
}

/// Holds the registry against the committed `BENCHMARK.json`: workloads,
/// metrics, bounds and run length must be the ones this program runs.
fn check_benchmark_json() -> Result<(), String> {
    fn metric(m: &Metric, with_bound: bool) -> Json {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(if m.higher { "higher" } else { "lower" })),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    }
    let workload =
        |w: &Workload| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]);
    let expected = [
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        ("workloads", Json::Arr(WORKLOADS.iter().map(workload).collect())),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect())),
    ];
    let committed = Json::parse(BENCHMARK_JSON)?;
    for (key, want) in expected {
        let want = want.render();
        if committed.get(key).map(Json::render).as_deref() != Some(want.as_str()) {
            return Err(format!("BENCHMARK.json {key:?} is not the registry's:\n{want}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::Run => run_mode(&args),
        Mode::Selftest => selftest().map(|()| println!("selftest: ok")),
        Mode::Smoke => smoke(),
        Mode::RepeatCheck => repeat_check(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
