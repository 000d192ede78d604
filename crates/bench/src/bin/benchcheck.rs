//! Validates every committed `BENCH_*.json` perf snapshot: well-formed
//! JSON, a top-level object carrying a name key (`benchmark` or `figure`),
//! a `config` object, and at least one data section (`rows`, `mixes` or
//! `saturation`) that is non-empty.
//!
//! `BENCH_fig5.json` must also saturate no earlier on a bigger log: its
//! rows' `saturation_paper_s`, taken in order of log size, never decrease,
//! with `null` (never saturated) sorting last.
//!
//! Usage: `benchcheck [DIR]` (default: current directory). Exits non-zero
//! listing every violation, so CI catches a snapshot that a binary change
//! silently broke.
//!
//! `benchcheck --pair PARENT.json CHANGE.json` compares two `nvbench --out`
//! files instead — the table a performance change has to show: one row per
//! workload × end-to-end metric with both values, their ratio (change ÷
//! parent), the bound `BENCHMARK.json` (read from the current directory)
//! allows the metric to worsen by, and a verdict. Exits non-zero when a
//! metric is worse than its bound, a value is missing, a larger share of
//! operations failed, the change's run was not correct, a workload is in
//! only one of the two files, or there was nothing to compare.

use nvcache_bench::Json;

fn number(v: Option<&Json>) -> Option<f64> {
    match v? {
        Json::Int(i) => Some(*i as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn text(v: Option<&Json>) -> Option<&str> {
    match v? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn items(v: Option<&Json>) -> &[Json] {
    match v {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

fn workload_of(run: &Json) -> Option<&str> {
    text(run.get("workload"))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--pair`: prints the comparison table; `Ok(n)` is the number of failing
/// rows.
fn pair(parent_path: &str, change_path: &str) -> Result<usize, String> {
    let benchmark = load("BENCHMARK.json")?;
    let metrics = items(benchmark.get("end_to_end"));
    if metrics.is_empty() {
        return Err("BENCHMARK.json: no \"end_to_end\" metrics".into());
    }
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let (p_runs, c_runs) = (items(Some(&parent)), items(Some(&change)));
    if p_runs.is_empty() {
        return Err(format!("{parent_path}: no runs (expected the array `nvbench --out` writes)"));
    }
    let value_of = |run: &Json, metric: &str| {
        let m = items(run.get("metrics")).iter().find(|m| text(m.get("name")) == Some(metric))?;
        number(m.get("value"))
    };
    let failed_share = |run: &Json| {
        number(run.get("ops_failed")).unwrap_or(0.0)
            / number(run.get("ops_attempted")).unwrap_or(0.0).max(1.0)
    };
    let mut failures = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound"
    );
    for c_run in c_runs {
        let workload = workload_of(c_run).ok_or("a run of the change lacks \"workload\"")?;
        if !p_runs.iter().any(|r| workload_of(r) == Some(workload)) {
            println!("{workload:<14} missing from the parent's file");
            failures += 1;
        }
    }
    for p_run in p_runs {
        let workload = workload_of(p_run).ok_or("a parent run lacks \"workload\"")?;
        let Some(c_run) = c_runs.iter().find(|r| workload_of(r) == Some(workload)) else {
            println!("{workload:<14} missing from the change's file");
            failures += 1;
            continue;
        };
        for metric in metrics {
            let name = text(metric.get("name")).ok_or("BENCHMARK.json: metric lacks a name")?;
            let bound =
                number(metric.get("bound")).ok_or("BENCHMARK.json: metric lacks a bound")?;
            let lower_is_better = text(metric.get("better")) == Some("lower");
            let (Some(p), Some(c)) = (value_of(p_run, name), value_of(c_run, name)) else {
                println!("{workload:<14} {name:<18} no value on one side");
                failures += 1;
                continue;
            };
            // By how much of the parent's value the change is worse.
            let worse_by =
                if lower_is_better { c - p } else { p - c } / p.abs().max(f64::MIN_POSITIVE);
            let verdict = if worse_by > bound {
                failures += 1;
                "WORSE"
            } else if worse_by < -bound {
                "better"
            } else {
                "within bound"
            };
            println!(
                "{workload:<14} {name:<18} {p:>14.4} {c:>14.4} {:>8.4} {bound:>6}  {verdict}",
                c / p
            );
        }
        let correct = matches!(c_run.get("correct"), Some(Json::Bool(true)));
        if failed_share(c_run) > failed_share(p_run) || !correct {
            println!(
                "{workload:<14} failed ops {} -> {}, correct: {correct}",
                failed_share(p_run),
                failed_share(c_run)
            );
            failures += 1;
        }
    }
    Ok(failures)
}

/// Bytes of a fig5 log label: `100MB`, `1G`.
fn log_bytes(label: &str) -> Option<u64> {
    let (digits, unit) = label.split_at(label.find(|c: char| !c.is_ascii_digit())?);
    let scale = match unit {
        "MB" => 1 << 20,
        "G" => 1 << 30,
        _ => return None,
    };
    Some(digits.parse::<u64>().ok()? * scale)
}

/// fig5's rows, sorted by log size, saturate no earlier as the log grows;
/// a `null` saturation (never) sorts after every instant.
fn saturation_grows_with_the_log(rows: &[Json]) -> Result<(), String> {
    let mut points = Vec::new();
    for row in rows {
        let log = text(row.get("log")).ok_or("a fig5 row lacks \"log\"")?;
        let bytes = log_bytes(log).ok_or_else(|| format!("fig5 log \"{log}\" is not a size"))?;
        let sat = match row.get("saturation_paper_s") {
            Some(Json::Null) => f64::INFINITY,
            v => number(v).ok_or_else(|| format!("log {log}: no \"saturation_paper_s\""))?,
        };
        points.push((bytes, log, sat));
    }
    points.sort_by_key(|&(bytes, ..)| bytes);
    for pair in points.windows(2) {
        let ((_, small, early), (_, big, late)) = (pair[0], pair[1]);
        if late < early {
            return Err(format!(
                "log {big} saturates at {late} s, before the smaller log {small} ({early} s)"
            ));
        }
    }
    Ok(())
}

/// One snapshot's validation result.
fn check(name: &str, text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &doc else {
        return Err("top level is not an object".into());
    };
    let label = match doc.get("benchmark").or_else(|| doc.get("figure")) {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("name key (benchmark/figure) is not a string".into()),
        None => return Err("missing name key (\"benchmark\" or \"figure\")".into()),
    };
    match doc.get("config") {
        Some(Json::Obj(pairs)) if !pairs.is_empty() => {}
        Some(Json::Obj(_)) => return Err("\"config\" is empty".into()),
        Some(_) => return Err("\"config\" is not an object".into()),
        None => return Err("missing \"config\"".into()),
    }
    let mut data_rows = 0usize;
    for key in ["rows", "mixes"] {
        match doc.get(key) {
            Some(Json::Arr(items)) => data_rows += items.len(),
            Some(_) => return Err(format!("\"{key}\" is not an array")),
            None => {}
        }
    }
    if let Some(sat) = doc.get("saturation") {
        match sat.get("ladder") {
            Some(Json::Arr(items)) => data_rows += items.len(),
            _ => return Err("\"saturation\" lacks a \"ladder\" array".into()),
        }
    }
    if data_rows == 0 {
        return Err("no data: need a non-empty \"rows\", \"mixes\" or \"saturation\"".into());
    }
    if label == "fig5" {
        saturation_grows_with_the_log(items(doc.get("rows")))?;
    }
    Ok(format!("{name}: ok ({label}, {data_rows} data rows)"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--pair") {
        let [_, parent, change] = args.as_slice() else {
            eprintln!("usage: benchcheck --pair PARENT.json CHANGE.json");
            std::process::exit(2);
        };
        match pair(parent, change) {
            Ok(0) => return println!("benchcheck: no end-to-end metric is worse than its bound"),
            Ok(n) => eprintln!("benchcheck: {n} rows failed"),
            Err(e) => eprintln!("benchcheck: {e}"),
        }
        std::process::exit(1);
    }
    let dir = args.first().cloned().unwrap_or_else(|| ".".into());
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("benchcheck: no BENCH_*.json snapshots under {dir}");
        std::process::exit(1);
    }
    let mut failures = 0;
    for name in &names {
        let path = format!("{dir}/{name}");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{name}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        match check(name, &text) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("{name}: FAIL: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("benchcheck: {failures}/{} snapshots failed", names.len());
        std::process::exit(1);
    }
    println!("benchcheck: {} snapshots ok", names.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5(saturations: [&str; 4]) -> String {
        let rows: Vec<String> = ["100MB", "1G", "8G", "32G"]
            .iter()
            .zip(saturations)
            .map(|(log, sat)| format!(r#"{{"log": "{log}", "saturation_paper_s": {sat}}}"#))
            .collect();
        format!(r#"{{"figure": "fig5", "config": {{"scale": 64}}, "rows": [{}]}}"#, rows.join(","))
    }

    #[test]
    fn fig5_saturation_may_not_come_earlier_on_a_bigger_log() {
        assert!(check("f", &fig5(["0.3", "1.9", "23.0", "null"])).is_ok());
        assert!(check("f", &fig5(["0.3", "0.3", "null", "null"])).is_ok());
        // The first-sample detector's 100 MB row, later than the 1 GiB one.
        let err = check("f", &fig5(["6.7", "1.9", "23.0", "null"])).unwrap_err();
        assert!(err.contains("log 1G saturates at 1.9 s"), "{err}");
        assert!(check("f", &fig5(["0.3", "null", "23.0", "null"])).is_err());
        assert!(check("f", &fig5(["0.3", "1.9", "23.0", "\"soon\""])).is_err());
    }

    #[test]
    fn fig5_log_labels_are_sizes() {
        assert_eq!(log_bytes("100MB"), Some(100 << 20));
        assert_eq!(log_bytes("32G"), Some(32 << 30));
        assert_eq!(log_bytes("big"), None);
        assert_eq!(log_bytes("8T"), None);
    }
}
