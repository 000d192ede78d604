//! Plain-text table/series rendering for the figure binaries.

use simclock::SimTime;

/// One row of a printed table: a label plus one cell per column.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (left column).
    pub label: String,
    /// Cell values.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from displayable cells.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Row {
        Row { label: label.into(), cells }
    }
}

/// Prints an aligned table with a title and column headers.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(6).max(6);
    for row in rows {
        for (i, cell) in row.cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    print!("{:label_w$}", "");
    for (c, w) in columns.iter().zip(&widths) {
        print!("  {c:>w$}");
    }
    println!();
    for row in rows {
        print!("{:label_w$}", row.label);
        for (cell, w) in row.cells.iter().zip(&widths) {
            print!("  {cell:>w$}");
        }
        println!();
    }
}

/// Prints a (time, value) series as CSV, with both raw virtual seconds and
/// paper-equivalent seconds (`raw * scale`).
pub fn print_series(name: &str, unit: &str, scale: u64, series: &[(SimTime, f64)]) {
    println!("\n# series: {name} [{unit}] (scale 1/{scale})");
    println!("raw_s,paper_equiv_s,{unit}");
    for (t, v) in series {
        let raw = t.as_secs_f64();
        println!("{:.3},{:.1},{:.2}", raw, raw * scale as f64, v);
    }
}

/// Formats a latency in microseconds with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_without_panicking() {
        let rows =
            vec![Row::new("a", vec!["1".into(), "2".into()]), Row::new("bbbb", vec!["3".into()])];
        print_table("test", &["x", "y"], &rows);
        print_series("s", "MiB/s", 64, &[(SimTime::from_secs(1), 42.0)]);
    }

    #[test]
    fn us_formatting() {
        assert_eq!(us(3.15159), "3.2");
        assert_eq!(us(250.7), "251");
    }

    #[test]
    fn empty_sample_set_is_all_zero() {
        // What sqsweep and the traffic bin print for a run with no samples.
        let [p50, p99, p999] = fiosim::Tail::of(&fiosim::LatencyHistogram::new()).micros();
        assert_eq!((p50, p99, p999), (0.0, 0.0, 0.0));
        assert_eq!(us(p999), "0.0");
    }
}
