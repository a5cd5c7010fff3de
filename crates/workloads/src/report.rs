//! Table/CSV output helpers shared by the figure binaries.

use std::io::Write;
use std::path::PathBuf;

/// One measured point of a series (e.g. one thread count of one structure).
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (structure / technique name).
    pub series: String,
    /// X value label (thread count, range query size, threshold, ...).
    pub x: String,
    /// Y value (throughput in Mops/s or a ratio, depending on the figure).
    pub y: f64,
}

/// Print a figure-style table: one row per x value, one column per series.
pub fn print_series_table(title: &str, x_name: &str, y_name: &str, points: &[Point]) {
    println!("\n== {title} ==  ({y_name})");
    let mut series: Vec<String> = Vec::new();
    let mut xs: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
        if !xs.contains(&p.x) {
            xs.push(p.x.clone());
        }
    }
    print!("{x_name:>12}");
    for s in &series {
        print!("  {s:>18}");
    }
    println!();
    for x in &xs {
        print!("{x:>12}");
        for s in &series {
            let v = points
                .iter()
                .find(|p| &p.x == x && &p.series == s)
                .map(|p| p.y);
            match v {
                Some(v) => print!("  {v:>18.3}"),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Write the raw points as CSV under `target/experiments/<name>.csv` so the
/// plots can be regenerated offline; returns the path written.
pub fn write_csv(name: &str, x_name: &str, y_name: &str, points: &[Point]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "series,{x_name},{y_name}");
        for p in points {
            let _ = writeln!(f, "{},{},{}", p.series, p.x, p.y);
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_written_with_all_points() {
        let pts = vec![
            Point {
                series: "a".into(),
                x: "1".into(),
                y: 1.5,
            },
            Point {
                series: "b".into(),
                x: "1".into(),
                y: 2.5,
            },
        ];
        let path = write_csv("unit_test_report", "threads", "mops", &pts);
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("series,threads,mops"));
        assert!(content.contains("a,1,1.5"));
        assert!(content.contains("b,1,2.5"));
        // Table printing should not panic.
        print_series_table("unit", "threads", "mops", &pts);
    }
}
