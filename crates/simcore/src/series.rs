//! Time-series and table containers used by the evaluation harness.
//!
//! Every figure in the paper is a set of series over beats (heart rate vs
//! beat number, allocated cores vs beat number, PSNR difference vs beat
//! number); every table is a set of labelled rows. These containers collect
//! those values during a simulation and render them as CSV or aligned text so
//! the bench binaries can print exactly what the paper reports.

use heartbeats::stats;

/// A named sequence of `(x, y)` points (typically beat index vs value).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Name used as the CSV column header.
    pub name: String,
    /// The points, in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }

    /// Mean of the y values.
    pub fn mean_y(&self) -> f64 {
        stats::mean(&self.ys())
    }

    /// Minimum y value, if any.
    pub fn min_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Maximum y value, if any.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// y value at the largest x not exceeding `x`, if any.
    pub fn value_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .rfind(|&&(px, _)| px <= x)
            .map(|&(_, y)| y)
    }

    /// Fraction of points whose y lies in `[lo, hi]`.
    pub fn fraction_within(&self, lo: f64, hi: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let inside = self
            .points
            .iter()
            .filter(|&&(_, y)| y >= lo && y <= hi)
            .count();
        inside as f64 / self.points.len() as f64
    }
}

/// A bundle of series sharing the same x axis, renderable as CSV.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    /// Label of the shared x axis (e.g. `"beat"`).
    pub x_label: String,
    series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty set with the given x-axis label.
    pub fn new(x_label: impl Into<String>) -> Self {
        SeriesSet {
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The contained series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Looks up a series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the set as CSV. Rows are the union of all x values (sorted);
    /// missing values are left empty.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        xs.dedup();

        let mut out = String::new();
        out.push_str(&self.x_label);
        for series in &self.series {
            out.push(',');
            out.push_str(&series.name);
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format_number(x));
            for series in &self.series {
                out.push(',');
                if let Some(&(_, y)) = series
                    .points
                    .iter()
                    .find(|&&(px, _)| (px - x).abs() < f64::EPSILON)
                {
                    out.push_str(&format_number(y));
                }
            }
            out.push('\n');
        }
        out
    }
}

fn format_number(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.4}")
    }
}

/// A simple labelled table (used for Table 2 and summary outputs).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as aligned, human-readable text.
    pub fn to_aligned(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basic_statistics() {
        let mut s = Series::new("rate");
        assert!(s.is_empty());
        for i in 0..5 {
            s.push(i as f64, (i * 10) as f64);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean_y(), 20.0);
        assert_eq!(s.min_y(), Some(0.0));
        assert_eq!(s.max_y(), Some(40.0));
        assert_eq!(s.ys(), vec![0.0, 10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn series_value_at_and_fraction() {
        let mut s = Series::new("cores");
        s.push(0.0, 1.0);
        s.push(10.0, 4.0);
        s.push(20.0, 7.0);
        assert_eq!(s.value_at(-1.0), None);
        assert_eq!(s.value_at(0.0), Some(1.0));
        assert_eq!(s.value_at(15.0), Some(4.0));
        assert_eq!(s.value_at(100.0), Some(7.0));
        assert!((s.fraction_within(2.0, 8.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Series::new("empty").fraction_within(0.0, 1.0), 0.0);
    }

    #[test]
    fn series_set_csv_output() {
        let mut set = SeriesSet::new("beat");
        let mut a = Series::new("heart_rate");
        a.push(1.0, 10.0);
        a.push(2.0, 12.5);
        let mut b = Series::new("cores");
        b.push(1.0, 4.0);
        set.add(a);
        set.add(b);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "beat,heart_rate,cores");
        assert_eq!(lines[1], "1,10,4");
        assert_eq!(lines[2], "2,12.5000,");
        assert!(set.get("cores").is_some());
        assert!(set.get("missing").is_none());
        assert_eq!(set.series().len(), 2);
    }

    #[test]
    fn text_table_csv_and_aligned() {
        let mut table = TextTable::new(&["Benchmark", "Heartbeat Location", "Average Heart Rate"]);
        assert!(table.is_empty());
        table.add_row(vec![
            "blackscholes".into(),
            "Every 25000 options".into(),
            "561.03".into(),
        ]);
        table.add_row(vec![
            "bodytrack".into(),
            "Every frame".into(),
            "4.31".into(),
        ]);
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        assert!(csv.starts_with("Benchmark,Heartbeat Location,Average Heart Rate\n"));
        assert!(csv.contains("bodytrack,Every frame,4.31"));
        let aligned = table.to_aligned();
        assert!(aligned.contains("blackscholes"));
        assert!(aligned.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn text_table_rejects_ragged_rows() {
        let mut table = TextTable::new(&["a", "b"]);
        table.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn format_number_integers_and_decimals() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.25), "3.2500");
    }
}
