//! Terminal rendering of experiment outputs: ASCII tables, cabinet-grid
//! heatmaps, histograms, and CDF sketches.

use std::fmt::Write as _;

/// A simple ASCII table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let mut r: Vec<String> = row.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+\n";
        out.push_str(&sep);
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "| {cell:w$} ");
            }
            line + "|\n"
        };
        out.push_str(&render_row(&self.header));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&render_row(row));
        }
        out.push_str(&sep);
        out
    }
}

/// A human-readable rendering of an [`obskit::Recorder`] snapshot:
/// counters, gauges, histogram summaries, and span statistics as ASCII
/// tables, in the recorder's deterministic (sorted) key order.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    text: String,
    json: String,
}

impl MetricsReport {
    /// Builds the report from a recorder's current state.
    pub fn from_recorder(rec: &obskit::Recorder) -> MetricsReport {
        let mut text = String::new();
        let mut t = Table::new(["Counter", "Value"]);
        for (k, v) in rec.counters() {
            t.push_row([k.to_string(), v.to_string()]);
        }
        if t.n_rows() > 0 {
            text.push_str("Counters:\n");
            text.push_str(&t.render());
        }
        let mut t = Table::new(["Gauge", "Value"]);
        for (k, v) in rec.gauges() {
            t.push_row([k.to_string(), format!("{v:.6}")]);
        }
        if t.n_rows() > 0 {
            text.push_str("Gauges:\n");
            text.push_str(&t.render());
        }
        let mut t = Table::new(["Histogram", "Count", "Sum", "Mean"]);
        for (k, h) in rec.histograms() {
            t.push_row([
                k.to_string(),
                h.count().to_string(),
                format!("{:.3}", h.sum()),
                format!("{:.3}", h.mean()),
            ]);
        }
        if t.n_rows() > 0 {
            text.push_str("Histograms:\n");
            text.push_str(&t.render());
        }
        let mut t = Table::new(["Span", "Count", "Total ticks", "Min", "Max"]);
        for (k, s) in rec.spans() {
            t.push_row([
                k.to_string(),
                s.count.to_string(),
                s.total_ticks.to_string(),
                s.min_ticks.to_string(),
                s.max_ticks.to_string(),
            ]);
        }
        if t.n_rows() > 0 {
            text.push_str("Spans (logical ticks):\n");
            text.push_str(&t.render());
        }
        if text.is_empty() {
            text.push_str("(no metrics recorded)\n");
        }
        MetricsReport {
            text,
            json: rec.snapshot_json(),
        }
    }

    /// The ASCII-table rendering.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The stable `obskit/1` JSON snapshot the report was built from.
    pub fn json(&self) -> &str {
        &self.json
    }
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Renders a `width × height` grid of values as an ASCII heatmap
/// (row `y = height-1` printed first, like the paper's cabinet plots).
/// Values are normalised to the grid's min/max and mapped onto a
/// ten-step character ramp.
pub fn render_heatmap(values: &[f64], width: usize, height: usize) -> String {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if values.len() != width * height || width == 0 {
        return String::from("(invalid heatmap dimensions)\n");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for y in (0..height).rev() {
        let _ = write!(out, "{y:>2} |");
        for x in 0..width {
            let v = values[y * width + x];
            let t = ((v - lo) / range * (RAMP.len() - 1) as f64).round() as usize;
            let c = RAMP[t.min(RAMP.len() - 1)];
            out.push(c);
            out.push(c);
        }
        out.push_str("|\n");
    }
    let _ = writeln!(out, "    {}", "-".repeat(width * 2));
    out.push_str("     0");
    let _ = writeln!(out, "{:>width$}", width - 1, width = width * 2 - 2);
    let _ = writeln!(out, "    scale: min={lo:.3} max={hi:.3}");
    out
}

/// Renders a histogram as horizontal bars with bin labels.
pub fn render_histogram(centers: &[f64], probs: &[f64], max_width: usize) -> String {
    let mut out = String::new();
    let peak = probs
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    for (c, p) in centers.iter().zip(probs) {
        let w = (p / peak * max_width as f64).round() as usize;
        let _ = writeln!(out, "{c:>8.1} | {} {p:.3}", "#".repeat(w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["Model", "F1"]);
        t.push_row(["GBDT", "0.81"]);
        t.push_row(["LR", "0.67"]);
        let s = t.render();
        assert!(s.contains("| GBDT  | 0.81 |"));
        assert!(s.contains("| Model | F1   |"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.push_row(["only-one"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn metrics_report_renders_all_sections() {
        let mut rec = obskit::Recorder::new();
        rec.incr("a.count", 3);
        rec.gauge("b.rate", 0.5);
        rec.observe("c.hist", 2.0);
        let span = rec.span_start("d.span");
        rec.span_end(span);
        let report = MetricsReport::from_recorder(&rec);
        for needle in [
            "a.count",
            "b.rate",
            "c.hist",
            "d.span",
            "Counters:",
            "Spans",
        ] {
            assert!(report.text().contains(needle), "missing {needle}");
        }
        assert_eq!(report.json(), rec.snapshot_json());
        assert!(report.to_string().contains("a.count"));
        let empty = MetricsReport::from_recorder(&obskit::Recorder::null());
        assert!(empty.text().contains("no metrics recorded"));
    }

    #[test]
    fn heatmap_shape_and_scale() {
        let vals: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let s = render_heatmap(&vals, 4, 3);
        // 3 data lines + axis + labels + scale.
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains("min=0.000"));
        assert!(s.contains("max=11.000"));
        // Top-printed row is y=2 (values 8..12 -> densest chars).
        let first = s.lines().next().unwrap();
        assert!(first.starts_with(" 2 |"));
    }

    #[test]
    fn heatmap_rejects_bad_dims() {
        assert!(render_heatmap(&[1.0], 2, 2).contains("invalid"));
    }

    #[test]
    fn histogram_bars_scale_to_peak() {
        let s = render_histogram(&[1.0, 2.0], &[0.25, 0.5], 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].matches('#').count() == 10);
        assert!(lines[0].matches('#').count() == 5);
    }
}
