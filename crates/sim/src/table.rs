//! Tables, series, and figures — the renderable units every experiment
//! emits.

use aro_metrics::stats::Histogram;

/// A titled table with a header row: the ledger's markdown/CSV renderer,
/// shared so experiment reports and `repro report` analyses render alike.
pub use aro_ledger::md::MdTable as Table;

/// A named data series (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A named series.
    #[must_use]
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }
}

/// A figure: axis labels plus one or more series, optionally backed by a
/// histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Builds a figure from a histogram (one series of bin fractions).
    #[must_use]
    pub fn from_histogram(
        title: impl Into<String>,
        x_label: impl Into<String>,
        name: impl Into<String>,
        histogram: &Histogram,
    ) -> Self {
        let mut fig = Self::new(title, x_label, "fraction");
        fig.push_series(Series::new(name, histogram.normalized()));
        fig
    }

    /// The figure title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The series.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the figure as a data listing (x column + one y column per
    /// series) — what the paper's plotting tool would consume.
    #[must_use]
    pub fn to_data_listing(&self) -> String {
        let mut out = format!(
            "### {} ({} vs {})\n\n",
            self.title, self.y_label, self.x_label
        );
        let names: Vec<&str> = self.series.iter().map(|s| s.name.as_str()).collect();
        out.push_str(&format!("{:>12}  {}\n", self.x_label, names.join("  ")));
        let longest = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for i in 0..longest {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(i).map(|p| p.0))
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{x:>12.4}"));
            for s in &self.series {
                match s.points.get(i) {
                    Some(p) => out.push_str(&format!("  {:>12.5}", p.1)),
                    None => out.push_str(&format!("  {:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_data_listing_includes_every_series() {
        let mut f = Figure::new("Fig", "t", "v");
        f.push_series(Series::new("conv", vec![(0.0, 1.0), (1.0, 2.0)]));
        f.push_series(Series::new("aro", vec![(0.0, 1.0)]));
        let listing = f.to_data_listing();
        assert!(listing.contains("conv"));
        assert!(listing.contains("aro"));
        assert!(listing.lines().count() >= 4);
    }

    #[test]
    fn figure_from_histogram() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add_all(&[0.1, 0.6, 0.6]);
        let f = Figure::from_histogram("H", "hd", "chips", &h);
        assert_eq!(f.series().len(), 1);
        assert_eq!(f.series()[0].points.len(), 4);
    }
}
