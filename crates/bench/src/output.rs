//! Result output: every experiment prints its table(s) to stdout and
//! writes text + CSV copies under `results/`.

use std::fs;
use std::path::PathBuf;

use flexpipe_metrics::Table;

/// The results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FP_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = fs::create_dir_all(&path);
    path
}

/// Prints `table` and persists it as `results/<name>.txt` and `.csv`.
pub fn write_result(name: &str, table: &Table) {
    let rendered = table.render();
    println!("{rendered}");
    let dir = results_dir();
    let _ = fs::write(dir.join(format!("{name}.txt")), &rendered);
    let _ = fs::write(dir.join(format!("{name}.csv")), table.to_csv());
}

/// A measurement window helper shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct SteadyWindow {
    /// Warmup seconds excluded from measurement.
    pub warmup_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }
}
