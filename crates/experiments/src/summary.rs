//! The paper-vs-measured digest: reads the CSV tables a `repro all` run
//! produced and prints one line per headline claim, with the paper's
//! reported value, ours, and a PASS/DRIFT/MISSING verdict. `repro summary`
//! exits nonzero unless every claim passes.

use std::fmt::Write as _;
use std::path::Path;

/// One headline claim checked against a results directory.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier (`fig03.unbalanced`, `fig16.srr-mean`, …).
    pub id: &'static str,
    /// What the paper reports.
    pub paper: f64,
    /// Our measured value (NaN if the table was missing).
    pub measured: f64,
    /// Relative tolerance within which we call it a PASS; outside it the
    /// digest says DRIFT and points at EXPERIMENTS.md.
    pub tolerance: f64,
}

impl Claim {
    /// Whether the measurement is within tolerance of the paper's value.
    pub fn passes(&self) -> bool {
        self.measured.is_finite()
            && (self.measured - self.paper).abs() <= self.tolerance * self.paper.abs()
    }
}

fn lookup(dir: &Path, table: &str, row: &str, col: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(dir.join(format!("{table}.csv"))) else {
        return f64::NAN;
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return f64::NAN;
    };
    let Some(ci) = header.split(',').position(|c| c == col) else {
        return f64::NAN;
    };
    for line in lines {
        let mut fields = line.split(',');
        if fields.next() == Some(row) {
            return fields.nth(ci - 1).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN);
        }
    }
    f64::NAN
}

/// Builds the claim list from a results directory.
pub fn claims(dir: &Path) -> Vec<Claim> {
    let g = |table: &str, row: &str, col: &str| lookup(dir, table, row, col);
    vec![
        Claim {
            id: "fig03.unbalanced-partitioned",
            paper: 3.9,
            measured: g("fig03_fma_hw", "unbalanced", "A100-like (4 sub-cores)"),
            tolerance: 0.2,
        },
        Claim {
            id: "fig03.unbalanced-monolithic",
            paper: 1.0,
            measured: g("fig03_fma_hw", "unbalanced", "Kepler-like (monolithic)"),
            tolerance: 0.3,
        },
        Claim {
            id: "fig01.fc-mean",
            paper: 1.132,
            measured: g("fig01_fc_speedup", "MEAN", "fully-connected"),
            tolerance: 0.15,
        },
        Claim {
            id: "fig16.srr-mean",
            paper: 1.175,
            measured: g("fig16_tpch_uncompressed", "MEAN", "srr"),
            tolerance: 0.1,
        },
        Claim {
            id: "fig16.q8-srr",
            paper: 1.308,
            measured: g("fig16_tpch_uncompressed", "tpcU-q8", "srr"),
            tolerance: 0.1,
        },
        Claim {
            id: "fig15.srr-mean",
            paper: 1.331,
            measured: g("fig15_tpch_compressed", "MEAN", "srr"),
            tolerance: 0.15,
        },
        Claim {
            id: "fig15.shuffle-mean",
            paper: 1.274,
            measured: g("fig15_tpch_compressed", "MEAN", "shuffle"),
            tolerance: 0.15,
        },
        Claim {
            id: "fig13.4cu-area",
            paper: 1.27,
            measured: g("fig13_area_power", "4cu", "area"),
            tolerance: 0.03,
        },
        Claim {
            id: "fig13.4cu-power",
            paper: 1.60,
            measured: g("fig13_area_power", "4cu", "power"),
            tolerance: 0.04,
        },
        Claim {
            id: "fig13.rba-area",
            paper: 1.01,
            measured: g("fig13_area_power", "rba", "area"),
            tolerance: 0.01,
        },
        Claim {
            id: "fig10.bank-stealing-mean",
            paper: 1.01,
            measured: g("fig10_sensitive", "MEAN", "bank-stealing"),
            tolerance: 0.03,
        },
        // Claims the paper makes qualitatively that our magnitudes overshoot;
        // tracked with loose tolerances so real regressions still surface.
        Claim {
            id: "fig10.rba-mean (magnitude overshoots, see EXPERIMENTS.md)",
            paper: 1.111,
            measured: g("fig10_sensitive", "MEAN", "rba"),
            tolerance: 0.25,
        },
        Claim {
            id: "fig09.shuffle+rba-mean (magnitude overshoots)",
            paper: 1.106,
            measured: g("fig09_all_apps", "MEAN", "shuffle+rba"),
            tolerance: 0.25,
        },
    ]
}

/// Renders the digest, and whether every claim passed.
pub fn render(dir: &Path) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(out, "== paper-vs-measured digest ({})", dir.display());
    let _ = writeln!(out, "{:55}  {:>8}  {:>8}  verdict", "claim", "paper", "ours");
    let mut pass = 0;
    let all = claims(dir);
    let total = all.len();
    for c in all {
        let verdict = if !c.measured.is_finite() {
            "MISSING"
        } else if c.passes() {
            pass += 1;
            "PASS"
        } else {
            "DRIFT"
        };
        let _ = writeln!(out, "{:55}  {:8.3}  {:8.3}  {verdict}", c.id, c.paper, c.measured);
    }
    let _ = writeln!(out, "{pass}/{total} within tolerance");
    (out, pass == total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_reads_csv() {
        let dir = std::env::temp_dir().join("subcore-summary-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.csv"), "app,a,b\nx,1.5,2.5\nMEAN,3.0,4.0\n").unwrap();
        assert_eq!(lookup(&dir, "t", "x", "b"), 2.5);
        assert_eq!(lookup(&dir, "t", "MEAN", "a"), 3.0);
        assert!(lookup(&dir, "t", "y", "a").is_nan());
        assert!(lookup(&dir, "missing", "x", "a").is_nan());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_tolerance_logic() {
        let c = Claim { id: "t", paper: 2.0, measured: 2.1, tolerance: 0.1 };
        assert!(c.passes());
        let c = Claim { id: "t", paper: 2.0, measured: 2.5, tolerance: 0.1 };
        assert!(!c.passes());
        let c = Claim { id: "t", paper: 2.0, measured: f64::NAN, tolerance: 0.1 };
        assert!(!c.passes());
    }

    #[test]
    fn render_reports_missing_tables() {
        let dir = std::env::temp_dir().join("subcore-summary-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let (s, all_pass) = render(&dir);
        assert!(!all_pass);
        assert!(s.contains("MISSING"));
        assert!(s.contains("/"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
