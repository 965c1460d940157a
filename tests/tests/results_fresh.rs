//! The committed `results/` CSVs are what this tree writes. A slice of the
//! figures (Figs. 3, 8, 10 and 12) is regenerated in-process through the
//! default in-memory session and byte-compared with its tracked file, so a
//! change that moves a result fails here until `results/` is regenerated
//! (`repro all --no-cache`). `scripts/verify.sh` compares every tracked CSV.

use std::path::Path;
use subcore_experiments::figs;

#[test]
fn committed_results_match_a_fresh_run() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    for table in [figs::fig03::run(), figs::fig08::run(), figs::fig10::run(), figs::fig12::run()] {
        let path = results.join(format!("{}.csv", table.name));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is not readable: {e}", path.display()));
        assert!(
            committed == table.to_csv(),
            "{} is stale: this tree writes\n{}",
            path.display(),
            table.to_csv()
        );
    }
}
