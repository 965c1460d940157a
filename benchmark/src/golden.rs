//! `golden.json`: the outputs every run is checked against — per engine
//! case the exact `(cycles, instructions, rf_reads)`, per sweep the digest
//! of its CSV and the simulated cycles behind it, and the cycle count of
//! the served job. Recorded from the engine at the commit that introduced
//! the benchmark (`record-golden`), not from `results/*.csv`.
//!
//! A faster simulator only counts if every simulated statistic stays
//! identical, so a mismatch fails the run (nonzero exit, the case named)
//! instead of timing a wrong answer. A PR that changes the *model* on
//! purpose re-records the file and says so.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use subcore_persist::Json;

use crate::engine::{self, Runner, Variant};
use crate::hostref::RefKernel;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{serve, sweep, Ctx};

pub struct Golden(Json);

/// Expected output of one `repro <fig>` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepGolden {
    pub cells: u64,
    /// FNV-1a of the figure's CSV.
    pub digest: u64,
    /// Simulated cycles summed over the cold pass's fresh simulations.
    pub sim_cycles: u64,
}

fn path(root: &Path) -> PathBuf {
    root.join("benchmark").join("golden.json")
}

impl Golden {
    pub fn load(root: &Path) -> Result<Golden, String> {
        let path = path(root);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map(Golden).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `(cycles, instructions, rf_reads)` of an engine case.
    pub fn engine_case(&self, label: &str) -> Option<(u64, u64, u64)> {
        let case = self.0.field("engine").ok()?.field(label).ok()?;
        let get = |name| case.field(name).and_then(Json::as_u64).ok();
        Some((get("cycles")?, get("instructions")?, get("rf_reads")?))
    }

    pub fn sweep(&self, fig: &str) -> Option<SweepGolden> {
        let s = self.0.field("sweeps").ok()?.field(fig).ok()?;
        let get = |name| s.field(name).and_then(Json::as_u64).ok();
        Some(SweepGolden {
            cells: get("cells")?,
            digest: get("digest")?,
            sim_cycles: get("sim_cycles")?,
        })
    }

    /// Cycle count every served job must settle with.
    pub fn serve_cycles(&self) -> Option<u64> {
        self.0.field("serve").ok()?.field("cycles").and_then(Json::as_u64).ok()
    }
}

/// `record-golden`: runs every engine case once, both sweeps cold, and
/// one served job, and rewrites `golden.json` from what they produced.
pub fn record(ctx: &Ctx) -> Result<(), String> {
    let mut out = Outcome::new("record-golden", ctx.seed, false);
    let mut engine_cases = BTreeMap::new();
    for set in ["engine_dense", "engine_sparse", "engine_probe"] {
        let cases = engine::cases(set)?;
        let order: Vec<usize> = (0..cases.len()).collect();
        let tracer = Tracer::new();
        let mut runner = Runner { cases: &cases, tracer: &tracer, kernel: RefKernel::new() };
        let pass = runner.pass(&order, Variant::Adaptive, false, false, 0);
        for (case, run) in cases.iter().zip(pass.runs) {
            let s = run?.stats;
            println!("{:<40} cycles {:>9} instrs {:>9}", case.label, s.cycles, s.instructions);
            engine_cases.insert(
                case.label.clone(),
                Json::obj([
                    ("cycles", Json::Uint(s.cycles)),
                    ("instructions", Json::Uint(s.instructions)),
                    ("rf_reads", Json::Uint(s.rf_reads)),
                ]),
            );
        }
    }
    let mut sweeps = BTreeMap::new();
    for fig in [sweep::MAIN, sweep::PROBE] {
        let g = sweep::record(ctx, fig, &mut out)?;
        println!("{}: {g:?}", fig.name);
        sweeps.insert(
            fig.name.to_owned(),
            Json::obj([
                ("cells", Json::Uint(g.cells)),
                ("digest", Json::Uint(g.digest)),
                ("sim_cycles", Json::Uint(g.sim_cycles)),
            ]),
        );
    }
    let cycles = serve::record(ctx, &mut out)?;
    println!("served job: {cycles} cycles");
    if out.failed > 0 {
        return Err(format!("recording failed: {}", out.errors.join("; ")));
    }
    let json = Json::obj([
        ("engine", Json::Obj(engine_cases)),
        ("sweeps", Json::Obj(sweeps)),
        ("serve", Json::obj([("cycles", Json::Uint(cycles))])),
    ]);
    std::fs::write(path(&ctx.root), json.render().replace("},\"", "},\n\"") + "\n")
        .map_err(|e| e.to_string())
}
