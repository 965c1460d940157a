//! The `repro` front door, driven as a child process: usage and `--help`,
//! argument errors, global-flag placement, the run lifecycle's two
//! guarantees (nothing runs before every experiment name checks out;
//! commands that cannot simulate leave `run_telemetry.csv` alone), the
//! lines and columns `benchmark/` parses out of a sweep, `summary`'s exit
//! code as the fidelity gate, and the `repro <word>`s the documents name.
//!
//! The sweep case is the benchmark's own `sweep_fig10` cold and `--resume`
//! passes (200 cells; ~12 s in a debug build, the engine crates being
//! optimized in the dev profile).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `repro <args>`; `SUBCORE_JOBS` is cleared so only flags decide.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("SUBCORE_JOBS")
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("subcore-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp dir")
    }

    fn entries(&self) -> Vec<String> {
        let entries = std::fs::read_dir(&self.0).expect("list scratch dir");
        entries.map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned()).collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn bare_invocation_prints_usage_and_fails() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("usage: repro "), "{}", stderr(&out));
}

#[test]
fn help_names_every_command_experiment_and_global_flag() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let commands = [
        "summary",
        "status",
        "top",
        "metrics",
        "chaos",
        "serve",
        "submit",
        "jobs",
        "trace",
        "trace-diff",
        "lint",
        "estimate",
        "opt",
        "tenants",
    ];
    for command in commands {
        assert!(text.contains(&format!("repro {command} ")), "`{command}` missing:\n{text}");
    }
    let experiments = "fig1 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 \
                       latency banks hashtable contribution ext-imbalance ext-dual-issue \
                       ext-memory ext-schedulers characterize topdown";
    assert!(text.contains(&format!("experiments: {experiments}\n")), "{text}");
    let global_flags = [
        "--out DIR",
        "--bars",
        "--no-cache",
        "--no-reorder",
        "--jobs N",
        "--resume",
        "--retries N",
        "--job-timeout SECS",
        "--fail-fast",
        "--max-failures N",
    ];
    for flag in global_flags {
        assert!(text.contains(&format!("[{flag}]")), "`{flag}` missing:\n{text}");
    }
}

#[test]
fn bad_arguments_exit_one_and_name_the_culprit() {
    let cases: [(&[&str], &str); 9] = [
        (&["fig13", "--jobs", "0"], "--jobs needs a positive worker count, got `0`"),
        (&["fig13", "--out"], "--out needs a directory argument"),
        (&["fig13", "--retries", "x"], "--retries needs a retry count, got `x`"),
        (&["top", "--interval", "0"], "--interval needs positive milliseconds, got `0`"),
        (&["serve", "--port", "notaport"], "--port needs a TCP port, got `notaport`"),
        (&["trace"], "usage: repro trace <fig|app>"),
        (&["trace-diff", "fma", "--design", "rba"], "exactly two designs, got 1"),
        (&["tenants", "--mix", "nosuch"], "unknown tenant mix `nosuch`"),
        (&["status", "extra"], "status takes no further arguments, got: [\"extra\"]"),
    ];
    let scratch = Scratch::new("bad-args");
    for (args, culprit) in cases {
        let mut line = args.to_vec();
        if !args.contains(&"--out") {
            line.extend(["--out", scratch.path()]);
        }
        let out = repro(&line);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(culprit), "{args:?} should say `{culprit}`, said: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("session telemetry"), "{args:?} ran a session: {err}");
    }
    assert!(scratch.entries().is_empty(), "rejected lines write nothing: {:?}", scratch.entries());
}

#[test]
fn global_flags_are_accepted_on_either_side_of_the_command() {
    let scratch = Scratch::new("flag-order");
    let before = repro(&["--out", scratch.path(), "status"]);
    let after = repro(&["status", "--out", scratch.path()]);
    assert_eq!(before.status.code(), Some(0), "{}", stderr(&before));
    assert_eq!((stdout(&before), before.status), (stdout(&after), after.status));
    assert!(stdout(&before).contains("no journaled campaigns under"), "{}", stdout(&before));
}

#[test]
fn experiment_names_are_checked_before_anything_runs() {
    let scratch = Scratch::new("typo");
    let out = repro(&["fig8", "fgi9", "--out", scratch.path()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown experiment `fgi9`; known: fig1 fig3 fig8 "), "{err}");
    assert!(!err.contains("[fig8] done"), "fig8 ran before the typo was reported: {err}");
    assert!(scratch.entries().is_empty(), "nothing is written: {:?}", scratch.entries());
}

#[test]
fn a_failure_mid_list_still_accounts_for_the_figures_that_finished() {
    let scratch = Scratch::new("mid-list");
    // A directory where fig13's CSV belongs makes its write fail, after
    // fig8 has simulated.
    std::fs::create_dir(scratch.0.join("fig13_area_power.csv")).expect("block fig13's CSV");
    let out = repro(&["fig8", "fig13", "--out", scratch.path()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("[fig8] done") && err.contains("failed to write"), "{err}");
    assert!(err.contains("metrics → "), "the stream is flushed: {err}");
    assert_eq!(count_after(&err, "fresh simulations"), Some(18), "fig8's runs are reported: {err}");
    assert!(scratch.0.join("run_telemetry.csv").is_file(), "{:?}", scratch.entries());
}

/// `benchmark/src/sweep.rs`'s `count_after`: the first integer after `label`.
fn count_after(report: &str, label: &str) -> Option<u64> {
    let rest = &report[report.find(label)? + label.len()..];
    rest.split_whitespace().next()?.parse().ok()
}

#[test]
fn a_sweep_reports_what_the_benchmark_parses_and_static_commands_leave_it_alone() {
    let scratch = Scratch::new("sweep");
    let line = ["fig10", "--jobs", "2", "--out", scratch.path()];
    let cold = repro(&line);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    let report = stderr(&cold);
    assert_eq!(count_after(&report, "fresh simulations"), Some(200), "{report}");
    assert_eq!(count_after(&report, "disk-cache hits"), Some(0), "{report}");
    assert_eq!(count_after(&report, "journal skips"), None, "no skips without --resume: {report}");
    assert!(report.contains("jobs cap               2"), "{report}");

    let csv_path = Path::new(scratch.path()).join("run_telemetry.csv");
    let csv = std::fs::read_to_string(&csv_path).expect("run_telemetry.csv");
    let header: Vec<&str> = csv.lines().nth(1).expect("header line").split(',').collect();
    for column in ["source", "wall_ms", "cycles"] {
        assert!(header.contains(&column), "`{column}` missing from {header:?}");
    }
    let table = Path::new(scratch.path()).join("fig10_sensitive.csv");
    let cold_table = std::fs::read(&table).expect("fig10 table");

    // `--resume` replays every cell from the journal, byte-identically.
    let resumed = repro(&[&line[..], &["--resume"]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let report = stderr(&resumed);
    assert_eq!(count_after(&report, "fresh simulations"), Some(0), "{report}");
    assert_eq!(count_after(&report, "disk-cache hits"), Some(0), "{report}");
    assert_eq!(count_after(&report, "journal skips"), Some(200), "{report}");
    assert_eq!(std::fs::read(&table).expect("fig10 table"), cold_table);

    // Commands that cannot simulate open no session: no telemetry block,
    // and the campaign's per-run CSV survives them byte for byte.
    // (`summary` exits 1 here: fig10's table alone leaves claims MISSING.)
    let csv = std::fs::read(&csv_path).expect("run_telemetry.csv");
    let static_lines: [(&[&str], i32); 5] = [
        (&["lint", "fma"], 0),
        (&["estimate", "fma"], 0),
        (&["opt", "fma"], 0),
        (&["status"], 0),
        (&["summary"], 1),
    ];
    for (args, code) in static_lines {
        let out = repro(&[args, &["--out", scratch.path()]].concat());
        assert_eq!(out.status.code(), Some(code), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("session telemetry"), "{args:?}: {}", stderr(&out));
        assert_eq!(std::fs::read(&csv_path).expect("csv"), csv, "{args:?} rewrote the CSV");
    }
}

/// The repository root, where the committed `results/` and the documents live.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn summary_exits_nonzero_unless_every_claim_passes() {
    let scratch = Scratch::new("summary");
    for entry in std::fs::read_dir(repo_root().join("results")).expect("committed results/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            std::fs::copy(&path, scratch.0.join(path.file_name().expect("file name")))
                .expect("copy a committed CSV");
        }
    }
    let out = repro(&["summary", "--out", scratch.path()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("13/13 within tolerance"), "{}", stdout(&out));

    // The 4-CU area claim is 1.27 ± 3 %: 2.0 is a drift.
    let fig13 = scratch.0.join("fig13_area_power.csv");
    let text = std::fs::read_to_string(&fig13).expect("fig13 copy");
    let pushed: String = text
        .lines()
        .map(|line| match line.strip_prefix("4cu,").and_then(|rest| rest.split_once(',')) {
            Some((_area, power)) => format!("4cu,2.0,{power}\n"),
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(pushed, text, "the 4cu row is present");
    std::fs::write(&fig13, pushed).expect("edit the fig13 copy");
    let out = repro(&["summary", "--out", scratch.path()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let drift =
        stdout(&out).lines().any(|l| l.starts_with("fig13.4cu-area") && l.ends_with("DRIFT"));
    assert!(drift, "{}", stdout(&out));

    let empty = Scratch::new("summary-empty");
    let out = repro(&["summary", "--out", empty.path()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("MISSING"), "{}", stdout(&out));
}

/// The word after each `repro` (or `repro --`) in `text` that looks like a
/// command or experiment name: lowercase, digits and dashes, optionally
/// ending in a `*` glob.
fn repro_words(text: &str) -> Vec<&str> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let is_word = |w: &str| {
        let stem = w.strip_suffix('*').unwrap_or(w);
        stem.starts_with(|c: char| c.is_ascii_lowercase())
            && stem.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    };
    let mut words = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if token.trim_start_matches(['`', '(']).rsplit('/').next() != Some("repro") {
            continue;
        }
        let mut next = tokens[i + 1..].iter().copied();
        let word = match next.next() {
            Some("--") => next.next(),
            other => other,
        };
        let word = word.map(|w| w.trim_end_matches(['`', ',', '.', ':', ';', ')']));
        words.extend(word.filter(|w| is_word(w)));
    }
    words
}

#[test]
fn documents_name_only_real_commands() {
    // `--help` is rendered from the `COMMANDS` and `EXPERIMENTS` tables.
    let help = stdout(&repro(&["--help"]));
    let mut known: Vec<&str> =
        help.lines().filter_map(|l| l.split_once("repro ")?.1.split(' ').next()).collect();
    let experiments = help.lines().find_map(|l| l.strip_prefix("experiments: "));
    known.extend(experiments.expect("experiments line").split(' '));
    known.push("all");
    let mut unknown = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect("read a document");
        let words = repro_words(&text);
        assert!(!words.is_empty(), "{doc} names no command");
        for word in words {
            let real = match word.strip_suffix('*') {
                Some(prefix) => known.iter().any(|k| k.starts_with(prefix)),
                None => known.contains(&word),
            };
            if !real {
                unknown.push(format!("{doc}: repro {word}"));
            }
        }
    }
    assert!(unknown.is_empty(), "not a command, experiment or `all`: {unknown:#?}");
}
