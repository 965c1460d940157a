//! The diagnostic vocabulary: stable codes, severities, locations, and the
//! per-app [`LintReport`] with human and JSON rendering.
//!
//! Codes are *stable*: once shipped, a code keeps its meaning forever so
//! allow-lists and tooling can match on it. New checks get new codes.

use subcore_isa::{ParseError, SourcePos};
use subcore_persist::Json;

/// The stable diagnostic codes emitted by the analyzer, grouped by pass.
///
/// * `L00x` — parse / program representation
/// * `L01x` — bank pressure
/// * `L02x` — divergence
/// * `L030`–`L035` — configuration validation
/// * `L036` — bank-remap advisory (bank-pressure pass)
/// * `L037` — configuration validation (engine width limits)
/// * `L040`–`L042` — multi-tenant partition validation
///
/// (`L001`–`L005` are the dataflow pass.)
pub mod codes {
    /// Program listing failed to parse (bridged from [`subcore_isa::ParseError`]).
    pub const PARSE: &str = "L000";
    /// Operand register outside the kernel's declared register allocation.
    pub const REG_OUT_OF_RANGE: &str = "L001";
    /// Register written exactly once and never read (likely a typo).
    pub const DEAD_WRITE: &str = "L002";
    /// A warp's registers exceed the per-sub-core register file capacity.
    pub const RF_CAPACITY: &str = "L003";
    /// Declared register count far exceeds the registers actually used.
    pub const OVER_ALLOCATED: &str = "L004";
    /// Register read before its first write (live-in value).
    pub const READ_BEFORE_WRITE: &str = "L005";
    /// One warp's operand reads concentrate on a single register bank.
    pub const BANK_SKEW: &str = "L010";
    /// Multi-operand instructions read several operands from one bank.
    pub const BANK_CLUSTERING: &str = "L011";
    /// Per-warp dynamic lengths within a block diverge strongly.
    pub const WARP_DIVERGENCE: &str = "L020";
    /// Round-robin assignment pins the long warps onto one sub-core.
    pub const RR_PATHOLOGY: &str = "L021";
    /// A resource count in the configuration is zero.
    pub const CFG_ZERO_RESOURCE: &str = "L030";
    /// Warp slots do not divide evenly among sub-core schedulers.
    pub const CFG_RAGGED_SLOTS: &str = "L031";
    /// Trace window longer than the simulation cycle limit.
    pub const CFG_TRACE_WINDOW: &str = "L032";
    /// Traced SM index out of range.
    pub const CFG_TRACE_SM: &str = "L033";
    /// A design point carries an invalid (zero) parameter.
    pub const CFG_DESIGN_PARAM: &str = "L034";
    /// A kernel's blocks can never be scheduled under this configuration.
    pub const CFG_UNSCHEDULABLE: &str = "L035";
    /// Static bank skew that a register permutation can provably flatten
    /// (the `subcore-opt` remapper's advisory; names the `repro opt` fix).
    pub const BANK_REMAPPABLE: &str = "L036";
    /// More warp slots per SM, or register banks per scheduler domain, than
    /// the engine's one-word bitmasks can describe.
    pub const CFG_TOO_WIDE: &str = "L037";
    /// A tenant's SM set is empty or names SMs the GPU does not have.
    pub const TENANT_SMSET: &str = "L040";
    /// Two tenants' SM sets overlap under a rigid (exclusive) partition.
    pub const TENANT_OVERLAP: &str = "L041";
    /// A tenant's kernel can never be scheduled within its partition.
    pub const TENANT_UNSCHEDULABLE: &str = "L042";
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never gates.
    Info,
    /// Suspicious: gates under `--deny-warnings` unless allowed.
    Warning,
    /// Definitely wrong: always gates and cannot be allowed.
    Error,
}

impl Severity {
    /// Lowercase label used in both human and JSON rendering.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a diagnostic points: any prefix of
/// app → kernel → warp range → segment → source position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Application name, filled in by the linter driver.
    pub app: Option<String>,
    /// Kernel name.
    pub kernel: Option<String>,
    /// Inclusive range of warp slots within the block.
    pub warps: Option<(u32, u32)>,
    /// Segment index within the warp program.
    pub segment: Option<usize>,
    /// Position in a program listing (shared with the parser).
    pub pos: Option<SourcePos>,
}

impl Location {
    /// A location naming just a kernel.
    pub fn kernel(name: &str) -> Self {
        Location { kernel: Some(name.to_owned()), ..Location::default() }
    }

    /// Adds an inclusive warp-slot range.
    pub fn warps(mut self, first: u32, last: u32) -> Self {
        self.warps = Some((first, last));
        self
    }

    /// Adds a segment index.
    pub fn segment(mut self, seg: usize) -> Self {
        self.segment = Some(seg);
        self
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        if let Some(app) = &self.app {
            write!(f, "{app}")?;
            sep = " ";
        }
        if let Some(kernel) = &self.kernel {
            write!(f, "{sep}kernel `{kernel}`")?;
            sep = " ";
        }
        if let Some((a, b)) = self.warps {
            if a == b {
                write!(f, "{sep}warp {a}")?;
            } else {
                write!(f, "{sep}warps {a}-{b}")?;
            }
            sep = " ";
        }
        if let Some(seg) = self.segment {
            write!(f, "{sep}segment {seg}")?;
            sep = " ";
        }
        if let Some(pos) = self.pos {
            write!(f, "{sep}{pos}")?;
        }
        Ok(())
    }
}

/// One finding: a stable code, a severity, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// How serious it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
    /// If suppressed by an allow-list entry, the recorded reason.
    pub allowed: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with an empty allow slot.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: String,
    ) -> Self {
        Diagnostic { code, severity, location, message, allowed: None }
    }

    /// Bridges a parser error into an `L000` diagnostic, preserving the
    /// source position so both tools render it identically.
    pub fn from_parse_error(kernel: &str, err: &ParseError) -> Self {
        let mut location = Location::kernel(kernel);
        location.pos = Some(err.pos());
        Diagnostic::new(codes::PARSE, Severity::Error, location, err.message.clone())
    }

    /// One-line human rendering:
    /// `warning[L011] kernel `k0` warps 0-15: message (allowed: reason)`.
    pub fn render(&self) -> String {
        let loc = self.location.to_string();
        let sep = if loc.is_empty() { "" } else { ": " };
        let mut s = format!("{}[{}] {loc}{sep}{}", self.severity, self.code, self.message);
        if let Some(reason) = &self.allowed {
            s.push_str(&format!(" (allowed: {reason})"));
        }
        s
    }

    /// Structured JSON rendering (for `repro lint --json`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code", Json::Str(self.code.to_owned())),
            ("severity", Json::Str(self.severity.label().to_owned())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(app) = &self.location.app {
            fields.push(("app", Json::Str(app.clone())));
        }
        if let Some(kernel) = &self.location.kernel {
            fields.push(("kernel", Json::Str(kernel.clone())));
        }
        if let Some((a, b)) = self.location.warps {
            fields.push(("warp_first", Json::Uint(u64::from(a))));
            fields.push(("warp_last", Json::Uint(u64::from(b))));
        }
        if let Some(seg) = self.location.segment {
            fields.push(("segment", Json::Uint(seg as u64)));
        }
        if let Some(pos) = self.location.pos {
            fields.push(("line", Json::Uint(pos.line as u64)));
            fields.push(("col", Json::Uint(pos.col as u64)));
        }
        if let Some(reason) = &self.allowed {
            fields.push(("allowed", Json::Str(reason.clone())));
        }
        Json::obj(fields)
    }
}

/// All diagnostics for one app under one design.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Application name.
    pub app: String,
    /// Design label the analysis ran under.
    pub design: String,
    /// The findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of errors (never allowable).
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warnings *not* covered by an allowance.
    pub fn unallowed_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning && d.allowed.is_none())
            .count()
    }

    /// Number of diagnostics suppressed by allowances.
    pub fn allowed(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.allowed.is_some()).count()
    }

    /// Number of info-level diagnostics.
    pub fn infos(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Info).count()
    }

    /// Whether this report gates a verify run: errors always fail;
    /// unallowed warnings fail only under `deny_warnings`.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && !(deny_warnings && self.unallowed_warnings() > 0)
    }

    /// Marks warnings and infos matching `(app, codes, reason)` entries as
    /// allowed. Errors are never allowable: they indicate kernels the
    /// simulator cannot run meaningfully, so an allow-list must not be able
    /// to wave them through.
    pub fn apply_allowances<'a, I>(&mut self, allowances: I)
    where
        I: IntoIterator<Item = (&'a str, &'a [&'a str], &'a str)>,
    {
        for (app, allowed_codes, reason) in allowances {
            if app != self.app {
                continue;
            }
            for diag in &mut self.diagnostics {
                if diag.severity != Severity::Error
                    && diag.allowed.is_none()
                    && allowed_codes.contains(&diag.code)
                {
                    diag.allowed = Some(reason.to_owned());
                }
            }
        }
    }

    /// Multi-line human rendering; info-level findings are included only
    /// when `show_info` is set.
    pub fn render(&self, show_info: bool) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            if diag.severity == Severity::Info && !show_info {
                continue;
            }
            out.push_str("  ");
            out.push_str(&diag.render());
            out.push('\n');
        }
        out
    }

    /// Structured JSON rendering of the whole report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.clone())),
            ("design", Json::Str(self.design.clone())),
            ("errors", Json::Uint(self.errors() as u64)),
            ("warnings", Json::Uint(self.unallowed_warnings() as u64)),
            ("allowed", Json::Uint(self.allowed() as u64)),
            ("infos", Json::Uint(self.infos() as u64)),
            ("diagnostics", Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warn(code: &'static str) -> Diagnostic {
        Diagnostic::new(code, Severity::Warning, Location::kernel("k0").warps(0, 15), "w".into())
    }

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.label(), "warning");
    }

    #[test]
    fn location_renders_prefixes() {
        let loc = Location::kernel("k0").warps(0, 15).segment(2);
        assert_eq!(loc.to_string(), "kernel `k0` warps 0-15 segment 2");
        let one = Location::kernel("k0").warps(3, 3);
        assert_eq!(one.to_string(), "kernel `k0` warp 3");
        assert_eq!(Location::default().to_string(), "");
    }

    #[test]
    fn parse_errors_bridge_with_position() {
        let err = subcore_isa::parse_program("iadd r1, r999, r3").unwrap_err();
        let diag = Diagnostic::from_parse_error("k0", &err);
        assert_eq!(diag.code, codes::PARSE);
        assert_eq!(diag.severity, Severity::Error);
        // Parser and linter agree on the rendered position.
        assert!(diag.render().contains("line 1, col 10"), "{}", diag.render());
        assert!(err.to_string().contains("line 1, col 10"));
    }

    #[test]
    fn allowances_suppress_warnings_but_not_errors() {
        let mut report = LintReport {
            app: "demo".into(),
            design: "baseline".into(),
            diagnostics: vec![
                warn(codes::BANK_CLUSTERING),
                Diagnostic::new(
                    codes::REG_OUT_OF_RANGE,
                    Severity::Error,
                    Location::kernel("k0"),
                    "e".into(),
                ),
            ],
        };
        let allow: &[&str] = &[codes::BANK_CLUSTERING, codes::REG_OUT_OF_RANGE];
        report.apply_allowances([("demo", allow, "stressor")]);
        assert_eq!(report.allowed(), 1);
        assert_eq!(report.unallowed_warnings(), 0);
        assert_eq!(report.errors(), 1);
        assert!(!report.passes(false), "errors are never allowable");
    }

    #[test]
    fn allowances_match_by_app() {
        let mut report = LintReport {
            app: "demo".into(),
            design: "baseline".into(),
            diagnostics: vec![warn(codes::BANK_SKEW)],
        };
        let allow: &[&str] = &[codes::BANK_SKEW];
        report.apply_allowances([("other-app", allow, "r")]);
        assert_eq!(report.allowed(), 0);
        assert!(!report.passes(true));
        report.apply_allowances([("demo", allow, "r")]);
        assert!(report.passes(true));
    }

    #[test]
    fn json_rendering_is_parseable() {
        let mut d = warn(codes::BANK_SKEW);
        d.location.app = Some("demo".into());
        let report = LintReport { app: "demo".into(), design: "rba".into(), diagnostics: vec![d] };
        let text = report.to_json().render();
        let back = Json::parse(&text).expect("round-trips");
        assert_eq!(back.field("app").unwrap().as_str().unwrap(), "demo");
        let diags = back.field("diagnostics").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].field("code").unwrap().as_str().unwrap(), "L010");
        assert_eq!(diags[0].field("warp_last").unwrap().as_u64().unwrap(), 15);
    }
}
