//! The diagnostics framework: stable rule codes, typed diagnostics and
//! deterministic text/JSON reports.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The program would fault, corrupt resident state, or produce
    /// garbage on the accelerator: admission must reject it.
    Error,
    /// The program is executable but carries dead or suspicious work.
    Warn,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// Stable rule codes of the analyzer.
///
/// The wire-stable string form ([`RuleCode::code`]) is what reports,
/// admission errors and tests match on; the enum variants exist so
/// in-process consumers never string-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCode {
    /// `L001-UNINIT-READ` — a row (or analog matrix) is sensed before
    /// anything initialized it.
    UninitRead,
    /// `L002-LATCH-UNDEF` — `StoreLast` with no live `last_bits`
    /// definition to consume.
    LatchUndef,
    /// `L003-LATCH-DEAD` — a latch definition that is neither stored
    /// nor returned before being clobbered (warning).
    LatchDead,
    /// `L004-TILE-BOUNDS` — tile index outside the program's declared
    /// tile demand.
    TileBounds,
    /// `L005-ROW-BOUNDS` — row, CAM slot or entry range outside the
    /// tile geometry.
    RowBounds,
    /// `L006-BAD-ARITY` — logic operand list the sense amplifier cannot
    /// realize (XOR ≠ 2 rows, OR/AND < 2, duplicate activations,
    /// fan-in above the scouting limit).
    BadArity,
    /// `L007-RESIDENT-WRITE` — a write into rows (or an analog matrix)
    /// pinned by the resident dataset the program queries.
    ResidentWrite,
    /// `L008-WIDTH-MISMATCH` — operand width does not match the tile
    /// width or analog shape.
    WidthMismatch,
    /// `L009-ZERO-MATRIX` — a programmed matrix has no nonzero weight,
    /// so no conductance mapping exists for it.
    ZeroMatrix,
}

impl RuleCode {
    /// Every rule, in code order (the order the README table uses).
    pub const ALL: [RuleCode; 9] = [
        RuleCode::UninitRead,
        RuleCode::LatchUndef,
        RuleCode::LatchDead,
        RuleCode::TileBounds,
        RuleCode::RowBounds,
        RuleCode::BadArity,
        RuleCode::ResidentWrite,
        RuleCode::WidthMismatch,
        RuleCode::ZeroMatrix,
    ];

    /// The stable wire form, e.g. `"L001-UNINIT-READ"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::UninitRead => "L001-UNINIT-READ",
            RuleCode::LatchUndef => "L002-LATCH-UNDEF",
            RuleCode::LatchDead => "L003-LATCH-DEAD",
            RuleCode::TileBounds => "L004-TILE-BOUNDS",
            RuleCode::RowBounds => "L005-ROW-BOUNDS",
            RuleCode::BadArity => "L006-BAD-ARITY",
            RuleCode::ResidentWrite => "L007-RESIDENT-WRITE",
            RuleCode::WidthMismatch => "L008-WIDTH-MISMATCH",
            RuleCode::ZeroMatrix => "L009-ZERO-MATRIX",
        }
    }

    /// The fixed severity of the rule. Only dead latches are warnings;
    /// everything else would fault or corrupt state at execution.
    pub fn severity(self) -> Severity {
        match self {
            RuleCode::LatchDead => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of the analyzer, anchored to an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleCode,
    /// The rule's severity (always [`RuleCode::severity`]).
    pub severity: Severity,
    /// Index of the offending instruction in the analyzed program.
    pub instr_index: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic for `rule` at `instr_index`, deriving the
    /// severity from the rule.
    pub fn new(rule: RuleCode, instr_index: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            instr_index,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @{}: {}",
            self.rule.code(),
            self.severity.label(),
            self.instr_index,
            self.message
        )
    }
}

/// The analyzer's verdict on one program: every diagnostic, in
/// instruction order (ties broken by rule code order), so reports are
/// deterministic for a given program and target.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Every finding, sorted by instruction index then rule.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` if any error-severity finding is present (what admission
    /// rejects on).
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` if the program produced no findings at all — the bar
    /// compiler-emitted programs are held to.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-severity findings alone (what an admission rejection
    /// carries).
    pub fn errors(&self) -> Vec<Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect()
    }

    /// Deterministic plain-text rendering, one finding per line,
    /// followed by a `N errors, M warnings` summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} errors, {} warnings",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Like [`Self::to_json`], with the cost pass's envelope embedded
    /// as an optional trailing `"cost"` section (omitted when `None`,
    /// in which case the output equals [`Self::to_json`] exactly —
    /// existing consumers of the plain shape keep parsing).
    pub fn to_json_with(&self, cost: Option<&crate::CostEnvelope>) -> String {
        let base = self.to_json();
        match cost {
            None => base,
            Some(env) => {
                let body = base.strip_suffix('}').unwrap_or(&base).to_string();
                format!("{body}, \"cost\": {}}}", env.to_json())
            }
        }
    }

    /// Deterministic JSON rendering:
    /// `{"errors": N, "warnings": M, "diagnostics": [{"rule", "severity",
    /// "instr_index", "message"}, …]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"rule\": \"{}\", \"severity\": \"{}\", \"instr_index\": {}, \
                     \"message\": \"{}\"}}",
                    d.rule.code(),
                    d.severity.label(),
                    d.instr_index,
                    escape_json(&d.message)
                )
            })
            .collect();
        format!(
            "{{\"errors\": {}, \"warnings\": {}, \"diagnostics\": [{}]}}",
            self.error_count(),
            self.warning_count(),
            rows.join(", ")
        )
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let codes: Vec<&str> = RuleCode::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes[0], "L001-UNINIT-READ");
        assert_eq!(codes[6], "L007-RESIDENT-WRITE");
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes must be distinct");
    }

    #[test]
    fn only_dead_latch_is_a_warning() {
        for rule in RuleCode::ALL {
            let expected = if rule == RuleCode::LatchDead {
                Severity::Warn
            } else {
                Severity::Error
            };
            assert_eq!(rule.severity(), expected, "{rule}");
        }
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::new(RuleCode::RowBounds, 2, "row 200 out of bounds (160 rows)"),
                Diagnostic::new(RuleCode::LatchDead, 5, "latch defined but never \"used\""),
            ],
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_errors());
        assert!(!report.is_clean());
        let text = report.to_text();
        assert!(text.contains("L005-ROW-BOUNDS error @2"));
        assert!(text.ends_with("1 errors, 1 warnings"));
        let json = report.to_json();
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\\\"used\\\""), "quotes escaped: {json}");
        assert_eq!(report.errors().len(), 1);
    }

    #[test]
    fn json_with_cost_section_extends_the_plain_shape() {
        let report = LintReport::default();
        assert_eq!(report.to_json_with(None), report.to_json());
        let env = crate::CostEnvelope::default();
        let json = report.to_json_with(Some(&env));
        assert!(json.starts_with("{\"errors\": 0, \"warnings\": 0"));
        assert!(json.contains("\"cost\": {\"cost_units\": 0"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = LintReport::default();
        assert!(report.is_clean() && !report.has_errors());
        assert_eq!(report.to_text(), "0 errors, 0 warnings");
        assert_eq!(
            report.to_json(),
            "{\"errors\": 0, \"warnings\": 0, \"diagnostics\": []}"
        );
    }
}
