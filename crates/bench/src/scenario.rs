//! Declarative scenario matrix: parse a TOML/JSON spec describing a grid
//! of `dataset × solver × precision × kernel × assign × executor ×
//! distance × z × fault` cells, run every cell through the existing
//! drivers, and emit one machine-readable JSON report per run.
//!
//! The report carries, per cell, the certified covering radius (and the
//! with-outliers kept radius when `z > 0`), the simulated and wall times,
//! the MapReduce round count, the surviving coverage fraction, and an
//! FNV-1a determinism digest of the selected center set.  Deterministic
//! metrics — radius, digest, rounds, coverage — are bit-reproducible per
//! `(seed, precision, kernel, assign)`; the timing columns are
//! measurements and are only gated when an explicit tolerance is given.
//!
//! [`diff_reports`] compares two reports cell-by-cell against per-metric
//! tolerances; the `report_diff` binary wraps it as the CI regression
//! gate (exit status 1 on any regression).
//!
//! # Spec format (TOML subset)
//!
//! ```toml
//! name = "smoke"
//! seed = 42
//! k = 8
//! machines = 8        # optional, default 8
//! threads = 2         # optional worker budget for the threaded executor
//! epsilon = 0.1       # optional, EIM
//! phi = 8.0           # optional, EIM
//! max_attempts = 64   # optional, fault retry budget
//!
//! [grid]
//! solvers = ["gon", "mrg"]          # gon | hs | mrg | eim
//! precisions = ["f64", "f32"]
//! kernels = ["scalar"]              # auto | scalar | portable | avx2
//! assigns = ["auto"]                # auto | dense | grid
//! executors = ["simulated", "threads"]
//! distances = ["euclidean"]         # euclidean | manhattan
//! outliers = [0]                    # z values for the robust objective
//! faults = ["none", "seed=1234"]    # none | seed=S | seed=S+degrade
//!
//! [[dataset]]
//! family = "gau"     # unif | gau | unb | poker | kdd | exp | dup |
//!                    # gau-hd | gau+out
//! n = 2000
//! k_prime = 8        # families with planted clusters
//! # distinct = 16    # dup
//! # dim = 64         # gau-hd
//! # planted = 40     # gau+out: planted outlier count
//! ```
//!
//! The same structure is accepted as JSON (`{"name": …, "grid": {…},
//! "datasets": [{…}]}`); a leading `{` selects the JSON parser.
//!
//! Cells pairing a sequential solver (gon/hs) with an active fault spec
//! are skipped at expansion — fault injection targets the MapReduce
//! rounds — so a fault axis multiplies only the parallel solvers.
//!
//! An optional `[ingest]` table additionally replays every dataset as a
//! checkpointed batch stream through the durable serve loop
//! (`kcenter_serve`), one cell per `batches × faults × precisions`
//! combination.  Each ingest cell also re-runs itself with an injected
//! mid-checkpoint-write crash and resumes from the surviving checkpoint;
//! the resumed state must be bit-identical to the uninterrupted twin or
//! the cell errors out, so a committed ingest baseline gates crash
//! consistency as well as determinism:
//!
//! ```toml
//! [ingest]
//! batches = [3, 5]       # batch-count axis
//! coreset_size = 16      # representatives per batch summary
//! budget = 48            # re-compression threshold (default 4×size)
//! kernel = "scalar"      # pin for committed baselines, like the grid
//! faults = ["none", "seed=9"]
//! ```

use kcenter_core::hash::Fnv;
use kcenter_core::outliers::evaluate_with_outliers;
use kcenter_core::prelude::*;
use kcenter_data::{DatasetSpec, FamilyParams, SpecParam};
use kcenter_mapreduce::{install_thread_budget, Executor, ExecutorChoice, FaultConfig, FaultPlan};
use kcenter_metric::grid::{self, AssignChoice};
use kcenter_metric::kernel::simd;
use kcenter_metric::{
    Distance, Euclidean, KernelChoice, Manhattan, PointId, Precision, Scalar, VecSpace,
};
use kcenter_serve::{IngestConfig, IngestError, Ingestor, KillPoint, KillStage, StreamConfig};
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A named scenario-harness error: where the spec/report text went wrong,
/// or which grid value is not runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The TOML-subset parser rejected a line.
    Syntax {
        /// 1-based line number in the spec text.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The JSON parser rejected the text.
    Json {
        /// Byte offset of the failure.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// A required key is absent.
    Missing {
        /// The missing key (e.g. `"k"`, `"dataset.family"`).
        what: String,
    },
    /// A present value is not usable.
    Invalid {
        /// Which field.
        what: String,
        /// The rejected value, rendered.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, message } => {
                write!(f, "spec syntax error at line {line}: {message}")
            }
            ScenarioError::Json { offset, message } => {
                write!(f, "JSON error at byte {offset}: {message}")
            }
            ScenarioError::Missing { what } => write!(f, "missing required key {what:?}"),
            ScenarioError::Invalid {
                what,
                value,
                expected,
            } => write!(f, "invalid {what} {value:?} (expected {expected})"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(what: &str, value: impl fmt::Display, expected: &str) -> ScenarioError {
    ScenarioError::Invalid {
        what: what.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

fn missing(what: &str) -> ScenarioError {
    ScenarioError::Missing {
        what: what.to_string(),
    }
}

// ---------------------------------------------------------------------------
// A tiny JSON-shaped value model, produced by both the TOML-subset parser
// and the JSON parser, interpreted once.
// ---------------------------------------------------------------------------

/// The value model both spec syntaxes parse into.  Numbers are carried as
/// `f64`; Rust's shortest-representation `Display` makes emit→parse
/// round-trips bit-exact for every finite value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object / table, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` when this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `usize`, when it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON parsing (reports and JSON specs) — hand-rolled: the workspace has no
// serialisation dependency.
// ---------------------------------------------------------------------------

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, message: impl Into<String>) -> ScenarioError {
        ScenarioError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), ScenarioError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ScenarioError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, ScenarioError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ScenarioError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("malformed number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, ScenarioError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-ASCII \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the raw UTF-8 byte run up to the next quote/escape.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ScenarioError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, ScenarioError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document into the [`Value`] model.
pub fn parse_json(text: &str) -> Result<Value, ScenarioError> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the document"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// TOML-subset parsing (scenario specs)
// ---------------------------------------------------------------------------

/// Parses the TOML subset used by scenario specs into the same [`Value`]
/// model as JSON: top-level `key = value` pairs, `[section]` tables,
/// `[[table]]` arrays-of-tables, with string / number / boolean / flat
/// array values.  Dotted keys, multi-line arrays and inline tables are
/// out of scope and rejected with a line-numbered error.
pub fn parse_toml(text: &str) -> Result<Value, ScenarioError> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // Index into `root` of the object currently receiving `key = value`
    // lines; None means the root itself.
    let mut target: Option<usize> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let syntax = |message: String| ScenarioError::Syntax {
            line: lineno,
            message,
        };
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let name = name.trim().to_string();
            if name.is_empty() || name.contains('.') {
                return Err(syntax(format!("bad array-of-tables header {line:?}")));
            }
            // Append a fresh element to the named array, creating it on
            // first sight.
            let slot = match root.iter().position(|(k, _)| *k == name) {
                Some(i) => i,
                None => {
                    root.push((name.clone(), Value::Array(Vec::new())));
                    root.len() - 1
                }
            };
            match &mut root[slot].1 {
                Value::Array(items) => items.push(Value::Object(Vec::new())),
                _ => return Err(syntax(format!("{name:?} is both a table and an array"))),
            }
            target = Some(slot);
        } else if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            if name.is_empty() || name.contains('.') {
                return Err(syntax(format!("bad table header {line:?}")));
            }
            if root.iter().any(|(k, _)| *k == name) {
                return Err(syntax(format!("duplicate table {name:?}")));
            }
            root.push((name, Value::Object(Vec::new())));
            let slot = root.len() - 1;
            target = Some(slot);
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            if key.is_empty() {
                return Err(syntax("empty key".into()));
            }
            let value = parse_toml_value(value.trim(), lineno)?;
            let entries: &mut Vec<(String, Value)> = match target {
                None => &mut root,
                Some(slot) => match &mut root[slot].1 {
                    Value::Object(entries) => entries,
                    Value::Array(items) => match items.last_mut() {
                        Some(Value::Object(entries)) => entries,
                        _ => unreachable!("array-of-tables elements are objects"),
                    },
                    _ => unreachable!("section targets are tables"),
                },
            };
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(syntax(format!("duplicate key {key:?}")));
            }
            entries.push((key, value));
        } else {
            return Err(syntax(format!(
                "expected `key = value` or a [section] header, found {line:?}"
            )));
        }
    }
    Ok(Value::Object(root))
}

/// Cuts a trailing `#` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str, lineno: usize) -> Result<Value, ScenarioError> {
    let syntax = |message: String| ScenarioError::Syntax {
        line: lineno,
        message,
    };
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| syntax(format!("unterminated array {text:?} (single-line only)")))?;
        let mut items = Vec::new();
        for part in split_toml_array(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_toml_value(part, lineno)?);
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| syntax(format!("unterminated string {text:?}")))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(syntax(format!(
                "escapes are not supported in strings: {text:?}"
            )));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // TOML permits underscores in numbers; strip before parsing.
    let numeric = text.replace('_', "");
    numeric
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|_| syntax(format!("unrecognised value {text:?}")))
}

/// Splits the body of a single-line array on commas outside quotes.
fn split_toml_array(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// Which solver a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Gonzalez's sequential 2-approximation.
    Gon,
    /// Hochbaum–Shmoys' sequential 2-approximation.
    Hs,
    /// The paper's MapReduce Gonzalez.
    Mrg,
    /// The generalised iterative-sampling EIM.
    Eim,
}

impl SolverKind {
    /// Canonical lowercase name, as used in spec files and cell ids.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Gon => "gon",
            SolverKind::Hs => "hs",
            SolverKind::Mrg => "mrg",
            SolverKind::Eim => "eim",
        }
    }

    /// Parses a solver name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gon" | "gonzalez" => Some(SolverKind::Gon),
            "hs" | "hochbaum-shmoys" => Some(SolverKind::Hs),
            "mrg" => Some(SolverKind::Mrg),
            "eim" => Some(SolverKind::Eim),
            _ => None,
        }
    }

    /// Whether the solver runs MapReduce rounds (and so sees executors and
    /// injected faults).
    pub fn is_parallel(self) -> bool {
        matches!(self, SolverKind::Mrg | SolverKind::Eim)
    }
}

/// Which distance the cell's space uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// The default L2 metric.
    Euclidean,
    /// The L1 metric (the non-Euclidean arm).
    Manhattan,
}

impl DistanceKind {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DistanceKind::Euclidean => "euclidean",
            DistanceKind::Manhattan => "manhattan",
        }
    }

    /// Parses a distance name (case-insensitive; `l1`/`l2` accepted).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "euclidean" | "l2" => Some(DistanceKind::Euclidean),
            "manhattan" | "l1" => Some(DistanceKind::Manhattan),
            _ => None,
        }
    }
}

/// One fault-axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Fault-free run.
    None,
    /// Deterministically seeded fault injection; with the spec's retry
    /// budget every shard eventually succeeds and results stay
    /// bit-identical to the fault-free run unless `degrade` is set.
    Seeded {
        /// The fault-schedule seed.
        seed: u64,
        /// Whether exhausted shards are dropped (certified-degradation
        /// mode) instead of failing the run.
        degrade: bool,
    },
}

impl FaultSpec {
    /// Canonical label (`none` | `seed=S` | `seed=S+degrade`).
    pub fn label(self) -> String {
        match self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::Seeded { seed, degrade } => {
                if degrade {
                    format!("seed={seed}+degrade")
                } else {
                    format!("seed={seed}")
                }
            }
        }
    }

    /// Parses a fault label.
    pub fn parse(text: &str) -> Option<Self> {
        let text = text.trim();
        if text.eq_ignore_ascii_case("none") {
            return Some(FaultSpec::None);
        }
        let (body, degrade) = match text.strip_suffix("+degrade") {
            Some(body) => (body, true),
            None => (text, false),
        };
        let seed = body.strip_prefix("seed=")?.parse().ok()?;
        Some(FaultSpec::Seeded { seed, degrade })
    }

    fn is_active(self) -> bool {
        !matches!(self, FaultSpec::None)
    }

    /// The fault configuration of this arm under the spec's retry budget
    /// (`None` when fault-free).
    fn config(self, max_attempts: usize) -> Option<FaultConfig> {
        match self {
            FaultSpec::None => None,
            FaultSpec::Seeded { seed, degrade } => Some(
                FaultConfig::new(FaultPlan::seeded(seed))
                    .with_max_attempts(max_attempts)
                    .with_degrade(degrade),
            ),
        }
    }
}

/// A parsed scenario: shared run parameters, the grid axes, and the
/// dataset list.  [`ScenarioSpec::cells`] expands the cross product.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in the report and default output file name).
    pub name: String,
    /// Seed shared by data generation and algorithm randomness.
    pub seed: u64,
    /// Number of centers per cell.
    pub k: usize,
    /// Simulated machines for the parallel solvers.
    pub machines: usize,
    /// Worker budget for the threaded executor.
    pub threads: usize,
    /// EIM's ε.
    pub epsilon: f64,
    /// EIM's φ.
    pub phi: f64,
    /// Retry budget for fault-seeded cells.
    pub max_attempts: usize,
    /// Solver axis.
    pub solvers: Vec<SolverKind>,
    /// Storage-precision axis.
    pub precisions: Vec<Precision>,
    /// Kernel-backend axis.
    pub kernels: Vec<KernelChoice>,
    /// Assignment-arm axis.
    pub assigns: Vec<AssignChoice>,
    /// Executor axis.
    pub executors: Vec<ExecutorChoice>,
    /// Distance axis.
    pub distances: Vec<DistanceKind>,
    /// With-outliers `z` axis (0 = plain objective).
    pub outliers: Vec<usize>,
    /// Fault axis.
    pub faults: Vec<FaultSpec>,
    /// The datasets, in spec order.
    pub datasets: Vec<DatasetSpec>,
    /// Optional streaming-ingest axes (`[ingest]` table); `None` runs no
    /// ingest cells.
    pub ingest: Option<IngestAxes>,
}

/// The `[ingest]` table: every dataset is additionally replayed as a
/// checkpointed batch stream, once per `batches × faults × precisions`
/// combination.  Each ingest cell folds the stream through the durable
/// serve loop, then *re-runs itself with an injected mid-checkpoint crash
/// and resumes* — the resumed state must be bit-identical to the
/// uninterrupted twin or the cell fails, so the committed baseline gates
/// crash consistency, not just the final radius.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestAxes {
    /// Batch-count axis (each ≥ 1).
    pub batches: Vec<usize>,
    /// Representatives per batch summary.
    pub coreset_size: usize,
    /// Re-compression budget of the accumulated coreset.
    pub budget: usize,
    /// Kernel backend for the ingest cells (pin `"scalar"` in committed
    /// baselines, like the grid axis).
    pub kernel: KernelChoice,
    /// Assignment arm for the ingest cells.
    pub assign: AssignChoice,
    /// Fault axis for the batch builds (same labels as the grid axis).
    pub faults: Vec<FaultSpec>,
}

/// One fully specified ingest cell.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestCellConfig {
    /// Index of the dataset in the spec's list.
    pub dataset_index: usize,
    /// The dataset, replayed as a stream.
    pub dataset: DatasetSpec,
    /// Storage precision.
    pub precision: Precision,
    /// Number of contiguous batches.
    pub batches: usize,
    /// Representatives per batch summary.
    pub coreset_size: usize,
    /// Re-compression budget.
    pub budget: usize,
    /// Kernel backend request.
    pub kernel: KernelChoice,
    /// Assignment arm request.
    pub assign: AssignChoice,
    /// Fault-injection arm.
    pub fault: FaultSpec,
}

impl IngestCellConfig {
    /// The cell's stable identity.  The `ingest/` prefix keeps the ingest
    /// namespace disjoint from the solve-cell ids, so adding an `[ingest]`
    /// table never perturbs an existing committed baseline.
    pub fn id(&self) -> String {
        format!(
            "ingest/d{}-{}-n{}/b{}/t{}/g{}/{}/{}/{}/{}",
            self.dataset_index,
            self.dataset.family().to_ascii_lowercase().replace(' ', "-"),
            self.dataset.n(),
            self.batches,
            self.coreset_size,
            self.budget,
            self.precision.name(),
            self.kernel.name(),
            self.assign.name(),
            self.fault.label(),
        )
    }
}

/// One fully specified grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Index of the dataset in the spec's list.
    pub dataset_index: usize,
    /// The dataset.
    pub dataset: DatasetSpec,
    /// The solver.
    pub solver: SolverKind,
    /// Storage precision.
    pub precision: Precision,
    /// Kernel backend request.
    pub kernel: KernelChoice,
    /// Assignment arm request.
    pub assign: AssignChoice,
    /// Executor request.
    pub executor: ExecutorChoice,
    /// Distance.
    pub distance: DistanceKind,
    /// With-outliers budget (0 = plain).
    pub z: usize,
    /// Fault-injection arm.
    pub fault: FaultSpec,
}

impl CellConfig {
    /// The cell's stable identity: every axis value, `/`-joined.  Reports
    /// are diffed by this key.
    pub fn id(&self) -> String {
        format!(
            "d{}-{}-n{}/{}/{}/{}/{}/{}/{}/z{}/{}",
            self.dataset_index,
            self.dataset.family().to_ascii_lowercase().replace(' ', "-"),
            self.dataset.n(),
            self.solver.name(),
            self.precision.name(),
            self.kernel.name(),
            self.assign.name(),
            self.executor.name(),
            self.distance.name(),
            self.z,
            self.fault.label(),
        )
    }
}

impl ScenarioSpec {
    /// Parses a scenario spec, auto-detecting JSON (leading `{`) vs the
    /// TOML subset.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = if text.trim_start().starts_with('{') {
            parse_json(text)?
        } else {
            parse_toml(text)?
        };
        Self::from_value(&doc)
    }

    /// Interprets the parsed document.
    fn from_value(doc: &Value) -> Result<Self, ScenarioError> {
        let name = doc
            .get("name")
            .ok_or_else(|| missing("name"))?
            .as_str()
            .ok_or_else(|| invalid("name", "<non-string>", "a string"))?
            .to_string();
        let k = doc
            .get("k")
            .ok_or_else(|| missing("k"))?
            .as_usize()
            .ok_or_else(|| invalid("k", "<non-integer>", "a positive integer"))?;
        if k == 0 {
            return Err(invalid("k", 0, "a positive integer"));
        }
        let seed = opt_u64(doc, "seed", 42)?;
        let machines = opt_usize(doc, "machines", 8)?;
        let threads = opt_positive(doc, "threads", 2)?;
        let epsilon = opt_f64(doc, "epsilon", 0.1)?;
        let phi = opt_f64(doc, "phi", 8.0)?;
        let max_attempts = opt_positive(doc, "max_attempts", 64)?;

        let grid = doc
            .get("grid")
            .unwrap_or(&Value::Object(Vec::new()))
            .clone();
        let solvers = axis(&grid, "solvers", &["gon"], |s| {
            SolverKind::parse(s).ok_or_else(|| invalid("solver", s, "gon | hs | mrg | eim"))
        })?;
        let precisions = axis(&grid, "precisions", &["f64"], |s| {
            Precision::parse(s).ok_or_else(|| invalid("precision", s, "f32 | f64"))
        })?;
        let kernels = axis(&grid, "kernels", &["auto"], |s| {
            KernelChoice::parse(s).map_err(|e| invalid("kernel", s, &e.to_string()))
        })?;
        let assigns = axis(&grid, "assigns", &["auto"], |s| {
            AssignChoice::parse(s).map_err(|e| invalid("assign", s, &e.to_string()))
        })?;
        let executors = axis(&grid, "executors", &["simulated"], |s| {
            ExecutorChoice::parse(s).map_err(|e| invalid("executor", s, &e.to_string()))
        })?;
        let distances = axis(&grid, "distances", &["euclidean"], |s| {
            DistanceKind::parse(s).ok_or_else(|| invalid("distance", s, "euclidean | manhattan"))
        })?;
        let faults = axis(&grid, "faults", &["none"], |s| {
            FaultSpec::parse(s).ok_or_else(|| invalid("fault", s, "none | seed=S | seed=S+degrade"))
        })?;
        let outliers = match grid.get("outliers") {
            None => vec![0],
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| invalid("grid.outliers", "<non-array>", "an integer array"))?;
                let mut zs = Vec::new();
                for item in items {
                    zs.push(item.as_usize().ok_or_else(|| {
                        invalid(
                            "grid.outliers entry",
                            "<non-integer>",
                            "a non-negative integer",
                        )
                    })?);
                }
                if zs.is_empty() {
                    return Err(invalid("grid.outliers", "[]", "at least one z value"));
                }
                zs
            }
        };

        let dataset_values = doc
            .get("datasets")
            .or_else(|| doc.get("dataset"))
            .ok_or_else(|| missing("dataset"))?
            .as_array()
            .ok_or_else(|| invalid("datasets", "<non-array>", "an array of dataset tables"))?;
        if dataset_values.is_empty() {
            return Err(missing("dataset"));
        }
        let datasets = dataset_values
            .iter()
            .map(parse_dataset)
            .collect::<Result<Vec<_>, _>>()?;

        let ingest = match doc.get("ingest") {
            None => None,
            Some(v) => Some(parse_ingest_axes(v)?),
        };

        Ok(ScenarioSpec {
            name,
            seed,
            k,
            machines,
            threads,
            epsilon,
            phi,
            max_attempts,
            solvers,
            precisions,
            kernels,
            assigns,
            executors,
            distances,
            outliers,
            faults,
            datasets,
            ingest,
        })
    }

    /// Returns a copy with every dataset scaled to `round(n · factor)`
    /// points (CI runs the committed scenarios at reduced scale through
    /// this; the grid axes are untouched).
    pub fn scaled(&self, factor: f64) -> ScenarioSpec {
        let mut scaled = self.clone();
        scaled.datasets = self.datasets.iter().map(|d| d.scaled(factor)).collect();
        scaled
    }

    /// Expands the `[ingest]` table into runnable ingest cells (empty when
    /// the spec has no ingest table): `dataset × precision × batches ×
    /// fault`, in deterministic order, appended after the solve cells by
    /// [`run_scenario`].
    pub fn ingest_cells(&self) -> Vec<IngestCellConfig> {
        let Some(axes) = &self.ingest else {
            return Vec::new();
        };
        let mut cells = Vec::new();
        for (dataset_index, dataset) in self.datasets.iter().enumerate() {
            for &precision in &self.precisions {
                for &batches in &axes.batches {
                    for &fault in &axes.faults {
                        cells.push(IngestCellConfig {
                            dataset_index,
                            dataset: dataset.clone(),
                            precision,
                            batches,
                            coreset_size: axes.coreset_size,
                            budget: axes.budget,
                            kernel: axes.kernel,
                            assign: axes.assign,
                            fault,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Expands the grid into runnable cells, in deterministic order.
    /// Sequential solvers are not paired with active fault arms (fault
    /// injection targets the MapReduce rounds).
    pub fn cells(&self) -> Vec<CellConfig> {
        let mut cells = Vec::new();
        for (dataset_index, dataset) in self.datasets.iter().enumerate() {
            for &solver in &self.solvers {
                for &precision in &self.precisions {
                    for &kernel in &self.kernels {
                        for &assign in &self.assigns {
                            for &executor in &self.executors {
                                for &distance in &self.distances {
                                    for &z in &self.outliers {
                                        for &fault in &self.faults {
                                            if fault.is_active() && !solver.is_parallel() {
                                                continue;
                                            }
                                            cells.push(CellConfig {
                                                dataset_index,
                                                dataset: dataset.clone(),
                                                solver,
                                                precision,
                                                kernel,
                                                assign,
                                                executor,
                                                distance,
                                                z,
                                                fault,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

fn opt_u64(doc: &Value, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| invalid(key, "<non-integer>", "a non-negative integer")),
    }
}

fn opt_usize(doc: &Value, key: &str, default: usize) -> Result<usize, ScenarioError> {
    Ok(maybe_usize(doc, key)?.unwrap_or(default))
}

/// An optional count that must be at least 1 when given.
fn opt_positive(doc: &Value, key: &str, default: usize) -> Result<usize, ScenarioError> {
    match opt_usize(doc, key, default)? {
        0 => Err(invalid(key, 0, "a positive integer")),
        n => Ok(n),
    }
}

fn maybe_usize(doc: &Value, key: &str) -> Result<Option<usize>, ScenarioError> {
    doc.get(key)
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| invalid(key, "<non-integer>", "a non-negative integer"))
        })
        .transpose()
}

fn opt_f64(doc: &Value, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| invalid(key, "<non-number>", "a number")),
    }
}

/// Reads a grid axis: an array of names, each parsed by `parse`; absent
/// axes fall back to `defaults`.
fn axis<T>(
    grid: &Value,
    key: &str,
    defaults: &[&str],
    parse: impl Fn(&str) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    let named: Vec<String> = match grid.get(key) {
        None => defaults.iter().map(|s| s.to_string()).collect(),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| invalid(&format!("grid.{key}"), "<non-array>", "a string array"))?;
            let mut names = Vec::new();
            for item in items {
                names.push(
                    item.as_str()
                        .ok_or_else(|| {
                            invalid(&format!("grid.{key} entry"), "<non-string>", "a string")
                        })?
                        .to_string(),
                );
            }
            names
        }
    };
    if named.is_empty() {
        return Err(invalid(
            &format!("grid.{key}"),
            "[]",
            "at least one axis value",
        ));
    }
    named.iter().map(|s| parse(s)).collect()
}

/// Interprets the `[ingest]` table.
fn parse_ingest_axes(value: &Value) -> Result<IngestAxes, ScenarioError> {
    let batch_values = value
        .get("batches")
        .ok_or_else(|| missing("ingest.batches"))?
        .as_array()
        .ok_or_else(|| invalid("ingest.batches", "<non-array>", "an integer array"))?;
    let mut batches = Vec::new();
    for item in batch_values {
        let b = item
            .as_usize()
            .filter(|&b| b >= 1)
            .ok_or_else(|| invalid("ingest.batches entry", "<non-positive>", "an integer ≥ 1"))?;
        batches.push(b);
    }
    if batches.is_empty() {
        return Err(invalid("ingest.batches", "[]", "at least one batch count"));
    }
    let coreset_size = opt_positive(value, "coreset_size", 32)?;
    let budget = opt_positive(value, "budget", 4 * coreset_size)?;
    let kernel = match value.get("kernel") {
        None => KernelChoice::Auto,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| invalid("ingest.kernel", "<non-string>", "a kernel name"))?;
            KernelChoice::parse(name).map_err(|e| invalid("ingest.kernel", name, &e.to_string()))?
        }
    };
    let assign = match value.get("assign") {
        None => AssignChoice::Auto,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| invalid("ingest.assign", "<non-string>", "an assign-arm name"))?;
            AssignChoice::parse(name).map_err(|e| invalid("ingest.assign", name, &e.to_string()))?
        }
    };
    let faults = axis(value, "faults", &["none"], |s| {
        FaultSpec::parse(s).ok_or_else(|| invalid("fault", s, "none | seed=S | seed=S+degrade"))
    })?;
    Ok(IngestAxes {
        batches,
        coreset_size,
        budget,
        kernel,
        assign,
        faults,
    })
}

/// Interprets one `[[dataset]]` table through the one family parser.
fn parse_dataset(value: &Value) -> Result<DatasetSpec, ScenarioError> {
    let family = value
        .get("family")
        .ok_or_else(|| missing("dataset.family"))?
        .as_str()
        .ok_or_else(|| invalid("dataset.family", "<non-string>", "a family name"))?;
    let n = value
        .get("n")
        .ok_or_else(|| missing("dataset.n"))?
        .as_usize()
        .ok_or_else(|| invalid("dataset.n", "<non-integer>", "a positive integer"))?;
    let params = FamilyParams {
        k_prime: maybe_usize(value, "k_prime")?,
        distinct: maybe_usize(value, "distinct")?,
        dim: maybe_usize(value, "dim")?,
        planted: maybe_usize(value, "planted")?,
    };
    DatasetSpec::from_family(family, n, params).map_err(|e| {
        let key = match e.param {
            SpecParam::Family => "dataset.family",
            SpecParam::KPrime => "dataset.k_prime",
            SpecParam::Distinct => "dataset.distinct",
            SpecParam::Dim => "dataset.dim",
            SpecParam::Planted => "dataset.planted",
        };
        invalid(key, e.value, &e.expected)
    })
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// One cell's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's stable identity ([`CellConfig::id`]).
    pub id: String,
    /// Human-readable dataset description.
    pub dataset: String,
    /// Number of points.
    pub n: usize,
    /// Solver name.
    pub solver: String,
    /// Precision name.
    pub precision: String,
    /// Kernel request name.
    pub kernel: String,
    /// Assignment-arm request name.
    pub assign: String,
    /// Executor name.
    pub executor: String,
    /// Distance name.
    pub distance: String,
    /// With-outliers budget.
    pub z: usize,
    /// Fault-arm label.
    pub fault: String,
    /// Certified covering radius over all points.
    pub radius: f64,
    /// Certified radius over the kept `n − z` points (`== radius` when
    /// `z = 0`).
    pub kept_radius: f64,
    /// Number of selected centers.
    pub centers: usize,
    /// Surviving coverage fraction (1.0 unless the run degraded).
    pub coverage: f64,
    /// MapReduce rounds (0 for the sequential solvers).
    pub rounds: usize,
    /// Simulated time (per-round max machine time) in nanoseconds; 0 for
    /// the sequential solvers.
    pub simulated_ns: u128,
    /// Real wall-clock nanoseconds of the cell's solve (a measurement —
    /// only gated when a tolerance is passed to the diff).
    pub wall_ns: u128,
    /// FNV-1a 64 digest of the selected center ids, in selection order —
    /// the determinism fingerprint of the cell.
    pub digest: String,
}

/// A full scenario run: the spec echo plus one [`CellResult`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// The shared seed.
    pub seed: u64,
    /// Centers per cell.
    pub k: usize,
    /// Per-cell results, in expansion order.
    pub cells: Vec<CellResult>,
}

/// FNV-1a 64-bit over the center ids' little-endian bytes, rendered as
/// 16 hex digits.
pub fn center_digest(centers: &[PointId]) -> String {
    let mut hash = Fnv::new();
    for &c in centers {
        hash.write_u64(c as u64);
    }
    format!("{:016x}", hash.finish())
}

struct CellOutcome {
    centers: Vec<PointId>,
    radius: f64,
    rounds: usize,
    simulated_ns: u128,
    coverage: f64,
}

/// Runs every cell of the spec, in order, and assembles the report.
///
/// The kernel backend and assignment arm are process-global dispatch
/// state: they are installed per cell and restored to the build defaults
/// (`auto`) afterwards.  Callers running scenarios concurrently with other
/// dispatch-sensitive work must serialise externally.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_with(spec, |_, _| {})
}

/// [`run_scenario`] with a per-cell progress callback `(index, id)`.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    mut progress: impl FnMut(usize, &str),
) -> Result<ScenarioReport, ScenarioError> {
    let cells = spec.cells();
    let ingest_cells = spec.ingest_cells();
    let mut results = Vec::with_capacity(cells.len() + ingest_cells.len());
    install_thread_budget(spec.threads);
    for (index, cell) in cells.iter().enumerate() {
        let id = cell.id();
        progress(index, &id);
        results.push(run_one_cell(spec, cell, id)?);
    }
    for (index, cell) in ingest_cells.iter().enumerate() {
        let id = cell.id();
        progress(cells.len() + index, &id);
        results.push(run_ingest_cell(spec, cell, id)?);
    }
    // Restore the build defaults so later work sees pristine dispatch.
    grid::set_choice(AssignChoice::Auto);
    if let Ok(backend) = KernelChoice::Auto.resolve() {
        let _ = simd::set_active(backend);
    }
    Ok(ScenarioReport {
        scenario: spec.name.clone(),
        seed: spec.seed,
        k: spec.k,
        cells: results,
    })
}

/// Installs a cell's kernel backend and assignment arm.
fn install_cell(kernel: KernelChoice, assign: AssignChoice) -> Result<(), ScenarioError> {
    kernel
        .resolve()
        .and_then(simd::set_active)
        .map_err(|e| invalid("kernel", kernel.name(), &e.to_string()))?;
    grid::set_choice(assign);
    Ok(())
}

fn run_one_cell(
    spec: &ScenarioSpec,
    cell: &CellConfig,
    id: String,
) -> Result<CellResult, ScenarioError> {
    install_cell(cell.kernel, cell.assign)?;
    let executor = cell.executor.resolve(Some(spec.threads));

    // Monomorphise on (precision, distance) and run.
    let run =
        |outcome: Result<(CellOutcome, f64), KCenterError>| -> Result<CellResult, ScenarioError> {
            let (outcome, kept_radius) =
                outcome.map_err(|e| invalid("cell", &id, &format!("solver failed: {e}")))?;
            Ok(CellResult {
                id: id.clone(),
                dataset: cell.dataset.describe(),
                n: cell.dataset.n(),
                solver: cell.solver.name().to_string(),
                precision: cell.precision.name().to_string(),
                kernel: cell.kernel.name().to_string(),
                assign: cell.assign.name().to_string(),
                executor: cell.executor.name().to_string(),
                distance: cell.distance.name().to_string(),
                z: cell.z,
                fault: cell.fault.label(),
                radius: outcome.radius,
                kept_radius,
                centers: outcome.centers.len(),
                coverage: outcome.coverage,
                rounds: outcome.rounds,
                simulated_ns: outcome.simulated_ns,
                wall_ns: 0, // filled below
                digest: center_digest(&outcome.centers),
            })
        };
    let start = Instant::now();
    let mut result = match (cell.precision, cell.distance) {
        (Precision::F64, DistanceKind::Euclidean) => {
            run(solve_cell::<f64, Euclidean>(spec, cell, executor))
        }
        (Precision::F32, DistanceKind::Euclidean) => {
            run(solve_cell::<f32, Euclidean>(spec, cell, executor))
        }
        (Precision::F64, DistanceKind::Manhattan) => {
            run(solve_cell::<f64, Manhattan>(spec, cell, executor))
        }
        (Precision::F32, DistanceKind::Manhattan) => {
            run(solve_cell::<f32, Manhattan>(spec, cell, executor))
        }
    }?;
    result.wall_ns = start.elapsed().as_nanos();
    Ok(result)
}

fn run_ingest_cell(
    spec: &ScenarioSpec,
    cell: &IngestCellConfig,
    id: String,
) -> Result<CellResult, ScenarioError> {
    install_cell(cell.kernel, cell.assign)?;
    let start = Instant::now();
    let mut result = match cell.precision {
        Precision::F64 => ingest_cell_at::<f64>(spec, cell, &id),
        Precision::F32 => ingest_cell_at::<f32>(spec, cell, &id),
    }?;
    result.wall_ns = start.elapsed().as_nanos();
    Ok(result)
}

/// Folds the cell's stream through the durable serve loop twice — once
/// uninterrupted, once killed mid-checkpoint-write and resumed — and
/// fails the cell unless the two final states are bit-identical.  The
/// reported columns come from the uninterrupted twin.
fn ingest_cell_at<S: Scalar>(
    spec: &ScenarioSpec,
    cell: &IngestCellConfig,
    id: &str,
) -> Result<CellResult, ScenarioError> {
    let fail = |what: String| invalid("cell", id, &what);
    let faults = cell.fault.config(spec.max_attempts);
    let config = |kill: Option<KillPoint>| IngestConfig {
        stream: StreamConfig {
            spec: cell.dataset.clone(),
            seed: spec.seed,
            batches: cell.batches,
        },
        t: cell.coreset_size,
        budget: cell.budget,
        machines: spec.machines,
        faults: faults.clone(),
        executor: Executor::Simulated,
        solve_k: spec.k,
        kill,
    };
    // Fresh temp checkpoints per cell: the scenario gate pins the final
    // state, not an on-disk resume across runs.
    let ckpt = |tag: &str| {
        std::env::temp_dir().join(format!(
            "kcenter-scenario-{}-{}-{tag}.ckpt",
            std::process::id(),
            id.replace(['/', '='], "-"),
        ))
    };
    let twin_path = ckpt("twin");
    let _ = std::fs::remove_file(&twin_path);
    let twin: Ingestor<Euclidean, S> = Ingestor::new(config(None), &twin_path)
        .map_err(|e| fail(format!("ingest setup failed: {e}")))?;
    let outcome = twin
        .run()
        .map_err(|e| fail(format!("ingest run failed: {e}")))?;

    // Crash-consistency leg: die mid-write at the middle batch, resume,
    // and require the bit-identical accumulated state.
    if cell.batches >= 2 {
        let killed_path = ckpt("killed");
        let _ = std::fs::remove_file(&killed_path);
        let kill = Some(KillPoint {
            batch: cell.batches / 2,
            stage: KillStage::DuringCheckpoint,
        });
        let killed: Ingestor<Euclidean, S> = Ingestor::new(config(kill), &killed_path)
            .map_err(|e| fail(format!("ingest setup failed: {e}")))?;
        match killed.run() {
            Err(IngestError::Killed { .. }) => {}
            Err(e) => return Err(fail(format!("killed run failed early: {e}"))),
            Ok(_) => return Err(fail("kill point did not fire".to_string())),
        }
        let resumed: Ingestor<Euclidean, S> = Ingestor::new(config(None), &killed_path)
            .map_err(|e| fail(format!("ingest setup failed: {e}")))?;
        let resumed_out = resumed
            .run()
            .map_err(|e| fail(format!("resume failed: {e}")))?;
        if resumed_out.resumed_from.is_none() {
            return Err(fail("resume did not load the checkpoint".to_string()));
        }
        if resumed_out.coreset.to_bytes() != outcome.coreset.to_bytes() {
            return Err(fail(
                "crash-consistency violated: resumed state differs from the uninterrupted twin"
                    .to_string(),
            ));
        }
        let _ = std::fs::remove_file(&killed_path);
    }

    let k = spec.k.min(outcome.coreset.len());
    let solution = outcome
        .coreset
        .solve(k, SequentialSolver::Gonzalez, FirstCenter::default())
        .map_err(|e| fail(format!("final solve failed: {e}")))?;
    let full = twin.stream().full_space();
    let radius = solution.certify(&full);
    let _ = std::fs::remove_file(&twin_path);
    Ok(CellResult {
        id: id.to_string(),
        dataset: cell.dataset.describe(),
        n: cell.dataset.n(),
        solver: "ingest".to_string(),
        precision: cell.precision.name().to_string(),
        kernel: cell.kernel.name().to_string(),
        assign: cell.assign.name().to_string(),
        executor: "simulated".to_string(),
        distance: "euclidean".to_string(),
        z: 0,
        fault: cell.fault.label(),
        radius,
        kept_radius: radius,
        centers: solution.centers.len(),
        coverage: outcome.coreset.coverage_fraction(),
        rounds: outcome.meta.rounds as usize,
        simulated_ns: outcome.meta.simulated_ns,
        wall_ns: 0, // filled by the caller
        digest: center_digest(&solution.centers),
    })
}

/// Generates the cell's data, runs its solver, and certifies the plain and
/// kept radii.  Returns the outcome plus the kept radius.
fn solve_cell<S: Scalar, D: Distance + Default>(
    spec: &ScenarioSpec,
    cell: &CellConfig,
    executor: Executor,
) -> Result<(CellOutcome, f64), KCenterError> {
    let flat = cell.dataset.generate_flat_at::<S>(spec.seed);
    let space: VecSpace<D, S> = VecSpace::from_flat_with_distance(flat, D::default());

    let faults = cell.fault.config(spec.max_attempts);

    let outcome = match cell.solver {
        SolverKind::Gon => {
            let sol = GonzalezConfig::new(spec.k)
                .with_parallel_scan(true)
                .solve(&space)?;
            CellOutcome {
                centers: sol.centers,
                radius: sol.radius,
                rounds: 0,
                simulated_ns: 0,
                coverage: 1.0,
            }
        }
        SolverKind::Hs => {
            let sol = HochbaumShmoysConfig::new(spec.k).solve(&space)?;
            CellOutcome {
                centers: sol.centers,
                radius: sol.radius,
                rounds: 0,
                simulated_ns: 0,
                coverage: 1.0,
            }
        }
        SolverKind::Mrg => {
            let mut config = MrgConfig::new(spec.k)
                .with_machines(spec.machines)
                .with_unchecked_capacity()
                .with_first_center(FirstCenter::Seeded(spec.seed))
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            let result = config.run(&space)?;
            CellOutcome {
                centers: result.solution.centers,
                radius: result.solution.radius,
                rounds: result.mapreduce_rounds,
                simulated_ns: result.stats.simulated_time().as_nanos(),
                coverage: result
                    .degraded
                    .as_ref()
                    .map_or(1.0, |d| d.coverage_fraction()),
            }
        }
        SolverKind::Eim => {
            let mut config = EimConfig::new(spec.k)
                .with_machines(spec.machines)
                .with_phi(spec.phi)
                .with_epsilon(spec.epsilon)
                .with_seed(spec.seed)
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            let result = config.run(&space)?;
            CellOutcome {
                centers: result.solution.centers,
                radius: result.solution.radius,
                rounds: result.mapreduce_rounds,
                simulated_ns: result.stats.simulated_time().as_nanos(),
                coverage: result
                    .degraded
                    .as_ref()
                    .map_or(1.0, |d| d.coverage_fraction()),
            }
        }
    };

    let kept_radius = if cell.z > 0 {
        evaluate_with_outliers(&space, &outcome.centers, cell.z).radius
    } else {
        outcome.radius
    };
    Ok((outcome, kept_radius))
}

// ---------------------------------------------------------------------------
// Report serialisation
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Emits a finite `f64` as a JSON number.  Rust's `Display` prints the
/// shortest decimal that parses back to the identical bits, so reports
/// round-trip radii exactly.
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "report metrics are finite");
    let s = format!("{v}");
    // `Display` omits the decimal point for integral values; keep it so the
    // field reads as a float in any consumer.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

impl ScenarioReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"scenario\": \"{}\",\n  \"schema_version\": 1,\n  \"seed\": {},\n  \"k\": {},",
            json_escape(&self.scenario),
            self.seed,
            self.k
        );
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"dataset\": \"{}\", \"n\": {}, \"solver\": \"{}\", \"precision\": \"{}\", \"kernel\": \"{}\", \"assign\": \"{}\", \"executor\": \"{}\", \"distance\": \"{}\", \"z\": {}, \"fault\": \"{}\", \"radius\": {}, \"kept_radius\": {}, \"centers\": {}, \"coverage\": {}, \"rounds\": {}, \"simulated_ns\": {}, \"wall_ns\": {}, \"digest\": \"{}\"}}",
                json_escape(&cell.id),
                json_escape(&cell.dataset),
                cell.n,
                json_escape(&cell.solver),
                json_escape(&cell.precision),
                json_escape(&cell.kernel),
                json_escape(&cell.assign),
                json_escape(&cell.executor),
                json_escape(&cell.distance),
                cell.z,
                json_escape(&cell.fault),
                json_f64(cell.radius),
                json_f64(cell.kept_radius),
                cell.centers,
                json_f64(cell.coverage),
                cell.rounds,
                cell.simulated_ns,
                cell.wall_ns,
                json_escape(&cell.digest),
            );
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse_json(text)?;
        let str_field = |v: &Value, key: &str| -> Result<String, ScenarioError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(&format!("cell.{key}")))
        };
        let num_field = |v: &Value, key: &str| -> Result<f64, ScenarioError> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| missing(&format!("cell.{key}")))
        };
        let int_field = |v: &Value, key: &str| -> Result<usize, ScenarioError> {
            v.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| missing(&format!("cell.{key}")))
        };
        let scenario = doc
            .get("scenario")
            .and_then(Value::as_str)
            .ok_or_else(|| missing("scenario"))?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| missing("seed"))?;
        let k = doc
            .get("k")
            .and_then(Value::as_usize)
            .ok_or_else(|| missing("k"))?;
        let cell_values = doc
            .get("cells")
            .and_then(Value::as_array)
            .ok_or_else(|| missing("cells"))?;
        let mut cells = Vec::with_capacity(cell_values.len());
        for v in cell_values {
            cells.push(CellResult {
                id: str_field(v, "id")?,
                dataset: str_field(v, "dataset")?,
                n: int_field(v, "n")?,
                solver: str_field(v, "solver")?,
                precision: str_field(v, "precision")?,
                kernel: str_field(v, "kernel")?,
                assign: str_field(v, "assign")?,
                executor: str_field(v, "executor")?,
                distance: str_field(v, "distance")?,
                z: int_field(v, "z")?,
                fault: str_field(v, "fault")?,
                radius: num_field(v, "radius")?,
                kept_radius: num_field(v, "kept_radius")?,
                centers: int_field(v, "centers")?,
                coverage: num_field(v, "coverage")?,
                rounds: int_field(v, "rounds")?,
                simulated_ns: num_field(v, "simulated_ns")? as u128,
                wall_ns: num_field(v, "wall_ns")? as u128,
                digest: str_field(v, "digest")?,
            });
        }
        Ok(ScenarioReport {
            scenario,
            seed,
            k,
            cells,
        })
    }
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// Per-metric tolerances for [`diff_reports`].
///
/// The deterministic metrics (digest, centers, rounds, coverage) are
/// always gated exactly; radii admit an absolute tolerance (default 0 —
/// exact, which is sound because the JSON round-trip is bit-exact).  The
/// timing columns are machine measurements and are only gated when their
/// fractional tolerance is `Some`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerances {
    /// Absolute tolerance on `radius` / `kept_radius`.
    pub radius: f64,
    /// Allowed fractional slowdown of `simulated_ns` (e.g. `0.10` = 10%);
    /// `None` leaves simulated time ungated.
    pub simulated_frac: Option<f64>,
    /// Allowed fractional slowdown of `wall_ns`; `None` (the default for
    /// committed cross-machine baselines) leaves wall time ungated.
    pub wall_frac: Option<f64>,
}

impl Default for DiffTolerances {
    fn default() -> Self {
        DiffTolerances {
            radius: 0.0,
            simulated_frac: None,
            wall_frac: None,
        }
    }
}

/// Compares `current` against `baseline` and returns one line per
/// regression (empty = gate passes).  Cell sets must match exactly; each
/// matched cell's deterministic metrics must agree per the tolerances.
pub fn diff_reports(
    baseline: &ScenarioReport,
    current: &ScenarioReport,
    tol: &DiffTolerances,
) -> Vec<String> {
    let mut regressions = Vec::new();
    if baseline.scenario != current.scenario {
        regressions.push(format!(
            "scenario name changed: {:?} -> {:?}",
            baseline.scenario, current.scenario
        ));
    }
    if baseline.seed != current.seed || baseline.k != current.k {
        regressions.push(format!(
            "run parameters changed: seed {} -> {}, k {} -> {}",
            baseline.seed, current.seed, baseline.k, current.k
        ));
    }
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| c.id == base.id) else {
            regressions.push(format!("cell disappeared: {}", base.id));
            continue;
        };
        diff_cell(base, cur, tol, &mut regressions);
    }
    for cur in &current.cells {
        if !baseline.cells.iter().any(|b| b.id == cur.id) {
            regressions.push(format!(
                "new cell not in baseline (re-baseline to accept): {}",
                cur.id
            ));
        }
    }
    regressions
}

fn diff_cell(base: &CellResult, cur: &CellResult, tol: &DiffTolerances, out: &mut Vec<String>) {
    let id = &base.id;
    if base.digest != cur.digest {
        out.push(format!(
            "{id}: determinism digest changed {} -> {} (center set drifted)",
            base.digest, cur.digest
        ));
    }
    if base.centers != cur.centers {
        out.push(format!(
            "{id}: center count changed {} -> {}",
            base.centers, cur.centers
        ));
    }
    if base.n != cur.n {
        out.push(format!(
            "{id}: dataset size changed {} -> {}",
            base.n, cur.n
        ));
    }
    if base.rounds != cur.rounds {
        out.push(format!(
            "{id}: MapReduce rounds changed {} -> {}",
            base.rounds, cur.rounds
        ));
    }
    if base.coverage != cur.coverage {
        out.push(format!(
            "{id}: coverage fraction changed {} -> {}",
            base.coverage, cur.coverage
        ));
    }
    if (base.radius - cur.radius).abs() > tol.radius {
        out.push(format!(
            "{id}: certified radius drifted {} -> {} (|delta| > {})",
            base.radius, cur.radius, tol.radius
        ));
    }
    if (base.kept_radius - cur.kept_radius).abs() > tol.radius {
        out.push(format!(
            "{id}: kept (with-outliers) radius drifted {} -> {} (|delta| > {})",
            base.kept_radius, cur.kept_radius, tol.radius
        ));
    }
    if let Some(frac) = tol.simulated_frac {
        let limit = base.simulated_ns as f64 * (1.0 + frac);
        if cur.simulated_ns as f64 > limit {
            out.push(format!(
                "{id}: simulated time regressed {} ns -> {} ns (> {:.0}% over baseline)",
                base.simulated_ns,
                cur.simulated_ns,
                frac * 100.0
            ));
        }
    }
    if let Some(frac) = tol.wall_frac {
        let limit = base.wall_ns as f64 * (1.0 + frac);
        if cur.wall_ns as f64 > limit {
            out.push(format!(
                "{id}: wall time regressed {} ns -> {} ns (> {:.0}% over baseline)",
                base.wall_ns,
                cur.wall_ns,
                frac * 100.0
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{AssignMode, KernelBackend};

    const SPEC: &str = r#"
name = "unit"
seed = 7
k = 3

[grid]
solvers = ["gon", "mrg"]
precisions = ["f64"]
kernels = ["scalar"]
faults = ["none", "seed=5"]

[[dataset]]
family = "gau"
n = 120
k_prime = 3
"#;

    #[test]
    fn toml_spec_parses_with_defaults() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "unit");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.k, 3);
        assert_eq!(spec.machines, 8);
        assert_eq!(spec.solvers, vec![SolverKind::Gon, SolverKind::Mrg]);
        assert_eq!(
            spec.kernels,
            vec![KernelChoice::Fixed(KernelBackend::Scalar)]
        );
        assert_eq!(spec.executors, vec![ExecutorChoice::Simulated]);
        assert_eq!(spec.outliers, vec![0]);
        assert_eq!(
            spec.faults,
            vec![
                FaultSpec::None,
                FaultSpec::Seeded {
                    seed: 5,
                    degrade: false
                }
            ]
        );
        assert_eq!(spec.datasets, vec![DatasetSpec::Gau { n: 120, k_prime: 3 }]);
    }

    #[test]
    fn grid_expansion_skips_sequential_fault_cells() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let cells = spec.cells();
        // gon gets only the fault-free arm; mrg gets both.
        assert_eq!(cells.len(), 3);
        assert!(cells
            .iter()
            .all(|c| c.solver != SolverKind::Gon || c.fault == FaultSpec::None));
        // Ids are unique.
        let ids: std::collections::HashSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn json_and_toml_specs_agree() {
        let json = r#"{
            "name": "unit", "seed": 7, "k": 3,
            "grid": {
                "solvers": ["gon", "mrg"],
                "precisions": ["f64"],
                "kernels": ["scalar"],
                "faults": ["none", "seed=5"]
            },
            "datasets": [{"family": "gau", "n": 120, "k_prime": 3}]
        }"#;
        assert_eq!(
            ScenarioSpec::parse(SPEC).unwrap(),
            ScenarioSpec::parse(json).unwrap()
        );
    }

    #[test]
    fn malformed_specs_are_named_errors() {
        // Missing k.
        let err = ScenarioSpec::parse("name = \"x\"\n[[dataset]]\nfamily = \"gau\"\nn = 10\n")
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Missing {
                what: "k".to_string()
            }
        );
        // Unknown solver.
        let err = ScenarioSpec::parse(
            "name = \"x\"\nk = 2\n[grid]\nsolvers = [\"quantum\"]\n[[dataset]]\nfamily = \"gau\"\nn = 10\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { ref what, .. } if what == "solver"));
        // Syntax garbage carries the line number.
        let err = ScenarioSpec::parse("name = \"x\"\nk = 2\nwat\n").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Syntax {
                line: 3,
                message: "expected `key = value` or a [section] header, found \"wat\"".to_string()
            }
        );
        // No datasets.
        let err = ScenarioSpec::parse("name = \"x\"\nk = 2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Missing { ref what } if what == "dataset"));
        // Unknown family.
        let err =
            ScenarioSpec::parse("name = \"x\"\nk = 2\n[[dataset]]\nfamily = \"fractal\"\nn = 10\n")
                .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { ref what, .. } if what == "dataset.family"));
        // Zero retry budget or zero worker threads, like k = 0.
        for key in ["max_attempts", "threads"] {
            let err = ScenarioSpec::parse(&format!(
                "name = \"x\"\nk = 2\n{key} = 0\n[[dataset]]\nfamily = \"gau\"\nn = 10\n"
            ))
            .unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { ref what, ref value, .. }
                    if what == key && value == "0"),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn datasets_with_zero_k_prime_are_named_spec_errors() {
        let err = ScenarioSpec::parse(
            "name = \"x\"\nk = 2\n[[dataset]]\nfamily = \"gau\"\nn = 10\nk_prime = 0\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid { ref what, ref value, .. }
                if what == "dataset.k_prime" && value == "0"),
            "{err}"
        );
    }

    #[test]
    fn toml_parser_handles_comments_underscores_and_strings() {
        let doc = parse_toml(
            "a = 1_000 # comment\nb = \"with # hash\"\nc = [1, 2.5, \"x, y\"]\nd = true\n",
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_usize(), Some(1000));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("with # hash"));
        assert_eq!(
            doc.get("c").unwrap(),
            &Value::Array(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Str("x, y".to_string())
            ])
        );
        assert_eq!(doc.get("d").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn json_numbers_round_trip_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 123456.789012345, 1e-15, 2f64.powi(-40)] {
            let text = json_f64(v);
            let parsed = parse_json(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        assert_eq!(
            center_digest(&[]),
            format!("{:016x}", 0xcbf29ce484222325u64)
        );
        assert_ne!(center_digest(&[1, 2]), center_digest(&[2, 1]));
        assert_eq!(center_digest(&[1, 2, 3]), center_digest(&[1, 2, 3]));
    }

    #[test]
    fn scaled_shrinks_datasets_only() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let scaled = spec.scaled(0.5);
        assert_eq!(scaled.datasets[0].n(), 60);
        assert_eq!(scaled.k, spec.k);
        assert_eq!(scaled.solvers, spec.solvers);
    }

    const INGEST_SPEC: &str = r#"
name = "unit-ingest"
seed = 11
k = 3
machines = 4

[grid]
solvers = ["gon"]
precisions = ["f64"]
kernels = ["scalar"]

[ingest]
batches = [2, 3]
coreset_size = 12
kernel = "scalar"
assign = "dense"
faults = ["none", "seed=9"]

[[dataset]]
family = "gau"
n = 240
k_prime = 3
"#;

    #[test]
    fn ingest_table_parses_and_expands() {
        let spec = ScenarioSpec::parse(INGEST_SPEC).unwrap();
        let axes = spec.ingest.as_ref().expect("ingest table parsed");
        assert_eq!(axes.batches, vec![2, 3]);
        assert_eq!(axes.coreset_size, 12);
        // Budget defaults to 4 × coreset_size.
        assert_eq!(axes.budget, 48);
        assert_eq!(axes.kernel, KernelChoice::Fixed(KernelBackend::Scalar));
        assert_eq!(axes.assign, AssignChoice::Fixed(AssignMode::Dense));

        let cells = spec.ingest_cells();
        // 1 dataset × 1 precision × 2 batch counts × 2 faults.
        assert_eq!(cells.len(), 4);
        let ids: std::collections::HashSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
        // Disjoint namespace: every ingest id carries the prefix, no solve
        // cell does.
        assert!(cells.iter().all(|c| c.id().starts_with("ingest/")));
        assert!(spec.cells().iter().all(|c| !c.id().starts_with("ingest/")));
        assert_eq!(
            cells[0].id(),
            "ingest/d0-gau-n240/b2/t12/g48/f64/scalar/dense/none"
        );
    }

    #[test]
    fn specs_without_an_ingest_table_run_no_ingest_cells() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        assert!(spec.ingest.is_none());
        assert!(spec.ingest_cells().is_empty());
    }

    #[test]
    fn malformed_ingest_tables_are_named_errors() {
        // Missing batches axis.
        let err = ScenarioSpec::parse(
            "name = \"x\"\nk = 2\n[ingest]\ncoreset_size = 8\n[[dataset]]\nfamily = \"gau\"\nn = 10\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Missing { ref what } if what == "ingest.batches"));
        // Zero batch count.
        let err = ScenarioSpec::parse(
            "name = \"x\"\nk = 2\n[ingest]\nbatches = [0]\n[[dataset]]\nfamily = \"gau\"\nn = 10\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid { ref what, .. } if what == "ingest.batches entry")
        );
        // Unknown kernel.
        let err = ScenarioSpec::parse(
            "name = \"x\"\nk = 2\n[ingest]\nbatches = [2]\nkernel = \"warp\"\n[[dataset]]\nfamily = \"gau\"\nn = 10\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { ref what, .. } if what == "ingest.kernel"));
        // Zero representatives per batch or a zero re-compression budget.
        for key in ["coreset_size", "budget"] {
            let err = ScenarioSpec::parse(&format!(
                "name = \"x\"\nk = 2\n[ingest]\nbatches = [2]\n{key} = 0\n[[dataset]]\nfamily = \"gau\"\nn = 10\n"
            ))
            .unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { ref what, ref value, .. }
                    if what == key && value == "0"),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn ingest_cells_run_deterministically_end_to_end() {
        // Small spec: 1 solve cell + 2 ingest cells, each of which also
        // exercises the inline kill/resume crash-consistency leg.
        let spec = ScenarioSpec::parse(
            r#"
name = "unit-ingest-run"
seed = 11
k = 3
machines = 4

[grid]
solvers = ["gon"]
precisions = ["f64"]
kernels = ["scalar"]

[ingest]
batches = [3]
coreset_size = 10
kernel = "scalar"
assign = "dense"
faults = ["none", "seed=9"]

[[dataset]]
family = "gau"
n = 200
k_prime = 3
"#,
        )
        .unwrap();
        let a = run_scenario(&spec).unwrap();
        let b = run_scenario(&spec).unwrap();
        assert_eq!(a.cells.len(), 3);
        let ingest: Vec<&CellResult> = a
            .cells
            .iter()
            .filter(|c| c.id.starts_with("ingest/"))
            .collect();
        assert_eq!(ingest.len(), 2);
        for cell in &ingest {
            assert_eq!(cell.solver, "ingest");
            assert!(cell.centers >= 1 && cell.centers <= 3);
            assert!(cell.radius.is_finite() && cell.radius > 0.0);
            assert!(cell.coverage > 0.0 && cell.coverage <= 1.0);
        }
        // Deterministic columns repeat bit-exactly (timing columns are
        // measurements and excluded, as in report diffing).
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.digest, cb.digest);
            assert_eq!(ca.centers, cb.centers);
            assert_eq!(ca.rounds, cb.rounds);
            assert_eq!(ca.radius.to_bits(), cb.radius.to_bits(), "{}", ca.id);
            assert_eq!(ca.coverage.to_bits(), cb.coverage.to_bits());
        }
        // The retried fault arm converges to the fault-free digest: retries
        // change attempt counts, never the accumulated summary.
        assert_eq!(ingest[0].digest, ingest[1].digest);
    }
}
