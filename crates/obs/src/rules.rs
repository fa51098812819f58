//! Recording rules, alert rules, and SLO burn-rate tracking over the
//! metrics history.
//!
//! A [`RuleSet`] is parsed from a small hand-rolled config format (one
//! rule per line, `#` comments, zero dependencies — see [`parse_rules`])
//! and installed process-globally as a [`RuleEngine`]. The engine is
//! evaluated once per closed simulated week by the history tick
//! ([`crate::history::tick`]), against the same registry snapshot the
//! tick folded — never against the wall clock, so alert transitions are
//! byte-reproducible across reruns and shard counts.
//!
//! Three rule kinds:
//!
//! * **Recording rules** — `record NAME = EXPR` — evaluate a derived
//!   expression (dispatch precision, rank latency p99, ...) and fold the
//!   result back into the history store as its own series.
//! * **Alert rules** — `alert NAME if EXPR OP CONST for N [severity S]`
//!   — a threshold condition with `for`-duration hysteresis driving the
//!   [`AlertState`] machine (inactive → pending → firing → resolved).
//! * **SLOs** — `slo NAME objective F good EXPR total EXPR window N
//!   [warn F] [crit F]` — error-budget burn rate over a sliding window
//!   of weekly good/total readings; a critical burn counts as firing.
//!
//! The engine is also the process's one health verdict ([`health`]):
//! `alert` while a critical alert or a critical SLO burn is firing,
//! `warning` while only warning-severity alerts fire, `healthy`
//! otherwise, and `none` with no engine installed. `GET /health` serves it
//! (503 for `alert` only), and `nevermind trial` prints it at the end of
//! the run. The model-health policy is itself a rule set —
//! `nevermind::telemetry::MODEL_HEALTH_RULES`, installed by `trial`
//! unless `--rules` replaces it.
//!
//! Expressions are arithmetic (`+ - * /`, parentheses, numeric
//! literals) over registry selectors — `counter(name)`, `gauge(name)`,
//! `series_last(name)`, `dist_count(name)` — plus `rate(EXPR)`, the
//! per-evaluation delta of its argument. A missing metric evaluates to
//! NaN, which makes alert conditions false and skips the recording fold,
//! so rules can be installed before the metrics they watch exist.
//! Expressions nest at most 64 levels — parentheses, `rate()` calls and
//! operator chains all count — so no rules file can overflow the stack of
//! the parser or of the evaluator that walks the parsed tree.
//!
//! Every state transition appends a `kind: "alert"` notification event
//! to the engine's own bounded ring (the trace-ring type, but a separate
//! instance — the decision-provenance export stays byte-identical with
//! alerting on or off). Notifications surface on `GET /alerts` and in
//! the `nevermind-history/v1` metrics-dump section.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{fmt_f64, push_json_string};
use crate::registry::{lock_recovering, Snapshot};
use crate::trace::{TraceBuffer, TraceEvent};

/// Notifications retained per engine (oldest evicted first).
const NOTIFICATION_CAPACITY: usize = 1024;

/// Deepest expression [`parse_rules`] accepts: each parenthesized group,
/// `rate()` call and binary operator link counts one level. Real rules
/// stay far below it.
const MAX_DEPTH: usize = 64;

/// Alert severity, from the optional `severity` clause (default
/// `warning`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Worth a look; does not flip `/health` on its own.
    Warning,
    /// Operationally urgent: while firing, `/health` reads `alert` (503).
    Critical,
}

impl Severity {
    /// The severity's lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// The process's health verdict, as [`health`] derives it from the
/// installed engine and `GET /health` serves it; ordered from no verdict
/// to the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// No rule engine is installed, so nothing is judged.
    None,
    /// Nothing is firing.
    Healthy,
    /// Only warning-severity alerts are firing.
    Warning,
    /// A critical alert, or an SLO burning at its critical rate, is firing.
    Alert,
}

impl Health {
    /// The verdict's lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Health::None => "none",
            Health::Healthy => "healthy",
            Health::Warning => "warning",
            Health::Alert => "alert",
        }
    }
}

/// The alert state machine's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false, nothing brewing.
    Inactive,
    /// Condition true but not yet for the rule's `for` duration.
    Pending,
    /// Condition held for the full `for` duration.
    Firing,
    /// Was firing; condition just went false (one evaluation's grace
    /// before returning to inactive, so resolutions are observable).
    Resolved,
}

impl AlertState {
    /// The state's lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// Advances one alert's state machine by one evaluation.
///
/// `ticks` counts consecutive condition-true evaluations while pending;
/// `for_ticks` is the rule's `for` duration in evaluations. Pure
/// function — property tests drive it directly.
#[must_use]
pub fn step_alert(state: AlertState, ticks: u32, cond: bool, for_ticks: u32) -> (AlertState, u32) {
    match (state, cond) {
        (AlertState::Inactive | AlertState::Resolved, true) => {
            if for_ticks <= 1 {
                (AlertState::Firing, 0)
            } else {
                (AlertState::Pending, 1)
            }
        }
        (AlertState::Pending, true) => {
            let t = ticks.saturating_add(1);
            if t >= for_ticks {
                (AlertState::Firing, 0)
            } else {
                (AlertState::Pending, t)
            }
        }
        (AlertState::Firing, true) => (AlertState::Firing, 0),
        (AlertState::Firing, false) => (AlertState::Resolved, 0),
        (AlertState::Inactive | AlertState::Pending | AlertState::Resolved, false) => {
            (AlertState::Inactive, 0)
        }
    }
}

/// Comparison operator of an alert condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn eval(self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }
}

/// Which registry table a selector reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selector {
    Counter,
    Gauge,
    SeriesLast,
    DistCount,
}

impl Selector {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(Selector::Counter),
            "gauge" => Some(Selector::Gauge),
            "series_last" => Some(Selector::SeriesLast),
            "dist_count" => Some(Selector::DistCount),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Selector::Counter => "counter",
            Selector::Gauge => "gauge",
            Selector::SeriesLast => "series_last",
            Selector::DistCount => "dist_count",
        }
    }

    fn eval(self, snap: &Snapshot, name: &str) -> f64 {
        match self {
            Selector::Counter => snap.counters.get(name).map(|&v| v as f64).unwrap_or(f64::NAN),
            Selector::Gauge => snap.gauges.get(name).copied().unwrap_or(f64::NAN),
            Selector::SeriesLast => snap
                .series
                .get(name)
                .and_then(|pts| pts.last())
                .map(|&(_, y)| y)
                .unwrap_or(f64::NAN),
            Selector::DistCount => snap
                .distributions
                .get(name)
                .map(|d| (d.counts.iter().sum::<u64>() + d.underflow + d.overflow) as f64)
                .unwrap_or(f64::NAN),
        }
    }
}

/// A parsed rule expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr(ExprKind);

#[derive(Debug, Clone, PartialEq)]
enum ExprKind {
    Const(f64),
    Select(Selector, String),
    Rate(Box<Expr>),
    Binary(char, Box<Expr>, Box<Expr>),
}

/// Evaluation context threaded through an expression tree: the snapshot
/// being evaluated plus `rate()`'s previous/next value memory.
struct EvalCtx<'a> {
    snap: &'a Snapshot,
    prev: &'a BTreeMap<String, f64>,
    next: &'a mut BTreeMap<String, f64>,
}

impl Expr {
    fn eval(&self, ctx: &mut EvalCtx<'_>) -> f64 {
        match &self.0 {
            ExprKind::Const(v) => *v,
            ExprKind::Select(sel, name) => sel.eval(ctx.snap, name),
            ExprKind::Rate(inner) => {
                let v = inner.eval(ctx);
                let key = inner.canonical();
                ctx.next.insert(key.clone(), v);
                match ctx.prev.get(&key) {
                    Some(p) => v - p,
                    None => f64::NAN,
                }
            }
            ExprKind::Binary(op, a, b) => {
                let (a, b) = (a.eval(ctx), b.eval(ctx));
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    _ => a / b,
                }
            }
        }
    }

    /// A canonical textual form — the `rate()` memory key and the JSON
    /// export's `expr` field.
    #[must_use]
    pub fn canonical(&self) -> String {
        match &self.0 {
            ExprKind::Const(v) => fmt_f64(*v),
            ExprKind::Select(sel, name) => format!("{}({name})", sel.name()),
            ExprKind::Rate(inner) => format!("rate({})", inner.canonical()),
            ExprKind::Binary(op, a, b) => {
                format!("({} {op} {})", a.canonical(), b.canonical())
            }
        }
    }
}

/// `record NAME = EXPR`: fold a derived value into the history store
/// every evaluation.
#[derive(Debug, Clone)]
pub struct RecordRule {
    /// Series name the result folds into.
    pub name: String,
    /// The derived expression.
    pub expr: Expr,
}

/// `alert NAME if EXPR OP CONST for N [severity S]`.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Rule name (notification and export key).
    pub name: String,
    /// Left-hand side of the condition.
    pub expr: Expr,
    /// The comparison operator.
    pub cmp: Cmp,
    /// Right-hand side constant.
    pub threshold: f64,
    /// Consecutive true evaluations required before firing.
    pub for_ticks: u32,
    /// Severity (default warning).
    pub severity: Severity,
}

/// `slo NAME objective F good EXPR total EXPR window N [warn F] [crit F]`.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// SLO name.
    pub name: String,
    /// Target good/total ratio in `[0, 1)` — e.g. `0.95`.
    pub objective: f64,
    /// Cumulative good-event expression.
    pub good: Expr,
    /// Cumulative total-event expression.
    pub total: Expr,
    /// Sliding window length in evaluations (weeks).
    pub window: u32,
    /// Burn rate at which the SLO turns `warning` (default 1).
    pub warn: f64,
    /// Burn rate at which the SLO turns `critical` (default 2; critical
    /// counts as a firing alert for `/health`).
    pub crit: f64,
}

/// A parsed rules file.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Recording rules, in file order.
    pub records: Vec<RecordRule>,
    /// Alert rules, in file order.
    pub alerts: Vec<AlertRule>,
    /// SLO rules, in file order.
    pub slos: Vec<SloRule>,
}

impl RuleSet {
    /// Whether the set holds no rules at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.alerts.is_empty() && self.slos.is_empty()
    }
}

// ---------------------------------------------------------------------
// Config parsing
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    i: usize,
    /// Expression levels open at the cursor (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor { bytes: s.as_bytes(), i: 0, depth: 0 }
    }

    /// Opens one expression level, failing past [`MAX_DEPTH`].
    fn nest(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("expression nests deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.i < self.bytes.len() && self.bytes[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Reads an identifier-ish word: letters, digits, `_`, `-`, `/`, `.`.
    fn word(&mut self) -> Option<&'a str> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'/' | b'.'))
        {
            self.i += 1;
        }
        (self.i > start).then(|| std::str::from_utf8(&self.bytes[start..self.i]).unwrap_or(""))
    }

    /// Consumes `kw` if it is the next whole word.
    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let save = self.i;
        match self.word() {
            Some(w) if w == kw => true,
            _ => {
                self.i = save;
                false
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let start = self.i;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.i += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit() || b == b'.') {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.i]).ok()?.parse().ok()
    }

    fn rest(&self) -> &'a str {
        std::str::from_utf8(&self.bytes[self.i..]).unwrap_or("")
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.i >= self.bytes.len()
    }
}

fn parse_expr(c: &mut Cursor<'_>) -> Result<Expr, String> {
    parse_chain(c, b"+-", parse_term)
}

fn parse_term(c: &mut Cursor<'_>) -> Result<Expr, String> {
    parse_chain(c, b"*/", parse_factor)
}

/// A left-associative chain `operand (op operand)*` over `ops`. Each link
/// nests the tree built so far one level deeper, so it counts against
/// [`MAX_DEPTH`] until the chain ends.
fn parse_chain(
    c: &mut Cursor<'_>,
    ops: &[u8],
    operand: fn(&mut Cursor<'_>) -> Result<Expr, String>,
) -> Result<Expr, String> {
    let depth = c.depth;
    let mut lhs = operand(c)?;
    loop {
        c.skip_ws();
        match c.peek() {
            Some(op) if ops.contains(&op) => {
                c.i += 1;
                c.nest()?;
                let rhs = operand(c)?;
                lhs = Expr(ExprKind::Binary(op as char, Box::new(lhs), Box::new(rhs)));
            }
            _ => {
                c.depth = depth;
                return Ok(lhs);
            }
        }
    }
}

fn parse_factor(c: &mut Cursor<'_>) -> Result<Expr, String> {
    c.skip_ws();
    match c.peek() {
        Some(b'(') => {
            c.i += 1;
            c.nest()?;
            let e = parse_expr(c)?;
            c.skip_ws();
            if !c.eat(b')') {
                return Err("expected ')'".into());
            }
            c.depth -= 1;
            Ok(e)
        }
        Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' || b == b'.' => {
            c.number().map(|v| Expr(ExprKind::Const(v))).ok_or_else(|| "bad number".into())
        }
        Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
            let word = c.word().unwrap_or("");
            c.skip_ws();
            if !c.eat(b'(') {
                return Err(format!("expected '(' after '{word}'"));
            }
            if word == "rate" {
                c.nest()?;
                let inner = parse_expr(c)?;
                c.skip_ws();
                if !c.eat(b')') {
                    return Err("expected ')' closing rate(...)".into());
                }
                c.depth -= 1;
                return Ok(Expr(ExprKind::Rate(Box::new(inner))));
            }
            let sel = Selector::parse(word).ok_or_else(|| {
                format!("unknown selector '{word}' (counter, gauge, series_last, dist_count, rate)")
            })?;
            // Metric names contain '/', which also means division, so a
            // selector argument is everything up to the closing paren.
            let start = c.i;
            while c.peek().is_some_and(|b| b != b')') {
                c.i += 1;
            }
            if !c.eat(b')') {
                return Err(format!("expected ')' closing {word}(...)"));
            }
            let name =
                std::str::from_utf8(&c.bytes[start..c.i - 1]).unwrap_or("").trim().to_string();
            if name.is_empty() {
                return Err(format!("{word}() needs a metric name"));
            }
            Ok(Expr(ExprKind::Select(sel, name)))
        }
        _ => Err(format!("expected expression, found '{}'", c.rest().trim())),
    }
}

fn parse_cmp(c: &mut Cursor<'_>) -> Result<Cmp, String> {
    c.skip_ws();
    let two = |c: &mut Cursor<'_>, next: u8, yes: Cmp, no: Cmp| {
        if c.eat(next) {
            yes
        } else {
            no
        }
    };
    match c.peek() {
        Some(b'<') => {
            c.i += 1;
            Ok(two(c, b'=', Cmp::Le, Cmp::Lt))
        }
        Some(b'>') => {
            c.i += 1;
            Ok(two(c, b'=', Cmp::Ge, Cmp::Gt))
        }
        Some(b'=') => {
            c.i += 1;
            if c.eat(b'=') {
                Ok(Cmp::Eq)
            } else {
                Err("expected '==' (single '=' is assignment)".into())
            }
        }
        Some(b'!') => {
            c.i += 1;
            if c.eat(b'=') {
                Ok(Cmp::Ne)
            } else {
                Err("expected '!='".into())
            }
        }
        _ => Err(format!("expected comparison operator, found '{}'", c.rest().trim())),
    }
}

/// Parses a rules file: one rule per line, blank lines and `#` comments
/// ignored. Errors carry 1-based line numbers.
///
/// ```text
/// # derived series
/// record dispatch/precision = counter(sim/proactive_hits) / counter(sim/proactive_visits)
/// # drift alarm with two-week hysteresis
/// alert feature-drift if series_last(telemetry/psi_max) >= 0.3 for 2 severity critical
/// # error-budget SLO over an 8-week window
/// slo dispatch-precision objective 0.5 good counter(sim/proactive_hits) \
///     total counter(sim/proactive_visits) window 8 warn 1.0 crit 2.0
/// ```
pub fn parse_rules(text: &str) -> Result<RuleSet, String> {
    let mut set = RuleSet::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        parse_rule_line(line, &mut set).map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(set)
}

fn parse_rule_line(line: &str, set: &mut RuleSet) -> Result<(), String> {
    let mut c = Cursor::new(line);
    if c.keyword("record") {
        c.skip_ws();
        let name = c.word().ok_or("record needs a series name")?.to_string();
        c.skip_ws();
        if !c.eat(b'=') {
            return Err("expected '=' after the record name".into());
        }
        let expr = parse_expr(&mut c)?;
        if !c.at_end() {
            return Err(format!("trailing input: '{}'", c.rest().trim()));
        }
        set.records.push(RecordRule { name, expr });
        return Ok(());
    }
    if c.keyword("alert") {
        c.skip_ws();
        let name = c.word().ok_or("alert needs a name")?.to_string();
        if !c.keyword("if") {
            return Err("expected 'if' after the alert name".into());
        }
        let expr = parse_expr(&mut c)?;
        let cmp = parse_cmp(&mut c)?;
        let threshold = c.number().ok_or("alert threshold must be a number")?;
        if !c.keyword("for") {
            return Err("expected 'for N' (evaluations of hysteresis; use 'for 1' for none)".into());
        }
        let for_ticks = c.number().ok_or("'for' needs a count")? as u32;
        let severity = if c.keyword("severity") {
            c.skip_ws();
            let w = c.word().ok_or("severity needs a value")?;
            Severity::parse(w).ok_or_else(|| format!("unknown severity '{w}'"))?
        } else {
            Severity::Warning
        };
        if !c.at_end() {
            return Err(format!("trailing input: '{}'", c.rest().trim()));
        }
        set.alerts.push(AlertRule { name, expr, cmp, threshold, for_ticks, severity });
        return Ok(());
    }
    if c.keyword("slo") {
        c.skip_ws();
        let name = c.word().ok_or("slo needs a name")?.to_string();
        if !c.keyword("objective") {
            return Err("expected 'objective F'".into());
        }
        let objective = c.number().ok_or("objective must be a number")?;
        if !(0.0..1.0).contains(&objective) {
            return Err("objective must be in [0, 1)".into());
        }
        if !c.keyword("good") {
            return Err("expected 'good EXPR'".into());
        }
        let good = parse_expr(&mut c)?;
        if !c.keyword("total") {
            return Err("expected 'total EXPR'".into());
        }
        let total = parse_expr(&mut c)?;
        if !c.keyword("window") {
            return Err("expected 'window N' (evaluations)".into());
        }
        let window = c.number().ok_or("'window' needs a count")? as u32;
        if window == 0 {
            return Err("window must be at least 1".into());
        }
        let warn =
            if c.keyword("warn") { c.number().ok_or("'warn' needs a burn rate")? } else { 1.0 };
        let crit =
            if c.keyword("crit") { c.number().ok_or("'crit' needs a burn rate")? } else { 2.0 };
        if !c.at_end() {
            return Err(format!("trailing input: '{}'", c.rest().trim()));
        }
        set.slos.push(SloRule { name, objective, good, total, window, warn, crit });
        return Ok(());
    }
    Err(format!(
        "unknown rule kind '{}' (record, alert, slo)",
        line.split_whitespace().next().unwrap_or("")
    ))
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Live status of one alert rule.
#[derive(Debug, Clone, Copy)]
struct AlertStatus {
    state: AlertState,
    ticks: u32,
    since_day: Option<u64>,
    value: f64,
}

/// Live status of one SLO: the sliding window of cumulative
/// `(day, good, total)` readings plus the derived burn rate.
#[derive(Debug, Clone)]
struct SloStatus {
    readings: VecDeque<(u64, f64, f64)>,
    burn: f64,
    level: Severity,
    healthy: bool,
    since_day: Option<u64>,
}

struct EngineState {
    alerts: Vec<AlertStatus>,
    slos: Vec<SloStatus>,
    rate_prev: BTreeMap<String, f64>,
    firing: u64,
    evaluations: u64,
    last_eval_day: Option<u64>,
}

/// An installed [`RuleSet`] plus its evolving evaluation state and
/// notification ring.
pub struct RuleEngine {
    rules: RuleSet,
    state: Mutex<EngineState>,
    notifications: TraceBuffer,
}

impl RuleEngine {
    /// Builds an engine with every alert inactive and empty SLO windows.
    #[must_use]
    pub fn new(rules: RuleSet) -> Self {
        let alerts = rules
            .alerts
            .iter()
            .map(|_| AlertStatus {
                state: AlertState::Inactive,
                ticks: 0,
                since_day: None,
                value: f64::NAN,
            })
            .collect();
        let slos = rules
            .slos
            .iter()
            .map(|_| SloStatus {
                readings: VecDeque::new(),
                burn: 0.0,
                level: Severity::Warning,
                healthy: true,
                since_day: None,
            })
            .collect();
        let notifications = TraceBuffer::new(NOTIFICATION_CAPACITY);
        notifications.set_enabled(true);
        RuleEngine {
            rules,
            state: Mutex::new(EngineState {
                alerts,
                slos,
                rate_prev: BTreeMap::new(),
                firing: 0,
                evaluations: 0,
                last_eval_day: None,
            }),
            notifications,
        }
    }

    /// Number of alerts currently firing (critical SLO burns included).
    pub fn firing(&self) -> u64 {
        lock_recovering(&self.state).firing
    }

    /// The engine's verdict ([`Health::Healthy`], `Warning` or `Alert`)
    /// and the names of what is firing — alert rules in file order, then
    /// SLOs burning at their critical rate — read under one lock so the
    /// two agree.
    pub fn health(&self) -> (Health, Vec<String>) {
        let st = lock_recovering(&self.state);
        let mut health = Health::Healthy;
        let mut firing = Vec::new();
        for (rule, status) in self.rules.alerts.iter().zip(&st.alerts) {
            if status.state == AlertState::Firing {
                health = health.max(match rule.severity {
                    Severity::Warning => Health::Warning,
                    Severity::Critical => Health::Alert,
                });
                firing.push(rule.name.clone());
            }
        }
        for (rule, status) in self.rules.slos.iter().zip(&st.slos) {
            if !status.healthy && status.level == Severity::Critical {
                health = Health::Alert;
                firing.push(rule.name.clone());
            }
        }
        (health, firing)
    }

    /// Evaluates every rule against one registry snapshot at simulated
    /// day `day`. Transitions append notifications; recording rules and
    /// SLO burn rates fold into the history store as derived series.
    pub fn evaluate(&self, day: u64, snap: &Snapshot) {
        // Everything is computed under the state lock into local vecs —
        // pure data — then the side effects (history folds, gauges,
        // notification emits) run after the guard drops.
        let mut samples: Vec<(String, f64)> = Vec::new();
        // SLO burns are keyed by rule *index* under the lock; the
        // `slo/<name>/burn` series names are rendered after it drops.
        let mut slo_burns: Vec<(usize, f64)> = Vec::new();
        let mut events: Vec<TraceEvent> = Vec::new();
        let (firing, pending) = {
            let mut st = lock_recovering(&self.state);
            let st = &mut *st;
            st.evaluations += 1;
            st.last_eval_day = Some(day);
            let prev = std::mem::take(&mut st.rate_prev);
            let mut next = BTreeMap::new();
            let mut ctx = EvalCtx { snap, prev: &prev, next: &mut next };

            for rule in &self.rules.records {
                let v = rule.expr.eval(&mut ctx);
                if v.is_finite() {
                    samples.push((rule.name.clone(), v));
                }
            }

            let mut firing = 0u64;
            let mut pending = 0u64;
            for (rule, status) in self.rules.alerts.iter().zip(&mut st.alerts) {
                let v = rule.expr.eval(&mut ctx);
                let cond = cmp_holds(rule.cmp, v, rule.threshold);
                let (state, ticks) = step_alert(status.state, status.ticks, cond, rule.for_ticks);
                if state != status.state {
                    status.since_day = Some(day);
                    events.push(
                        TraceEvent::new("alert")
                            .day(day as u32)
                            .attr("rule", rule.name.clone())
                            .attr("from", status.state.name())
                            .attr("to", state.name())
                            .attr("value", v)
                            .attr("threshold", rule.threshold)
                            .attr("severity", rule.severity.name()),
                    );
                }
                status.state = state;
                status.ticks = ticks;
                status.value = v;
                match state {
                    AlertState::Firing => firing += 1,
                    AlertState::Pending => pending += 1,
                    _ => {}
                }
            }

            for (si, (rule, status)) in self.rules.slos.iter().zip(&mut st.slos).enumerate() {
                let good = rule.good.eval(&mut ctx);
                let total = rule.total.eval(&mut ctx);
                if good.is_finite() && total.is_finite() {
                    status.readings.push_back((day, good, total));
                    while status.readings.len() > rule.window as usize + 1 {
                        status.readings.pop_front();
                    }
                }
                let burn = match (status.readings.front(), status.readings.back()) {
                    (Some(&(d0, g0, t0)), Some(&(d1, g1, t1))) if d1 > d0 && t1 > t0 => {
                        let error_rate = ((t1 - t0) - (g1 - g0)) / (t1 - t0);
                        error_rate / (1.0 - rule.objective)
                    }
                    _ => 0.0,
                };
                status.burn = burn;
                let (healthy, level) = if burn >= rule.crit {
                    (false, Severity::Critical)
                } else if burn >= rule.warn {
                    (false, Severity::Warning)
                } else {
                    (true, Severity::Warning)
                };
                if healthy != status.healthy || (!healthy && level != status.level) {
                    status.since_day = Some(day);
                    events.push(
                        TraceEvent::new("alert")
                            .day(day as u32)
                            .attr("rule", rule.name.clone())
                            .attr("from", slo_level_name(status.healthy, status.level))
                            .attr("to", slo_level_name(healthy, level))
                            .attr("burn", burn)
                            .attr("objective", rule.objective)
                            .attr("severity", level.name()),
                    );
                }
                status.healthy = healthy;
                status.level = level;
                if !healthy && level == Severity::Critical {
                    firing += 1;
                }
                slo_burns.push((si, burn));
            }

            st.rate_prev = next;
            st.firing = firing;
            (firing, pending)
        };

        for (name, v) in samples {
            crate::history::record_sample(&name, day, v);
        }
        for (si, burn) in slo_burns {
            let name = format!("slo/{}/burn", self.rules.slos[si].name);
            crate::history::record_sample(&name, day, burn);
        }
        for e in events {
            self.notifications.emit(e);
        }
        if crate::enabled() {
            crate::global().gauge("alerts/firing").set(firing as f64);
            crate::global().gauge("alerts/pending").set(pending as f64);
        }
    }

    /// Renders the `GET /alerts` payload: alert states, SLO burn rates,
    /// and the notification log, under the `nevermind-history/v1`
    /// schema. `indent` is the base indentation (`""` for the HTTP
    /// endpoint, two spaces inside a metrics dump).
    pub fn status_json(&self, indent: &str) -> String {
        let (alerts, slos, evaluations, last_day, firing) = {
            let st = lock_recovering(&self.state);
            (st.alerts.clone(), st.slos.clone(), st.evaluations, st.last_eval_day, st.firing)
        };
        let notifications = self.notifications.snapshot();
        let pad = format!("{indent}  ");
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("{pad}\"schema\": \"{}\",\n", crate::history::SCHEMA));
        out.push_str(&format!("{pad}\"evaluations\": {evaluations},\n"));
        out.push_str(&format!(
            "{pad}\"last_eval_day\": {},\n",
            last_day.map_or("null".to_string(), |d| d.to_string())
        ));
        out.push_str(&format!("{pad}\"firing\": {firing},\n"));

        out.push_str(&format!("{pad}\"alerts\": ["));
        for (i, (rule, status)) in self.rules.alerts.iter().zip(&alerts).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{pad}  {{\"name\": "));
            push_json_string(&mut out, &rule.name);
            out.push_str(&format!(
                ", \"state\": \"{}\", \"severity\": \"{}\", \"expr\": ",
                status.state.name(),
                rule.severity.name()
            ));
            push_json_string(&mut out, &rule.expr.canonical());
            out.push_str(&format!(
                ", \"op\": \"{}\", \"threshold\": {}, \"for\": {}, \"pending_ticks\": {}, \
                 \"value\": {}, \"since_day\": {}}}",
                rule.cmp.name(),
                fmt_f64(rule.threshold),
                rule.for_ticks,
                status.ticks,
                fmt_f64(status.value),
                status.since_day.map_or("null".to_string(), |d| d.to_string())
            ));
        }
        if !self.rules.alerts.is_empty() {
            out.push_str(&format!("\n{pad}"));
        }
        out.push_str("],\n");

        out.push_str(&format!("{pad}\"slos\": ["));
        for (i, (rule, status)) in self.rules.slos.iter().zip(&slos).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{pad}  {{\"name\": "));
            push_json_string(&mut out, &rule.name);
            out.push_str(&format!(
                ", \"status\": \"{}\", \"objective\": {}, \"burn\": {}, \"window\": {}, \
                 \"warn\": {}, \"crit\": {}, \"since_day\": {}}}",
                slo_level_name(status.healthy, status.level),
                fmt_f64(rule.objective),
                fmt_f64(status.burn),
                rule.window,
                fmt_f64(rule.warn),
                fmt_f64(rule.crit),
                status.since_day.map_or("null".to_string(), |d| d.to_string())
            ));
        }
        if !self.rules.slos.is_empty() {
            out.push_str(&format!("\n{pad}"));
        }
        out.push_str("],\n");

        out.push_str(&format!("{pad}\"notifications\": ["));
        for (i, e) in notifications.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{pad}  "));
            let mut line = String::new();
            e.push_json_line(&mut line);
            out.push_str(line.trim_end());
        }
        if !notifications.is_empty() {
            out.push_str(&format!("\n{pad}"));
        }
        out.push_str("]\n");
        out.push_str(indent);
        out.push('}');
        out
    }
}

/// NaN-safe condition check: a condition over a missing metric is false.
fn cmp_holds(cmp: Cmp, v: f64, threshold: f64) -> bool {
    v.is_finite() && cmp.eval(v, threshold)
}

fn slo_level_name(healthy: bool, level: Severity) -> &'static str {
    if healthy {
        "healthy"
    } else {
        level.name()
    }
}

// ---------------------------------------------------------------------
// Process-global installation
// ---------------------------------------------------------------------

static ENGINE: OnceLock<Mutex<Option<Arc<RuleEngine>>>> = OnceLock::new();

fn slot() -> &'static Mutex<Option<Arc<RuleEngine>>> {
    ENGINE.get_or_init(|| Mutex::new(None))
}

/// Installs a rule set as the process-global engine, replacing any
/// previous one, and returns the installed engine.
pub fn install(rules: RuleSet) -> Arc<RuleEngine> {
    let engine = Arc::new(RuleEngine::new(rules));
    *lock_recovering(slot()) = Some(Arc::clone(&engine));
    engine
}

/// Removes the process-global engine (tests and teardown).
pub fn clear() {
    *lock_recovering(slot()) = None;
}

/// The installed engine, if any.
pub fn installed() -> Option<Arc<RuleEngine>> {
    lock_recovering(slot()).clone()
}

/// The process's one health verdict: [`RuleEngine::health`] of the
/// installed engine, or [`Health::None`] with nothing firing when no
/// engine is installed.
pub fn health() -> (Health, Vec<String>) {
    installed().map_or((Health::None, Vec::new()), |e| e.health())
}

/// Evaluates the installed engine, if any (the history tick calls this
/// once per closed simulated week).
pub fn evaluate(day: u64, snap: &Snapshot) {
    if let Some(engine) = installed() {
        engine.evaluate(day, snap);
    }
}

/// The `GET /alerts` payload — a disabled stub when no engine is
/// installed.
pub fn alerts_json() -> String {
    match installed() {
        Some(engine) => {
            let mut out = engine.status_json("");
            out.push('\n');
            out
        }
        None => format!(
            "{{\"schema\": \"{}\", \"enabled\": false, \"firing\": 0, \"alerts\": [], \
             \"slos\": [], \"notifications\": []}}\n",
            crate::history::SCHEMA
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with_gauge(name: &str, v: f64) -> Snapshot {
        let mut s = Snapshot::default();
        s.gauges.insert(name.to_string(), v);
        s
    }

    #[test]
    fn parses_all_three_rule_kinds_and_comments() {
        let set = parse_rules(
            "# comment\n\
             record dispatch/precision = counter(sim/proactive_hits) / counter(sim/proactive_visits)\n\
             \n\
             alert drift if series_last(telemetry/psi_max) >= 0.3 for 2 severity critical\n\
             slo precision objective 0.5 good counter(h) total counter(v) window 8 warn 1.5 crit 3\n",
        )
        .expect("parses");
        assert_eq!(set.records.len(), 1);
        assert_eq!(
            set.records[0].expr.canonical(),
            "(counter(sim/proactive_hits) / counter(sim/proactive_visits))"
        );
        let a = &set.alerts[0];
        assert_eq!(
            (a.cmp, a.threshold, a.for_ticks, a.severity),
            (Cmp::Ge, 0.3, 2, Severity::Critical)
        );
        let s = &set.slos[0];
        assert_eq!((s.objective, s.window, s.warn, s.crit), (0.5, 8, 1.5, 3.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_rules("record x = counter(a)\nbogus line\n").expect_err("rejects");
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(parse_rules("alert a if gauge(x) = 1 for 1").is_err(), "single '='");
        assert!(
            parse_rules("slo s objective 1.5 good counter(a) total counter(b) window 4").is_err()
        );
        assert!(parse_rules("record x = hist_p42(a)").is_err(), "unknown selector");
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let deep = |open: &str, close: &str, n: usize| {
            format!("alert a if {}counter(x){} > 1 for 1", open.repeat(n), close.repeat(n))
        };
        let chain = |n: usize| format!("alert a if counter(x){} > 1 for 1", " + 1".repeat(n));
        let too_deep = "line 2: expression nests deeper than 64 levels";
        for text in [deep("(", ")", 50_000), deep("rate(", ")", 20_000), chain(300_000)] {
            assert_eq!(parse_rules(&format!("# hostile\n{text}")).expect_err("rejects"), too_deep);
        }
        for text in [deep("(", ")", 65), deep("rate(", ")", 65), chain(65)] {
            assert_eq!(parse_rules(&format!("\n{text}")).expect_err("rejects"), too_deep);
        }
        for text in [deep("(", ")", 64), deep("rate(", ")", 64), chain(64)] {
            assert!(parse_rules(&text).is_ok(), "64 levels parse: {text}");
        }
        // Sibling groups do not add up: a group's levels close with it.
        let wide = vec![format!("({})", "(".repeat(60) + "1" + &")".repeat(60)); 3].join(" * ");
        assert!(parse_rules(&format!("record r = {wide}")).is_ok());
    }

    #[test]
    fn health_is_the_worst_firing_severity() {
        let set = parse_rules(
            "alert w if gauge(g) > 0 for 1\n\
             alert c if gauge(g) > 1 for 1 severity critical\n\
             slo s objective 0.9 good counter(good) total counter(total) window 4",
        )
        .expect("parses");
        let engine = RuleEngine::new(set);
        let reading = |g: f64, good: u64, total: u64| {
            let mut s = snap_with_gauge("g", g);
            s.counters.insert("good".into(), good);
            s.counters.insert("total".into(), total);
            s
        };
        assert_eq!(engine.health(), (Health::Healthy, vec![]), "nothing evaluated yet");
        engine.evaluate(6, &reading(0.0, 90, 100));
        assert_eq!(engine.health(), (Health::Healthy, vec![]));
        engine.evaluate(13, &reading(1.0, 180, 200));
        assert_eq!(engine.health(), (Health::Warning, vec!["w".to_string()]));
        engine.evaluate(20, &reading(2.0, 270, 300));
        assert_eq!(engine.health(), (Health::Alert, vec!["w".to_string(), "c".to_string()]));
        // A critical SLO burn alone is an alert too.
        engine.evaluate(27, &reading(0.0, 270, 400));
        assert_eq!(engine.health(), (Health::Alert, vec!["s".to_string()]));
        assert_eq!(
            [Health::None, Health::Healthy, Health::Warning, Health::Alert].map(Health::name),
            ["none", "healthy", "warning", "alert"]
        );
    }

    #[test]
    fn expressions_evaluate_with_nan_for_missing_metrics() {
        let set = parse_rules(
            "record r = (counter(a) + 1) * 2 - gauge(g)\nrecord miss = counter(absent)\n",
        )
        .expect("parses");
        let mut snap = snap_with_gauge("g", 3.0);
        snap.counters.insert("a".into(), 4);
        let prev = BTreeMap::new();
        let mut next = BTreeMap::new();
        let mut ctx = EvalCtx { snap: &snap, prev: &prev, next: &mut next };
        assert_eq!(set.records[0].expr.eval(&mut ctx), 7.0);
        assert!(set.records[1].expr.eval(&mut ctx).is_nan());
    }

    #[test]
    fn rate_is_the_delta_between_evaluations() {
        let set = parse_rules("record r = rate(counter(a))").expect("parses");
        let expr = &set.records[0].expr;
        let mut prev = BTreeMap::new();
        for (value, expect) in [(10u64, None), (25, Some(15.0)), (25, Some(0.0))] {
            let mut snap = Snapshot::default();
            snap.counters.insert("a".into(), value);
            let mut next = BTreeMap::new();
            let v = expr.eval(&mut EvalCtx { snap: &snap, prev: &prev, next: &mut next });
            match expect {
                None => assert!(v.is_nan(), "first evaluation has no delta"),
                Some(e) => assert_eq!(v, e),
            }
            prev = next;
        }
    }

    #[test]
    fn alert_state_machine_honors_for_duration() {
        // for 3: two true ticks stay pending, the third fires.
        let mut s = (AlertState::Inactive, 0u32);
        s = step_alert(s.0, s.1, true, 3);
        assert_eq!(s.0, AlertState::Pending);
        s = step_alert(s.0, s.1, true, 3);
        assert_eq!(s.0, AlertState::Pending);
        s = step_alert(s.0, s.1, true, 3);
        assert_eq!(s.0, AlertState::Firing);
        // A false tick resolves, then returns to inactive.
        s = step_alert(s.0, s.1, false, 3);
        assert_eq!(s.0, AlertState::Resolved);
        s = step_alert(s.0, s.1, false, 3);
        assert_eq!(s.0, AlertState::Inactive);
        // A flap out of pending aborts without ever firing.
        let (st, t) = step_alert(AlertState::Pending, 1, false, 3);
        assert_eq!((st, t), (AlertState::Inactive, 0));
        // for 1 (or 0) fires immediately.
        assert_eq!(step_alert(AlertState::Inactive, 0, true, 1).0, AlertState::Firing);
        assert_eq!(step_alert(AlertState::Resolved, 0, true, 0).0, AlertState::Firing);
    }

    #[test]
    fn engine_fires_notifies_and_counts() {
        let set =
            parse_rules("alert drift if gauge(g) >= 1 for 2 severity critical").expect("parses");
        let engine = RuleEngine::new(set);
        engine.evaluate(6, &snap_with_gauge("g", 2.0));
        assert_eq!(engine.firing(), 0, "pending after one tick");
        engine.evaluate(13, &snap_with_gauge("g", 2.0));
        assert_eq!(engine.firing(), 1, "fires after the for-duration");
        engine.evaluate(20, &snap_with_gauge("g", 0.0));
        assert_eq!(engine.firing(), 0, "resolves when the condition clears");
        let json = engine.status_json("");
        assert!(json.contains("\"schema\": \"nevermind-history/v1\""), "{json}");
        assert!(json.contains("\"state\": \"resolved\""), "{json}");
        let transitions: Vec<&str> = ["pending", "firing", "resolved"]
            .into_iter()
            .filter(|t| json.contains(&format!("\"to\":\"{t}\"")))
            .collect();
        assert_eq!(transitions, vec!["pending", "firing", "resolved"], "{json}");
    }

    #[test]
    fn slo_burn_rate_tracks_the_error_budget() {
        let set = parse_rules(
            "slo prec objective 0.9 good counter(good) total counter(total) window 4 warn 1 crit 3",
        )
        .expect("parses");
        let engine = RuleEngine::new(set);
        let reading = |g: u64, t: u64| {
            let mut s = Snapshot::default();
            s.counters.insert("good".into(), g);
            s.counters.insert("total".into(), t);
            s
        };
        engine.evaluate(6, &reading(90, 100));
        assert_eq!(engine.firing(), 0, "one reading has no delta yet");
        // Next week: 100 more events, only 50 good → 50% errors against a
        // 10% budget → burn 5 ≥ crit 3 → firing.
        engine.evaluate(13, &reading(140, 200));
        assert_eq!(engine.firing(), 1);
        let json = engine.status_json("");
        assert!(json.contains("\"status\": \"critical\""), "{json}");
        assert!(json.contains("\"burn\": 5.0"), "{json}");
        // Two clean weeks shrink the windowed burn below warn.
        engine.evaluate(20, &reading(240, 300));
        engine.evaluate(27, &reading(340, 400));
        engine.evaluate(34, &reading(440, 500));
        engine.evaluate(41, &reading(540, 600));
        assert_eq!(engine.firing(), 0, "window slides past the bad week");
    }

    #[test]
    fn install_clear_round_trip() {
        clear();
        assert!(installed().is_none());
        assert_eq!(health(), (Health::None, vec![]), "no engine, no verdict");
        assert!(alerts_json().contains("\"enabled\": false"));
        let engine = install(parse_rules("alert a if gauge(g) > 0 for 1").expect("parses"));
        assert!(installed().is_some());
        assert_eq!(health(), (Health::Healthy, vec![]));
        engine.evaluate(6, &snap_with_gauge("g", 1.0));
        assert_eq!(engine.firing(), 1);
        assert_eq!(health(), (Health::Warning, vec!["a".to_string()]));
        assert!(alerts_json().contains("\"firing\": 1"));
        clear();
        assert!(installed().is_none());
    }
}
