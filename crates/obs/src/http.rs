//! The live observability plane: a zero-dependency HTTP/1.1 endpoint
//! over the process-global registry, trace ring, and profiler.
//!
//! PRs 2–5 built the metrics registry, model-health telemetry, and the
//! decision-provenance trace ring, but all of them exported *post
//! mortem* — a dump on exit. [`ObsServer`] serves the same data live
//! from inside a running `trial`/`simulate` (and, eventually,
//! `nevermind serve`):
//!
//! | Endpoint                  | Body                                        |
//! |---------------------------|---------------------------------------------|
//! | `GET /metrics`            | `nevermind-metrics/v1` JSON                 |
//! | `GET /metrics?format=prom`| Prometheus text exposition (v0.0.4)         |
//! | `GET /health`             | rule-engine verdict; `alert` ⇒ 503          |
//! | `GET /history?series=NAME&r=RES` | windowed series, `nevermind-history/v1` |
//! | `GET /alerts`             | alert/SLO states + notifications            |
//! | `GET /trace/tail?n=N`     | newest N ring events, `nevermind-trace/v1`  |
//! | `GET /explain?line=ID`    | one line's causal chain, rendered as text   |
//! | `GET /profile`            | collapsed-stack profiler dump (`a;b;c N`)   |
//!
//! The server is hand-rolled on [`std::net::TcpListener`] — request line
//! plus headers only, one thread per connection, `Connection: close` — in
//! the workspace's no-ecosystem-crates discipline. Every handler reads a
//! point-in-time snapshot and serializes off-lock, so a scraper polling
//! `/metrics` never stalls recorders (see
//! [`crate::MetricsRegistry::snapshot`]).
//!
//! **Determinism:** handlers only *read* shared state — registry
//! snapshots, trace-ring copies, profiler aggregates. Nothing flows from
//! the server back into the pipeline, so a run with the plane attached
//! produces byte-identical outcomes and trace exports to one without
//! (pinned in `tests/observability.rs`).

use crate::rules::Health;
use crate::trace::render_explain;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Longest request head (request line + headers) the server reads.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout: a stalled client cannot pin its
/// handler thread for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// Default event count for `/trace/tail` when `n` is absent.
const DEFAULT_TAIL: usize = 100;
/// Largest `/trace/tail?n=` a client may ask for; the ring itself is
/// orders of magnitude smaller, so anything past this is a typo or a
/// probe, and gets a typed 400 instead of a silently clamped export.
const MAX_TAIL: usize = 1_000_000;

/// A running observability endpoint bound to one local address.
///
/// Binding `127.0.0.1:0` picks an ephemeral port; [`ObsServer::local_addr`]
/// reports the bound one. Dropping the server (or calling
/// [`ObsServer::stop`]) shuts the accept loop down and joins it.
pub struct ObsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, or `127.0.0.1:0` for an
    /// ephemeral port) and starts the accept loop on a background thread.
    pub fn start(addr: &str) -> Result<ObsServer, String> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind obs listener '{addr}': {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve obs listener address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("obs-http".to_string())
            .spawn(move || accept_loop(&listener, &loop_stop))
            .map_err(|e| format!("cannot spawn obs accept thread: {e}"))?;
        Ok(ObsServer { local_addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the accept loop.
    /// In-flight handler threads finish their one response and exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.accept_thread.take() else { return };
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the stop flag.
        if let Ok(s) = TcpStream::connect(self.local_addr) {
            drop(s);
        }
        let _ = handle.join();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until the stop flag is set, spawning one detached handler
/// thread per connection.
fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = thread::Builder::new()
            .name("obs-http-conn".to_string())
            .spawn(move || handle_connection(stream));
    }
}

/// Reads one request head and writes one response.
fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Some(head) = read_request_head(&mut stream) else { return };
    let response = match parse_request_line(&head) {
        None => Response::text(400, "malformed request line\n"),
        Some((method, _)) if method != "GET" => Response::text(405, "only GET is supported\n"),
        Some((_, target)) => route(target),
    };
    response.write_to(&mut stream);
}

/// Reads until the blank line ending the headers, EOF, or the size cap.
/// The server never reads a body (every endpoint is GET).
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(chunk.get(..n)?);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    String::from_utf8(buf).ok()
}

/// Splits `GET /path?query HTTP/1.1` into `("GET", "/path?query")`.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    Some((method, target))
}

/// Looks a query parameter up in the `?k=v&k=v` part of a target.
/// Values are taken verbatim (no percent-decoding — every parameter the
/// plane understands is a plain integer or keyword).
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// One HTTP response about to be written.
struct Response {
    code: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn new(code: u16, content_type: &'static str, body: String) -> Response {
        Response { code, content_type, body }
    }

    fn text(code: u16, body: &str) -> Response {
        Response::new(code, "text/plain; charset=utf-8", body.to_string())
    }

    fn json(code: u16, body: String) -> Response {
        Response::new(code, "application/json", body)
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let reason = match self.code {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.code,
            reason,
            self.content_type,
            self.body.len()
        );
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(self.body.as_bytes());
        let _ = stream.flush();
    }
}

/// Dispatches one request target to its endpoint.
fn route(target: &str) -> Response {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/" => Response::text(
            200,
            "nevermind live observability plane\n\
             endpoints:\n\
             GET /metrics             nevermind-metrics/v1 JSON\n\
             GET /metrics?format=prom Prometheus text exposition\n\
             GET /health              rule-engine health verdict (alert => 503)\n\
             GET /history?series=NAME&r=day|week  windowed history (nevermind-history/v1)\n\
             GET /alerts              alert/SLO states + notification log\n\
             GET /trace/tail?n=N      newest N trace events (JSONL)\n\
             GET /explain?line=ID     one line's causal chain (text)\n\
             GET /profile             collapsed-stack profiler dump\n",
        ),
        "/metrics" => match query_param(query, "format") {
            Some("prom") => Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                crate::json::snapshot_to_prometheus(&crate::global().snapshot()),
            ),
            Some(other) => {
                Response::text(400, &format!("unknown metrics format '{other}' (try prom)\n"))
            }
            None => Response::json(
                200,
                crate::json::snapshot_to_json_with_history(&crate::global().snapshot()),
            ),
        },
        "/health" => respond_health(),
        "/history" => respond_history(query),
        "/alerts" => Response::json(200, crate::rules::alerts_json()),
        "/trace/tail" => {
            let n = match query_param(query, "n") {
                None => DEFAULT_TAIL,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(0) => {
                        return Response::text(
                            400,
                            "n must be at least 1 (an empty tail has no header to validate)\n",
                        )
                    }
                    Ok(n) if n > MAX_TAIL => {
                        return Response::text(
                            400,
                            &format!("n must be at most {MAX_TAIL} (got {n})\n"),
                        )
                    }
                    Ok(n) => n,
                    Err(_) => {
                        return Response::text(
                            400,
                            &format!("n must be a non-negative integer (got '{raw}')\n"),
                        )
                    }
                },
            };
            Response::new(
                200,
                "application/jsonl; charset=utf-8",
                crate::trace::global().tail_jsonl(n),
            )
        }
        "/explain" => respond_explain(query),
        "/profile" => Response::text(200, &crate::profile::global().collapsed()),
        _ => Response::text(404, &format!("no such endpoint: {path}\n")),
    }
}

/// `GET /history?series=NAME&r=day|week`: one series' retained windows
/// from the global history store; without `series=`, the index of
/// captured series names. Unknown resolutions are a typed 400, an
/// uncaptured series a 404.
fn respond_history(query: &str) -> Response {
    let resolution = match query_param(query, "r") {
        None => crate::history::Resolution::Week,
        Some(raw) => match crate::history::Resolution::parse(raw) {
            Some(r) => r,
            None => {
                return Response::text(
                    400,
                    &format!("unknown resolution '{raw}' (try r=day or r=week)\n"),
                )
            }
        },
    };
    match query_param(query, "series") {
        None => Response::json(200, crate::history::global().index_json()),
        Some(name) => match crate::history::global().series_json(name, resolution) {
            Some(body) => Response::json(200, body),
            None => Response::text(
                404,
                &format!(
                    "series '{name}' was never captured (GET /history lists the {} known)\n",
                    crate::history::global().names().len()
                ),
            ),
        },
    }
}

/// `GET /health`: the rule engine's verdict ([`crate::rules::health`]) as
/// JSON, with the firing alerts' names and the model-health monitor's week
/// count, mapped to HTTP 503 for `alert` and 200 otherwise, so a load
/// balancer or alertmanager can act on the status code alone.
fn respond_health() -> Response {
    let weeks = crate::global()
        .snapshot()
        .counters
        .get(crate::json::TELEMETRY_WEEKS_COUNTER)
        .copied()
        .unwrap_or(0);
    let (health, firing) = crate::rules::health();
    health_response(health, &firing, weeks)
}

fn health_response(health: Health, firing: &[String], weeks: u64) -> Response {
    let mut body = String::with_capacity(256);
    body.push_str("{\n  \"schema\": \"nevermind-health/v1\",\n  \"status\": \"");
    body.push_str(health.name());
    body.push_str("\",\n  \"weeks_observed\": ");
    body.push_str(&weeks.to_string());
    body.push_str(",\n  \"alerts_firing\": ");
    body.push_str(&firing.len().to_string());
    body.push_str(",\n  \"firing\": [");
    for (i, name) in firing.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        crate::json::push_json_string(&mut body, name);
    }
    body.push_str("]\n}\n");
    Response::json(if health == Health::Alert { 503 } else { 200 }, body)
}

/// `GET /explain?line=ID`: renders the line's causal chain from the live
/// trace ring (the `nevermind explain` view without the file round-trip).
fn respond_explain(query: &str) -> Response {
    let Some(raw) = query_param(query, "line") else {
        return Response::text(400, "missing ?line=ID\n");
    };
    let Ok(line) = raw.strip_prefix("LineId#").unwrap_or(raw).parse::<u32>() else {
        return Response::text(400, &format!("line must be a line index (got '{raw}')\n"));
    };
    let events = crate::trace::global().snapshot();
    match render_explain(&events, u64::from(line), "live trace ring") {
        Some(text) => Response::text(200, &text),
        None => {
            let mut traced: Vec<u32> = events.iter().filter_map(|e| e.line).collect();
            traced.sort_unstable();
            traced.dedup();
            Response::text(
                404,
                &format!(
                    "no trace events for line {line}; the live ring covers {} lines\n",
                    traced.len()
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn request_line_and_query_parsing() {
        assert_eq!(
            parse_request_line("GET /metrics?format=prom HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics?format=prom"))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(query_param("format=prom&n=5", "n"), Some("5"));
        assert_eq!(query_param("format=prom", "n"), None);
        assert_eq!(query_param("", "n"), None);
    }

    #[test]
    fn routes_reject_unknown_paths_and_bad_params() {
        assert_eq!(route("/nope").code, 404);
        assert_eq!(route("/metrics?format=xml").code, 400);
        assert_eq!(route("/trace/tail?n=minus").code, 400);
        assert_eq!(route("/explain").code, 400);
        assert_eq!(route("/explain?line=abc").code, 400);
        assert_eq!(route("/").code, 200);
    }

    #[test]
    fn query_param_edge_cases_get_typed_400s_not_empty_bodies() {
        // Every rejection is a 400 with a human-readable reason — never
        // an empty 200 the caller has to disambiguate.
        for target in [
            "/trace/tail?n=0",
            "/trace/tail?n=184467440737095516",
            "/trace/tail?n=-3",
            "/trace/tail?n=",
            "/metrics?format=",
            "/metrics?format=yaml",
            "/history?r=hour",
            "/history?r=",
            "/explain",
            "/explain?line=",
        ] {
            let r = route(target);
            assert_eq!(r.code, 400, "{target} should be a typed 400");
            assert!(!r.body.trim().is_empty(), "{target} 400 carries a reason");
        }
        // The happy paths around those edges still answer.
        assert_eq!(route("/trace/tail?n=1").code, 200);
        assert_eq!(route("/trace/tail").code, 200);
    }

    #[test]
    fn history_and_alerts_routes_serve_schema_tagged_payloads() {
        let index = route("/history");
        assert_eq!(index.code, 200);
        assert!(index.body.contains("\"schema\":\"nevermind-history/v1\""), "{}", index.body);
        assert_eq!(route("/history?series=never-captured-series-xyz").code, 404);
        let alerts = route("/alerts");
        assert_eq!(alerts.code, 200);
        assert!(alerts.body.contains("nevermind-history/v1"), "{}", alerts.body);
        assert!(route("/").body.contains("GET /alerts"), "index lists the new endpoints");
        assert!(route("/").body.contains("GET /history"), "index lists the new endpoints");
    }

    #[test]
    fn health_answers_503_for_alert_only() {
        let engine = crate::rules::RuleEngine::new(
            crate::rules::parse_rules(
                "alert slow if gauge(g) > 0 for 1\nalert down if gauge(g) > 1 for 1 severity critical",
            )
            .expect("parses"),
        );
        let verdict_at = |day: u64, g: f64| {
            let mut snap = crate::registry::Snapshot::default();
            snap.gauges.insert("g".into(), g);
            engine.evaluate(day, &snap);
            let (health, firing) = engine.health();
            health_response(health, &firing, 3)
        };
        let healthy = verdict_at(6, 0.0);
        assert_eq!(healthy.code, 200);
        assert!(healthy.body.contains("\"status\": \"healthy\""), "{}", healthy.body);
        let warning = verdict_at(13, 1.0);
        assert_eq!(warning.code, 200, "a warning alone keeps /health at 200");
        assert!(warning.body.contains("\"status\": \"warning\""), "{}", warning.body);
        assert!(warning.body.contains("\"firing\": [\"slow\"]"), "{}", warning.body);
        let alert = verdict_at(20, 2.0);
        assert_eq!(alert.code, 503);
        assert!(alert.body.contains("\"status\": \"alert\""), "{}", alert.body);
        assert!(alert.body.contains("\"alerts_firing\": 2"), "{}", alert.body);
        assert!(alert.body.contains("\"weeks_observed\": 3"), "{}", alert.body);
        assert_eq!(health_response(Health::None, &[], 0).code, 200);
    }

    #[test]
    fn explain_renders_a_causal_chain_from_ring_events() {
        let events = vec![
            TraceEvent::new("rank")
                .line(7)
                .day(209)
                .attr("rank", 3u64)
                .attr("probability", 0.81)
                .attr("dispatched", 1u64),
            TraceEvent::new("score").line(7).day(209).attr("margin", 1.5).attr("stumps", 40u64),
            TraceEvent::new("stump")
                .line(7)
                .day(209)
                .attr("order", 0u64)
                .attr("name", "wretrx_z")
                .attr("value", 3.2)
                .attr("threshold", 1.1)
                .attr("vote", 0.4),
            TraceEvent::new("dispatch")
                .line(7)
                .day(209)
                .attr("due_day", 212u64)
                .attr("proactive", 1u64),
            TraceEvent::new("visit")
                .line(7)
                .day(211)
                .attr("proactive", 1u64)
                .attr("found_fault", 1u64)
                .attr("disposition", "HN")
                .attr("tests_performed", 3u64)
                .attr("minutes_spent", 45.0),
            TraceEvent::new("locate")
                .line(7)
                .day(211)
                .attr("disposition", "HN-STUB")
                .attr("location", "HN")
                .attr("flat_probability", 0.25)
                .attr("combined_probability", 0.5),
        ];
        let text = render_explain(&events, 7, "live trace ring").expect("line 7 is traced");
        assert!(text.starts_with("decision provenance for line 7 — live trace ring\n"), "{text}");
        assert!(text.contains("week ending day 209: rank 3"), "{text}");
        assert!(text.contains("DISPATCHED"), "{text}");
        assert!(text.contains("wretrx_z"), "{text}");
        assert!(text.contains("dispatch scheduled on day 209 (due day 212, proactive)"), "{text}");
        assert!(text.contains("disposition HN (found a fault)"), "{text}");
        assert!(text.contains("trouble locator (flat vs combined posteriors)"), "{text}");
        assert!(text.contains("HN-STUB"), "{text}");
        assert!(render_explain(&events, 8, "live trace ring").is_none());
    }

    #[test]
    fn server_round_trips_over_a_real_socket() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        let fetch = |target: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            let req = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
            s.write_all(req.as_bytes()).expect("send");
            let mut body = String::new();
            s.read_to_string(&mut body).expect("read");
            body
        };
        let index = fetch("/");
        assert!(index.starts_with("HTTP/1.1 200 OK\r\n"), "{index}");
        assert!(index.contains("GET /metrics"), "{index}");
        let missing = fetch("/nothing-here");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let health = fetch("/health");
        assert!(health.contains("\"schema\": \"nevermind-health/v1\""), "{health}");
        server.stop();
    }
}
