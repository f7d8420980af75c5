//! HTTP API over the job server: routing, status mapping, the bounded
//! blocking acceptor, and the chunked event stream.
//!
//! | Route                     | Meaning                                   |
//! |---------------------------|-------------------------------------------|
//! | `POST /jobs`              | Admit a job (durable before the `202`)    |
//! | `GET /jobs`               | List all jobs                             |
//! | `GET /jobs/{id}`          | One job's status and certified result     |
//! | `GET /jobs/{id}/events`   | NDJSON lifecycle stream (chunked)         |
//! | `DELETE /jobs/{id}`       | Cancel (drain running work to checkpoint) |
//! | `POST /admin/drain`       | Graceful shutdown                         |
//! | `GET /admin/trace`        | Flight-recorder tail (NDJSON)             |
//! | `GET /metrics`            | Prometheus text exposition                |
//! | `GET /healthz`            | Liveness + queue depth                    |
//!
//! Every request is counted and timed into the per-route
//! `metaopt_server_requests_total` / `metaopt_server_request_seconds`
//! families (no-ops unless the server was opened with a live registry).

use crate::http::{
    read_request, write_error, write_json, write_response, ChunkedWriter, ReadError, Request,
};
use crate::json::Json;
use crate::server::{CancelError, GapServer, SubmitError};
use crate::spec::parse_submit;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent connections the acceptor will service; excess connections
/// are shed immediately with `503`, never queued behind slow handlers.
pub const MAX_CONNECTIONS: usize = 64;

/// Flight-recorder records served by `GET /admin/trace` (the recorder
/// ring itself is bounded; this just caps one response body).
pub const TRACE_TAIL: usize = 256;

/// Serves the job API on `listener` until [`GapServer::drain`] stops the
/// server. Thread-per-connection behind a hard cap.
///
/// The acceptor blocks in `accept`. It registers the listener's address
/// with the server first, and `drain` wakes it with one connection to
/// that address once the server has stopped.
pub fn serve(server: &Arc<GapServer>, listener: TcpListener) -> io::Result<()> {
    if !server.register_acceptor(listener.local_addr()?) {
        return Ok(());
    }
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if server.is_stopped() {
            return Ok(());
        }
        // A read timeout so a silent peer cannot pin a slot forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        if live.load(Ordering::Acquire) >= MAX_CONNECTIONS {
            server.metrics().shed_connections.inc();
            let _ = write_error(
                &mut stream,
                503,
                "overloaded",
                "connection limit reached",
                Some(1),
            );
            continue;
        }
        server
            .metrics()
            .active_connections
            .set((live.fetch_add(1, Ordering::AcqRel) + 1) as f64);
        let server = Arc::clone(server);
        let live = Arc::clone(&live);
        std::thread::spawn(move || {
            // A panicking handler must not leak its connection slot: after
            // `MAX_CONNECTIONS` leaked slots the acceptor would shed every
            // future connection with 503 forever. Contain the panic, always
            // release the slot, and tell the client what happened.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = handle(&server, &mut stream);
            }));
            if outcome.is_err() {
                let _ = write_error(
                    &mut stream,
                    500,
                    "internal_error",
                    "request handler panicked",
                    None,
                );
            }
            server
                .metrics()
                .active_connections
                .set((live.fetch_sub(1, Ordering::AcqRel) - 1) as f64);
        });
    }
}

/// Unblocks an acceptor waiting in `accept` on `addr` with one throwaway
/// connection; a wildcard address (`0.0.0.0`, `::`) is reached over
/// loopback. A refused connection means the acceptor is already gone.
pub(crate) fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn handle(server: &Arc<GapServer>, stream: &mut TcpStream) -> io::Result<()> {
    let req = match read_request(stream) {
        Ok(req) => req,
        Err(ReadError::Eof) => return Ok(()),
        Err(ReadError::Io(e)) => return Err(e),
        Err(ReadError::Malformed(why)) => {
            return write_error(stream, 400, "malformed_request", &why, None)
        }
        Err(ReadError::TooLarge) => {
            return write_error(stream, 413, "payload_too_large", "body exceeds limit", None)
        }
    };
    route(server, stream, &req)
}

fn route(server: &Arc<GapServer>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let handles = server.metrics().route(route_name(req.method.as_str(), &segments));
    let started = server.config().clock.now();
    let out = dispatch(server, stream, req, path, &segments);
    handles.requests.inc();
    handles
        .latency
        .observe((server.config().clock.now() - started).as_secs_f64());
    out
}

/// Maps a request onto the closed set of [`crate::metrics::ROUTES`]
/// label values (anything unrecognized buckets into `not_found`, so
/// scanners cannot mint unbounded label cardinality).
fn route_name(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["jobs"]) => "jobs_list",
        ("POST", ["jobs"]) => "jobs_submit",
        ("GET", ["jobs", _]) => "job_get",
        ("GET", ["jobs", _, "events"]) => "job_events",
        ("DELETE", ["jobs", _]) => "job_cancel",
        ("POST", ["admin", "drain"]) => "admin_drain",
        ("GET", ["admin", "trace"]) => "admin_trace",
        ("GET", ["metrics"]) => "metrics",
        _ => "not_found",
    }
}

fn dispatch(
    server: &Arc<GapServer>,
    stream: &mut TcpStream,
    req: &Request,
    path: &str,
    segments: &[&str],
) -> io::Result<()> {
    match (req.method.as_str(), segments) {
        ("GET", ["healthz"]) => {
            let mut body = server.status_json();
            if let Json::Obj(pairs) = &mut body {
                pairs.insert(0, ("ok".into(), Json::Bool(true)));
            }
            write_json(stream, 200, &body)
        }
        ("GET", ["jobs"]) => write_json(stream, 200, &server.jobs_json()),
        ("POST", ["jobs"]) => post_job(server, stream, req),
        ("GET", ["jobs", id]) => match parse_id(id) {
            None => bad_id(stream, id),
            Some(id) => match server.job_json(id) {
                Some(body) => write_json(stream, 200, &body),
                None => write_error(stream, 404, "not_found", &format!("no job {id}"), None),
            },
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id) {
            None => bad_id(stream, id),
            Some(id) => stream_events(server, stream, id),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            None => bad_id(stream, id),
            Some(id) => delete_job(server, stream, id),
        },
        ("POST", ["admin", "drain"]) => {
            let server = Arc::clone(server);
            // an:allow(AN104): detached one-shot; `drain` is idempotent,
            // takes no connection slot, and a panic in it aborts nothing
            // the acceptor tracks — there is no state to leak.
            std::thread::spawn(move || server.drain("admin request"));
            write_json(
                stream,
                202,
                &Json::obj(vec![("draining", Json::Bool(true))]),
            )
        }
        ("GET", ["metrics"]) => write_response(
            stream,
            200,
            &[],
            "text/plain; version=0.0.4",
            server.config().registry.render().as_bytes(),
        ),
        ("GET", ["admin", "trace"]) => write_response(
            stream,
            200,
            &[],
            "application/x-ndjson",
            server.config().tracer.tail_ndjson(TRACE_TAIL).as_bytes(),
        ),
        ("GET" | "POST" | "DELETE", _) => {
            write_error(stream, 404, "not_found", &format!("no route {path}"), None)
        }
        _ => write_error(
            stream,
            405,
            "method_not_allowed",
            &format!("method {} not supported", req.method),
            None,
        ),
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok().filter(|id| *id > 0)
}

fn bad_id(stream: &mut TcpStream, raw: &str) -> io::Result<()> {
    write_error(
        stream,
        400,
        "malformed_request",
        &format!("bad job id `{raw}`"),
        None,
    )
}

fn post_job(server: &Arc<GapServer>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let submit = match parse_submit(&req.body) {
        Ok(s) => s,
        Err(fault) => {
            return write_error(stream, 422, fault.kind(), fault.detail(), None);
        }
    };
    match server.submit(submit) {
        Ok((id, stats)) => write_response(
            stream,
            202,
            &[("Location", format!("/jobs/{id}"))],
            "application/json",
            Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("status", Json::str("pending")),
                ("model_vars", Json::Num(stats.n_vars as f64)),
            ])
            .render()
            .as_bytes(),
        ),
        Err(err) => {
            let fault = err.to_fault();
            match err {
                SubmitError::Unavailable => {
                    write_error(stream, 503, fault.kind(), fault.detail(), Some(5))
                }
                SubmitError::Quota(secs) => {
                    // INFINITY (zero-refill quota) clamps to the cap.
                    let advise = secs.ceil().clamp(1.0, 3600.0);
                    // `advise` is clamped to [1, 3600]; the cast is exact.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let advise = advise as u64;
                    write_error(stream, 429, fault.kind(), fault.detail(), Some(advise))
                }
                SubmitError::QueueFull(_) => {
                    write_error(stream, 429, fault.kind(), fault.detail(), Some(2))
                }
                SubmitError::Rejected(_) => {
                    write_error(stream, 422, fault.kind(), fault.detail(), None)
                }
                SubmitError::Fatal(_) => {
                    write_error(stream, 500, fault.kind(), fault.detail(), None)
                }
            }
        }
    }
}

fn delete_job(server: &Arc<GapServer>, stream: &mut TcpStream, id: u64) -> io::Result<()> {
    match server.cancel(id) {
        Ok(state) => write_json(
            stream,
            200,
            &Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("status", Json::str(state)),
            ]),
        ),
        Err(CancelError::NotFound) => {
            write_error(stream, 404, "not_found", &format!("no job {id}"), None)
        }
        Err(CancelError::AlreadyTerminal(state)) => write_error(
            stream,
            409,
            "conflict",
            &format!("job {id} is already {state}"),
            None,
        ),
        Err(CancelError::Fatal(detail)) => {
            write_error(stream, 500, "journal_failure", &detail, None)
        }
    }
}

/// Streams a job's lifecycle events as chunked NDJSON until the job
/// reaches a terminal state (or the server stops). Each event the worker
/// journals becomes one line; the client sees checkpoints live.
fn stream_events(server: &Arc<GapServer>, stream: &mut TcpStream, id: u64) -> io::Result<()> {
    // Resolve existence before committing to a 200 chunked head.
    let Some((mut events, mut seq, mut done)) =
        server.wait_events(id, 0, Duration::from_millis(0))
    else {
        return write_error(stream, 404, "not_found", &format!("no job {id}"), None);
    };
    let mut writer = ChunkedWriter::start(stream, 200)?;
    loop {
        for line in &events {
            let mut data = line.clone().into_bytes();
            data.push(b'\n');
            writer.chunk(&data)?;
        }
        if done {
            return writer.finish();
        }
        match server.wait_events(id, seq, Duration::from_millis(250)) {
            Some((fresh, next, d)) => {
                events = fresh;
                seq = next;
                done = d;
            }
            None => return writer.finish(),
        }
    }
}
