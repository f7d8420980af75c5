//! The acceptor blocks in `accept` and `drain` wakes it: an idle server
//! stops promptly whether it drains before or while `serve` waits, and
//! back-to-back requests are not paced by any accept poll.

use metaopt_server::client::request;
use metaopt_server::{serve, GapServer, ServerConfig};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open(tag: &str) -> Arc<GapServer> {
    let dir = std::env::temp_dir().join(format!("metaopt-acceptor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    GapServer::open(ServerConfig {
        name: format!("acceptor-{tag}"),
        dir,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Runs `serve` on its own thread; the receiver yields its result.
fn spawn_serve(
    server: &Arc<GapServer>,
    listener: TcpListener,
) -> mpsc::Receiver<std::io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = tx.send(serve(&server, listener));
    });
    rx
}

fn cleanup(server: &GapServer) {
    let _ = std::fs::remove_dir_all(&server.config().dir);
}

#[test]
fn serve_returns_at_once_when_drained_before_it_starts() {
    let server = open("drained-first");
    server.drain("test");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let done = spawn_serve(&server, listener);
    done.recv_timeout(Duration::from_secs(1))
        .expect("serve must return within 1 s")
        .unwrap();
    cleanup(&server);
}

#[test]
fn drain_wakes_an_idle_blocked_acceptor() {
    let server = open("drained-while-blocked");
    // A wildcard listener: the wake-up must reach it over loopback.
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let done = spawn_serve(&server, listener);
    // An answered request shows the acceptor registered and back in its
    // `accept` loop.
    let resp = request(
        &format!("127.0.0.1:{port}"),
        "GET",
        "/healthz",
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(done.try_recv().is_err(), "serve returned before the drain");
    server.drain("test");
    done.recv_timeout(Duration::from_secs(1))
        .expect("serve must return within 1 s of the drain")
        .unwrap();
    cleanup(&server);
}

#[test]
fn back_to_back_requests_are_not_paced_by_the_acceptor() {
    let server = open("back-to-back");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let done = spawn_serve(&server, listener);
    let started = Instant::now();
    for _ in 0..50 {
        let resp = request(&addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    let took = started.elapsed();
    server.drain("test");
    done.recv_timeout(Duration::from_secs(1))
        .expect("serve must return within 1 s of the drain")
        .unwrap();
    cleanup(&server);
    assert!(
        took < Duration::from_millis(500),
        "50 sequential GET /healthz took {took:?}"
    );
}
