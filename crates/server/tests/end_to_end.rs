//! End-to-end over real sockets: ingest → query → exposition, load
//! shedding at the accept gate under overload, and graceful drain.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use teemon_obs::probes;
use teemon_server::{http_get, http_post, percent_encode, HttpLimits, Server, ServerConfig};
use teemon_tsdb::TimeSeriesDb;

fn quick_limits() -> HttpLimits {
    HttpLimits { header_timeout_ms: 400, body_timeout_ms: 400, ..HttpLimits::default() }
}

#[test]
fn write_query_and_metrics_roundtrip_over_tcp() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), TimeSeriesDb::new())
        .expect("bind loopback");
    let addr = server.addr();

    // Push three batches of remote-write samples.
    for (t, v) in [(0u64, 100.0), (1, 140.0), (2, 180.0)] {
        let doc = format!(
            "# TYPE sgx_pages_evicted_total counter\nsgx_pages_evicted_total{{node=\"n1\"}} {v} {}\n",
            t * 5_000
        );
        let resp =
            http_post(addr, "/api/v1/write", "text/plain", doc.as_bytes()).expect("post batch");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        assert!(resp.body_text().contains(r#""ingested":1"#), "{}", resp.body_text());
    }

    // Instant query sees the data.
    let q = percent_encode("sgx_pages_evicted_total");
    let resp = http_get(addr, &format!("/api/v1/query?query={q}&time=10")).expect("query");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""status":"success""#), "{body}");
    assert!(body.contains(r#""180""#), "{body}");

    // Range query over HTTP returns a matrix with all three points.
    let q = percent_encode("sgx_pages_evicted_total");
    let resp = http_get(addr, &format!("/api/v1/query_range?query={q}&start=0&end=10&step=5"))
        .expect("range query");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""resultType":"matrix""#), "{body}");

    // The exposition edge federates the stored series back out.
    let resp = http_get(addr, "/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("sgx_pages_evicted_total"), "{}", resp.body_text());

    assert!(server.shutdown(), "drain must complete");
}

#[test]
fn overload_is_shed_with_503_before_parsing() {
    let config =
        ServerConfig { max_inflight: 1, limits: quick_limits(), ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();
    let before = probes::HTTP_SHED.get();

    // Occupy the single slot with a half-sent request...
    let mut hog = TcpStream::connect(addr).expect("hog connects");
    hog.write_all(b"GET /healthz HTT").expect("partial write");
    std::thread::sleep(Duration::from_millis(50)); // let the acceptor admit it

    // ...then the next clients are shed with an O(1) 503 + Retry-After.
    let resp = http_get(addr, "/healthz").expect("shed response still parses");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(probes::HTTP_SHED.get() > before);

    // Once the hog is gone (it times out at 400 ms), capacity returns.
    drop(hog);
    let mut ok = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        if http_get(addr, "/healthz").map(|r| r.status).unwrap_or(0) == 200 {
            ok = true;
            break;
        }
    }
    assert!(ok, "server must recover capacity after the slow client is gone");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let config = ServerConfig { limits: quick_limits(), ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();

    // Ingest something so the final WAL flush has work to do.
    let resp =
        http_post(addr, "/api/v1/write", "text/plain", b"drain_demo_total 1\n").expect("post");
    assert_eq!(resp.status, 200);

    assert!(server.shutdown(), "drain completes under the deadline");

    // The listener is gone: connects are refused (or reset immediately).
    let after = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    if let Ok(mut stream) = after {
        // A lingering backlog connection must at least never be served.
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
        use std::io::Read;
        let _ = stream.read_to_end(&mut buf);
        assert!(buf.is_empty(), "no responses after shutdown: {:?}", String::from_utf8_lossy(&buf));
    }
}

#[test]
fn panic_shield_holds_over_tcp() {
    let config = ServerConfig { panic_route: true, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();

    let resp = http_get(addr, "/panic").expect("the 500 still arrives");
    assert_eq!(resp.status, 500);

    // The worker died shielded; the server still answers.
    let resp = http_get(addr, "/healthz").expect("still serving");
    assert_eq!(resp.status, 200);
    assert!(server.shutdown());
}

/// Reads one `Content-Length`-framed response off a keep-alive stream and
/// returns its status line.
fn read_response(stream: &mut TcpStream) -> String {
    use std::io::Read;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let length = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .expect("Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    head.lines().next().unwrap_or_default().to_string()
}

/// Each response goes out as two writes (head, then body).  With Nagle's
/// algorithm on, the body waits for the ACK of the head, and a client
/// that delays its ACKs (the Linux default without `TCP_QUICKACK`) stalls
/// about 40 ms per response — ten sequential keep-alive requests over a
/// plain socket then take about 400 ms.  They must finish in under half
/// that.
#[test]
fn keep_alive_responses_do_not_wait_for_delayed_acks() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), TimeSeriesDb::new())
        .expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let start = std::time::Instant::now();
    for _ in 0..10 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        assert_eq!(read_response(&mut stream), "HTTP/1.1 200 OK");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "10 keep-alive requests took {elapsed:?}: responses are stalling on delayed ACKs"
    );
    drop(stream);
    assert!(server.shutdown());
}
