//! End-to-end test of the actual `goggles-served` binary: spawn it on an
//! ephemeral loopback port with a snapshot written to disk, label a batch
//! through [`RemoteLabeler`], assert bit-exact agreement with in-process
//! inference, and verify the wire shutdown op produces a clean exit.

use goggles_core::GogglesConfig;
use goggles_datasets::{generate, TaskConfig, TaskKind};
use goggles_serve::{FittedLabeler, Labeler, RemoteLabeler};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kill the child on drop so a failing assert never leaks a server process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn served_binary_speaks_the_wire_protocol_and_shuts_down_cleanly() {
    // --- fixture: fit, snapshot to disk ------------------------------
    let seed = 91u64;
    let mut task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 6, seed);
    task.image_size = 32;
    let ds = generate(&task);
    let dev = ds.sample_dev_set(3, seed);
    let config = GogglesConfig { seed, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).expect("fixture fit");
    let dir = std::env::temp_dir().join("goggles_served_binary_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("snapshot.ggl");
    labeler.save_to(&snap_path).unwrap();

    // --- spawn the real binary on an ephemeral port ------------------
    let child = Command::new(env!("CARGO_BIN_EXE_goggles-served"))
        .args([
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--conn-threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn goggles-served");
    let mut child = Reaper(child);
    let stdout = child.0.stdout.take().expect("piped stdout");

    // The first two stdout lines carry the resolved wire and metrics
    // addresses; read them with a timeout guard so a broken server fails
    // the test instead of hanging.
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = std::io::BufReader::new(stdout).lines();
        for _ in 0..2 {
            let _ = addr_tx.send(lines.next().and_then(Result::ok).unwrap_or_default());
        }
        // Drain the rest so the child never blocks on a full pipe.
        for _ in lines.by_ref() {}
    });
    let banner =
        addr_rx.recv_timeout(Duration::from_secs(120)).expect("server never printed its address");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let metrics_banner = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server never printed its metrics address");
    let metrics_addr = metrics_banner
        .strip_prefix("metrics listening on ")
        .unwrap_or_else(|| panic!("unexpected metrics banner {metrics_banner:?}"))
        .to_string();

    // --- label a batch remotely, compare with in-process answers -----
    let client = RemoteLabeler::connect(addr.as_str()).expect("connect to served binary");
    let images = ds.test_images();
    let responses = client.label_all(&images).expect("remote labeling");
    for (i, (resp, img)) in responses.iter().zip(&images).enumerate() {
        let (expected_label, expected_probs) = labeler.label_one(img);
        assert_eq!(resp.label, expected_label, "image {i}");
        assert_eq!(resp.probs, expected_probs, "image {i}: must be bit-identical");
        assert_eq!(resp.version, 1, "image {i}");
    }
    let remote = client.metrics().expect("remote metrics");
    let requests = scrape_value(&remote, "goggles_requests_total{result=\"ok\"}");
    assert_eq!(requests, Some(images.len() as f64), "remote request count:\n{remote}");
    assert_eq!(scrape_value(&remote, "goggles_snapshot_version"), Some(1.0));

    // --- scrape the HTTP metrics front -------------------------------
    let body = http_get_metrics(&metrics_addr);
    for family in ["goggles_requests_total", "goggles_stage_latency_us", "goggles_snapshot_version"]
    {
        assert!(body.contains(&format!("# TYPE {family}")), "scrape missing {family}:\n{body}");
    }
    assert!(
        body.lines().any(|l| l.starts_with("goggles_snapshot_version ")
            && l.split_whitespace().nth(1) == Some("1")),
        "snapshot version gauge wrong:\n{body}"
    );
    let served: u64 = body
        .lines()
        .filter(|l| l.starts_with("goggles_requests_total{"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    assert_eq!(served, images.len() as u64, "scraped request count:\n{body}");

    // --- clean shutdown over the wire --------------------------------
    client.shutdown_server().expect("shutdown op");
    drop(client);
    let status = wait_with_timeout(&mut child.0, Duration::from_secs(60))
        .expect("server did not exit after the shutdown op");
    assert!(status.success(), "server exited with {status:?}");
    reader.join().expect("stdout reader");
    std::fs::remove_file(&snap_path).ok();
}

/// The binary's `/healthz` readiness front must flip from `200 ready` to
/// `503 draining` the moment the wire shutdown op lands, and the process
/// must still exit cleanly once the drain grace window elapses.
#[test]
fn served_binary_healthz_flips_during_drain() {
    let child = Command::new(env!("CARGO_BIN_EXE_goggles-served"))
        .args([
            "--demo-fit",
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--conn-threads",
            "2",
            // A generous grace window so the draining state is observable
            // from outside before the process exits.
            "--drain-grace-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn goggles-served");
    let mut child = Reaper(child);
    let stdout = child.0.stdout.take().expect("piped stdout");

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = std::io::BufReader::new(stdout).lines();
        for _ in 0..2 {
            let _ = addr_tx.send(lines.next().and_then(Result::ok).unwrap_or_default());
        }
        for _ in lines.by_ref() {}
    });
    let banner =
        addr_rx.recv_timeout(Duration::from_secs(120)).expect("server never printed its address");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let metrics_banner = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server never printed its metrics address");
    let metrics_addr = metrics_banner
        .strip_prefix("metrics listening on ")
        .unwrap_or_else(|| panic!("unexpected metrics banner {metrics_banner:?}"))
        .to_string();

    // Before the drain: ready.
    let (head, body) = http_get(&metrics_addr, "/healthz");
    assert!(head.starts_with("HTTP/1.0 200"), "pre-drain healthz: {head}");
    assert_eq!(body, "ready\n");

    // Kick off the drain over the wire, then watch the probe flip. The
    // flag flips before the grace window starts, so polling right after
    // the shutdown ack must observe 503 well before the process exits.
    let client = RemoteLabeler::connect(addr.as_str()).expect("connect to served binary");
    client.shutdown_server().expect("shutdown op");
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (head, body) = http_get(&metrics_addr, "/healthz");
        if head.starts_with("HTTP/1.0 503") {
            assert_eq!(body, "draining\n");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "healthz never flipped to draining");
        std::thread::sleep(Duration::from_millis(20));
    }

    let status = wait_with_timeout(&mut child.0, Duration::from_secs(60))
        .expect("server did not exit after the drain");
    assert!(status.success(), "server exited with {status:?}");
    reader.join().expect("stdout reader");
}

/// Pull the value of one series (the family name plus its label block as
/// rendered) out of a Prometheus text exposition.
fn scrape_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(series))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Raw HTTP/1.0 `GET /metrics` against the binary's scrape endpoint; the
/// headers are skipped and the body returned.
fn http_get_metrics(addr: &str) -> String {
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "scrape failed: {head}");
    body
}

/// Raw HTTP/1.0 GET returning `(head, body)` without asserting a status,
/// so probes can watch for expected non-200 answers (`503 draining`).
fn http_get(addr: &str, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to HTTP endpoint");
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("malformed HTTP response");
    (head.to_string(), body.to_string())
}

/// `Child::wait` with a crude polling timeout (std has no native one).
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let start = std::time::Instant::now();
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if start.elapsed() > timeout {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
