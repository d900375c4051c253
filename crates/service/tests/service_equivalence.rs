//! Service-vs-in-process equivalence on the checked-in example specs:
//! the aggregate (and raw) CSV served by the daemon must be byte-identical
//! to [`run_campaign`]'s, a daemon restart must resume entirely from the
//! cache (100% cached, zero recompute), and the HTTP layer must carry the
//! same bytes end to end.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsps_scenario::{run_campaign, CampaignOptions, CampaignSpec};
use lsps_service::daemon::config_under;
use lsps_service::http::{get, post};
use lsps_service::{Daemon, DaemonConfig};

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lsps-service-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp root");
    dir
}

fn test_config(root: &Path) -> DaemonConfig {
    let mut cfg = config_under(root, env!("CARGO_BIN_EXE_lsps-worker"));
    cfg.workers = 3;
    cfg.base_dir = Some(examples_dir());
    cfg
}

fn wait_complete(daemon: &Daemon, id: &str, deadline: Duration) -> String {
    let start = Instant::now();
    loop {
        let status = daemon.status_json(id).expect("submitted campaign");
        if status.contains("\"complete\":true") {
            return status;
        }
        assert!(
            start.elapsed() < deadline,
            "campaign {id} did not complete in {deadline:?}: {status}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn in_process_reference(spec_text: &str) -> lsps_scenario::CampaignReport {
    let spec: CampaignSpec = serde_json::from_str(spec_text).expect("example spec parses");
    run_campaign(
        &spec,
        &CampaignOptions {
            cache_dir: None,
            threads: 0,
            base_dir: Some(examples_dir()),
        },
    )
    .expect("in-process run")
}

/// The tentpole acceptance loop for one spec: run sharded, compare bytes,
/// restart, assert 100% cached resume, compare bytes again.
fn daemon_matches_in_process(spec_file: &str, tag: &str) {
    let root = temp_root(tag);
    let spec_text = fs::read_to_string(examples_dir().join(spec_file)).expect("example spec");
    let reference = in_process_reference(&spec_text);

    let daemon = Daemon::start(test_config(&root)).expect("daemon starts");
    let id = daemon.submit(&spec_text).expect("spec accepted");
    // Idempotent: an equivalent resubmission maps to the same campaign.
    assert_eq!(daemon.submit(&spec_text).expect("resubmit"), id);
    wait_complete(&daemon, &id, Duration::from_secs(300));
    let (raw, agg) = daemon.csvs(&id).expect("complete campaign has CSVs");
    assert_eq!(raw, reference.raw_csv, "raw CSV differs from in-process");
    assert_eq!(
        agg, reference.aggregate_csv,
        "aggregate CSV differs from in-process"
    );
    daemon.shutdown();

    // Restart on the same cache + journal: the journal replay resumes the
    // campaign with every cell served from cache, zero recompute.
    let daemon = Daemon::start(test_config(&root)).expect("daemon restarts");
    let status = wait_complete(&daemon, &id, Duration::from_secs(60));
    assert!(
        status.contains(&format!("\"cached\":{}", reference.total)),
        "restart must resume 100% from cache: {status}"
    );
    let (raw2, agg2) = daemon.csvs(&id).expect("resumed campaign has CSVs");
    assert_eq!(raw2, reference.raw_csv, "resumed raw CSV differs");
    assert_eq!(agg2, reference.aggregate_csv, "resumed aggregate differs");
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn small_campaign_service_equivalence() {
    daemon_matches_in_process("small_campaign.json", "small");
}

#[test]
fn outcomes_campaign_service_equivalence() {
    daemon_matches_in_process("outcomes_campaign.json", "outcomes");
}

#[test]
fn http_api_end_to_end() {
    let root = temp_root("http");
    let spec_text =
        fs::read_to_string(examples_dir().join("outcomes_campaign.json")).expect("example spec");
    let reference = in_process_reference(&spec_text);

    let daemon = Daemon::start(test_config(&root)).expect("daemon starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve(listener))
    };

    let (status, body) = get(&addr, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = post(&addr, "/campaigns", &spec_text).expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("status body carries the id")
        .to_string();

    // Progress polling over HTTP; aggregate is 409 until complete. The
    // campaign may finish between the status read and the aggregate fetch,
    // so an early 200 is accepted only if a status read right after it
    // reports complete; completion is monotone, so that status cannot
    // precede the completion the 200 claims.
    let start = Instant::now();
    loop {
        let (status, body) = get(&addr, &format!("/campaigns/{id}")).expect("status");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"complete\":true") {
            break;
        }
        let (code, _) = get(&addr, &format!("/campaigns/{id}/aggregate")).expect("early fetch");
        if code == 200 {
            let (status, body) = get(&addr, &format!("/campaigns/{id}")).expect("status");
            assert_eq!(status, 200, "{body}");
            assert!(
                body.contains("\"complete\":true"),
                "aggregate served while running: {body}"
            );
            break;
        }
        assert_eq!(code, 409, "aggregate must refuse while running");
        assert!(
            start.elapsed() < Duration::from_secs(300),
            "campaign did not complete: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, agg) = get(&addr, &format!("/campaigns/{id}/aggregate")).expect("aggregate");
    assert_eq!(status, 200);
    assert_eq!(agg, reference.aggregate_csv, "HTTP aggregate differs");
    let (status, raw) = get(&addr, &format!("/campaigns/{id}/raw")).expect("raw");
    assert_eq!(status, 200);
    assert_eq!(raw, reference.raw_csv, "HTTP raw CSV differs");

    let (status, _) = get(&addr, "/campaigns/ffffffffffffffff").expect("unknown id");
    assert_eq!(status, 404);
    let (status, _) = post(&addr, "/campaigns", "{not json").expect("bad spec");
    assert_eq!(status, 400);
    // Parses, but fails validation: reversed log-uniform bounds would
    // panic every worker that ran a cell of it.
    let good = fs::read_to_string(examples_dir().join("small_campaign.json")).expect("example");
    let bounds = r#""work_s": {"LogUniform": [30.0, 600.0]}"#;
    assert!(good.contains(bounds));
    let reversed = good.replace(bounds, r#""work_s": {"LogUniform": [600.0, 30.0]}"#);
    let (status, body) = post(&addr, "/campaigns", &reversed).expect("invalid spec");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("work_s"), "{body}");
    let (status, _) = get(&addr, "/nope").expect("bad path");
    assert_eq!(status, 404);

    daemon.shutdown();
    server.join().expect("server thread").expect("serve exits");
    let _ = fs::remove_dir_all(&root);
}
