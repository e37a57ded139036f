//! Unannounced-session smoke test: a standalone `gc serve` daemon answers
//! `QUERY` from a session that never sent `VERSION`. The file keeps its
//! historical name; the routed-fleet tests it once held went away with
//! the fleet, and this is the case from it that still applies.

use graphcache::core::{CostModel, GraphCache};
use graphcache::graph::GraphDataset;
use graphcache::methods::MethodBuilder;
use graphcache::server::{Client, QueryFrame, QueryOutcome, ServeConfig, Server};
use graphcache::workload::{generate_type_a, DatasetProfile, TypeAConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A per-test unix-socket path (tests run in parallel in one process).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gc-route-smoke-{}-{tag}.sock", std::process::id()))
}

fn dataset() -> GraphDataset {
    DatasetProfile::aids().scaled(0.05).generate(11)
}

fn queries(dataset: &GraphDataset, count: usize) -> Vec<graphcache::graph::LabeledGraph> {
    generate_type_a(dataset, &TypeAConfig::zz(1.4).count(count).seed(13))
        .graphs()
        .cloned()
        .collect()
}

fn make_cache(dataset: &GraphDataset) -> GraphCache {
    let method = MethodBuilder::ggsx().build(dataset);
    GraphCache::builder()
        .capacity(25)
        .window(8)
        .eviction("hd")
        .cost_model(CostModel::Work)
        .try_build(method)
        .expect("cache builds")
}

/// Connects, tolerating the gap between bind and the accept loop.
fn connect(socket: &Path) -> Client {
    for _ in 0..200 {
        match Client::connect_unix(socket) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("daemon at {socket:?} never accepted");
}

fn frame(id: u64, graph: &graphcache::graph::LabeledGraph) -> QueryFrame {
    QueryFrame {
        id,
        graph: graph.clone(),
        kind: None,
        verify_budget: None,
        max_hits: None,
        bypass: false,
        timeout_ms: None,
        allow: None,
    }
}

/// A standalone daemon never version-gates: clients that do not announce
/// `VERSION` get their queries answered.
#[test]
fn unrouted_daemons_accept_unannounced_queries() {
    let data = dataset();
    let workload = queries(&data, 1);
    let socket = socket_path("ungated");
    let cfg = ServeConfig {
        unix: Some(socket.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind(make_cache(&data), cfg).expect("bind");
    let daemon = std::thread::spawn(move || server.run());

    let mut client = connect(&socket);
    match client.query(frame(1, &workload[0])).expect("query") {
        QueryOutcome::Result(r) => assert_eq!(r.id, 1),
        QueryOutcome::Busy { .. } => panic!("unexpected BUSY"),
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("join").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}
