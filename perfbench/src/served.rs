//! The serving layer, measured in a traced run: the run's first stream
//! replayed through a real `gc serve` daemon on a unix socket, started
//! with `--restore` from the traced replay's final snapshot, by
//! closed-loop connections that each wait for their reply.

use crate::stats::median;
use crate::trace::Codec;
use crate::Ctx;
use gc_server::{Client, ClientError, QueryFrame, QueryOutcome, ResultFrame, StatsScope};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop connections, one per core of the 2-core reference host.
/// The daemon's permit pool is sized to match, so a query never meets
/// `BUSY` for want of a permit.
const CONNECTIONS: usize = 2;
/// Deadline attached to every served query; a miss counts as a failure.
const QUERY_TIMEOUT_MS: u64 = 10_000;
/// How long the daemon may take to come up or to drain.
const DAEMON_PATIENCE: Duration = Duration::from_secs(60);
/// `PING` round trips timed after the replay.
const PINGS: usize = 2000;

/// What serving the stream measured.
#[derive(Default)]
pub struct Served {
    /// Daemon spawn to the first `HELLO` (dataset load, Method M build,
    /// cache build, `--restore`, bind).
    pub ready: Duration,
    /// Replay wall time.
    pub wall: Duration,
    pub attempted: u64,
    /// Wrong answers, `BUSY`, `ERR` (deadline included) and transport
    /// errors.
    pub failed: u64,
    /// `BUSY` replies; never retried.
    pub busy: u64,
    /// Client round trip of every correct answer, in µs, sorted.
    pub latencies_us: Vec<f64>,
    /// Periodic snapshots the daemon committed during the replay.
    pub snapshots_written: u64,
    /// Median `PING` round trip: the serving cost with no cache work.
    pub ping_rtt: Duration,
    /// Codec cost of the served request and result frames.
    pub codec: Codec,
}

impl Served {
    /// Correct answers per second of replay.
    pub fn qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// A running `gc serve` child process; killed on drop unless it exited.
struct Daemon {
    child: Child,
    log: PathBuf,
}

impl Daemon {
    /// Starts the daemon inside the work directory (so every path it is
    /// given is a short relative one) and waits for its first `HELLO`.
    fn start(ctx: &Ctx, gc: &Path, restore: &str) -> Result<(Daemon, Client, Duration), String> {
        let spec = ctx.spec;
        let log = ctx.work.path("daemon.log");
        let out = File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let capacity = spec.capacity.to_string();
        let window = crate::workloads::WINDOW.to_string();
        let permits = CONNECTIONS.to_string();
        #[rustfmt::skip]
        let args = [
            "serve", "--dataset", "dataset.txt", "--unix", "gc.sock",
            "--method", spec.method.registry_name(), "--eviction", "hd",
            "--capacity", &capacity, "--window", &window, "--threads", "1",
            "--fragments", if spec.fragments { "on" } else { "off" },
            "--max-inflight", &permits, "--restore", restore,
            "--persist-on-exit", "served", "--persist-format", "binary",
            "--snapshot-every", "1",
        ];
        let gc =
            std::fs::canonicalize(gc).map_err(|e| format!("gc binary {}: {e}", gc.display()))?;
        let start = Instant::now();
        let child = Command::new(&gc)
            .args(args)
            .current_dir(ctx.work.path(""))
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gc.display()))?;
        let mut daemon = Daemon { child, log };
        let socket = ctx.work.path("gc.sock");
        loop {
            if let Ok(client) = Client::connect_unix(&socket) {
                return Ok((daemon, client, start.elapsed()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon exited early ({status}): {}",
                    daemon.log_tail()
                ));
            }
            if start.elapsed() > DAEMON_PATIENCE {
                return Err(format!("daemon not ready: {}", daemon.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon through `SHUTDOWN` and waits for it to exit.
    fn stop(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("daemon exited with {status}: {}", self.log_tail()))
                }
                Ok(None) if start.elapsed() > DAEMON_PATIENCE => {
                    return Err("daemon did not drain".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A request frame with the result it was answered with.
type Exchange = (QueryFrame, ResultFrame);

/// Replays queries `i ≡ lane (mod CONNECTIONS)` of the first stream in
/// order on one connection, waiting for each reply before sending the
/// next. Returns the lane's tally and its correctly answered exchanges.
fn replay_lane(ctx: &Ctx, client: &mut Client, lane: usize) -> (Served, Vec<Exchange>) {
    let mut out = Served::default();
    let mut exchanges = Vec::new();
    let queries = &ctx.inputs.streams[0];
    for i in (lane..queries.len()).step_by(CONNECTIONS) {
        let frame = QueryFrame {
            id: i as u64,
            graph: (*queries[i]).clone(),
            kind: None,
            verify_budget: None,
            max_hits: None,
            bypass: false,
            timeout_ms: Some(QUERY_TIMEOUT_MS),
            allow: None,
        };
        let sent = frame.clone();
        out.attempted += 1;
        let t = Instant::now();
        let outcome = client.query(frame);
        let rtt = t.elapsed();
        let expected = ctx.reference.answer(0, i).iter().map(|g| g.0);
        match outcome {
            Ok(QueryOutcome::Result(r)) if r.answer.iter().copied().eq(expected) => {
                out.latencies_us.push(rtt.as_secs_f64() * 1e6);
                exchanges.push((sent, r));
            }
            Ok(QueryOutcome::Result(_)) => {
                eprintln!("perfbench: wrong served answer for query {i}");
                out.failed += 1;
            }
            Ok(QueryOutcome::Busy { .. }) => {
                out.failed += 1;
                out.busy += 1;
            }
            Err(e @ (ClientError::Server { .. } | ClientError::Proto(_))) => {
                eprintln!("perfbench: served query {i}: {e}");
                out.failed += 1;
            }
            Err(e) => {
                // The connection is gone: every query left on it fails.
                eprintln!("perfbench: served query {i}: {e}");
                let left = (i..queries.len()).step_by(CONNECTIONS).count() as u64;
                out.failed += left;
                out.attempted += left - 1;
                break;
            }
        }
    }
    (out, exchanges)
}

/// Serves the first stream through `gc`, restored from the snapshot in
/// the work directory's `restore` subdirectory, checking every answer.
pub fn serve_stream(ctx: &Ctx, gc: &Path, restore: &str) -> Result<Served, String> {
    let (daemon, first, ready) = Daemon::start(ctx, gc, restore)?;
    let mut clients = vec![first];
    for _ in 1..CONNECTIONS {
        let socket = ctx.work.path("gc.sock");
        clients.push(Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?);
    }
    let t = Instant::now();
    let lanes: Vec<(Served, Vec<Exchange>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| scope.spawn(move || replay_lane(ctx, client, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut served = Served {
        ready,
        wall: t.elapsed(),
        ..Served::default()
    };
    // The codec is timed on the served frames after the replay, so its
    // cost does not delay the next query of the closed loop.
    for (lane, exchanges) in lanes {
        served.attempted += lane.attempted;
        served.failed += lane.failed;
        served.busy += lane.busy;
        served.latencies_us.extend(lane.latencies_us);
        for (frame, result) in exchanges {
            served.codec.add(frame, result);
        }
    }
    served.latencies_us.sort_by(f64::total_cmp);
    let mut control = clients.swap_remove(0);
    drop(clients);
    let stats = control
        .stats(StatsScope::Global)
        .map_err(|e| format!("STATS: {e}"))?;
    served.snapshots_written = stats
        .iter()
        .find(|(k, _)| k == "snapshots_written")
        .map(|(_, v)| *v)
        .ok_or("STATS has no snapshots_written")?;
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        control.ping(None).map_err(|e| format!("ping: {e}"))?;
        rtts.push(t.elapsed().as_secs_f64());
    }
    served.ping_rtt = Duration::from_secs_f64(median(&rtts));
    daemon.stop(control)?;
    Ok(served)
}
