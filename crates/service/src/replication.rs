//! The follower side of WAL shipping: a pull loop that subscribes to a
//! primary's replication stream and applies each shipped batch to the
//! local [`MutableIndex`].
//!
//! The stream is a ping-pong over one ordinary protocol connection —
//! no side channel, no extra port:
//!
//! ```text
//!  follower                         primary
//!  ────────                         ───────
//!  ReplSubscribe(from_seq) ──────▶
//!                          ◀────── ReplBatch(last_seq, records…)
//!  apply_replicated(records)
//!  ReplAck(applied_seq)    ──────▶  (long-polls ~250 ms)
//!                          ◀────── ReplBatch(…)   — or a heartbeat
//!  …
//! ```
//!
//! Every shipped record lands in the follower's **own WAL before it is
//! acknowledged** ([`MutableIndex::apply_replicated`] appends and
//! fsyncs), so a follower that crashes recovers to its last acked
//! sequence from local disk and resumes the subscription from there —
//! the primary never needs to track follower durability beyond the
//! acked sequence number.
//!
//! Connection failures are retried forever with a fixed backoff: a
//! SIGKILLed or restarting primary looks identical to a network blip,
//! and the subscription position (`engine.last_seq()`) is recomputed
//! from the local index on every reconnect, so the loop is stateless
//! across attempts. The loop only exits when `stop` is raised.
//!
//! ## Fault injection
//!
//! `CC_REPL_STALL_APPLY_MS=<ms>` (read once at startup) sleeps before
//! applying every non-empty batch. Tests use it to hold a follower
//! visibly behind the primary and assert that freshness-bounded reads
//! (`min_seq`) refuse to be served from it.

use crate::client::Client;
use crate::protocol::ProtoError;
use c2lsh::MutableIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Pause between reconnect attempts after a connection failure.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// Read timeout on the stream. It exceeds the primary's long-poll
/// window (250 ms) by a comfortable margin; a primary silent for this
/// long is treated as dead and the loop reconnects.
const READ_TIMEOUT: Duration = Duration::from_secs(3);

/// Tunables of one follower pull loop.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Address of the primary to subscribe to (`HOST:PORT`).
    pub primary: String,
    /// This follower's name on the primary's lag board (the `replica`
    /// label of `cc_replica_lag_seq`).
    pub node_name: String,
}

impl ReplicationConfig {
    /// A config for `primary`, announcing `node_name`.
    pub fn new(primary: impl Into<String>, node_name: impl Into<String>) -> Self {
        ReplicationConfig { primary: primary.into(), node_name: node_name.into() }
    }
}

/// Counters of one follower pull loop's lifetime, returned when the
/// loop is stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Batches applied (heartbeats excluded).
    pub batches: u64,
    /// Records applied.
    pub records: u64,
    /// Empty batches (the primary had nothing new).
    pub heartbeats: u64,
    /// Connection attempts that failed or streams that broke.
    pub reconnects: u64,
}

/// Run the follower pull loop until `stop` is raised: subscribe to
/// `config.primary` from the local index's current sequence, apply
/// every shipped batch durably, acknowledge, repeat — reconnecting
/// with backoff on any failure.
///
/// Intended to run on its own thread next to the follower's serve
/// loop; raise `stop` (the serve loop drained) and the function
/// returns within roughly the 3 s read timeout.
pub fn run_follower(
    engine: &MutableIndex,
    config: &ReplicationConfig,
    stop: &AtomicBool,
) -> ReplicationStats {
    let stall = std::env::var("CC_REPL_STALL_APPLY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let mut stats = ReplicationStats::default();
    while !stop.load(Ordering::SeqCst) {
        match stream_once(engine, config, stop, stall, &mut stats) {
            Ok(()) => break, // stop was raised mid-stream
            Err(e) => {
                stats.reconnects += 1;
                eprintln!(
                    "replication: stream to {} broke ({e}); retrying in {:?}",
                    config.primary, RECONNECT_BACKOFF
                );
                // Sleep in small steps so a stop request during the
                // backoff still returns promptly.
                let mut left = RECONNECT_BACKOFF;
                while !stop.load(Ordering::SeqCst) && left > Duration::ZERO {
                    let step = left.min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        }
    }
    stats
}

/// One connection's worth of streaming: subscribe, then apply/ack
/// until the stream breaks (`Err`) or `stop` is raised (`Ok`). A typed
/// refusal (e.g. below the primary's retention floor) is not retryable
/// by reconnecting with the same position; it surfaces as an error all
/// the same, so an operator sees the loop spinning on it.
fn stream_once(
    engine: &MutableIndex,
    config: &ReplicationConfig,
    stop: &AtomicBool,
    stall: Option<Duration>,
    stats: &mut ReplicationStats,
) -> Result<(), ProtoError> {
    let mut client = Client::connect(&config.primary)?;
    client.set_read_timeout(READ_TIMEOUT)?;
    let from_seq = engine.last_seq();
    let (mut last_seq, mut records) = client.repl_subscribe(&config.node_name, from_seq)?;
    eprintln!("replication: subscribed to {} from seq {from_seq}", config.primary);
    loop {
        if records.is_empty() {
            stats.heartbeats += 1;
        } else {
            if let Some(pause) = stall {
                std::thread::sleep(pause);
            }
            let first = records[0].seq;
            let applied = engine.apply_replicated(&records)?;
            stats.batches += 1;
            stats.records += records.len() as u64;
            eprintln!("replication: applied seqs {first}..={applied} (primary at {last_seq})");
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        (last_seq, records) = client.repl_ack(engine.last_seq())?;
    }
}
