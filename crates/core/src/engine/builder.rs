//! The builders: the seal queue, the worker threads that take sealed
//! leaves off it, the inline fallback when no worker could be spawned, and
//! the chain build itself — panic-isolated, and halting the engine on the
//! first panic (see the parent module's docs on failure isolation).

use super::{Shared, StreamingMbi};
use crate::fail;
use crate::index::{assemble_blocks, build_chain_graphs};
use crate::layout::{blocks_for_leaves, merge_chain};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

impl StreamingMbi {
    /// Hands a sealed leaf to the builders, waiting for a queue slot when
    /// they fall behind. With no builder threads (every spawn failed),
    /// chains build inline on the inserting thread.
    pub(super) fn dispatch(&self, leaf: usize) {
        if self.workers.is_empty() {
            self.shared.inline_builds.fetch_add(1, Ordering::Relaxed);
            run_chain(&self.shared, leaf);
            return;
        }
        if let Some(tx) = self.tx.lock().as_ref() {
            // The workers outlive the sender (drop takes it first), so send
            // only fails after disconnect mid-drop.
            let _ = tx.send(leaf);
        }
    }
}

/// Starts the engine's builder threads on a fresh seal queue. A spawn
/// failure (thread exhaustion, injected fault) is not fatal: it is counted,
/// and with no thread at all [`StreamingMbi::dispatch`] builds chains inline
/// on the inserting thread.
pub(super) fn spawn_builders(shared: &Arc<Shared>) -> (SyncSender<usize>, Vec<JoinHandle<()>>) {
    let (tx, rx) = mpsc::sync_channel::<usize>(shared.engine.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(shared.engine.builder_threads);
    for i in 0..shared.engine.builder_threads {
        let worker_shared = Arc::clone(shared);
        let worker_rx = Arc::clone(&rx);
        let spawned = if fail::trigger("builder::spawn").is_some() {
            Err(std::io::Error::other(fail::INJECTED_MSG))
        } else {
            std::thread::Builder::new()
                .name(format!("mbi-builder-{i}"))
                .spawn(move || worker_loop(&worker_shared, &worker_rx))
        };
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                shared.spawn_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    (tx, workers)
}

/// Builder thread body: take leaf indices off the shared channel until it
/// disconnects. Only one worker blocks in `recv` at a time (the receiver
/// lives behind a mutex — `std::sync::mpsc` receivers are single-consumer);
/// the others are inside builds, so job pickup is effectively immediate.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<usize>>) {
    loop {
        let job = {
            let rx = rx.lock();
            rx.recv()
        };
        match job {
            Ok(leaf) => run_chain(shared, leaf),
            Err(_) => return,
        }
    }
}

/// Runs `process_chain` with panic isolation. A panic halts the engine:
/// the first panicked chain's leaf and message are kept, publication
/// freezes, and every later chain returns here at once — so the seal queue
/// still drains, and nothing is built that could never be published. The
/// unbuilt leaves stay served by exact scan; inserts, queries and `flush`
/// keep working.
fn run_chain(shared: &Shared, leaf: usize) {
    if shared.halted() {
        return;
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| process_chain(shared, leaf))) {
        shared.build_panics.fetch_add(1, Ordering::Relaxed);
        let error = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "chain build panicked".to_string(),
        };
        // Only the first panic is kept; a concurrent one loses the race.
        let _ = shared.halt.set((leaf, error));
        // Lock/unlock the master mutex before notifying so a flusher
        // between its predicate check and its wait cannot miss the wakeup.
        drop(shared.master.lock());
        shared.publish_cv.notify_all();
    }
}

/// Builds and publishes the merge chain of (0-based) leaf `leaf`: compute the
/// chain, *share* its rows out of the master (pointer copies — the chain
/// range is always segment-aligned), build the graphs lock-free with the
/// same deterministic ids as the synchronous path, stage the blocks, and
/// publish every chain that is next in leaf order.
///
/// Publication materialises nothing: the new snapshot shares every sealed
/// leaf's segment and timestamp chunk with the master (and with every
/// previous snapshot), so the work under the lock is `O(sealed leaves)`
/// pointer copies plus the new chain's blocks — independent of row count.
///
/// The frontier advances only together with the snapshot swap: a panic
/// after staging leaves the chain in `ready` and the master's frontier at
/// the published snapshot's, so a halted engine never publishes it.
fn process_chain(shared: &Shared, leaf: usize) {
    if fail::trigger("builder::build") == Some(fail::FailAction::Panic) {
        panic!("{}", fail::INJECTED_MSG);
    }
    let t0 = Instant::now();
    let s_l = shared.config.leaf_size;
    let pending = merge_chain(leaf + 1, s_l);
    let chain_rows = pending.last().expect("chain is never empty").0.clone();
    let base_id = blocks_for_leaves(leaf) as u64;

    // Share the chain's segments so the build holds no lock and copies no
    // rows. The segments carry the inverse-norm column, keeping angular
    // graphs bit-identical.
    let chunk = shared.master.lock().store.share(chain_rows.clone());
    let graphs = build_chain_graphs(
        &shared.config,
        &chunk,
        chain_rows.start,
        &pending,
        base_id,
        shared.parallel_chain_build(),
    );
    // Record before publication so a flush() that returns has every
    // published chain's sample in view.
    shared.build_nanos.push(t0.elapsed().as_nanos() as u64);

    // Stage, then publish every consecutive ready chain in leaf order.
    let t_pub = Instant::now();
    let mut m = shared.master.lock();
    let blocks = assemble_blocks(pending, graphs, &m.times);
    m.ready.insert(leaf, blocks);
    if fail::trigger("engine::publish") == Some(fail::FailAction::Panic) {
        panic!("{}", fail::INJECTED_MSG);
    }
    let frontier = m.published_leaves;
    while let Some(chain) = {
        let next = m.published_leaves;
        m.ready.remove(&next)
    } {
        m.blocks.extend(chain.into_iter().map(Arc::new));
        m.published_leaves += 1;
    }
    if m.published_leaves > frontier {
        shared.publish(&m);
        let sealed = m.published_leaves * s_l;
        drop(m);
        shared.publish_nanos.push((sealed as u64, t_pub.elapsed().as_nanos() as u64));
        shared.publish_cv.notify_all();
    }
}
