//! Per-layer prices, measured from outside: the workload's seeded inputs
//! replayed through each layer's public entry point, one layer at a time.
//! A layer's number is its cost per op with nothing above it — the queues,
//! wakeups and transport between layers are what `budget.unattributed_us`
//! is left with.

use crate::round::proc_status_kb;
use crate::workload::{OpStream, Workload, SHARDS};
use sbu_core::Universal;
use sbu_mem::{NativeMem, Pid};
use sbu_service::{request_frame, response_frame, FrameDecoder, Shard, ShardMap, WireCodec};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Ops replayed through each layer.
const OPS: usize = 100_000;
/// Window that same-key blocks are formed from: the in-flight depth of
/// pipelined-hot and pipelined-unix.
const BATCH_WINDOW: usize = 16;
/// `Universal` instances built to price construction.
const BUILDS: u64 = 2_048;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Replay `w`'s client-0 stream through every layer. Returns the flat
/// result map, with `violations` counting replayed outputs that were wrong.
pub fn run(w: &Workload, seed: u64) -> BTreeMap<String, f64> {
    let mut stream = OpStream::new(w, seed, 0);
    let ops: Vec<(u64, CounterOp)> = (0..OPS).map(|_| stream.next_op()).collect();
    let mut out = BTreeMap::new();
    let mut violations = 0u64;

    // Wire: a request frame out and its response frame back, both ways.
    let mut frames = Vec::with_capacity(OPS);
    let t = Instant::now();
    for (seq, (key, op)) in ops.iter().enumerate() {
        let req = request_frame::<CounterSpec>(1, seq as u64, *key, op);
        let resp = response_frame::<CounterSpec>(&req, &(seq as u64));
        frames.push((req.to_bytes(), resp.to_bytes()));
    }
    out.insert("wire.encode_ns".into(), ns_per(t, OPS));
    let (mut server, mut client) = (FrameDecoder::new(), FrameDecoder::new());
    let t = Instant::now();
    for (seq, (req, resp)) in frames.iter().enumerate() {
        server.push(req);
        let frame = server.next_frame().ok().flatten().expect("request decodes");
        let op = CounterSpec::decode_op(&frame.payload).expect("op decodes");
        client.push(resp);
        let frame = client
            .next_frame()
            .ok()
            .flatten()
            .expect("response decodes");
        let value = CounterSpec::decode_resp(&frame.payload).expect("value decodes");
        violations += u64::from(op != ops[seq].1 || value != seq as u64);
    }
    out.insert("wire.decode_ns".into(), ns_per(t, OPS));
    drop(frames);

    // Route: many passes over the keys, so the clock's resolution drowns.
    let map = ShardMap::new(SHARDS);
    let passes = 20;
    let t = Instant::now();
    for _ in 0..passes {
        for (key, _) in &ops {
            black_box(map.shard_of(black_box(*key)));
        }
    }
    out.insert("route.shard_of_ns".into(), ns_per(t, passes * OPS));

    // Shard: first touch of every key (object build + insert), the memory
    // that leaves behind, then warm applies on the workload's keys.
    let rss = proc_status_kb("VmRSS");
    let mut shard = Shard::new(0, CounterSpec::new());
    let t = Instant::now();
    for key in 0..w.keys {
        black_box(shard.apply(key, &CounterOp::Read));
    }
    out.insert(
        "shard.first_touch_us".into(),
        ns_per(t, w.keys as usize) / 1e3,
    );
    let grown_kb = proc_status_kb("VmRSS").saturating_sub(rss);
    out.insert(
        "shard.bytes_per_key".into(),
        (grown_kb * 1024) as f64 / w.keys as f64,
    );
    let t = Instant::now();
    for (key, op) in &ops {
        black_box(shard.apply(*key, op));
    }
    out.insert("shard.apply_ns".into(), ns_per(t, OPS));
    drop(shard);

    // Shard batches: same-key blocks of one in-flight window, committed as
    // one `apply_batch` each, on a group-commit shard.
    let mut shard = Shard::new(0, CounterSpec::new()).group_commit(true);
    for key in 0..w.keys {
        shard.apply(key, &CounterOp::Read);
    }
    let t = Instant::now();
    for window in ops.chunks(BATCH_WINDOW) {
        let mut blocks: Vec<(u64, Vec<CounterOp>)> = Vec::new();
        for (key, op) in window {
            match blocks.iter_mut().find(|(k, _)| k == key) {
                Some((_, block)) => block.push(*op),
                None => blocks.push((*key, vec![*op])),
            }
        }
        for (key, block) in &blocks {
            black_box(shard.apply_batch(*key, block));
        }
    }
    out.insert("shard.apply_batch_ns_per_op".into(), ns_per(t, OPS));
    drop(shard);

    // Core: building `n = 1` objects, then applies to one warm object.
    let mut mem = NativeMem::new();
    let t = Instant::now();
    let objects: Vec<Universal<CounterSpec>> = (0..BUILDS)
        .map(|_| Universal::builder(1).build(&mut mem, CounterSpec::new()))
        .collect();
    out.insert("core.build_us".into(), ns_per(t, BUILDS as usize) / 1e3);
    let t = Instant::now();
    for (_, op) in &ops {
        black_box(objects[0].apply(&mem, Pid(0), op));
    }
    out.insert("core.apply_ns".into(), ns_per(t, OPS));
    let incs = ops.iter().filter(|(_, op)| *op == CounterOp::Inc).count() as u64;
    violations += u64::from(objects[0].apply(&mem, Pid(0), &CounterOp::Read) != incs);

    out.insert("violations".into(), violations as f64);
    out
}
