//! Reconnect guard: a closed connection must not keep its reader thread's
//! stack mapped.
//!
//! The socket transport spawns one reader thread per accepted connection.
//! A finished thread's stack stays mapped until its handle is joined or
//! dropped, so an acceptor that held every handle until shutdown would grow
//! the address space by a stack (2 MiB by default) per reconnect, for the
//! life of the service. This file holds one `#[test]` so that no other test
//! maps memory in its process while it reads `VmSize`.

#![cfg(target_os = "linux")]

use sbu_service::{request_frame, Service, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

/// Connections dialed, served and closed while the guard watches.
const CONNECTIONS: u64 = 300;

/// Connections held open together before the guard starts watching.
const WARM: u64 = 8;

/// The most the address space may grow over those connections: slack for
/// readers that had not yet exited when the acceptor last looked, and for
/// an allocator arena that overlapping readers may still add; far below
/// one stack per connection.
const MAX_GROWTH: u64 = 192 * 1024 * 1024;

/// This process's virtual memory size, in bytes.
fn vm_size_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .expect("a VmSize line in kB");
    kb * 1024
}

/// Dial `path`, send one increment as request `seq`, and wait for the
/// reply's first bytes (so the server's reader is running). Dropping the
/// stream closes the connection.
fn served_connection(path: &std::path::Path, seq: u64) -> UnixStream {
    let mut stream = UnixStream::connect(path).expect("dial");
    let req = request_frame::<CounterSpec>(0, seq, 7, &CounterOp::Inc);
    stream.write_all(&req.to_bytes()).expect("send request");
    let mut buf = [0u8; 256];
    let n = stream.read(&mut buf).expect("read reply");
    assert!(n > 0, "the server closed before replying to seq {seq}");
    stream
}

#[test]
fn closed_connections_release_their_reader_threads() {
    let path = std::env::temp_dir().join(format!("sbu-reconnect-{}.sock", std::process::id()));
    let mut svc = Service::builder(1)
        .transport(TransportConfig::Unix(path.clone()))
        .build(CounterSpec::new());
    // Warm up with WARM readers alive at once, so the allocator has made
    // every per-thread arena (64 MiB of address space each) a few
    // overlapping readers can need before the baseline is read.
    let warm: Vec<UnixStream> = (0..WARM).map(|seq| served_connection(&path, seq)).collect();
    drop(warm);
    let before = vm_size_bytes();
    for seq in WARM..WARM + CONNECTIONS {
        drop(served_connection(&path, seq));
    }
    let growth = vm_size_bytes().saturating_sub(before);
    let stats = svc.shutdown();
    let _ = std::fs::remove_file(&path);

    assert_eq!(stats[0].ops, WARM + CONNECTIONS, "every request was served");
    println!(
        "VmSize growth over {CONNECTIONS} connections: {} KiB",
        growth / 1024
    );
    assert!(
        growth <= MAX_GROWTH,
        "{CONNECTIONS} closed connections grew VmSize by {} MiB (limit {} MiB)",
        growth >> 20,
        MAX_GROWTH >> 20
    );
}
