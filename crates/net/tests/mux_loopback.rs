//! Integration tests for the TCP mesh: delivery, FIFO and frame
//! boundaries over the byte stream, shutdown and timeout semantics, lane
//! isolation over shared sockets, raw-frame transparency, coalesced
//! flush on shutdown, the `TCP_NODELAY` loopback-latency contract, the
//! O(1) reactor I/O-thread accounting, and the socket-level bring-up of
//! [`MuxEndpoint::establish_with_options`]: start-order independence,
//! budget expiry naming the missing peer, and incarnation fencing.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_net::{frame, unframe, MeshOptions, MuxEndpoint, MuxMesh, RecvError, WireError};
use dauctioneer_types::ProviderId;

const RECV: Duration = Duration::from_secs(5);

#[test]
fn lanes_are_isolated_namespaces_over_one_socket() {
    let mut mesh = MuxMesh::loopback(2, 3).unwrap();
    let lanes = mesh.take_lane_endpoints();
    // Interleave traffic on all three lanes of the same provider pair.
    for round in 0..5u64 {
        for (lane, row) in lanes.iter().enumerate() {
            let body = format!("lane{lane}-r{round}");
            row[0].send(ProviderId(1), frame(100 + lane as u64, body.as_bytes()));
        }
    }
    // Each lane receives exactly its own frames, in its own FIFO order.
    for (lane, row) in lanes.iter().enumerate() {
        for round in 0..5u64 {
            let (from, payload) = row[1].recv_timeout(RECV).unwrap();
            assert_eq!(from, ProviderId(0));
            let (tag, body) = unframe(&payload).unwrap();
            assert_eq!(tag, 100 + lane as u64, "frame crossed lanes");
            assert_eq!(std::str::from_utf8(body).unwrap(), format!("lane{lane}-r{round}"));
        }
        assert!(row[1].try_recv().is_none(), "lane {lane} got a foreign frame");
    }
}

#[test]
fn full_mesh_delivers_between_all_pairs_on_every_lane() {
    let m = 3;
    let lanes_n = 2;
    let mut mesh = MuxMesh::loopback(m, lanes_n).unwrap();
    let lanes = mesh.take_lane_endpoints();
    for (lane, row) in lanes.iter().enumerate() {
        for from in 0..m as u32 {
            for to in 0..m as u32 {
                if from == to {
                    continue;
                }
                let body = frame(7, &[lane as u8, from as u8, to as u8]);
                row[from as usize].send(ProviderId(to), body.clone());
                let (who, payload) = row[to as usize].recv_timeout(RECV).unwrap();
                assert_eq!(who, ProviderId(from));
                assert_eq!(&payload[..], &body[..]);
            }
        }
    }
}

#[test]
fn raw_payloads_cross_the_mux_verbatim() {
    // Garbage that is not a session frame (what the GarbageFrames
    // adversary emits), a payload whose leading u64 cannot fold, and an
    // empty message: all must arrive byte-identical.
    let mut mesh = MuxMesh::loopback(2, 1).unwrap();
    let lanes = mesh.take_lane_endpoints();
    let payloads: Vec<Bytes> = vec![
        Bytes::from_static(b"\xde\xad\xbe"),
        Bytes::from_static(b""),
        Bytes::copy_from_slice(&u64::MAX.to_le_bytes()),
        frame(u64::MAX, b"unfoldable tag"),
    ];
    for p in &payloads {
        lanes[0][0].send(ProviderId(1), p.clone());
    }
    for p in &payloads {
        let (_, got) = lanes[0][1].recv_timeout(RECV).unwrap();
        assert_eq!(&got[..], &p[..], "payload mangled by the mux");
    }
}

#[test]
fn io_threads_are_o_1_regardless_of_mesh_size_and_lanes() {
    // The whole point of the reactor: one I/O thread per mesh, no
    // matter how many providers or lanes — where the old design paid
    // 2m(m−1) blocking reader/writer threads per mesh. (The matching
    // OS-level /proc accounting lives in `thread_roster.rs`, which
    // needs a process of its own to count exactly.)
    for (m, lanes) in [(2, 1), (3, 4), (4, 1), (4, 4)] {
        let mesh = MuxMesh::loopback(m, lanes).unwrap();
        assert_eq!(
            mesh.io_threads(),
            1,
            "m={m} lanes={lanes}: mesh size or lane count leaked into the I/O thread roster"
        );
        // The gauge agrees through the traffic snapshot.
        assert_eq!(mesh.metrics().snapshot().io_threads, 1);
    }
    // Endpoints report the same constant.
    let mut mesh = MuxMesh::loopback(3, 2).unwrap();
    let lanes = mesh.take_lane_endpoints();
    assert_eq!(lanes[0][0].io_threads(), 1);
    assert_eq!(lanes[1][2].io_threads(), 1);
}

#[test]
fn queued_frames_flush_on_shutdown() {
    // Drop a provider's every lane endpoint with frames still queued:
    // the coalescing writers must drain and flush before the sockets
    // close, so nothing is lost (a decided engine's final sends must
    // reach the peers).
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let mut lanes = mesh.take_lane_endpoints();
    let receiver_l0 = lanes[0].remove(1);
    let receiver_l1 = lanes[1].remove(1);
    let sender_l0 = lanes[0].remove(0);
    let sender_l1 = lanes[1].remove(0);
    for i in 0..200u64 {
        sender_l0.send(ProviderId(1), frame(i, b"lane zero"));
        sender_l1.send(ProviderId(1), frame(i, b"lane one"));
    }
    drop(sender_l0);
    drop(sender_l1); // last endpoint: joins writers (drain + flush)
    for _ in 0..200 {
        let (_, p0) = receiver_l0.recv_timeout(RECV).expect("lane-0 frame lost in shutdown");
        let (_, p1) = receiver_l1.recv_timeout(RECV).expect("lane-1 frame lost in shutdown");
        assert_eq!(&p0[8..], b"lane zero");
        assert_eq!(&p1[8..], b"lane one");
    }
    // After the flush the peers observe a clean disconnect.
    let err = loop {
        match receiver_l0.recv_timeout(RECV) {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    assert_eq!(err, RecvError::Disconnected);
}

#[test]
fn nodelay_keeps_small_frame_latency_below_the_nagle_floor() {
    // The Nagle contract: a lone small frame (nothing to coalesce with)
    // must cross loopback promptly. With TCP_NODELAY unset, Nagle +
    // delayed ACK would park exactly this pattern for tens of
    // milliseconds; the bound below fails loudly in that world while
    // leaving ample slack for scheduler noise.
    let mut mesh = MuxMesh::loopback(2, 1).unwrap();
    let lanes = mesh.take_lane_endpoints();
    let mut samples = Vec::with_capacity(40);
    for i in 0..20u64 {
        let start = Instant::now();
        lanes[0][0].send(ProviderId(1), frame(i, b"ping"));
        lanes[0][1].recv_timeout(RECV).expect("ping lost");
        samples.push(start.elapsed());
        // Round trips alternate direction so both streams are exercised.
        let start = Instant::now();
        lanes[0][1].send(ProviderId(0), frame(i, b"pong"));
        lanes[0][0].recv_timeout(RECV).expect("pong lost");
        samples.push(start.elapsed());
    }
    // Median, not worst case: a single scheduler stall on a loaded CI
    // runner must not flake the test, while Nagle + delayed ACK would
    // push essentially EVERY sample past the bound.
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median small-frame loopback latency {median:?} smells like Nagle (NODELAY unset?)"
    );
}

#[test]
fn shared_metrics_span_all_lanes() {
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let metrics = mesh.metrics();
    let lanes = mesh.take_lane_endpoints();
    lanes[0][0].send(ProviderId(1), frame(1, b"abc"));
    lanes[1][0].send(ProviderId(1), frame(2, b"de"));
    lanes[0][1].recv_timeout(RECV).unwrap();
    lanes[1][1].recv_timeout(RECV).unwrap();
    // Counters see payload bytes (8-byte tag + body), not wire bytes.
    let snap = metrics.snapshot();
    assert_eq!(snap.per_provider[0].sent_messages, 2);
    assert_eq!(snap.per_provider[1].received_messages, 2);
    assert_eq!(snap.per_provider[0].sent_bytes, 21);
    assert_eq!(snap.per_provider[1].received_bytes, 21);
}

#[test]
fn dropping_one_lane_leaves_the_others_running() {
    let mut mesh = MuxMesh::loopback(2, 2).unwrap();
    let mut lanes = mesh.take_lane_endpoints();
    let dead_lane = lanes.remove(1);
    drop(dead_lane); // both endpoints of lane 1 gone
    let live = lanes.remove(0);
    // Lane 0 still works over the same (shared) sockets.
    live[0].send(ProviderId(1), frame(3, b"still here"));
    let (_, payload) = live[1].recv_timeout(RECV).unwrap();
    assert_eq!(&payload[8..], b"still here");
}

/// The endpoints of a one-lane loopback mesh of `m` providers.
fn one_lane(m: usize) -> Vec<MuxEndpoint> {
    MuxMesh::loopback(m, 1).unwrap().take_lane_endpoints().remove(0)
}

#[test]
fn fifo_per_link() {
    let eps = one_lane(2);
    for i in 0..100u8 {
        eps[0].send(ProviderId(1), Bytes::copy_from_slice(&[i]));
    }
    for i in 0..100u8 {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        assert_eq!(payload[0], i, "out-of-order TCP delivery");
    }
}

#[test]
fn message_boundaries_survive_the_byte_stream() {
    // Frames of very different sizes back-to-back on one socket: the
    // wire layer must re-delimit them exactly.
    let eps = one_lane(2);
    let sizes = [0usize, 1, 7, 8, 9, 1024, 65_537];
    for &len in &sizes {
        eps[0].send(ProviderId(1), Bytes::from(vec![len as u8; len]));
    }
    for &len in &sizes {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        assert_eq!(payload.len(), len);
        assert!(payload.iter().all(|b| *b == len as u8));
    }
}

#[test]
fn session_tags_survive_a_shared_socket() {
    // Two sessions' frames interleaved on the same lane of one
    // connection: the receiver attributes every frame by tag alone.
    let eps = one_lane(2);
    for round in 0..10u64 {
        for session in [7u64, 9] {
            let body = format!("s{session}-r{round}");
            eps[0].send(ProviderId(1), frame(session, body.as_bytes()));
        }
    }
    let mut seen = std::collections::HashMap::<u64, u64>::new();
    for _ in 0..20 {
        let (_, payload) = eps[1].recv_timeout(RECV).unwrap();
        let (tag, body) = unframe(&payload).unwrap();
        let round = seen.entry(tag).or_insert(0);
        assert_eq!(
            std::str::from_utf8(body).unwrap(),
            format!("s{tag}-r{round}"),
            "frame attributed to the wrong session"
        );
        *round += 1;
    }
    assert_eq!(seen[&7], 10);
    assert_eq!(seen[&9], 10);
}

#[test]
fn dropping_an_endpoint_disconnects_its_peers() {
    let mut eps = one_lane(2);
    let e1 = eps.remove(1);
    let e0 = eps.remove(0);
    // Queued messages still arrive before the disconnect is observed.
    e0.send(ProviderId(1), Bytes::from_static(b"last words"));
    drop(e0);
    let (_, payload) = e1.recv_timeout(RECV).unwrap();
    assert_eq!(&payload[..], b"last words");
    let err = loop {
        match e1.recv_timeout(RECV) {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    assert_eq!(err, RecvError::Disconnected);
}

#[test]
fn recv_timeout_expires_without_traffic() {
    let eps = one_lane(2);
    let err = eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err();
    assert_eq!(err, RecvError::Timeout);
}

#[test]
fn broadcast_reaches_all_peers_but_not_self() {
    let eps = one_lane(3);
    eps[1].broadcast(&Bytes::from_static(b"b"));
    assert!(eps[0].recv_timeout(RECV).is_ok());
    assert!(eps[2].recv_timeout(RECV).is_ok());
    std::thread::sleep(Duration::from_millis(30));
    assert!(eps[1].try_recv().is_none());
}

/// Every endpoint broadcasts once from its own thread, then collects
/// one frame from each peer; asserts each heard every peer exactly once.
fn exchange_from_threads(eps: Vec<MuxEndpoint>) {
    let m = eps.len();
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                ep.broadcast(&frame(u64::from(ep.me().0), b"ping"));
                let mut heard = Vec::with_capacity(m - 1);
                while heard.len() < m - 1 {
                    let (from, payload) = ep.recv_timeout(RECV).expect("peer frame");
                    assert_eq!(unframe(&payload).unwrap(), (u64::from(from.0), &b"ping"[..]));
                    heard.push(from);
                }
                heard.sort();
                let expected: Vec<ProviderId> = ep.peers().collect();
                assert_eq!(heard, expected, "{} missed a peer", ep.me());
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn concurrent_threads_exchange_over_sockets() {
    exchange_from_threads(one_lane(4));
}

/// `m` loopback listeners and their addresses.
fn listeners(m: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> =
        (0..m).map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap()).collect();
    let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    (listeners, addrs)
}

/// The `BringUpExpired` diagnosis inside a bring-up error.
fn missing_peers(err: &std::io::Error) -> Vec<String> {
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    match err.get_ref().and_then(|e| e.downcast_ref::<WireError>()) {
        Some(WireError::BringUpExpired { missing }) => missing.clone(),
        other => panic!("expected BringUpExpired, got {other:?}"),
    }
}

#[test]
fn hello_bring_up_connects_in_any_start_order() {
    // Three providers join through the dial/accept/hello protocol, each
    // from its own thread, started highest id first with the lowest id
    // last: diallers reach listeners whose owner is not yet accepting,
    // and the mesh must come up anyway.
    let m = 3;
    let (listeners, addrs) = listeners(m);
    let mut slots: Vec<Option<TcpListener>> = listeners.into_iter().map(Some).collect();
    let mut handles = Vec::new();
    for id in [2usize, 0, 1] {
        let listener = slots[id].take().unwrap();
        let addrs = addrs.clone();
        handles.push((
            id,
            std::thread::spawn(move || {
                MuxEndpoint::establish(ProviderId(id as u32), 1, listener, &addrs)
            }),
        ));
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut eps: Vec<Option<MuxEndpoint>> = (0..m).map(|_| None).collect();
    for (id, handle) in handles {
        let mut lanes = handle.join().unwrap().expect("bring-up");
        assert_eq!(lanes.len(), 1);
        let ep = lanes.remove(0);
        assert_eq!((ep.me(), ep.num_providers(), ep.io_threads()), (ProviderId(id as u32), m, 1));
        eps[id] = Some(ep);
    }
    exchange_from_threads(eps.into_iter().map(Option::unwrap).collect());
}

#[test]
fn bring_up_expires_within_budget_naming_the_missing_peer() {
    // Provider 1 never starts and its port has no listener: provider 0
    // waits on its accept, provider 2 on its refused dial. Both give up
    // at the budget with a diagnosis naming provider 1 alone.
    let m = 3;
    let (mut listeners, addrs) = listeners(m);
    drop(listeners.remove(1));
    let budget = Duration::from_millis(300);
    let options = MeshOptions { budget, ..MeshOptions::default() };
    let handles: Vec<_> = listeners
        .into_iter()
        .zip([0u32, 2])
        .map(|(listener, id)| {
            let addrs = addrs.clone();
            let options = options.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                let result = MuxEndpoint::establish_with_options(
                    ProviderId(id),
                    1,
                    listener,
                    &addrs,
                    &options,
                );
                (result.map(drop), start.elapsed())
            })
        })
        .collect();
    for handle in handles {
        let (result, elapsed) = handle.join().unwrap();
        let err = result.expect_err("bring-up without provider 1 must fail");
        assert_eq!(missing_peers(&err), vec![format!("provider 1 @ {}", addrs[1])]);
        assert!(elapsed >= budget, "gave up early: {elapsed:?}");
        assert!(elapsed < budget + Duration::from_secs(2), "overran the budget: {elapsed:?}");
    }
}

#[test]
fn stale_incarnation_is_refused_and_the_current_life_gets_in() {
    // Provider 0 honours provider 1 only from incarnation 2 on. A dial
    // from life 1 is dropped at the hello (its endpoint sees the socket
    // close); the dial from life 2 completes the mesh.
    let (mut listeners, addrs) = listeners(2);
    let acceptor_listener = listeners.remove(0);
    let acceptor_addrs = addrs.clone();
    let acceptor = std::thread::spawn(move || {
        let options = MeshOptions { min_incarnations: vec![0, 2], ..MeshOptions::default() };
        MuxEndpoint::establish_with_options(
            ProviderId(0),
            1,
            acceptor_listener,
            &acceptor_addrs,
            &options,
        )
    });
    let life = |incarnation: u32, listener: TcpListener| {
        let options = MeshOptions { incarnation, ..MeshOptions::default() };
        MuxEndpoint::establish_with_options(ProviderId(1), 1, listener, &addrs, &options)
            .expect("the dial itself completes")
            .remove(0)
    };

    let stale = life(1, listeners.remove(0));
    let err = loop {
        match stale.recv_timeout(RECV) {
            Ok(_) => panic!("the refused life received a frame"),
            Err(RecvError::Timeout) => continue,
            Err(err) => break err,
        }
    };
    assert_eq!(err, RecvError::Disconnected, "the acceptor must close a stale hello");

    let current = life(2, TcpListener::bind(("127.0.0.1", 0)).unwrap());
    let zero = acceptor.join().unwrap().expect("mesh comes up for the current life").remove(0);
    zero.send(ProviderId(1), frame(1, b"welcome back"));
    let (from, payload) = current.recv_timeout(RECV).unwrap();
    assert_eq!((from, &payload[..]), (ProviderId(0), &frame(1, b"welcome back")[..]));
    current.send(ProviderId(0), frame(2, b"thanks"));
    let (from, payload) = zero.recv_timeout(RECV).unwrap();
    assert_eq!((from, &payload[..]), (ProviderId(1), &frame(2, b"thanks")[..]));
}
