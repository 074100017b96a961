//! OS-level I/O-thread accounting for the socket transports.
//!
//! This is the regression test for the reactor's central claim: a mesh
//! of `m` providers and any number of lanes holds a **constant** number
//! of I/O threads — one reactor — where the old design spawned a
//! blocking reader and a coalescing writer per peer connection
//! (`2m(m−1)` threads per mesh). It counts real OS threads via `/proc/self/task` rather
//! than trusting the API's own `io_threads()` gauge, using the
//! named-thread partition trick: every reactor thread is named with a
//! fixed prefix that survives the kernel's 15-byte `comm` truncation.
//!
//! It lives in its own integration-test binary (= its own process) so
//! the exact thread counts cannot race with other tests' meshes.

use dauctioneer_net::MuxMesh;

/// Live OS threads of this process whose name starts with the reactor
/// prefix.
fn reactor_threads() -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs is available on Linux") {
        let Ok(entry) = entry else { continue };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else { continue };
        if comm.trim_end().starts_with("net-reactor") {
            n += 1;
        }
    }
    n
}

/// Poll until the roster settles at `expected`, then assert it stays
/// there. A freshly spawned reactor names itself from inside the new
/// thread, so an immediate `/proc` read can race the rename; an *excess*
/// of threads never self-corrects, so only the upward direction waits.
#[track_caller]
fn assert_roster(expected: usize, context: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = reactor_threads();
        if n == expected {
            return;
        }
        if std::time::Instant::now() > deadline {
            assert_eq!(n, expected, "{context}");
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn os_thread_roster_is_constant_in_mesh_size_and_lanes() {
    assert_roster(0, "no meshes yet, no reactor threads");

    // Growing m and lanes never grows the per-mesh thread roster: each
    // loopback mesh costs exactly one reactor thread, total.
    let mut meshes = Vec::new();
    for (m, lanes) in [(2, 1), (3, 1), (3, 4), (4, 8)] {
        meshes.push(MuxMesh::loopback(m, lanes).unwrap());
        assert_roster(
            meshes.len(),
            &format!("mux m={m} lanes={lanes}: expected one reactor thread per mesh"),
        );
    }

    // Teardown releases them: drop everything and the roster returns to
    // zero (dropping the last handle joins each reactor thread, so the
    // zero is deterministic, not eventual).
    drop(meshes);
    assert_eq!(reactor_threads(), 0, "reactor threads leaked past mesh teardown");
}
