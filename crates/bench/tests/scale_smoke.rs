//! CI-sized smoke of the scale benchmark's streaming pipeline: the
//! bench's own differential gate ([`ups_bench::scale::differential_gate`])
//! on a capped fat-tree(k=4) run pushed through tiny spill caps so the
//! chunk ring overflows to disk, checked for bit-identity against the
//! resident layout and for a tight peak-RSS ceiling via `VmHWM` (the same
//! self-measurement the full bench asserts). Lives in its own test binary
//! because `VmHWM` is a process-lifetime high-water mark — co-tenant tests
//! would pollute it.

use ups_bench::peak_rss_bytes;
use ups_bench::scale::differential_gate;

/// Packet floor of the capped run; smaller under debug asserts.
const PACKET_FLOOR: u64 = if cfg!(debug_assertions) {
    40_000
} else {
    200_000
};

/// Peak-RSS ceiling. The release run peaks near 175 MiB on x86-64 Linux,
/// so this catches a layer that starts holding the whole trace or event
/// list.
const RSS_BUDGET_MIB: u64 = 256;

#[test]
fn capped_streaming_run_is_resident_identical_and_bounded() {
    // Gate on across the whole differential: the merge-join's
    // reorder-window high-water counter is the CI witness that the
    // streaming compare path stays bounded (and observation changes no
    // result — `tests/obs_determinism.rs`).
    ups_obs::enable();
    ups_obs::reset();
    // Tiny caps: ~packets/1024 sealed chunks, only 2 resident, so almost
    // the whole trace round-trips through the spill codec.
    differential_gate(PACKET_FLOOR, (1024, 2));
    let snapshot = ups_obs::snapshot();
    ups_obs::disable();
    let window_high_water = snapshot.counter(ups_obs::Counter::CompareWindow);
    assert!(
        window_high_water <= ups_core::REORDER_WINDOW as u64,
        "compare reorder window hit {window_high_water} records \
         (bound {})",
        ups_core::REORDER_WINDOW
    );
    // The spill codec names a path by its index in the log's path table:
    // a delivered end-to-end record is 58 bytes whatever its hop count.
    let spill_bytes = snapshot.counter(ups_obs::Counter::SpillBytes);
    let finalized = snapshot.counter(ups_obs::Counter::TraceRecordsFinalized);
    assert!(
        spill_bytes > 0 && spill_bytes <= 64 * finalized,
        "spilled {spill_bytes} bytes for {finalized} finalized records \
         (bound 64 bytes per record)"
    );

    let peak = peak_rss_bytes();
    assert!(
        peak <= RSS_BUDGET_MIB * 1024 * 1024,
        "peak RSS {:.1} MiB exceeds the {RSS_BUDGET_MIB} MiB smoke budget",
        peak as f64 / (1024.0 * 1024.0),
    );
}
