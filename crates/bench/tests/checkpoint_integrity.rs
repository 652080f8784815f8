//! Adversarial integration tests for the crash-only checkpoint store:
//! property-based codec round-trips over hostile `Measurement` values,
//! a torn-file/truncation corpus, concurrent writers sharing one store,
//! and the supervisor's thread hygiene under timeouts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::sample::select;
use wcms_bench::checkpoint::{decode_file, encode_file, CellResult, CheckpointStore, LoadOutcome};
use wcms_bench::experiment::Measurement;
use wcms_bench::resilient::{run_cell, ResilienceConfig};
use wcms_dmm::stats::Summary;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcms-ckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn measurement(vals: [f64; 10], n: usize) -> Measurement {
    Measurement {
        n,
        throughput: vals[0],
        ms: vals[1],
        throughput_spread: Summary {
            n: n.wrapping_mul(3),
            mean: vals[2],
            min: vals[3],
            max: vals[4],
            stddev: vals[5],
        },
        beta1: vals[6],
        beta2: vals[7],
        conflicts_per_element: vals[8],
        ms_per_element: vals[9],
    }
}

/// Hostile but serialisable f64s: signed zeros, subnormals, huge and
/// tiny magnitudes, values needing all 17 significant digits. (NaN and
/// infinities are excluded: `Measurement` never produces them and JSON
/// cannot represent them.)
fn hostile_f64() -> impl Strategy<Value = f64> {
    select(vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        4.9e-324, // smallest subnormal
        -4.9e-324,
        f64::MAX,
        -f64::MAX,
        1.0 + f64::EPSILON, // needs full precision to round-trip
        0.1,                // classic non-dyadic decimal
        -1.7976931348623157e308,
        std::f64::consts::PI,
        1e-300,
        123_456_789.123_456_78,
    ])
}

fn hostile_name() -> impl Strategy<Value = String> {
    select(vec![
        "plain".to_string(),
        "fig4/Thrust E=15 b=512/worst-case/196608".to_string(),
        "weird: \"quotes\" \\ backslash\nnewline\ttab".to_string(),
        "unicode-\u{1F480}-skull-\u{202e}-rtl".to_string(),
        "x".repeat(512), // long cell name; sanitize() must keep it a valid filename
        "..".to_string(),
        "a/b/c/../../../etc".to_string(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn codec_roundtrips_adversarial_measurements(
        vals in proptest::collection::vec(hostile_f64(), 10..11),
        n in 0usize..1 << 40,
        attempts in 1usize..9,
        which in 0u8..3,
        name in hostile_name(),
    ) {
        let m = measurement(vals.try_into().unwrap(), n);
        let result = match which {
            0 => CellResult::Done(m),
            1 => CellResult::Demoted { m, on: name.clone(), attempts },
            _ => CellResult::Skipped { reason: name.clone(), attempts },
        };

        let dir = tempdir("prop");
        let store = CheckpointStore::open(&dir).unwrap();
        store.store(&name, &result).unwrap();
        prop_assert_eq!(store.load(&name), LoadOutcome::Cached(result));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn framing_rejects_every_truncation(
        vals in proptest::collection::vec(hostile_f64(), 10..11),
        n in 0usize..1 << 40,
    ) {
        let m = measurement(vals.try_into().unwrap(), n);
        let dir = tempdir("torn");
        let store = CheckpointStore::open(&dir).unwrap();
        store.store("cell", &CellResult::Done(m)).unwrap();

        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("cell-")))
            .unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        prop_assert!(decode_file(&full).is_ok());

        // A torn write leaves any prefix of the file; every proper
        // prefix must be rejected, never mis-parsed.
        for cut in 0..full.len() {
            prop_assert!(
                decode_file(&full[..cut]).is_err(),
                "prefix of length {cut} of {} bytes was accepted",
                full.len()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn bitflips_anywhere_in_the_payload_are_caught() {
    let payload = r#"{"status":"skipped","reason":"r","attempts":3}"#;
    let framed = encode_file(payload);
    assert_eq!(decode_file(&framed).as_deref(), Ok(payload));
    let bytes = framed.as_bytes();
    for i in 0..bytes.len() {
        let mut torn = bytes.to_vec();
        torn[i] ^= 0x01;
        let torn = String::from_utf8_lossy(&torn).into_owned();
        assert!(decode_file(&torn).is_err(), "bitflip at byte {i} went undetected");
    }
}

#[test]
fn corrupt_cell_is_quarantined_and_the_quarantine_holds_the_evidence() {
    let dir = tempdir("quarantine");
    let store = CheckpointStore::open(&dir).unwrap();
    let m = measurement([1.0; 10], 64);
    store.store("fig4/T/worst/64", &CellResult::Done(m)).unwrap();

    // Flip one byte on disk.
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("cell-")))
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[10] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match store.load("fig4/T/worst/64") {
        LoadOutcome::Quarantined { to: Some(to), reason } => {
            assert!(to.starts_with(dir.join("quarantine")), "{}", to.display());
            assert!(std::fs::read(&to).unwrap() == bytes, "evidence must be preserved verbatim");
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert!(!path.exists(), "offending file must leave the live directory");
    assert_eq!(store.load("fig4/T/worst/64"), LoadOutcome::Absent);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_workers_can_share_one_store_on_distinct_cells() {
    let dir = tempdir("concurrent");
    let store = CheckpointStore::open(&dir).unwrap();
    let cells_per_worker = 32usize;

    std::thread::scope(|scope| {
        for worker in 0..2usize {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..cells_per_worker {
                    let cell = format!("w{worker}/cell/{i}");
                    let m = measurement([worker as f64 + i as f64; 10], i);
                    store.store(&cell, &CellResult::Done(m)).unwrap();
                }
            });
        }
    });

    for worker in 0..2usize {
        for i in 0..cells_per_worker {
            let cell = format!("w{worker}/cell/{i}");
            match store.load(&cell) {
                LoadOutcome::Cached(CellResult::Done(m)) => {
                    assert_eq!(m.n, i);
                    assert_eq!(m.throughput, worker as f64 + i as f64);
                }
                other => panic!("{cell}: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Count this process's live threads via /proc (Linux test runners).
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[cfg(target_os = "linux")]
#[test]
fn timeout_leaves_no_live_background_thread() {
    let cfg = ResilienceConfig {
        timeout: Some(Duration::from_millis(30)),
        retries: 2,
        backoff: Duration::from_millis(100),
        ..ResilienceConfig::none()
    };
    let polls = Arc::new(AtomicUsize::new(0));

    let before = live_threads();
    for round in 0..4 {
        let polls = polls.clone();
        // Cooperative busy loop: spins past the deadline but honours
        // the cancel token, so the worker can be joined.
        let outcome = run_cell(&format!("hung-{round}"), &cfg, move |token| loop {
            polls.fetch_add(1, Ordering::Relaxed);
            token.check()?;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(outcome.timed_out, "round {round} should have timed out");
        assert!(!outcome.leaked_thread, "cooperative worker must be joined, not leaked");
    }
    assert!(polls.load(Ordering::Relaxed) > 0, "the cell body must actually have run");

    // Give the runtime a beat to reap joined threads, then compare.
    std::thread::sleep(Duration::from_millis(50));
    let after = live_threads();
    assert!(
        after <= before,
        "timeouts must not accumulate threads: {before} before, {after} after"
    );
}
