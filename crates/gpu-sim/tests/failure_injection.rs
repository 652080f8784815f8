//! Failure injection: deliberately broken kernels must be caught by the
//! simulator's accounting, not silently mis-measured. A kernel that
//! races writes, reads out of bounds, or exceeds occupancy is a bug in
//! the *sort*, and the substrate's job is to surface it.

use proptest::prelude::*;
use wcms_dmm::BankModel;
use wcms_error::WcmsError;
use wcms_gpu_sim::{DeviceSpec, Occupancy, SharedMemory};

/// Two lanes writing one address in one step is a CREW violation and
/// must be refused with a typed error — this is how the driver detects
/// corrupted co-ranks (the merge sort never legitimately double-writes).
#[test]
fn racing_writes_are_refused_not_ignored() {
    let mut smem = SharedMemory::<u32>::new(BankModel::gpu32(), 64);
    let err = smem.write_step(&[Some((10, 1)), Some((10, 2)), Some((11, 3))]).unwrap_err();
    assert!(matches!(err, WcmsError::CrewViolation { address: 10, .. }), "{err}");
    // The step was rejected wholesale: no partial write happened.
    assert_eq!(smem.as_slice()[10], 0);
    assert_eq!(smem.as_slice()[11], 0);
    assert_eq!(smem.drain_totals().steps, 0);
}

/// Reading then writing one address across *different* steps is fine;
/// only same-step write collisions are violations.
#[test]
fn read_then_write_across_steps_is_fine() {
    let mut smem = SharedMemory::<u32>::new(BankModel::gpu32(), 64);
    let mut out = vec![None; 2];
    let _ = smem.read_step(&[Some(5), None], &mut out).unwrap();
    let s = smem.write_step(&[None, Some((5, 9))]).unwrap();
    assert_eq!(s.crew_violations, 0);
    // Same step: refused.
    let mut both = SharedMemory::<u32>::new(BankModel::gpu32(), 64);
    both.fill_from(&[0; 64]);
    assert!(both.write_step(&[Some((5, 1)), Some((5, 2))]).is_err());
}

/// Out-of-tile accesses are refused with a typed error (a real kernel
/// would corrupt a neighbouring tile; the simulator refuses).
#[test]
fn out_of_bounds_read_is_refused() {
    let mut smem = SharedMemory::<u32>::new(BankModel::gpu32(), 16);
    let mut out = vec![None; 1];
    let err = smem.read_step(&[Some(16)], &mut out).unwrap_err();
    assert!(matches!(err, WcmsError::SmemOutOfBounds { address: 16, words: 16 }), "{err}");
}

/// A kernel whose tile exceeds the device's shared memory cannot launch:
/// occupancy reports it as unschedulable instead of under-counting.
#[test]
fn oversubscribed_tile_is_unschedulable() {
    let device = DeviceSpec::test_device(); // 16 KiB shared per SM
    assert!(Occupancy::compute(&device, 64, 32 * 1024).is_err());
    // …while a fitting tile schedules.
    assert!(Occupancy::compute(&device, 64, 8 * 1024).is_ok());
}

/// One generated tile operation.
#[derive(Debug, Clone)]
enum TileOp {
    /// A write step; lanes may repeat an address or address past the tile.
    Write(Vec<Option<(usize, u32)>>),
    /// A read step and the length of its output buffer.
    Read(Vec<Option<usize>>, usize),
    /// `drain_totals`, which restarts the step index.
    Drain,
}

/// Words of the generated tiles; generated addresses run 3 past them.
const TILE_WORDS: usize = 40;

fn tile_op() -> impl Strategy<Value = TileOp> {
    let addr = || 0usize..TILE_WORDS + 3;
    let lanes = 0usize..10;
    prop_oneof![
        proptest::collection::vec(proptest::option::of((addr(), 0u32..1000)), lanes.clone())
            .prop_map(TileOp::Write),
        (proptest::collection::vec(proptest::option::of(addr()), lanes), 0usize..4).prop_map(
            // One read in four gets an output buffer one lane short.
            |(addrs, k)| {
                let out = if k == 0 { addrs.len().saturating_sub(1) } else { addrs.len() };
                TileOp::Read(addrs, out)
            }
        ),
        Just(TileOp::Drain),
    ]
}

/// A refusal, comparable across runs.
#[derive(Debug, PartialEq)]
enum Refusal {
    OutOfBounds { address: usize, words: usize },
    Crew { step: usize, address: usize },
    ShortOutput { need: usize, got: usize },
}

fn refusal(err: WcmsError) -> Refusal {
    match err {
        WcmsError::SmemOutOfBounds { address, words } => Refusal::OutOfBounds { address, words },
        WcmsError::CrewViolation { step, address } => Refusal::Crew { step, address },
        WcmsError::BufferMismatch { need, got, .. } => Refusal::ShortOutput { need, got },
        other => panic!("unexpected refusal {other}"),
    }
}

/// The lane-order rule for a write step: the first lane that addresses
/// past the tile or repeats an earlier lane's address decides the
/// refusal; `steps` is the count of steps recorded since the last drain.
fn lane_order_write(writes: &[Option<(usize, u32)>], steps: usize) -> Option<Refusal> {
    writes.iter().enumerate().find_map(|(i, w)| {
        let (address, _) = (*w)?;
        if address >= TILE_WORDS {
            Some(Refusal::OutOfBounds { address, words: TILE_WORDS })
        } else if writes[..i].iter().flatten().any(|&(prev, _)| prev == address) {
            Some(Refusal::Crew { step: steps, address })
        } else {
            None
        }
    })
}

/// The same for a read step: a short output buffer, then the first lane
/// past the tile.
fn lane_order_read(addrs: &[Option<usize>], out: usize) -> Option<Refusal> {
    if out < addrs.len() {
        return Some(Refusal::ShortOutput { need: addrs.len(), got: out });
    }
    addrs
        .iter()
        .flatten()
        .find(|&&a| a >= TILE_WORDS)
        .map(|&address| Refusal::OutOfBounds { address, words: TILE_WORDS })
}

proptest! {
    /// Random read and write steps carrying repeated and out-of-bounds
    /// addresses, on flat and padded tiles: every `Result` is the one the
    /// lane-order rule predicts, and a refused step leaves the tile and
    /// the totals exactly as a twin tile that never saw it.
    #[test]
    fn refusals_follow_lane_order_and_change_nothing(
        padded in proptest::bool::ANY,
        ops in proptest::collection::vec(tile_op(), 1..32),
    ) {
        let tile = || {
            let model = BankModel::new(8);
            if padded {
                SharedMemory::<u32>::new_padded(model, TILE_WORDS)
            } else {
                SharedMemory::<u32>::new(model, TILE_WORDS)
            }
        };
        // `smem` sees every step; `twin` only the accepted ones.
        let (mut smem, mut twin) = (tile(), tile());
        let mut data = [0u32; TILE_WORDS];
        let mut steps = 0usize;
        for op in &ops {
            match op {
                TileOp::Write(writes) => match lane_order_write(writes, steps) {
                    Some(want) => {
                        prop_assert_eq!(refusal(smem.write_step(writes).unwrap_err()), want);
                    }
                    None => {
                        let s = smem.write_step(writes).unwrap();
                        prop_assert_eq!(twin.write_step(writes).unwrap(), s);
                        for &(a, v) in writes.iter().flatten() {
                            data[a] = v;
                        }
                        steps += usize::from(s.active_lanes > 0);
                    }
                },
                TileOp::Read(addrs, out_len) => {
                    let mut out = vec![None; *out_len];
                    match lane_order_read(addrs, *out_len) {
                        Some(want) => {
                            let err = smem.read_step(addrs, &mut out).unwrap_err();
                            prop_assert_eq!(refusal(err), want);
                        }
                        None => {
                            let s = smem.read_step(addrs, &mut out).unwrap();
                            let mut twin_out = vec![None; *out_len];
                            prop_assert_eq!(twin.read_step(addrs, &mut twin_out).unwrap(), s);
                            let want: Vec<Option<u32>> =
                                addrs.iter().map(|a| a.map(|a| data[a])).collect();
                            prop_assert_eq!(&out[..addrs.len()], &want[..]);
                            steps += usize::from(s.active_lanes > 0);
                        }
                    }
                }
                TileOp::Drain => {
                    prop_assert_eq!(smem.drain_totals(), twin.drain_totals());
                    steps = 0;
                }
            }
            prop_assert_eq!(smem.as_slice(), &data[..]);
        }
        prop_assert_eq!(smem.drain_totals(), twin.drain_totals());
    }
}
