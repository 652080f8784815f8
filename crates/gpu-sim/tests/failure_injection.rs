//! Failure injection: deliberately broken kernels must be caught by the
//! simulator's accounting, not silently mis-measured. A kernel that
//! races writes, reads out of bounds, or exceeds occupancy is a bug in
//! the *sort*, and the substrate's job is to surface it.

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
