//! Per-step warp access descriptions.
//!
//! A [`WarpStep`] is one synchronous time step of the DMM: at most one
//! memory request per lane. Inactive lanes (threads that have exhausted
//! their work or are masked off by divergence) simply issue no request.

/// Whether a request reads or writes its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AccessKind {
    /// A load. Concurrent loads of the same address broadcast (1 cycle).
    Read,
    /// A store. Concurrent stores to the same address violate CREW.
    Write,
}

/// One lane's memory request in a step.
///
/// Addresses are `u32` words: the conflict counter packs a request into
/// one 64-bit sort key that is exact on this domain (see
/// [`crate::ConflictCounter`]), so a wider address cannot be expressed
/// rather than silently aliased. 2³² words is 16 GiB of 32-bit keys,
/// far past any shared-memory tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Access {
    /// Word address within the shared-memory tile.
    pub(crate) addr: u32,
    /// Read or write.
    pub(crate) kind: AccessKind,
}

impl Access {
    /// A read of `addr`.
    #[must_use]
    #[inline]
    pub fn read(addr: u32) -> Self {
        Self { addr, kind: AccessKind::Read }
    }

    /// A write of `addr`.
    #[must_use]
    #[inline]
    pub fn write(addr: u32) -> Self {
        Self { addr, kind: AccessKind::Write }
    }
}

/// One synchronous step of a warp: an optional request per lane.
///
/// The lane index is the position in `WarpStep::lanes`. The number of
/// lanes need not equal the number of banks (the paper's illustrations use
/// `w = 16` lanes on 16 banks; sub-warp merges use fewer active lanes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarpStep {
    lanes: Vec<Option<Access>>,
}

impl WarpStep {
    /// An all-idle step with `width` lanes.
    #[must_use]
    pub fn idle(width: usize) -> Self {
        Self { lanes: vec![None; width] }
    }

    /// A step in which every lane reads, lane `i` reading `addrs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if an address does not fit in [`Access`]'s `u32` domain.
    #[must_use]
    pub fn all_read(addrs: &[usize]) -> Self {
        let read = |&a: &usize| {
            Some(Access::read(u32::try_from(a).expect("a DMM word address fits in u32")))
        };
        Self { lanes: addrs.iter().map(read).collect() }
    }

    /// Set lane `lane`'s request (enlarging the step if needed).
    pub fn set(&mut self, lane: usize, access: Access) {
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, None);
        }
        self.lanes[lane] = Some(access);
    }

    /// Clear all requests, keeping the lane count. Reuse one `WarpStep`
    /// across a hot loop to avoid reallocating.
    pub fn clear(&mut self) {
        self.lanes.iter_mut().for_each(|l| *l = None);
    }

    /// Per-lane requests.
    #[must_use]
    pub(crate) fn lanes(&self) -> &[Option<Access>] {
        &self.lanes
    }

    /// Number of lanes (active or not).
    #[must_use]
    pub fn width(&self) -> usize {
        self.lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_step_has_no_active_lanes() {
        let s = WarpStep::idle(32);
        assert_eq!(s.width(), 32);
        assert_eq!(s.lanes().iter().flatten().count(), 0);
        assert!(s.lanes().iter().all(Option::is_none));
    }

    #[test]
    fn all_read_marks_every_lane_active() {
        let s = WarpStep::all_read(&[0, 1, 2, 3]);
        assert_eq!(s.width(), 4);
        assert_eq!(s.lanes().iter().flatten().count(), 4);
        assert_eq!(s.lanes()[2], Some(Access::read(2)));
    }

    #[test]
    fn set_extends_width() {
        let mut s = WarpStep::idle(2);
        s.set(5, Access::write(40));
        assert_eq!(s.width(), 6);
        assert_eq!(s.lanes().iter().flatten().count(), 1);
        assert_eq!(s.lanes()[5], Some(Access::write(40)));
    }

    #[test]
    fn clear_keeps_width() {
        let mut s = WarpStep::all_read(&[7, 8]);
        s.clear();
        assert_eq!(s.width(), 2);
        assert!(s.lanes().iter().all(Option::is_none));
    }

    #[test]
    fn read_write_constructors() {
        assert_eq!(Access::read(3).kind, AccessKind::Read);
        assert_eq!(Access::write(3).kind, AccessKind::Write);
        assert_eq!(Access::read(3).addr, 3);
    }
}
