//! The content-addressed result cache.
//!
//! Every compute response is cached under the FNV-1a fingerprint of its
//! request's canonical key ([`crate::wire::Request::canonical_key`]) —
//! the paper's constructions are pure in `(E, b, w, N, family, seed)`,
//! so repeat traffic is a byte-exact replay. The cache stores the
//! *exact response payload bytes*, which is what makes "byte-identical
//! across a crash" checkable with `cmp`: a hit re-sends the bytes the
//! cold computation produced, with no re-encoding step to drift.
//!
//! Entries use the checkpoint crate's checksum framing
//! ([`wcms_bench::checkpoint::encode_file`]) and its durable-write
//! executor ([`wcms_bench::checkpoint::write_atomic`], temp → fsync →
//! rename). A corrupt entry (torn write, bit flip) is
//! quarantined into `quarantine/` — evidence preserved — and reported
//! as a miss so the result is recomputed; a poisoned cache must never
//! serve wrong bytes.

use std::fs;
use std::path::{Path, PathBuf};

use wcms_bench::checkpoint::{decode_file, encode_file, write_atomic};
use wcms_bench::protocol::ATOMIC_WRITE_STEPS;
use wcms_error::WcmsError;
use wcms_obs::context::fnv1a64;

/// Cache schema version, folded into every canonical key (via
/// [`crate::wire::Request::canonical_key`]). Bump on any change to the
/// response payload encoding — an old entry must never alias a new
/// schema.
pub(crate) const CACHE_SCHEMA: u64 = 1;

/// The fingerprint a canonical key files under (also the file stem).
#[must_use]
pub fn fingerprint(canonical_key: &str) -> u64 {
    fnv1a64(canonical_key.as_bytes())
}

/// What a cache lookup found.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cached response payload, byte-exact as first computed.
    Hit(String),
    /// No entry (or an entry for a colliding key — recompute).
    Miss,
    /// The entry failed its integrity checks and was moved to
    /// `quarantine/`.
    Quarantined {
        /// What the integrity check found.
        reason: String,
    },
}

/// A directory of checksummed response payloads, one file per
/// canonical key.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WcmsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fingerprint(key)))
    }

    /// Look `key` up. Never errors: anything suspicious becomes
    /// [`CacheOutcome::Quarantined`] (recompute) — corruption is
    /// visible in counters, never served.
    #[must_use]
    pub fn lookup(&self, key: &str) -> CacheOutcome {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheOutcome::Miss,
            Err(e) => return self.quarantine(&path, &format!("unreadable cache entry: {e}")),
        };
        let body = match decode_file(&text) {
            Ok(body) => body,
            Err(reason) => return self.quarantine(&path, &reason),
        };
        let Some((stored_key, payload)) = body.split_once('\n') else {
            return self.quarantine(&path, "entry has no key/payload separator");
        };
        if stored_key != key {
            // A 64-bit fingerprint collision (or a hand-edited file):
            // the entry answers a different question. Recompute; the
            // store will overwrite.
            return CacheOutcome::Miss;
        }
        CacheOutcome::Hit(payload.to_string())
    }

    /// Store `payload` under `key` atomically (temp + fsync + rename),
    /// with the canonical key recorded inside the entry as a collision
    /// guard. `payload` must be newline-free (wire documents are).
    ///
    /// # Errors
    ///
    /// [`WcmsError::WireMalformed`] for a payload containing a newline
    /// (it would tear the entry framing), [`WcmsError::Io`] on
    /// filesystem failures.
    pub fn store(&self, key: &str, payload: &str) -> Result<(), WcmsError> {
        if key.contains('\n') || payload.contains('\n') {
            return Err(WcmsError::WireMalformed {
                reason: "cache keys and payloads must be newline-free".into(),
            });
        }
        let content = encode_file(&format!("{key}\n{payload}"));
        write_atomic(ATOMIC_WRITE_STEPS, &self.entry_path(key), content.as_bytes())
    }

    fn quarantine(&self, path: &Path, reason: &str) -> CacheOutcome {
        let qdir = self.dir.join("quarantine");
        let dest = qdir.join(path.file_name().unwrap_or_default());
        match fs::create_dir_all(&qdir).and_then(|()| fs::rename(path, &dest)) {
            Ok(()) => CacheOutcome::Quarantined { reason: reason.to_string() },
            Err(e) => CacheOutcome::Quarantined {
                reason: format!("{reason}; quarantine move also failed: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcms-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hits_replay_the_stored_bytes_exactly() {
        let cache = ResultCache::open(scratch("hit")).unwrap();
        let key = "wcms/v1/s1 measure w=32 e=7 b=64 n=3584 family=worst-case runs=2 backend=sim device=test";
        let payload = r#"{"ok":true,"op":"measure","cell":"{\"status\":\"done\"}"}"#;
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
        cache.store(key, payload).unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Hit(payload.to_string()));
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let cache = ResultCache::open(scratch("corrupt")).unwrap();
        let key = "wcms/v1/s1 generate w=32 e=7 b=64 n=3584 family=worst-case data=0";
        cache.store(key, "{\"ok\":true}").unwrap();
        // Flip one byte in the stored entry.
        let path = cache.dir.join(format!("{:016x}.json", fingerprint(key)));
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.lookup(key), CacheOutcome::Quarantined { .. }));
        // The evidence moved to quarantine/ and the slot reads as a miss.
        assert!(cache.dir.join("quarantine").join(path.file_name().unwrap()).exists());
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
        // Recompute-and-store heals the slot.
        cache.store(key, "{\"ok\":true}").unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Hit("{\"ok\":true}".to_string()));
    }

    #[test]
    fn colliding_keys_read_as_miss_never_as_wrong_bytes() {
        let cache = ResultCache::open(scratch("collide")).unwrap();
        let key = "wcms/v1/s1 status-like key";
        cache.store(key, "{\"a\":1}").unwrap();
        // Overwrite the entry file with one recorded under a different
        // canonical key (simulating a fingerprint collision).
        let path = cache.dir.join(format!("{:016x}.json", fingerprint(key)));
        fs::write(&path, encode_file("some other key\n{\"b\":2}")).unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
    }

    /// Threads storing one key must never share a temp file: every
    /// store succeeds and a byte-exact hit survives.
    #[test]
    fn concurrent_stores_of_one_key_never_collide() {
        let cache = ResultCache::open(scratch("race")).unwrap();
        let key = "wcms/v1/s1 generate w=32 e=7 b=64 n=3584 family=worst-case data=0";
        let payload = "{\"ok\":true,\"op\":\"generate\"}";
        let start = std::sync::Barrier::new(2);
        let failed: usize = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..500).filter(|_| cache.store(key, payload).is_err()).count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failed, 0, "stores of one key collided on a temp file");
        assert_eq!(cache.lookup(key), CacheOutcome::Hit(payload.to_string()));
    }

    #[test]
    fn newlines_in_payloads_are_refused() {
        let cache = ResultCache::open(scratch("newline")).unwrap();
        let err = cache.store("key", "line1\nline2").unwrap_err();
        assert!(matches!(err, WcmsError::WireMalformed { .. }), "{err}");
    }

    #[test]
    fn fingerprints_are_stable_golden_bytes() {
        // Standard FNV-1a 64 test vectors: if the hash family drifts,
        // every existing cache entry silently stops matching its key.
        // Change CACHE_SCHEMA for codec changes — never the hash.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325, "offset basis drifted");
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint("foobar"), 0x8594_4171_f739_67e8);
    }
}
