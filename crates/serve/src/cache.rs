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
//! Entries use the checkpoint crate's checksum framing with the XXH64
//! footer ([`wcms_bench::checkpoint::Checksum::Xxh64`]) and its
//! durable-write executor ([`wcms_bench::checkpoint::write_atomic`],
//! temp → fsync → rename). A `generate` with inline keys makes entries
//! of hundreds of KiB, and every hit verifies its entry: XXH64 takes
//! eight bytes per step where FNV-1a takes one, which made the check
//! most of a hit (DESIGN Decision 24). Entries with the FNV-1a footer
//! still verify and hit. A hit reads the file once, verifies it in
//! place and hands the payload out of the read buffer.
//!
//! A corrupt entry (torn write, bit flip, a file longer than any store
//! writes) is quarantined into `quarantine/` — evidence preserved — and
//! reported as a miss so the result is recomputed; a poisoned cache
//! must never serve wrong bytes.

use std::fs::{self, File};
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};

use wcms_bench::checkpoint::{decode_file, encode_file_with, write_atomic, Checksum, FOOTER_LEN};
use wcms_bench::protocol::ATOMIC_WRITE_STEPS;
use wcms_error::WcmsError;
use wcms_obs::context::fnv1a64;

use crate::wire::{MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME};

/// Cache schema version, folded into every canonical key (via
/// [`crate::wire::Request::canonical_key`]). Bump on any change to the
/// response payload encoding — an old entry must never alias a new
/// schema.
pub(crate) const CACHE_SCHEMA: u64 = 1;

/// The largest entry [`ResultCache::store`] writes: a key line of at
/// most a request frame, a payload of at most a response frame, and the
/// footer. [`ResultCache::lookup`] reads no more than this.
const MAX_ENTRY_BYTES: usize = MAX_REQUEST_FRAME + 1 + MAX_RESPONSE_FRAME + FOOTER_LEN;

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
        let mut text = match read_entry(&path) {
            Ok(Some(text)) => text,
            Ok(None) => return CacheOutcome::Miss,
            Err(reason) => return self.quarantine(&path, &reason),
        };
        let body = match decode_file(&text) {
            Ok(body) => body,
            Err(reason) => return self.quarantine(&path, &reason),
        };
        let Some((stored_key, _)) = body.split_once('\n') else {
            return self.quarantine(&path, "entry has no key/payload separator");
        };
        if stored_key != key {
            // A 64-bit fingerprint collision (or a hand-edited file):
            // the entry answers a different question. Recompute; the
            // store will overwrite.
            return CacheOutcome::Miss;
        }
        // `body` is a prefix of `text`: cut the footer and the key line
        // in place, so the payload leaves in the buffer it was read into.
        let (start, end) = (stored_key.len() + 1, body.len());
        text.truncate(end);
        text.replace_range(..start, "");
        CacheOutcome::Hit(text)
    }

    /// Store `payload` under `key` atomically (temp + fsync + rename),
    /// with the canonical key recorded inside the entry as a collision
    /// guard and the XXH64 footer. `payload` must be newline-free (wire
    /// documents are).
    ///
    /// # Errors
    ///
    /// [`WcmsError::WireMalformed`] for a key or payload containing a
    /// newline (it would tear the entry framing), or one longer than a
    /// request or response frame (no lookup would read it),
    /// [`WcmsError::Io`] on filesystem failures.
    pub fn store(&self, key: &str, payload: &str) -> Result<(), WcmsError> {
        if key.contains('\n') || payload.contains('\n') {
            return Err(WcmsError::WireMalformed {
                reason: "cache keys and payloads must be newline-free".into(),
            });
        }
        if key.len() > MAX_REQUEST_FRAME || payload.len() > MAX_RESPONSE_FRAME {
            return Err(WcmsError::WireMalformed {
                reason: format!(
                    "cache keys are at most {MAX_REQUEST_FRAME} B and payloads at most \
                     {MAX_RESPONSE_FRAME} B"
                ),
            });
        }
        let content = encode_file_with(&format!("{key}\n{payload}"), Checksum::Xxh64);
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

/// Read the entry at `path` whole: `Ok(None)` when there is none, and a
/// quarantine reason when it is unreadable, not UTF-8, or longer than
/// [`MAX_ENTRY_BYTES`]. The file's length refuses an oversized entry
/// before any of it is read and sizes the buffer, as `fs::read` does;
/// `take` bounds the read when the length lies (a file that grew, or a
/// link to a device).
fn read_entry(path: &Path) -> Result<Option<String>, String> {
    let unreadable = |e: io::Error| format!("unreadable cache entry: {e}");
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(unreadable(e)),
    };
    let len = file.metadata().map_err(unreadable)?.len();
    let limit = MAX_ENTRY_BYTES as u64;
    if len > limit {
        return Err(format!(
            "oversized cache entry: {len} bytes, more than the {MAX_ENTRY_BYTES} a store writes"
        ));
    }
    // Lossless: `len <= limit`, which is a usize.
    let mut bytes = Vec::with_capacity(len as usize + 1);
    let read = file.take(limit + 1).read_to_end(&mut bytes).map_err(unreadable)?;
    if read > MAX_ENTRY_BYTES {
        return Err(format!(
            "oversized cache entry: more than the {MAX_ENTRY_BYTES} bytes a store writes"
        ));
    }
    String::from_utf8(bytes).map(Some).map_err(|_| "cache entry is not UTF-8".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_bench::checkpoint::encode_file;

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

    /// An entry framed by `encode_file` (the FNV-1a footer every entry
    /// carried before XXH64) and one written by `store` share a
    /// directory, and both hit byte for byte.
    #[test]
    fn fnv1a_and_xxh64_entries_both_hit() {
        let cache = ResultCache::open(scratch("mixed")).unwrap();
        let (old_key, old_payload) = ("wcms/v1/s1 old entry", r#"{"ok":true,"old":1}"#);
        let (new_key, new_payload) = ("wcms/v1/s1 new entry", r#"{"ok":true,"new":2}"#);
        fs::write(cache.entry_path(old_key), encode_file(&format!("{old_key}\n{old_payload}")))
            .unwrap();
        cache.store(new_key, new_payload).unwrap();
        let written = fs::read_to_string(cache.entry_path(new_key)).unwrap();
        assert!(written.rsplit('\n').nth(1).is_some_and(|f| f.starts_with("xxh64:")), "{written}");
        assert_eq!(cache.lookup(old_key), CacheOutcome::Hit(old_payload.to_string()));
        assert_eq!(cache.lookup(new_key), CacheOutcome::Hit(new_payload.to_string()));
    }

    /// A planted or corrupt entry longer than any store writes is
    /// quarantined by its length, before it is read; a link to an
    /// endless device, whose length reads 0, by the bounded read.
    #[test]
    fn an_entry_longer_than_any_store_writes_is_quarantined() {
        let cache = ResultCache::open(scratch("oversized")).unwrap();
        let key = "wcms/v1/s1 oversized entry";
        let size = 2 * MAX_RESPONSE_FRAME as u64;
        File::create(cache.entry_path(key)).unwrap().set_len(size).unwrap();
        match cache.lookup(key) {
            CacheOutcome::Quarantined { reason } => {
                assert!(
                    reason.starts_with(&format!("oversized cache entry: {size} bytes")),
                    "{reason}"
                );
            }
            other => panic!("expected a quarantine, got {other:?}"),
        }
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink("/dev/zero", cache.entry_path(key)).unwrap();
            match cache.lookup(key) {
                CacheOutcome::Quarantined { reason } => {
                    assert!(reason.starts_with("oversized cache entry: more than"), "{reason}");
                }
                other => panic!("expected a quarantine, got {other:?}"),
            }
        }
    }

    #[test]
    fn newlines_in_payloads_are_refused() {
        let cache = ResultCache::open(scratch("newline")).unwrap();
        let err = cache.store("key", "line1\nline2").unwrap_err();
        assert!(matches!(err, WcmsError::WireMalformed { .. }), "{err}");
        // Nor is an entry stored that no lookup would read.
        let err = cache.store("key", &"x".repeat(MAX_RESPONSE_FRAME + 1)).unwrap_err();
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
