//! Saving and loading key datasets.
//!
//! A self-describing binary format so that expensive adversarial inputs
//! can be generated once and replayed — e.g. to hand a constructed
//! permutation to an external CUDA harness on a real GPU.
//!
//! Version 2 layout (all little-endian):
//!
//! ```text
//! magic    8 B   "WCMSKEYS"
//! version  4 B   2
//! width    4 B   key width in bytes (4 for u32 keys)
//! count    8 B   number of keys
//! payload  count × width bytes
//! checksum 8 B   FNV-1a 64 over the payload bytes
//! ```
//!
//! Version 3 is the *streaming* layout: the payload is cut into
//! fixed-size chunks, each independently checksummed, and the chunk
//! index lives up front so a reader can verify and yield one chunk at
//! a time under bounded memory — N = 10⁹ keys never has to exist as a
//! single allocation on either side:
//!
//! ```text
//! magic    8 B   "WCMSKEYS"
//! version  4 B   3
//! width    4 B   key width in bytes (4 for u32 keys)
//! count    8 B   number of keys
//! chunk    8 B   chunk size in keys
//! hsum     8 B   FNV-1a 64 over the 32 header bytes above
//! index    ⌈count/chunk⌉ × 8 B   per-chunk FNV-1a 64 over that chunk's bytes
//! isum     8 B   FNV-1a 64 over the index bytes
//! payload  chunks of chunk × width bytes (the final chunk may be short)
//! ```
//!
//! Version 1 files (no width field, no checksum) remain readable, and
//! [`write_keys`] still emits version 2 so existing fixtures and the
//! external CUDA harness keep working. The decoder is strict: wrong
//! magic, unsupported version, wrong key width, truncated payload,
//! trailing bytes and checksum mismatches (header, index or chunk) all
//! surface as [`WcmsError::DatasetCorrupt`] — a fault-injection target
//! as much as a file format.

use std::collections::BinaryHeap;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use wcms_error::WcmsError;

const MAGIC: &[u8; 8] = b"WCMSKEYS";
const VERSION: u32 = 2;
/// Version tag of the chunked streaming layout.
const VERSION_V3: u32 = 3;
const KEY_WIDTH: u32 = 4;

/// Default chunk size (in keys) for version-3 files: 4 MiB of payload
/// per chunk — small enough that a reader buffer is negligible, large
/// enough that the chunk index for N = 10⁹ stays under 8 KiB.
pub const DEFAULT_CHUNK_KEYS: usize = 1 << 20;
/// Largest chunk size (in keys) the codec accepts; bounds the reader's
/// single-chunk buffer at 16 MiB no matter what a hostile header says.
const MAX_CHUNK_KEYS: usize = 1 << 22;
/// Largest chunk count the codec accepts; bounds the in-memory chunk
/// index at 32 MiB no matter what a hostile header says.
const MAX_CHUNKS: u64 = 1 << 22;

/// FNV-1a 64-bit — tiny, dependency-free, and plenty to catch the
/// bit-flips and truncations the fault injector produces.
fn fnv1a(bytes: &[u8], state: u64) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Serialize `keys` into `w` (version-2 format, with checksum).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_keys<W: Write>(mut w: W, keys: &[u32]) -> Result<(), WcmsError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&KEY_WIDTH.to_le_bytes())?;
    w.write_all(&(keys.len() as u64).to_le_bytes())?;
    // Chunked conversion keeps peak memory at 64 KiB regardless of N.
    let mut buf = Vec::with_capacity(16384 * 4);
    let mut checksum = FNV_OFFSET;
    for chunk in keys.chunks(16384) {
        buf.clear();
        for k in chunk {
            buf.extend_from_slice(&k.to_le_bytes());
        }
        checksum = fnv1a(&buf, checksum);
        w.write_all(&buf)?;
    }
    w.write_all(&checksum.to_le_bytes())?;
    Ok(())
}

fn corrupt(reason: impl Into<String>) -> WcmsError {
    WcmsError::DatasetCorrupt { reason: reason.into() }
}

/// `read_exact` whose premature EOF is *corruption* (a truncated file),
/// not a generic I/O failure.
fn read_exact_or_corrupt<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), WcmsError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            corrupt(format!("truncated {what}"))
        } else {
            WcmsError::Io(e)
        }
    })
}

/// Deserialize keys produced by [`write_keys`] or [`DatasetWriter`]
/// (any format version). Convenience wrapper over [`DatasetReader`]
/// for datasets that fit in memory.
///
/// # Errors
///
/// Returns [`WcmsError::DatasetCorrupt`] on a bad magic, unsupported
/// version, wrong key width, truncated payload, trailing bytes or
/// checksum mismatch (payload, header, index or chunk); non-EOF reader
/// failures surface as [`WcmsError::Io`].
pub fn read_keys<R: Read>(r: R) -> Result<Vec<u32>, WcmsError> {
    let mut reader = DatasetReader::open(r)?;
    let mut keys = Vec::with_capacity((reader.count() as usize).min(1 << 24));
    while let Some(chunk) = reader.next_chunk()? {
        keys.extend_from_slice(&chunk);
    }
    Ok(keys)
}

/// Streaming writer for the version-3 chunked layout.
///
/// The key count must be declared up front (it sizes the chunk index,
/// which lives before the payload); keys are then appended in any
/// slice granularity and flushed chunk-by-chunk, so peak memory is one
/// chunk regardless of N. [`DatasetWriter::finish`] seeks back to
/// backpatch the chunk index — hence the `Seek` bound — and fails if
/// the declared count was not met exactly.
pub struct DatasetWriter<W: Write + Seek> {
    w: W,
    count: u64,
    chunk: usize,
    written: u64,
    buf: Vec<u8>,
    sums: Vec<u64>,
    index_pos: u64,
    finished: bool,
}

impl<W: Write + Seek> DatasetWriter<W> {
    /// Start a version-3 file that will hold exactly `count` keys in
    /// chunks of `chunk` keys. Writes the header and a placeholder
    /// chunk index; the real index is backpatched by `finish`.
    ///
    /// # Errors
    ///
    /// [`WcmsError::DatasetCorrupt`] for a zero or oversized chunk
    /// size or an oversized chunk count; I/O errors from the writer.
    pub fn new(mut w: W, count: u64, chunk: usize) -> Result<Self, WcmsError> {
        let n_chunks = check_geometry(count, chunk)?;
        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION_V3.to_le_bytes());
        header.extend_from_slice(&KEY_WIDTH.to_le_bytes());
        header.extend_from_slice(&count.to_le_bytes());
        header.extend_from_slice(&(chunk as u64).to_le_bytes());
        let hsum = fnv1a(&header, FNV_OFFSET);
        w.write_all(&header)?;
        w.write_all(&hsum.to_le_bytes())?;
        let index_pos = 40;
        // Placeholder index + index checksum, backpatched by finish().
        let zeros = vec![0u8; 4096];
        let mut remaining = (n_chunks as usize + 1) * 8;
        while remaining > 0 {
            let take = remaining.min(zeros.len());
            w.write_all(&zeros[..take])?;
            remaining -= take;
        }
        Ok(Self {
            w,
            count,
            chunk,
            written: 0,
            buf: Vec::with_capacity(chunk * 4),
            sums: Vec::with_capacity(n_chunks as usize),
            index_pos,
            finished: false,
        })
    }

    /// Append keys; flushes every completed chunk immediately.
    ///
    /// # Errors
    ///
    /// [`WcmsError::DatasetCorrupt`] when more keys arrive than the
    /// declared count; I/O errors from the writer.
    pub fn write_keys(&mut self, keys: &[u32]) -> Result<(), WcmsError> {
        if self.written + keys.len() as u64 > self.count {
            return Err(corrupt(format!(
                "dataset writer overflow: declared {} keys, got more",
                self.count
            )));
        }
        self.written += keys.len() as u64;
        for k in keys {
            self.buf.extend_from_slice(&k.to_le_bytes());
            if self.buf.len() == self.chunk * 4 {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), WcmsError> {
        self.sums.push(fnv1a(&self.buf, FNV_OFFSET));
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Flush the final partial chunk, backpatch the chunk index and
    /// return the underlying writer positioned at end-of-file.
    ///
    /// # Errors
    ///
    /// [`WcmsError::DatasetCorrupt`] when fewer keys were written than
    /// declared; I/O errors from the writer.
    pub fn finish(mut self) -> Result<W, WcmsError> {
        if self.written != self.count {
            return Err(corrupt(format!(
                "dataset writer underflow: declared {} keys, wrote {}",
                self.count, self.written
            )));
        }
        if !self.buf.is_empty() {
            self.flush_chunk()?;
        }
        let mut index = Vec::with_capacity(self.sums.len() * 8);
        for s in &self.sums {
            index.extend_from_slice(&s.to_le_bytes());
        }
        let isum = fnv1a(&index, FNV_OFFSET);
        self.w.flush()?;
        self.w.seek(SeekFrom::Start(self.index_pos))?;
        self.w.write_all(&index)?;
        self.w.write_all(&isum.to_le_bytes())?;
        self.w.flush()?;
        self.w.seek(SeekFrom::End(0))?;
        self.finished = true;
        Ok(self.w)
    }
}

/// Validate the (count, chunk) geometry shared by writer and reader;
/// returns the chunk count.
fn check_geometry(count: u64, chunk: usize) -> Result<u64, WcmsError> {
    if chunk == 0 {
        return Err(corrupt("zero chunk size"));
    }
    if chunk > MAX_CHUNK_KEYS {
        return Err(corrupt(format!("oversized chunk size {chunk} keys (max {MAX_CHUNK_KEYS})")));
    }
    let n_chunks = count.div_ceil(chunk as u64);
    if n_chunks > MAX_CHUNKS {
        return Err(corrupt(format!("oversized chunk count {n_chunks} (max {MAX_CHUNKS})")));
    }
    Ok(n_chunks)
}

enum Layout {
    /// v1 (no checksum) / v2 (one whole-payload checksum): streamed in
    /// fixed 16384-key slices with a running FNV state.
    Flat { version: u32, running: u64 },
    /// v3: per-chunk checksums, verified against the up-front index.
    Chunked { sums: Vec<u64>, chunk: usize },
}

/// Streaming, verifying reader for every dataset version.
///
/// Yields one chunk of keys at a time (16384 keys for v1/v2, the
/// file's declared chunk size for v3), so peak memory stays bounded no
/// matter how large the file is. All integrity checks of [`read_keys`]
/// apply: corruption surfaces as [`WcmsError::DatasetCorrupt`] from
/// `open` or from the `next_chunk` that reaches the damaged bytes.
pub struct DatasetReader<R: Read> {
    r: R,
    count: u64,
    delivered: u64,
    next_chunk: usize,
    layout: Layout,
    done: bool,
}

impl<R: Read> DatasetReader<R> {
    /// Parse and verify the header (and, for v3, the chunk index).
    ///
    /// # Errors
    ///
    /// [`WcmsError::DatasetCorrupt`] on bad magic, unsupported
    /// version, wrong key width, truncated or checksum-failing header
    /// or index; non-EOF reader failures as [`WcmsError::Io`].
    pub fn open(mut r: R) -> Result<Self, WcmsError> {
        let mut magic = [0u8; 8];
        read_exact_or_corrupt(&mut r, &mut magic, "header")?;
        if &magic != MAGIC {
            return Err(corrupt("not a wcms key file"));
        }
        let mut word = [0u8; 4];
        read_exact_or_corrupt(&mut r, &mut word, "header")?;
        let version = u32::from_le_bytes(word);
        if version != 1 && version != VERSION && version != VERSION_V3 {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        if version != 1 {
            read_exact_or_corrupt(&mut r, &mut word, "header")?;
            let width = u32::from_le_bytes(word);
            if width != KEY_WIDTH {
                return Err(corrupt(format!("key width {width} B, expected {KEY_WIDTH} B")));
            }
        }
        let mut len8 = [0u8; 8];
        read_exact_or_corrupt(&mut r, &mut len8, "header")?;
        let count = u64::from_le_bytes(len8);

        let layout = if version == VERSION_V3 {
            let mut chunk8 = [0u8; 8];
            read_exact_or_corrupt(&mut r, &mut chunk8, "header")?;
            let mut sum8 = [0u8; 8];
            read_exact_or_corrupt(&mut r, &mut sum8, "header checksum")?;
            let stored = u64::from_le_bytes(sum8);
            // Recompute over the exact 32 bytes read so far.
            let mut header = Vec::with_capacity(32);
            header.extend_from_slice(&magic);
            header.extend_from_slice(&VERSION_V3.to_le_bytes());
            header.extend_from_slice(&KEY_WIDTH.to_le_bytes());
            header.extend_from_slice(&len8);
            header.extend_from_slice(&chunk8);
            let computed = fnv1a(&header, FNV_OFFSET);
            if stored != computed {
                return Err(corrupt(format!(
                    "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )));
            }
            let chunk_u64 = u64::from_le_bytes(chunk8);
            let chunk = usize::try_from(chunk_u64)
                .map_err(|_| corrupt(format!("oversized chunk size {chunk_u64} keys")))?;
            let n_chunks = check_geometry(count, chunk)? as usize;
            let mut sums = Vec::with_capacity(n_chunks);
            let mut isum = FNV_OFFSET;
            let mut entry = [0u8; 8];
            for _ in 0..n_chunks {
                read_exact_or_corrupt(&mut r, &mut entry, "chunk index")?;
                isum = fnv1a(&entry, isum);
                sums.push(u64::from_le_bytes(entry));
            }
            read_exact_or_corrupt(&mut r, &mut entry, "chunk index checksum")?;
            let stored = u64::from_le_bytes(entry);
            if stored != isum {
                return Err(corrupt(format!(
                    "chunk index checksum mismatch: stored {stored:#018x}, computed {isum:#018x}"
                )));
            }
            Layout::Chunked { sums, chunk }
        } else {
            Layout::Flat { version, running: FNV_OFFSET }
        };
        Ok(Self { r, count, delivered: 0, next_chunk: 0, layout, done: false })
    }

    /// Total number of keys the file declares.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Next verified chunk of keys, or `None` once the whole payload
    /// (and every trailing check) has been consumed.
    ///
    /// # Errors
    ///
    /// [`WcmsError::DatasetCorrupt`] on truncation, a chunk or payload
    /// checksum mismatch, or trailing bytes after the payload.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u32>>, WcmsError> {
        if self.done {
            return Ok(None);
        }
        if self.delivered == self.count {
            self.finalize()?;
            return Ok(None);
        }
        let remaining = (self.count - self.delivered) as usize;
        let take = match &self.layout {
            Layout::Flat { .. } => remaining.min(16384),
            Layout::Chunked { chunk, .. } => remaining.min(*chunk),
        };
        let mut bytes = vec![0u8; take * 4];
        read_exact_or_corrupt(&mut self.r, &mut bytes, "payload")?;
        match &mut self.layout {
            Layout::Flat { running, .. } => *running = fnv1a(&bytes, *running),
            Layout::Chunked { sums, .. } => {
                let i = self.next_chunk;
                let computed = fnv1a(&bytes, FNV_OFFSET);
                if sums[i] != computed {
                    return Err(corrupt(format!(
                        "chunk {i} checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                        sums[i]
                    )));
                }
            }
        }
        self.next_chunk += 1;
        self.delivered += take as u64;
        let keys =
            bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        Ok(Some(keys))
    }

    /// Trailing checks once the payload is exhausted: the v2 payload
    /// checksum, then a one-byte probe for spliced/oversized files.
    fn finalize(&mut self) -> Result<(), WcmsError> {
        self.done = true;
        if let Layout::Flat { version, running } = &self.layout {
            if *version == VERSION {
                let mut sum8 = [0u8; 8];
                read_exact_or_corrupt(&mut self.r, &mut sum8, "checksum")?;
                let stored = u64::from_le_bytes(sum8);
                if stored != *running {
                    return Err(corrupt(format!(
                        "checksum mismatch: stored {stored:#018x}, computed {:#018x}",
                        running
                    )));
                }
            }
        }
        // A valid file ends exactly here: anything more means the count
        // field undersells the payload (an oversized / spliced file).
        let mut probe = [0u8; 1];
        match self.r.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(corrupt("trailing bytes after payload")),
            Err(e) => Err(WcmsError::Io(e)),
        }
    }
}

/// Order-independent (multiset) fingerprint of a key stream: the
/// wrapping sum of each key's own FNV-1a hash. Two files hold the same
/// keys in any order iff their fingerprints match (modulo collisions)
/// — the check an external sort uses to prove it lost nothing, and
/// computable one chunk at a time under bounded memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultisetFingerprint {
    acc: u64,
}

impl MultisetFingerprint {
    /// Fresh (empty-multiset) fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a chunk of keys into the fingerprint.
    pub fn update(&mut self, keys: &[u32]) {
        for k in keys {
            self.acc = self.acc.wrapping_add(fnv1a(&k.to_le_bytes(), FNV_OFFSET));
        }
    }

    /// The accumulated fingerprint value.
    pub fn finish(&self) -> u64 {
        self.acc
    }
}

/// What [`sort_dataset_file`] did: sizes for reporting and the shared
/// input/output multiset fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct SortFileReport {
    /// Number of keys sorted.
    pub keys: u64,
    /// Number of sorted runs merged.
    pub runs: usize,
    /// Multiset fingerprint shared by input and output.
    pub fingerprint: u64,
}

/// External merge sort over version-3 dataset files: streams `input`
/// in sorted runs of `run_keys` keys (each run a temporary v3 file),
/// then k-way merges the runs into `output`, verifying that the output
/// multiset fingerprint matches the input's. Peak memory is one run
/// plus one reader chunk per run — N = 10⁸ sorts comfortably under
/// 256 MiB with the default geometry.
///
/// # Errors
///
/// [`WcmsError::DatasetCorrupt`] if the input fails verification or
/// the merged output's fingerprint differs from the input's; I/O
/// errors from the filesystem.
pub fn sort_dataset_file(
    input: &Path,
    output: &Path,
    run_keys: usize,
) -> Result<SortFileReport, WcmsError> {
    let run_keys = run_keys.max(1);
    let run_dir = output.with_extension("runs.tmp");
    fs::create_dir_all(&run_dir)?;
    let cleanup = |dir: &Path| {
        let _ = fs::remove_dir_all(dir);
    };

    // Phase 1: cut the input into sorted runs, fingerprinting as we go.
    let mut reader = DatasetReader::open(BufReader::new(File::open(input)?))
        .map_err(|e| (cleanup(&run_dir), e).1)?;
    let total = reader.count();
    let mut in_print = MultisetFingerprint::new();
    let mut runs: Vec<std::path::PathBuf> = Vec::new();
    let result = (|| -> Result<(), WcmsError> {
        let mut pending: Vec<u32> = Vec::with_capacity(run_keys.min(total as usize + 1));
        let flush = |pending: &mut Vec<u32>, runs: &mut Vec<std::path::PathBuf>| {
            if pending.is_empty() {
                return Ok::<(), WcmsError>(());
            }
            pending.sort_unstable();
            let path = run_dir.join(format!("run-{:06}.keys", runs.len()));
            let file = BufWriter::new(File::create(&path)?);
            let chunk = run_keys.min(DEFAULT_CHUNK_KEYS).min(1 << 16);
            let mut w = DatasetWriter::new(file, pending.len() as u64, chunk)?;
            w.write_keys(pending)?;
            w.finish()?.into_inner().map_err(|e| WcmsError::Io(e.into_error()))?.sync_all()?;
            runs.push(path);
            pending.clear();
            Ok(())
        };
        while let Some(chunk) = reader.next_chunk()? {
            in_print.update(&chunk);
            let mut rest: &[u32] = &chunk;
            while !rest.is_empty() {
                let take = (run_keys - pending.len()).min(rest.len());
                pending.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if pending.len() == run_keys {
                    flush(&mut pending, &mut runs)?;
                }
            }
        }
        flush(&mut pending, &mut runs)?;

        // Phase 2: k-way merge of the runs into the output file.
        let mut sources: Vec<DatasetReader<BufReader<File>>> = Vec::with_capacity(runs.len());
        for path in &runs {
            sources.push(DatasetReader::open(BufReader::new(File::open(path)?))?);
        }
        // (key, source) min-heap via Reverse; `cursors` holds each
        // source's current chunk and position within it.
        let mut cursors: Vec<(Vec<u32>, usize)> = Vec::with_capacity(sources.len());
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> = BinaryHeap::new();
        for (i, src) in sources.iter_mut().enumerate() {
            let chunk = src.next_chunk()?.unwrap_or_default();
            if !chunk.is_empty() {
                heap.push(std::cmp::Reverse((chunk[0], i)));
            }
            cursors.push((chunk, 0));
        }
        let out_file = BufWriter::new(File::create(output)?);
        let mut w = DatasetWriter::new(out_file, total, DEFAULT_CHUNK_KEYS)?;
        let mut out_print = MultisetFingerprint::new();
        let mut out_buf: Vec<u32> = Vec::with_capacity(1 << 14);
        while let Some(std::cmp::Reverse((key, i))) = heap.pop() {
            out_buf.push(key);
            if out_buf.len() == out_buf.capacity() {
                out_print.update(&out_buf);
                w.write_keys(&out_buf)?;
                out_buf.clear();
            }
            let (chunk, pos) = &mut cursors[i];
            *pos += 1;
            if *pos == chunk.len() {
                *chunk = sources[i].next_chunk()?.unwrap_or_default();
                *pos = 0;
            }
            if *pos < chunk.len() {
                heap.push(std::cmp::Reverse((chunk[*pos], i)));
            }
        }
        out_print.update(&out_buf);
        w.write_keys(&out_buf)?;
        w.finish()?.into_inner().map_err(|e| WcmsError::Io(e.into_error()))?.sync_all()?;
        if out_print.finish() != in_print.finish() {
            return Err(corrupt(format!(
                "external sort fingerprint mismatch: input {:#018x}, output {:#018x}",
                in_print.finish(),
                out_print.finish()
            )));
        }
        Ok(())
    })();
    cleanup(&run_dir);
    result?;
    Ok(SortFileReport { keys: total, runs: runs.len(), fingerprint: in_print.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        for keys in [vec![], vec![7u32], (0..100_000u32).rev().collect::<Vec<_>>()] {
            let mut buf = Vec::new();
            write_keys(&mut buf, &keys).unwrap();
            assert_eq!(read_keys(buf.as_slice()).unwrap(), keys);
        }
    }

    #[test]
    fn header_size_is_fixed() {
        let mut buf = Vec::new();
        write_keys(&mut buf, &[1, 2, 3]).unwrap();
        // magic + version + width + count + payload + checksum
        assert_eq!(buf.len(), 8 + 4 + 4 + 8 + 12 + 8);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_keys(&b"NOTAKEYF\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, WcmsError::DatasetCorrupt { .. }), "{err}");
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_wrong_key_width() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes()); // u64 keys: unsupported
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("key width 8"), "{err}");
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut buf = Vec::new();
        write_keys(&mut buf, &[1u32, 2, 3]).unwrap();
        buf.truncate(buf.len() - 10); // into the payload
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(matches!(err, WcmsError::DatasetCorrupt { .. }), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_keys(&mut buf, &[1u32, 2, 3]).unwrap();
        buf.push(0);
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn detects_payload_bit_flip() {
        let mut buf = Vec::new();
        write_keys(&mut buf, &(0..64u32).collect::<Vec<_>>()).unwrap();
        buf[8 + 4 + 4 + 8 + 17] ^= 0x40; // flip one payload bit
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn reads_legacy_v1_files() {
        // v1: magic + version + count + payload, no width, no checksum.
        let keys = [9u32, 8, 7];
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in keys {
            buf.extend_from_slice(&k.to_le_bytes());
        }
        assert_eq!(read_keys(buf.as_slice()).unwrap(), keys);
    }

    // ---- version 3 ----

    fn v3_bytes(keys: &[u32], chunk: usize) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        let mut w = DatasetWriter::new(&mut cur, keys.len() as u64, chunk).unwrap();
        w.write_keys(keys).unwrap();
        w.finish().unwrap();
        cur.into_inner()
    }

    #[test]
    fn v3_roundtrip_various_geometries() {
        for keys in
            [vec![], vec![7u32], (0..1000u32).rev().collect::<Vec<_>>(), vec![u32::MAX; 257]]
        {
            for chunk in [1usize, 3, 64, DEFAULT_CHUNK_KEYS] {
                let buf = v3_bytes(&keys, chunk);
                assert_eq!(read_keys(buf.as_slice()).unwrap(), keys, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn v3_layout_size_is_exact() {
        let buf = v3_bytes(&[1, 2, 3, 4, 5], 2);
        // header(32) + hsum(8) + index(3×8) + isum(8) + payload(20)
        assert_eq!(buf.len(), 32 + 8 + 24 + 8 + 20);
    }

    #[test]
    fn v3_streaming_reader_yields_declared_chunks() {
        let keys: Vec<u32> = (0..10u32).collect();
        let buf = v3_bytes(&keys, 4);
        let mut r = DatasetReader::open(buf.as_slice()).unwrap();
        assert_eq!(r.count(), 10);
        assert_eq!(r.next_chunk().unwrap().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.next_chunk().unwrap().unwrap(), vec![4, 5, 6, 7]);
        assert_eq!(r.next_chunk().unwrap().unwrap(), vec![8, 9]);
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.next_chunk().unwrap().is_none()); // idempotent
    }

    #[test]
    fn v3_writer_enforces_declared_count() {
        let mut cur = Cursor::new(Vec::new());
        let mut w = DatasetWriter::new(&mut cur, 3, 2).unwrap();
        w.write_keys(&[1, 2]).unwrap();
        let err = w.write_keys(&[3, 4]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");

        let mut cur = Cursor::new(Vec::new());
        let mut w = DatasetWriter::new(&mut cur, 3, 2).unwrap();
        w.write_keys(&[1, 2]).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("underflow"), "{err}");
    }

    #[test]
    fn v3_rejects_hostile_geometry() {
        assert!(DatasetWriter::new(Cursor::new(Vec::new()), 1, 0).is_err());
        assert!(DatasetWriter::new(Cursor::new(Vec::new()), 1, MAX_CHUNK_KEYS + 1).is_err());
        assert!(DatasetWriter::new(Cursor::new(Vec::new()), u64::MAX, 1024).is_err());
    }

    #[test]
    fn v3_detects_chunk_bit_flip() {
        let mut buf = v3_bytes(&(0..32u32).collect::<Vec<_>>(), 8);
        let payload_start = buf.len() - 32 * 4;
        buf[payload_start + 37] ^= 0x01;
        let err = read_keys(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("chunk 1 checksum mismatch"), "{err}");
    }

    #[test]
    fn multiset_fingerprint_is_order_independent() {
        let mut a = MultisetFingerprint::new();
        a.update(&[3, 1, 2]);
        a.update(&[9]);
        let mut b = MultisetFingerprint::new();
        b.update(&[9, 2]);
        b.update(&[1, 3]);
        assert_eq!(a.finish(), b.finish());
        let mut c = MultisetFingerprint::new();
        c.update(&[3, 1, 2, 9, 9]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn external_sort_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("wcms-sortfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.keys");
        let output = dir.join("out.keys");
        let keys: Vec<u32> = (0..10_000u32).rev().map(|k| k.wrapping_mul(2654435761)).collect();
        let file = BufWriter::new(File::create(&input).unwrap());
        let mut w = DatasetWriter::new(file, keys.len() as u64, 512).unwrap();
        w.write_keys(&keys).unwrap();
        w.finish().unwrap();

        let report = sort_dataset_file(&input, &output, 1024).unwrap();
        assert_eq!(report.keys, keys.len() as u64);
        assert!(report.runs >= 2, "expected a real multi-run merge, got {}", report.runs);
        let sorted = read_keys(BufReader::new(File::open(&output).unwrap())).unwrap();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
