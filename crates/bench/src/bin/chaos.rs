//! Chaos harness for the supervised sweep executor: repeatedly SIGKILL
//! a parallel `fig4` sweep at a random point, corrupt a random
//! checkpoint file, `--resume`, and assert the final CSV is
//! byte-identical to an uninterrupted sequential run. This is the
//! end-to-end proof behind the crash-only checkpoint design: no kill
//! point, worker count, or single-file corruption may change a byte of
//! output.
//!
//! A second, multi-process phase drills the scale-out layer: three
//! `--steal` workers share one checkpoint store, a seeded subset of
//! them is SIGKILLed mid-sweep, one lease file and one cell file are
//! byte-flipped, three fresh workers restart against the survivors'
//! store, and the `merge` binary's output must still be byte-identical
//! to the sequential reference — zero lost cells, zero diverging
//! double-commits, corrupt state quarantined and re-measured.
//!
//! Usage: `chaos [--cycles <k>] [--multi-cycles <k>] [--jobs <n>] [--seed <s>]
//!               [--backend <sim|analytic|reference>] [--keep]`

use std::io;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use wcms_bench::cliargs::{BACKEND, JOBS};
use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::WcmsError;
use wcms_mergesort::BackendKind;

const CLI: Cli = Cli {
    name: "chaos",
    flags: &[&[
        Flag::value("--cycles", "k"),
        Flag::value("--multi-cycles", "k"),
        JOBS,
        Flag::value("--seed", "s"),
        BACKEND,
        Flag::switch("--keep"),
    ]],
};

fn main() -> ExitCode {
    cli::main(&CLI, run)
}

/// Deterministic kill-point generator (an LCG — the harness must not
/// depend on ambient entropy, so a failing seed can be replayed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }
}

/// The fig4 and merge binaries ship next to this one in the target
/// directory.
fn sibling(name: &str) -> Result<PathBuf, WcmsError> {
    let me = std::env::current_exe()?;
    let dir = me.parent().ok_or_else(|| io::Error::other("current_exe has no parent"))?;
    let path = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if !path.exists() {
        let missing = format!("{name} binary not found at {} — build it first", path.display());
        return Err(WcmsError::Io(io::Error::other(missing)));
    }
    Ok(path)
}

fn run(args: &Args) -> Result<(), WcmsError> {
    let cycles: u32 = args.get_or("--cycles", 5)?;
    let jobs = args.get("--jobs")?.map_or(4, NonZeroUsize::get).to_string();
    let seed: u64 = args.get_or("--seed", 0xC4A05)?;
    let backend: BackendKind = args.get("--backend")?.unwrap_or_default();
    let backend = backend.name();
    let keep = args.has("--keep");
    let multi_cycles: u32 = args.get_or("--multi-cycles", 2)?;

    let fig4 = sibling("fig4")?;
    let merge = sibling("merge")?;
    let scratch = std::env::temp_dir().join(format!("wcms-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)?;
    let mut rng = Lcg(seed);

    // The ground truth: one uninterrupted, sequential, checkpoint-free run.
    let clock = wcms_obs::Clock::wall();
    let started = clock.now_us();
    let reference = run_to_completion(
        &fig4,
        &["--quick", "--jobs", "1", "--no-checkpoint", "--backend", backend],
    )?;
    // Kill points are drawn from the sweep's actual duration, so some
    // cycles die mid-sweep with cells on disk and some die early.
    let ref_ms = ((clock.elapsed_s(started) * 1e3) as u64).max(50);
    eprintln!(
        "# chaos: reference CSV is {} bytes (backend {backend}, {ref_ms} ms sequential)",
        reference.len()
    );

    // Sanity: an uninterrupted *parallel* run must already match.
    let parallel = run_to_completion(
        &fig4,
        &["--quick", "--jobs", &jobs, "--no-checkpoint", "--backend", backend],
    )?;
    if parallel != reference {
        return Err(WcmsError::Io(io::Error::other(format!(
            "uninterrupted --jobs {jobs} run differs from sequential before any chaos"
        ))));
    }

    for cycle in 1..=cycles {
        let ckpt = scratch.join(format!("cycle-{cycle}"));
        let ckpt_s = ckpt.to_string_lossy().into_owned();
        let sweep_args =
            ["--quick", "--jobs", &jobs, "--checkpoint-dir", &ckpt_s, "--backend", backend];

        // Phase 1: start the sweep, kill it after a random delay.
        let mut child = Command::new(&fig4)
            .args(sweep_args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let delay = Duration::from_millis(rng.below(ref_ms));
        std::thread::sleep(delay);
        let killed = child.kill().is_ok(); // Err: it already finished — also a valid kill point.
        let _ = child.wait();

        // Phase 2: corrupt one surviving checkpoint file, if any.
        let corrupted = corrupt_random_cell(&ckpt, &mut rng)?;

        // Phase 3: resume to completion and compare bytes.
        let mut resume_args = sweep_args.to_vec();
        resume_args.push("--resume");
        let resumed = run_to_completion(&fig4, &resume_args)?;
        eprintln!(
            "# chaos: cycle {cycle}/{cycles}: killed after {delay:?} (killed={killed}), \
             corrupted={corrupted}, resumed CSV {} bytes",
            resumed.len()
        );
        if resumed != reference {
            std::fs::write(scratch.join("expected.csv"), &reference)?;
            std::fs::write(scratch.join("got.csv"), &resumed)?;
            return Err(WcmsError::Io(io::Error::other(format!(
                "cycle {cycle}: resumed CSV differs from the reference run \
                 (seed {seed}, delay {delay:?}); see {}",
                scratch.display()
            ))));
        }
    }

    for cycle in 1..=multi_cycles {
        multi_process_cycle(
            &fig4,
            &merge,
            &scratch,
            backend,
            &reference,
            &mut rng,
            ref_ms,
            cycle,
            multi_cycles,
            seed,
        )?;
    }

    if keep {
        eprintln!("# chaos: scratch kept at {}", scratch.display());
    } else {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    println!(
        "chaos: {cycles} kill/corrupt/resume cycles + {multi_cycles} multi-process steal \
         drills, all byte-identical"
    );
    Ok(())
}

/// One multi-process drill: 3 stealing workers on a shared store, a
/// seeded subset SIGKILLed mid-sweep, one lease and one cell file
/// byte-flipped, 3 fresh workers restarted, then `merge` — whose CSV
/// must match the sequential reference byte for byte.
#[allow(clippy::too_many_arguments)] // a drill is one long recipe, not an API
fn multi_process_cycle(
    fig4: &Path,
    merge: &Path,
    scratch: &Path,
    backend: &str,
    reference: &[u8],
    rng: &mut Lcg,
    ref_ms: u64,
    cycle: u32,
    cycles: u32,
    seed: u64,
) -> Result<(), WcmsError> {
    let ckpt = scratch.join(format!("multi-{cycle}"));
    let ckpt_s = ckpt.to_string_lossy().into_owned();
    let worker_args = |id: &str| -> Vec<String> {
        [
            "--quick",
            "--checkpoint-dir",
            &ckpt_s,
            "--steal",
            "--worker-id",
            id,
            "--lease-ttl",
            "2",
            "--backend",
            backend,
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    };

    // Phase 1: three stealing workers, then SIGKILL a seeded subset at
    // seeded points inside the sweep's duration. The same worker may be
    // drawn twice (a smaller subset) — that is part of the seed space.
    let mut children = Vec::new();
    for i in 0..3 {
        children.push(
            Command::new(fig4)
                .args(worker_args(&format!("w{i}")))
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?,
        );
    }
    let kills = 1 + rng.below(3);
    let mut delays: Vec<u64> = (0..kills).map(|_| rng.below(ref_ms)).collect();
    delays.sort_unstable();
    let mut elapsed = 0;
    let mut killed = 0;
    for delay in delays {
        std::thread::sleep(Duration::from_millis(delay - elapsed));
        elapsed = delay;
        let victim = rng.below(3) as usize;
        killed += u32::from(children[victim].kill().is_ok());
    }
    for child in &mut children {
        let _ = child.wait();
    }

    // Phase 2: flip one byte in a surviving cell file and in a lease
    // file. Both must be quarantined on restart, never trusted.
    let cell_flipped = corrupt_random_cell(&ckpt, rng)?;
    let lease_flipped = corrupt_random_lease(&ckpt, rng)?;

    // Phase 3: three fresh workers (same ids — a restarted fleet) run
    // the grid to completion against whatever the crash left behind.
    let mut restarted = Vec::new();
    for i in 0..3 {
        restarted.push(
            Command::new(fig4)
                .args(worker_args(&format!("w{i}")))
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?,
        );
    }
    for child in &mut restarted {
        let status = child.wait()?;
        if !status.success() {
            return Err(WcmsError::Io(io::Error::other(format!(
                "multi cycle {cycle}: restarted worker failed: {status}"
            ))));
        }
    }

    // Phase 4: merge must publish the complete grid, byte-identical.
    let merged = run_to_completion(
        merge,
        &["--figure", "fig4", "--quick", "--checkpoint-dir", &ckpt_s, "--backend", backend],
    )?;
    eprintln!(
        "# chaos: multi {cycle}/{cycles}: killed {killed}/3 workers, \
         cell_flipped={cell_flipped}, lease_flipped={lease_flipped}, merged CSV {} bytes",
        merged.len()
    );
    if merged != reference {
        std::fs::write(scratch.join("expected.csv"), reference)?;
        std::fs::write(scratch.join("got.csv"), &merged)?;
        return Err(WcmsError::Io(io::Error::other(format!(
            "multi cycle {cycle}: merged CSV differs from the reference run (seed {seed}); \
             see {}",
            scratch.display()
        ))));
    }
    Ok(())
}

/// Corrupt a lease: flip one byte in a surviving lease file, or — when
/// the crash left none behind (workers release leases as cells commit)
/// — plant a torn lease for a random committed cell. Either way a
/// restarted worker must quarantine it and treat the slot as expired.
fn corrupt_random_lease(ckpt: &Path, rng: &mut Lcg) -> Result<bool, WcmsError> {
    let leases = ckpt.join("leases");
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&leases) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("lease-")))
            .filter(|p| p.extension().is_some_and(|e| e == "json")) // not a claim temp
            .collect(),
        Err(_) => Vec::new(), // killed before any lease appeared
    };
    if files.is_empty() {
        // Derive a plausible lease name from a committed cell so the
        // restarted workers are guaranteed to trip over it.
        let mut cells: Vec<String> = match std::fs::read_dir(ckpt) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
                .filter(|n| n.starts_with("cell-"))
                .collect(),
            Err(_) => return Ok(false),
        };
        if cells.is_empty() {
            return Ok(false);
        }
        cells.sort();
        let cell = &cells[rng.below(cells.len() as u64) as usize];
        let lease = leases.join(format!("lease-{}", &cell["cell-".len()..]));
        std::fs::create_dir_all(&leases)?;
        std::fs::write(&lease, b"{\"owner\":\"torn mid-write")?;
        return Ok(true);
    }
    files.sort();
    let victim = &files[rng.below(files.len() as u64) as usize];
    let mut bytes = std::fs::read(victim)?;
    if bytes.is_empty() {
        return Ok(false);
    }
    let at = rng.below(bytes.len() as u64) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(victim, &bytes)?;
    Ok(true)
}

/// Run `fig4` with `args` to completion and return its stdout bytes.
fn run_to_completion(fig4: &Path, args: &[&str]) -> Result<Vec<u8>, WcmsError> {
    let out = Command::new(fig4).args(args).stderr(Stdio::null()).output()?;
    if !out.status.success() {
        return Err(WcmsError::Io(io::Error::other(format!(
            "fig4 {} failed with {}",
            args.join(" "),
            out.status
        ))));
    }
    Ok(out.stdout)
}

/// Flip one byte in a randomly chosen cell checkpoint; returns whether
/// there was anything to corrupt. The resumed run must quarantine the
/// file and re-measure that cell without changing its output.
fn corrupt_random_cell(ckpt: &Path, rng: &mut Lcg) -> Result<bool, WcmsError> {
    let mut cells: Vec<PathBuf> = match std::fs::read_dir(ckpt) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("cell-")))
            .collect(),
        Err(_) => return Ok(false), // killed before the directory appeared
    };
    if cells.is_empty() {
        return Ok(false);
    }
    cells.sort(); // read_dir order is not deterministic; the pick must be
    let victim = &cells[rng.below(cells.len() as u64) as usize];
    let mut bytes = std::fs::read(victim)?;
    if bytes.is_empty() {
        return Ok(false);
    }
    let at = rng.below(bytes.len() as u64) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(victim, &bytes)?;
    Ok(true)
}
