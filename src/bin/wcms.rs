//! `wcms` — command-line front end.
//!
//! ```text
//! wcms generate  --e 15 --b 512 --n 491520 --out worst.keys
//! wcms evaluate  --w 32 --e 15
//! wcms sort      --e 15 --b 512 --n 61440 [--input worst|random|sorted|reverse|heavy]
//! wcms assess    --file worst.keys --e 15 --b 512
//! wcms occupancy
//! wcms genstream --family random --n 100000000 --out big.keys
//! wcms verify    --file big.keys
//! wcms sortfile  --input big.keys --output sorted.keys
//! ```
//!
//! Each command has its own flag table; a flag a command does not read
//! is refused. Usage:
//!
//! ```text
//! wcms generate [--w <w>] [--e <e>] [--b <b>] [--n <n>] [--out <file>]
//! wcms evaluate [--w <w>] [--e <e>]
//! wcms sort [--w <w>] [--e <e>] [--b <b>] [--n <n>] [--input <worst|random|sorted|reverse|heavy>]
//! wcms assess --file <file> [--w <w>] [--e <e>] [--b <b>]
//! wcms occupancy [--e <e>] [--b <b>]
//! wcms genstream [--family <sorted|reverse|random>] --n <n> --out <file> [--seed <s>] [--chunk <keys>]
//! wcms verify --file <file>
//! wcms sortfile --input <file> --output <file> [--run-keys <k>]
//! ```
//!
//! The last three are the scale-out dataset commands: they stream the
//! version-3 chunked layout, so peak memory stays bounded by the chunk
//! (and, for `sortfile`, the run) size regardless of N — a 10⁸-key
//! dataset generates, verifies, and sorts comfortably under 256 MiB.
//!
//! Every failure path — invalid `(w, E, b)` geometry, a configuration
//! that does not fit the device, a corrupt key file — surfaces as a
//! typed [`WcmsError`] printed to stderr with exit code 1, and a
//! command line the command's table refuses exits 2; nothing panics on
//! user input.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::num::NonZeroU64;
use std::process::ExitCode;

use wcms::adversary::evaluate::access_matrix;
use wcms::adversary::{construct, evaluate, theorem_aligned_count, WorstCaseBuilder};
use wcms::gpu::fault::splitmix64;
use wcms::gpu::{CostModel, DeviceSpec, Occupancy};
use wcms::mergesort::assess_input;
use wcms::mergesort::{sort_with_report, SortParams};
use wcms::workloads::dataset::{
    read_keys, sort_dataset_file, write_keys, DatasetReader, DatasetWriter, MultisetFingerprint,
    DEFAULT_CHUNK_KEYS,
};
use wcms::workloads::random::random_permutation;
use wcms::WcmsError;
use wcms_error::cli::{self, Args, Cli, Flag};

const W: Flag = Flag::value("--w", "w");
const E: Flag = Flag::value("--e", "e");
const B: Flag = Flag::value("--b", "b");
const N: Flag = Flag::value("--n", "n");

/// One command: its table, what it does, and its body.
struct Command {
    cli: Cli,
    about: &'static str,
    run: fn(&Args) -> Result<(), WcmsError>,
}

const COMMANDS: [Command; 8] = [
    Command {
        cli: Cli { name: "wcms generate", flags: &[&[W, E, B, N, Flag::value("--out", "file")]] },
        about: "build a worst-case permutation",
        run: generate,
    },
    Command {
        cli: Cli { name: "wcms evaluate", flags: &[&[W, E]] },
        about: "analyse the per-warp construction and print its access matrix",
        run: evaluate_cmd,
    },
    Command {
        cli: Cli {
            name: "wcms sort",
            flags: &[&[W, E, B, N, Flag::value("--input", "worst|random|sorted|reverse|heavy")]],
        },
        about: "run the simulated sort",
        run: sort_cmd,
    },
    Command {
        cli: Cli {
            name: "wcms assess",
            flags: &[&[Flag::value("--file", "file").required(), W, E, B]],
        },
        about: "read a key file and classify its conflict severity",
        run: assess_cmd,
    },
    Command {
        cli: Cli { name: "wcms occupancy", flags: &[&[E, B]] },
        about: "print the occupancy table for all devices",
        run: occupancy_cmd,
    },
    Command {
        cli: Cli {
            name: "wcms genstream",
            flags: &[&[
                Flag::value("--family", "sorted|reverse|random"),
                N.required(),
                Flag::value("--out", "file").required(),
                Flag::value("--seed", "s"),
                Flag::value("--chunk", "keys"),
            ]],
        },
        about: "stream a v3 dataset under bounded memory",
        run: genstream_cmd,
    },
    Command {
        cli: Cli { name: "wcms verify", flags: &[&[Flag::value("--file", "file").required()]] },
        about: "stream-check a dataset file: checksums, multiset fingerprint, sortedness",
        run: verify_cmd,
    },
    Command {
        cli: Cli {
            name: "wcms sortfile",
            flags: &[&[
                Flag::value("--input", "file").required(),
                Flag::value("--output", "file").required(),
                Flag::value("--run-keys", "k"),
            ]],
        },
        about: "external merge sort, v3 to v3",
        run: sortfile_cmd,
    },
];

fn main() -> ExitCode {
    let mut argv = std::env::args_os().skip(1);
    let command = argv.next().unwrap_or_default();
    let name = command.to_str();
    if let Some(c) = COMMANDS.iter().find(|c| c.cli.name.strip_prefix("wcms ") == name) {
        return cli::run(&c.cli, argv, c.run);
    }
    eprintln!("wcms: {command:?}: unknown command");
    for c in &COMMANDS {
        eprintln!("{}\n    {}", c.cli.usage(), c.about);
    }
    ExitCode::from(2)
}

/// `(--w, --e, --b)`, defaulting to the paper's Thrust tuning.
fn tuning(args: &Args) -> Result<(usize, usize, usize), WcmsError> {
    Ok((args.get_or("--w", 32)?, args.get_or("--e", 15)?, args.get_or("--b", 512)?))
}

fn generate(args: &Args) -> Result<(), WcmsError> {
    let (w, e, b) = tuning(args)?;
    let builder = WorstCaseBuilder::new(w, e, b)?;
    let n = args.get_or("--n", builder.block_elems() * 64)?;
    let n = if builder.valid_len(n) { n } else { builder.next_valid_len(n) };
    let keys = builder.build(n)?;
    match args.value("--out") {
        Some(path) => {
            let file = File::create(path)?;
            write_keys(BufWriter::new(file), &keys)?;
            println!("wrote {n} keys to {path}");
        }
        None => {
            println!("built {n} keys (pass --out FILE to save); first 16: {:?}", &keys[..16.min(n)])
        }
    }
    Ok(())
}

fn evaluate_cmd(args: &Args) -> Result<(), WcmsError> {
    let (w, e, _) = tuning(args)?;
    let asg = construct(w, e)?;
    let ev = evaluate(&asg)?;
    println!(
        "w = {w}, E = {e} ({})",
        if e < w / 2 { "small case, Theorem 3" } else { "large case, Theorem 9" }
    );
    println!("theorem aligned count: {}", theorem_aligned_count(w, e)?);
    println!("measured aligned:      {}", ev.aligned);
    println!("merge-stage cycles:    {} (conflict-free would be {e})", ev.cycles());
    println!("effective parallelism: {} -> {} threads/warp", w, w.div_ceil(e));
    println!("\naccess matrix (rows = banks; = aligned, ! misaligned, . filler):");
    println!("{}", access_matrix(&asg).render());
    Ok(())
}

fn sort_cmd(args: &Args) -> Result<(), WcmsError> {
    let (w, e, b) = tuning(args)?;
    let params = SortParams::new(w, e, b)?;
    let n = {
        let raw = args.get_or("--n", params.block_elems() * 16)?;
        if params.valid_len(raw) {
            raw
        } else {
            params.next_valid_len(raw)
        }
    };
    let input = match args.value("--input").unwrap_or("worst") {
        "worst" => WorstCaseBuilder::new(w, e, b)?.build(n)?,
        "random" => random_permutation(n, 42),
        "sorted" => (0..n as u32).collect(),
        "reverse" => (0..n as u32).rev().collect(),
        "heavy" => WorstCaseBuilder::conflict_heavy(w, e, b, 8.min(e - 1))?.build(n)?,
        other => {
            return Err(WcmsError::Usage {
                reason: format!("--input {other}: expected worst|random|sorted|reverse|heavy"),
            })
        }
    };
    let (out, report) = sort_with_report(&input, &params)?;
    assert!(out.windows(2).all(|x| x[0] <= x[1]));
    let device = DeviceSpec::quadro_m4000();
    // Name the full (E, b, device) triple when the configuration does
    // not fit, instead of the old `.expect("fits")` panic.
    let occ = Occupancy::compute(&device, b, params.shared_bytes()).map_err(|err| match err {
        WcmsError::OccupancyMisfit { device, block_threads, shared_bytes, reason } => {
            WcmsError::OccupancyMisfit {
                device,
                block_threads,
                shared_bytes,
                reason: format!("E={e}: {reason}"),
            }
        }
        other => other,
    })?;
    let t = CostModel::default().estimate(
        &device,
        &occ,
        &report.kernel_counters(),
        report.blocks_launched(),
    );
    println!("sorted {n} keys ({} global rounds)", report.rounds.len());
    println!(
        "beta1 = {:.2}, beta2 = {:.2}",
        report.global_beta1().unwrap_or(1.0),
        report.global_beta2().unwrap_or(1.0)
    );
    println!("conflicts/element = {:.3}", report.conflicts_per_element());
    println!(
        "modelled on {}: {:.3} ms ({:.0} ME/s)",
        device.name,
        t.total_s * 1e3,
        n as f64 / t.total_s / 1e6
    );
    Ok(())
}

fn assess_cmd(args: &Args) -> Result<(), WcmsError> {
    let (w, e, b) = tuning(args)?;
    let path = args.value("--file").unwrap_or_default();
    let keys = read_keys(File::open(path)?)?;
    let params = SortParams::new(w, e, b)?;
    let a = assess_input(&keys, &params)?;
    println!("{} keys under w={w}, E={e}, b={b}:", keys.len());
    println!(
        "  beta1 = {:.2}, beta2 = {:.2} ({:.0}% of the provable worst case)",
        a.beta1,
        a.beta2,
        a.worst_case_fraction * 100.0
    );
    println!("  conflicts/element = {:.3}", a.conflicts_per_element);
    println!("  severity: {:?}", a.severity);
    Ok(())
}

fn dataset_err(reason: impl Into<String>) -> WcmsError {
    WcmsError::DatasetCorrupt { reason: reason.into() }
}

/// `wcms genstream`: write an N-key version-3 dataset one chunk at a
/// time. Peak memory is one chunk (default 4 MiB of keys) regardless
/// of N, so 10⁸–10⁹ keys generate under a small, flat RSS.
fn genstream_cmd(args: &Args) -> Result<(), WcmsError> {
    let n = args.get_or("--n", NonZeroU64::MIN)?.get();
    let out = args.value("--out").unwrap_or_default();
    let family = args.value("--family").unwrap_or("random");
    let seed = args.get_or("--seed", 42)?;
    let chunk = args.get_or("--chunk", DEFAULT_CHUNK_KEYS)?;
    if family == "sorted" || family == "reverse" {
        // Keys are u32: a monotone ramp longer than the key space
        // would have to repeat, which is no longer "sorted distinct".
        if n > u64::from(u32::MAX) + 1 {
            return Err(WcmsError::Usage {
                reason: format!("--family {family}: --n {n} exceeds the u32 key space"),
            });
        }
    }
    let key_at = |i: u64| -> u32 {
        match family {
            "sorted" => i as u32,
            "reverse" => (n - 1 - i) as u32,
            // A splitmix64 hash stream (a multiset, not a permutation):
            // what the external-sort drivers need, and computable at
            // any index without materializing anything.
            _ => splitmix64(seed ^ i) as u32,
        }
    };
    if !matches!(family, "sorted" | "reverse" | "random") {
        return Err(WcmsError::Usage {
            reason: format!(
                "--family {family}: expected sorted|reverse|random (the adversarial families \
                 need the whole array — see `wcms generate`)"
            ),
        });
    }
    let file = BufWriter::new(File::create(out)?);
    let mut writer = DatasetWriter::new(file, n, chunk)?;
    let mut print = MultisetFingerprint::new();
    let mut buf: Vec<u32> = Vec::with_capacity(chunk.min(n as usize));
    let mut i = 0u64;
    while i < n {
        buf.clear();
        let take = (n - i).min(buf.capacity() as u64);
        buf.extend((i..i + take).map(key_at));
        print.update(&buf);
        writer.write_keys(&buf)?;
        i += take;
    }
    writer.finish()?;
    println!("wrote {n} {family} keys to {out} (fingerprint {:016x})", print.finish());
    Ok(())
}

/// `wcms verify`: stream a dataset file end to end — every header,
/// index, and chunk checksum is validated by the reader — and report
/// the count, multiset fingerprint, and whether the keys are sorted.
/// Bounded memory: one chunk at a time.
fn verify_cmd(args: &Args) -> Result<(), WcmsError> {
    let path = args.value("--file").unwrap_or_default();
    let mut reader = DatasetReader::open(BufReader::new(File::open(path)?))?;
    let declared = reader.count();
    let mut print = MultisetFingerprint::new();
    let mut seen = 0u64;
    let mut sorted = true;
    let mut last: Option<u32> = None;
    while let Some(chunk) = reader.next_chunk()? {
        print.update(&chunk);
        seen += chunk.len() as u64;
        for &k in &chunk {
            if last.is_some_and(|p| p > k) {
                sorted = false;
            }
            last = Some(k);
        }
    }
    if seen != declared {
        return Err(dataset_err(format!("dataset declared {declared} keys but streamed {seen}")));
    }
    println!(
        "{path}: {seen} keys, fingerprint {:016x}, {}",
        print.finish(),
        if sorted { "sorted" } else { "not sorted" }
    );
    Ok(())
}

/// `wcms sortfile`: external merge sort of a v3 dataset into a new v3
/// file, with the input/output multiset fingerprint proved equal.
fn sortfile_cmd(args: &Args) -> Result<(), WcmsError> {
    let input = args.value("--input").unwrap_or_default();
    let output = args.value("--output").unwrap_or_default();
    let run_keys = args.get_or("--run-keys", 8 << 20)?;
    let report =
        sort_dataset_file(std::path::Path::new(input), std::path::Path::new(output), run_keys)?;
    println!(
        "sorted {} keys in {} runs -> {output} (fingerprint {:016x}, input == output)",
        report.keys, report.runs, report.fingerprint
    );
    Ok(())
}

fn occupancy_cmd(args: &Args) -> Result<(), WcmsError> {
    let (_, e, b) = tuning(args)?;
    for device in DeviceSpec::presets() {
        let w = device.warp_size;
        let params = SortParams::new(w, e, b)?;
        match Occupancy::compute(&device, b, params.shared_bytes()) {
            Ok(o) => {
                println!(
                "{:<14} E={e:<3} b={b:<4}: {} blocks/SM, {:>4} threads/SM ({:>3.0}%), {}-limited",
                device.name, o.blocks_per_sm, o.threads_per_sm, o.fraction * 100.0, o.limiter
            )
            }
            Err(err) => println!("{:<14} E={e:<3} b={b:<4}: does not fit ({err})", device.name),
        }
    }
    Ok(())
}
